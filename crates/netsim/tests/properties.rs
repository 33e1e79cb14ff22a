//! Property tests for the simulation engine: determinism, causality,
//! and conservation of packets.

use std::cell::Cell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use orscope_check::{cases, Rng};
use orscope_netsim::{
    Context, Coverage, Datagram, Endpoint, FaultKind, FaultPlan, FaultRule, FaultScope,
    FixedLatency, LazyRegistry, NetStats, SimNet, SimTime,
};

/// Echoes every datagram and records receive times.
struct Echo {
    received: Arc<AtomicU64>,
    last_at: Rc<Cell<SimTime>>,
}

impl Endpoint for Echo {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        self.received.fetch_add(1, Ordering::Relaxed);
        assert!(ctx.now() >= self.last_at.get(), "time went backwards");
        self.last_at.set(ctx.now());
        // Echo only queries (destination port 53) to avoid ping-pong.
        if dgram.dst_port == 53 {
            ctx.send(dgram.reply(dgram.payload.clone()));
        }
    }
}

fn run_sim(seed: u64, loss: f64, packets: &[(u32, u16, u8)]) -> (u64, u64, u64) {
    let mut net = SimNet::builder()
        .seed(seed)
        .latency(FixedLatency(Duration::from_millis(7)))
        .faults(FaultPlan::uniform_loss(seed, loss))
        .build();
    let received = Arc::new(AtomicU64::new(0));
    let last_at = Rc::new(Cell::new(SimTime::ZERO));
    let server = Ipv4Addr::new(10, 200, 0, 1); // reserved-range ok in raw netsim
    net.register(
        server,
        Echo {
            received: received.clone(),
            last_at: last_at.clone(),
        },
    );
    let client_received = Arc::new(AtomicU64::new(0));
    let client = Ipv4Addr::new(10, 200, 0, 2);
    net.register(
        client,
        Echo {
            received: client_received.clone(),
            last_at: Rc::new(Cell::new(SimTime::ZERO)),
        },
    );
    for &(salt, port, len) in packets {
        net.inject(Datagram::new(
            (client, 1000 + port % 30_000),
            (server, 53),
            vec![salt as u8; len as usize + 1],
        ));
    }
    net.run_until_idle();
    (
        received.load(Ordering::Relaxed),
        client_received.load(Ordering::Relaxed),
        net.stats().events,
    )
}

/// 1..`most` packets as `(payload byte, source port, payload length)`.
fn packets(rng: &mut Rng, most: usize) -> Vec<(u32, u16, u8)> {
    rng.vec(1..most, |rng| (rng.range(..), rng.range(..), rng.range(..)))
}

/// The same seed and workload reproduce the identical event history.
#[test]
fn identical_runs_are_bit_identical() {
    cases(64, |rng| {
        let (seed, loss) = (rng.next_u64(), rng.f64(0.0, 0.9));
        let packets = packets(rng, 40);
        assert_eq!(run_sim(seed, loss, &packets), run_sim(seed, loss, &packets));
    });
}

/// Without loss, every injected packet is delivered and echoed:
/// conservation of datagrams.
#[test]
fn lossless_delivery_conserves_packets() {
    cases(64, |rng| {
        let seed = rng.next_u64();
        let packets = packets(rng, 40);
        let (server_got, client_got, _) = run_sim(seed, 0.0, &packets);
        assert_eq!(server_got as usize, packets.len());
        assert_eq!(client_got as usize, packets.len());
    });
}

/// With loss, deliveries never exceed injections and the run still
/// drains (no stuck events).
#[test]
fn lossy_delivery_is_bounded() {
    cases(64, |rng| {
        let (seed, loss) = (rng.next_u64(), rng.f64(0.1, 1.0));
        let packets = packets(rng, 60);
        let (server_got, client_got, _) = run_sim(seed, loss, &packets);
        assert!(server_got as usize <= packets.len());
        assert!(client_got <= server_got);
    });
}

/// At 50 % loss every seed delivers roughly half of a high-volume run.
#[test]
fn loss_rate_is_roughly_honored() {
    cases(64, |rng| {
        let packets: Vec<(u32, u16, u8)> = (0..200).map(|i| (i, i as u16, 1)).collect();
        let (server_got, _, _) = run_sim(rng.next_u64(), 0.5, &packets);
        // 200 Bernoulli(0.5): far outside [40, 160] is ~impossible.
        assert!((40..=160).contains(&server_got), "{server_got}");
    });
}

/// Like [`run_sim`], but with an explicit fault plan instead of the
/// legacy loss knob.
fn run_faulted(seed: u64, plan: FaultPlan, packets: &[(u32, u16, u8)]) -> (u64, u64, u64) {
    let mut net = SimNet::builder()
        .seed(seed)
        .latency(FixedLatency(Duration::from_millis(7)))
        .faults(plan)
        .build();
    let received = Arc::new(AtomicU64::new(0));
    let last_at = Rc::new(Cell::new(SimTime::ZERO));
    let server = Ipv4Addr::new(10, 200, 0, 1);
    net.register(
        server,
        Echo {
            received: received.clone(),
            last_at: last_at.clone(),
        },
    );
    let client_received = Arc::new(AtomicU64::new(0));
    let client = Ipv4Addr::new(10, 200, 0, 2);
    net.register(
        client,
        Echo {
            received: client_received.clone(),
            last_at: Rc::new(Cell::new(SimTime::ZERO)),
        },
    );
    for &(salt, port, len) in packets {
        net.inject(Datagram::new(
            (client, 1000 + port % 30_000),
            (server, 53),
            vec![salt as u8; len as usize + 1],
        ));
    }
    net.run_until_idle();
    (
        received.load(Ordering::Relaxed),
        client_received.load(Ordering::Relaxed),
        net.stats().events,
    )
}

/// Reorder and delay faults shuffle deliveries (the `Echo` endpoint
/// asserts time still never goes backwards) but neither create nor
/// destroy datagrams, and the whole schedule reproduces bit-exactly
/// from the plan seed.
#[test]
fn reordered_delivery_conserves_packets_and_reproduces() {
    cases(64, |rng| {
        let seed = rng.next_u64();
        let plan = FaultPlan::seeded(seed ^ 0xC4A0)
            .with_rule(FaultRule::always(
                FaultScope::All,
                FaultKind::Reorder {
                    probability: rng.f64(0.1, 1.0),
                    max_shift: Duration::from_millis(rng.range(1..200)),
                },
            ))
            .with_rule(FaultRule::always(
                FaultScope::All,
                FaultKind::Delay {
                    extra: Duration::ZERO,
                    jitter: Duration::from_millis(rng.range(1..50)),
                },
            ));
        let packets = packets(rng, 40);
        let a = run_faulted(seed, plan.clone(), &packets);
        let b = run_faulted(seed, plan, &packets);
        assert_eq!(a, b);
        // Conservation: every query arrives and every echo returns,
        // however shuffled.
        let (server_got, client_got, _) = a;
        assert_eq!(server_got as usize, packets.len());
        assert_eq!(client_got as usize, packets.len());
    });
}

/// A blackhole window is total while it lasts: with the window
/// covering the whole run, nothing is delivered; with no rules,
/// everything is.
#[test]
fn blackhole_window_is_total() {
    cases(64, |rng| {
        let seed = rng.next_u64();
        let packets = packets(rng, 40);
        let plan = FaultPlan::seeded(seed).with_rule(FaultRule::always(
            FaultScope::Host(Ipv4Addr::new(10, 200, 0, 1)),
            FaultKind::Blackhole,
        ));
        let (server_got, client_got, _) = run_faulted(seed, plan, &packets);
        assert_eq!((server_got, client_got), (0, 0));
        let (clean_server, clean_client, _) = run_faulted(seed, FaultPlan::seeded(seed), &packets);
        assert_eq!(clean_server as usize, packets.len());
        assert_eq!(clean_client as usize, packets.len());
    });
}

/// What a run of sends reached: each datagram's arrival time, host and
/// payload.
type Log = Vec<(SimTime, Ipv4Addr, Vec<u8>)>;
type Heard = Rc<std::cell::RefCell<Log>>;

/// Logs every datagram it hears; released after each one when lazy.
struct Hears(Heard);

impl Endpoint for Hears {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        self.0
            .borrow_mut()
            .push((ctx.now(), dgram.dst, dgram.payload.to_vec()));
    }

    fn is_quiescent(&self) -> bool {
        true
    }
}

/// Plans a [`Hears`] at every 10.3.0.x.
struct Plans(Heard);

impl Coverage for Plans {
    fn covers(&self, addr: Ipv4Addr) -> bool {
        addr.octets()[..3] == [10, 3, 0]
    }
}

impl LazyRegistry for Plans {
    fn materialize(&self, addr: Ipv4Addr) -> Option<Box<dyn Endpoint>> {
        self.covers(addr)
            .then(|| Box::new(Hears(Rc::clone(&self.0))) as Box<dyn Endpoint>)
    }
}

/// Sends one run a tick: `runs[token]`, each datagram carrying its
/// tick and place, through one [`Context::send_with`] a send. Counts the
/// payloads it built.
struct RunSender {
    runs: Vec<Vec<Ipv4Addr>>,
    built: Rc<Cell<u64>>,
}

impl Endpoint for RunSender {
    fn handle_datagram(&mut self, _dgram: &Datagram, _ctx: &mut Context<'_>) {}

    fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let from = (ctx.local_addr(), 61_000);
        for (i, &dst) in self.runs[token as usize].iter().enumerate() {
            ctx.send_with(from, (dst, 53), || {
                self.built.set(self.built.get() + 1);
                [token as u8, i as u8][..].into()
            });
        }
        if token + 1 < self.runs.len() as u64 {
            ctx.set_timer(Duration::from_millis(5), token + 1);
        }
    }
}

const RUN_SENDER: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
const EAGER: Ipv4Addr = Ipv4Addr::new(10, 2, 0, 1);

/// Runs `runs` from [`RUN_SENDER`] under `plan`: the books, what was
/// heard, and how many payloads were built.
fn send_runs(runs: &[Vec<Ipv4Addr>], plan: FaultPlan) -> (NetStats, Log, u64) {
    let heard = Heard::default();
    let mut net = SimNet::builder()
        .latency(FixedLatency(Duration::from_millis(3)))
        .faults(plan)
        .lazy_hosts(Plans(Rc::clone(&heard)))
        .build();
    let built = Rc::new(Cell::new(0));
    net.register(EAGER, Hears(Rc::clone(&heard)));
    net.register(
        RUN_SENDER,
        RunSender {
            runs: runs.to_vec(),
            built: Rc::clone(&built),
        },
    );
    net.set_timer_for(RUN_SENDER, SimTime::ZERO, 0);
    net.run_until_idle();
    let heard = heard.take();
    (*net.stats(), heard, built.get())
}

/// Runs of up to a dozen sends to the eager host, planned hosts and
/// nobody, the same address twice in a run included.
fn runs(rng: &mut Rng) -> Vec<Vec<Ipv4Addr>> {
    (0..rng.range(1..6))
        .map(|_| {
            (0..rng.range(0..12))
                .map(|_| match rng.range(0..4) {
                    0 => EAGER,
                    1 => Ipv4Addr::new(10, 3, 0, rng.range(0..4)),
                    _ => Ipv4Addr::new(10, 4, 0, rng.range(0..4)),
                })
                .collect()
        })
        .collect()
}

#[test]
fn send_with_builds_a_payload_only_for_a_send_that_travels() {
    cases(200, |rng| {
        let runs = runs(rng);
        let (stats, heard, built) = send_runs(&runs, FaultPlan::new());
        let travelled = runs
            .iter()
            .flatten()
            .filter(|dst| dst.octets()[..2] != [10, 4])
            .count() as u64;
        assert_eq!(built, travelled, "{runs:?}");
        assert_eq!(heard.len() as u64, travelled, "{runs:?}");
        assert_eq!(stats.sent, runs.iter().flatten().count() as u64);
        assert_eq!(stats.unrouted, stats.sent - travelled);
    });
}

#[test]
fn a_rule_of_every_kind_that_draws_no_verdict_changes_nothing() {
    // Each kind, scoped to a host no run reaches and active only long
    // after the runs: it draws no verdict on them, so every book and
    // every heard payload reads as with no rule at all.
    let elsewhere = FaultScope::Host(Ipv4Addr::new(10, 9, 9, 9));
    let kinds = [
        FaultKind::Loss { probability: 1.0 },
        FaultKind::Duplicate { probability: 1.0 },
        FaultKind::Delay {
            extra: Duration::from_millis(1),
            jitter: Duration::ZERO,
        },
        FaultKind::Reorder {
            probability: 1.0,
            max_shift: Duration::from_millis(1),
        },
        FaultKind::Blackhole,
        FaultKind::Crash,
    ];
    let runs = vec![
        vec![
            EAGER,
            Ipv4Addr::new(10, 3, 0, 1),
            Ipv4Addr::new(10, 4, 0, 1)
        ];
        3
    ];
    let clean = send_runs(&runs, FaultPlan::new());
    assert_eq!(clean.1.len(), 6, "the eager and the planned host heard");
    for kind in kinds {
        let rule = FaultRule::window(
            Duration::from_secs(3_600),
            Duration::from_secs(7_200),
            elsewhere,
            kind,
        );
        let ruled = send_runs(&runs, FaultPlan::seeded(7).with_rule(rule));
        assert_eq!(ruled, clean, "{kind:?}");
    }
}
