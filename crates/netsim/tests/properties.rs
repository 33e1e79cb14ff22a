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
/// tick and place, through one [`Context::send_run`] or one
/// [`Context::send_with`] a send. Counts the payloads it built and
/// notes what each `send_run` answered.
struct RunSender {
    runs: Vec<Vec<Ipv4Addr>>,
    one_call: bool,
    built: Rc<Cell<u64>>,
    answers: Rc<std::cell::RefCell<Vec<bool>>>,
}

impl Endpoint for RunSender {
    fn handle_datagram(&mut self, _dgram: &Datagram, _ctx: &mut Context<'_>) {}

    fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let from = (ctx.local_addr(), 61_000);
        let run = &self.runs[token as usize];
        let built = &self.built;
        let payload = |i: usize| {
            built.set(built.get() + 1);
            [token as u8, i as u8][..].into()
        };
        if self.one_call {
            let sends = run.iter().copied().zip(0..);
            let answer = ctx.send_run(from, 53, sends, payload);
            self.answers.borrow_mut().push(answer);
        } else {
            for (i, &dst) in run.iter().enumerate() {
                ctx.send_with(from, (dst, 53), || payload(i));
            }
        }
        if token + 1 < self.runs.len() as u64 {
            ctx.set_timer(Duration::from_millis(5), token + 1);
        }
    }
}

const RUN_SENDER: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
const EAGER: Ipv4Addr = Ipv4Addr::new(10, 2, 0, 1);

/// Runs `runs` from [`RUN_SENDER`] under `plan`: the books, what was
/// heard, how many payloads were built, and what `send_run` answered.
fn send_runs(
    runs: &[Vec<Ipv4Addr>],
    one_call: bool,
    plan: FaultPlan,
) -> (NetStats, Log, u64, Vec<bool>) {
    let heard = Heard::default();
    let mut net = SimNet::builder()
        .latency(FixedLatency(Duration::from_millis(3)))
        .faults(plan)
        .lazy_hosts(Plans(Rc::clone(&heard)))
        .build();
    let built = Rc::new(Cell::new(0));
    let answers = Rc::default();
    net.register(EAGER, Hears(Rc::clone(&heard)));
    net.register(
        RUN_SENDER,
        RunSender {
            runs: runs.to_vec(),
            one_call,
            built: Rc::clone(&built),
            answers: Rc::clone(&answers),
        },
    );
    net.set_timer_for(RUN_SENDER, SimTime::ZERO, 0);
    net.run_until_idle();
    let heard = heard.take();
    (*net.stats(), heard, built.get(), answers.take())
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
fn a_run_settled_in_one_call_is_each_send_settled_alone() {
    cases(200, |rng| {
        let runs = runs(rng);
        let (stats, heard, built, answers) = send_runs(&runs, true, FaultPlan::new());
        let (alone, heard_alone, built_alone, _) = send_runs(&runs, false, FaultPlan::new());
        assert!(answers.iter().all(|&answer| answer));
        assert_eq!(stats, alone, "every book: {runs:?}");
        assert_eq!(heard, heard_alone, "every payload that travelled: {runs:?}");
        // A payload is built for the sends that travel, and only for them.
        let travelled = runs
            .iter()
            .flatten()
            .filter(|dst| dst.octets()[..2] != [10, 4])
            .count() as u64;
        assert_eq!((built, built_alone), (travelled, travelled), "{runs:?}");
        assert_eq!(stats.sent, runs.iter().flatten().count() as u64);
        assert_eq!(stats.unrouted, stats.sent - travelled);
    });
}

#[test]
fn a_run_is_refused_under_every_kind_of_fault_rule() {
    // Each kind, scoped to a host no run reaches and active only long
    // after the runs: it draws no verdict on them, yet its presence is
    // enough to refuse the shortcut.
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
    let (clean, clean_heard, ..) = send_runs(&runs, true, FaultPlan::new());
    for kind in kinds {
        let rule = FaultRule::window(
            Duration::from_secs(3_600),
            Duration::from_secs(7_200),
            elsewhere,
            kind,
        );
        let (stats, heard, built, answers) =
            send_runs(&runs, true, FaultPlan::seeded(7).with_rule(rule));
        assert_eq!(answers, [false; 3], "{kind:?}");
        assert_eq!(
            (stats.sent, built),
            (0, 0),
            "{kind:?}: nothing sent or built"
        );
        assert!(heard.is_empty(), "{kind:?}");
        // Sent alone, the runs leave what one call leaves without a rule.
        let (alone, heard_alone, ..) =
            send_runs(&runs, false, FaultPlan::seeded(7).with_rule(rule));
        assert_eq!(alone, clean, "{kind:?}");
        assert_eq!(heard_alone, clean_heard, "{kind:?}");
    }
}
