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
    Context, Datagram, Endpoint, FaultKind, FaultPlan, FaultRule, FaultScope, FixedLatency, SimNet,
    SimTime,
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
