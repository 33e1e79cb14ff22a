//! `Context::advance_to` is unobservable: a paced sender that runs its
//! idle ticks inside one dispatch leaves the world exactly as the same
//! sender arming a timer for every tick does — every delivery, every
//! counter and its own state at every pause of the run.

use std::cell::{Cell, RefCell};
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

use orscope_check::{cases, Rng};
use orscope_netsim::{
    Context, Coverage, Datagram, Endpoint, FaultKind, FaultPlan, FaultRule, FaultScope,
    HashLatency, LazyRegistry, NetStats, SimNet, SimTime,
};

/// Every datagram delivered anywhere, in delivery order: when, to whom,
/// from whom, and what it carried.
type Log = Rc<RefCell<Vec<(SimTime, Ipv4Addr, Ipv4Addr, Vec<u8>)>>>;

const SENDER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SENDER_PORT: u16 = 4000;
/// The sender's pacing timer.
const TICK: u64 = 0;
/// A foreign timer at the sender, which it counts as heard.
const HEAR: u64 = 1;

/// A registered peer at 10.1.0.`i` (echoing when `i` is even), a
/// planned one at 10.2.0.`i` (always echoing, released once it has),
/// nobody at 10.3.0.`i`.
fn peer(kind: u8, i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, kind, 0, i)
}

/// What the sender has done, compared at every pause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SenderState {
    ticks: u64,
    last_tick: SimTime,
    heard: u64,
}

/// Ticks every `interval` until it has ticked `ticks` times. What a
/// tick sends — to whom, what, or nothing — depends on what the sender
/// has heard so far, so a tick run out of turn shows in the log.
struct Sender {
    advancing: bool,
    peers: Vec<Ipv4Addr>,
    interval: Duration,
    ticks: u64,
    state: Rc<Cell<SenderState>>,
    /// How many ticks ran inside an earlier tick's dispatch.
    advanced: Rc<Cell<u64>>,
    log: Log,
}

impl Endpoint for Sender {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        record(&self.log, dgram, ctx);
        self.hear();
    }

    fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        if token == HEAR {
            self.hear();
            return;
        }
        loop {
            let mut state = self.state.get();
            state.ticks += 1;
            state.last_tick = ctx.now();
            self.state.set(state);
            let pick = state.ticks + 3 * state.heard;
            if !pick.is_multiple_of(4) {
                let dst = self.peers[pick as usize % self.peers.len()];
                let payload = [state.ticks as u8, state.heard as u8];
                ctx.send_with((SENDER, SENDER_PORT), (dst, 53), || payload[..].into());
            }
            if state.ticks == self.ticks {
                return;
            }
            let next = ctx.now() + self.interval;
            if self.advancing && ctx.advance_to(next) {
                self.advanced.set(self.advanced.get() + 1);
                continue;
            }
            ctx.set_timer_at(next, TICK);
            return;
        }
    }
}

impl Sender {
    fn hear(&self) {
        let mut state = self.state.get();
        state.heard += 1;
        self.state.set(state);
    }
}

fn record(log: &Log, dgram: &Datagram, ctx: &Context<'_>) {
    log.borrow_mut().push((
        ctx.now(),
        ctx.local_addr(),
        dgram.src,
        dgram.payload.to_vec(),
    ));
}

/// Logs what it receives and, when `echo`, answers a query; a timer
/// sends its token to the sender.
struct Peer {
    log: Log,
    echo: bool,
    quiescent: bool,
}

impl Endpoint for Peer {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        record(&self.log, dgram, ctx);
        if self.echo && dgram.dst_port == 53 {
            ctx.send(dgram.reply(dgram.payload.clone()));
        }
    }

    fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        ctx.send_with((ctx.local_addr(), 53), (SENDER, SENDER_PORT), || {
            [token as u8, 0xEE][..].into()
        });
    }

    fn is_quiescent(&self) -> bool {
        self.quiescent
    }
}

/// Plans an echoing, quiescent [`Peer`] at every 10.2.0.x.
struct Planned(Log);

impl Coverage for Planned {
    fn covers(&self, addr: Ipv4Addr) -> bool {
        addr.octets()[..3] == [10, 2, 0]
    }
}

impl LazyRegistry for Planned {
    fn materialize(&self, addr: Ipv4Addr) -> Option<Box<dyn Endpoint>> {
        self.covers(addr).then(|| {
            Box::new(Peer {
                log: self.0.clone(),
                echo: true,
                quiescent: true,
            }) as Box<dyn Endpoint>
        })
    }
}

/// One drawn world, run either way.
struct World {
    seed: u64,
    latency: HashLatency,
    rule: Option<FaultRule>,
    max_events: Option<u64>,
    registered: u8,
    peers: Vec<Ipv4Addr>,
    interval: Duration,
    ticks: u64,
    /// `(host, at, token)`: at a registered peer or at the sender.
    foreign_timers: Vec<(Ipv4Addr, SimTime, u64)>,
    pauses: Vec<SimTime>,
}

impl World {
    fn draw(rng: &mut Rng) -> Self {
        let min = Duration::from_micros(rng.range(100..30_000));
        let latency = HashLatency {
            min,
            max: min + Duration::from_micros(rng.range(0..100_000)),
            seed: rng.next_u64(),
        };
        let interval = Duration::from_micros(rng.range(500..40_000));
        let ticks = rng.range(1..400);
        let span = interval.as_nanos() as u64 * ticks;
        let registered = rng.range(1..6);
        let peers = rng.vec(1..12, |rng| {
            let kind = rng.range(1..=3u8);
            match kind {
                1 => peer(1, rng.range(0..registered)),
                _ => peer(kind, rng.range(0..8)),
            }
        });
        let at = |rng: &mut Rng| SimTime::from_nanos(rng.range(0..span + span / 4 + 1));
        // A foreign timer may fall on the very instant of a tick, where
        // it was queued first and fires first.
        let foreign_timers = rng.vec(0..20, |rng| {
            let at = match rng.bool() {
                true => at(rng),
                false => SimTime::ZERO + interval * rng.range(0..ticks as u32 + 1),
            };
            match rng.bool() {
                true => (peer(1, rng.range(0..registered)), at, rng.range(0..256)),
                false => (SENDER, at, HEAR),
            }
        });
        let mut pauses = rng.vec(0..6, at);
        pauses.sort_unstable();
        let rule = rng.chance(30).then(|| {
            let from = Duration::from_nanos(rng.range(0..span + 1));
            let until = from + Duration::from_millis(rng.range(1..5_000));
            let scope = match rng.range(0..3) {
                0 => FaultScope::All,
                1 => FaultScope::Host(*rng.choice(&peers)),
                _ => FaultScope::Host(SENDER),
            };
            let kind = match rng.range(0..5) {
                0 => FaultKind::Loss {
                    probability: rng.f64(0.0, 1.0),
                },
                1 => FaultKind::Duplicate {
                    probability: rng.f64(0.0, 1.0),
                },
                2 => FaultKind::Delay {
                    extra: Duration::from_millis(rng.range(0..50)),
                    jitter: Duration::from_millis(rng.range(0..50)),
                },
                3 => FaultKind::Blackhole,
                _ => FaultKind::Crash,
            };
            let scope = match (kind, scope) {
                (FaultKind::Crash, FaultScope::All) => FaultScope::Host(SENDER),
                (_, scope) => scope,
            };
            FaultRule::window(from, until, scope, kind)
        });
        let max_events = rng.chance(20).then(|| rng.range(1..2 * ticks + 20));
        Self {
            seed: rng.next_u64(),
            latency,
            rule,
            max_events,
            registered,
            peers,
            interval,
            ticks,
            foreign_timers,
            pauses,
        }
    }

    /// The sender's state, the clock and the counters at every pause and
    /// at the end, the queue's high-water mark, every delivery, and how
    /// many ticks ran inside another's dispatch.
    fn run(&self, advancing: bool) -> (Vec<(SimTime, SenderState, NetStats)>, usize, Log, u64) {
        let log = Log::default();
        let plan = FaultPlan::seeded(self.seed);
        let mut builder = SimNet::builder()
            .latency(self.latency)
            .faults(self.rule.map_or(plan.clone(), |rule| plan.with_rule(rule)))
            .lazy_hosts(Planned(log.clone()));
        if let Some(cap) = self.max_events {
            builder = builder.max_events(cap);
        }
        let mut net: SimNet = builder.build();
        for i in 0..self.registered {
            net.register(
                peer(1, i),
                Peer {
                    log: log.clone(),
                    echo: i % 2 == 0,
                    quiescent: false,
                },
            );
        }
        let state = Rc::new(Cell::new(SenderState::default()));
        let advanced = Rc::new(Cell::new(0));
        net.register(
            SENDER,
            Sender {
                advancing,
                peers: self.peers.clone(),
                interval: self.interval,
                ticks: self.ticks,
                state: state.clone(),
                advanced: advanced.clone(),
                log: log.clone(),
            },
        );
        net.set_timer_for(SENDER, SimTime::ZERO, TICK);
        for &(host, at, token) in &self.foreign_timers {
            net.set_timer_for(host, at, token);
        }
        let mut seen = Vec::new();
        for &pause in &self.pauses {
            net.run_until(pause);
            seen.push((net.now(), state.get(), *net.stats()));
        }
        net.run_until_idle();
        seen.push((net.now(), state.get(), *net.stats()));
        (seen, net.queue_depth_hwm(), log, advanced.get())
    }
}

#[test]
fn advancing_is_indistinguishable_from_arming_every_tick() {
    let (mut clean, mut advancing) = (0, 0);
    cases(512, |rng| {
        let world = World::draw(rng);
        let (armed, armed_hwm, armed_log, none) = world.run(false);
        let (advanced, advanced_hwm, advanced_log, ran_ahead) = world.run(true);
        assert_eq!(none, 0);
        assert_eq!(advanced, armed, "pauses");
        assert_eq!(advanced_hwm, armed_hwm, "queue depth high-water mark");
        assert_eq!(*advanced_log.borrow(), *armed_log.borrow(), "deliveries");
        if world.rule.is_some() {
            assert_eq!(ran_ahead, 0, "advanced under a fault rule");
        } else {
            clean += 1;
            advancing += u32::from(ran_ahead > 0);
        }
    });
    // The comparison is not vacuous: most fault-free worlds ran ticks
    // ahead.
    assert!(2 * advancing > clean, "{advancing} of {clean} advanced");
}
