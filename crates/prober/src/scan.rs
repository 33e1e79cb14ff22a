//! The prober endpoint: paced scanning, qname matching, reuse.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::time::Duration;

use orscope_authns::capture::SharedSink;
use orscope_authns::scheme::ProbeLabel;
use orscope_dns_wire::wire::Reader;
use orscope_dns_wire::{Header, Message, Name, Question};
use orscope_netsim::{Context, Datagram, Endpoint, FxHashMap, Payload, SimTime};

use crate::capture::{ProbeStats, R2Capture};
use crate::pacer::{Pacer, ZeroRateError};
use crate::subdomain::SubdomainGenerator;

/// What fills a [`TargetSource`]: a walk over the scan's
/// `(slot, address)` pairs in scan order, handed over in runs.
///
/// A campaign's walk steps through the scan permutation and keeps the
/// pairs its shard owns; `slot` is the target's campaign-wide scan
/// index, which the pacer's tick grid ([`Pacer::slot_tick`]) turns into
/// a send time. Slots must not decrease from one pair to the next.
pub trait TargetWalk: std::fmt::Debug {
    /// Appends the walk's next pairs to `run`, at most `room` of them,
    /// and none only once the walk is over.
    fn fill(&mut self, run: &mut Vec<(u64, Ipv4Addr)>, room: usize);
}

/// The scan's targets: `(slot, address)` pairs in scan order, read
/// from a buffer of owned pairs that its [`TargetWalk`] refills a run at
/// a time.
///
/// Like ZMap, the prober never holds the target list: the buffer holds
/// one run, so what a target costs the source is a read, and what the
/// walk costs is one call a run. A plain list converts as one run, with
/// its positions as slots.
#[derive(Debug)]
pub struct TargetSource {
    run: Vec<(u64, Ipv4Addr)>,
    /// How many pairs of `run` have been handed out.
    taken: usize,
    /// What refills `run`; `None` once it has run dry.
    walk: Option<Box<dyn TargetWalk>>,
}

impl TargetSource {
    /// The pairs a walk is asked for at a time.
    pub const RUN: usize = 16;

    /// A source that `walk` fills.
    pub fn new(walk: impl TargetWalk + 'static) -> Self {
        Self {
            run: Vec::with_capacity(Self::RUN),
            taken: 0,
            walk: Some(Box::new(walk)),
        }
    }

    /// Takes the next target if its slot is below `due`.
    fn next_due(&mut self, due: u64) -> Option<Ipv4Addr> {
        if self.is_empty() {
            return None;
        }
        let (slot, target) = self.run[self.taken];
        if slot >= due {
            return None;
        }
        self.taken += 1;
        Some(target)
    }

    /// Whether every target has been taken.
    #[inline]
    fn is_empty(&mut self) -> bool {
        self.taken == self.run.len() && !self.refill()
    }

    /// Refills the run, which has all been read, from the walk; drops
    /// the walk once that finds no pair. Whether it found one.
    #[inline(never)]
    fn refill(&mut self) -> bool {
        let Some(walk) = &mut self.walk else {
            return false;
        };
        self.run.clear();
        self.taken = 0;
        walk.fill(&mut self.run, Self::RUN);
        if self.run.is_empty() {
            self.walk = None;
        }
        !self.run.is_empty()
    }
}

impl From<Vec<Ipv4Addr>> for TargetSource {
    fn from(targets: Vec<Ipv4Addr>) -> Self {
        Self {
            run: (0u64..).zip(targets).collect(),
            taken: 0,
            walk: None,
        }
    }
}

/// Prober configuration.
#[derive(Debug)]
pub struct ProberConfig {
    /// The measurement zone (e.g. `ucfsealresearch.net`).
    pub zone: Name,
    /// Targets in scan order, each with its send slot.
    pub targets: TargetSource,
    /// Campaign-wide send rate in packets per second. Every shard ticks
    /// at this rate's interval and sends each target on
    /// [`Pacer::slot_tick`]`(slot, rate_pps)`, the tick a single-shard
    /// scan would use, so a sharded scan keeps the one scan's send
    /// times (and time-windowed fault plans stay shard-invariant).
    pub rate_pps: u64,
    /// Names per subdomain cluster.
    pub cluster_capacity: u64,
    /// First cluster to allocate subdomains from. Sharded campaigns give
    /// each shard a disjoint base so merged captures keep unique qnames.
    pub base_cluster: u32,
    /// How long to wait for an R2 before recycling the subdomain.
    pub(crate) response_window: Duration,
    /// Retransmissions allowed per probe before giving up, at most
    /// [`MAX_RETRIES`]. Each retry doubles the wait (`response_window *
    /// 2^attempt`). Zero (the paper's fire-and-forget ZMap behavior) is
    /// the default.
    pub retry_limit: u32,
}

impl ProberConfig {
    /// A 2018-style configuration: 100k pps, 2-second reuse window.
    pub fn new(zone: Name, targets: impl Into<TargetSource>) -> Self {
        Self {
            zone,
            targets: targets.into(),
            rate_pps: 100_000,
            cluster_capacity: orscope_authns::scheme::CLUSTER_CAPACITY,
            base_cluster: 0,
            response_window: Duration::from_secs(2),
            retry_limit: 0,
        }
    }
}

/// Timer tokens.
const TICK: u64 = 0;

/// The port every Q1 leaves from.
const PORT: u16 = 61_000;

/// The largest per-probe retransmission budget: the backoff doubles up
/// to the 16th retry, and the in-flight book keeps (and every tick
/// scans) one ring per attempt level.
pub const MAX_RETRIES: u32 = 16;

/// The low bits of a ticket, which hold a flight's position in its
/// ring; the five above them hold its attempt level.
const POSITION_BITS: u32 = 27;
const POSITION_MASK: u32 = (1 << POSITION_BITS) - 1;

/// The packed label of a flight that was answered or superseded.
const DEAD: u64 = u64::MAX;

/// One transmission of a probe, as its level's ring holds it (24 B).
#[derive(Debug, Clone, Copy)]
struct Flight {
    target: Ipv4Addr,
    /// Send order, wrapping: it ranks transmissions sent at one instant.
    seq: u32,
    /// The probe's label as `cluster << 32 | seq`, or [`DEAD`].
    label: u64,
    sent_at: SimTime,
}

const _: () = assert!(std::mem::size_of::<Flight>() == 24);

impl Flight {
    fn label(&self) -> ProbeLabel {
        ProbeLabel {
            cluster: (self.label >> 32) as u32,
            seq: self.label & u64::from(u32::MAX),
        }
    }
}

/// The flights filed at one attempt level, in send order.
#[derive(Debug)]
struct Ring {
    flights: VecDeque<Flight>,
    /// How many flights have left the front, wrapping: the position of
    /// `flights[0]`.
    front: u32,
    /// How long a flight here waits for its R2: `response_window ·
    /// 2^min(level, MAX_RETRIES)`.
    wait: Duration,
}

/// Every probe in flight, in send order: the prober's one piece of
/// per-probe state.
///
/// One ring per attempt level, in use up to `retry_limit + 1` of them
/// and one in the paper's fire-and-forget mode. A level's deadlines are
/// `sent_at + wait` with `sent_at` never decreasing, so each ring is
/// sorted as it is filled, and the least due head across the rings is
/// the transmission a min-heap of `(deadline, send order)` would hand
/// out next. A target's live flight is found through `index`, which
/// holds its ticket — level and ring position — beside the address: the
/// R2 join, the empty-question join, supersession and retransmission all
/// go through it (recycled labels rule out finding a flight from its
/// label). An answered or superseded flight is marked dead where it
/// lies and dropped when it reaches the head of its ring.
#[derive(Debug)]
struct InFlight {
    rings: Vec<Ring>,
    /// Each target's live flight, keyed by its address as a `u32`: one
    /// word to hash. Fx, not SipHash: the simulator controls every key.
    index: FxHashMap<u32, u32>,
    window: Duration,
    next_seq: u32,
}

impl InFlight {
    fn new(window: Duration) -> Self {
        Self {
            rings: Vec::new(),
            index: FxHashMap::default(),
            window,
            next_seq: 0,
        }
    }

    /// Whether no target has a flight live.
    fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Files a fresh probe's transmission; returns the label of the
    /// flight it supersedes, which dies. A superseding probe takes over
    /// the target's ticket in place, as [`InFlight::resend`] does: an
    /// entry reserves room only for a vacant key, where an insert
    /// reserves it before it looks the key up.
    fn send(&mut self, target: Ipv4Addr, label: ProbeLabel, now: SimTime) -> Option<ProbeLabel> {
        let ticket = self.push(target, label, 0, now);
        let earlier = match self.index.entry(u32::from(target)) {
            Entry::Vacant(slot) => {
                slot.insert(ticket);
                return None;
            }
            Entry::Occupied(mut slot) => slot.insert(ticket),
        };
        let earlier = self.flight_mut(earlier);
        let label = earlier.label();
        earlier.label = DEAD;
        Some(label)
    }

    /// Files the retransmission at attempt `level` of a flight that
    /// [`InFlight::pop_due`] took: it takes over the target's ticket in
    /// place (an insert reserves room first, which doubles an index at
    /// its load limit).
    fn resend(&mut self, target: Ipv4Addr, label: ProbeLabel, level: u32, now: SimTime) {
        let ticket = self.push(target, label, level, now);
        *self
            .index
            .get_mut(&u32::from(target))
            .expect("a taken flight keeps its ticket") = ticket;
    }

    /// Appends a transmission to its level's ring; returns its ticket.
    fn push(&mut self, target: Ipv4Addr, label: ProbeLabel, level: u32, now: SimTime) -> u32 {
        while self.rings.len() <= level as usize {
            let doublings = (self.rings.len() as u32).min(MAX_RETRIES);
            self.rings.push(Ring {
                flights: VecDeque::new(),
                front: 0,
                wait: self.window * 2u32.pow(doublings),
            });
        }
        let ring = &mut self.rings[level as usize];
        assert!(
            ring.flights.len() < POSITION_MASK as usize,
            "fewer than 2^27 transmissions are in flight at one level"
        );
        let position = ring.front.wrapping_add(ring.flights.len() as u32) & POSITION_MASK;
        ring.flights.push_back(Flight {
            target,
            seq: self.next_seq,
            label: u64::from(label.cluster) << 32 | label.seq,
            sent_at: now,
        });
        self.next_seq = self.next_seq.wrapping_add(1);
        level << POSITION_BITS | position
    }

    /// The ring and the index in it of the flight behind `ticket`.
    fn locate(&self, ticket: u32) -> (usize, usize) {
        let level = (ticket >> POSITION_BITS) as usize;
        let at = ticket.wrapping_sub(self.rings[level].front) & POSITION_MASK;
        (level, at as usize)
    }

    fn flight_mut(&mut self, ticket: u32) -> &mut Flight {
        let (level, at) = self.locate(ticket);
        &mut self.rings[level].flights[at]
    }

    /// The label and send time of `target`'s live flight.
    fn live(&self, target: Ipv4Addr) -> Option<(ProbeLabel, SimTime)> {
        let (level, at) = self.locate(*self.index.get(&u32::from(target))?);
        let flight = &self.rings[level].flights[at];
        Some((flight.label(), flight.sent_at))
    }

    /// Settles `target`'s live flight, answered: it leaves the index and
    /// dies in its ring.
    fn settle(&mut self, target: Ipv4Addr) {
        let ticket = self
            .index
            .remove(&u32::from(target))
            .expect("a live flight is settled");
        self.flight_mut(ticket).label = DEAD;
    }

    /// Takes the live flight due first at or before `now`, with its
    /// level, dropping the dead flights it finds at the rings' heads. Its
    /// ticket stays in the index until it is resent or forgotten.
    fn pop_due(&mut self, now: SimTime) -> Option<(Flight, u32)> {
        // The least `(deadline, sent_at)`, then the earlier send: equal
        // deadlines on two levels were sent at different instants unless
        // the window is zero.
        let mut due: Option<(SimTime, SimTime, u32, usize)> = None;
        for (level, ring) in self.rings.iter_mut().enumerate() {
            while ring.flights.front().is_some_and(|head| head.label == DEAD) {
                ring.flights.pop_front();
                ring.front = ring.front.wrapping_add(1);
            }
            let Some(head) = ring.flights.front() else {
                continue;
            };
            let deadline = head.sent_at + ring.wait;
            if deadline > now {
                continue;
            }
            let first = due.is_none_or(|(least, sent_at, seq, _)| {
                (deadline, head.sent_at)
                    .cmp(&(least, sent_at))
                    .then_with(|| (head.seq.wrapping_sub(seq) as i32).cmp(&0))
                    .is_lt()
            });
            if first {
                due = Some((deadline, head.sent_at, head.seq, level));
            }
        }
        let (.., level) = due?;
        let ring = &mut self.rings[level];
        ring.front = ring.front.wrapping_add(1);
        ring.flights
            .pop_front()
            .map(|flight| (flight, level as u32))
    }

    /// Drops `target`, whose flight [`InFlight::pop_due`] took, from the
    /// index: the probe is abandoned.
    fn forget(&mut self, target: Ipv4Addr) {
        self.index.remove(&u32::from(target));
    }
}

/// The DNS ID of the Q1 for `label`. It cannot disambiguate 100k pps
/// (§III-B); it is derived from the label so packets look realistic.
fn probe_id(label: ProbeLabel) -> u16 {
    (label.seq as u16) ^ ((label.cluster as u16) << 10)
}

/// The Q1 for `label` under `zone` as the general encoder writes it, or
/// `None` if the zone leaves no room for the two probe labels.
fn encode_query(zone: &Name, label: ProbeLabel, id: u16) -> Option<Vec<u8>> {
    Message::builder()
        .id(id)
        .recursion_desired(true)
        .question(Question::a(label.try_qname(zone).ok()?))
        .build()
        .encode()
        .ok()
}

/// One encoded Q1 whose per-probe bytes are patched for each send.
///
/// Two probes differ in a 16-bit ID and ten ASCII digits, so the
/// encoder runs when the prober is built and never again. Where those
/// bytes sit is read off its output — the positions at which two
/// encodings with no per-probe byte in common differ — so the template
/// cannot drift from the encoder: no wire layout is restated here.
#[derive(Debug)]
struct QueryTemplate {
    wire: Vec<u8>,
    id_at: usize,
    cluster_at: usize,
    seq_at: usize,
}

impl QueryTemplate {
    fn new(zone: &Name) -> Option<Self> {
        let wire = encode_query(zone, ProbeLabel::new(0, 0), 0x0000)?;
        let other = encode_query(zone, ProbeLabel::new(111, 1_111_111), 0xFFFF)?;
        assert_eq!(wire.len(), other.len(), "a Q1's length varies by label");
        let differing: Vec<usize> = (0..wire.len()).filter(|&i| wire[i] != other[i]).collect();
        assert_eq!(
            differing.len(),
            12,
            "two Q1s differ in an ID and ten digits"
        );
        let (id_at, cluster_at, seq_at) = (differing[0], differing[2], differing[5]);
        let runs = (id_at..id_at + 2)
            .chain(cluster_at..cluster_at + 3)
            .chain(seq_at..seq_at + 7);
        assert!(
            runs.eq(differing.iter().copied()),
            "a Q1's ID, cluster and sequence digits are not three runs: {differing:?}"
        );
        Some(Self {
            wire,
            id_at,
            cluster_at,
            seq_at,
        })
    }

    /// The Q1 for `label`; valid until the next call.
    fn fill(&mut self, label: ProbeLabel) -> &[u8] {
        let (first, second) = label.labels();
        self.wire[self.id_at..][..2].copy_from_slice(&probe_id(label).to_be_bytes());
        self.wire[self.cluster_at..][..3].copy_from_slice(&first[2..]);
        self.wire[self.seq_at..][..7].copy_from_slice(&second);
        &self.wire
    }

    /// The Q1 for `label`, as a datagram carries it.
    fn payload(&mut self, label: ProbeLabel) -> Payload {
        self.fill(label).into()
    }
}

/// The scanning endpoint. Register it, arm a timer at the desired start
/// time with token 0, and run the simulation: every R2 goes to the sink,
/// and the scan's book is [`Prober::stats`].
///
/// A target has at most one probe in flight. Probing it again before
/// the first probe is answered or expires supersedes that probe: its
/// subdomain is recycled, it counts as abandoned, and a response is
/// joined to the newer one.
#[derive(Debug)]
pub struct Prober {
    config: ProberConfig,
    pacer: Pacer,
    generator: SubdomainGenerator,
    in_flight: InFlight,
    /// Timer firings so far (index into the tick grid).
    tick: u64,
    /// The scan's book, less the generator's counts, which
    /// [`Prober::stats`] reads from the generator itself.
    stats: ProbeStats,
    /// Where every captured R2 goes.
    sink: SharedSink,
    /// Every probe's Q1, patched for each send.
    template: QueryTemplate,
}

impl Prober {
    /// Creates a prober that hands every captured R2 to `sink`.
    ///
    /// # Errors
    ///
    /// Returns [`ZeroRateError`] for a zero packet rate (a CLI-reachable
    /// misconfiguration, reported rather than panicked on).
    ///
    /// # Panics
    ///
    /// Panics if `retry_limit` exceeds [`MAX_RETRIES`], or if `zone`
    /// leaves no room for the two probe labels, so that no Q1 can be
    /// built (a campaign refuses both before it builds a prober).
    pub fn new(config: ProberConfig, sink: SharedSink) -> Result<Self, ZeroRateError> {
        assert!(
            config.retry_limit <= MAX_RETRIES,
            "retry budget {} out of range 0..={MAX_RETRIES}",
            config.retry_limit
        );
        let template = QueryTemplate::new(&config.zone).unwrap_or_else(|| {
            panic!(
                "zone {} leaves no room for the two probe labels",
                config.zone
            )
        });
        let pacer = Pacer::new(config.rate_pps)?;
        let generator = SubdomainGenerator::with_base(config.cluster_capacity, config.base_cluster);
        let in_flight = InFlight::new(config.response_window);
        Ok(Self {
            config,
            pacer,
            generator,
            in_flight,
            tick: 0,
            stats: ProbeStats::default(),
            sink,
            template,
        })
    }

    /// The scan's statistics so far.
    pub fn stats(&self) -> ProbeStats {
        ProbeStats {
            subdomains_fresh: self.generator.fresh(),
            subdomains_reused: self.generator.reused(),
            clusters_used: self.generator.clusters_used(),
            ..self.stats
        }
    }

    /// Files a fresh probe of every target whose slot has fallen due by
    /// this tick, and sends its Q1. A probe still in flight to its
    /// target is superseded: abandoned, and its subdomain recycled. A Q1
    /// is built only for a send that travels.
    fn send_batch(&mut self, ctx: &mut Context<'_>) {
        let due = Pacer::slots_due(self.tick, self.config.rate_pps);
        let (now, from) = (ctx.now(), (ctx.local_addr(), PORT));
        while let Some(target) = self.config.targets.next_due(due) {
            let label = self.generator.next_label();
            if let Some(earlier) = self.in_flight.send(target, label, now) {
                self.generator.recycle(earlier);
                self.stats.probes_abandoned += 1;
            }
            self.stats.q1_sent += 1;
            ctx.send_with(from, (target, 53), || self.template.payload(label));
        }
    }

    /// Handles elapsed response windows: retransmits probes that still
    /// have retries left, with an exponentially backed-off deadline
    /// (`response_window * 2^attempt`), and recycles the subdomains of
    /// the rest.
    fn sweep_expired(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now();
        while let Some((flight, level)) = self.in_flight.pop_due(now) {
            let (target, label) = (flight.target, flight.label());
            if level < self.config.retry_limit {
                ctx.send_with((ctx.local_addr(), PORT), (target, 53), || {
                    self.template.payload(label)
                });
                self.in_flight.resend(target, label, level + 1, now);
                self.stats.retransmits_sent += 1;
                continue;
            }
            self.in_flight.forget(target);
            self.generator.recycle(label);
            self.stats.probes_abandoned += 1;
        }
    }
}

impl Endpoint for Prober {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        // ZMap only records responses from the scanned port (§V).
        if dgram.src_port != 53 {
            self.stats.off_port_dropped += 1;
            return;
        }
        // The join needs the question and nothing after it, so that is
        // all that is parsed here (libpcap-style partial decode): the
        // malformed 2013 responses join the dataset like any other, and
        // the analysis decodes the rest of each capture once.
        let question = read_question(&dgram.payload);
        let live = self.in_flight.live(dgram.src);
        let matched = match &question {
            Some(q) => ProbeLabel::parse(q.qname(), &self.config.zone)
                .filter(|&label| live.is_some_and(|(live, _)| live == label))
                .map(|label| (label, q.qname().clone())),
            // Empty question: join by source address (§IV-B4).
            None => live.map(|(label, _)| (label, label.qname(&self.config.zone))),
        };
        let (Some((label, qname)), Some((_, sent_at))) = (matched, live) else {
            self.stats.unmatched += 1;
            return;
        };
        self.in_flight.settle(dgram.src);
        let capture = R2Capture {
            target: dgram.src,
            label: question.is_some().then_some(label),
            qname,
            at: ctx.now(),
            sent_at,
            payload: dgram.payload.clone(),
        };
        self.stats.capture(&capture, &self.sink);
    }

    /// Runs pacing ticks: each sweeps the expired probes and sends a
    /// batch, then the next one runs inside this dispatch for as long as
    /// the simulator says nothing else could happen first
    /// ([`Context::advance_to`]), and is armed as a timer once it could.
    fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        debug_assert_eq!(token, TICK);
        if self.stats.done {
            return;
        }
        loop {
            self.stats.pacer_ticks += 1;
            self.sweep_expired(ctx);
            self.send_batch(ctx);
            if self.config.targets.is_empty() && self.in_flight.is_empty() {
                self.stats.done = true;
                self.stats.finished_at = ctx.now();
                break;
            }
            self.tick += 1;
            let next = ctx.now() + self.pacer.interval();
            if !ctx.advance_to(next) {
                ctx.set_timer_at(next, TICK);
                break;
            }
        }
    }
}

/// The first question of a DNS packet, read from its header and
/// question section alone: whatever follows — answers, garbage, nothing
/// — is not looked at. `None` for an empty question section or a packet
/// too short or malformed to get that far.
fn read_question(payload: &[u8]) -> Option<Question> {
    let mut reader = Reader::new(payload);
    let header = Header::decode(&mut reader).ok()?;
    if header.question_count() == 0 {
        return None;
    }
    Question::decode(&mut reader).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::tests::Log;
    use orscope_dns_wire::{RData, Rcode, Record};
    use orscope_netsim::{FixedLatency, FxHashMap, SimNet};
    use std::cell::RefCell;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::rc::Rc;

    const PROBER: Ipv4Addr = Ipv4Addr::new(132, 170, 5, 10);

    fn zone() -> Name {
        "ucfsealresearch.net".parse().unwrap()
    }

    /// A resolver-ish endpoint answering every query with a fixed A.
    struct FixedAnswer(Ipv4Addr);
    impl Endpoint for FixedAnswer {
        fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
            let Ok(query) = Message::decode(&dgram.payload) else {
                return;
            };
            let qname = query.first_question().unwrap().qname().clone();
            let resp = Message::builder()
                .response_to(&query)
                .recursion_available(true)
                .answer(Record::in_class(qname, 60, RData::A(self.0)))
                .build();
            ctx.send(dgram.reply(resp.encode().unwrap()));
        }
    }

    /// Responds from a non-53 source port.
    struct OffPort;
    impl Endpoint for OffPort {
        fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
            let Ok(query) = Message::decode(&dgram.payload) else {
                return;
            };
            let resp = Message::builder()
                .response_to(&query)
                .rcode(Rcode::Refused)
                .build();
            ctx.send(dgram.reply_from_port(1024, resp.encode().unwrap()));
        }
    }

    /// A prober that logs into a [`Log`], kept behind a shared cell so
    /// the test reads its book after registering it.
    struct Scanned {
        prober: Rc<RefCell<Prober>>,
        log: Rc<RefCell<Log>>,
    }

    impl Scanned {
        fn new(config: ProberConfig) -> Self {
            let log = Rc::<RefCell<Log>>::default();
            let prober = Prober::new(config, log.clone()).unwrap();
            Self {
                prober: Rc::new(RefCell::new(prober)),
                log,
            }
        }

        /// Registers the prober at [`PROBER`], starts it at time zero
        /// and runs `net` until idle.
        fn run(self, net: &mut SimNet) -> Self {
            net.register(PROBER, Rc::clone(&self.prober));
            net.set_timer_for(PROBER, SimTime::ZERO, TICK);
            net.run_until_idle();
            self
        }

        fn stats(&self) -> ProbeStats {
            self.prober.borrow().stats()
        }

        fn captures(&self) -> Vec<R2Capture> {
            self.log.borrow().0.clone()
        }
    }

    fn scan(targets: Vec<Ipv4Addr>, register: impl FnOnce(&mut SimNet)) -> Scanned {
        scan_with(targets, register, |_| {})
    }

    fn scan_with(
        targets: Vec<Ipv4Addr>,
        register: impl FnOnce(&mut SimNet),
        tweak: impl FnOnce(&mut ProberConfig),
    ) -> Scanned {
        let mut net = SimNet::builder()
            .seed(5)
            .latency(FixedLatency(Duration::from_millis(10)))
            .build();
        register(&mut net);
        let mut config = ProberConfig::new(zone(), targets);
        config.rate_pps = 1_000;
        config.response_window = Duration::from_millis(200);
        tweak(&mut config);
        Scanned::new(config).run(&mut net)
    }

    #[test]
    fn captures_responses_and_counts_q1() {
        let responder = Ipv4Addr::new(9, 9, 9, 9);
        let silent = Ipv4Addr::new(8, 8, 8, 8);
        let scanned = scan(vec![responder, silent], |net| {
            net.register(responder, FixedAnswer(Ipv4Addr::new(1, 2, 3, 4)));
        });
        let stats = scanned.stats();
        assert_eq!(stats.q1_sent, 2);
        assert_eq!(stats.r2_captured, 1);
        assert!(stats.done);
        let captures = scanned.captures();
        assert_eq!(captures.len(), 1);
        assert_eq!(captures[0].target, responder);
        assert!(captures[0].at > captures[0].sent_at);
        // The one round trip is the one latency sample.
        let rtt = captures[0].at.since(captures[0].sent_at).as_nanos() as u64;
        let latency = stats.q1_r2_latency_ns;
        assert_eq!((latency.count, latency.min, latency.max), (1, rtt, rtt));
        assert!(stats.pacer_ticks > 0);
        let msg = Message::decode(&captures[0].payload).unwrap();
        assert_eq!(
            msg.answers()[0].rdata().as_a(),
            Some(Ipv4Addr::new(1, 2, 3, 4))
        );
    }

    #[test]
    fn unanswered_subdomains_are_recycled() {
        let silent: Vec<Ipv4Addr> = (0..50u32)
            .map(|i| Ipv4Addr::from(0x0900_0000 + i))
            .collect();
        let scanned = scan(silent, |_| {});
        let stats = scanned.stats();
        assert_eq!(stats.q1_sent, 50);
        assert_eq!(stats.r2_captured, 0);
        // The pacer sends all 50 within a few ticks, before the 200ms
        // window elapses, so recycling kicks in only for later targets —
        // at minimum the generator must not have burned 50 fresh names
        // if batches straddle the window. With 10 per tick and a 200ms
        // window, all fire before any expiry: fresh == 50 is allowed;
        // what matters is that the pool drains back.
        assert_eq!(stats.subdomains_fresh + stats.subdomains_reused, 50);
        assert!(stats.done);
    }

    #[test]
    fn reuse_reduces_fresh_allocation_on_long_scans() {
        // 2,000 silent targets at 1k pps = 2 seconds of scanning with a
        // 200ms window: late probes must reuse early names.
        let silent: Vec<Ipv4Addr> = (0..2_000u32)
            .map(|i| Ipv4Addr::from(0x0900_0000 + i))
            .collect();
        let scanned = scan(silent, |_| {});
        let stats = scanned.stats();
        assert_eq!(stats.q1_sent, 2_000);
        assert!(
            stats.subdomains_reused > 1_000,
            "reused only {}",
            stats.subdomains_reused
        );
        assert!(stats.subdomains_fresh < 1_000);
    }

    #[test]
    fn a_silent_scan_ticks_inside_a_handful_of_dispatches() {
        /// Counts the timer dispatches it forwards.
        struct Counted(Rc<RefCell<Prober>>, Rc<std::cell::Cell<u64>>);
        impl Endpoint for Counted {
            fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
                self.0.handle_datagram(dgram, ctx);
            }
            fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
                self.1.set(self.1.get() + 1);
                self.0.handle_timer(token, ctx);
            }
        }
        let silent: Vec<Ipv4Addr> = (0..2_000u32)
            .map(|i| Ipv4Addr::from(0x0900_0000 + i))
            .collect();
        let mut config = ProberConfig::new(zone(), silent);
        config.rate_pps = 50;
        config.response_window = Duration::from_millis(200);
        let dispatches = Rc::default();
        let mut net = SimNet::builder().seed(5).build();
        let scanned = Scanned::new(config);
        let counted = Counted(Rc::clone(&scanned.prober), Rc::clone(&dispatches));
        net.register(PROBER, counted);
        net.set_timer_for(PROBER, SimTime::ZERO, TICK);
        net.run_until_idle();
        let stats = scanned.stats();
        assert_eq!((stats.q1_sent, stats.probes_abandoned), (2_000, 2_000));
        assert!(stats.done);
        // Every tick is still a timer on the simulator's books.
        assert_eq!(net.stats().timers_fired, stats.pacer_ticks);
        assert!(
            dispatches.get() * 100 < stats.pacer_ticks,
            "{} dispatches for {} ticks",
            dispatches.get(),
            stats.pacer_ticks
        );
    }

    #[test]
    fn sweeping_dead_flights_never_grows_the_index() {
        // The index at its load limit, with dead flights ahead of every
        // live one in the ring: answered ones and superseded ones. Every
        // live flight is superseded at the limit, a sweep before the new
        // ones are due drops the dead and settles nothing, and one after
        // retransmits every live flight in place: the index keeps its
        // length and its capacity throughout.
        let mut book = InFlight::new(Duration::from_millis(200));
        book.index.reserve(16);
        let n = book.index.capacity() as u32;
        let label = |i: u32| ProbeLabel::new(0, u64::from(i));
        let (first, second) = (SimTime::ZERO, SimTime::from_nanos(1_000_000));
        for i in 0..n / 2 {
            assert_eq!(book.send(Ipv4Addr::from(n + i), label(n + i), first), None);
            book.settle(Ipv4Addr::from(n + i));
        }
        for i in 0..n / 2 {
            assert_eq!(book.send(Ipv4Addr::from(i), label(i), first), None);
        }
        for i in 0..n / 2 {
            let superseded = book.send(Ipv4Addr::from(i), label(2 * n + i), first);
            assert_eq!(superseded, Some(label(i)));
        }
        for i in n / 2..n {
            assert_eq!(book.send(Ipv4Addr::from(i), label(2 * n + i), second), None);
        }
        let full = (book.index.len(), book.index.capacity());
        assert_eq!(full.0, full.1, "the index is at its load limit");
        // Superseding every live flight at the limit takes each ticket
        // over in place.
        for i in 0..n {
            let superseded = book.send(Ipv4Addr::from(i), label(3 * n + i), second);
            assert_eq!(superseded, Some(label(2 * n + i)));
        }
        assert_eq!(
            (book.index.len(), book.index.capacity()),
            full,
            "a superseding probe makes no room"
        );
        assert_eq!(book.rings[0].flights.len() as u32, 3 * n);
        assert!(book.pop_due(SimTime::from_nanos(100_000_000)).is_none());
        assert_eq!(
            book.rings[0].flights.len() as u32,
            n,
            "the dead are dropped"
        );
        assert_eq!(
            (book.index.len(), book.index.capacity()),
            full,
            "a dead flight settles nothing and makes no room"
        );
        let late = SimTime::from_nanos(300_000_000);
        while let Some((flight, level)) = book.pop_due(late) {
            assert_eq!(level, 0);
            book.resend(flight.target, flight.label(), 1, late);
        }
        assert_eq!((book.index.len(), book.index.capacity()), full);
        assert_eq!(book.rings[1].flights.len() as u32, n);
    }

    #[test]
    fn off_port_responses_are_dropped() {
        let off = Ipv4Addr::new(7, 7, 7, 7);
        let scanned = scan(vec![off], |net| {
            net.register(off, OffPort);
        });
        let stats = scanned.stats();
        assert_eq!(stats.r2_captured, 0);
        assert_eq!(stats.off_port_dropped, 1);
    }

    #[test]
    fn empty_question_response_joins_by_source() {
        let eq = Ipv4Addr::new(6, 6, 6, 6);
        let scanned = scan(vec![eq], |net| {
            net.register(eq, EmptyQuestion);
        });
        let captures = scanned.captures();
        assert_eq!(captures.len(), 1);
        assert_eq!(captures[0].label, None, "joined by source, not qname");
        assert_eq!(captures[0].target, eq);
    }

    #[test]
    fn foreign_responses_are_unmatched() {
        // A host that answers with a *different* qname.
        struct WrongQname;
        impl Endpoint for WrongQname {
            fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
                let Ok(query) = Message::decode(&dgram.payload) else {
                    return;
                };
                let resp = Message::builder()
                    .id(query.header().id())
                    .question(Question::a("evil.example.com".parse().unwrap()))
                    .build();
                let mut resp = resp;
                resp.header_mut().set_response(true);
                ctx.send(dgram.reply(resp.encode().unwrap()));
            }
        }
        let host = Ipv4Addr::new(5, 5, 5, 5);
        let scanned = scan(vec![host], |net| {
            net.register(host, WrongQname);
        });
        assert_eq!(scanned.stats().r2_captured, 0);
        assert_eq!(scanned.stats().unmatched, 1);
    }

    /// Ignores the first `drop_first` queries per source, answers after.
    struct DeafAtFirst {
        drop_first: u32,
        seen: u32,
        answer: Ipv4Addr,
    }
    impl Endpoint for DeafAtFirst {
        fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
            self.seen += 1;
            if self.seen <= self.drop_first {
                return;
            }
            let Ok(query) = Message::decode(&dgram.payload) else {
                return;
            };
            let qname = query.first_question().unwrap().qname().clone();
            let resp = Message::builder()
                .response_to(&query)
                .recursion_available(true)
                .answer(Record::in_class(qname, 60, RData::A(self.answer)))
                .build();
            ctx.send(dgram.reply(resp.encode().unwrap()));
        }
    }

    #[test]
    fn retransmission_recovers_an_unanswered_probe() {
        let deaf = Ipv4Addr::new(4, 4, 4, 4);
        let scanned = scan_with(
            vec![deaf],
            |net| {
                net.register(
                    deaf,
                    DeafAtFirst {
                        drop_first: 1,
                        seen: 0,
                        answer: Ipv4Addr::new(9, 9, 9, 9),
                    },
                );
            },
            |config| config.retry_limit = 2,
        );
        let stats = scanned.stats();
        assert_eq!(stats.q1_sent, 1, "retransmits must not inflate q1_sent");
        assert_eq!(stats.retransmits_sent, 1);
        assert_eq!(stats.r2_captured, 1);
        assert_eq!(stats.probes_abandoned, 0);
        assert!(stats.done);
        // The capture joins to the original label and qname.
        let captures = scanned.captures();
        assert_eq!(captures[0].target, deaf);
        assert!(captures[0].label.is_some());
    }

    #[test]
    fn retry_limit_bounds_retransmissions_then_abandons() {
        let silent = Ipv4Addr::new(3, 3, 3, 3);
        let scanned = scan_with(vec![silent], |_| {}, |config| config.retry_limit = 2);
        let stats = scanned.stats();
        assert_eq!(stats.q1_sent, 1);
        assert_eq!(stats.retransmits_sent, 2);
        assert_eq!(stats.probes_abandoned, 1);
        assert_eq!(stats.r2_captured, 0);
        assert!(stats.done);
        // The original window plus two doubled backoffs must have
        // elapsed before the scan finished: 200 + 400 + 800 ms.
        assert!(stats.finished_at >= SimTime::from_nanos(1_400_000_000));
    }

    #[test]
    fn fire_and_forget_counts_abandoned_probes() {
        let silent: Vec<Ipv4Addr> = (0..20u32)
            .map(|i| Ipv4Addr::from(0x0900_0000 + i))
            .collect();
        let scanned = scan(silent, |_| {});
        let stats = scanned.stats();
        assert_eq!(stats.retransmits_sent, 0);
        assert_eq!(stats.probes_abandoned, 20);
    }

    #[test]
    fn sparse_slot_schedule_sends_at_global_instants() {
        // A shard owning every 4th target of a 1000-pps campaign sends
        // on the same tick grid as the full scan: global index 100 goes
        // out on tick ceil(101*100/1000)-1 = 10, i.e. t = 100ms.
        let scanned = scan_with(
            Vec::new(),
            |net| {
                net.register(
                    Ipv4Addr::new(9, 9, 9, 9),
                    FixedAnswer(Ipv4Addr::new(1, 1, 1, 1)),
                );
            },
            |config| {
                config.targets =
                    TargetSource::new(Runs::new(vec![(100, Ipv4Addr::new(9, 9, 9, 9))], &[1]));
            },
        );
        let captures = scanned.captures();
        assert_eq!(captures.len(), 1);
        assert_eq!(captures[0].sent_at, SimTime::from_nanos(100_000_000));
    }

    /// A walk over fixed pairs that hands them out in runs of the
    /// lengths `lengths` cycles through, each cut to the room asked for.
    #[derive(Debug)]
    struct Runs {
        pairs: VecDeque<(u64, Ipv4Addr)>,
        lengths: Vec<usize>,
        next: usize,
    }

    impl Runs {
        fn new(pairs: Vec<(u64, Ipv4Addr)>, lengths: &[usize]) -> Self {
            Self {
                pairs: pairs.into(),
                lengths: lengths.to_vec(),
                next: 0,
            }
        }
    }

    impl TargetWalk for Runs {
        fn fill(&mut self, run: &mut Vec<(u64, Ipv4Addr)>, room: usize) {
            let length = self.lengths[self.next % self.lengths.len()];
            self.next += 1;
            let length = length.min(room).min(self.pairs.len());
            run.extend(self.pairs.drain(..length));
        }
    }

    /// Logs when each datagram arrives and where; built for every
    /// address and released after its one datagram.
    struct Arrivals(Rc<RefCell<Vec<(SimTime, Ipv4Addr)>>>);

    impl Endpoint for Arrivals {
        fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
            self.0.borrow_mut().push((ctx.now(), dgram.dst));
        }

        fn is_quiescent(&self) -> bool {
            true
        }
    }

    impl orscope_netsim::Coverage for Arrivals {
        fn covers(&self, _addr: Ipv4Addr) -> bool {
            true
        }
    }

    impl orscope_netsim::LazyRegistry for Arrivals {
        fn materialize(&self, _addr: Ipv4Addr) -> Option<Box<dyn Endpoint>> {
            Some(Box::new(Arrivals(Rc::clone(&self.0))))
        }
    }

    #[test]
    fn runs_of_any_length_send_each_target_at_its_slots_tick() {
        // 1,000 pps is ten slots a tick: runs of one pair, runs that end
        // mid-tick, runs that end exactly where a tick's slots do, runs
        // of mixed length, and the whole list as one run, over every
        // slot, every fourth slot, and nothing at all. Every address is
        // planned and the wire takes 10 ms, so each send is seen.
        let every: Vec<(u64, Ipv4Addr)> = (0..95u32)
            .map(|i| (u64::from(i), Ipv4Addr::from(0x0900_0000 + i)))
            .collect();
        let sparse: Vec<(u64, Ipv4Addr)> =
            every.iter().map(|&(slot, a)| (4 * slot + 3, a)).collect();
        for pairs in [every, sparse, Vec::new()] {
            let expected: Vec<(SimTime, Ipv4Addr)> = pairs
                .iter()
                .map(|&(slot, target)| {
                    let tick = Pacer::slot_tick(slot, 1_000);
                    let sent = SimTime::from_nanos(tick * 10_000_000);
                    (sent + Duration::from_millis(10), target)
                })
                .collect();
            for lengths in [
                &[1][..],
                &[3],
                &[7],
                &[10],
                &[10, 1, 9],
                &[TargetSource::RUN],
                &[usize::MAX],
            ] {
                let log = Rc::default();
                let mut net = SimNet::builder()
                    .latency(FixedLatency(Duration::from_millis(10)))
                    .lazy_hosts(Arrivals(Rc::clone(&log)))
                    .build();
                let mut config = ProberConfig::new(zone(), Vec::new());
                config.targets = TargetSource::new(Runs::new(pairs.clone(), lengths));
                config.rate_pps = 1_000;
                config.response_window = Duration::from_millis(200);
                let stats = Scanned::new(config).run(&mut net).stats();
                assert!(stats.done, "{lengths:?}");
                assert_eq!(stats.q1_sent, pairs.len() as u64, "{lengths:?}");
                assert_eq!(log.take(), expected, "runs of {lengths:?}");
            }
        }
    }

    /// Answers like [`FixedAnswer`] with the question section removed.
    struct EmptyQuestion;
    impl Endpoint for EmptyQuestion {
        fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
            let Ok(query) = Message::decode(&dgram.payload) else {
                return;
            };
            let mut resp = Message::builder()
                .response_to(&query)
                .rcode(Rcode::ServFail)
                .build();
            resp.clear_questions();
            ctx.send(dgram.reply(resp.encode().unwrap()));
        }
    }

    #[test]
    fn a_target_probed_again_supersedes_its_outstanding_probe() {
        // Three targets, each probed twice in one tick, so the second
        // probe goes out while the first is outstanding. The responders
        // answer both Q1s 20 ms later: the first R2 of each carries (or,
        // with no question, is joined to) the superseded probe's label.
        let answered = Ipv4Addr::new(9, 9, 9, 9);
        let silent = Ipv4Addr::new(8, 8, 8, 8);
        let empty = Ipv4Addr::new(6, 6, 6, 6);
        let scanned = scan(
            vec![answered, silent, empty, answered, silent, empty],
            |net| {
                net.register(answered, FixedAnswer(Ipv4Addr::new(1, 2, 3, 4)));
                net.register(empty, EmptyQuestion);
            },
        );
        let stats = scanned.stats();
        assert_eq!(stats.q1_sent, 6);
        // `answered`: the R2 naming the superseded label matches no
        // outstanding probe; the one naming the newer label is captured.
        // `empty`: the first R2 is joined to the newer probe by source
        // and the second finds nothing outstanding.
        assert_eq!(stats.r2_captured, 2);
        assert_eq!(stats.unmatched, 2);
        // Three superseded probes, once each, plus `silent`'s second,
        // which expires.
        assert_eq!(stats.probes_abandoned, 4);
        assert_eq!(stats.subdomains_fresh + stats.subdomains_reused, 6);
        assert!(stats.done);
        let captures = scanned.captures();
        let newer = |target| {
            let capture = captures.iter().find(|c| c.target == target).unwrap();
            ProbeLabel::parse(&capture.qname, &zone()).unwrap()
        };
        // `empty`'s second probe reuses the label `silent`'s first gave up.
        assert_eq!(newer(answered), ProbeLabel::new(0, 3));
        assert_eq!(newer(empty), ProbeLabel::new(0, 1));
    }

    #[test]
    fn the_rings_pop_live_flights_in_heap_order() {
        // The prober's pattern: the clock never runs backwards, a
        // transmission at attempt `a` is due `window * 2^a` later (a
        // window of zero included), each sweep pops what is due before
        // anything else is sent, and some flights are answered and go
        // dead. The heap holds `(deadline, send order)`; the rings' send
        // numbers wrap partway.
        orscope_check::cases(64, |rng| {
            let levels = rng.range(1..5u32);
            let window = if rng.chance(25) {
                0
            } else {
                rng.range(1..50u64)
            };
            let mut book = InFlight::new(Duration::from_nanos(window));
            // Send numbers that wrap partway.
            book.next_seq = u32::MAX - rng.range(0..600u32);
            let mut heap: BinaryHeap<Reverse<(SimTime, u64, Ipv4Addr)>> = BinaryHeap::new();
            let mut answered = std::collections::HashSet::new();
            let (mut now, mut xmit) = (0u64, 0u64);
            for _ in 0..400 {
                now += rng.range(0..40u64);
                let at = SimTime::from_nanos(now);
                while let Some(&Reverse((deadline, _, target))) = heap.peek() {
                    if deadline > at {
                        break;
                    }
                    heap.pop();
                    if answered.contains(&target) {
                        continue;
                    }
                    let (flight, _) = book.pop_due(at).expect("a live flight is due");
                    assert_eq!(flight.target, target);
                    book.forget(target);
                }
                assert!(book.pop_due(at).is_none());
                for _ in 0..rng.range(0..4u32) {
                    let attempts = rng.range(0..levels);
                    let deadline = SimTime::from_nanos(now + (window << attempts));
                    let target = Ipv4Addr::from(xmit as u32);
                    let ticket = book.push(target, ProbeLabel::new(0, 0), attempts, at);
                    book.index.insert(u32::from(target), ticket);
                    heap.push(Reverse((deadline, xmit, target)));
                    xmit += 1;
                }
                if xmit > 0 && rng.chance(30) {
                    let target = Ipv4Addr::from(rng.range(0..xmit) as u32);
                    if book.live(target).is_some() {
                        book.settle(target);
                        answered.insert(target);
                    }
                }
            }
        });
    }

    #[test]
    fn a_superseded_probe_is_abandoned_once_under_retries() {
        // The first probe's expiry entry goes stale: only the second is
        // retransmitted and, in the end, abandoned.
        let silent = Ipv4Addr::new(3, 3, 3, 3);
        let scanned = scan_with(
            vec![silent, silent],
            |_| {},
            |config| config.retry_limit = 1,
        );
        let stats = scanned.stats();
        assert_eq!(stats.q1_sent, 2);
        assert_eq!(stats.retransmits_sent, 1);
        assert_eq!(stats.probes_abandoned, 2);
        assert!(stats.done);
    }

    /// A label is captured in at most one R2, whatever the loss,
    /// duplication and late answers on the wire, the retries, the
    /// targets probed twice (superseding their first probe) and the
    /// labels recycled and rolled over into new clusters: each capture
    /// consumes the one outstanding probe it matches, and only a label
    /// no capture consumed is recycled. The analysis keeps one latency
    /// an R2 on the strength of it.
    #[test]
    fn no_label_is_captured_in_two_r2s() {
        use orscope_netsim::{FaultKind, FaultPlan, FaultRule, FaultScope};
        orscope_check::cases(48, |rng| {
            let hosts: Vec<Ipv4Addr> = (0..rng.range(1..40u32))
                .map(|i| Ipv4Addr::from(0x0a00_0000 + i))
                .collect();
            let targets: Vec<Ipv4Addr> = (0..rng.range(1..150))
                .map(|_| hosts[rng.range(0..hosts.len())])
                .collect();
            let percent =
                |rng: &mut orscope_check::Rng, most: u64| rng.range(0..=most) as f64 / 100.0;
            let plan = FaultPlan::seeded(rng.next_u64())
                .with_rule(FaultRule::always(
                    FaultScope::All,
                    FaultKind::Loss {
                        probability: percent(rng, 40),
                    },
                ))
                .with_rule(FaultRule::always(
                    FaultScope::All,
                    FaultKind::Duplicate {
                        probability: percent(rng, 60),
                    },
                ))
                .with_rule(FaultRule::always(
                    FaultScope::All,
                    FaultKind::Delay {
                        extra: Duration::ZERO,
                        jitter: Duration::from_millis(rng.range(1..800)),
                    },
                ));
            let mut net = SimNet::builder()
                .seed(rng.next_u64())
                .latency(FixedLatency(Duration::from_millis(10)))
                .faults(plan)
                .build();
            for &host in &hosts {
                match rng.range(0..3) {
                    0 => net.register(host, FixedAnswer(Ipv4Addr::new(1, 2, 3, 4))),
                    1 => net.register(host, EmptyQuestion),
                    _ => {}
                }
            }
            let mut config = ProberConfig::new(zone(), targets);
            config.rate_pps = rng.range(100..2_000);
            config.response_window = Duration::from_millis(200);
            config.retry_limit = rng.range(0..4);
            config.cluster_capacity = rng.range(1..20);
            let scanned = Scanned::new(config).run(&mut net);
            let mut seen = std::collections::HashSet::new();
            for capture in scanned.captures() {
                let label = capture
                    .label
                    .or_else(|| ProbeLabel::parse(&capture.qname, &zone()))
                    .expect("a capture names its probe");
                assert!(seen.insert(label), "{label} captured twice");
            }
            assert_eq!(seen.len() as u64, scanned.stats().r2_captured);
        });
    }

    /// A zone of `labels` labels: a 63-byte one first, mixed case
    /// throughout.
    fn long_zone(labels: usize) -> Name {
        let first = "Xy".repeat(31) + "Z";
        let rest = ["SealResearch", "eXample", "NET"];
        let text = std::iter::once(first.as_str())
            .chain(rest.iter().copied())
            .take(labels)
            .collect::<Vec<_>>()
            .join(".");
        text.parse().unwrap()
    }

    #[test]
    fn patched_template_equals_the_encoder() {
        let mut labels = Vec::new();
        for cluster in [0, 7, 999] {
            for seq in [0, 1, 1_234_567, 4_999_999] {
                labels.push(ProbeLabel::new(cluster, seq));
            }
        }
        let mut rng = orscope_check::Rng::new(0x7E4D_1A7E);
        for _ in 0..200 {
            let cluster = rng.range(0..1_000);
            labels.push(ProbeLabel::new(cluster, rng.range(0..5_000_000)));
        }
        let zones = (1..=4)
            .map(long_zone)
            .chain([zone(), "net".parse().unwrap()]);
        for zone in zones {
            let mut template = QueryTemplate::new(&zone).expect("the zone leaves room");
            for &label in &labels {
                let wire = template.fill(label).to_vec();
                let encoded = encode_query(&zone, label, probe_id(label)).unwrap();
                assert_eq!(wire, encoded, "{label} under {zone}");
                let question = read_question(&wire).unwrap();
                assert_eq!(ProbeLabel::parse(question.qname(), &zone), Some(label));
            }
        }
    }

    #[test]
    #[should_panic(expected = "leaves no room for the two probe labels")]
    fn a_zone_too_long_for_probe_labels_is_refused() {
        // 241 bytes on the wire: the two probe labels' 14 make 255, the
        // limit; one byte more in the zone and no Q1 exists.
        let fits: Name = format!("{0}.{0}.{0}.{1}", "a".repeat(63), "b".repeat(47))
            .parse()
            .unwrap();
        let too_long: Name = format!("{0}.{0}.{0}.{1}", "a".repeat(63), "b".repeat(48))
            .parse()
            .unwrap();
        assert!(QueryTemplate::new(&too_long).is_none());
        let sink = Rc::<RefCell<Log>>::default;
        assert!(Prober::new(ProberConfig::new(fits, Vec::new()), sink()).is_ok());
        let _ = Prober::new(ProberConfig::new(too_long, Vec::new()), sink());
    }

    #[test]
    fn zero_rate_config_is_rejected() {
        let config = ProberConfig {
            rate_pps: 0,
            ..ProberConfig::new(zone(), Vec::new())
        };
        assert!(Prober::new(config, Rc::<RefCell<Log>>::default()).is_err());
    }

    #[test]
    fn read_question_on_garbage() {
        assert!(read_question(&[0x00]).is_none());
        // Valid header + question + garbage answer count.
        let query = Message::query(7, Question::a("a.b".parse().unwrap()));
        let mut wire = query.encode().unwrap();
        wire[7] = 9; // claim 9 answers
        assert!(Message::decode(&wire).is_err());
        let q = read_question(&wire).unwrap();
        assert_eq!(q.qname().to_string(), "a.b");
    }

    #[test]
    fn trailing_garbage_joins_like_a_well_formed_r2() {
        /// Answers with a fixed A, then appends `tail` to the packet.
        struct Tailed(&'static [u8]);
        impl Endpoint for Tailed {
            fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
                let query = Message::decode(&dgram.payload).unwrap();
                let qname = query.first_question().unwrap().qname().clone();
                let resp = Message::builder()
                    .response_to(&query)
                    .answer(Record::in_class(
                        qname,
                        60,
                        RData::A(Ipv4Addr::new(1, 2, 3, 4)),
                    ))
                    .build();
                let mut wire = resp.encode().unwrap();
                wire.extend_from_slice(self.0);
                ctx.send(dgram.reply(wire));
            }
        }
        let host = Ipv4Addr::new(9, 9, 9, 9);
        // Same scan, same target, hence the same label for both.
        let join = |tail: &'static [u8]| {
            let scanned = scan(vec![host], |net| net.register(host, Tailed(tail)));
            assert_eq!(scanned.stats().r2_captured, 1);
            assert_eq!(scanned.stats().unmatched, 0);
            let capture = scanned.captures().remove(0);
            assert_eq!(Message::decode(&capture.payload).is_ok(), tail.is_empty());
            (
                capture.target,
                capture.label,
                capture.qname.to_string(),
                capture.at,
                capture.sent_at,
            )
        };
        let well_formed = join(b"");
        assert!(well_formed.1.is_some(), "joined by qname");
        assert_eq!(join(b"\xde\xad\xbe\xef"), well_formed);
    }

    /// The probe a target has in flight, as the map the rings replaced
    /// held it.
    #[derive(Debug, Clone, Copy)]
    struct Outstanding {
        label: ProbeLabel,
        sent_at: SimTime,
        /// Retransmissions already performed for this probe.
        attempts: u32,
        /// Transmission sequence number of the latest send; expiry-queue
        /// entries carrying an older number are stale and skipped.
        xmit: u64,
    }

    /// The `(deadline, xmit, target)` of every transmission, least
    /// first, as a min-heap would hand them out: one sorted queue per
    /// attempt level.
    #[derive(Debug, Default)]
    struct ExpiryQueue {
        levels: Vec<VecDeque<(SimTime, u64, Ipv4Addr)>>,
    }

    impl ExpiryQueue {
        fn push(&mut self, attempts: u32, entry: (SimTime, u64, Ipv4Addr)) {
            let level = attempts as usize;
            if self.levels.len() <= level {
                self.levels.resize_with(level + 1, VecDeque::new);
            }
            self.levels[level].push_back(entry);
        }

        fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, u64, Ipv4Addr)> {
            let (_, level) = self
                .levels
                .iter()
                .enumerate()
                .filter_map(|(i, level)| {
                    let &(deadline, xmit, _) = level.front().filter(|head| head.0 <= now)?;
                    Some(((deadline, xmit), i))
                })
                .min()?;
            self.levels[level].pop_front()
        }
    }

    /// The in-flight state the rings replaced, kept as their oracle: a
    /// map from each target to its probe, and an expiry entry for every
    /// transmission.
    #[derive(Debug)]
    struct Oracle {
        outstanding: FxHashMap<Ipv4Addr, Outstanding>,
        expiry: ExpiryQueue,
        next_xmit: u64,
        window: Duration,
    }

    impl Oracle {
        fn new(window: Duration) -> Self {
            Self {
                outstanding: FxHashMap::default(),
                expiry: ExpiryQueue::default(),
                next_xmit: 0,
                window,
            }
        }

        fn file(
            &mut self,
            target: Ipv4Addr,
            label: ProbeLabel,
            attempts: u32,
            now: SimTime,
        ) -> Option<Outstanding> {
            let deadline = now + self.window * 2u32.pow(attempts.min(MAX_RETRIES));
            let xmit = self.next_xmit;
            self.next_xmit += 1;
            self.expiry.push(attempts, (deadline, xmit, target));
            let probe = Outstanding {
                label,
                sent_at: now,
                attempts,
                xmit,
            };
            self.outstanding.insert(target, probe)
        }
    }

    /// What the prober asks of its in-flight state.
    trait Book {
        fn send(&mut self, target: Ipv4Addr, label: ProbeLabel, now: SimTime)
            -> Option<ProbeLabel>;
        fn resend(&mut self, target: Ipv4Addr, label: ProbeLabel, level: u32, now: SimTime);
        fn live(&self, target: Ipv4Addr) -> Option<(ProbeLabel, SimTime)>;
        fn settle(&mut self, target: Ipv4Addr);
        fn pop_due(&mut self, now: SimTime) -> Option<(Ipv4Addr, ProbeLabel, u32)>;
        fn forget(&mut self, target: Ipv4Addr);
        fn is_empty(&self) -> bool;
    }

    impl Book for InFlight {
        fn send(
            &mut self,
            target: Ipv4Addr,
            label: ProbeLabel,
            now: SimTime,
        ) -> Option<ProbeLabel> {
            InFlight::send(self, target, label, now)
        }
        fn resend(&mut self, target: Ipv4Addr, label: ProbeLabel, level: u32, now: SimTime) {
            InFlight::resend(self, target, label, level, now);
        }
        fn live(&self, target: Ipv4Addr) -> Option<(ProbeLabel, SimTime)> {
            InFlight::live(self, target)
        }
        fn settle(&mut self, target: Ipv4Addr) {
            InFlight::settle(self, target);
        }
        fn pop_due(&mut self, now: SimTime) -> Option<(Ipv4Addr, ProbeLabel, u32)> {
            InFlight::pop_due(self, now)
                .map(|(flight, level)| (flight.target, flight.label(), level))
        }
        fn forget(&mut self, target: Ipv4Addr) {
            InFlight::forget(self, target);
        }
        fn is_empty(&self) -> bool {
            InFlight::is_empty(self)
        }
    }

    impl Book for Oracle {
        fn send(
            &mut self,
            target: Ipv4Addr,
            label: ProbeLabel,
            now: SimTime,
        ) -> Option<ProbeLabel> {
            self.file(target, label, 0, now)
                .map(|earlier| earlier.label)
        }
        fn resend(&mut self, target: Ipv4Addr, label: ProbeLabel, level: u32, now: SimTime) {
            self.file(target, label, level, now);
        }
        fn live(&self, target: Ipv4Addr) -> Option<(ProbeLabel, SimTime)> {
            self.outstanding
                .get(&target)
                .map(|out| (out.label, out.sent_at))
        }
        fn settle(&mut self, target: Ipv4Addr) {
            self.outstanding.remove(&target);
        }
        fn pop_due(&mut self, now: SimTime) -> Option<(Ipv4Addr, ProbeLabel, u32)> {
            // Answered probes and superseded transmissions leave stale
            // entries behind; skip them.
            while let Some((_, xmit, target)) = self.expiry.pop_due(now) {
                match self.outstanding.get(&target) {
                    Some(out) if out.xmit == xmit => {
                        return Some((target, out.label, out.attempts))
                    }
                    _ => continue,
                }
            }
            None
        }
        fn forget(&mut self, target: Ipv4Addr) {
            self.outstanding.remove(&target);
        }
        fn is_empty(&self) -> bool {
            self.outstanding.is_empty()
        }
    }

    /// One pacing tick: the clock moves on, the sweep runs, probes go
    /// out, and R2s come back before the next tick. An R2 with no label
    /// of its own names its target's live label or has an empty
    /// question — both join the live flight, if there is one; one with
    /// a label joins only if that label is live.
    #[derive(Debug)]
    struct Step {
        advance: Duration,
        sends: Vec<Ipv4Addr>,
        answers: Vec<(Ipv4Addr, Option<ProbeLabel>)>,
    }

    /// What the prober's loop made of a run of steps.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        matched: Vec<(Ipv4Addr, ProbeLabel, SimTime)>,
        recycled: Vec<ProbeLabel>,
        abandoned: u64,
        retransmits: u64,
        unmatched: u64,
        done_at: Option<usize>,
    }

    /// Runs `steps` through `book` as `Prober::sweep_expired`,
    /// `Prober::send_probe` and `Prober::handle_datagram` do.
    fn drive(mut book: impl Book, steps: &[Step], retry_limit: u32) -> Outcome {
        let mut generator = SubdomainGenerator::new(5);
        let mut outcome = Outcome {
            matched: Vec::new(),
            recycled: Vec::new(),
            abandoned: 0,
            retransmits: 0,
            unmatched: 0,
            done_at: None,
        };
        let last_send = steps.iter().rposition(|step| !step.sends.is_empty());
        let mut now = SimTime::ZERO;
        for (i, step) in steps.iter().enumerate() {
            now += step.advance;
            while let Some((target, label, level)) = book.pop_due(now) {
                if level < retry_limit {
                    book.resend(target, label, level + 1, now);
                    outcome.retransmits += 1;
                    continue;
                }
                book.forget(target);
                generator.recycle(label);
                outcome.recycled.push(label);
                outcome.abandoned += 1;
            }
            for &target in &step.sends {
                let label = generator.next_label();
                if let Some(earlier) = book.send(target, label, now) {
                    generator.recycle(earlier);
                    outcome.recycled.push(earlier);
                    outcome.abandoned += 1;
                }
            }
            for &(target, named) in &step.answers {
                let live = book.live(target);
                match named.map_or(live, |named| live.filter(|&(label, _)| label == named)) {
                    Some((label, sent_at)) => {
                        book.settle(target);
                        outcome.matched.push((target, label, sent_at));
                    }
                    None => outcome.unmatched += 1,
                }
            }
            if last_send.is_none_or(|last| i >= last) && book.is_empty() {
                outcome.done_at = Some(i);
                break;
            }
        }
        outcome
    }

    /// The rings and their index against the map and queue they
    /// replaced, over the prober's own loop: a few targets probed again
    /// and again (supersession), R2s that name the live label, another
    /// label or none, retry budgets 0–3 and 16, windows of zero to three
    /// ticks (deadlines on two levels tie), and ring positions and send
    /// numbers that wrap.
    #[test]
    fn the_rings_and_index_match_the_map_and_queue() {
        orscope_check::cases(96, |rng| {
            let tick = Duration::from_millis(1);
            let window = tick * rng.range(0..4u32);
            let retry_limit = [0, 1, 2, 3, MAX_RETRIES][rng.range(0..5usize)];
            let targets: Vec<Ipv4Addr> = (0..rng.range(1..8u32))
                .map(|i| Ipv4Addr::from(0x0a00_0000 + i))
                .collect();
            let pick = |rng: &mut orscope_check::Rng| targets[rng.range(0..targets.len())];
            let mut steps: Vec<Step> = (0..rng.range(1..200))
                .map(|_| Step {
                    advance: tick * rng.range(0..3u32),
                    sends: (0..rng.range(0..4)).map(|_| pick(rng)).collect(),
                    answers: (0..rng.range(0..3))
                        .map(|_| {
                            let named = rng.range(0..3) == 0;
                            let label =
                                named.then(|| ProbeLabel::new(rng.range(0..3), rng.range(0..5)));
                            (pick(rng), label)
                        })
                        .collect(),
                })
                .collect();
            // Enough time for every flight left to run out its retries.
            let drain = window * 2u32.pow(MAX_RETRIES + 1) + tick;
            steps.extend((0..=retry_limit + 1).map(|_| Step {
                advance: drain,
                sends: Vec::new(),
                answers: Vec::new(),
            }));
            let mut rings = InFlight::new(window);
            if rng.bool() {
                // Start every ring and the send count just short of
                // where their numbers wrap.
                for level in 0..=retry_limit {
                    rings.push(
                        Ipv4Addr::UNSPECIFIED,
                        ProbeLabel::new(0, 0),
                        level,
                        SimTime::ZERO,
                    );
                }
                for ring in &mut rings.rings {
                    ring.flights.clear();
                    ring.front =
                        [POSITION_MASK, u32::MAX][rng.range(0..2usize)] - rng.range(0..4u32);
                }
                rings.next_seq = u32::MAX - rng.range(0..8u32);
            }
            let expected = drive(Oracle::new(window), &steps, retry_limit);
            assert_eq!(drive(rings, &steps, retry_limit), expected);
            assert!(expected.done_at.is_some(), "the scan completes");
        });
    }
}
