//! The prober endpoint: paced scanning, qname matching, reuse.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::iter::Peekable;
use std::net::Ipv4Addr;
use std::time::Duration;

use orscope_authns::scheme::ProbeLabel;
use orscope_dns_wire::wire::Reader;
use orscope_dns_wire::{Header, Message, Name, Question};
use orscope_netsim::{Context, Datagram, Endpoint, FxHashMap, SimTime};

use crate::capture::{ProberHandle, R2Capture};
use crate::pacer::{Pacer, ZeroRateError};
use crate::subdomain::SubdomainGenerator;

/// The scan's targets: a stream of `(slot, address)` pairs in scan
/// order, pulled one at a time.
///
/// Like ZMap, the prober never holds the target list. A campaign hands
/// it an iterator that walks the scan permutation and keeps the pairs
/// this shard owns; `slot` is the target's campaign-wide scan index,
/// which [`SlotSchedule`] pacing turns into a send time and local
/// pacing ignores. A plain list converts with its positions as slots.
pub struct TargetSource {
    pairs: Peekable<Box<dyn Iterator<Item = (u64, Ipv4Addr)>>>,
}

impl TargetSource {
    /// Wraps a `(slot, address)` stream. Slots must not decrease.
    pub fn new(pairs: impl Iterator<Item = (u64, Ipv4Addr)> + 'static) -> Self {
        let pairs: Box<dyn Iterator<Item = (u64, Ipv4Addr)>> = Box::new(pairs);
        Self {
            pairs: pairs.peekable(),
        }
    }

    fn peek(&mut self) -> Option<(u64, Ipv4Addr)> {
        self.pairs.peek().copied()
    }

    fn next(&mut self) -> Option<(u64, Ipv4Addr)> {
        self.pairs.next()
    }
}

impl From<Vec<Ipv4Addr>> for TargetSource {
    fn from(targets: Vec<Ipv4Addr>) -> Self {
        Self::new((0u64..).zip(targets))
    }
}

impl std::fmt::Debug for TargetSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TargetSource").finish_non_exhaustive()
    }
}

/// Places each target on the campaign-global tick grid.
///
/// A sharded campaign splits the targets across shards, and a local
/// pacer at `rate/shards` would send each shard's targets at slightly
/// different virtual times than the single-shard scan — enough to move a
/// probe across a fault-plan window boundary and break shard invariance.
/// With a schedule, the prober instead ticks at the interval of the
/// *campaign-wide* rate and sends each target on
/// [`Pacer::slot_tick`]`(slot, total_rate_pps)` of the slot its
/// [`TargetSource`] pairs it with, which is provably the tick a
/// single-shard pacer would use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotSchedule {
    /// Campaign-wide packet rate shared by every shard.
    pub total_rate_pps: u64,
}

/// Prober configuration.
#[derive(Debug)]
pub struct ProberConfig {
    /// The measurement zone (e.g. `ucfsealresearch.net`).
    pub zone: Name,
    /// Targets in scan order, each with its send slot.
    pub targets: TargetSource,
    /// Send rate in packets per second.
    pub rate_pps: u64,
    /// Names per subdomain cluster.
    pub cluster_capacity: u64,
    /// First cluster to allocate subdomains from. Sharded campaigns give
    /// each shard a disjoint base so merged captures keep unique qnames.
    pub base_cluster: u32,
    /// How long to wait for an R2 before recycling the subdomain.
    pub response_window: Duration,
    /// Retransmissions allowed per probe before giving up, at most
    /// [`MAX_RETRIES`]. Each retry doubles the wait (`response_window *
    /// 2^attempt`). Zero (the paper's fire-and-forget ZMap behavior) is
    /// the default.
    pub retry_limit: u32,
    /// Campaign-global send schedule; `None` paces locally at
    /// `rate_pps`.
    pub slots: Option<SlotSchedule>,
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
            slots: None,
        }
    }
}

/// Timer tokens.
const TICK: u64 = 0;

/// What the ticks of one timer dispatch add to the handle's counters,
/// published together when the dispatch ends.
#[derive(Debug, Default)]
struct TickBooks {
    ticks: u64,
    q1_sent: u64,
    tokens_issued: u64,
    tokens_unused: u64,
    retransmits_sent: u64,
    probes_abandoned: u64,
}

/// The probe a target has in flight.
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

/// The largest per-probe retransmission budget: the backoff doubles up
/// to the 16th retry, and the expiry queue keeps (and every tick scans)
/// one level per attempt.
pub const MAX_RETRIES: u32 = 16;

/// The `(deadline, xmit, target)` of every transmission, least first,
/// as a min-heap would hand them out (`xmit` is unique, so the order is
/// total).
///
/// One queue per attempt level, in use up to `retry_limit + 1` of them
/// and one in the paper's fire-and-forget mode. A level's deadlines are
/// `now + response_window * 2^attempt` with `now` never decreasing, and
/// `xmit` counts up, so each queue is sorted as it is pushed and the
/// least of the heads is the least entry overall.
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
        debug_assert!(self.levels[level].back().is_none_or(|last| *last < entry));
        self.levels[level].push_back(entry);
    }

    /// Takes the least entry if its deadline is at or before `now`.
    fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, u64, Ipv4Addr)> {
        // Heads compare by `(deadline, xmit)` alone, as `xmit` is unique:
        // every probe's tick runs this, so the fold carries the small key.
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
}

/// The scanning endpoint. Register it, arm a timer at the desired start
/// time with token 0, and run the simulation; results appear in the
/// [`ProberHandle`].
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
    /// The probe in flight to each target. Fx, not SipHash: the
    /// simulator controls every key.
    outstanding: FxHashMap<Ipv4Addr, Outstanding>,
    expiry: ExpiryQueue,
    next_xmit: u64,
    /// Timer firings so far (index into the tick grid).
    tick: u64,
    handle: ProberHandle,
    done: bool,
    /// `None` if the zone leaves no room for the probe labels: no Q1
    /// can be built and every probe is skipped.
    template: Option<QueryTemplate>,
}

impl Prober {
    /// Creates a prober writing results through `handle`.
    ///
    /// # Errors
    ///
    /// Returns [`ZeroRateError`] for a zero packet rate (a CLI-reachable
    /// misconfiguration, reported rather than panicked on).
    pub fn new(config: ProberConfig, handle: ProberHandle) -> Result<Self, ZeroRateError> {
        // In slot mode the timer must tick on the campaign-global grid.
        let pacer = Pacer::new(match config.slots {
            Some(slots) => slots.total_rate_pps,
            None => config.rate_pps,
        })?;
        let generator = SubdomainGenerator::with_base(config.cluster_capacity, config.base_cluster);
        let template = QueryTemplate::new(&config.zone);
        Ok(Self {
            config,
            pacer,
            generator,
            outstanding: FxHashMap::default(),
            expiry: ExpiryQueue::default(),
            next_xmit: 0,
            tick: 0,
            handle,
            done: false,
            template,
        })
    }

    /// Sends the Q1 for `label` to `target` and files it as the target's
    /// outstanding probe, due at `deadline`. Returns `false` if no Q1 can
    /// be built (the probe is skipped).
    fn emit_query(
        &mut self,
        label: ProbeLabel,
        target: Ipv4Addr,
        attempts: u32,
        deadline: SimTime,
        ctx: &mut Context<'_>,
        books: &mut TickBooks,
    ) -> bool {
        let Some(template) = &mut self.template else {
            return false;
        };
        ctx.send_bytes(
            (ctx.local_addr(), 61_000),
            (target, 53),
            template.fill(label),
        );
        let xmit = self.next_xmit;
        self.next_xmit += 1;
        self.expiry.push(attempts, (deadline, xmit, target));
        let probe = Outstanding {
            label,
            sent_at: ctx.now(),
            attempts,
            xmit,
        };
        // A retransmission replaces its own entry; anything else found
        // here is an earlier probe this one supersedes. Its queue entry
        // goes stale with its `xmit`.
        let superseded = self
            .outstanding
            .insert(target, probe)
            .filter(|earlier| earlier.label != label);
        if let Some(earlier) = superseded {
            self.generator.recycle(earlier.label);
            books.probes_abandoned += 1;
        }
        true
    }

    /// Sends a fresh probe to `target`, allocating a new subdomain.
    fn send_probe(
        &mut self,
        target: Ipv4Addr,
        ctx: &mut Context<'_>,
        books: &mut TickBooks,
    ) -> bool {
        let label = self.generator.next_label();
        let deadline = ctx.now() + self.config.response_window;
        self.emit_query(label, target, 0, deadline, ctx, books)
    }

    /// Sends one batch of Q1 probes.
    fn send_batch(&mut self, ctx: &mut Context<'_>, books: &mut TickBooks) {
        let mut sent = 0u64;
        let issued;
        if let Some(slots) = self.config.slots {
            // Global-slot mode: emit every owned target whose
            // campaign-wide slot has arrived at this tick.
            let due = Pacer::slots_due(self.tick, slots.total_rate_pps);
            while let Some((slot, target)) = self.config.targets.peek() {
                if slot >= due {
                    break;
                }
                self.config.targets.next();
                if self.send_probe(target, ctx, books) {
                    sent += 1;
                }
            }
            issued = sent;
        } else {
            let batch = self.pacer.next_batch();
            issued = batch;
            for _ in 0..batch {
                let Some((_, target)) = self.config.targets.next() else {
                    break;
                };
                if self.send_probe(target, ctx, books) {
                    sent += 1;
                }
            }
        }
        books.q1_sent += sent;
        books.tokens_issued += issued;
        books.tokens_unused += issued - sent;
    }

    /// Handles elapsed response windows: retransmits probes that still
    /// have retries left, with an exponentially backed-off deadline
    /// (`response_window * 2^attempt`), and recycles the subdomains of
    /// the rest.
    fn sweep_expired(&mut self, ctx: &mut Context<'_>, books: &mut TickBooks) {
        let now = ctx.now();
        while let Some((_, xmit, target)) = self.expiry.pop_due(now) {
            // Answered probes and superseded transmissions leave stale
            // entries behind; skip them. A miss through `entry` reserves
            // room for an insert that never comes, which doubles a map
            // at its load limit: there, a lookup goes first.
            let full = self.outstanding.len() == self.outstanding.capacity();
            if full && !self.outstanding.contains_key(&target) {
                continue;
            }
            let Entry::Occupied(entry) = self.outstanding.entry(target) else {
                continue;
            };
            let out = *entry.get();
            if out.xmit != xmit {
                continue;
            }
            if out.attempts < self.config.retry_limit {
                // The retransmission replaces the entry in place.
                let attempts = out.attempts + 1;
                let backoff = self.config.response_window * 2u32.pow(attempts.min(MAX_RETRIES));
                if self.emit_query(out.label, target, attempts, now + backoff, ctx, books) {
                    books.retransmits_sent += 1;
                    continue;
                }
                self.outstanding.remove(&target);
            } else {
                entry.remove();
            }
            self.generator.recycle(out.label);
            books.probes_abandoned += 1;
        }
    }

    /// Publishes what a timer dispatch's ticks counted, the generator's
    /// counters and completion state, in one borrow of the handle.
    fn publish(&self, books: &TickBooks, now: SimTime) {
        let stats = &mut self.handle.inner.borrow_mut().stats;
        stats.pacer_ticks += books.ticks;
        stats.q1_sent += books.q1_sent;
        stats.pacer_tokens_issued += books.tokens_issued;
        stats.pacer_tokens_unused += books.tokens_unused;
        stats.retransmits_sent += books.retransmits_sent;
        stats.probes_abandoned += books.probes_abandoned;
        stats.subdomains_fresh = self.generator.fresh();
        stats.subdomains_reused = self.generator.reused();
        stats.clusters_used = self.generator.clusters_used();
        if self.done && !stats.done {
            stats.done = true;
            stats.finished_at = now;
        }
    }
}

impl Endpoint for Prober {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        // ZMap only records responses from the scanned port (§V).
        if dgram.src_port != 53 {
            self.handle.inner.borrow_mut().stats.off_port_dropped += 1;
            return;
        }
        // The join needs the question and nothing after it, so that is
        // all that is parsed here (libpcap-style partial decode): the
        // malformed 2013 responses join the dataset like any other, and
        // the analysis decodes the rest of each capture once.
        let question = read_question(&dgram.payload);
        let outstanding = self.outstanding.get(&dgram.src);
        let matched = match &question {
            Some(q) => ProbeLabel::parse(q.qname(), &self.config.zone)
                .filter(|&label| outstanding.is_some_and(|o| o.label == label))
                .map(|label| (label, q.qname().clone())),
            // Empty question: join by source address (§IV-B4).
            None => outstanding.map(|o| (o.label, o.label.qname(&self.config.zone))),
        };
        let Some((label, qname)) = matched else {
            self.handle.inner.borrow_mut().stats.unmatched += 1;
            return;
        };
        let out = self
            .outstanding
            .remove(&dgram.src)
            .expect("matched implies present");
        {
            // Released before the sink is borrowed: a standalone handle
            // is its own sink.
            let stats = &mut self.handle.inner.borrow_mut().stats;
            stats.r2_captured += 1;
            stats
                .q1_r2_latency_ns
                .record(ctx.now().since(out.sent_at).as_nanos() as u64);
        }
        self.handle.sink.borrow_mut().on_r2(&R2Capture {
            target: dgram.src,
            label: question.is_some().then_some(label),
            qname,
            at: ctx.now(),
            sent_at: out.sent_at,
            payload: dgram.payload.clone(),
        });
    }

    /// Runs pacing ticks: each sweeps the expired probes and sends a
    /// batch, then the next one runs inside this dispatch for as long as
    /// the simulator says nothing else could happen first
    /// ([`Context::advance_to`]), and is armed as a timer once it could.
    fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        debug_assert_eq!(token, TICK);
        if self.done {
            return;
        }
        let mut books = TickBooks::default();
        loop {
            books.ticks += 1;
            self.sweep_expired(ctx, &mut books);
            self.send_batch(ctx, &mut books);
            if self.config.targets.peek().is_none() && self.outstanding.is_empty() {
                self.done = true;
                break;
            }
            self.tick += 1;
            let next = ctx.now() + self.pacer.interval();
            if !ctx.advance_to(next) {
                ctx.set_timer_at(next, TICK);
                break;
            }
        }
        self.publish(&books, ctx.now());
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
    use orscope_dns_wire::{RData, Rcode, Record};
    use orscope_netsim::{FixedLatency, SimNet};

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

    fn scan(targets: Vec<Ipv4Addr>, register: impl FnOnce(&mut SimNet)) -> ProberHandle {
        scan_with(targets, register, |_| {})
    }

    fn scan_with(
        targets: Vec<Ipv4Addr>,
        register: impl FnOnce(&mut SimNet),
        tweak: impl FnOnce(&mut ProberConfig),
    ) -> ProberHandle {
        let mut net = SimNet::builder()
            .seed(5)
            .latency(FixedLatency(Duration::from_millis(10)))
            .build();
        register(&mut net);
        let handle = ProberHandle::new();
        let mut config = ProberConfig::new(zone(), targets);
        config.rate_pps = 1_000;
        config.response_window = Duration::from_millis(200);
        tweak(&mut config);
        net.register(PROBER, Prober::new(config, handle.clone()).unwrap());
        net.set_timer_for(PROBER, SimTime::ZERO, TICK);
        net.run_until_idle();
        handle
    }

    #[test]
    fn captures_responses_and_counts_q1() {
        let responder = Ipv4Addr::new(9, 9, 9, 9);
        let silent = Ipv4Addr::new(8, 8, 8, 8);
        let handle = scan(vec![responder, silent], |net| {
            net.register(responder, FixedAnswer(Ipv4Addr::new(1, 2, 3, 4)));
        });
        let stats = handle.stats();
        assert_eq!(stats.q1_sent, 2);
        assert_eq!(stats.r2_captured, 1);
        assert!(stats.done);
        let captures = handle.captures();
        assert_eq!(captures.len(), 1);
        assert_eq!(captures[0].target, responder);
        assert!(captures[0].at > captures[0].sent_at);
        // The one round trip is the one latency sample.
        let rtt = captures[0].at.since(captures[0].sent_at).as_nanos() as u64;
        let latency = stats.q1_r2_latency_ns;
        assert_eq!((latency.count, latency.min, latency.max), (1, rtt, rtt));
        // Every tick's tokens are on the books, spent or not.
        assert!(stats.pacer_ticks > 0);
        assert_eq!(
            stats.pacer_tokens_issued - stats.pacer_tokens_unused,
            stats.q1_sent
        );
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
        let handle = scan(silent, |_| {});
        let stats = handle.stats();
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
        let handle = scan(silent, |_| {});
        let stats = handle.stats();
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
        struct Counted(Prober, std::rc::Rc<std::cell::Cell<u64>>);
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
        let handle = ProberHandle::new();
        let mut config = ProberConfig::new(zone(), silent);
        config.rate_pps = 50;
        config.response_window = Duration::from_millis(200);
        let dispatches = std::rc::Rc::default();
        let mut net = SimNet::builder().seed(5).build();
        let prober = Prober::new(config, handle.clone()).unwrap();
        net.register(PROBER, Counted(prober, std::rc::Rc::clone(&dispatches)));
        net.set_timer_for(PROBER, SimTime::ZERO, TICK);
        net.run_until_idle();
        let stats = handle.stats();
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
    fn a_sweep_of_stale_entries_leaves_the_in_flight_map_its_size() {
        /// Fills the prober's in-flight map to its load limit, files a
        /// stale expiry entry for each of its probes (a superseded
        /// transmission) and for as many answered probes (whose keys are
        /// gone), sweeps, and reports the map's length and capacity
        /// before and after.
        struct StaleSweep(Prober, std::rc::Rc<std::cell::Cell<[(usize, usize); 2]>>);
        impl Endpoint for StaleSweep {
            fn handle_datagram(&mut self, _: &Datagram, _: &mut Context<'_>) {}
            fn handle_timer(&mut self, _: u64, ctx: &mut Context<'_>) {
                let prober = &mut self.0;
                prober.outstanding.reserve(16);
                let n = prober.outstanding.capacity() as u32;
                for i in 0..n {
                    let probe = Outstanding {
                        label: ProbeLabel {
                            cluster: 0,
                            seq: u64::from(i),
                        },
                        sent_at: SimTime::ZERO,
                        attempts: 0,
                        xmit: u64::from(i),
                    };
                    prober.outstanding.insert(Ipv4Addr::from(i), probe);
                }
                for i in 0..2 * n {
                    let entry = (SimTime::ZERO, u64::from(n + i), Ipv4Addr::from(i));
                    prober.expiry.push(0, entry);
                }
                let full = (prober.outstanding.len(), prober.outstanding.capacity());
                prober.sweep_expired(ctx, &mut TickBooks::default());
                let after = (prober.outstanding.len(), prober.outstanding.capacity());
                self.1.set([full, after]);
            }
        }
        let prober = Prober::new(ProberConfig::new(zone(), Vec::new()), ProberHandle::new());
        let seen = std::rc::Rc::default();
        let mut net = SimNet::builder().seed(5).build();
        net.register(
            PROBER,
            StaleSweep(prober.unwrap(), std::rc::Rc::clone(&seen)),
        );
        net.set_timer_for(PROBER, SimTime::from_secs(1), TICK);
        net.run_until_idle();
        let [full, after] = seen.get();
        assert_eq!(full.0, full.1, "the map is at its load limit");
        assert_eq!(
            after, full,
            "a stale entry settles nothing and makes no room"
        );
    }

    #[test]
    fn off_port_responses_are_dropped() {
        let off = Ipv4Addr::new(7, 7, 7, 7);
        let handle = scan(vec![off], |net| {
            net.register(off, OffPort);
        });
        let stats = handle.stats();
        assert_eq!(stats.r2_captured, 0);
        assert_eq!(stats.off_port_dropped, 1);
    }

    #[test]
    fn empty_question_response_joins_by_source() {
        let eq = Ipv4Addr::new(6, 6, 6, 6);
        let handle = scan(vec![eq], |net| {
            net.register(eq, EmptyQuestion);
        });
        let captures = handle.captures();
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
        let handle = scan(vec![host], |net| {
            net.register(host, WrongQname);
        });
        assert_eq!(handle.stats().r2_captured, 0);
        assert_eq!(handle.stats().unmatched, 1);
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
        let handle = scan_with(
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
        let stats = handle.stats();
        assert_eq!(stats.q1_sent, 1, "retransmits must not inflate q1_sent");
        assert_eq!(stats.retransmits_sent, 1);
        assert_eq!(stats.r2_captured, 1);
        assert_eq!(stats.probes_abandoned, 0);
        assert!(stats.done);
        // The capture joins to the original label and qname.
        let captures = handle.captures();
        assert_eq!(captures[0].target, deaf);
        assert!(captures[0].label.is_some());
    }

    #[test]
    fn retry_limit_bounds_retransmissions_then_abandons() {
        let silent = Ipv4Addr::new(3, 3, 3, 3);
        let handle = scan_with(vec![silent], |_| {}, |config| config.retry_limit = 2);
        let stats = handle.stats();
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
        let handle = scan(silent, |_| {});
        let stats = handle.stats();
        assert_eq!(stats.retransmits_sent, 0);
        assert_eq!(stats.probes_abandoned, 20);
    }

    #[test]
    fn slot_schedule_reproduces_local_pacing_send_times() {
        // A full-coverage slot schedule (every target owned, global
        // indices 0..n, total rate == local rate) must send each probe
        // at exactly the same virtual time as the legacy pacer.
        let targets: Vec<Ipv4Addr> = (0..250u32)
            .map(|i| Ipv4Addr::from(0x0a00_0000 + i))
            .collect();
        let sent_times = |slots: Option<SlotSchedule>| {
            let handle = scan_with(
                targets.clone(),
                |net| {
                    for &t in &targets {
                        net.register(t, FixedAnswer(Ipv4Addr::new(1, 1, 1, 1)));
                    }
                },
                move |config| config.slots = slots,
            );
            let mut times: Vec<(Ipv4Addr, SimTime)> = handle
                .captures()
                .iter()
                .map(|c| (c.target, c.sent_at))
                .collect();
            times.sort();
            times
        };
        let legacy = sent_times(None);
        let slotted = sent_times(Some(SlotSchedule {
            total_rate_pps: 1_000,
        }));
        assert_eq!(legacy.len(), 250);
        assert_eq!(legacy, slotted);
    }

    #[test]
    fn sparse_slot_schedule_sends_at_global_instants() {
        // A shard owning every 4th target of a 1000-pps campaign sends
        // on the same tick grid as the full scan: global index 100 goes
        // out on tick ceil(101*100/1000)-1 = 10, i.e. t = 100ms.
        let handle = scan_with(
            Vec::new(),
            |net| {
                net.register(
                    Ipv4Addr::new(9, 9, 9, 9),
                    FixedAnswer(Ipv4Addr::new(1, 1, 1, 1)),
                );
            },
            |config| {
                config.targets =
                    TargetSource::new(std::iter::once((100, Ipv4Addr::new(9, 9, 9, 9))));
                config.slots = Some(SlotSchedule {
                    total_rate_pps: 1_000,
                });
            },
        );
        let captures = handle.captures();
        assert_eq!(captures.len(), 1);
        assert_eq!(captures[0].sent_at, SimTime::from_nanos(100_000_000));
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
        let handle = scan(
            vec![answered, silent, empty, answered, silent, empty],
            |net| {
                net.register(answered, FixedAnswer(Ipv4Addr::new(1, 2, 3, 4)));
                net.register(empty, EmptyQuestion);
            },
        );
        let stats = handle.stats();
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
        let captures = handle.captures();
        let newer = |target| {
            let capture = captures.iter().find(|c| c.target == target).unwrap();
            ProbeLabel::parse(&capture.qname, &zone()).unwrap()
        };
        // `empty`'s second probe reuses the label `silent`'s first gave up.
        assert_eq!(newer(answered), ProbeLabel::new(0, 3));
        assert_eq!(newer(empty), ProbeLabel::new(0, 1));
    }

    #[test]
    fn the_expiry_queue_pops_in_heap_order() {
        // The prober's pattern: the clock never runs backwards, a
        // transmission at attempt `a` is due `window * 2^a` later, and
        // each sweep pops what is due before anything else is sent.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        orscope_check::cases(64, |rng| {
            let levels = rng.range(1..5u32);
            let window = rng.range(1..50u64);
            let mut queue = ExpiryQueue::default();
            let mut heap: BinaryHeap<Reverse<(SimTime, u64, Ipv4Addr)>> = BinaryHeap::new();
            let (mut now, mut xmit) = (0u64, 0u64);
            for _ in 0..400 {
                now += rng.range(0..40u64);
                let at = SimTime::from_nanos(now);
                while heap
                    .peek()
                    .is_some_and(|&Reverse((deadline, ..))| deadline <= at)
                {
                    assert_eq!(queue.pop_due(at), heap.pop().map(|Reverse(least)| least));
                }
                assert_eq!(queue.pop_due(at), None);
                for _ in 0..rng.range(0..4u32) {
                    let attempts = rng.range(0..levels);
                    let deadline = SimTime::from_nanos(now + (window << attempts));
                    let entry = (deadline, xmit, Ipv4Addr::from(rng.next_u64() as u32));
                    xmit += 1;
                    queue.push(attempts, entry);
                    heap.push(Reverse(entry));
                }
            }
        });
    }

    #[test]
    fn a_superseded_probe_is_abandoned_once_under_retries() {
        // The first probe's expiry entry goes stale: only the second is
        // retransmitted and, in the end, abandoned.
        let silent = Ipv4Addr::new(3, 3, 3, 3);
        let handle = scan_with(
            vec![silent, silent],
            |_| {},
            |config| config.retry_limit = 1,
        );
        let stats = handle.stats();
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
            let handle = ProberHandle::new();
            let mut config = ProberConfig::new(zone(), targets);
            config.rate_pps = rng.range(100..2_000);
            config.response_window = Duration::from_millis(200);
            config.retry_limit = rng.range(0..4);
            config.cluster_capacity = rng.range(1..20);
            net.register(PROBER, Prober::new(config, handle.clone()).unwrap());
            net.set_timer_for(PROBER, SimTime::ZERO, TICK);
            net.run_until_idle();
            let mut seen = std::collections::HashSet::new();
            for capture in handle.captures() {
                let label = capture
                    .label
                    .or_else(|| ProbeLabel::parse(&capture.qname, &zone()))
                    .expect("a capture names its probe");
                assert!(seen.insert(label), "{label} captured twice");
            }
            assert_eq!(seen.len() as u64, handle.stats().r2_captured);
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
    fn a_zone_too_long_for_probe_labels_sends_nothing() {
        // 241 bytes on the wire: the two probe labels' 14 make 255, the
        // limit; one byte more in the zone and no Q1 exists.
        let fits = format!("{0}.{0}.{0}.{1}", "a".repeat(63), "b".repeat(47));
        let too_long = format!("{0}.{0}.{0}.{1}", "a".repeat(63), "b".repeat(48));
        assert!(QueryTemplate::new(&fits.parse().unwrap()).is_some());
        let zone: Name = too_long.parse().unwrap();
        assert!(QueryTemplate::new(&zone).is_none());
        let target = Ipv4Addr::new(9, 9, 9, 9);
        let handle = scan_with(
            vec![target],
            |net| net.register(target, FixedAnswer(Ipv4Addr::new(1, 2, 3, 4))),
            |config| config.zone = zone,
        );
        let stats = handle.stats();
        assert_eq!(stats.q1_sent, 0);
        assert_eq!(stats.r2_captured, 0);
        assert!(stats.done);
    }

    #[test]
    fn zero_rate_config_is_rejected() {
        let config = ProberConfig {
            rate_pps: 0,
            ..ProberConfig::new(zone(), Vec::new())
        };
        assert!(Prober::new(config, ProberHandle::new()).is_err());
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
            let handle = scan(vec![host], |net| net.register(host, Tailed(tail)));
            assert_eq!(handle.stats().r2_captured, 1);
            assert_eq!(handle.stats().unmatched, 0);
            let capture = handle.captures().remove(0);
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
}
