//! Four-flow matching: grouping Q1, Q2, R1 and R2 by qname (§III-B).
//!
//! The DNS ID field (16 bits) cannot disambiguate flows at 100k probes
//! per second, so the paper keys everything on the unique per-target
//! qname. This module performs that join across the two capture points:
//! the prober's R2 log (which carries the Q1 send time) and the
//! authoritative server's Q2/R1 log, yielding one [`Flow`] per probed
//! responder with the complete packet timeline of Fig. 2.

use std::net::Ipv4Addr;
use std::sync::OnceLock;

use orscope_authns::scheme::ProbeLabel;
use orscope_authns::{CapturedPacket, Direction};
use orscope_dns_wire::wire::Reader;
use orscope_dns_wire::{Header, Name, Question};
use orscope_netsim::SimTime;

use crate::classify::ClassifiedR2;

/// One flow of the join: a fixed-size row, no heap behind it.
///
/// The Q1/R2 instants live here; the authoritative-side stamps live in
/// the table's shared [`Stamp`] log, threaded newest-first from `head`.
/// A vector of them per flow would be a heap allocation (or two) for
/// each of the millions of responders that recurse at paper scale.
#[derive(Debug, Clone, Copy)]
struct FlowRow {
    /// When the prober sent Q1; meaningful only under [`HAS_R2`]
    /// (`SimTime::ZERO` is a real send time, so presence is a flag).
    q1_at: SimTime,
    /// When the prober captured R2; meaningful only under [`HAS_R2`].
    r2_at: SimTime,
    /// The probed resolver; meaningful only under [`HAS_RESOLVER`].
    resolver: Ipv4Addr,
    /// Log position + 1 of the flow's newest stamp; 0 for none.
    head: u32,
    /// `ProbeLabel::seq`.
    seq: u32,
    /// `ProbeLabel::cluster`.
    cluster: u16,
    /// Presence bits: [`HAS_RESOLVER`], [`HAS_R2`], [`HAS_Q2`].
    flags: u8,
}

const HAS_RESOLVER: u8 = 1;
const HAS_R2: u8 = 1 << 1;
const HAS_Q2: u8 = 1 << 2;

// The whole point of the layout: DESIGN section 13 budgets 32 B a flow
// (plus its 4 B index slot) and 12 B a Q2, an R1, or a Q2 and its R1.
const _: () = assert!(std::mem::size_of::<FlowRow>() <= 32);
const _: () = assert!(std::mem::size_of::<Stamp>() == 12);

impl FlowRow {
    /// An empty timeline for `label`, filled in as packets fold in.
    fn stub(label: ProbeLabel) -> FlowRow {
        FlowRow {
            q1_at: SimTime::ZERO,
            r2_at: SimTime::ZERO,
            resolver: Ipv4Addr::UNSPECIFIED,
            head: 0,
            seq: u32::try_from(label.seq).expect("ProbeLabel::seq is below CLUSTER_CAPACITY"),
            cluster: u16::try_from(label.cluster).expect("ProbeLabel::cluster is at most 999"),
            flags: 0,
        }
    }

    fn label(&self) -> ProbeLabel {
        ProbeLabel {
            cluster: u32::from(self.cluster),
            seq: u64::from(self.seq),
        }
    }

    /// The label packed into the 8 bytes the index keys on; orders like
    /// [`ProbeLabel`].
    fn key(&self) -> u64 {
        u64::from(self.cluster) << 32 | u64::from(self.seq)
    }

    fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    /// Q1 -> R2 in nanoseconds (0 if R2 came first), if both ends exist.
    fn latency(&self) -> Option<u64> {
        self.has(HAS_R2)
            .then(|| self.r2_at.as_nanos().saturating_sub(self.q1_at.as_nanos()))
    }
}

/// One instant of authoritative-side traffic in the shared log: when,
/// which directions (a Q2, an R1, or a Q2 and the R1 that answered it
/// at the same instant), and the previous stamp of the same flow.
///
/// `packed(4)` drops the tail padding a `u64` would force (16 B -> 12 B);
/// the fields are only ever copied out, never borrowed.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Stamp {
    at: u64,
    /// `previous << 2 | kind`, where `previous` is the log position + 1
    /// of the flow's next-older stamp (0 ends the chain) and `kind` is
    /// [`INBOUND`], [`OUTBOUND`] or both.
    link: u32,
}

/// The [`Stamp`] kind bit of a Q2.
const INBOUND: u32 = 0b01;
/// The [`Stamp`] kind bit of an R1.
const OUTBOUND: u32 = 0b10;
const KIND: u32 = INBOUND | OUTBOUND;

/// The largest `position + 1` a [`Stamp::link`] can carry beside its
/// kind bits.
const MAX_LINK: u32 = u32::MAX >> 2;

/// A log position (or length) as the `position + 1` form that
/// [`FlowRow::head`] and [`Stamp::link`] store.
///
/// # Panics
///
/// Panics, rather than wrapping into some other flow's chain, when the
/// log outgrows what a link can address (2^30 - 1 stamps, ~40x the
/// paper's full-scale Q2 count).
fn link_to(position_plus_one: usize) -> u32 {
    u32::try_from(position_plus_one)
        .ok()
        .filter(|link| *link <= MAX_LINK)
        .expect("flow log holds at most 2^30 - 1 stamps")
}

/// The [`Stamp`] kind bit of a packet travelling in `direction`.
fn kind_of(direction: Direction) -> u32 {
    match direction {
        Direction::Inbound => INBOUND,
        Direction::Outbound => OUTBOUND,
    }
}

impl Stamp {
    fn new(at: u64, previous: u32, kind: u32) -> Stamp {
        Stamp {
            at,
            link: previous << 2 | kind,
        }
    }

    fn previous(self) -> u32 {
        self.link >> 2
    }

    fn kind(self) -> u32 {
        self.link & KIND
    }

    /// This stamp as it reads once `base` stamps of another log sit in
    /// front of its own.
    fn behind(self, base: u32) -> Stamp {
        match self.previous() {
            0 => self,
            previous => Stamp::new(self.at, link_to((previous + base) as usize), self.kind()),
        }
    }
}

/// The stamps of the chain that starts at `head`, newest fold first, each
/// with its log position.
fn chain(log: &[Stamp], head: u32) -> impl Iterator<Item = (usize, Stamp)> + '_ {
    let mut next = head;
    std::iter::from_fn(move || {
        let position = next.checked_sub(1)? as usize;
        let stamp = log[position];
        next = stamp.previous();
        Some((position, stamp))
    })
}

/// The instants of one flow's stamps in `direction`, ascending.
fn timeline(log: &[Stamp], head: u32, direction: Direction) -> Vec<SimTime> {
    let kind = kind_of(direction);
    let mut out: Vec<SimTime> = chain(log, head)
        .filter(|(_, stamp)| stamp.kind() & kind != 0)
        .map(|(_, stamp)| SimTime::from_nanos(stamp.at))
        .collect();
    // The chain runs newest-fold-first and, after an absorb, one
    // table's stamps after the other's; ascending time is the one order
    // every fold and merge order agrees on.
    out.sort_unstable();
    out
}

/// Label-keyed flow join state: a label index over a dense arena of
/// fixed-size rows, plus one append-only stamp log for all of them.
///
/// Splitting the join into an index of 4-byte slots, a `Vec` of rows and
/// a `Vec` of stamps means no flow owns heap memory: the table is three
/// allocations however many flows recurse, finishing is a move of the
/// arena and the log, and the batch and streaming paths reduce their
/// captures through one structure.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowTable {
    /// Open-addressed over a power-of-two length (empty before the first
    /// flow), at most three quarters full. A slot is 0 when empty and
    /// otherwise the arena position + 1 of a row: it holds no key, so a
    /// probe compares the label through [`FlowTable::rows`], and a fresh
    /// index is zeroed pages that become resident only when written.
    index: Vec<u32>,
    rows: Vec<FlowRow>,
    log: Vec<Stamp>,
}

/// Whether an index of `slots` slots holds `flows` flows.
fn fits(slots: usize, flows: usize) -> bool {
    flows <= slots / 4 * 3
}

/// The fewest slots (a power of two) that hold `flows` flows.
fn slots_for(flows: usize) -> usize {
    (flows.div_ceil(3) * 4).next_power_of_two()
}

/// Where the probe for `key` starts among `slots` slots: the top bits of
/// a multiplicative (Fibonacci) hash, which spreads consecutive `seq`s
/// evenly.
fn home(key: u64, slots: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.trailing_zeros())) as usize
}

impl FlowTable {
    /// A table pre-sized for `capacity` flows: one allocation each for
    /// the index and the arena.
    pub(crate) fn with_capacity(capacity: usize) -> FlowTable {
        FlowTable {
            index: vec![0; slots_for(capacity)],
            rows: Vec::with_capacity(capacity),
            log: Vec::new(),
        }
    }

    /// Grows the table to hold `additional` more flows without
    /// reallocating. At full scale the arena's last doubling overshoots
    /// the final footprint, so callers that know the responder count
    /// ahead of time should reserve it.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let flows = self.rows.len() + additional;
        if !fits(self.index.len(), flows) {
            self.rebuild(slots_for(flows));
        }
        self.rows.reserve(additional);
    }

    /// Replaces the index with `slots` slots holding every row.
    fn rebuild(&mut self, slots: usize) {
        let mut index = vec![0u32; slots];
        for (position, row) in self.rows.iter().enumerate() {
            // Labels are unique, so the first empty slot is the row's.
            let mut at = home(row.key(), slots);
            while index[at] != 0 {
                at = (at + 1) & (slots - 1);
            }
            index[at] = position as u32 + 1;
        }
        self.index = index;
    }

    /// The arena position of the flow for `label`, created as a stub on
    /// first touch.
    fn slot(&mut self, label: ProbeLabel) -> usize {
        if !fits(self.index.len(), self.rows.len() + 1) {
            self.rebuild(slots_for(self.rows.len() + 1));
        }
        let stub = FlowRow::stub(label);
        let key = stub.key();
        let slots = self.index.len();
        let mut at = home(key, slots);
        loop {
            match self.index[at] {
                0 => {
                    self.rows.push(stub);
                    self.index[at] =
                        u32::try_from(self.rows.len()).expect("flow arena holds under 2^32 flows");
                    return self.rows.len() - 1;
                }
                taken if self.rows[taken as usize - 1].key() == key => return taken as usize - 1,
                _ => at = (at + 1) & (slots - 1),
            }
        }
    }

    /// Folds one R2 observation into the table.
    pub(crate) fn fold_r2(
        &mut self,
        label: ProbeLabel,
        resolver: Ipv4Addr,
        sent_at: SimTime,
        at: SimTime,
    ) {
        let slot = self.slot(label);
        let row = &mut self.rows[slot];
        row.resolver = resolver;
        row.q1_at = sent_at;
        row.r2_at = at;
        row.flags |= HAS_RESOLVER | HAS_R2;
    }

    /// Folds one authoritative-server packet into the table, counting
    /// packets whose qname is not a probe name as foreign. The label
    /// the capture point stamped on the packet is taken at its word;
    /// only a packet without one (a replayed log, a hand-built fixture,
    /// foreign or undecodable traffic) has its payload read here.
    pub(crate) fn fold_auth(&mut self, foreign: &mut u64, packet: &CapturedPacket, zone: &Name) {
        let label = packet.label.or_else(|| {
            question_of(&packet.payload).and_then(|q| ProbeLabel::parse(q.qname(), zone))
        });
        match label {
            Some(label) => self.fold_stamp(label, packet.direction, packet.at, packet.peer),
            None => *foreign += 1,
        }
    }

    /// Adds one Q2 (`Inbound`) or R1 (`Outbound`) to `label`'s chain: an
    /// R1 at the instant of the flow's newest unpaired Q2 marks that
    /// stamp, anything else appends one.
    fn fold_stamp(&mut self, label: ProbeLabel, direction: Direction, at: SimTime, peer: Ipv4Addr) {
        let slot = self.slot(label);
        let FlowTable { rows, log, .. } = self;
        let row = &mut rows[slot];
        let at = at.as_nanos();
        if direction == Direction::Inbound {
            row.flags |= HAS_Q2;
            if !row.has(HAS_RESOLVER) {
                // The R2 was lost (or is yet to come): the Q2 source
                // stands in for the probed resolver.
                row.resolver = peer;
                row.flags |= HAS_RESOLVER;
            }
        } else {
            // The authoritative server answers inside the dispatch that
            // delivered the Q2, so nearly every R1 pairs.
            let unpaired = chain(log, row.head).find(|(_, stamp)| stamp.kind() == INBOUND);
            if let Some((position, _)) = unpaired.filter(|(_, q2)| q2.at == at) {
                log[position].link |= OUTBOUND;
                return;
            }
        }
        log.push(Stamp::new(at, row.head, kind_of(direction)));
        row.head = link_to(log.len());
    }

    /// Merges another table in. Shards probe disjoint cluster ranges, so
    /// a label almost never spans tables; when one does, this table's
    /// Q1/R2/resolver win and the stamp chains are joined.
    pub(crate) fn absorb(&mut self, other: FlowTable) {
        let FlowTable { index, rows, log } = other;
        drop(index);
        self.reserve(rows.len());
        // The other log lands behind this one, so every link into it
        // moves by this log's length.
        let base = link_to(self.log.len());
        self.log.reserve(log.len());
        self.log.extend(log.iter().map(|stamp| stamp.behind(base)));
        drop(log);
        for row in rows {
            let slot = self.slot(row.label());
            let into = &mut self.rows[slot];
            if !into.has(HAS_RESOLVER) && row.has(HAS_RESOLVER) {
                into.resolver = row.resolver;
            }
            if !into.has(HAS_R2) && row.has(HAS_R2) {
                into.q1_at = row.q1_at;
                into.r2_at = row.r2_at;
            }
            into.flags |= row.flags;
            if row.head == 0 {
                continue;
            }
            let head = link_to((row.head + base) as usize);
            if into.head != 0 {
                // Hang this table's chain off the oldest stamp of the
                // one just appended.
                let (oldest, _) = chain(&self.log, head)
                    .last()
                    .expect("a head starts a chain");
                self.log[oldest].link |= into.head << 2;
            }
            into.head = head;
        }
    }

    /// Moves the join out as a [`FlowSet`]: the arena and the log move,
    /// only the index is dropped.
    pub(crate) fn finish(self, foreign_auth_packets: u64) -> FlowSet {
        FlowSet::from_parts(self.rows, self.log, foreign_auth_packets)
    }

    /// Copies the join into a [`FlowSet`] (mid-scan snapshots).
    pub(crate) fn snapshot(&self, foreign_auth_packets: u64) -> FlowSet {
        FlowSet::from_parts(self.rows.clone(), self.log.clone(), foreign_auth_packets)
    }
}

/// The reconstructed timeline of one probe flow: a view into the
/// [`FlowSet`] that holds it.
#[derive(Clone, Copy)]
pub struct Flow<'a> {
    row: &'a FlowRow,
    log: &'a [Stamp],
}

impl Flow<'_> {
    /// The probe label (joins all four packet kinds).
    pub fn label(&self) -> ProbeLabel {
        self.row.label()
    }

    /// The probed resolver, from the R2 (or the Q2 source when the R2
    /// was lost).
    pub fn resolver(&self) -> Option<Ipv4Addr> {
        self.row.has(HAS_RESOLVER).then_some(self.row.resolver)
    }

    /// When the prober sent Q1 (known only for flows with an R2).
    pub fn q1_at(&self) -> Option<SimTime> {
        self.row.has(HAS_R2).then_some(self.row.q1_at)
    }

    /// When the prober captured R2.
    pub fn r2_at(&self) -> Option<SimTime> {
        self.row.has(HAS_R2).then_some(self.row.r2_at)
    }

    /// Arrival times of resolver queries at the authoritative server,
    /// ascending.
    pub fn q2_at(&self) -> Vec<SimTime> {
        timeline(self.log, self.row.head, Direction::Inbound)
    }

    /// Send times of authoritative responses, ascending.
    pub fn r1_at(&self) -> Vec<SimTime> {
        timeline(self.log, self.row.head, Direction::Outbound)
    }

    /// End-to-end resolution latency (Q1 -> R2), if both ends exist.
    pub fn resolution_latency(&self) -> Option<std::time::Duration> {
        self.row.latency().map(std::time::Duration::from_nanos)
    }

    /// Whether the flow reached the authoritative server (i.e. the
    /// responder really recursed rather than answering from thin air).
    pub fn recursed(&self) -> bool {
        self.row.has(HAS_Q2)
    }
}

impl std::fmt::Debug for Flow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flow")
            .field("label", &self.label())
            .field("resolver", &self.resolver())
            .field("q1_at", &self.q1_at())
            .field("q2_at", &self.q2_at())
            .field("r1_at", &self.r1_at())
            .field("r2_at", &self.r2_at())
            .finish()
    }
}

/// The joined flow set for one scan.
#[derive(Debug, Clone, Default)]
pub struct FlowSet {
    /// One row per flow, in label order.
    rows: Vec<FlowRow>,
    /// Every Q2/R1 stamp of every flow (see [`FlowRow::head`]).
    log: Vec<Stamp>,
    /// Auth-server packets whose qname was not a probe name.
    pub foreign_auth_packets: u64,
    /// Sorted resolution latencies in nanoseconds, computed on first use
    /// so quantile queries index instead of re-sorting.
    sorted_latencies: OnceLock<Vec<u64>>,
}

impl FlowSet {
    /// Assembles a flow set from a finished join.
    fn from_parts(mut rows: Vec<FlowRow>, log: Vec<Stamp>, foreign_auth_packets: u64) -> FlowSet {
        // Labels are unique per flow, so the unstable sort is as
        // deterministic as a stable one — and it sorts in place instead
        // of allocating an n/2 scratch buffer, which at paper scale
        // would sit beside a live multi-million-flow vector. Chains
        // address the log, not the arena, so rows are free to move.
        rows.sort_unstable_by_key(FlowRow::key);
        FlowSet {
            rows,
            log,
            foreign_auth_packets,
            sorted_latencies: OnceLock::new(),
        }
    }

    /// Joins classified records and server-side captures: the
    /// four-flow join driven off the classified records, which carry
    /// everything it needs without the raw payloads. `zone` is the
    /// measurement zone the probe names live under.
    pub fn match_records(
        records: &[ClassifiedR2],
        auth: &[CapturedPacket],
        zone: &Name,
    ) -> FlowSet {
        let mut by_label = FlowTable::with_capacity(records.len());
        for rec in records {
            let Some(label) = rec.label.or_else(|| ProbeLabel::parse(&rec.qname, zone)) else {
                continue;
            };
            by_label.fold_r2(label, rec.resolver, rec.sent_at, rec.at);
        }
        let mut foreign = 0u64;
        for packet in auth {
            by_label.fold_auth(&mut foreign, packet, zone);
        }
        by_label.finish(foreign)
    }

    /// Number of flows in the join.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the join holds no flow at all.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Every flow, in label order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Flow<'_>> {
        let log = &self.log[..];
        self.rows.iter().map(move |row| Flow { row, log })
    }

    /// Number of flows that recursed (reached the authoritative server).
    pub fn recursed_count(&self) -> u64 {
        self.rows.iter().filter(|row| row.has(HAS_Q2)).count() as u64
    }

    /// Mean Q2 packets per recursing flow — the resolver-farm fan-out
    /// that makes Table II's Q2 a multiple of its R2.
    pub fn mean_q2_fanout(&self) -> f64 {
        let recursed = self.recursed_count();
        if recursed == 0 {
            return 0.0;
        }
        // Every stamp in the log belongs to exactly one flow.
        let q2 = self
            .log
            .iter()
            .filter(|stamp| stamp.kind() & INBOUND != 0)
            .count();
        q2 as f64 / recursed as f64
    }

    /// Resolution latencies (Q1 -> R2) across complete flows, sorted.
    pub fn resolution_latencies(&self) -> Vec<std::time::Duration> {
        self.sorted()
            .iter()
            .map(|&nanos| std::time::Duration::from_nanos(nanos))
            .collect()
    }

    /// The sorted latencies in nanoseconds, computed once and cached:
    /// quantile queries index into the cache instead of re-sorting.
    fn sorted(&self) -> &[u64] {
        self.sorted_latencies.get_or_init(|| {
            let mut out: Vec<u64> = self.rows.iter().filter_map(FlowRow::latency).collect();
            out.sort_unstable();
            out
        })
    }

    /// The `q`-quantile (0..=1; a `q` outside clamps to the nearer end)
    /// of resolution latency. `None` if no flow completed, or if `q` is
    /// NaN or infinite.
    pub fn latency_quantile(&self, q: f64) -> Option<std::time::Duration> {
        let lats = self.sorted();
        if lats.is_empty() || !q.is_finite() {
            return None;
        }
        let idx = ((lats.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(std::time::Duration::from_nanos(lats[idx]))
    }
}

/// Extracts the first question from a DNS payload, tolerating
/// undecodable tails. Callers borrow the qname out of the returned
/// question rather than cloning it.
fn question_of(payload: &[u8]) -> Option<Question> {
    let mut reader = Reader::new(payload);
    let header = Header::decode(&mut reader).ok()?;
    if header.question_count() == 0 {
        return None;
    }
    Question::decode(&mut reader).ok()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use orscope_dns_wire::Message;
    use orscope_netsim::Payload;
    use orscope_prober::R2Capture;

    use crate::classify::classify;

    fn zone() -> Name {
        "ucfsealresearch.net".parse().unwrap()
    }

    fn r2(label: ProbeLabel, sent_ms: u64, recv_ms: u64) -> R2Capture {
        let query = Message::query(1, Question::a(label.qname(&zone())));
        R2Capture {
            target: Ipv4Addr::new(9, 9, 9, 9),
            label: Some(label),
            qname: label.qname(&zone()),
            at: SimTime::from_nanos(recv_ms * 1_000_000),
            sent_at: SimTime::from_nanos(sent_ms * 1_000_000),
            payload: Payload::from(query.encode().unwrap()),
        }
    }

    /// The join as the batch pipeline drives it: classify, then match.
    fn join(r2: &[R2Capture], auth: &[CapturedPacket]) -> FlowSet {
        let records: Vec<ClassifiedR2> = r2.iter().filter_map(classify).collect();
        assert_eq!(records.len(), r2.len());
        FlowSet::match_records(&records, auth, &zone())
    }

    /// A server-side packet asking for `qname`, as a replayed log holds
    /// it: no label stamped on it.
    fn auth_for(qname: Name, at: SimTime, direction: Direction, peer: Ipv4Addr) -> CapturedPacket {
        let query = Message::query(7, Question::a(qname));
        CapturedPacket {
            at,
            direction,
            peer,
            peer_port: 33_000,
            label: None,
            payload: Payload::from(query.encode().unwrap()),
        }
    }

    fn auth(label: ProbeLabel, at_ms: u64, direction: Direction) -> CapturedPacket {
        let at = SimTime::from_nanos(at_ms * 1_000_000);
        auth_for(
            label.qname(&zone()),
            at,
            direction,
            Ipv4Addr::new(9, 9, 9, 9),
        )
    }

    #[test]
    fn joins_all_four_packet_kinds() {
        let label = ProbeLabel::new(0, 1);
        let flows = join(
            &[r2(label, 0, 100)],
            &[
                auth(label, 40, Direction::Inbound),
                auth(label, 41, Direction::Outbound),
                auth(label, 55, Direction::Inbound), // duplicate Q2
                auth(label, 56, Direction::Outbound),
            ],
        );
        assert_eq!(flows.len(), 1);
        let flow = flows.iter().next().unwrap();
        assert_eq!(flow.label(), label);
        let ms = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
        assert_eq!(flow.q2_at(), [ms(40), ms(55)]);
        assert_eq!(flow.r1_at(), [ms(41), ms(56)]);
        assert_eq!(
            flow.resolution_latency(),
            Some(std::time::Duration::from_millis(100))
        );
        assert!(flow.recursed());
        assert_eq!(flows.mean_q2_fanout(), 2.0);
    }

    #[test]
    fn lost_r2_still_yields_a_flow_from_q2() {
        let label = ProbeLabel::new(0, 2);
        let flows = join(&[], &[auth(label, 40, Direction::Inbound)]);
        assert_eq!(flows.len(), 1);
        let flow = flows.iter().next().unwrap();
        assert_eq!(flow.r2_at(), None);
        assert_eq!(flow.q1_at(), None);
        assert_eq!(flow.resolver(), Some(Ipv4Addr::new(9, 9, 9, 9)));
        assert_eq!(flow.resolution_latency(), None);
    }

    #[test]
    fn non_recursing_responder_has_empty_q2() {
        let label = ProbeLabel::new(0, 3);
        let flows = join(&[r2(label, 0, 30)], &[]);
        let flow = flows.iter().next().unwrap();
        assert!(!flow.recursed());
        assert!(flow.q2_at().is_empty() && flow.r1_at().is_empty());
        // Time zero is a real send time, not "absent".
        assert_eq!(flow.q1_at(), Some(SimTime::ZERO));
        assert_eq!(flows.mean_q2_fanout(), 0.0);
    }

    #[test]
    fn foreign_auth_traffic_counted() {
        let foreign = auth_for(
            "www.example.com".parse().unwrap(),
            SimTime::ZERO,
            Direction::Inbound,
            Ipv4Addr::new(1, 1, 1, 1),
        );
        let flows = join(&[], &[foreign]);
        assert!(flows.is_empty());
        assert_eq!(flows.foreign_auth_packets, 1);
    }

    #[test]
    fn latency_quantiles() {
        let flows = join(
            &[
                r2(ProbeLabel::new(0, 1), 0, 10),
                r2(ProbeLabel::new(0, 2), 0, 20),
                r2(ProbeLabel::new(0, 3), 0, 90),
            ],
            &[],
        );
        assert_eq!(
            flows.latency_quantile(0.0),
            Some(std::time::Duration::from_millis(10))
        );
        assert_eq!(
            flows.latency_quantile(1.0),
            Some(std::time::Duration::from_millis(90))
        );
        assert_eq!(
            flows.latency_quantile(0.5),
            Some(std::time::Duration::from_millis(20))
        );
    }

    /// NaN used to clamp through to index 0 and read as the fastest
    /// latency.
    #[test]
    fn non_finite_quantile_is_none() {
        let flows = join(
            &[
                r2(ProbeLabel::new(0, 1), 0, 10),
                r2(ProbeLabel::new(0, 2), 0, 20),
            ],
            &[],
        );
        for q in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(flows.latency_quantile(q), None, "q = {q}");
        }
        assert_eq!(
            flows.latency_quantile(7.0),
            Some(std::time::Duration::from_millis(20))
        );
    }

    #[test]
    fn links_are_checked_not_wrapped() {
        assert_eq!(link_to(MAX_LINK as usize), MAX_LINK);
        let past = std::panic::catch_unwind(|| link_to(MAX_LINK as usize + 1));
        assert!(past.is_err(), "a link past 2^30 - 1 must panic");
        // The extremes a link can hold survive the round trip.
        let stamp = Stamp::new(u64::MAX, MAX_LINK, INBOUND | OUTBOUND);
        assert_eq!(stamp.previous(), MAX_LINK);
        assert_eq!(stamp.kind(), INBOUND | OUTBOUND);
        assert_eq!(stamp.behind(0).previous(), MAX_LINK);
    }

    /// The index finds every row a `BTreeMap` would, through colliding
    /// probe runs, the extreme labels, growth from empty and from a
    /// reserved size, and absorbs of overlapping tables.
    #[test]
    fn label_index_matches_a_btree_map() {
        orscope_check::cases(64, |rng| {
            let mut reference: BTreeMap<ProbeLabel, usize> = BTreeMap::new();
            let mut table = match rng.range(0..3) {
                0 => FlowTable::default(),
                1 => FlowTable::with_capacity(rng.range(0..300)),
                _ => FlowTable::with_capacity(0),
            };
            // A narrow label space, so labels repeat and keys whose
            // homes collide meet; the extremes of the qname's digits come
            // up too.
            let draw = |rng: &mut orscope_check::Rng| match rng.range(0..20) {
                0 => ProbeLabel {
                    cluster: 999,
                    seq: 9_999_999,
                },
                1 => ProbeLabel::new(999, 0),
                2 => ProbeLabel {
                    cluster: 0,
                    seq: 9_999_999,
                },
                _ => ProbeLabel::new(rng.range(0..3), rng.range(0..200)),
            };
            for _ in 0..rng.range(0..600) {
                let label = draw(rng);
                if rng.chance(5) {
                    let mut other = FlowTable::default();
                    for _ in 0..rng.range(0..40) {
                        let label = draw(rng);
                        other.slot(label);
                        let next = reference.len();
                        reference.entry(label).or_insert(next);
                    }
                    table.absorb(other);
                    continue;
                }
                let next = reference.len();
                let want = *reference.entry(label).or_insert(next);
                assert_eq!(table.slot(label), want);
                assert!(fits(table.index.len(), table.rows.len()));
            }
            assert_eq!(table.rows.len(), reference.len());
            let slots = table.index.iter().filter(|&&slot| slot != 0).count();
            assert_eq!(slots, reference.len(), "one slot a row");
            for (label, &position) in &reference {
                assert_eq!(table.slot(*label), position);
                assert_eq!(table.rows[position].label(), *label);
            }
        });
    }

    /// Labels whose probes start at one slot all land, and all resolve.
    #[test]
    fn colliding_homes_probe_past_each_other() {
        let mut table = FlowTable::with_capacity(12);
        let slots = table.index.len();
        let crowd: Vec<ProbeLabel> = (0..9_999_999)
            .map(|seq| ProbeLabel { cluster: 999, seq })
            .filter(|label| home(FlowRow::stub(*label).key(), slots) == slots - 1)
            .take(12)
            .collect();
        assert_eq!(crowd.len(), 12);
        for (position, label) in crowd.iter().enumerate() {
            assert_eq!(table.slot(*label), position);
        }
        assert_eq!(table.index.len(), slots, "reserved slots held them");
        for (position, label) in crowd.iter().enumerate() {
            assert_eq!(table.slot(*label), position);
        }
    }

    /// What the naive join keeps for one label.
    #[derive(Debug, Default, PartialEq)]
    struct NaiveFlow {
        r2: bool,
        q2_at: Vec<SimTime>,
        r1_at: Vec<SimTime>,
    }

    /// The fields of a label's R2 and the source of its Q2s, fixed per
    /// label so that overlapping tables never disagree about them.
    fn resolver_of(label: ProbeLabel) -> Ipv4Addr {
        Ipv4Addr::from(0x0A00_0000 | label.seq as u32)
    }

    fn sent_at_of(label: ProbeLabel) -> SimTime {
        // Label 0 sends at time zero.
        SimTime::from_nanos(label.seq * 1_000)
    }

    fn orders(tables: usize) -> Vec<Vec<usize>> {
        if tables == 1 {
            return vec![vec![0]];
        }
        let mut out = Vec::new();
        for shorter in orders(tables - 1) {
            for at in 0..tables {
                let mut order = shorter.clone();
                order.insert(at, tables - 1);
                out.push(order);
            }
        }
        out
    }

    /// Folds one server packet for `label` into `part` and into the
    /// naive join.
    fn fold_naive(
        (part, foreign): &mut (FlowTable, u64),
        naive: &mut BTreeMap<ProbeLabel, NaiveFlow>,
        label: ProbeLabel,
        direction: Direction,
        at: SimTime,
        stamped: bool,
    ) {
        let mut packet = auth_for(label.qname(&zone()), at, direction, resolver_of(label));
        packet.label = stamped.then_some(label);
        part.fold_auth(foreign, &packet, &zone());
        let entry = naive.entry(label).or_default();
        if direction == Direction::Inbound {
            entry.q2_at.push(at);
        } else {
            entry.r1_at.push(at);
        }
    }

    /// Any interleaving of R2/Q2/R1 folds (R1 before Q2, R2 first,
    /// last or never, fan-out from 0 into the seventies) and foreign
    /// packets, split over 1-4 tables absorbed in every order, joins
    /// to the timelines a map of plain vectors keeps — whether a
    /// server packet arrives with its label stamped on it, as the
    /// capture point hands it over, or bare, as a replayed log does.
    /// Half the packets share one of a few instants, and some come as
    /// the server captures an answered query: the Q2, then none, one or
    /// two R1s at its instant, now and then folded into another table.
    /// So Q2s pair with same-instant R1s, and R1s arrive unpaired, before
    /// their Q2, after a paired one, and on the far side of an absorb.
    #[test]
    fn join_matches_a_naive_map_of_vectors() {
        orscope_check::cases(64, |rng| {
            let tables = rng.range(1..5);
            let mut naive: BTreeMap<ProbeLabel, NaiveFlow> = BTreeMap::new();
            let mut naive_foreign = 0u64;
            let mut parts = vec![(FlowTable::default(), 0u64); tables];
            for _ in 0..rng.range(0..900) {
                let (kind, seq) = (rng.range(0u8..20), rng.range(0u64..12));
                // Squaring skews the labels: a few busy flows, some
                // nearly idle ones.
                let label = ProbeLabel::new((seq % 2) as u32, seq * seq / 12);
                let at = SimTime::from_nanos(match rng.bool() {
                    true => rng.range(0..4),
                    false => rng.next_u64(),
                });
                let stamped = rng.bool();
                let part = rng.range(0..tables);
                let direction = if kind <= 8 {
                    Direction::Inbound
                } else {
                    Direction::Outbound
                };
                match kind {
                    0 => {
                        let r2_at = SimTime::from_nanos(sent_at_of(label).as_nanos() + 7);
                        let table = &mut parts[part].0;
                        table.fold_r2(label, resolver_of(label), sent_at_of(label), r2_at);
                        naive.entry(label).or_default().r2 = true;
                    }
                    1..=15 => {
                        fold_naive(&mut parts[part], &mut naive, label, direction, at, stamped)
                    }
                    16 => {
                        // Not a probe name, under the zone or outside
                        // it: never stamped, counted, no flow.
                        let qname = if stamped {
                            "www.ucfsealresearch.net"
                        } else {
                            "example.com"
                        };
                        let packet =
                            auth_for(qname.parse().unwrap(), at, direction, resolver_of(label));
                        let (table, foreign) = &mut parts[part];
                        table.fold_auth(foreign, &packet, &zone());
                        naive_foreign += 1;
                    }
                    _ => {
                        let inbound = Direction::Inbound;
                        fold_naive(&mut parts[part], &mut naive, label, inbound, at, stamped);
                        for _ in 0..rng.range(0..3) {
                            let part = if rng.chance(80) {
                                part
                            } else {
                                rng.range(0..tables)
                            };
                            let outbound = Direction::Outbound;
                            fold_naive(&mut parts[part], &mut naive, label, outbound, at, stamped);
                        }
                    }
                }
            }
            for flow in naive.values_mut() {
                flow.q2_at.sort();
                flow.r1_at.sort();
            }
            for order in orders(tables) {
                let (mut merged, mut foreign) = parts[order[0]].clone();
                for &next in &order[1..] {
                    merged.absorb(parts[next].0.clone());
                    foreign += parts[next].1;
                }
                let flows = merged.finish(foreign);
                assert_eq!(flows.foreign_auth_packets, naive_foreign);
                assert_eq!(flows.len(), naive.len());
                for (flow, (label, want)) in flows.iter().zip(&naive) {
                    assert_eq!(flow.label(), *label);
                    let got = NaiveFlow {
                        r2: flow.r2_at().is_some(),
                        q2_at: flow.q2_at(),
                        r1_at: flow.r1_at(),
                    };
                    assert_eq!(&got, want, "order {order:?}");
                    assert_eq!(flow.q1_at(), want.r2.then(|| sent_at_of(*label)));
                    assert_eq!(flow.recursed(), !want.q2_at.is_empty());
                    let known = want.r2 || flow.recursed();
                    assert_eq!(flow.resolver(), known.then(|| resolver_of(*label)));
                }
                let recursed = naive.values().filter(|f| !f.q2_at.is_empty()).count();
                assert_eq!(flows.recursed_count(), recursed as u64);
                let q2: usize = naive.values().map(|f| f.q2_at.len()).sum();
                if recursed > 0 {
                    assert_eq!(flows.mean_q2_fanout(), q2 as f64 / recursed as f64);
                }
            }
        });
    }
}
