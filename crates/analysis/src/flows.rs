//! Four-flow matching: grouping Q1, Q2, R1 and R2 by qname (§III-B).
//!
//! The DNS ID field (16 bits) cannot disambiguate flows at 100k probes
//! per second, so the paper keys everything on the unique per-target
//! qname. The report reads three figures off that join: how many probed
//! responders recursed, the mean Q2 fan-out of those that did, and the
//! median Q1 -> R2 latency. [`FlowSummary`] folds each capture into
//! exactly those as it arrives — the prober's R2 log (which carries the
//! Q1 send time) and the authoritative server's Q2/R1 log — and keeps no
//! per-flow timeline.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::Duration;

use orscope_authns::scheme::ProbeLabel;
use orscope_authns::{CapturedPacket, Direction};
use orscope_dns_wire::wire::Reader;
use orscope_dns_wire::{Header, Name, Question};

use crate::classify::ClassifiedR2;

/// The qname join reduced to what the report reads of it.
///
/// A label is captured in at most one R2 per campaign — the prober
/// captures an R2 only for the outstanding probe it matches, removes
/// that probe, and recycles only unanswered labels — so one latency per
/// labelled R2 is one latency per flow that completed.
#[derive(Debug, Clone, Default)]
pub struct FlowSummary {
    /// Per touched cluster, bit `seq` of its words is set once a Q2 for
    /// the label `(cluster, seq)` reached the server: a label spanning
    /// shards, or recycled and asked again, counts once.
    q2_seen: BTreeMap<u32, Vec<u64>>,
    /// Labelled Q2 packets, every one of them.
    q2_packets: u64,
    /// Q1 -> R2 in nanoseconds, one per labelled R2 under 2^32 ns
    /// (4.3 s); ascending once [`FlowSummary::finish`]ed.
    latencies: Vec<u32>,
    /// The latencies of 2^32 ns or more, which only a retransmitted
    /// probe reaches; they sort above every one in `latencies`.
    long_latencies: Vec<u64>,
    /// Auth-server packets whose qname was not a probe name.
    pub foreign_auth_packets: u64,
}

impl FlowSummary {
    /// Joins classified records and server-side captures, as the batch
    /// pipeline holds them. `zone` is the measurement zone the probe
    /// names live under.
    pub fn from_records(
        records: &[ClassifiedR2],
        auth: &[CapturedPacket],
        zone: &Name,
    ) -> FlowSummary {
        let mut summary = FlowSummary::default();
        summary.reserve(records.len());
        for rec in records {
            summary.fold_r2(rec, zone);
        }
        for packet in auth {
            summary.fold_auth(packet, zone);
        }
        summary.finish()
    }

    /// Room for `additional` more latencies without regrowth.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.latencies.reserve(additional);
    }

    /// Folds one R2: its Q1 -> R2 latency (0 if R2 came first), if it
    /// names a probe.
    pub(crate) fn fold_r2(&mut self, rec: &ClassifiedR2, zone: &Name) {
        if rec.label.is_some() || ProbeLabel::parse(&rec.qname, zone).is_some() {
            let latency = rec.at.as_nanos().saturating_sub(rec.sent_at.as_nanos());
            match u32::try_from(latency) {
                Ok(short) => self.latencies.push(short),
                Err(_) => self.long_latencies.push(latency),
            }
        }
    }

    /// Folds one authoritative-server packet, counting packets whose
    /// qname is not a probe name as foreign. The label the capture point
    /// stamped on the packet is taken at its word; only a packet without
    /// one (a replayed log, a hand-built fixture, foreign or undecodable
    /// traffic) has its payload read here. An R1 adds nothing else.
    pub(crate) fn fold_auth(&mut self, packet: &CapturedPacket, zone: &Name) {
        let label = packet.label.or_else(|| {
            question_of(&packet.payload).and_then(|q| ProbeLabel::parse(q.qname(), zone))
        });
        match (label, packet.direction) {
            (None, _) => self.foreign_auth_packets += 1,
            (Some(label), Direction::Inbound) => {
                self.q2_packets += 1;
                let words = self.q2_seen.entry(label.cluster).or_default();
                let word = (label.seq / 64) as usize;
                if words.len() <= word {
                    words.resize(word + 1, 0);
                }
                words[word] |= 1 << (label.seq % 64);
            }
            (Some(_), Direction::Outbound) => {}
        }
    }

    /// Merges another summary in; the order of merges does not show
    /// once finished.
    pub(crate) fn absorb(&mut self, other: FlowSummary) {
        for (cluster, words) in other.q2_seen {
            match self.q2_seen.entry(cluster) {
                Entry::Vacant(vacant) => {
                    vacant.insert(words);
                }
                Entry::Occupied(mut occupied) => {
                    let into = occupied.get_mut();
                    if into.len() < words.len() {
                        into.resize(words.len(), 0);
                    }
                    for (into, word) in into.iter_mut().zip(words) {
                        *into |= word;
                    }
                }
            }
        }
        self.q2_packets += other.q2_packets;
        self.latencies.extend(other.latencies);
        self.long_latencies.extend(other.long_latencies);
        self.foreign_auth_packets += other.foreign_auth_packets;
    }

    /// Sorts the latencies, once, so quantile queries index.
    pub(crate) fn finish(mut self) -> FlowSummary {
        self.latencies.sort_unstable();
        self.long_latencies.sort_unstable();
        self
    }

    /// Number of flows that recursed (reached the authoritative server).
    pub fn recursed_count(&self) -> u64 {
        let words = self.q2_seen.values().flatten();
        words.map(|word| u64::from(word.count_ones())).sum()
    }

    /// Mean Q2 packets per recursing flow — the resolver-farm fan-out
    /// that makes Table II's Q2 a multiple of its R2.
    pub fn mean_q2_fanout(&self) -> f64 {
        match self.recursed_count() {
            0 => 0.0,
            recursed => self.q2_packets as f64 / recursed as f64,
        }
    }

    /// The `q`-quantile (0..=1; a `q` outside clamps to the nearer end)
    /// of resolution latency (Q1 -> R2). `None` if no flow completed, or
    /// if `q` is NaN or infinite.
    pub fn latency_quantile(&self, q: f64) -> Option<Duration> {
        let n = self.latencies.len() + self.long_latencies.len();
        if n == 0 || !q.is_finite() {
            return None;
        }
        let idx = ((n - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        let nanos = match self.latencies.get(idx) {
            Some(&short) => u64::from(short),
            None => self.long_latencies[idx - self.latencies.len()],
        };
        Some(Duration::from_nanos(nanos))
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
pub(crate) mod tests {
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    use super::*;
    use orscope_authns::scheme::CLUSTER_CAPACITY;
    use orscope_dns_wire::Message;
    use orscope_netsim::{Payload, SimTime};
    use orscope_prober::R2Capture;

    use crate::classify::classify;

    fn zone() -> Name {
        "ucfsealresearch.net".parse().unwrap()
    }

    fn ms(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    /// An R2 for `label` sent at `sent` and captured at `at`; `stamped`
    /// says whether the capture carries its label or leaves it to the
    /// qname, as an empty-question R2 does.
    fn r2(label: ProbeLabel, sent: SimTime, at: SimTime, stamped: bool) -> ClassifiedR2 {
        let query = Message::query(1, Question::a(label.qname(&zone())));
        let capture = R2Capture {
            target: Ipv4Addr::new(9, 9, 9, 9),
            label: stamped.then_some(label),
            qname: label.qname(&zone()),
            at,
            sent_at: sent,
            payload: Payload::from(query.encode().unwrap()),
        };
        classify(&capture).expect("a query classifies")
    }

    /// A server-side packet asking for `qname`, as a replayed log holds
    /// it: no label stamped on it.
    fn auth_for(qname: Name, at: SimTime, direction: Direction) -> CapturedPacket {
        let query = Message::query(7, Question::a(qname));
        CapturedPacket {
            at,
            direction,
            peer: Ipv4Addr::new(9, 9, 9, 9),
            peer_port: 33_000,
            label: None,
            payload: Payload::from(query.encode().unwrap()),
        }
    }

    fn auth(label: ProbeLabel, at_ms: u64, direction: Direction) -> CapturedPacket {
        auth_for(label.qname(&zone()), ms(at_ms), direction)
    }

    fn join(records: &[ClassifiedR2], auth: &[CapturedPacket]) -> FlowSummary {
        FlowSummary::from_records(records, auth, &zone())
    }

    #[test]
    fn joins_all_four_packet_kinds() {
        let label = ProbeLabel::new(0, 1);
        let flows = join(
            &[r2(label, ms(0), ms(100), true)],
            &[
                auth(label, 40, Direction::Inbound),
                auth(label, 41, Direction::Outbound),
                auth(label, 55, Direction::Inbound), // duplicate Q2
                auth(label, 56, Direction::Outbound),
            ],
        );
        assert_eq!(flows.recursed_count(), 1);
        assert_eq!(flows.mean_q2_fanout(), 2.0);
        assert_eq!(
            flows.latency_quantile(0.5),
            Some(Duration::from_millis(100))
        );
        assert_eq!(flows.foreign_auth_packets, 0);
    }

    #[test]
    fn lost_r2_still_recurses_from_q2() {
        let flows = join(&[], &[auth(ProbeLabel::new(0, 2), 40, Direction::Inbound)]);
        assert_eq!(flows.recursed_count(), 1);
        assert_eq!(flows.latency_quantile(0.5), None);
    }

    #[test]
    fn non_recursing_responder_has_a_latency_and_no_fanout() {
        // Time zero is a real send time, and an R2 before its Q1 (a
        // hand-built fixture) saturates to zero.
        let flows = join(
            &[
                r2(ProbeLabel::new(0, 3), ms(0), ms(30), true),
                r2(ProbeLabel::new(0, 4), ms(9), ms(5), false),
            ],
            &[],
        );
        assert_eq!(flows.recursed_count(), 0);
        assert_eq!(flows.mean_q2_fanout(), 0.0);
        assert_eq!(flows.latency_quantile(0.0), Some(Duration::ZERO));
        assert_eq!(flows.latency_quantile(1.0), Some(Duration::from_millis(30)));
    }

    #[test]
    fn foreign_traffic_is_counted_and_joins_nothing() {
        let foreign = auth_for(
            "www.example.com".parse().unwrap(),
            SimTime::ZERO,
            Direction::Inbound,
        );
        let mut stray = r2(ProbeLabel::new(0, 5), ms(0), ms(1), false);
        stray.qname = "www.example.com".parse().unwrap();
        let flows = join(&[stray], &[foreign]);
        assert_eq!(flows.recursed_count(), 0);
        assert_eq!(flows.latency_quantile(0.5), None);
        assert_eq!(flows.foreign_auth_packets, 1);
    }

    #[test]
    fn latency_quantiles() {
        let flows = join(
            &[
                r2(ProbeLabel::new(0, 3), ms(0), ms(90), true),
                r2(ProbeLabel::new(0, 1), ms(0), ms(10), true),
                r2(ProbeLabel::new(0, 2), ms(0), ms(20), true),
            ],
            &[],
        );
        assert_eq!(flows.latency_quantile(0.0), Some(Duration::from_millis(10)));
        assert_eq!(flows.latency_quantile(1.0), Some(Duration::from_millis(90)));
        assert_eq!(flows.latency_quantile(0.5), Some(Duration::from_millis(20)));
    }

    /// NaN used to clamp through to index 0 and read as the fastest
    /// latency.
    #[test]
    fn non_finite_quantile_is_none() {
        let flows = join(
            &[
                r2(ProbeLabel::new(0, 1), ms(0), ms(10), true),
                r2(ProbeLabel::new(0, 2), ms(0), ms(20), true),
            ],
            &[],
        );
        for q in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(flows.latency_quantile(q), None, "q = {q}");
        }
        assert_eq!(flows.latency_quantile(7.0), Some(Duration::from_millis(20)));
    }

    /// The corners of the label space each land on their own bit, and
    /// a label seen on both sides of an absorb counts once.
    #[test]
    fn extreme_labels_count_once() {
        let top = CLUSTER_CAPACITY - 1;
        let labels = [(0, 0), (0, 63), (0, 64), (999, 0), (999, top), (0, top)]
            .map(|(cluster, seq)| ProbeLabel::new(cluster, seq));
        let mut left = FlowSummary::default();
        let mut right = FlowSummary::default();
        for (i, label) in labels.iter().enumerate() {
            left.fold_auth(&auth(*label, 1, Direction::Inbound), &zone());
            if i % 2 == 0 {
                right.fold_auth(&auth(*label, 2, Direction::Inbound), &zone());
            }
        }
        left.absorb(right);
        assert_eq!(left.recursed_count(), labels.len() as u64);
        assert_eq!(left.mean_q2_fanout(), 9.0 / 6.0);
    }

    /// A label the prober gave up on and handed to another target can
    /// reach the server from both: its Q2s all count toward the fan-out,
    /// the label recursed once, and only the R2 that was captured has a
    /// latency.
    #[test]
    fn a_recycled_label_recurses_once() {
        let label = ProbeLabel::new(3, 7);
        let flows = join(
            &[r2(label, ms(900), ms(950), true)],
            &[
                auth(label, 40, Direction::Inbound), // the abandoned probe's
                auth(label, 41, Direction::Outbound),
                auth(label, 910, Direction::Inbound), // the reissued one's
                auth(label, 911, Direction::Outbound),
            ],
        );
        assert_eq!(flows.recursed_count(), 1);
        assert_eq!(flows.mean_q2_fanout(), 2.0);
        assert_eq!(flows.latency_quantile(0.0), flows.latency_quantile(1.0));
        assert_eq!(flows.latency_quantile(0.5), Some(Duration::from_millis(50)));
    }

    /// Every stored latency, in storage order: the short list, then the
    /// long one.
    fn all_latencies(flows: &FlowSummary) -> Vec<u64> {
        let short = flows.latencies.iter().map(|&nanos| u64::from(nanos));
        short.chain(flows.long_latencies.iter().copied()).collect()
    }

    /// Latencies on both sides of 2^32 ns, split over 1-4 summaries
    /// absorbed in every order, have the quantiles of one sorted vector
    /// of `u64`s.
    #[test]
    fn latency_store_matches_a_sorted_vector() {
        const SPLIT: u64 = 1 << 32;
        orscope_check::cases(64, |rng| {
            let parts = rng.range(1..5);
            let mut summaries = vec![FlowSummary::default(); parts];
            let mut oracle = Vec::new();
            for seq in 0..rng.range(0..120u64) {
                let latency = match rng.range(0..4) {
                    0 => rng.range(SPLIT - 2..=SPLIT + 2),
                    1 => rng.range(SPLIT..1 << 40),
                    _ => rng.range(0..SPLIT),
                };
                let sent = SimTime::from_nanos(rng.range(0..1_000_000));
                let at = SimTime::from_nanos(sent.as_nanos() + latency);
                let rec = r2(ProbeLabel::new(0, seq), sent, at, true);
                summaries[rng.range(0..parts)].fold_r2(&rec, &zone());
                oracle.push(latency);
            }
            oracle.sort_unstable();
            for order in orders(parts) {
                let mut merged = summaries[order[0]].clone();
                for &next in &order[1..] {
                    merged.absorb(summaries[next].clone());
                }
                let flows = merged.finish();
                for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
                    let want = (!oracle.is_empty()).then(|| {
                        let idx = ((oracle.len() - 1) as f64 * q).round() as usize;
                        Duration::from_nanos(oracle[idx])
                    });
                    assert_eq!(flows.latency_quantile(q), want, "q {q}, order {order:?}");
                }
            }
        });
    }

    /// What the naive join keeps for one label.
    #[derive(Debug, Default)]
    struct NaiveFlow {
        latencies: Vec<u64>,
        q2_at: Vec<SimTime>,
        r1_at: Vec<SimTime>,
    }

    /// Every order of `0..parts`.
    pub(crate) fn orders(parts: usize) -> Vec<Vec<usize>> {
        if parts == 1 {
            return vec![vec![0]];
        }
        let mut out = Vec::new();
        for shorter in orders(parts - 1) {
            for at in 0..parts {
                let mut order = shorter.clone();
                order.insert(at, parts - 1);
                out.push(order);
            }
        }
        out
    }

    /// Any interleaving of R2/Q2/R1 folds (R1 before Q2, R2 first, last
    /// or never, fan-out from 0 into the seventies) and foreign packets,
    /// split over 1-4 summaries absorbed in every order, yields the
    /// figures a map of plain vectors gives — whether a packet arrives
    /// with its label stamped on it, as the capture point hands it
    /// over, or bare, as a replayed log does.
    #[test]
    fn join_matches_a_naive_map_of_vectors() {
        orscope_check::cases(64, |rng| {
            let parts = rng.range(1..5);
            let mut naive: BTreeMap<ProbeLabel, NaiveFlow> = BTreeMap::new();
            let mut naive_foreign = 0u64;
            let mut summaries = vec![FlowSummary::default(); parts];
            for _ in 0..rng.range(0..900) {
                let (kind, seq) = (rng.range(0u8..20), rng.range(0u64..12));
                // Squaring skews the labels: a few busy flows, some
                // nearly idle ones, and words past the first.
                let label = ProbeLabel::new((seq % 2) as u32, seq * seq * 2);
                // One capture in ten lands past 2^32 ns, where a latency
                // no longer fits the short list.
                let at = if rng.chance(10) {
                    SimTime::from_nanos(rng.range(0..1 << 34))
                } else {
                    SimTime::from_nanos(rng.range(0..1_000_000))
                };
                let stamped = rng.bool();
                let part = &mut summaries[rng.range(0..parts)];
                let direction = if kind <= 8 {
                    Direction::Inbound
                } else {
                    Direction::Outbound
                };
                match kind {
                    0 => {
                        let sent = SimTime::from_nanos(rng.range(0..1_000_000));
                        part.fold_r2(&r2(label, sent, at, stamped), &zone());
                        let latency = at.as_nanos().saturating_sub(sent.as_nanos());
                        naive.entry(label).or_default().latencies.push(latency);
                    }
                    1..=17 => {
                        let mut packet = auth(label, 0, direction);
                        packet.at = at;
                        packet.label = stamped.then_some(label);
                        part.fold_auth(&packet, &zone());
                        let flow = naive.entry(label).or_default();
                        match direction {
                            Direction::Inbound => flow.q2_at.push(at),
                            Direction::Outbound => flow.r1_at.push(at),
                        }
                    }
                    _ => {
                        // Not a probe name, under the zone or outside
                        // it: never stamped, counted, no flow.
                        let qname = if stamped {
                            "www.ucfsealresearch.net"
                        } else {
                            "example.com"
                        };
                        part.fold_auth(&auth_for(qname.parse().unwrap(), at, direction), &zone());
                        naive_foreign += 1;
                    }
                }
            }
            let recursed = naive.values().filter(|f| !f.q2_at.is_empty()).count() as u64;
            let q2: usize = naive.values().map(|f| f.q2_at.len()).sum();
            let mut latencies: Vec<u64> =
                naive.values().flat_map(|f| f.latencies.clone()).collect();
            latencies.sort_unstable();
            for order in orders(parts) {
                let mut merged = summaries[order[0]].clone();
                for &next in &order[1..] {
                    merged.absorb(summaries[next].clone());
                }
                let flows = merged.finish();
                assert_eq!(flows.foreign_auth_packets, naive_foreign);
                assert_eq!(flows.recursed_count(), recursed, "order {order:?}");
                let fanout = if recursed == 0 {
                    0.0
                } else {
                    q2 as f64 / recursed as f64
                };
                assert_eq!(flows.mean_q2_fanout(), fanout);
                assert_eq!(all_latencies(&flows), latencies, "order {order:?}");
                for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
                    let want = (!latencies.is_empty()).then(|| {
                        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
                        Duration::from_nanos(latencies[idx])
                    });
                    assert_eq!(flows.latency_quantile(q), want);
                }
            }
        });
    }
}
