//! The assembled measurement dataset for one scan.

use orscope_prober::{ProbeStats, R2Capture};
use orscope_resolver::paper::Year;

use crate::classify::{classify, ClassifiedR2};

/// Everything one campaign produced, classified and ready for the table
/// generators.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which paper scan this models.
    pub year: Year,
    /// The scale the campaign ran at (1.0 = full Internet).
    pub scale: f64,
    /// Q1 probes sent.
    pub q1: u64,
    /// Q2 packets captured at the authoritative server.
    pub q2: u64,
    /// R1 packets captured at the authoritative server.
    pub r1: u64,
    /// Scan duration in (virtual) seconds, including zone-load time.
    pub duration_secs: f64,
    /// All classified R2 packets (matched and empty-question alike).
    /// Empty in streaming mode, where per-table accumulators replace
    /// the record buffer.
    pub records: Vec<ClassifiedR2>,
    /// Raw captures, retained only when requested (pcap export,
    /// re-analysis) via [`Dataset::attach_raw`]; empty otherwise.
    pub raw: Vec<R2Capture>,
    /// Total classified R2 packets. Tracks `records.len()` in batch
    /// mode; carries the streamed count when `records` is empty.
    pub(crate) r2_total: u64,
    /// Responses dropped by the port-53 blind spot.
    pub off_port_dropped: u64,
    /// Prober-side scan statistics.
    pub probe_stats: ProbeStats,
}

impl Dataset {
    /// Builds a dataset by classifying raw captures.
    #[allow(clippy::too_many_arguments)]
    pub fn from_captures(
        year: Year,
        scale: f64,
        q1: u64,
        q2: u64,
        r1: u64,
        duration_secs: f64,
        captures: &[R2Capture],
        probe_stats: ProbeStats,
    ) -> Self {
        let records: Vec<ClassifiedR2> = captures.iter().filter_map(classify).collect();
        let r2_total = records.len() as u64;
        Self {
            year,
            scale,
            q1,
            q2,
            r1,
            duration_secs,
            records,
            raw: Vec::new(),
            r2_total,
            off_port_dropped: probe_stats.off_port_dropped,
            probe_stats,
        }
    }

    /// Attaches raw captures for pcap export or re-analysis. The
    /// classified records already carry everything the tables need, so
    /// raw payloads are dropped by default and retained only on request.
    pub fn attach_raw(&mut self, mut captures: Vec<R2Capture>) {
        sort_captures(&mut captures);
        self.raw = captures;
    }

    /// Overrides the classified-R2 total (streaming mode, where the
    /// count lives in the accumulators rather than in `records`).
    pub fn set_r2_total(&mut self, r2_total: u64) {
        self.r2_total = r2_total;
    }

    /// Total R2 packets.
    pub fn r2(&self) -> u64 {
        self.r2_total
    }

    /// The packets with a question section (the 6,505,764 of 2018).
    pub fn matched(&self) -> impl Iterator<Item = &ClassifiedR2> {
        self.records.iter().filter(|r| r.has_question)
    }

    /// The §IV-B4 packets without a question section.
    pub fn empty_question(&self) -> impl Iterator<Item = &ClassifiedR2> {
        self.records.iter().filter(|r| !r.has_question)
    }

    /// De-scales a measured count back to paper scale for comparison.
    pub fn descale(&self, measured: u64) -> u64 {
        (measured as f64 * self.scale).round() as u64
    }

    /// Merges per-shard datasets into one, independent of shard order.
    ///
    /// Counters sum and `duration_secs` takes the slowest shard (shards
    /// run concurrently). Records (and raw captures, when retained) are
    /// re-sorted into a canonical order — by qname (canonical DNS name
    /// ordering over the wire bytes, no per-capture allocation), then
    /// receive time, then resolver — so any permutation of the same
    /// shards produces an identical dataset. Sharded probers draw
    /// qnames from disjoint cluster ranges, which keeps the sort key
    /// unambiguous across shards.
    ///
    /// # Examples
    ///
    /// Merging the same two shards in either order produces an
    /// identical dataset:
    ///
    /// ```
    /// use orscope_analysis::Dataset;
    /// use orscope_prober::ProbeStats;
    /// use orscope_resolver::paper::Year;
    ///
    /// let shard = |q1, q2| {
    ///     Dataset::from_captures(Year::Y2018, 1000.0, q1, q2, q2, 60.0, &[], ProbeStats::default())
    /// };
    /// let ab = Dataset::merge(vec![shard(5, 3), shard(7, 4)]);
    /// let ba = Dataset::merge(vec![shard(7, 4), shard(5, 3)]);
    /// assert_eq!(ab.q1, 12);
    /// assert_eq!((ab.q1, ab.q2, ab.r1), (ba.q1, ba.q2, ba.r1));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or the shards disagree on year/scale.
    pub fn merge(shards: Vec<Dataset>) -> Dataset {
        let mut iter = shards.into_iter();
        let mut merged = iter.next().expect("merge requires at least one shard");
        for shard in iter {
            assert_eq!(shard.year, merged.year, "shards from different years");
            assert!(
                (shard.scale - merged.scale).abs() < f64::EPSILON,
                "shards from different scales"
            );
            merged.q1 += shard.q1;
            merged.q2 += shard.q2;
            merged.r1 += shard.r1;
            merged.duration_secs = merged.duration_secs.max(shard.duration_secs);
            merged.off_port_dropped += shard.off_port_dropped;
            merged.probe_stats.absorb(&shard.probe_stats);
            merged.r2_total += shard.r2_total;
            merged.records.extend(shard.records);
            merged.raw.extend(shard.raw);
        }
        merged
            .records
            .sort_by(|a, b| (&a.qname, a.at, a.resolver).cmp(&(&b.qname, b.at, b.resolver)));
        sort_captures(&mut merged.raw);
        merged
    }
}

/// Sorts raw captures into the canonical merge order (qname wire
/// ordering, receive time, target) without allocating per-capture keys.
fn sort_captures(captures: &mut [R2Capture]) {
    captures.sort_by(|a, b| (&a.qname, a.at, a.target).cmp(&(&b.qname, b.at, b.target)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use orscope_authns::scheme::ProbeLabel;
    use orscope_dns_wire::{Message, Name, Question};
    use orscope_netsim::{Payload, SimTime};
    use std::net::Ipv4Addr;

    fn capture(label: ProbeLabel, empty_question: bool) -> R2Capture {
        let zone: Name = "ucfsealresearch.net".parse().unwrap();
        let query = Message::query(1, Question::a(label.qname(&zone)));
        let mut resp = Message::builder().response_to(&query).build();
        if empty_question {
            resp.clear_questions();
        }
        R2Capture {
            target: Ipv4Addr::new(9, 9, 9, 9),
            label: (!empty_question).then_some(label),
            qname: label.qname(&zone),
            at: SimTime::from_secs(1),
            sent_at: SimTime::ZERO,
            payload: Payload::from(resp.encode().unwrap()),
        }
    }

    #[test]
    fn splits_matched_and_empty_question() {
        let captures = vec![
            capture(ProbeLabel::new(0, 1), false),
            capture(ProbeLabel::new(0, 2), true),
            capture(ProbeLabel::new(0, 3), false),
        ];
        let ds = Dataset::from_captures(
            Year::Y2018,
            1000.0,
            100,
            10,
            10,
            60.0,
            &captures,
            ProbeStats::default(),
        );
        assert_eq!(ds.r2(), 3);
        assert_eq!(ds.matched().count(), 2);
        assert_eq!(ds.empty_question().count(), 1);
        assert_eq!(ds.descale(3), 3000);
    }

    fn shard(cluster: u32, n: u64, duration_secs: f64) -> Dataset {
        let captures: Vec<R2Capture> = (0..n)
            .map(|i| capture(ProbeLabel::new(cluster, i), false))
            .collect();
        let stats = ProbeStats {
            q1_sent: n * 2,
            r2_captured: n,
            done: true,
            ..ProbeStats::default()
        };
        Dataset::from_captures(
            Year::Y2018,
            1000.0,
            n * 2,
            n,
            n,
            duration_secs,
            &captures,
            stats,
        )
    }

    #[test]
    fn merge_sums_counts_and_takes_slowest_duration() {
        let merged = Dataset::merge(vec![
            shard(0, 3, 60.0),
            shard(1, 2, 90.0),
            shard(2, 4, 30.0),
        ]);
        assert_eq!(merged.q1, 18);
        assert_eq!(merged.q2, 9);
        assert_eq!(merged.r1, 9);
        assert_eq!(merged.r2(), 9);
        assert_eq!(merged.duration_secs, 90.0);
        assert_eq!(merged.probe_stats.q1_sent, 18);
        assert!(merged.probe_stats.done);
    }

    #[test]
    fn merge_is_order_insensitive() {
        let shards = || vec![shard(0, 3, 60.0), shard(1, 2, 90.0), shard(2, 4, 30.0)];
        let forward = Dataset::merge(shards());
        let mut reversed = shards();
        reversed.reverse();
        let backward = Dataset::merge(reversed);
        let key = |ds: &Dataset| -> Vec<(String, Ipv4Addr)> {
            ds.records
                .iter()
                .map(|r| (r.qname.to_string(), r.resolver))
                .collect()
        };
        assert_eq!(key(&forward), key(&backward));
        assert_eq!(forward.records.len(), backward.records.len());
        assert_eq!(forward.q1, backward.q1);
        assert_eq!(forward.duration_secs, backward.duration_secs);
    }

    #[test]
    fn merge_of_single_shard_is_identity() {
        let ds = shard(0, 3, 60.0);
        let merged = Dataset::merge(vec![ds.clone()]);
        assert_eq!(merged.q1, ds.q1);
        assert_eq!(merged.r2(), ds.r2());
        assert_eq!(merged.duration_secs, ds.duration_secs);
    }
}
