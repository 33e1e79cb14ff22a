//! The prober-side capture: R2 packets and scan statistics.

pub use orscope_authns::capture::R2Capture;
use orscope_authns::capture::SharedSink;
use orscope_netsim::SimTime;
use orscope_telemetry::Histogram;

/// Aggregate scan statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Q1 packets sent.
    pub q1_sent: u64,
    /// R2 packets captured.
    pub r2_captured: u64,
    /// Responses dropped because their source port was not 53 — the
    /// ZMap blind spot the paper discusses in §V.
    pub off_port_dropped: u64,
    /// Responses whose qname matched no outstanding probe.
    pub unmatched: u64,
    /// Retransmitted Q1 probes (not counted in `q1_sent`).
    pub retransmits_sent: u64,
    /// Probes whose final transmission expired unanswered.
    pub probes_abandoned: u64,
    /// Fresh subdomains allocated.
    pub subdomains_fresh: u64,
    /// Subdomains served from the reuse pool.
    pub subdomains_reused: u64,
    /// Clusters touched.
    pub clusters_used: u32,
    /// Scan timer ticks.
    pub pacer_ticks: u64,
    /// Virtual-time Q1→R2 round trip of every captured response, in
    /// nanoseconds.
    pub q1_r2_latency_ns: Histogram,
    /// Virtual time the scan finished draining.
    pub finished_at: SimTime,
    /// Whether the scan has completed (all targets probed, all
    /// outstanding probes resolved or expired).
    pub done: bool,
}

impl ProbeStats {
    /// Folds another shard's statistics into this one: counters sum,
    /// `finished_at` takes the latest shard, and `done` holds only if
    /// every absorbed shard finished.
    pub fn absorb(&mut self, other: &ProbeStats) {
        self.q1_sent += other.q1_sent;
        self.r2_captured += other.r2_captured;
        self.off_port_dropped += other.off_port_dropped;
        self.unmatched += other.unmatched;
        self.retransmits_sent += other.retransmits_sent;
        self.probes_abandoned += other.probes_abandoned;
        self.subdomains_fresh += other.subdomains_fresh;
        self.subdomains_reused += other.subdomains_reused;
        self.clusters_used += other.clusters_used;
        self.pacer_ticks += other.pacer_ticks;
        self.q1_r2_latency_ns.absorb(&other.q1_r2_latency_ns);
        self.finished_at = self.finished_at.max(other.finished_at);
        self.done &= other.done;
    }

    /// Counts `capture` (one R2 and its Q1→R2 round trip) and hands it
    /// to `sink`, which alone keeps it: the book holds counts, never
    /// packets.
    pub(crate) fn capture(&mut self, capture: &R2Capture, sink: &SharedSink) {
        self.r2_captured += 1;
        let rtt = capture.at.since(capture.sent_at).as_nanos() as u64;
        self.q1_r2_latency_ns.record(rtt);
        sink.borrow_mut().on_r2(capture);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use orscope_authns::capture::{CapturedPacket, RecordSink};
    use orscope_authns::scheme::ProbeLabel;
    use orscope_netsim::Payload;
    use std::cell::RefCell;
    use std::net::Ipv4Addr;
    use std::rc::Rc;
    use std::time::Duration;

    /// A sink that logs every R2 it is handed.
    #[derive(Debug, Default)]
    pub(crate) struct Log(pub(crate) Vec<R2Capture>);

    impl RecordSink for Log {
        fn on_r2(&mut self, capture: &R2Capture) {
            self.0.push(capture.clone());
        }

        /// A prober has no server-side vantage point.
        fn on_auth(&mut self, _packet: &CapturedPacket) {}
    }

    fn capture(target: Ipv4Addr, payload: &[u8]) -> R2Capture {
        R2Capture {
            target,
            label: Some(ProbeLabel::new(0, 0)),
            qname: "x.example".parse().unwrap(),
            at: SimTime::ZERO + Duration::from_millis(20),
            sent_at: SimTime::ZERO,
            payload: Payload::from(payload.to_vec()),
        }
    }

    #[test]
    fn a_given_sink_receives_every_capture_and_the_handle_logs_nothing() {
        let log = Rc::<RefCell<Log>>::default();
        let sink: SharedSink = log.clone();
        let mut stats = ProbeStats::default();
        let sent = [
            capture(Ipv4Addr::new(1, 2, 3, 4), b"x"),
            capture(Ipv4Addr::new(5, 6, 7, 8), b"yz"),
        ];
        for r2 in &sent {
            stats.capture(r2, &sink);
        }
        let logged: Vec<_> = log.borrow().0.iter().map(|r2| r2.target).collect();
        assert_eq!(logged, [sent[0].target, sent[1].target]);
        assert_eq!(stats.r2_captured, 2, "statistics stay in the book");
        let latency = stats.q1_r2_latency_ns;
        assert_eq!(
            (latency.count, latency.min, latency.max),
            (2, 20_000_000, 20_000_000)
        );
        // The book keeps no packet: the same round trips from other
        // targets with other payloads leave the same book.
        let mut same = ProbeStats::default();
        let other = capture(Ipv4Addr::new(9, 9, 9, 9), b"other");
        for _ in 0..2 {
            same.capture(&other, &sink);
        }
        assert_eq!(same, stats);
    }

    #[test]
    fn absorb_sums_counters_and_tracks_latest_finish() {
        let mut a = ProbeStats {
            q1_sent: 10,
            r2_captured: 3,
            off_port_dropped: 1,
            unmatched: 2,
            retransmits_sent: 4,
            probes_abandoned: 5,
            subdomains_fresh: 8,
            subdomains_reused: 2,
            clusters_used: 1,
            pacer_ticks: 11,
            q1_r2_latency_ns: [5, 9, 40].into_iter().collect(),
            finished_at: SimTime::from_secs(5),
            done: true,
        };
        let b = ProbeStats {
            q1_sent: 7,
            r2_captured: 4,
            off_port_dropped: 0,
            unmatched: 1,
            retransmits_sent: 40,
            probes_abandoned: 50,
            subdomains_fresh: 6,
            subdomains_reused: 1,
            clusters_used: 2,
            pacer_ticks: 9,
            q1_r2_latency_ns: [1, 2, 3, 4].into_iter().collect(),
            finished_at: SimTime::from_secs(9),
            done: true,
        };
        a.absorb(&b);
        assert_eq!(a.q1_sent, 17);
        assert_eq!(a.r2_captured, 7);
        assert_eq!(a.off_port_dropped, 1);
        assert_eq!(a.unmatched, 3);
        assert_eq!(a.retransmits_sent, 44);
        assert_eq!(a.probes_abandoned, 55);
        assert_eq!(a.subdomains_fresh, 14);
        assert_eq!(a.subdomains_reused, 3);
        assert_eq!(a.clusters_used, 3);
        assert_eq!(a.pacer_ticks, 20);
        assert_eq!(
            a.q1_r2_latency_ns,
            [5, 9, 40, 1, 2, 3, 4].into_iter().collect()
        );
        assert_eq!(a.finished_at, SimTime::from_secs(9));
        assert!(a.done);

        let unfinished = ProbeStats::default();
        a.absorb(&unfinished);
        assert!(!a.done, "an unfinished shard makes the merge unfinished");
    }
}
