//! The prober-side capture: R2 packets and scan statistics.

use std::cell::RefCell;
use std::rc::Rc;

pub use orscope_authns::capture::R2Capture;
use orscope_authns::capture::{CapturedPacket, RecordSink, SharedSink};
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
}

/// What a standalone [`ProberHandle`] holds: the scan statistics and
/// the R2 log.
#[derive(Debug, Default)]
pub(crate) struct Shared {
    pub(crate) captures: Vec<R2Capture>,
    pub(crate) stats: ProbeStats,
}

impl RecordSink for Shared {
    fn on_r2(&mut self, capture: &R2Capture) {
        self.captures.push(capture.clone());
    }

    /// A prober has no server-side vantage point.
    fn on_auth(&mut self, _packet: &CapturedPacket) {}
}

/// The prober's capture point: a cloneable handle to the scan statistics
/// and the one sink every R2 is handed to.
///
/// [`ProberHandle::new`] logs captures into the handle itself, to be
/// read back after the simulation drains; [`ProberHandle::with_sink`]
/// feeds a caller's [`RecordSink`] instead and leaves the handle's log
/// empty. Statistics are kept in the handle either way.
#[derive(Debug, Clone)]
pub struct ProberHandle {
    pub(crate) inner: Rc<RefCell<Shared>>,
    pub(crate) sink: SharedSink,
}

impl Default for ProberHandle {
    fn default() -> Self {
        let inner = Rc::<RefCell<Shared>>::default();
        Self {
            sink: inner.clone(),
            inner,
        }
    }
}

impl ProberHandle {
    /// Creates a handle that logs captures into itself.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a handle that hands every capture to `sink`.
    pub fn with_sink(sink: SharedSink) -> Self {
        Self {
            inner: Rc::default(),
            sink,
        }
    }

    /// Scan statistics so far.
    pub fn stats(&self) -> ProbeStats {
        self.inner.borrow().stats
    }

    /// Clones out the logged responses.
    pub fn captures(&self) -> Vec<R2Capture> {
        self.inner.borrow().captures.clone()
    }

    /// Takes the logged responses, leaving the log empty.
    pub fn drain(&self) -> Vec<R2Capture> {
        std::mem::take(&mut self.inner.borrow_mut().captures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orscope_authns::scheme::ProbeLabel;
    use orscope_netsim::Payload;
    use std::net::Ipv4Addr;

    impl ProberHandle {
        /// Number of logged R2 packets.
        fn r2_count(&self) -> usize {
            self.inner.borrow().captures.len()
        }
    }

    fn capture() -> R2Capture {
        R2Capture {
            target: Ipv4Addr::new(1, 2, 3, 4),
            label: Some(ProbeLabel::new(0, 0)),
            qname: "x.example".parse().unwrap(),
            at: SimTime::ZERO,
            sent_at: SimTime::ZERO,
            payload: Payload::from(b"x".to_vec()),
        }
    }

    #[test]
    fn handle_shares_state() {
        let handle = ProberHandle::new();
        let clone = handle.clone();
        clone.inner.borrow_mut().stats.q1_sent = 5;
        clone.sink.borrow_mut().on_r2(&capture());
        assert_eq!(handle.stats().q1_sent, 5);
        assert_eq!(handle.r2_count(), 1);
        assert_eq!(handle.drain().len(), 1);
        assert_eq!(handle.r2_count(), 0);
    }

    #[test]
    fn a_given_sink_receives_every_capture_and_the_handle_logs_nothing() {
        let sunk = ProberHandle::new();
        let handle = ProberHandle::with_sink(sunk.sink.clone());
        handle.inner.borrow_mut().stats.q1_sent = 2;
        handle.sink.borrow_mut().on_r2(&capture());
        assert_eq!(handle.r2_count(), 0);
        assert_eq!(handle.stats().q1_sent, 2, "statistics stay in the handle");
        assert_eq!(sunk.r2_count(), 1);
        assert_eq!(sunk.stats().q1_sent, 0);
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
