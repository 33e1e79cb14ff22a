//! The prober-side capture: R2 packets and scan statistics.

use std::net::Ipv4Addr;
use std::sync::Arc;

use bytes::Bytes;
use orscope_authns::scheme::ProbeLabel;
use orscope_dns_wire::Name;
use orscope_netsim::SimTime;
use parking_lot::Mutex;

/// One captured R2 packet, already joined to its probe by qname.
#[derive(Debug, Clone)]
pub struct R2Capture {
    /// The probed target that answered.
    pub target: Ipv4Addr,
    /// The probe label whose qname the response matched (`None` for the
    /// empty-question responses of §IV-B4, which are joined by source
    /// address instead).
    pub label: Option<ProbeLabel>,
    /// The full qname queried.
    pub qname: Name,
    /// Virtual receive time.
    pub at: SimTime,
    /// When the matching Q1 was sent.
    pub sent_at: SimTime,
    /// Raw response payload (kept raw: the analysis side re-decodes,
    /// including the malformed packets).
    pub payload: Bytes,
}

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
        self.finished_at = self.finished_at.max(other.finished_at);
        self.done &= other.done;
    }
}

/// A capture-time consumer of R2 packets (streaming analysis, record
/// bus). When at least one is installed, captures are handed to every
/// sink in installation order instead of buffering.
pub type R2Sink = Box<dyn FnMut(&R2Capture) + Send>;

#[derive(Default)]
pub(crate) struct Shared {
    pub(crate) captures: Vec<R2Capture>,
    pub(crate) stats: ProbeStats,
    /// Streaming sinks; empty means buffer into `captures`.
    pub(crate) sinks: Vec<R2Sink>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("captures", &self.captures)
            .field("stats", &self.stats)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Shared {
    /// Routes one captured R2 to every installed sink when streaming,
    /// or into the buffer otherwise.
    pub(crate) fn push_capture(&mut self, capture: R2Capture) {
        if self.sinks.is_empty() {
            self.captures.push(capture);
            return;
        }
        for sink in &mut self.sinks {
            sink(&capture);
        }
    }
}

/// A cloneable handle to the prober's capture buffer and statistics.
///
/// The campaign keeps one and reads results after the simulation drains;
/// the [`crate::Prober`] endpoint writes through its own clone.
#[derive(Debug, Clone, Default)]
pub struct ProberHandle {
    pub(crate) inner: Arc<Mutex<Shared>>,
}

impl ProberHandle {
    /// Creates an empty handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scan statistics so far.
    pub fn stats(&self) -> ProbeStats {
        self.inner.lock().stats
    }

    /// Number of captured R2 packets.
    pub fn r2_count(&self) -> usize {
        self.inner.lock().captures.len()
    }

    /// Clones out the captured responses.
    pub fn captures(&self) -> Vec<R2Capture> {
        self.inner.lock().captures.clone()
    }

    /// Takes the captured responses, leaving the buffer empty.
    pub fn drain(&self) -> Vec<R2Capture> {
        std::mem::take(&mut self.inner.lock().captures)
    }

    /// Installs an additional streaming sink: every capture from now on
    /// is handed to each installed sink (in installation order) at
    /// receive time instead of buffering, so payloads drop as soon as
    /// the last sink returns. Install before the scan starts;
    /// already-buffered captures stay buffered.
    pub fn add_sink(&self, sink: impl FnMut(&R2Capture) + Send + 'static) {
        self.inner.lock().sinks.push(Box::new(sink));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_shares_state() {
        let handle = ProberHandle::new();
        let clone = handle.clone();
        clone.inner.lock().stats.q1_sent = 5;
        clone.inner.lock().captures.push(R2Capture {
            target: Ipv4Addr::new(1, 2, 3, 4),
            label: Some(ProbeLabel::new(0, 0)),
            qname: "x.example".parse().unwrap(),
            at: SimTime::ZERO,
            sent_at: SimTime::ZERO,
            payload: Bytes::from_static(b"x"),
        });
        assert_eq!(handle.stats().q1_sent, 5);
        assert_eq!(handle.r2_count(), 1);
        assert_eq!(handle.drain().len(), 1);
        assert_eq!(handle.r2_count(), 0);
    }

    #[test]
    fn multiple_sinks_all_observe_every_capture() {
        let handle = ProberHandle::new();
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let (ca, cb) = (a.clone(), b.clone());
        handle.add_sink(move |_| *ca.lock() += 1);
        handle.add_sink(move |_| *cb.lock() += 1);
        handle.inner.lock().push_capture(R2Capture {
            target: Ipv4Addr::new(1, 2, 3, 4),
            label: Some(ProbeLabel::new(0, 0)),
            qname: "x.example".parse().unwrap(),
            at: SimTime::ZERO,
            sent_at: SimTime::ZERO,
            payload: Bytes::from_static(b"x"),
        });
        assert_eq!(handle.r2_count(), 0, "sink mode must not buffer");
        assert_eq!(*a.lock(), 1);
        assert_eq!(*b.lock(), 1);
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
        assert_eq!(a.finished_at, SimTime::from_secs(9));
        assert!(a.done);

        let unfinished = ProbeStats::default();
        a.absorb(&unfinished);
        assert!(!a.done, "an unfinished shard makes the merge unfinished");
    }
}
