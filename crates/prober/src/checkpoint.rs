//! Scan checkpointing: suspend a long-running scan and resume it later.
//!
//! The paper's 2013 scan ran for seven days; any operational rerun of it
//! needs to survive prober restarts. A [`ScanCheckpoint`] captures the
//! prober's cursor — the next target index, the subdomain generator
//! state, and the reuse pool — as a small JSON document. Outstanding
//! (in-flight) probes are *not* carried over: their subdomains return to
//! the reuse pool on resume and the targets are re-probed, which only
//! re-sends a response-window's worth of Q1.

use orscope_authns::scheme::ProbeLabel;
use orscope_json::Wire;

use crate::scan::Prober;
use crate::subdomain::SubdomainGenerator;

/// A serializable snapshot of scan progress.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// The cursor as a JSON value: one member per field, sorted by
    /// name, `reuse_pool` as `[cluster, seq]` pairs.
    pub fn to_json(&self) -> Wire {
        let reuse_pool = self
            .reuse_pool
            .iter()
            .map(|&(cluster, seq)| Wire::Arr(vec![Wire::from(cluster), Wire::from(seq)]))
            .collect();
        Wire::obj(vec![
            ("cluster", Wire::from(self.cluster)),
            ("cluster_capacity", Wire::from(self.cluster_capacity)),
            ("fresh", Wire::from(self.fresh)),
            ("next_seq", Wire::from(self.next_seq)),
            ("next_target", Wire::from(self.next_target)),
            ("q1_sent", Wire::from(self.q1_sent)),
            ("r2_captured", Wire::from(self.r2_captured)),
            ("reuse_pool", Wire::Arr(reuse_pool)),
            ("reused", Wire::from(self.reused)),
        ])
    }

    /// The cursor as pretty JSON text, suitable for writing to a
    /// checkpoint file.
    pub fn to_json_string(&self) -> String {
        self.to_json().encode_pretty()
    }

    /// Loads from a JSON value.
    ///
    /// # Errors
    ///
    /// Names the first member that is missing, mistyped or out of its
    /// field's range.
    pub fn from_json(value: &Wire) -> Result<Self, String> {
        let pair = |pair: &Wire| match pair.as_arr()? {
            [cluster, seq] => Ok((cluster.as_uint()?, seq.as_u64()?)),
            _ => Err(format!("expected a [cluster, seq] pair, got {pair:?}")),
        };
        let reuse_pool =
            |pool: &Wire| -> Result<_, String> { pool.as_arr()?.iter().map(pair).collect() };
        Ok(Self {
            next_target: value.field_as("next_target", Wire::as_uint)?,
            cluster: value.field_as("cluster", Wire::as_uint)?,
            next_seq: value.field_as("next_seq", Wire::as_u64)?,
            cluster_capacity: value.field_as("cluster_capacity", Wire::as_u64)?,
            reuse_pool: value.field_as("reuse_pool", reuse_pool)?,
            fresh: value.field_as("fresh", Wire::as_u64)?,
            reused: value.field_as("reused", Wire::as_u64)?,
            q1_sent: value.field_as("q1_sent", Wire::as_u64)?,
            r2_captured: value.field_as("r2_captured", Wire::as_u64)?,
        })
    }

    /// Loads from JSON text (a checkpoint file's contents).
    ///
    /// # Errors
    ///
    /// The syntax error, or what [`Self::from_json`] rejects.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        Self::from_json(&Wire::decode(text)?)
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
        assert_eq!(ScanCheckpoint::from_json(&cp.to_json()).unwrap(), cp);
        assert_eq!(
            ScanCheckpoint::from_json_str(&cp.to_json_string()).unwrap(),
            cp
        );
        assert_eq!(
            cp.to_json().encode(),
            r#"{"cluster":2,"cluster_capacity":5000,"fresh":10000,"next_seq":99,"next_target":12345,"q1_sent":12000,"r2_captured":40,"reuse_pool":[[0,7],[1,8]],"reused":2000}"#
        );
    }

    #[test]
    fn malformed_cursors_are_named_errors() {
        let load = ScanCheckpoint::from_json_str;
        assert!(load(r#"{"nope": 1}"#).unwrap_err().contains("missing"));
        assert!(load("[").is_err());
        let good = r#"{"cluster":2,"cluster_capacity":5,"fresh":1,"next_seq":9,"next_target":1,"q1_sent":1,"r2_captured":0,"reuse_pool":[[0,7]],"reused":2}"#;
        assert!(load(good).is_ok());
        for (from, to, needle) in [
            (r#""cluster":2"#, r#""cluster":4294967296"#, "cluster"),
            (r#""fresh":1"#, r#""fresh":-1"#, "fresh"),
            (r#""fresh":1"#, r#""fresh":1.5"#, "fresh"),
            ("[[0,7]]", "[[0,7,1]]", "reuse_pool"),
            ("[[0,7]]", "[[0]]", "reuse_pool"),
            ("[[0,7]]", "[7]", "reuse_pool"),
            ("[[0,7]]", r#"[["0",7]]"#, "reuse_pool"),
        ] {
            let err = load(&good.replace(from, to)).unwrap_err();
            assert!(err.contains(needle), "{to}: {err}");
        }
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
