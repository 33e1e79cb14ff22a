//! Subdomain generation with cluster rollover and reuse (§III-B).

use std::collections::VecDeque;

use orscope_authns::scheme::ProbeLabel;

/// Allocates unique probe subdomains, reusing names whose probes went
/// unanswered.
///
/// # Example
///
/// ```
/// use orscope_prober::SubdomainGenerator;
///
/// let mut gen = SubdomainGenerator::new(1000);
/// let first = gen.next_label();
/// assert_eq!(first.to_string(), "or000.0000000");
/// // The probe for `first` got no response: recycle it.
/// gen.recycle(first);
/// assert_eq!(gen.next_label(), first, "recycled before fresh allocation");
/// assert_eq!(gen.reused(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SubdomainGenerator {
    cluster: u32,
    next_seq: u64,
    cluster_capacity: u64,
    /// First cluster this generator may allocate from. Sharded scans
    /// give each shard a disjoint cluster range so merged capture logs
    /// keep globally unique qnames.
    base_cluster: u32,
    reuse_pool: VecDeque<ProbeLabel>,
    fresh: u64,
    reused: u64,
}

impl SubdomainGenerator {
    /// Creates a generator with `cluster_capacity` names per cluster
    /// (the paper's server held five million).
    ///
    /// # Panics
    ///
    /// Panics if `cluster_capacity` is zero or exceeds the scheme's
    /// seven-digit sequence space.
    pub fn new(cluster_capacity: u64) -> Self {
        Self::with_base(cluster_capacity, 0)
    }

    /// Creates a generator allocating from cluster `base_cluster`
    /// upward; [`Self::clusters_used`] counts relative to the base.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_capacity` is out of range (as
    /// [`SubdomainGenerator::new`]) or `base_cluster` exceeds the
    /// scheme's three-digit cluster space.
    pub(crate) fn with_base(cluster_capacity: u64, base_cluster: u32) -> Self {
        assert!(
            (1..=orscope_authns::scheme::CLUSTER_CAPACITY).contains(&cluster_capacity),
            "cluster capacity {cluster_capacity} out of range"
        );
        assert!(
            base_cluster <= 999,
            "base cluster {base_cluster} out of range"
        );
        Self {
            cluster: base_cluster,
            next_seq: 0,
            cluster_capacity,
            base_cluster,
            reuse_pool: VecDeque::new(),
            fresh: 0,
            reused: 0,
        }
    }

    /// The next label: a recycled one if available, otherwise fresh
    /// (rolling to the next cluster when the current one is exhausted).
    ///
    /// # Panics
    ///
    /// Panics if all 1,000 clusters are exhausted (5 billion names —
    /// unreachable for any IPv4 scan with reuse enabled).
    pub fn next_label(&mut self) -> ProbeLabel {
        if let Some(label) = self.reuse_pool.pop_front() {
            self.reused += 1;
            return label;
        }
        if self.next_seq == self.cluster_capacity {
            self.cluster += 1;
            self.next_seq = 0;
            assert!(self.cluster <= 999, "subdomain space exhausted");
        }
        let label = ProbeLabel::new(self.cluster, self.next_seq);
        self.next_seq += 1;
        self.fresh += 1;
        label
    }

    /// Returns an unanswered label to the pool for reuse.
    pub fn recycle(&mut self, label: ProbeLabel) {
        self.reuse_pool.push_back(label);
    }

    /// Fresh labels allocated so far.
    pub fn fresh(&self) -> u64 {
        self.fresh
    }

    /// Labels served from the reuse pool.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Clusters touched so far, counted from the base cluster (the
    /// paper's scan needed 4, not 800).
    pub fn clusters_used(&self) -> u32 {
        if self.fresh == 0 {
            0
        } else {
            self.cluster - self.base_cluster + 1
        }
    }

    /// First cluster this generator allocates from.
    pub fn base_cluster(&self) -> u32 {
        self.base_cluster
    }

    /// Current cluster number.
    pub fn cluster(&self) -> u32 {
        self.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SubdomainGenerator {
        /// Labels currently waiting for reuse.
        fn reuse_pool_len(&self) -> usize {
            self.reuse_pool.len()
        }
    }

    #[test]
    fn sequential_fresh_allocation() {
        let mut gen = SubdomainGenerator::new(10);
        let labels: Vec<String> = (0..3).map(|_| gen.next_label().to_string()).collect();
        assert_eq!(
            labels,
            vec!["or000.0000000", "or000.0000001", "or000.0000002"]
        );
        assert_eq!(gen.fresh(), 3);
        assert_eq!(gen.clusters_used(), 1);
    }

    #[test]
    fn cluster_rollover_at_capacity() {
        let mut gen = SubdomainGenerator::new(3);
        for _ in 0..3 {
            gen.next_label();
        }
        let label = gen.next_label();
        assert_eq!(label, ProbeLabel::new(1, 0));
        assert_eq!(gen.clusters_used(), 2);
    }

    #[test]
    fn reuse_prevents_rollover() {
        // With full recycling, a scan of any size stays in one cluster.
        let mut gen = SubdomainGenerator::new(5);
        for _ in 0..100 {
            let label = gen.next_label();
            gen.recycle(label);
        }
        assert_eq!(gen.clusters_used(), 1);
        assert_eq!(gen.fresh(), 1);
        assert_eq!(gen.reused(), 99);
    }

    #[test]
    fn paper_scale_arithmetic() {
        // 16.6M responders + one cluster of in-flight names ~= 4 clusters
        // of 5M: verify the mechanism at 1:1000 scale (16,600 responders,
        // 5,000-name clusters).
        let mut gen = SubdomainGenerator::new(5_000);
        let mut responded = 0u64;
        for i in 0..3_700_000u64 / 1_000 {
            let label = gen.next_label();
            // ~0.45% of probes respond (16.6M / 3.7B); the rest recycle.
            if i % 222 == 0 {
                responded += 1;
            } else {
                gen.recycle(label);
            }
        }
        assert!(responded > 16_000 / 1_000);
        assert!(
            gen.clusters_used() <= 5,
            "reuse failed: {} clusters",
            gen.clusters_used()
        );
    }

    #[test]
    fn fifo_reuse_order() {
        let mut gen = SubdomainGenerator::new(10);
        let a = gen.next_label();
        let b = gen.next_label();
        gen.recycle(a);
        gen.recycle(b);
        assert_eq!(gen.next_label(), a);
        assert_eq!(gen.next_label(), b);
        assert_eq!(gen.reuse_pool_len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_capacity_rejected() {
        let _ = SubdomainGenerator::new(0);
    }

    #[test]
    fn base_cluster_offsets_allocation() {
        let mut gen = SubdomainGenerator::with_base(10, 250);
        assert_eq!(gen.base_cluster(), 250);
        assert_eq!(gen.clusters_used(), 0);
        assert_eq!(gen.next_label().to_string(), "or250.0000000");
        assert_eq!(gen.clusters_used(), 1);
    }

    #[test]
    fn clusters_used_counts_from_base() {
        let mut gen = SubdomainGenerator::with_base(3, 500);
        for _ in 0..4 {
            gen.next_label();
        }
        assert_eq!(gen.cluster(), 501);
        assert_eq!(gen.clusters_used(), 2);
    }

    #[test]
    #[should_panic(expected = "base cluster 1000 out of range")]
    fn overflowing_base_cluster_rejected() {
        let _ = SubdomainGenerator::with_base(10, 1000);
    }

    #[test]
    fn disjoint_bases_never_collide() {
        // Two shards with bases 0 and 500 allocate disjoint qnames.
        let mut a = SubdomainGenerator::with_base(5, 0);
        let mut b = SubdomainGenerator::with_base(5, 500);
        let from_a: Vec<String> = (0..12).map(|_| a.next_label().to_string()).collect();
        let from_b: Vec<String> = (0..12).map(|_| b.next_label().to_string()).collect();
        for label in &from_a {
            assert!(!from_b.contains(label), "collision at {label}");
        }
    }
}
