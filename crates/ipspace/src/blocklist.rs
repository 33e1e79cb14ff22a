//! Efficient membership tests over sets of CIDR blocks.

use crate::cidr::Cidr;
use crate::reserved;

/// A set of CIDR blocks supporting O(log n) membership queries.
///
/// Internally the blocks are merged into disjoint, sorted `[first, last]`
/// ranges, so overlapping or adjacent input blocks are coalesced.
///
/// # Example
///
/// ```
/// use orscope_ipspace::{Blocklist, Cidr};
/// use std::net::Ipv4Addr;
///
/// let list: Blocklist = ["10.0.0.0/8", "192.168.0.0/16"]
///     .iter()
///     .map(|s| s.parse::<Cidr>())
///     .collect::<Result<_, _>>()?;
/// assert!(list.contains(u32::from(Ipv4Addr::new(10, 200, 0, 1))));
/// assert!(!list.contains(u32::from(Ipv4Addr::new(11, 0, 0, 1))));
/// # Ok::<(), orscope_ipspace::ParseCidrError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Blocklist {
    /// Disjoint inclusive ranges, sorted by start.
    ranges: Vec<(u32, u32)>,
}

impl Blocklist {
    /// Creates an empty blocklist.
    pub fn new() -> Self {
        Self::default()
    }

    /// The blocklist of Table I: every RFC-reserved block excluded from
    /// Internet-wide probing.
    pub fn reserved() -> Self {
        reserved::blocks().iter().map(|b| b.cidr).collect()
    }

    /// Adds a block, merging it with overlapping or adjacent ranges.
    pub fn insert(&mut self, block: Cidr) {
        let (mut first, mut last) = (block.first(), block.last());
        let mut merged = Vec::with_capacity(self.ranges.len() + 1);
        for &(s, e) in &self.ranges {
            // Overlapping or directly adjacent (saturating: u32::MAX + 1
            // clamps, which only ever widens the adjacency test at the top
            // of the space where nothing lies beyond anyway).
            if s <= last.saturating_add(1) && first <= e.saturating_add(1) {
                first = first.min(s);
                last = last.max(e);
            } else {
                merged.push((s, e));
            }
        }
        merged.push((first, last));
        merged.sort_unstable();
        self.ranges = merged;
    }

    /// Whether the raw address is covered by any block.
    pub fn contains(&self, addr: u32) -> bool {
        match self.ranges.binary_search_by(|&(s, _)| s.cmp(&addr)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => addr <= self.ranges[i - 1].1,
        }
    }

    /// Total number of addresses covered.
    pub fn covered(&self) -> u64 {
        self.ranges
            .iter()
            .map(|&(s, e)| (e as u64) - (s as u64) + 1)
            .sum()
    }

    /// Number of disjoint ranges after merging.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// The disjoint ranges, ascending by start, each inclusive.
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }
}

impl FromIterator<Cidr> for Blocklist {
    fn from_iter<I: IntoIterator<Item = Cidr>>(iter: I) -> Self {
        let mut list = Blocklist::new();
        for block in iter {
            list.insert(block);
        }
        list
    }
}

impl Extend<Cidr> for Blocklist {
    fn extend<I: IntoIterator<Item = Cidr>>(&mut self, iter: I) {
        for block in iter {
            self.insert(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    impl Blocklist {
        /// Whether the address is covered by any block.
        fn contains_addr(&self, addr: Ipv4Addr) -> bool {
            self.contains(u32::from(addr))
        }
    }

    fn cidr(s: &str) -> Cidr {
        s.parse().unwrap()
    }

    #[test]
    fn empty_contains_nothing() {
        let list = Blocklist::new();
        assert!(!list.contains(0));
        assert!(!list.contains(u32::MAX));
        assert_eq!(list.covered(), 0);
    }

    #[test]
    fn single_block() {
        let mut list = Blocklist::new();
        list.insert(cidr("10.0.0.0/8"));
        assert!(list.contains_addr(Ipv4Addr::new(10, 0, 0, 0)));
        assert!(list.contains_addr(Ipv4Addr::new(10, 255, 255, 255)));
        assert!(!list.contains_addr(Ipv4Addr::new(9, 255, 255, 255)));
        assert!(!list.contains_addr(Ipv4Addr::new(11, 0, 0, 0)));
        assert_eq!(list.covered(), 1 << 24);
    }

    #[test]
    fn merges_overlapping_blocks() {
        let mut list = Blocklist::new();
        list.insert(cidr("10.0.0.0/9"));
        list.insert(cidr("10.0.0.0/8"));
        assert_eq!(list.range_count(), 1);
        assert_eq!(list.covered(), 1 << 24);
    }

    #[test]
    fn merges_adjacent_blocks() {
        let mut list = Blocklist::new();
        list.insert(cidr("10.0.0.0/9"));
        list.insert(cidr("10.128.0.0/9"));
        assert_eq!(list.range_count(), 1);
        assert_eq!(list.covered(), 1 << 24);
    }

    #[test]
    fn keeps_disjoint_blocks_separate() {
        let mut list = Blocklist::new();
        list.insert(cidr("10.0.0.0/8"));
        list.insert(cidr("192.168.0.0/16"));
        assert_eq!(list.range_count(), 2);
        assert_eq!(list.covered(), (1 << 24) + (1 << 16));
    }

    #[test]
    fn reserved_blocklist_matches_table_1() {
        let list = Blocklist::reserved();
        assert_eq!(list.covered(), 592_708_864);
        // 224.0.0.0/4, 240.0.0.0/4 and 255.255.255.255/32 merge into one
        // range, so the sixteen blocks collapse to fewer ranges.
        assert!(list.range_count() <= 14);
        assert!(list.contains_addr(Ipv4Addr::new(127, 0, 0, 1)));
        assert!(list.contains_addr(Ipv4Addr::new(255, 255, 255, 255)));
        assert!(!list.contains_addr(Ipv4Addr::new(8, 8, 4, 4)));
    }

    #[test]
    fn insert_at_space_boundaries() {
        let mut list = Blocklist::new();
        list.insert(cidr("0.0.0.0/8"));
        list.insert(cidr("255.255.255.255/32"));
        assert!(list.contains(0));
        assert!(list.contains(u32::MAX));
        assert!(!list.contains(u32::MAX - 1));
    }

    #[test]
    fn collect_from_iterator() {
        let list: Blocklist = ["10.0.0.0/8", "172.16.0.0/12"]
            .iter()
            .map(|s| cidr(s))
            .collect();
        assert_eq!(list.covered(), (1 << 24) + (1 << 20));
    }

    #[test]
    fn extend_merges() {
        let mut list = Blocklist::new();
        list.extend([cidr("10.0.0.0/9"), cidr("10.128.0.0/9")]);
        assert_eq!(list.range_count(), 1);
    }
}
