//! The complement of a blocklist: rank <-> address mapping over the
//! allowed (probeable) address space.
//!
//! Scaled-down campaigns scan every `k`-th probeable address. That needs
//! an order-preserving bijection between "probeable rank" (0-based index
//! among non-reserved addresses) and the actual IPv4 address, skipping
//! the reserved ranges of Table I.

use std::net::Ipv4Addr;

use crate::blocklist::Blocklist;

/// An indexable view of the addresses *not* covered by a blocklist.
///
/// # Example
///
/// ```
/// use orscope_ipspace::{AllowedSpace, Blocklist};
///
/// let space = AllowedSpace::probeable();
/// assert_eq!(space.len(), 3_702_258_432);
/// let first = space.nth(0).unwrap();
/// assert_eq!(u32::from(first), 0x0100_0000, "0.0.0.0/8 is skipped");
/// assert_eq!(space.rank(first), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowedSpace {
    /// Disjoint inclusive allowed ranges, ascending.
    ranges: Vec<(u32, u32)>,
    /// `cumulative[i]` = number of allowed addresses before `ranges[i]`.
    cumulative: Vec<u64>,
    /// Total allowed addresses.
    total: u64,
}

impl AllowedSpace {
    /// Builds the complement of `blocklist` over the full IPv4 space.
    pub fn new(blocklist: &Blocklist) -> Self {
        let mut ranges = Vec::new();
        let mut next: u64 = 0; // next uncovered address candidate
        for &(s, e) in blocklist.ranges() {
            if (s as u64) > next {
                ranges.push((next as u32, s - 1));
            }
            next = e as u64 + 1;
        }
        if next <= u32::MAX as u64 {
            ranges.push((next as u32, u32::MAX));
        }
        let mut cumulative = Vec::with_capacity(ranges.len());
        let mut total = 0u64;
        for &(s, e) in &ranges {
            cumulative.push(total);
            total += e as u64 - s as u64 + 1;
        }
        Self {
            ranges,
            cumulative,
            total,
        }
    }

    /// The probeable Internet: everything outside the Table I reserves.
    pub fn probeable() -> Self {
        Self::new(&Blocklist::reserved())
    }

    /// Number of allowed addresses.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `rank`-th allowed address in ascending order, if in range.
    ///
    /// The range holding `rank` is found by counting the ranges that
    /// start at or before it: a compare a range, summed without a branch.
    /// A scan's ranks land anywhere in the space, so each step of a
    /// binary search is a coin toss for the branch predictor, and over
    /// the dozen ranges of the probeable space the count is cheaper.
    pub fn nth(&self, rank: u64) -> Option<Ipv4Addr> {
        if rank >= self.total {
            return None;
        }
        let i = self.cumulative[1..]
            .iter()
            .map(|&start| usize::from(start <= rank))
            .sum::<usize>();
        let (s, _) = self.ranges[i];
        Some(Ipv4Addr::from(
            (s as u64 + (rank - self.cumulative[i])) as u32,
        ))
    }

    /// The rank of `addr` among allowed addresses, or `None` if blocked.
    pub fn rank(&self, addr: Ipv4Addr) -> Option<u64> {
        let a = u32::from(addr);
        let i = match self.ranges.binary_search_by(|&(s, _)| s.cmp(&a)) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let (s, e) = self.ranges[i];
        if a > e {
            return None;
        }
        Some(self.cumulative[i] + (a as u64 - s as u64))
    }

    /// Whether `addr` is allowed (not blocked).
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        self.rank(addr).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cidr::Cidr;
    use crate::reserved;

    #[test]
    fn probeable_count_matches_reserved_registry() {
        let space = AllowedSpace::probeable();
        assert_eq!(space.len(), reserved::tests::total_probeable());
    }

    #[test]
    fn nth_and_rank_are_inverse_at_boundaries() {
        let space = AllowedSpace::probeable();
        for rank in [
            0u64,
            1,
            1_000_000,
            space.len() / 2,
            space.len() - 2,
            space.len() - 1,
        ] {
            let addr = space.nth(rank).unwrap();
            assert_eq!(space.rank(addr), Some(rank), "rank {rank} -> {addr}");
            assert!(!reserved::is_reserved(u32::from(addr)));
        }
        assert_eq!(space.nth(space.len()), None);
    }

    #[test]
    fn nth_and_rank_are_inverse_at_random_ranks() {
        let space = AllowedSpace::probeable();
        orscope_check::cases(512, |rng| {
            for rank in [rng.range(0..space.len()), rng.range(0..1 << 24)] {
                let addr = space.nth(rank).unwrap();
                assert_eq!(space.rank(addr), Some(rank), "rank {rank} -> {addr}");
                if rank > 0 {
                    assert!(space.nth(rank - 1).unwrap() < addr);
                }
            }
        });
    }

    #[test]
    fn first_allowed_address_skips_zero_slash_eight() {
        let space = AllowedSpace::probeable();
        assert_eq!(space.nth(0), Some(Ipv4Addr::new(1, 0, 0, 0)));
    }

    #[test]
    fn last_allowed_address_is_below_multicast() {
        let space = AllowedSpace::probeable();
        let last = space.nth(space.len() - 1).unwrap();
        assert_eq!(last, Ipv4Addr::new(223, 255, 255, 255));
    }

    #[test]
    fn reserved_addresses_have_no_rank() {
        let space = AllowedSpace::probeable();
        for blocked in [
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(127, 0, 0, 1),
            Ipv4Addr::new(192, 168, 1, 1),
            Ipv4Addr::new(224, 0, 0, 1),
            Ipv4Addr::new(255, 255, 255, 255),
            Ipv4Addr::new(0, 0, 0, 0),
        ] {
            assert_eq!(space.rank(blocked), None, "{blocked}");
            assert!(!space.contains(blocked));
        }
    }

    #[test]
    fn empty_blocklist_is_identity() {
        let space = AllowedSpace::new(&Blocklist::new());
        assert_eq!(space.len(), 1 << 32);
        assert_eq!(space.nth(0), Some(Ipv4Addr::new(0, 0, 0, 0)));
        assert_eq!(
            space.nth((1 << 32) - 1),
            Some(Ipv4Addr::new(255, 255, 255, 255))
        );
        assert_eq!(space.rank(Ipv4Addr::new(0, 0, 1, 0)), Some(256));
    }

    #[test]
    fn full_blocklist_is_empty() {
        let mut list = Blocklist::new();
        list.insert(Cidr::new(Ipv4Addr::UNSPECIFIED, 0));
        let space = AllowedSpace::new(&list);
        assert_eq!(space.len(), 0);
        assert_eq!(space.nth(0), None);
    }

    #[test]
    fn ranks_are_dense_and_ordered() {
        let mut list = Blocklist::new();
        list.insert("0.0.0.0/4".parse().unwrap());
        list.insert("128.0.0.0/4".parse().unwrap());
        let space = AllowedSpace::new(&list);
        let mut prev = None;
        for rank in (0..space.len()).step_by((space.len() / 100) as usize) {
            let addr = space.nth(rank).unwrap();
            assert_eq!(space.rank(addr), Some(rank));
            if let Some(p) = prev {
                assert!(addr > p);
            }
            prev = Some(addr);
        }
    }
}
