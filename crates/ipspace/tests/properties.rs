//! Property-based tests for the address-space substrate.

use std::net::Ipv4Addr;

use orscope_check::{cases, Rng};
use orscope_ipspace::{prime, Blocklist, Cidr, ScanPermutation};

/// CIDR blocks at arbitrary addresses below `addr_bound`, prefix
/// lengths `shortest..=32`.
fn blocks(
    rng: &mut Rng,
    count: std::ops::Range<usize>,
    addr_bound: u32,
    shortest: u8,
) -> Vec<Cidr> {
    rng.vec(count, |rng| {
        let addr = rng.range(..=addr_bound);
        Cidr::new(Ipv4Addr::from(addr), rng.range(shortest..=32))
    })
}

/// The scan permutation is a bijection: every value of `0..n` appears
/// exactly once regardless of seed.
#[test]
fn permutation_is_bijective() {
    cases(256, |rng| {
        let n = rng.range(1u64..3000);
        let perm = ScanPermutation::new(n, rng.next_u64());
        let mut visited: Vec<u32> = perm.iter().collect();
        visited.sort_unstable();
        assert_eq!(visited.len() as u64, n);
        for (i, v) in visited.iter().enumerate() {
            assert_eq!(*v as usize, i);
        }
    });
}

/// Permutations are stable across repeated construction.
#[test]
fn permutation_is_deterministic() {
    cases(256, |rng| {
        let (n, seed) = (rng.range(1u64..500), rng.next_u64());
        let a: Vec<u32> = ScanPermutation::new(n, seed).iter().collect();
        let b: Vec<u32> = ScanPermutation::new(n, seed).iter().collect();
        assert_eq!(a, b);
    });
}

/// `next_prime` returns a prime strictly above its argument.
#[test]
fn next_prime_is_prime_and_greater() {
    cases(256, |rng| {
        let n = rng.range(0u64..10_000_000);
        let p = prime::next_prime(n);
        assert!(p > n);
        assert!(prime::is_prime(p));
    });
}

/// `pow_mod` agrees with naive repeated multiplication.
#[test]
fn pow_mod_matches_naive() {
    cases(256, |rng| {
        let (base, exp, m) = (
            rng.range(0u64..1000),
            rng.range(0u64..64),
            rng.range(2u64..10_000),
        );
        let expected = (0..exp).fold(1u64, |acc, _| acc * base % m);
        assert_eq!(prime::pow_mod(base, exp, m), expected);
    });
}

/// A blocklist built from arbitrary CIDRs contains exactly the
/// addresses its member blocks contain.
#[test]
fn blocklist_membership_matches_blocks() {
    cases(256, |rng| {
        let cidrs = blocks(rng, 0..12, u32::MAX, 8);
        let list: Blocklist = cidrs.iter().copied().collect();
        for _ in 0..32 {
            // Half the probes anywhere, half at a block's last address
            // or either side of it.
            let probe = match cidrs.is_empty() || rng.bool() {
                true => rng.range(..),
                false => (rng.choice(&cidrs).last().wrapping_sub(1)).wrapping_add(rng.range(0..3)),
            };
            let expected = cidrs.iter().any(|c| c.contains(probe));
            assert_eq!(list.contains(probe), expected, "probe {probe}");
        }
    });
}

/// Merged ranges never overlap and never touch (full coalescing).
#[test]
fn blocklist_ranges_are_disjoint_and_separated() {
    cases(256, |rng| {
        let list: Blocklist = blocks(rng, 1..16, u32::MAX, 4).into_iter().collect();
        for w in list.ranges().windows(2) {
            let (_, e0) = w[0];
            let (s1, _) = w[1];
            assert!(e0 < s1, "ranges out of order or overlapping");
            assert!(s1 - e0 > 1, "adjacent ranges were not merged");
        }
    });
}

/// Covered-count equals the size of the union of the blocks.
#[test]
fn blocklist_covered_matches_union() {
    cases(256, |rng| {
        let cidrs = blocks(rng, 0..10, 4095, 20);
        let list: Blocklist = cidrs.iter().copied().collect();
        let union: std::collections::HashSet<_> = cidrs.iter().flat_map(Cidr::iter).collect();
        assert_eq!(list.covered(), union.len() as u64);
    });
}

/// CIDR roundtrip: display then parse yields the same block.
#[test]
fn cidr_display_parse_roundtrip() {
    cases(256, |rng| {
        let c = Cidr::new(Ipv4Addr::from(rng.range::<u32>(..)), rng.range(0u8..=32));
        let back: Cidr = c.to_string().parse().unwrap();
        assert_eq!(c, back);
    });
}
