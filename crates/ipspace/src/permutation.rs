//! ZMap-style stateless pseudorandom permutation of an address space.
//!
//! ZMap scans the IPv4 space in a pseudorandom order so that probe load is
//! spread across networks instead of hammering one /8 at a time, while
//! guaranteeing each address is visited exactly once. It does so by
//! iterating the multiplicative group of integers modulo a prime `p`
//! slightly larger than the space: starting from a random element, it
//! repeatedly multiplies by a primitive root `g`, visiting every value in
//! `1..p` exactly once per cycle; values that fall outside the target
//! space are skipped.
//!
//! [`ScanPermutation`] reproduces that construction for any space whose
//! prime modulus fits in 32 bits (every `n` below 4,294,967,291, the
//! probeable Internet's 3,702,258,432 included), which lets the
//! measurement pipeline scan scaled-down probe spaces with the same
//! access pattern as a full Internet-wide scan. Because both factors of
//! a step are below 2^32, their product fits in 64 bits and a step is
//! reduced without any division.

use crate::prime::{next_prime, primitive_root};

/// A bijective pseudorandom traversal of `0..n`.
///
/// The permutation is deterministic given `(n, seed)`.
///
/// # Example
///
/// ```
/// use orscope_ipspace::ScanPermutation;
///
/// let perm = ScanPermutation::new(100, 7);
/// let order: Vec<u32> = perm.iter().collect();
/// assert_eq!(order.len(), 100);
/// let mut sorted = order.clone();
/// sorted.sort_unstable();
/// assert_eq!(sorted, (0..100).collect::<Vec<_>>());
/// // The visit order is scrambled, not sequential.
/// assert_ne!(order, sorted);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanPermutation {
    /// Size of the space being permuted; yields values in `0..n`.
    n: u64,
    /// Prime modulus `p > n`.
    modulus: u64,
    /// Primitive root of `Z_p^*`.
    generator: u64,
    /// `floor(generator * 2^32 / modulus)`: the precomputed quotient
    /// estimate that reduces a step without dividing.
    quotient: u64,
    /// First group element visited (in `1..p`).
    start: u64,
}

impl ScanPermutation {
    /// Creates a permutation of `0..n` determined by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if the smallest prime above `n` does not
    /// fit in 32 bits (`n >= 4,294,967,291`).
    pub fn new(n: u64, seed: u64) -> Self {
        assert!(n > 0, "cannot permute an empty space");
        let modulus = next_prime(n.max(2));
        assert!(
            modulus <= u64::from(u32::MAX),
            "space of {n} needs a modulus wider than 32 bits"
        );
        // Derive independent generator preference and start position from
        // the seed with an splitmix-style mix so nearby seeds diverge.
        let mixed = splitmix(seed);
        let generator = primitive_root(modulus, mixed);
        let start = 1 + splitmix(mixed) % (modulus - 1);
        Self::with_group(n, modulus, generator, start)
    }

    /// The walk of `0..n` from `start` by `generator` modulo `modulus`,
    /// a prime below 2^32 with `generator` in `1..modulus`.
    fn with_group(n: u64, modulus: u64, generator: u64, start: u64) -> Self {
        Self {
            n,
            modulus,
            generator,
            quotient: (generator << 32) / modulus,
            start,
        }
    }

    /// `x * generator mod modulus` for `x < modulus`, by Shoup's
    /// precomputed-quotient form of Barrett reduction: `q = x *
    /// quotient >> 32` undershoots `floor(x * generator / modulus)` by
    /// at most one, so the remainder is below `2 * modulus` and one
    /// conditional subtraction finishes it. Every product is of two
    /// factors below 2^32, so nothing here overflows 64 bits.
    fn step(&self, x: u64) -> u64 {
        let q = (x * self.quotient) >> 32;
        let r = x * self.generator - q * self.modulus;
        if r >= self.modulus {
            r - self.modulus
        } else {
            r
        }
    }

    /// Size of the permuted space.
    pub fn space_len(&self) -> u64 {
        self.n
    }

    /// Iterates all `n` values of the permutation.
    pub fn iter(&self) -> ScanPermutationIter {
        ScanPermutationIter {
            perm: self.clone(),
            current: self.start,
            emitted: 0,
        }
    }
}

/// Iterator over a [`ScanPermutation`]; see [`ScanPermutation::iter`].
#[derive(Debug, Clone)]
pub struct ScanPermutationIter {
    perm: ScanPermutation,
    current: u64,
    emitted: u64,
}

impl Iterator for ScanPermutationIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.emitted < self.perm.n {
            let value = self.current - 1; // group element x maps to address x-1
            self.current = self.perm.step(self.current);
            if value < self.perm.n {
                self.emitted += 1;
                return Some(value as u32);
            }
            // Values in n..p-1 are skipped, exactly as ZMap discards group
            // elements beyond the address space.
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.perm.n - self.emitted) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ScanPermutationIter {}

/// SplitMix64 finalizer: cheap, well-distributed 64-bit mixing.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime;
    use std::collections::HashSet;

    #[test]
    fn covers_every_address_exactly_once() {
        for n in [1u64, 2, 3, 10, 97, 1_000, 4_096] {
            let perm = ScanPermutation::new(n, 1234);
            let visited: Vec<u32> = perm.iter().collect();
            assert_eq!(visited.len() as u64, n);
            let unique: HashSet<u32> = visited.iter().copied().collect();
            assert_eq!(unique.len() as u64, n, "duplicates for n={n}");
            assert!(visited.iter().all(|&v| (v as u64) < n));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u32> = ScanPermutation::new(500, 9).iter().collect();
        let b: Vec<u32> = ScanPermutation::new(500, 9).iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<u32> = ScanPermutation::new(500, 1).iter().collect();
        let b: Vec<u32> = ScanPermutation::new(500, 2).iter().collect();
        assert_ne!(a, b);
    }

    #[test]
    fn order_is_scrambled() {
        let order: Vec<u32> = ScanPermutation::new(1_000, 77).iter().collect();
        // Count ascending adjacent pairs; a random permutation has ~50%.
        let ascending = order.windows(2).filter(|w| w[0] < w[1]).count();
        assert!(
            (300..700).contains(&ascending),
            "suspiciously ordered: {ascending}/999 ascending pairs"
        );
    }

    /// The division-free step is `mul_mod` exactly, for random primes
    /// below 2^32 and the largest one at its largest operands.
    #[test]
    fn step_matches_mul_mod() {
        let largest = 4_294_967_291;
        assert_eq!(prime::next_prime(largest), (1 << 32) + 15);
        let check = |x: u64, generator: u64, modulus: u64| {
            let group = ScanPermutation::with_group(modulus - 1, modulus, generator, 1);
            assert_eq!(
                group.step(x),
                prime::mul_mod(x, generator, modulus),
                "{x} * {generator} mod {modulus}"
            );
        };
        check(largest - 1, largest - 1, largest);
        check(largest - 2, largest - 1, largest);
        check(1, largest - 1, largest);
        check(1, 1, 2);
        orscope_check::cases(2_000, |rng| {
            let modulus = loop {
                let p = prime::next_prime(rng.range(1u64..u64::from(u32::MAX)));
                if p <= u64::from(u32::MAX) {
                    break p;
                }
            };
            let generator = rng.range(1..modulus);
            for x in [1, modulus - 1, rng.range(0..modulus), rng.range(0..modulus)] {
                check(x, generator, modulus);
            }
        });
    }

    #[test]
    #[should_panic(expected = "wider than 32 bits")]
    fn a_modulus_past_32_bits_panics() {
        let _ = ScanPermutation::new(4_294_967_291, 0);
    }

    #[test]
    fn size_hint_is_exact() {
        let perm = ScanPermutation::new(64, 3);
        let mut iter = perm.iter();
        assert_eq!(iter.len(), 64);
        iter.next();
        assert_eq!(iter.len(), 63);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn zero_space_panics() {
        let _ = ScanPermutation::new(0, 0);
    }

    #[test]
    fn single_element_space() {
        let visited: Vec<u32> = ScanPermutation::new(1, 5).iter().collect();
        assert_eq!(visited, vec![0]);
    }
}
