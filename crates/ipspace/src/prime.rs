//! Number-theoretic helpers for the scan permutation.
//!
//! The ZMap-style address permutation iterates the multiplicative group of
//! integers modulo a prime `p`. This module provides a deterministic
//! Miller-Rabin primality test valid for all `u64`, a next-prime search,
//! factorization, and primitive-root discovery.

/// Modular multiplication that never overflows (via `u128`).
pub(crate) fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Modular exponentiation `base^exp mod m` by square-and-multiply.
pub fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    if m == 1 {
        return 0;
    }
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Deterministic Miller-Rabin primality test, correct for all `u64`.
///
/// Uses the witness set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37},
/// which is proven sufficient for every integer below 3.3 * 10^24.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // n - 1 = d * 2^s with d odd
    let mut d = n - 1;
    let mut s = 0u32;
    while d & 1 == 0 {
        d >>= 1;
        s += 1;
    }
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// The smallest prime strictly greater than `n`.
///
/// # Panics
///
/// Panics if the search would overflow `u64` (practically unreachable for
/// the 32-bit address spaces this crate works with).
pub fn next_prime(n: u64) -> u64 {
    let mut candidate = n.checked_add(1).expect("next_prime overflow");
    if candidate <= 2 {
        return 2;
    }
    if candidate.is_multiple_of(2) {
        candidate += 1;
    }
    while !is_prime(candidate) {
        candidate = candidate.checked_add(2).expect("next_prime overflow");
    }
    candidate
}

/// The distinct prime factors of `n` by trial division with Pollard's-rho
/// fallback for large factors.
pub(crate) fn distinct_prime_factors(mut n: u64) -> Vec<u64> {
    let mut factors = Vec::new();
    for p in [2u64, 3, 5] {
        if n.is_multiple_of(p) {
            factors.push(p);
            while n.is_multiple_of(p) {
                n /= p;
            }
        }
    }
    // Wheel over 6k +/- 1 up to 2^21 (enough for p-1 where p ~ 2^32 after
    // small factors are stripped; anything left bigger is handled below).
    let mut k = 7u64;
    while k.saturating_mul(k) <= n && k < (1 << 21) {
        for cand in [k, k + 4] {
            if n.is_multiple_of(cand) {
                factors.push(cand);
                while n.is_multiple_of(cand) {
                    n /= cand;
                }
            }
        }
        k += 6;
    }
    if n > 1 {
        if is_prime(n) {
            factors.push(n);
        } else {
            // Composite remainder: split with Pollard's rho.
            let d = pollard_rho(n);
            for part in [d, n / d] {
                for f in distinct_prime_factors(part) {
                    if !factors.contains(&f) {
                        factors.push(f);
                    }
                }
            }
        }
    }
    factors.sort_unstable();
    factors.dedup();
    factors
}

/// Pollard's rho factor-finding (Brent variant); `n` must be composite.
fn pollard_rho(n: u64) -> u64 {
    if n.is_multiple_of(2) {
        return 2;
    }
    let mut c = 1u64;
    loop {
        let mut x = 2u64;
        let mut y = 2u64;
        let mut d = 1u64;
        let f = |v: u64| (mul_mod(v, v, n) + c) % n;
        while d == 1 {
            x = f(x);
            y = f(f(y));
            d = gcd(x.abs_diff(y), n);
        }
        if d != n {
            return d;
        }
        c += 1;
    }
}

/// Greatest common divisor by Euclid's algorithm.
pub(crate) fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Finds a primitive root modulo the prime `p`, i.e. a generator of the
/// full multiplicative group `Z_p^*` of order `p - 1`.
///
/// `preference` seeds where the search starts so that different scan seeds
/// produce different generators.
///
/// # Panics
///
/// Panics if `p` is not prime.
pub(crate) fn primitive_root(p: u64, preference: u64) -> u64 {
    assert!(is_prime(p), "{p} is not prime");
    if p == 2 {
        return 1;
    }
    let order = p - 1;
    let factors = distinct_prime_factors(order);
    let is_generator = |g: u64| -> bool { factors.iter().all(|&q| pow_mod(g, order / q, p) != 1) };
    let start = 2 + preference % (p - 3).max(1);
    let mut g = start;
    loop {
        if is_generator(g) {
            return g;
        }
        g += 1;
        if g >= p {
            g = 2;
        }
        assert_ne!(g, start, "no primitive root found for prime {p}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 101, 65_537];
        let composites = [0u64, 1, 4, 9, 15, 91, 561, 1_105, 65_535];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn carmichael_numbers_are_composite() {
        // Classic Fermat pseudoprimes that fool weak tests.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 825_265] {
            assert!(!is_prime(c), "{c} is a Carmichael number");
        }
    }

    #[test]
    fn zmap_prime() {
        // ZMap iterates mod 2^32 + 15, the smallest prime above 2^32.
        assert!(is_prime((1u64 << 32) + 15));
        assert_eq!(next_prime(1u64 << 32), (1u64 << 32) + 15);
    }

    #[test]
    fn next_prime_basics() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(1), 2);
        assert_eq!(next_prime(2), 3);
        assert_eq!(next_prime(3), 5);
        assert_eq!(next_prime(13), 17);
        assert_eq!(next_prime(1000), 1009);
    }

    #[test]
    fn factorization() {
        assert_eq!(distinct_prime_factors(1), Vec::<u64>::new());
        assert_eq!(distinct_prime_factors(2), vec![2]);
        assert_eq!(distinct_prime_factors(12), vec![2, 3]);
        assert_eq!(distinct_prime_factors(97), vec![97]);
        assert_eq!(
            distinct_prime_factors(2 * 3 * 5 * 7 * 11),
            vec![2, 3, 5, 7, 11]
        );
        // (2^32 + 15) - 1 = 2 * 3 * 5 * 131 * 364289 * 3
        let fs = distinct_prime_factors((1u64 << 32) + 14);
        let mut check = 1u64;
        for f in &fs {
            assert!(is_prime(*f));
            check *= f;
        }
        assert_eq!(((1u64 << 32) + 14) % check, 0);
    }

    #[test]
    fn factorization_with_large_prime_pair() {
        // 1000003 * 1000033 requires the rho fallback.
        let n = 1_000_003u64 * 1_000_033;
        assert_eq!(distinct_prime_factors(n), vec![1_000_003, 1_000_033]);
    }

    #[test]
    fn primitive_roots_generate_group() {
        for p in [5u64, 7, 11, 13, 65_537, 1_009] {
            let g = primitive_root(p, 0);
            let mut seen = std::collections::HashSet::new();
            let mut x = 1u64;
            for _ in 0..p - 1 {
                x = mul_mod(x, g, p);
                seen.insert(x);
            }
            assert_eq!(seen.len() as u64, p - 1, "g={g} does not generate Z_{p}^*");
        }
    }

    #[test]
    fn primitive_root_respects_preference() {
        let a = primitive_root(1_009, 1);
        let b = primitive_root(1_009, 500);
        // Both preferences must yield valid generators of the full group.
        for g in [a, b] {
            assert_eq!(pow_mod(g, 1_008, 1_009), 1);
            let factors = distinct_prime_factors(1_008);
            for q in factors {
                assert_ne!(pow_mod(g, 1_008 / q, 1_009), 1, "g={g} has small order");
            }
        }
    }

    #[test]
    fn pow_mod_edge_cases() {
        assert_eq!(pow_mod(5, 0, 7), 1);
        assert_eq!(pow_mod(0, 5, 7), 0);
        assert_eq!(pow_mod(10, 10, 1), 0);
        assert_eq!(pow_mod(u64::MAX - 1, 2, u64::MAX - 2), 1);
    }
}
