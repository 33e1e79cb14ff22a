#![warn(missing_docs)]
//! The workspace's one test-side random harness.
//!
//! A property is a closure over an [`Rng`]; [`cases`] runs it on a fixed
//! sequence of seeds and names the failing one. There is no shrinking
//! and nothing is read from the environment: case `i` always draws from
//! `Rng::new(i)`, so every run is its own replay and a failure is
//! reproduced by calling the property on that one generator.
//!
//! [`alloc`] is the one counting allocator the workspace's allocation
//! tests and memory benches install.
//!
//! ```
//! orscope_check::cases(64, |rng| {
//!     let bytes = rng.bytes(0..32);
//!     let at = rng.range(0..=bytes.len());
//!     assert!(bytes[..at].len() <= bytes.len());
//! });
//! ```

use std::ops::{Bound, RangeBounds};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

pub mod alloc;

/// Runs `property` on cases `0..n`, case `i` drawing from `Rng::new(i)`.
/// When a case panics, its index is printed before the panic continues.
pub fn cases(n: u64, mut property: impl FnMut(&mut Rng)) {
    for case in 0..n {
        let mut rng = Rng::new(case);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!("orscope-check: case {case} of {n} failed; it draws from Rng::new({case})");
            resume_unwind(panic);
        }
    }
}

/// Sebastiano Vigna's SplitMix64: one `u64` of state, so a seed is the
/// whole generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

/// The integer types [`Rng::range`] draws, each mapped onto `u64` in
/// order (signed types by flipping the sign bit).
pub trait Int: Copy {
    /// The type's largest value.
    const MAX: Self;
    /// The value's place in `u64` order.
    fn to_u64(self) -> u64;
    /// The value at that place.
    fn from_u64(place: u64) -> Self;
}

macro_rules! int {
    ($wide:ty, $flip:expr => $($t:ty),*) => {$(
        impl Int for $t {
            const MAX: Self = <$t>::MAX;
            fn to_u64(self) -> u64 {
                (self as $wide as u64) ^ $flip
            }
            fn from_u64(place: u64) -> Self {
                (place ^ $flip) as $wide as $t
            }
        }
    )*};
}
int!(u64, 0 => u8, u16, u32, u64, usize);
int!(i64, 1 << 63 => i32, i64);

impl Rng {
    /// The generator whose state is `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An integer in `range` (`..` is the whole type): one draw, reduced
    /// modulo the span. Panics on an empty range.
    pub fn range<T: Int>(&mut self, range: impl RangeBounds<T>) -> T {
        let low = match range.start_bound() {
            Bound::Included(low) => low.to_u64(),
            Bound::Excluded(low) => low.to_u64() + 1,
            Bound::Unbounded => 0,
        };
        let high = match range.end_bound() {
            Bound::Included(high) => high.to_u64(),
            Bound::Excluded(high) => high.to_u64().checked_sub(1).expect("an empty range"),
            Bound::Unbounded => T::MAX.to_u64(),
        };
        assert!(low <= high, "an empty range");
        let draw = self.next_u64();
        T::from_u64(match (high - low).checked_add(1) {
            Some(span) => low + draw % span,
            None => draw,
        })
    }

    /// A float in `low..high`.
    pub fn f64(&mut self, low: f64, high: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        low + unit * (high - low)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` in `percent` draws of a hundred.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.range(0..100u64) < percent
    }

    /// One of `items` (which must not be empty).
    pub fn choice<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0..items.len())]
    }

    /// A vector whose length is drawn from `len` and whose items come
    /// from `item`, in order.
    pub fn vec<T>(
        &mut self,
        len: impl RangeBounds<usize>,
        mut item: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        (0..self.range(len)).map(|_| item(self)).collect()
    }

    /// Arbitrary bytes, their count drawn from `len`.
    pub fn bytes(&mut self, len: impl RangeBounds<usize>) -> Vec<u8> {
        self.vec(len, |rng| rng.next_u64() as u8)
    }

    /// Damages `bytes` the way a hostile or failing writer would: one to
    /// four edits, each a flipped bit, an inserted byte, a deleted byte,
    /// a doubled tail or a cut. An inserted byte is drawn from
    /// `alphabet` — the format's structural bytes get deeper into a
    /// parser than uniform ones — or from all 256 when that is empty.
    pub fn mutate(&mut self, bytes: &mut Vec<u8>, alphabet: &[u8]) {
        for _ in 0..self.range(1..=4) {
            let at = self.range(0..=bytes.len());
            match self.range(0..5) {
                0 if at < bytes.len() => bytes[at] ^= 1 << self.range(0..8),
                1 if alphabet.is_empty() => bytes.insert(at, self.next_u64() as u8),
                1 => bytes.insert(at, *self.choice(alphabet)),
                2 if at < bytes.len() => drop(bytes.remove(at)),
                3 => bytes.extend_from_within(at..),
                _ => bytes.truncate(at),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_splitmix64() {
        // Reference outputs for seed 1234567 (Vigna's splitmix64.c).
        let mut rng = Rng::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn ranges_hold_their_bounds_and_reach_them() {
        let mut rng = Rng::new(0);
        let (mut low, mut high) = (false, false);
        for _ in 0..2_000 {
            let v = rng.range(8u8..=32);
            assert!((8..=32).contains(&v));
            low |= v == 8;
            high |= v == 32;
            assert!(rng.range(3usize..7) < 7);
            assert!((-3..=3).contains(&rng.range(-3..=3)));
            let _: u64 = rng.range(..);
            let x = rng.f64(1.0, 2.5);
            assert!((1.0..2.5).contains(&x));
        }
        assert!(low && high);
        assert_eq!(rng.range(5u32..6), 5);
        assert_eq!(rng.range(u64::MAX..), u64::MAX);
        assert_eq!(rng.range(..=i64::MIN), i64::MIN);
    }

    #[test]
    fn empty_ranges_are_refused() {
        for empty in [
            catch_unwind(|| Rng::new(0).range(0u8..0)),
            catch_unwind(|| Rng::new(0).range((Bound::Included(4u8), Bound::Included(3)))),
        ] {
            assert!(empty.is_err());
        }
    }

    #[test]
    fn vectors_and_mutations_are_replayable() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            let items = rng.vec(0..9, |rng| rng.range(0u16..500));
            let mut bytes = rng.bytes(4..=4);
            rng.mutate(&mut bytes, b"{}");
            (items, bytes, rng.bool(), rng.chance(50))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn a_failing_case_keeps_its_panic() {
        let mut ran = 0;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            cases(10, |rng| {
                ran += 1;
                assert!(rng.range(0u8..=1) < 2 && ran < 4, "case four fails");
            })
        }));
        let panic = outcome.expect_err("the fourth case panics");
        assert_eq!(ran, 4, "cases after the failing one do not run");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"case four fails"));
    }
}
