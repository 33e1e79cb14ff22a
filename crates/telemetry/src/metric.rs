//! Log2 bucketing and the plain [`Histogram`] a single-threaded layer
//! keeps.

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `u64::MAX`.
pub const BUCKET_COUNT: usize = 65;

/// The bucket a value lands in: bucket 0 holds exactly zero, bucket `i`
/// (`i >= 1`) holds `2^(i-1) ..= 2^i - 1`, and bucket 64 is capped at
/// `u64::MAX`.
///
/// ```
/// use orscope_telemetry::{bucket_bounds, bucket_index};
/// for v in [0, 1, 2, 3, 1_000_000, u64::MAX] {
///     let (lo, hi) = bucket_bounds(bucket_index(v));
///     assert!(lo <= v && v <= hi);
/// }
/// ```
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The inclusive `(low, high)` range of bucket `index`.
///
/// # Panics
///
/// Panics if `index >= BUCKET_COUNT`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < BUCKET_COUNT, "bucket index {index} out of range");
    if index == 0 {
        (0, 0)
    } else {
        let low = 1u64 << (index - 1);
        let high = if index == 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        };
        (low, high)
    }
}

/// A log2-bucketed histogram of `u64` samples (latencies in
/// nanoseconds, depths): plain integers in a fixed array, kept by the
/// single-threaded layer that records into it and summed with
/// [`Histogram::absorb`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Total samples.
    pub count: u64,
    /// Sum of samples (wrapping on overflow).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts; see [`bucket_bounds`] for the ranges.
    pub buckets: [u64; BUCKET_COUNT],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; BUCKET_COUNT],
        }
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    /// Merges `other` in. Commutative and associative: bucket counts and
    /// totals add, extremes take min/max, so any merge order produces
    /// the same histogram.
    pub fn absorb(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }
}

impl FromIterator<u64> for Histogram {
    /// The histogram of `samples`, recorded one by one.
    fn from_iter<I: IntoIterator<Item = u64>>(samples: I) -> Self {
        let mut out = Self::default();
        samples.into_iter().for_each(|sample| out.record(sample));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1 << 63), 64);
        assert_eq!(bucket_index((1 << 63) - 1), 63);
    }

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        // Buckets tile 0..=u64::MAX with no gaps or overlaps.
        assert_eq!(bucket_bounds(0), (0, 0));
        let mut expected_low = 1u64;
        for index in 1..BUCKET_COUNT {
            let (low, high) = bucket_bounds(index);
            assert_eq!(low, expected_low, "gap before bucket {index}");
            assert!(high >= low);
            expected_low = high.wrapping_add(1);
        }
        assert_eq!(expected_low, 0, "last bucket must end at u64::MAX");
    }

    #[test]
    fn bounds_round_trip_extremes() {
        for value in [0u64, 1, 2, u64::MAX - 1, u64::MAX] {
            let (low, high) = bucket_bounds(bucket_index(value));
            assert!(
                low <= value && value <= high,
                "{value} outside ({low}, {high})"
            );
        }
    }

    #[test]
    fn empty_histograms_absorb_without_touching_the_extremes() {
        let mut a = Histogram::default();
        a.absorb(&Histogram::default());
        assert_eq!(a, Histogram::default());
        let mut b: Histogram = [7, 3].into_iter().collect();
        a.absorb(&b);
        b.absorb(&Histogram::default());
        assert_eq!(a, b);
        assert_eq!((a.count, a.sum, a.min, a.max), (2, 10, 3, 7));
    }
}
