//! Metric handles: pre-resolved atomics behind `Option`, so the hot path
//! is one branch plus one relaxed atomic operation (or nothing when the
//! owning collector is disabled).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// A monotonically increasing counter. Cloning shares the cell; the
/// default handle is a no-op.
#[derive(Clone, Debug, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (no-op when `n == 0` or the handle is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A high-water-mark gauge: `record_max` keeps the largest value seen,
/// which merges order-insensitively across shards.
///
/// Long-running services (the observatory's population-size and
/// epochs-completed gauges) instead use [`Gauge::set`], which stores the
/// current value: a population that shrinks must be able to pull its
/// gauge back down. Pick one discipline per gauge — a metric that mixes
/// `set` and `record_max` has no coherent merge semantics.
#[derive(Clone, Debug, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// Raises the gauge to `value` if it is a new maximum.
    #[inline]
    pub fn record_max(&self, value: u64) {
        if let Some(cell) = &self.0 {
            // `fetch_max` is a locked compare-exchange loop; most
            // recordings are not a new maximum and need only the load.
            if value > cell.load(Ordering::Relaxed) {
                cell.fetch_max(value, Ordering::Relaxed);
            }
        }
    }

    /// Stores `value`, replacing whatever the gauge held (level
    /// semantics, for service gauges that go down as well as up).
    #[inline]
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.store(value, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Shared storage behind a [`Histogram`] handle.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    pub(crate) buckets: [AtomicU64; BUCKET_COUNT],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    /// `u64::MAX` until the first record.
    pub(crate) min: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A log2-bucketed histogram of `u64` samples (latencies in nanoseconds,
/// depths, sizes). Recording is five relaxed atomic operations.
#[derive(Clone, Debug, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let Some(core) = &self.0 else { return };
        core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples recorded (0 for a disabled handle).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |core| core.count.load(Ordering::Relaxed))
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
    fn disabled_handles_are_no_ops() {
        let counter = Counter::default();
        counter.inc();
        assert_eq!(counter.get(), 0);
        let gauge = Gauge::default();
        gauge.record_max(7);
        assert_eq!(gauge.get(), 0);
        let histogram = Histogram::default();
        histogram.record(7);
        assert_eq!(histogram.count(), 0);
    }
}
