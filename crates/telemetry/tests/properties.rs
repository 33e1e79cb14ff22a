//! Property tests for the telemetry core: histogram merging is
//! commutative and associative, and the log2 bucketing tiles the full
//! `u64` range.

use orscope_check::{cases, Rng};
use orscope_telemetry::{bucket_bounds, bucket_index, Histogram, BUCKET_COUNT};

fn histogram(samples: &[u64]) -> Histogram {
    samples.iter().copied().collect()
}

/// `a.absorb(b)` as a value.
fn merged(a: &Histogram, b: &Histogram) -> Histogram {
    let mut out = *a;
    out.absorb(b);
    out
}

fn samples(rng: &mut Rng) -> Vec<u64> {
    rng.vec(0..32, Rng::next_u64)
}

/// Merging per-shard histograms must not care which shard finishes
/// first: `a + b == b + a`.
#[test]
fn histogram_absorb_is_commutative() {
    cases(256, |rng| {
        let (ha, hb) = (histogram(&samples(rng)), histogram(&samples(rng)));
        assert_eq!(merged(&ha, &hb), merged(&hb, &ha));
    });
}

/// Nor how the merge tree is shaped: `(a + b) + c == a + (b + c)`.
#[test]
fn histogram_absorb_is_associative() {
    cases(256, |rng| {
        let [ha, hb, hc] = [(); 3].map(|()| histogram(&samples(rng)));
        assert_eq!(
            merged(&merged(&ha, &hb), &hc),
            merged(&ha, &merged(&hb, &hc))
        );
    });
}

/// Merging all shards at once equals merging them pairwise, and the
/// result equals bucketing the concatenated sample stream directly.
#[test]
fn histogram_absorb_matches_concatenation() {
    cases(256, |rng| {
        let (a, b) = (samples(rng), samples(rng));
        let all: Vec<u64> = a.iter().chain(&b).copied().collect();
        assert_eq!(merged(&histogram(&a), &histogram(&b)), histogram(&all));
    });
}

/// Every value lands in a bucket whose inclusive bounds contain it.
#[test]
fn bucket_bounds_round_trip() {
    cases(256, |rng| {
        // Every magnitude, not only the top buckets a uniform draw hits.
        let value = rng.next_u64() >> rng.range(0..64);
        let index = bucket_index(value);
        assert!(index < BUCKET_COUNT);
        let (low, high) = bucket_bounds(index);
        assert!(low <= value && value <= high);
    });
}

/// Bucket boundaries themselves round-trip: the min and max of each
/// bucket map back to that bucket.
#[test]
fn bucket_extremes_round_trip() {
    cases(256, |rng| {
        let index = rng.range(0..BUCKET_COUNT);
        let (low, high) = bucket_bounds(index);
        assert_eq!(bucket_index(low), index);
        assert_eq!(bucket_index(high), index);
    });
}
