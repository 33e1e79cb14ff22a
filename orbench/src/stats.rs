//! Order statistics and the report checksum.

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both are harness bugs.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), so `aa` reproduces the acceptance check's arithmetic.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let sorted = sorted(values);
    let n = sorted.len();
    let cut = |quarter: usize| {
        let position = quarter * (n + 1);
        let below = (position / 4).clamp(1, n - 1);
        let delta = position as f64 / 4.0 - below as f64;
        sorted[below - 1] + (sorted[below] - sorted[below - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the spread the
/// acceptance check compares with a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// `(max - min) / median`: how far apart the reps of one run landed.
pub fn range_share(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    (sorted[sorted.len() - 1] - sorted[0]) / median(values)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    sorted
}

/// FNV-1a, 64 bit: the report checksum printed as `report_fnv64`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn one_slow_rep_does_not_move_the_median() {
        assert_eq!(median(&[1.0, 1.0, 1.0, 1.0, 9.0]), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(iqr_share(&values), 1.0);
    }

    #[test]
    fn range_share_is_relative_to_the_median() {
        assert_eq!(range_share(&[9.0, 10.0, 11.0]), 0.2);
    }

    #[test]
    fn fnv1a64_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
