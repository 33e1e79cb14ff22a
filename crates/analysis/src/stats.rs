//! Distribution-fit statistics for paper-vs-measured comparisons.
//!
//! Row-by-row ratios (see [`crate::report::Comparison`]) answer "is this
//! cell right?"; the metric here answers "is the whole *distribution*
//! right?" — which is the claim a reproduction actually makes about a
//! table like the rcode breakdown or the category split of Table IX.

/// Total variation distance between two count vectors, after
/// normalization: `0.5 * sum_i |p_i - q_i|`, in `[0, 1]`.
///
/// Zero means identical distributions; one means disjoint support.
///
/// # Panics
///
/// Panics if the vectors differ in length.
///
/// # Example
///
/// ```
/// use orscope_analysis::stats::total_variation;
///
/// assert_eq!(total_variation(&[50, 50], &[500, 500]), 0.0); // same shape
/// assert_eq!(total_variation(&[100, 0], &[0, 100]), 1.0);   // disjoint
/// ```
pub fn total_variation(paper: &[u64], measured: &[u64]) -> f64 {
    assert_eq!(paper.len(), measured.len(), "length mismatch");
    let (sp, sm) = (
        paper.iter().sum::<u64>() as f64,
        measured.iter().sum::<u64>() as f64,
    );
    if sp == 0.0 || sm == 0.0 {
        return if sp == sm { 0.0 } else { 1.0 };
    }
    0.5 * paper
        .iter()
        .zip(measured)
        .map(|(&p, &m)| (p as f64 / sp - m as f64 / sm).abs())
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tvd_bounds_and_scale_invariance() {
        assert_eq!(total_variation(&[1, 1, 1], &[7, 7, 7]), 0.0);
        assert_eq!(total_variation(&[10, 0], &[0, 10]), 1.0);
        let a = total_variation(&[80, 20], &[70, 30]);
        assert!((a - 0.1).abs() < 1e-12);
        // Scale invariance.
        assert_eq!(a, total_variation(&[800, 200], &[7, 3]));
    }

    #[test]
    fn tvd_empty_edge_cases() {
        assert_eq!(total_variation(&[0, 0], &[0, 0]), 0.0);
        assert_eq!(total_variation(&[0, 0], &[1, 0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = total_variation(&[1], &[1, 2]);
    }
}
