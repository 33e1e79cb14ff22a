//! Distribution-fit statistics for paper-vs-measured comparisons.
//!
//! Row-by-row ratios (see [`crate::report::Comparison`]) answer "is this
//! cell right?"; the metrics here answer "is the whole *distribution*
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

/// Pearson's chi-square statistic of `measured` against the shape of
/// `paper` (expected counts scaled to the measured total). Cells with a
/// zero expectation are skipped (they contribute no information).
///
/// # Panics
///
/// Panics if the vectors differ in length.
pub(crate) fn chi_square(paper: &[u64], measured: &[u64]) -> f64 {
    assert_eq!(paper.len(), measured.len(), "length mismatch");
    let (sp, sm) = (
        paper.iter().sum::<u64>() as f64,
        measured.iter().sum::<u64>() as f64,
    );
    if sp == 0.0 || sm == 0.0 {
        return 0.0;
    }
    paper
        .iter()
        .zip(measured)
        .filter(|(&p, _)| p > 0)
        .map(|(&p, &m)| {
            let expected = p as f64 / sp * sm;
            let delta = m as f64 - expected;
            delta * delta / expected
        })
        .sum()
}

/// A compact fit summary for one table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitSummary {
    /// Total variation distance of the normalized distributions.
    pub(crate) tvd: f64,
    /// Chi-square statistic (measured vs paper-shaped expectation).
    pub(crate) chi_square: f64,
    /// Number of cells compared.
    pub cells: usize,
}

/// Computes both metrics at once.
pub fn fit(paper: &[u64], measured: &[u64]) -> FitSummary {
    FitSummary {
        tvd: total_variation(paper, measured),
        chi_square: chi_square(paper, measured),
        cells: paper.len(),
    }
}

impl std::fmt::Display for FitSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TVD {:.4}, chi^2 {:.2} over {} cells",
            self.tvd, self.chi_square, self.cells
        )
    }
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
    fn chi_square_zero_for_exact_shape() {
        assert_eq!(chi_square(&[50, 50], &[5, 5]), 0.0);
        let x = chi_square(&[50, 50], &[6, 4]);
        assert!((x - 0.4).abs() < 1e-12, "{x}");
    }

    #[test]
    fn chi_square_skips_zero_expectation() {
        // A cell present in measured but absent in paper is skipped
        // rather than dividing by zero.
        let x = chi_square(&[10, 0], &[10, 3]);
        assert!(x.is_finite());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let _ = total_variation(&[1], &[1, 2]);
    }

    #[test]
    fn fit_summary_display() {
        let s = fit(&[90, 10], &[85, 15]);
        assert!(s.tvd > 0.0);
        assert!(s.to_string().contains("TVD"));
        assert_eq!(s.cells, 2);
    }
}
