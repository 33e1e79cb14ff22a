//! Paper-vs-measured comparison plumbing for EXPERIMENTS.md.

use std::fmt;

use orscope_json::Wire;

/// One compared quantity: the paper's figure against the (de-scaled)
/// measured one.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// What is being compared (e.g. `"Table III W_incorr"`).
    pub name: String,
    /// The paper's published value.
    pub paper: f64,
    /// The measured value, de-scaled back to paper scale.
    pub measured: f64,
}

impl Comparison {
    /// Creates a comparison of two counts.
    pub fn counts(name: impl Into<String>, paper: u64, measured: u64) -> Self {
        Self {
            name: name.into(),
            paper: paper as f64,
            measured: measured as f64,
        }
    }

    /// Creates a comparison of two ratios/percentages.
    pub fn ratios(name: impl Into<String>, paper: f64, measured: f64) -> Self {
        Self {
            name: name.into(),
            paper,
            measured,
        }
    }

    /// `measured / paper`, or 1.0 when both are zero.
    pub fn ratio(&self) -> f64 {
        if self.paper == 0.0 {
            if self.measured == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.measured / self.paper
        }
    }

    /// Whether the measured value is within `tolerance` (relative) of
    /// the paper's. Zero-paper rows pass only when measured is zero.
    pub fn within(&self, tolerance: f64) -> bool {
        (self.ratio() - 1.0).abs() <= tolerance
    }

    /// The JSON form (sorted keys, as the report documents are).
    pub fn to_wire(&self) -> Wire {
        Wire::obj(vec![
            ("measured", Wire::from(self.measured)),
            ("name", Wire::from(self.name.as_str())),
            ("paper", Wire::from(self.paper)),
        ])
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<38} paper {:>14.1} | measured {:>14.1} | x{:.3}",
            self.name,
            self.paper,
            self.measured,
            self.ratio()
        )
    }
}

/// A named block of comparisons for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableReport {
    /// The table's name, e.g. `"Table IV (RA flag)"`.
    pub title: String,
    /// Individual compared quantities.
    pub comparisons: Vec<Comparison>,
}

impl TableReport {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            comparisons: Vec::new(),
        }
    }

    /// Adds a comparison (builder style).
    pub fn push(&mut self, comparison: Comparison) -> &mut Self {
        self.comparisons.push(comparison);
        self
    }

    /// The JSON form: `{"comparisons": [...], "title": ...}`.
    pub fn to_wire(&self) -> Wire {
        Wire::obj(vec![
            (
                "comparisons",
                Wire::Arr(self.comparisons.iter().map(Comparison::to_wire).collect()),
            ),
            ("title", Wire::from(self.title.as_str())),
        ])
    }

    /// A campaign's table blocks as one JSON array — the `tables` member
    /// of the report, and (compact-encoded) the bytes the invariance
    /// suites compare.
    pub fn all_to_wire(reports: &[TableReport]) -> Wire {
        Wire::Arr(reports.iter().map(TableReport::to_wire).collect())
    }
}

impl fmt::Display for TableReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        for c in &self.comparisons {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TableReport {
        /// The worst relative deviation across rows with nonzero paper
        /// values.
        fn worst_deviation(&self) -> f64 {
            self.comparisons
                .iter()
                .filter(|c| c.paper != 0.0)
                .map(|c| (c.ratio() - 1.0).abs())
                .fold(0.0, f64::max)
        }
    }

    #[test]
    fn ratio_and_tolerance() {
        let c = Comparison::counts("x", 100, 103);
        assert!((c.ratio() - 1.03).abs() < 1e-9);
        assert!(c.within(0.05));
        assert!(!c.within(0.01));
        let zero = Comparison::counts("z", 0, 0);
        assert_eq!(zero.ratio(), 1.0);
        assert!(zero.within(0.0));
        let inf = Comparison::counts("i", 0, 5);
        assert!(!inf.within(10.0));
    }

    #[test]
    fn json_form_lists_members_sorted_and_keeps_float_fractions() {
        let mut r = TableReport::new("Table \"T\"");
        r.push(Comparison::counts("a", 100, 103));
        r.push(Comparison::ratios("b", 2.5, 0.1));
        assert_eq!(
            TableReport::all_to_wire(&[r]).encode(),
            r#"[{"comparisons":[{"measured":103.0,"name":"a","paper":100.0},{"measured":0.1,"name":"b","paper":2.5}],"title":"Table \"T\""}]"#
        );
    }

    #[test]
    fn report_worst_deviation() {
        let mut r = TableReport::new("Table T");
        r.push(Comparison::counts("a", 100, 100));
        r.push(Comparison::counts("b", 100, 90));
        assert!((r.worst_deviation() - 0.1).abs() < 1e-9);
        assert!(r.to_string().contains("Table T"));
    }
}

impl TableReport {
    /// Renders the report as a GitHub-flavored markdown table.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "\n**{}**\n", self.title);
        let _ = writeln!(out, "| quantity | paper | measured (de-scaled) | ratio |");
        let _ = writeln!(out, "|---|---:|---:|---:|");
        for c in &self.comparisons {
            let _ = writeln!(
                out,
                "| {} | {:.0} | {:.0} | {:.3} |",
                c.name,
                c.paper,
                c.measured,
                c.ratio()
            );
        }
        out
    }
}

#[cfg(test)]
mod markdown_tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut r = TableReport::new("Table T");
        r.push(Comparison::counts("rows", 100, 99));
        let md = r.to_markdown();
        assert!(md.contains("**Table T**"));
        assert!(md.contains("| rows | 100 | 99 | 0.990 |"));
        assert!(md.starts_with('\n'));
    }
}
