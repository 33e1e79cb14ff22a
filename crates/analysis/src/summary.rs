//! Executive summary: the paper's abstract-level claims, written from
//! measured data.
//!
//! The abstract asserts four things: (1) millions of open resolvers
//! still exist, (2) many deviate from the standard, (3) tens of
//! thousands answer maliciously, and (4) between 2013 and 2018 the
//! population shrank while the malicious subset grew. Given the two
//! measured datasets, [`TemporalSummary`] recomputes each claim and
//! renders the comparison as prose, so a campaign's output ends the way
//! the paper begins.

use crate::dataset::Dataset;
use crate::tables::{AnswerBreakdown, FlagTable, Table3, Table4, Table5, Table9};
use orscope_lookup::threatintel::ThreatDb;

/// One scan's headline numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanSummary {
    /// Calendar year of the scan.
    pub year: u16,
    /// Responses captured (de-scaled).
    pub responders: u64,
    /// Open resolvers by the strict criterion (RA=1 and a correct
    /// answer), the paper's §IV-B1 estimate.
    pub open_resolvers_strict: u64,
    /// Responses deviating from the standard: RA=0 with an answer plus
    /// AA=1 from a non-authoritative host.
    pub(crate) standard_deviants: u64,
    /// Incorrect answers.
    pub incorrect: u64,
    /// Threat-reported (malicious) answers.
    pub malicious: u64,
}

impl ScanSummary {
    /// Computes the summary from a dataset (counts de-scaled to paper
    /// scale via the dataset's own factor).
    pub fn compute(ds: &Dataset, threat: &ThreatDb) -> Self {
        Self::from_tables(
            ds.year.as_u16(),
            ds.scale,
            ds.r2(),
            Table3::measured(ds).0,
            Table4::measured(ds).0,
            Table5::measured(ds).0,
            &Table9::measured(ds, threat),
        )
    }

    /// Assembles the summary from already-computed tables, so streaming
    /// accumulators and the batch dataset share one definition of the
    /// headline numbers.
    pub fn from_tables(
        year: u16,
        scale: f64,
        r2: u64,
        t3: AnswerBreakdown,
        t4: FlagTable,
        t5: FlagTable,
        t9: &Table9,
    ) -> Self {
        let descale = |measured: u64| (measured as f64 * scale).round() as u64;
        Self {
            year,
            responders: descale(r2),
            open_resolvers_strict: descale(t4.flag1.w_corr),
            standard_deviants: descale(t4.flag0.w() + t5.flag1.total()),
            incorrect: descale(t3.w_incorr),
            malicious: descale(t9.total_r2()),
        }
    }
}

/// The 2013-vs-2018 contrast, with the abstract's claims checked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalSummary {
    /// The earlier scan.
    pub earlier: ScanSummary,
    /// The later scan.
    pub later: ScanSummary,
}

impl TemporalSummary {
    /// Pairs two scan summaries (earlier year first).
    ///
    /// # Panics
    ///
    /// Panics if the summaries are not in chronological order.
    pub fn new(earlier: ScanSummary, later: ScanSummary) -> Self {
        assert!(earlier.year < later.year, "summaries out of order");
        Self { earlier, later }
    }

    /// Claim 1: millions of open resolvers still exist in the later scan.
    pub(crate) fn millions_still_exist(&self) -> bool {
        self.later.open_resolvers_strict >= 1_000_000
    }

    /// Claim 2: the population declined significantly (by at least half).
    pub(crate) fn population_declined(&self) -> bool {
        self.later.responders * 2 <= self.earlier.responders
    }

    /// Claim 3: the number of incorrect answers stayed of the same order
    /// (within a factor of two) despite the decline.
    pub(crate) fn incorrect_held_steady(&self) -> bool {
        let (a, b) = (self.earlier.incorrect, self.later.incorrect);
        a.max(b) <= 2 * a.min(b)
    }

    /// Claim 4: malicious answers increased.
    pub(crate) fn malicious_increased(&self) -> bool {
        self.later.malicious > self.earlier.malicious
    }

    /// Whether every abstract claim reproduces.
    pub fn all_claims_hold(&self) -> bool {
        self.millions_still_exist()
            && self.population_declined()
            && self.incorrect_held_steady()
            && self.malicious_increased()
    }
}

impl std::fmt::Display for TemporalSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (e, l) = (&self.earlier, &self.later);
        writeln!(
            f,
            "Between {} and {}, the responding population fell from {} to {} \
             ({}x), and strict open resolvers from {} to {}.",
            e.year,
            l.year,
            e.responders,
            l.responders,
            format_ratio(l.responders, e.responders),
            e.open_resolvers_strict,
            l.open_resolvers_strict,
        )?;
        writeln!(
            f,
            "Standard deviations persisted ({} -> {} flag-anomalous responses), \
             incorrect answers held near constant ({} -> {}), and responses \
             pointing at threat-reported addresses rose from {} to {} ({}x).",
            e.standard_deviants,
            l.standard_deviants,
            e.incorrect,
            l.incorrect,
            e.malicious,
            l.malicious,
            format_ratio(l.malicious, e.malicious),
        )?;
        write!(
            f,
            "Conclusion: the threat did not shrink with the population — \
             abstract claims {}.",
            if self.all_claims_hold() {
                "reproduce"
            } else {
                "DO NOT reproduce"
            }
        )
    }
}

fn format_ratio(num: u64, den: u64) -> String {
    if den == 0 {
        "inf".to_owned()
    } else {
        format!("{:.2}", num as f64 / den as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(
        year: u16,
        responders: u64,
        strict: u64,
        incorrect: u64,
        malicious: u64,
    ) -> ScanSummary {
        ScanSummary {
            year,
            responders,
            open_resolvers_strict: strict,
            standard_deviants: responders / 20,
            incorrect,
            malicious,
        }
    }

    #[test]
    fn paper_numbers_satisfy_every_claim() {
        let t = TemporalSummary::new(
            summary(2013, 16_660_123, 11_505_481, 121_293, 12_874),
            summary(2018, 6_506_258, 2_748_568, 111_093, 26_926),
        );
        assert!(t.millions_still_exist());
        assert!(t.population_declined());
        assert!(t.incorrect_held_steady());
        assert!(t.malicious_increased());
        assert!(t.all_claims_hold());
        let text = t.to_string();
        assert!(text.contains("reproduce"));
        assert!(!text.contains("DO NOT"));
    }

    #[test]
    fn counterfactual_worlds_fail_the_right_claims() {
        // A world where the threat shrank with the population.
        let t = TemporalSummary::new(
            summary(2013, 16_000_000, 11_000_000, 120_000, 12_000),
            summary(2018, 6_000_000, 2_700_000, 40_000, 5_000),
        );
        assert!(!t.incorrect_held_steady());
        assert!(!t.malicious_increased());
        assert!(!t.all_claims_hold());
        assert!(t.to_string().contains("DO NOT"));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn chronology_enforced() {
        let _ = TemporalSummary::new(summary(2018, 1, 1, 1, 1), summary(2013, 1, 1, 1, 1));
    }
}
