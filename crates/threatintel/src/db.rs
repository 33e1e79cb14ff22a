//! The reputation database.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use crate::category::Category;
use crate::report::Report;

/// A queryable store of per-IP threat reports, mimicking the Cymon API.
///
/// # Example
///
/// ```
/// use orscope_threatintel::{Category, Report, ThreatDb};
/// use std::net::Ipv4Addr;
///
/// let mut db = ThreatDb::new();
/// let ip = Ipv4Addr::new(208, 91, 197, 91);
/// db.add_report(ip, Report::new(Category::Malware));
/// db.add_report(ip, Report::new(Category::Malware));
/// db.add_report(ip, Report::new(Category::Phishing));
/// assert_eq!(db.dominant_category(ip), Some(Category::Malware));
/// assert!(db.is_reported(ip));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThreatDb {
    reports: HashMap<Ipv4Addr, Vec<Report>>,
}

impl ThreatDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a report for `ip`.
    pub fn add_report(&mut self, ip: Ipv4Addr, report: Report) {
        self.reports.entry(ip).or_default().push(report);
    }

    /// Seeds `ip` with `count` reports of `category` (bulk loading).
    pub fn seed(&mut self, ip: Ipv4Addr, category: Category, count: usize) {
        let entry = self.reports.entry(ip).or_default();
        for day in 0..count {
            entry.push(Report::new(category).on_day(day as u32));
        }
    }

    /// All reports for `ip` (empty slice if never reported).
    pub fn lookup(&self, ip: Ipv4Addr) -> &[Report] {
        self.reports.get(&ip).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `ip` has at least one report.
    pub fn is_reported(&self, ip: Ipv4Addr) -> bool {
        self.reports.contains_key(&ip)
    }

    /// The most frequently reported category for `ip`, the paper's rule
    /// for multi-category addresses (Table IX). Ties break toward the
    /// earlier category in Table IX order (Malware first), matching the
    /// severity-leaning reading of the paper.
    pub fn dominant_category(&self, ip: Ipv4Addr) -> Option<Category> {
        let reports = self.reports.get(&ip)?;
        let mut counts: HashMap<Category, usize> = HashMap::new();
        for r in reports {
            *counts.entry(r.category).or_default() += 1;
        }
        Category::ALL
            .iter()
            .copied()
            .filter_map(|c| counts.get(&c).map(|&n| (c, n)))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(c, _)| c)
    }

    /// Number of distinct reported addresses.
    pub fn reported_address_count(&self) -> usize {
        self.reports.len()
    }

    /// Iterates `(ip, dominant category)` over all reported addresses.
    pub fn iter_dominant(&self) -> impl Iterator<Item = (Ipv4Addr, Category)> + '_ {
        self.reports
            .keys()
            .map(move |&ip| (ip, self.dominant_category(ip).expect("reported ip")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IP: Ipv4Addr = Ipv4Addr::new(74, 220, 199, 15);

    #[test]
    fn empty_db() {
        let db = ThreatDb::new();
        assert!(!db.is_reported(IP));
        assert_eq!(db.dominant_category(IP), None);
        assert!(db.lookup(IP).is_empty());
        assert_eq!(db.reported_address_count(), 0);
    }

    #[test]
    fn dominant_is_most_frequent() {
        let mut db = ThreatDb::new();
        db.seed(IP, Category::Phishing, 5);
        db.seed(IP, Category::Malware, 2);
        assert_eq!(db.dominant_category(IP), Some(Category::Phishing));
        assert_eq!(db.lookup(IP).len(), 7);
    }

    #[test]
    fn ties_break_toward_earlier_table_ix_row() {
        let mut db = ThreatDb::new();
        db.seed(IP, Category::Botnet, 3);
        db.seed(IP, Category::Malware, 3);
        assert_eq!(db.dominant_category(IP), Some(Category::Malware));
    }

    #[test]
    fn single_report_dominates() {
        let mut db = ThreatDb::new();
        db.add_report(IP, Report::new(Category::Scan));
        assert_eq!(db.dominant_category(IP), Some(Category::Scan));
    }

    #[test]
    fn iter_dominant_covers_all() {
        let mut db = ThreatDb::new();
        db.seed(IP, Category::Malware, 1);
        db.seed(Ipv4Addr::new(1, 2, 3, 4), Category::Spam, 2);
        let mut cats: Vec<_> = db.iter_dominant().collect();
        cats.sort();
        assert_eq!(cats.len(), 2);
        assert_eq!(db.reported_address_count(), 2);
    }
}
