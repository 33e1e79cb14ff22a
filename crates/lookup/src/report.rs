//! Individual threat reports.

use std::fmt;

use crate::category::Category;

/// The feed a report came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReportSource {
    /// Aggregated community feed (the Cymon analogue).
    CommunityFeed,
    /// Dedicated ransomware tracker (the abuse.ch analogue that flagged
    /// 208.91.197.91 in the paper).
    RansomwareTracker,
    /// Honeypot-derived sighting.
    Honeypot,
    /// Manual analyst submission.
    Analyst,
}

/// A single report: category, source, and a day-granularity timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// What the address was reported for.
    pub category: Category,
    /// Where the report came from.
    pub source: ReportSource,
    /// Days since the feed epoch (ordering only).
    pub day: u32,
}

impl Report {
    /// Creates a report from the community feed on day 0.
    pub fn new(category: Category) -> Self {
        Self {
            category,
            source: ReportSource::CommunityFeed,
            day: 0,
        }
    }

    /// Builder-style source override.
    pub fn with_source(mut self, source: ReportSource) -> Self {
        self.source = source;
        self
    }

    /// Builder-style day override.
    pub(crate) fn on_day(mut self, day: u32) -> Self {
        self.day = day;
        self
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:?}, day {})", self.category, self.source, self.day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let r = Report::new(Category::Phishing)
            .with_source(ReportSource::Honeypot)
            .on_day(42);
        assert_eq!(r.category, Category::Phishing);
        assert_eq!(r.source, ReportSource::Honeypot);
        assert_eq!(r.day, 42);
    }

    #[test]
    fn display() {
        let r = Report::new(Category::Malware);
        assert!(r.to_string().contains("Malware"));
    }
}
