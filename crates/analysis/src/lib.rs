#![warn(missing_docs)]
//! Behavioral analysis of captured R2 responses: classification, flow
//! accounting, and generators for every table in the paper.
//!
//! The input is the raw capture from a campaign (prober-side R2 packets
//! plus the authoritative server's Q2/R1 counters); the output is the
//! paper's evaluation, table by table:
//!
//! | Module item | Paper artifact |
//! |---|---|
//! | [`tables::Table2`] | Table II (probe summary) |
//! | [`tables::Table3`] | Table III (answer presence/correctness) |
//! | [`tables::Table4`] | Table IV (RA flag) |
//! | [`tables::Table5`] | Table V (AA flag) |
//! | [`tables::Table6`] | Table VI (rcode distribution) |
//! | [`tables::Table7`] | Table VII (incorrect answer forms) |
//! | [`tables::Table8`] | Table VIII (top-10 incorrect IPs) |
//! | [`tables::Table9`] | Table IX (threat categories) |
//! | [`tables::Table10`] | Table X (flags on malicious responses) |
//! | [`tables::CountryTable`] | §IV-C2 country distribution |
//! | [`tables::EmptyQuestionReport`] | §IV-B4 empty-question analysis |
//!
//! Every table type knows how to compute itself from a [`Dataset`], how
//! to reproduce the paper's published column from the calibrated
//! [`orscope_resolver::paper::YearSpec`], and how to render itself.

pub mod classify;
pub mod dataset;
pub mod flows;
pub mod report;
pub mod stream;
pub mod tables;

pub use classify::classify;
pub use dataset::Dataset;
pub use flows::FlowSummary;
pub use orscope_authns::RecordSink;
pub use report::{Comparison, TableReport};
pub use stream::{AnalysisMode, StreamingAnalyzer};
