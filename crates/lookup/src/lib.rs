#![warn(missing_docs)]
//! The analysis's two seeded lookup tables: where an address is and
//! what it was reported for.
//!
//! - [`geo`]: an ip2location-like geolocation and AS-organization
//!   database. The paper geolocates malicious resolvers with ip2location
//!   and pulls organization names from Whois (Table VIII); this is the
//!   lookup side over locally seeded data: exact `/32` entries plus
//!   range entries, each mapping to a country code, an AS number and an
//!   organization name. RFC 1918 addresses are recognized intrinsically
//!   and answer as "private network", as in Table VIII.
//! - [`threatintel`]: a Cymon-like threat-intelligence reputation
//!   database. The paper validates suspicious answer addresses against
//!   Cymon (and Ransomware Tracker): each IP may carry reports in
//!   categories such as malware, phishing or botnet, and when an address
//!   has reports in several categories the most frequently reported one
//!   is selected (Table IX). Cymon was shut down in 2019; this
//!   reimplements its lookup semantics over a locally seeded report
//!   store.

mod category;
mod db;
mod record;
mod report;

/// Geolocation: IPv4 address to country, AS number and organization.
pub mod geo {
    pub use crate::db::GeoDb;
    pub use crate::record::GeoRecord;
}

/// Threat reputation: per-IP categorized reports and the dominant
/// category of each reported address.
pub mod threatintel {
    pub use crate::category::Category;
    pub use crate::db::ThreatDb;
    pub use crate::report::{Report, ReportSource};
}
