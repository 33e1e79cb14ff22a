#![warn(missing_docs)]
//! # orscope — behavioral analysis of open DNS resolvers
//!
//! A full, from-scratch reproduction of the measurement system behind
//! *"Where Are You Taking Me? Behavioral Analysis of Open DNS
//! Resolvers"* (Park, Khormali, Mohaisen & Mohaisen, DSN 2019), built on
//! a deterministic simulated IPv4 internet so the Internet-wide scan can
//! be replayed at any scale without scan authorization.
//!
//! The facade re-exports every workspace crate:
//!
//! - [`json`] — the one JSON value, writer and depth-bounded reader
//!   reports, checkpoints and fault plans go through,
//! - [`dns_wire`] — DNS wire format (names, header flags, rdata, codec),
//! - [`netsim`] — the discrete-event simulated internet,
//! - [`ipspace`] — reserved blocks, scan permutations, probeable space,
//! - [`authns`] — authoritative / root / TLD servers and zone clusters,
//! - [`resolver`] — recursive resolution, misbehavior profiles, and the
//!   per-year calibrated population,
//! - [`prober`] — the ZMap-style scanner with subdomain reuse,
//! - [`threatintel`] — the Cymon-like reputation database,
//! - [`geo`] — the ip2location-like geolocation database,
//! - [`analysis`] — classification and the Table II-X generators,
//! - [`telemetry`] — metric registry, virtual-time spans, exporters,
//! - [`core`] — end-to-end campaigns,
//! - [`observe`] — the resolver observatory: rolling campaigns over a
//!   churning population with a live HTTP query/export surface.
//!
//! # Example
//!
//! ```
//! use orscope::core::{Campaign, CampaignConfig};
//! use orscope::resolver::paper::Year;
//!
//! let result = Campaign::new(CampaignConfig::new(Year::Y2018, 20_000.0)).run().unwrap();
//! assert!(result.table3_measured().0.err_pct() > 2.0);
//! ```

pub use orscope_analysis as analysis;
pub use orscope_authns as authns;
pub use orscope_core as core;
pub use orscope_dns_wire as dns_wire;
pub use orscope_ipspace as ipspace;
pub use orscope_json as json;
pub use orscope_lookup::geo;
pub use orscope_lookup::threatintel;
pub use orscope_netsim as netsim;
pub use orscope_observe as observe;
pub use orscope_prober as prober;
pub use orscope_resolver as resolver;
pub use orscope_telemetry as telemetry;
