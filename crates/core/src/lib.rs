#![warn(missing_docs)]
//! End-to-end reproduction campaigns: the paper's whole measurement
//! pipeline, wired together and runnable at any scale.
//!
//! A [`Campaign`] assembles the full Fig. 1 / Fig. 2 topology on the
//! simulated internet — root and TLD servers, the authoritative server
//! for `ucfsealresearch.net` with its zone clusters, the ZMap-style
//! prober, and a calibrated population of (mis)behaving resolvers — runs
//! the scan, classifies the captured R2 stream, and produces every table
//! of the paper's evaluation alongside the published figures.
//!
//! # Quick start
//!
//! ```
//! use orscope_core::{Campaign, CampaignConfig};
//! use orscope_resolver::paper::Year;
//!
//! // A 1:20,000-scale replay of the 2018 scan (fast enough for a test).
//! let config = CampaignConfig::new(Year::Y2018, 20_000.0);
//! let result = Campaign::new(config).run().unwrap();
//! let t3 = result.table3_measured();
//! assert!(t3.0.total() > 200, "hundreds of responders at this scale");
//! assert!(t3.0.err_pct() > 2.0, "2018's elevated error rate shows up");
//! ```

pub mod bus;
pub mod campaign;
#[cfg(test)]
mod eager_oracle;
pub mod error;
mod host;
pub mod infra;
pub mod integrity;
mod plan;
mod recorder;
pub mod result;
pub mod supervise;
pub mod sync;
pub mod tap;

pub use bus::{Captured, Record, RecordBus, DEFAULT_TAP_CAPACITY};
pub use campaign::{Campaign, CampaignConfig};
pub use error::{CampaignError, ShardSabotage};
pub use infra::Infra;
pub use orscope_analysis::AnalysisMode;
pub use result::CampaignResult;
pub use supervise::{supervise, Supervised};
pub use tap::{PredicateError, TapPredicate, TapSubscriber};
