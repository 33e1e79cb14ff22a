#![warn(missing_docs)]
//! Open-resolver behavior: a real recursive resolver, the misbehavior
//! profiles the paper observes in the wild, and the per-year calibrated
//! population generator.
//!
//! The paper's subject is the *behavior* of ~6.5 million hosts that
//! answered a DNS probe in 2018 (16.7 million in 2013): honest open
//! resolvers, resolvers that answer with the wrong flags, resolvers that
//! return wrong or outright malicious addresses, and broken devices that
//! return empty or malformed packets. This crate models each of those as
//! an explicit, testable [`ResponsePolicy`] attached to a simulated host:
//!
//! - [`engine::ProfiledResolver`] is the host endpoint. Policies that
//!   require a *correct* answer really recurse through the simulated
//!   root / TLD / authoritative hierarchy (with caching, retries and
//!   timeouts); policies that misbehave answer from their configuration.
//! - [`paper`] holds the per-year cell counts recovered from the paper's
//!   Tables II-X, including the joint flag/answer/rcode decomposition
//!   and the malicious answer-address pools.
//! - [`population`] turns those cells into a concrete, scaled population
//!   of `(address, policy)` pairs whose aggregate R2 stream reproduces
//!   the paper's tables through the full measurement pipeline.

pub mod cache;
pub mod engine;
pub mod intern;
pub mod paper;
pub mod population;
pub mod profile;
pub mod scaling;

pub use cache::DnsCache;
pub use engine::{ProfiledResolver, ResolverStats};
pub use intern::{ProfileTable, COUNTRY_NONE};
pub use population::{HostList, HostRef, Member, Population, PopulationConfig};
pub use profile::{
    AnswerData, ForwardPolicy, ImmediateResponse, ProfileClass, RecursePolicy, ResponseAction,
    ResponsePolicy,
};
