//! `orbench`: the repository's benchmark.
//!
//! Four fixed-work workloads ([`workload`]) run the library the way
//! `orscope campaign` and `orscope serve` do, through its public API.
//! A timed run ([`cold`]) performs one workload's operation ([`scan`],
//! [`serve`]) in fresh child processes and reports their medians as
//! end-to-end metrics; a traced run ([`traced`], [`layers`]) wraps every
//! call into a layer in a span ([`trace`]), counts allocations
//! ([`alloc`]) and reports per-layer metrics. [`aa`] runs the whole
//! benchmark twice on one build to show which numbers repeat. See
//! `README.md` for the method and `AA.md` for the measurements behind
//! it.

pub mod aa;
pub mod alloc;
pub mod cli;
pub mod cold;
pub mod host;
pub mod layers;
pub mod report;
pub mod scan;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;
