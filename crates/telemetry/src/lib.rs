//! Virtual-time-aware telemetry for the campaign pipeline.
//!
//! A campaign is a black box without structured per-stage output: pacer
//! throughput, simulated-wire delivery rates, resolver cache behaviour,
//! and per-phase wall/virtual time are invisible from the final tables.
//! This crate provides the measurement substrate:
//!
//! - **[`TelemetrySnapshot`]** — named, scoped counters, gauges,
//!   histograms and spans, frozen for export. Each shard's simulation
//!   layers keep plain-integer books (a [`Histogram`] where a
//!   distribution matters); when the shard is done they are entered
//!   into its snapshot once, and per-shard snapshots merge via
//!   [`TelemetrySnapshot::absorb`], mirroring `NetStats::absorb`, so a
//!   sharded campaign exports the same [`Scope::Global`] metrics
//!   regardless of the shard layout.
//! - **[`SpanSnapshot`]** — a phase's wall-clock and **SimNet virtual**
//!   nanoseconds, entered into a snapshot by whoever timed the phase
//!   ([`TelemetrySnapshot::finish_phase`]: the campaign for population
//!   build and analysis, the shard for the probe phase).
//!
//! The crate keeps no registry and no shared cells: a count lives in
//! the book of the layer that counts it, and a long-running service
//! keeps its own atomics and enters them into a snapshot when scraped.
//!
//! # Scopes and shard invariance
//!
//! Not every quantity survives re-partitioning: event-loop counts, pacer
//! tick counts, and queue depths depend on how the address space was
//! split. Metrics therefore carry a [`Scope`]:
//!
//! - [`Scope::Global`] — per-flow deterministic quantities (datagrams
//!   sent/delivered, cache hits, latency histograms). For a failure-free
//!   configuration these are byte-identical across `shards ∈ {1,4,8}`,
//!   and they form the JSON-lines export
//!   ([`TelemetrySnapshot::to_jsonl`]).
//! - [`Scope::Shard`] — layout-dependent diagnostics (queue high-water
//!   marks, timer counts). They appear only in the Prometheus-style text
//!   dump ([`TelemetrySnapshot::to_prometheus_labeled`]), alongside
//!   spans, whose wall-clock component is inherently non-deterministic.

#![warn(missing_docs)]

mod metric;
mod snapshot;
mod span;

pub use metric::{bucket_bounds, bucket_index, Histogram, BUCKET_COUNT};
pub use snapshot::{MetricValue, Scope, SpanSnapshot, TelemetrySnapshot};
