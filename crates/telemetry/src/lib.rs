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
//! - **[`Collector`]** — a registry of shared [`Counter`] and [`Gauge`]
//!   cells for what really is concurrent (a service's gauges, read by
//!   HTTP workers while the epoch loop writes them). Registration takes
//!   a lock once; afterwards a recording is one relaxed atomic
//!   operation.
//! - **[`PhaseSpan`]** — lightweight phase timers keyed to **SimNet
//!   virtual time**: each span records wall-clock nanoseconds from a
//!   monotonic clock *and* virtual nanoseconds supplied by the caller
//!   (e.g. `finished_at` from the probe phase).
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

mod collector;
mod metric;
mod snapshot;
mod span;

pub use collector::{Collector, Scope};
pub use metric::{bucket_bounds, bucket_index, Counter, Gauge, Histogram, BUCKET_COUNT};
pub use snapshot::{MetricValue, SpanSnapshot, TelemetrySnapshot};
pub use span::PhaseSpan;
