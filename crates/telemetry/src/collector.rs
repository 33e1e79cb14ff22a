//! The registry of shared metric cells and phase spans.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::metric::{Counter, Gauge};
use crate::snapshot::{MetricValue, SpanSnapshot, TelemetrySnapshot};
use crate::span::PhaseSpan;

/// Whether a metric is deterministic across shard layouts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    /// Per-flow deterministic: for a failure-free configuration the
    /// merged value is byte-identical across shard counts, so the metric
    /// joins the JSON-lines export.
    Global,
    /// Layout-dependent diagnostics (event counts, queue depths, pacer
    /// ticks): exported only in the Prometheus-style dump.
    Shard,
}

impl Scope {
    /// The label value used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Scope::Global => "global",
            Scope::Shard => "shard",
        }
    }
}

/// Per-span accumulation: count of recordings plus the maximum wall and
/// virtual duration seen (max, not sum, so merging parallel shards keeps
/// slowest-shard semantics, like `Dataset::merge` does for duration).
struct SpanCell {
    count: AtomicU64,
    wall_nanos: AtomicU64,
    virt_nanos: AtomicU64,
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, (Scope, Arc<AtomicU64>)>,
    gauges: BTreeMap<String, (Scope, Arc<AtomicU64>)>,
    spans: BTreeMap<String, Arc<SpanCell>>,
}

/// A metric registry for what is written from more than one thread: a
/// service's counters and gauges, and phase spans. Cloning shares the
/// registry (it is a handle); a writer requests its [`Counter`] or
/// [`Gauge`] once and touches only that atomic afterwards.
///
/// The single-threaded simulation layers do not use one: each keeps a
/// plain-integer book that is turned into a [`TelemetrySnapshot`] when
/// the run is over.
#[derive(Clone, Default)]
pub struct Collector {
    inner: Arc<Mutex<Registry>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector").finish_non_exhaustive()
    }
}

impl Collector {
    /// A collector with an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-opens) the counter `name` under `scope`.
    pub fn counter(&self, scope: Scope, name: &str) -> Counter {
        let mut registry = self.inner.lock().expect("registry poisoned");
        let (existing, cell) = registry
            .counters
            .entry(name.to_owned())
            .or_insert_with(|| (scope, Arc::new(AtomicU64::new(0))));
        debug_assert_eq!(*existing, scope, "scope mismatch re-opening counter {name}");
        Counter(cell.clone())
    }

    /// Registers (or re-opens) the gauge `name` under `scope`.
    pub fn gauge(&self, scope: Scope, name: &str) -> Gauge {
        let mut registry = self.inner.lock().expect("registry poisoned");
        let (existing, cell) = registry
            .gauges
            .entry(name.to_owned())
            .or_insert_with(|| (scope, Arc::new(AtomicU64::new(0))));
        debug_assert_eq!(*existing, scope, "scope mismatch re-opening gauge {name}");
        Gauge(cell.clone())
    }

    /// Starts a phase span; [`PhaseSpan::finish`] it (or drop it) to
    /// record.
    pub fn phase(&self, name: &str) -> PhaseSpan {
        PhaseSpan::start(self.clone(), name)
    }

    /// Records one completed span: `wall` from a monotonic clock, plus
    /// the virtual-time duration in SimNet nanoseconds.
    pub fn record_span(&self, name: &str, wall: Duration, virt_nanos: u64) {
        let wall_nanos = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        let mut registry = self.inner.lock().expect("registry poisoned");
        let cell = registry.spans.entry(name.to_owned()).or_insert_with(|| {
            Arc::new(SpanCell {
                count: AtomicU64::new(0),
                wall_nanos: AtomicU64::new(0),
                virt_nanos: AtomicU64::new(0),
            })
        });
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.wall_nanos.fetch_max(wall_nanos, Ordering::Relaxed);
        cell.virt_nanos.fetch_max(virt_nanos, Ordering::Relaxed);
    }

    /// Freezes the registry into an exportable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut snapshot = TelemetrySnapshot::default();
        let registry = self.inner.lock().expect("registry poisoned");
        for (name, (scope, cell)) in &registry.counters {
            snapshot.counters.insert(
                name.clone(),
                MetricValue {
                    scope: *scope,
                    value: cell.load(Ordering::Relaxed),
                },
            );
        }
        for (name, (scope, cell)) in &registry.gauges {
            snapshot.gauges.insert(
                name.clone(),
                MetricValue {
                    scope: *scope,
                    value: cell.load(Ordering::Relaxed),
                },
            );
        }
        for (name, cell) in &registry.spans {
            snapshot.spans.insert(
                name.clone(),
                SpanSnapshot {
                    count: cell.count.load(Ordering::Relaxed),
                    wall_nanos: cell.wall_nanos.load(Ordering::Relaxed),
                    virt_nanos: cell.virt_nanos.load(Ordering::Relaxed),
                },
            );
        }
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_by_name() {
        let collector = Collector::new();
        let a = collector.counter(Scope::Global, "x");
        let b = collector.counter(Scope::Global, "x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(collector.snapshot().counters["x"].value, 3);
    }

    #[test]
    fn span_merges_by_max() {
        let collector = Collector::new();
        collector.record_span("phase.x", Duration::from_nanos(10), 100);
        collector.record_span("phase.x", Duration::from_nanos(30), 40);
        let span = &collector.snapshot().spans["phase.x"];
        assert_eq!(span.count, 2);
        assert_eq!(span.wall_nanos, 30);
        assert_eq!(span.virt_nanos, 100);
    }
}
