//! Telemetry wiring for the simulation engine.

use orscope_telemetry::{Collector, Counter, Gauge, Scope};

use crate::stats::NetStats;

/// Metric handles for one [`crate::SimNet`]. The simulator itself keeps
/// only [`NetStats`]; whoever owns the run publishes the finished totals
/// here once (see [`NetTelemetry::publish`]), so the event loop pays
/// nothing for telemetry.
///
/// Datagram counts mirror [`crate::NetStats`] field-for-field and are
/// [`Scope::Global`]: for a failure-free configuration they are per-flow
/// deterministic and therefore shard-invariant. Event-loop counts and
/// the queue high-water mark depend on how hosts were partitioned, so
/// they are [`Scope::Shard`].
#[derive(Clone, Debug, Default)]
pub struct NetTelemetry {
    /// `net.datagrams_sent` — datagrams handed to the wire.
    pub datagrams_sent: Counter,
    /// `net.datagrams_lost` — datagrams dropped by the loss model.
    pub datagrams_lost: Counter,
    /// `net.datagrams_duplicated` — extra copies from the duplication model.
    pub datagrams_duplicated: Counter,
    /// `net.datagrams_delivered` — datagrams handed to an endpoint.
    pub datagrams_delivered: Counter,
    /// `net.datagrams_unrouted` — datagrams addressed to no host.
    pub datagrams_unrouted: Counter,
    /// `net.bytes_delivered` — payload bytes across delivered datagrams.
    pub bytes_delivered: Counter,
    /// `net.faults_injected` — impairments applied by the fault plan.
    /// Hashed per-flow draws make this shard-invariant.
    pub faults_injected: Counter,
    /// `net.blackhole_drops` — datagrams swallowed by blackhole windows.
    pub blackhole_drops: Counter,
    /// `net.crash_drops` — deliveries/timers dropped in crash windows.
    pub crash_drops: Counter,
    /// `net.events_processed` — event-loop iterations: timers and
    /// datagrams that travelled, not sends settled as unrouted on the
    /// spot (shard-scoped).
    pub events_processed: Counter,
    /// `net.timers_fired` — timer events dispatched (shard-scoped).
    pub timers_fired: Counter,
    /// `net.event_queue_depth_hwm` — queue depth high-water mark
    /// (shard-scoped).
    pub event_queue_depth_hwm: Gauge,
}

impl NetTelemetry {
    /// Resolves every handle against `collector`.
    pub fn from_collector(collector: &Collector) -> Self {
        Self {
            datagrams_sent: collector.counter(Scope::Global, "net.datagrams_sent"),
            datagrams_lost: collector.counter(Scope::Global, "net.datagrams_lost"),
            datagrams_duplicated: collector.counter(Scope::Global, "net.datagrams_duplicated"),
            datagrams_delivered: collector.counter(Scope::Global, "net.datagrams_delivered"),
            datagrams_unrouted: collector.counter(Scope::Global, "net.datagrams_unrouted"),
            bytes_delivered: collector.counter(Scope::Global, "net.bytes_delivered"),
            faults_injected: collector.counter(Scope::Global, "net.faults_injected"),
            blackhole_drops: collector.counter(Scope::Global, "net.blackhole_drops"),
            crash_drops: collector.counter(Scope::Global, "net.crash_drops"),
            events_processed: collector.counter(Scope::Shard, "net.events_processed"),
            timers_fired: collector.counter(Scope::Shard, "net.timers_fired"),
            event_queue_depth_hwm: collector.gauge(Scope::Shard, "net.event_queue_depth_hwm"),
        }
    }

    /// Adds a run's totals to the handles: every [`NetStats`] field to
    /// its counter, `queue_depth_hwm` to the high-water gauge.
    pub fn publish(&self, stats: &NetStats, queue_depth_hwm: usize) {
        self.datagrams_sent.add(stats.sent);
        self.datagrams_lost.add(stats.lost);
        self.datagrams_duplicated.add(stats.duplicated);
        self.datagrams_delivered.add(stats.delivered);
        self.datagrams_unrouted.add(stats.unrouted);
        self.bytes_delivered.add(stats.bytes_delivered);
        self.faults_injected.add(stats.faults_injected);
        self.blackhole_drops.add(stats.blackhole_drops);
        self.crash_drops.add(stats.crash_drops);
        self.events_processed.add(stats.events);
        self.timers_fired.add(stats.timers_fired);
        self.event_queue_depth_hwm
            .record_max(queue_depth_hwm as u64);
    }
}
