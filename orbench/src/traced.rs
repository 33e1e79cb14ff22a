//! The traced run: one workload's operation executed once under spans
//! and the counting allocator, plus the isolated layer timings, turned
//! into the per-layer metrics.
//!
//! End-to-end metrics never come from here; `wall_s`, `cpu_s` and
//! `events_per_s` come from untraced reps ([`reference`]) that the timed
//! binary runs on the system allocator. Phase times inside a
//! campaign come from a surface the program already exposes
//! (`CampaignResult::telemetry()` phase spans); everything else is a
//! span this file opens around a call into a layer's public API.
//!
//! A metric a workload does not exercise reads 0 (the scan workloads
//! run no HTTP surface; that is what `observe.http_*` = 0 means).

use std::time::Instant;

use orscope_core::{Campaign, CampaignConfig};
use orscope_netsim::NetStats;
use orscope_resolver::population::{Population, PopulationConfig};
use serde_json::{json, Value};

use crate::alloc::{self, AllocDelta, AllocSnapshot};
use crate::layers::{self, Isolated};
use crate::report::{Metric, Outcome};
use crate::scan;
use crate::serve::{self, HttpSample};
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{Params, Workload};

/// Where one campaign shape spends its time and memory, summed over
/// `rounds` runs (1 for the scan workloads; many tiny rounds for the
/// serve workload's per-epoch campaign).
#[derive(Debug, Clone, Default)]
pub struct CampaignTrace {
    /// `Population::generate`.
    pub population_s: f64,
    /// Live bytes the populations retained.
    pub population_bytes: i64,
    /// Hosts generated (resolvers, off-port responders, upstreams).
    pub hosts: u64,
    /// `Campaign::run_with_population`, whole.
    pub run_s: f64,
    /// `phase.probe`: the event loop (the slowest shard's).
    pub probe_s: f64,
    /// `phase.analyze`: merging shard outcomes.
    pub merge_s: f64,
    /// `render()` + `to_json()`.
    pub render_s: f64,
    /// `table_reports()` alone.
    pub tables_render_s: f64,
    /// Allocations made by `run_with_population`.
    pub allocs: AllocDelta,
    /// Highest live heap during `run_with_population`, bytes.
    pub peak_live: u64,
    /// Simulator counters, summed.
    pub net: NetStats,
    /// Q1 probes sent, summed.
    pub probes: u64,
    /// R2 responses captured, summed.
    pub r2: u64,
    /// Q2 + R1 packets the authoritative server saw, summed.
    pub server_packets: u64,
    /// Peak materialized hosts (max over rounds).
    pub materialized: u64,
    /// Whether every round's result was sound.
    pub ok: bool,
}

impl CampaignTrace {
    /// Planning: what `run_with_population` does outside the event loop
    /// and the merge (targets, threat/geo seeding, partition, shard
    /// assembly).
    pub fn plan_s(&self) -> f64 {
        (self.run_s - self.probe_s - self.merge_s).max(0.0)
    }

    /// Population build, run and render together: the operation's wall.
    pub fn total_s(&self) -> f64 {
        self.population_s + self.run_s + self.render_s
    }

    /// The share of the wall no second shard can shorten.
    pub fn serial_share(&self) -> f64 {
        (self.population_s + self.plan_s() + self.merge_s + self.render_s) / self.total_s()
    }
}

fn span_seconds(result: &orscope_core::CampaignResult, name: &str) -> f64 {
    result
        .telemetry()
        .and_then(|snapshot| snapshot.spans.get(name))
        .map_or(0.0, |span| span.wall_nanos as f64 / 1e9)
}

/// The population `Campaign::run` would build for `config`.
fn population_config(config: &CampaignConfig) -> PopulationConfig {
    let mut population = PopulationConfig::new(config.year, config.scale);
    population.seed = config.seed;
    population.reserved_hosts = config.infra.addresses();
    population.off_port_responders = config.off_port_responders;
    population.forwarder_fraction = config.forwarder_fraction;
    population
}

/// Runs `config` `rounds` times (seed advancing per round), each call
/// into a layer under its own span, and sums where the time went.
/// Allocations are counted on single-shard configurations only: shard
/// threads contending for the counters would distort the timings.
pub fn trace_campaign(config: &CampaignConfig, rounds: u64, tracer: &mut Tracer) -> CampaignTrace {
    let mut out = CampaignTrace {
        ok: true,
        ..CampaignTrace::default()
    };
    alloc::set_counting(config.shards == 1);
    for round in 0..rounds {
        let config = config.clone().with_seed(config.seed.wrapping_add(round));

        let before = AllocSnapshot::now();
        let started = Instant::now();
        let population = tracer.span("resolver.population_generate", |_| {
            Population::generate(&population_config(&config))
        });
        out.population_s += started.elapsed().as_secs_f64();
        out.population_bytes += AllocSnapshot::now().since(&before).retained;
        out.hosts += (population.resolvers.len()
            + population.off_port.len()
            + population.upstreams.len()) as u64;

        alloc::reset_peak();
        let before = AllocSnapshot::now();
        let started = Instant::now();
        let result = tracer.span("core.run_with_population", |_| {
            Campaign::new(config.clone())
                .run_with_population(population)
                .expect("benchmark campaign runs")
        });
        out.run_s += started.elapsed().as_secs_f64();
        let allocated = AllocSnapshot::now().since(&before);
        out.allocs.allocs += allocated.allocs;
        out.allocs.bytes += allocated.bytes;
        out.peak_live = out.peak_live.max(alloc::peak_live_bytes());
        out.probe_s += span_seconds(&result, "phase.probe");
        out.merge_s += span_seconds(&result, "phase.analyze");

        let started = Instant::now();
        tracer.span("core.render", |_| {
            std::hint::black_box(result.render());
            std::hint::black_box(result.to_json());
        });
        out.render_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        tracer.span("analysis.table_reports", |_| {
            std::hint::black_box(result.table_reports())
        });
        out.tables_render_s += started.elapsed().as_secs_f64();

        let dataset = result.dataset();
        out.net.absorb(result.net_stats());
        out.probes += dataset.q1;
        out.r2 += dataset.r2();
        out.server_packets += dataset.q2 + dataset.r1;
        out.materialized = out.materialized.max(result.materialized_hosts() as u64);
        out.ok &= scan::result_is_sound(&result);
    }
    alloc::set_counting(false);
    out
}

/// One traced `Observatory::run()`: the run and every client request
/// become spans.
#[derive(Debug, Default)]
pub struct ServeTrace {
    /// Wall time of `Observatory::run()`.
    pub run_s: f64,
    /// Epochs completed.
    pub epochs: u64,
    /// Client latencies, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Requests that did not return a complete `200`.
    pub http_failed: u64,
    /// Whether the serve checks passed.
    pub ok: bool,
}

fn trace_serve(params: &Params, seed: u64, tracer: &mut Tracer) -> ServeTrace {
    tracer.span("observe.serve_rep", |tracer| {
        let rep = serve::serve_rep(params, seed, params.serve_epochs);
        // The run and the client's requests were timed inside
        // `serve_rep`, some on the client's thread; record the instants
        // they took.
        tracer.record("observe.run", rep.started, rep.started + rep.wall);
        for sample in &rep.samples {
            tracer.record("observe.http_get", sample.started, sample.ended);
        }
        ServeTrace {
            run_s: rep.wall.as_secs_f64(),
            epochs: rep.epochs,
            latencies_ms: rep.samples.iter().map(HttpSample::latency_ms).collect(),
            http_failed: rep.samples.iter().filter(|sample| !sample.ok).count() as u64,
            ok: rep.ok,
        }
    })
}

/// Untraced in-process reps of the workload's operation: what a traced
/// run takes `wall_s`, `cpu_s` and `events_per_s` from, and what the
/// tracing overhead is taken against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// Median wall of the operation, seconds.
    pub wall_s: f64,
    /// Median process CPU time (user + system) of the same reps, seconds.
    pub cpu_s: f64,
    /// Simulator events of one rep (equal across reps).
    pub events: u64,
    /// `(max - min) / median` of the reps' walls.
    pub rep_spread: f64,
}

/// One warm-up, then `params.reference_reps` timed reps of the
/// workload's operation on the current allocator.
pub fn reference(workload: Workload, params: &Params, seed: u64) -> Reference {
    // (wall, cpu, events) of one rep.
    let rep = || match params.campaign(workload, seed) {
        Some(config) => {
            let rep = scan::scan_rep(&config);
            (rep.wall, rep.cpu, rep.events)
        }
        None => {
            let rep = serve::serve_rep(params, seed, params.serve_epochs);
            (rep.wall, rep.cpu, rep.events)
        }
    };
    rep();
    let reps: Vec<_> = (0..params.reference_reps).map(|_| rep()).collect();
    let walls: Vec<f64> = reps.iter().map(|rep| rep.0.as_secs_f64()).collect();
    let cpus: Vec<f64> = reps.iter().map(|rep| rep.1.as_secs_f64()).collect();
    Reference {
        wall_s: stats::median(&walls),
        cpu_s: stats::median(&cpus),
        events: reps[0].2,
        rep_spread: stats::range_share(&walls),
    }
}

/// Everything a traced run produced: the per-layer outcome and the
/// document written to `trace-<workload>.json`.
#[derive(Debug)]
pub struct TracedRun {
    /// The per-layer metrics and the checks.
    pub outcome: Outcome,
    /// Spans, span totals and metrics as one JSON document.
    pub document: Value,
}

/// Runs the traced pass of `workload`. `reference_run` is the untraced
/// measurement from the timed binary; without it the reps run in this
/// binary (counting allocator still installed, though switched off).
pub fn run(
    workload: Workload,
    params: &Params,
    seed: u64,
    reference_run: Option<Reference>,
) -> TracedRun {
    let reference_run = reference_run.unwrap_or_else(|| reference(workload, params, seed));
    let mut tracer = Tracer::new();

    // The campaign shape: the workload's own, or for the serve workload
    // the tiny round one epoch runs, many times over.
    let (shape, rounds) = match params.campaign(workload, seed) {
        Some(config) => (config, 1),
        None => (params.serve_round(seed), params.layers.proxy_rounds),
    };
    let one_shard = tracer.span("bench.campaign_1shard", |tracer| {
        trace_campaign(&shape.clone().with_shards(1), rounds, tracer)
    });
    let two_shards = tracer.span("bench.campaign_2shard", |tracer| {
        trace_campaign(&shape.clone().with_shards(2), rounds, tracer)
    });
    let own = if shape.shards == 2 {
        &two_shards
    } else {
        &one_shard
    };

    let served =
        (workload == Workload::ServeEpochs).then(|| trace_serve(params, seed, &mut tracer));
    let isolated = tracer.span("bench.isolated_layers", |tracer| {
        layers::isolated(params, seed, tracer)
    });

    let traced_wall = served.as_ref().map_or(own.total_s(), |served| served.run_s);
    let mut metrics = campaign_metrics(own, &one_shard, &two_shards, &isolated);
    metrics.extend(isolated.metrics());
    metrics.extend(serve_metrics(served.as_ref()));
    metrics.extend([
        Metric::new("wall_s", "s", reference_run.wall_s),
        Metric::new("cpu_s", "s", reference_run.cpu_s),
        Metric::new(
            "events_per_s",
            "1/s",
            reference_run.events as f64 / reference_run.wall_s,
        ),
    ]);
    metrics.push(Metric::new(
        "bench.trace_overhead_share",
        "ratio",
        traced_wall / reference_run.wall_s - 1.0,
    ));
    metrics.push(Metric::new(
        "bench.rep_spread",
        "ratio",
        reference_run.rep_spread,
    ));

    let campaigns_ok = one_shard.ok && two_shards.ok;
    let (http_requests, http_failed, serve_ok) = served.as_ref().map_or((0, 0, true), |served| {
        (
            served.latencies_ms.len() as u64,
            served.http_failed,
            served.ok,
        )
    });
    let outcome = Outcome {
        metrics,
        attempted: 2 * rounds + u64::from(served.is_some()) + http_requests,
        failed: u64::from(!campaigns_ok) + u64::from(!serve_ok) + http_failed,
        notes: vec![
            ("traced_wall_s", format!("{traced_wall:.6}")),
            ("reference_wall_s", format!("{:.6}", reference_run.wall_s)),
            ("spans", tracer.spans().len().to_string()),
        ],
    };

    let totals: Vec<Value> = tracer
        .totals()
        .iter()
        .map(|(name, totals)| {
            json!({ "name": name, "count": totals.count, "total_ns": totals.total_ns, "self_ns": totals.self_ns })
        })
        .collect();
    let metric_values = outcome.metrics.iter().map(|metric| {
        (
            metric.name.to_owned(),
            json!({ "value": metric.value, "unit": metric.unit }),
        )
    });
    let document = json!({
        "workload": workload.name(),
        "seed": seed,
        "params": params.to_json(),
        "metrics": Value::Object(metric_values.collect()),
        "span_totals": totals,
        "spans": tracer.to_json(),
    });
    TracedRun { outcome, document }
}

/// The metrics read off the campaign traces, attributed with the
/// isolated per-operation costs.
fn campaign_metrics(
    own: &CampaignTrace,
    one_shard: &CampaignTrace,
    two_shards: &CampaignTrace,
    isolated: &Isolated,
) -> Vec<Metric> {
    let events = own.net.events.max(1) as f64;
    let ns_per_event = own.probe_s * 1e9 / events;
    let timer_share = own.net.timers_fired as f64 / events;
    // What the simulator alone would charge for this mix of timer and
    // datagram events; the rest of an event's cost is the endpoints
    // (resolver, authns, prober, capture, analysis).
    let netsim_floor = timer_share * isolated.timer_ns + (1.0 - timer_share) * isolated.datagram_ns;
    // Operation counts times isolated unit costs: every delivered
    // datagram is decoded once and every sent one encoded once; each R2
    // and each server packet (Q2 in, R1 out) is ingested once.
    let attributed_ns = own.net.timers_fired as f64 * isolated.timer_ns
        + own.net.delivered as f64 * (isolated.datagram_ns + isolated.decode_ns)
        + own.net.sent as f64 * isolated.encode_ns
        + own.r2 as f64 * isolated.ingest_r2_ns
        + own.server_packets as f64 * isolated.ingest_auth_ns;
    let one_events = one_shard.net.events.max(1) as f64;
    vec![
        Metric::new("resolver.population_generate_s", "s", own.population_s),
        Metric::new(
            "resolver.population_bytes_per_host",
            "B",
            one_shard.population_bytes as f64 / one_shard.hosts.max(1) as f64,
        ),
        Metric::new("core.plan_s", "s", own.plan_s()),
        Metric::new("core.probe_s", "s", own.probe_s),
        Metric::new("core.ns_per_event", "ns", ns_per_event),
        Metric::new("core.merge_s", "s", own.merge_s),
        Metric::new("core.render_s", "s", own.render_s),
        Metric::new("core.serial_share", "ratio", two_shards.serial_share()),
        Metric::new(
            "core.shard_speedup",
            "ratio",
            one_shard.total_s() / two_shards.total_s(),
        ),
        Metric::new(
            "core.allocs_per_event",
            "count",
            one_shard.allocs.allocs as f64 / one_events,
        ),
        Metric::new(
            "core.alloc_bytes_per_event",
            "B",
            one_shard.allocs.bytes as f64 / one_events,
        ),
        Metric::new(
            "core.peak_live_mb",
            "MiB",
            one_shard.peak_live as f64 / (1024.0 * 1024.0),
        ),
        Metric::new(
            "core.endpoint_ns_per_event",
            "ns",
            ns_per_event - netsim_floor,
        ),
        Metric::new(
            "core.unattributed_share",
            "ratio",
            1.0 - attributed_ns / (own.probe_s * 1e9).max(1.0),
        ),
        Metric::new(
            "netsim.events_per_probe",
            "ratio",
            events / own.probes.max(1) as f64,
        ),
        Metric::new("netsim.timer_share", "ratio", timer_share),
        Metric::new(
            "netsim.unrouted_share",
            "ratio",
            own.net.unrouted as f64 / own.net.sent.max(1) as f64,
        ),
        Metric::new("netsim.materialized_peak", "count", own.materialized as f64),
        Metric::new("analysis.tables_render_s", "s", own.tables_render_s),
    ]
}

/// The serve workload's own metrics; zeros for a workload that serves
/// nothing.
fn serve_metrics(served: Option<&ServeTrace>) -> Vec<Metric> {
    let (p50, max, requests, epochs_per_s) = served.map_or((0.0, 0.0, 0.0, 0.0), |served| {
        let latencies = &served.latencies_ms;
        // One run holds ~90 requests: too few for a 99th percentile, so
        // the tail is reported as the worst request seen.
        let (p50, max) = if latencies.is_empty() {
            (0.0, 0.0)
        } else {
            (
                stats::median(latencies),
                latencies.iter().copied().fold(0.0, f64::max),
            )
        };
        (
            p50,
            max,
            latencies.len() as f64,
            served.epochs as f64 / served.run_s,
        )
    });
    vec![
        Metric::new("observe.http_p50_ms", "ms", p50),
        Metric::new("observe.http_max_ms", "ms", max),
        Metric::new("observe.http_requests", "count", requests),
        Metric::new("observe.epochs_per_s", "1/s", epochs_per_s),
    ]
}
