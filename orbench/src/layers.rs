//! Isolated layer timings: each layer's public functions called on
//! their own, outside a campaign, on inputs captured from real
//! campaigns — so a nanosecond figure can be set against the per-event
//! cost of the whole.
//!
//! Every timing runs inside a span named after the layer (the crate)
//! and the call. Counts (allocations per operation) repeat exactly;
//! times are single passes over inputs large enough to swamp the clock.

use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use orscope_analysis::{AnalysisMode, RecordSink, StreamingAnalyzer};
use orscope_authns::CapturedPacket;
use orscope_core::{Campaign, CampaignConfig, RecordBus};
use orscope_dns_wire::{Message, Name};
use orscope_ipspace::{AllowedSpace, ScanPermutation};
use orscope_netsim::{
    Context, Datagram, Endpoint, FaultKind, FaultPlan, FaultRule, FaultScope, SimNet, SimTime,
};
use orscope_observe::{EpochRow, Observatory, ObservatoryCheckpoint, RollingTables};
use orscope_prober::R2Capture;
use orscope_resolver::paper::Year;

use crate::alloc::{self, AllocDelta, AllocSnapshot};
use crate::report::Metric;
use crate::serve;
use crate::trace::Tracer;
use crate::workload::{LayerParams, Params};

/// Real traffic to replay: the R2 stream the prober captured and the
/// Q2/R1 packets the authoritative server saw, payloads included.
#[derive(Debug)]
pub struct Captures {
    /// R2 captures, in capture order.
    pub r2: Vec<R2Capture>,
    /// Authoritative-server packets, chronological.
    pub auth: Vec<CapturedPacket>,
    /// The measurement zone the captures were taken under.
    pub zone: Name,
}

/// Runs two small campaigns to capture replay inputs: streaming with
/// `retain_raw` keeps the R2 payloads, batch keeps the server packets
/// (streaming drops those at capture time).
pub fn capture(params: &LayerParams, seed: u64, tracer: &mut Tracer) -> Captures {
    tracer.span("bench.capture_inputs", |_| {
        let base = CampaignConfig::new(Year::Y2018, params.capture_scale).with_seed(seed);
        let zone = base.infra.zone.clone();
        let streaming = Campaign::new(base.clone().with_retain_raw(true))
            .run()
            .expect("capture campaign runs");
        let r2 = streaming.dataset().raw.clone();
        drop(streaming);
        let batch = Campaign::new(base.with_analysis(AnalysisMode::Batch))
            .run()
            .expect("capture campaign runs");
        Captures {
            r2,
            auth: batch.auth_packets().to_vec(),
            zone,
        }
    })
}

/// Nanoseconds per operation of every isolated timing, with the exact
/// counts measured alongside.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Isolated {
    /// Bare `SimNet` timer: arm + fire, per event.
    pub timer_ns: f64,
    /// Echo ping-pong through an empty fault plan, per event.
    pub datagram_ns: f64,
    /// Allocations per ping-pong event.
    pub datagram_allocs: f64,
    /// Ping-pong under loss + delay rules with a retry timer, per event.
    pub faulted_ns: f64,
    /// `Message::decode` per captured payload.
    pub decode_ns: f64,
    /// `Message::encode_into` (reused scratch) per decoded message.
    pub encode_ns: f64,
    /// Allocations per `encode_into`.
    pub encode_allocs: f64,
    /// Scan permutation step + `AllowedSpace::nth`, per target.
    pub permute_ns: f64,
    /// `RecordSink::on_r2` per captured R2.
    pub ingest_r2_ns: f64,
    /// `RecordSink::on_auth` per captured server packet.
    pub ingest_auth_ns: f64,
    /// `RecordBus::publish_r2` with no subscriber.
    pub bus_0tap_ns: f64,
    /// `RecordBus::publish_r2` with one subscriber that never fills.
    pub bus_1tap_ns: f64,
    /// `RollingTables::absorb_epoch`, microseconds per epoch.
    pub absorb_epoch_us: f64,
    /// `tables_bytes()` at the long history, microseconds.
    pub render_tables_us: f64,
    /// `trends_bytes()` at the long history, microseconds.
    pub render_trends_us: f64,
    /// `trends_bytes()` at the short (seed) history, microseconds.
    pub render_trends_short_us: f64,
    /// Size of the `/tables` document at the long history.
    pub tables_bytes: f64,
    /// `save_generation` at the checkpoint history, milliseconds.
    pub checkpoint_save_ms: f64,
    /// Size of that generation on disk.
    pub checkpoint_bytes: f64,
    /// `recover` of that generation, milliseconds.
    pub recover_ms: f64,
    /// `recover` at the short (seed) history, milliseconds.
    pub recover_short_ms: f64,
}

impl Isolated {
    /// The timings as named metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("netsim.timer_ns_per_event", "ns", self.timer_ns),
            Metric::new("netsim.datagram_ns_per_event", "ns", self.datagram_ns),
            Metric::new(
                "netsim.datagram_allocs_per_event",
                "count",
                self.datagram_allocs,
            ),
            Metric::new("netsim.faulted_ns_per_event", "ns", self.faulted_ns),
            Metric::new("dns-wire.decode_ns", "ns", self.decode_ns),
            Metric::new("dns-wire.encode_ns", "ns", self.encode_ns),
            Metric::new("dns-wire.encode_allocs", "count", self.encode_allocs),
            Metric::new("ipspace.permute_ns_per_target", "ns", self.permute_ns),
            Metric::new("analysis.ingest_ns_per_r2", "ns", self.ingest_r2_ns),
            Metric::new("analysis.ingest_ns_per_auth", "ns", self.ingest_auth_ns),
            Metric::new("core.bus_publish_ns_0tap", "ns", self.bus_0tap_ns),
            Metric::new("core.bus_publish_ns_1tap", "ns", self.bus_1tap_ns),
            Metric::new("observe.absorb_epoch_us", "us", self.absorb_epoch_us),
            Metric::new("observe.render_tables_us", "us", self.render_tables_us),
            Metric::new("observe.render_trends_us", "us", self.render_trends_us),
            Metric::new(
                "observe.render_trends_us_300",
                "us",
                self.render_trends_short_us,
            ),
            Metric::new("observe.tables_bytes", "B", self.tables_bytes),
            Metric::new("observe.checkpoint_save_ms", "ms", self.checkpoint_save_ms),
            Metric::new("observe.checkpoint_bytes", "B", self.checkpoint_bytes),
            Metric::new("observe.recover_ms", "ms", self.recover_ms),
            Metric::new("observe.recover_ms_300", "ms", self.recover_short_ms),
        ]
    }
}

/// Runs every isolated timing.
pub fn isolated(params: &Params, seed: u64, tracer: &mut Tracer) -> Isolated {
    let sizes = &params.layers;
    let captures = capture(sizes, seed, tracer);
    let mut out = Isolated::default();
    netsim_timers(sizes, tracer, &mut out);
    netsim_datagrams(sizes, tracer, &mut out);
    dns_wire(&captures, tracer, &mut out);
    ipspace(sizes, seed, tracer, &mut out);
    analysis_ingest(&captures, tracer, &mut out);
    bus_publish(&captures, tracer, &mut out);
    observe_tables(params, seed, tracer, &mut out);
    out
}

fn nanos_per(elapsed: Duration, operations: u64) -> f64 {
    elapsed.as_nanos() as f64 / operations.max(1) as f64
}

/// Runs `body` with the allocation counters on and returns what it
/// allocated. Only for single-threaded bodies (see `alloc`).
fn counted<T>(body: impl FnOnce() -> T) -> (T, AllocDelta) {
    alloc::set_counting(true);
    let before = AllocSnapshot::now();
    let out = body();
    let delta = AllocSnapshot::now().since(&before);
    alloc::set_counting(false);
    (out, delta)
}

/// Runs `body` in a span and returns its result and duration.
fn timed<T>(tracer: &mut Tracer, name: &str, body: impl FnOnce() -> T) -> (T, Duration) {
    tracer.span(name, |_| {
        let started = Instant::now();
        let out = body();
        (out, started.elapsed())
    })
}

/// Ignores everything: the simulator's own timer machinery is the load.
struct Idle;

impl Endpoint for Idle {
    fn handle_datagram(&mut self, _dgram: &Datagram, _ctx: &mut Context<'_>) {}
}

fn netsim_timers(sizes: &LayerParams, tracer: &mut Tracer, out: &mut Isolated) {
    let host = Ipv4Addr::new(10, 0, 0, 1);
    let (events, elapsed) = timed(tracer, "netsim.timers", || {
        let mut net = SimNet::builder().seed(1).build();
        net.register(host, Idle);
        // xorshift64: scattered, duplicate-heavy fire times over one
        // simulated hour, as a paced scan arms them.
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for token in 0..sizes.timers {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            net.set_timer_for(host, SimTime::from_nanos(x % 3_600_000_000_000), token);
        }
        net.run_until_idle();
        net.stats().events
    });
    assert_eq!(events, sizes.timers, "every timer fires exactly once");
    out.timer_ns = nanos_per(elapsed, events);
}

/// Bounces every datagram back until its budget of replies is spent.
struct Echo {
    replies_left: u64,
}

impl Endpoint for Echo {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        if self.replies_left > 0 {
            self.replies_left -= 1;
            ctx.send(dgram.reply(dgram.payload.clone()));
        }
    }
}

/// Sends numbered pings and re-sends one whose pong has not arrived
/// when its timer fires: the retry path a lossy network exercises.
struct Pinger {
    peer: Ipv4Addr,
    seq: u64,
    limit: u64,
}

impl Pinger {
    const RETRY: Duration = Duration::from_secs(1);

    fn ping(&self, ctx: &mut Context<'_>) {
        ctx.send(Datagram::new(
            (ctx.local_addr(), 4000),
            (self.peer, 53),
            PAYLOAD.to_vec(),
        ));
        ctx.set_timer(Self::RETRY, self.seq);
    }
}

impl Endpoint for Pinger {
    fn handle_datagram(&mut self, _dgram: &Datagram, ctx: &mut Context<'_>) {
        self.seq += 1;
        if self.seq < self.limit {
            self.ping(ctx);
        }
    }

    fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        // A timer whose ping was answered carries a stale sequence number.
        if token == self.seq && self.seq < self.limit {
            self.ping(ctx);
        }
    }
}

/// A 60-byte payload: the size of a typical probe response.
const PAYLOAD: [u8; 60] = [0xA5; 60];

fn netsim_datagrams(sizes: &LayerParams, tracer: &mut Tracer, out: &mut Isolated) {
    let (a, b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));

    let ((events, elapsed), allocated) = counted(|| {
        timed(tracer, "netsim.datagram_pingpong", || {
            let mut net = SimNet::builder().seed(1).build();
            net.register(
                a,
                Echo {
                    replies_left: sizes.hops / 2,
                },
            );
            net.register(
                b,
                Echo {
                    replies_left: sizes.hops / 2,
                },
            );
            net.inject(Datagram::new((a, 4000), (b, 53), PAYLOAD.to_vec()));
            net.run_until_idle();
            net.stats().events
        })
    });
    assert!(
        events >= sizes.hops,
        "the ping-pong ran its full length ({events} events)"
    );
    out.datagram_ns = nanos_per(elapsed, events);
    out.datagram_allocs = allocated.allocs as f64 / events as f64;

    // No end-to-end workload injects faults, so this is the chaos
    // layer's only tripwire: per-datagram verdicts under two always-on
    // rules, plus the retry timers a 1 % loss keeps honest.
    let plan = FaultPlan::seeded(7)
        .with_rule(FaultRule::always(
            FaultScope::All,
            FaultKind::Loss { probability: 0.01 },
        ))
        .with_rule(FaultRule::always(
            FaultScope::All,
            FaultKind::Delay {
                extra: Duration::from_millis(5),
                jitter: Duration::from_millis(5),
            },
        ));
    let (events, elapsed) = timed(tracer, "netsim.faulted_pingpong", || {
        let mut net = SimNet::builder().seed(1).faults(plan).build();
        net.register(
            a,
            Pinger {
                peer: b,
                seq: 0,
                limit: sizes.hops / 2,
            },
        );
        net.register(
            b,
            Echo {
                replies_left: u64::MAX,
            },
        );
        net.set_timer_for(a, SimTime::ZERO, 0);
        net.run_until_idle();
        assert!(net.stats().lost > 0, "the loss rule fired");
        net.stats().events
    });
    out.faulted_ns = nanos_per(elapsed, events);
}

fn dns_wire(captures: &Captures, tracer: &mut Tracer, out: &mut Isolated) {
    let payloads: Vec<&[u8]> = captures
        .r2
        .iter()
        .map(|capture| &capture.payload[..])
        .chain(captures.auth.iter().map(|packet| &packet.payload[..]))
        .collect();
    let ((), elapsed) = timed(tracer, "dns-wire.decode", || {
        // Each message is dropped at once, as an endpoint drops it.
        // Malformed responses are part of the captured traffic; a decode
        // error is a timed outcome like any other.
        for payload in &payloads {
            let _ = std::hint::black_box(Message::decode(payload));
        }
    });
    out.decode_ns = nanos_per(elapsed, payloads.len() as u64);

    // Encoding needs the messages held; a bounded sample keeps that from
    // turning into a page-fault benchmark.
    let messages: Vec<Message> = payloads
        .iter()
        .filter_map(|payload| Message::decode(payload).ok())
        .take(20_000)
        .collect();
    let mut scratch = Vec::with_capacity(4096);
    let (((), elapsed), allocated) = counted(|| {
        timed(tracer, "dns-wire.encode_into", || {
            for message in &messages {
                // A message that decoded may still refuse to re-encode
                // (the decoder is the more lenient side); timed too.
                let _ = message.encode_into(&mut scratch);
                std::hint::black_box(scratch.len());
            }
        })
    });
    out.encode_ns = nanos_per(elapsed, messages.len() as u64);
    out.encode_allocs = allocated.allocs as f64 / messages.len().max(1) as f64;
}

fn ipspace(sizes: &LayerParams, seed: u64, tracer: &mut Tracer, out: &mut Isolated) {
    let space = AllowedSpace::probeable();
    let (targets, elapsed) = timed(tracer, "ipspace.permute_nth", || {
        let permutation = ScanPermutation::new(space.len(), seed ^ 0x51E7);
        let mut checksum = 0u32;
        let mut targets = 0u64;
        for rank in permutation.iter().take(sizes.ranks as usize) {
            let addr = space.nth(rank as u64).expect("rank within the space");
            checksum ^= u32::from(addr);
            targets += 1;
        }
        std::hint::black_box(checksum);
        targets
    });
    out.permute_ns = nanos_per(elapsed, targets);
}

fn analysis_ingest(captures: &Captures, tracer: &mut Tracer, out: &mut Isolated) {
    let mut analyzer = StreamingAnalyzer::new(captures.zone.clone(), false);
    analyzer.reserve_flows(captures.r2.len());
    // Server packets first: in a campaign a flow's Q2/R1 precede its R2.
    let ((), elapsed) = timed(tracer, "analysis.on_auth", || {
        for packet in &captures.auth {
            analyzer.on_auth(packet);
        }
    });
    out.ingest_auth_ns = nanos_per(elapsed, captures.auth.len() as u64);
    let ((), elapsed) = timed(tracer, "analysis.on_r2", || {
        for capture in &captures.r2 {
            analyzer.on_r2(capture);
        }
    });
    out.ingest_r2_ns = nanos_per(elapsed, captures.r2.len() as u64);
    assert!(
        analyzer.r2_classified() > 0,
        "the replay classified responses"
    );
}

fn bus_publish(captures: &Captures, tracer: &mut Tracer, out: &mut Isolated) {
    let bus = RecordBus::new();
    let ((), elapsed) = timed(tracer, "core.bus_publish_0tap", || {
        for capture in &captures.r2 {
            bus.publish_r2(capture);
        }
    });
    out.bus_0tap_ns = nanos_per(elapsed, captures.r2.len() as u64);
    // A lane deep enough never to fill: the cost is the clone and the
    // channel send, not the drop path.
    let receiver = bus.subscribe(captures.r2.len() + 1);
    let ((), elapsed) = timed(tracer, "core.bus_publish_1tap", || {
        for capture in &captures.r2 {
            bus.publish_r2(capture);
        }
    });
    out.bus_1tap_ns = nanos_per(elapsed, captures.r2.len() as u64);
    assert_eq!(receiver.dropped(), 0, "the lane never filled");
}

/// `history` epochs of rolling state built by cycling real epoch rows.
fn history_of(rows: &[EpochRow], history: u64) -> RollingTables {
    let mut tables = RollingTables::default();
    for epoch in 0..history {
        let mut row = rows[epoch as usize % rows.len()].clone();
        row.epoch = epoch;
        row.virtual_day = epoch as f64;
        tables.absorb_epoch(row);
    }
    tables
}

fn micros_per(elapsed: Duration, operations: u32) -> f64 {
    elapsed.as_secs_f64() * 1e6 / f64::from(operations)
}

fn observe_tables(params: &Params, seed: u64, tracer: &mut Tracer, out: &mut Isolated) {
    let sizes = &params.layers;
    let state_dir = serve::output_dir().join(format!("layers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    // Real rows: a short observatory run, no HTTP surface.
    let config = params.serve(seed, sizes.seed_epochs, state_dir.clone());
    let fingerprint = config.fingerprint();
    let rows = tracer.span("observe.seed_rows", |_| {
        let mut observatory = Observatory::new(config).expect("serve configuration is valid");
        observatory.run().expect("seed run completes");
        observatory.shared().tables_snapshot().epochs().to_vec()
    });
    assert_eq!(rows.len() as u64, sizes.seed_epochs);

    let (tables, elapsed) = timed(tracer, "observe.absorb_epochs", || {
        history_of(&rows, sizes.history_epochs)
    });
    out.absorb_epoch_us = elapsed.as_secs_f64() * 1e6 / sizes.history_epochs as f64;

    const RENDERS: u32 = 10;
    let (bytes, elapsed) = timed(tracer, "observe.render_tables", || {
        (0..RENDERS)
            .map(|_| tables.tables_bytes().len())
            .max()
            .unwrap_or(0)
    });
    out.render_tables_us = micros_per(elapsed, RENDERS);
    out.tables_bytes = bytes as f64;
    let (_, elapsed) = timed(tracer, "observe.render_trends", || {
        (0..RENDERS).map(|_| tables.trends_bytes().len()).max()
    });
    out.render_trends_us = micros_per(elapsed, RENDERS);
    let short = history_of(&rows, sizes.seed_epochs);
    let (_, elapsed) = timed(tracer, "observe.render_trends_short", || {
        (0..RENDERS).map(|_| short.trends_bytes().len()).max()
    });
    out.render_trends_short_us = micros_per(elapsed, RENDERS);

    // Save + recover at two history lengths: recovery's cost grows
    // faster than the history, and the pair shows by how much.
    let round_trip = |tracer: &mut Tracer, tables: RollingTables, epochs: u64| {
        let checkpoint = ObservatoryCheckpoint {
            fingerprint: fingerprint.clone(),
            epochs_done: epochs,
            tables,
        };
        let (path, saved) = timed(tracer, "observe.checkpoint_save", || {
            checkpoint
                .save_generation(&state_dir, 3)
                .expect("checkpoint generation is written")
        });
        let (recovery, recovered) = timed(tracer, "observe.recover", || {
            ObservatoryCheckpoint::recover(&state_dir, &fingerprint)
                .expect("state directory is readable")
        });
        let newest = recovery.checkpoint.expect("the saved generation verifies");
        assert_eq!(
            newest.epochs_done, epochs,
            "recovery picked the generation just saved"
        );
        (
            saved,
            recovered,
            std::fs::metadata(&path).map_or(0, |meta| meta.len()),
        )
    };
    let (_, recovered, _) = round_trip(tracer, short, sizes.seed_epochs);
    out.recover_short_ms = recovered.as_secs_f64() * 1e3;
    let (saved, recovered, bytes) = round_trip(
        tracer,
        history_of(&rows, sizes.checkpoint_epochs),
        sizes.checkpoint_epochs,
    );
    out.checkpoint_save_ms = saved.as_secs_f64() * 1e3;
    out.checkpoint_bytes = bytes as f64;
    out.recover_ms = recovered.as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&state_dir);
}
