//! The central invariant, stated once: Tables II–X are a pure function of
//! the seed. A cell is one tuple of axes; moving one axis away from rest
//! may not change the surfaces that axis promises, so each cell is
//! compared with the same cell with that axis at rest ([`Matrix`]). Each
//! run is built once per process, shared by every test that names its
//! cell, and balances its books as it is built ([`check_books`],
//! [`check_epochs`]); the fixed-seed baselines are pinned to FNV-1a-64
//! digests. The chaos cells (`authns_blackhole`, `supervised_retry`,
//! `retransmissions`, `permanent_shard_loss`) take their seed from
//! `ORSCOPE_CHAOS_SEED` and compare only relationally, so CI sweeps them
//! under several seeds by name; no pinned cell reads the variable.

mod common;

use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use orscope_core::integrity::digest;
use orscope_core::{
    AnalysisMode, Campaign, CampaignConfig, CampaignError, CampaignResult, Infra, RecordBus,
    ShardSabotage, TapPredicate, TapSubscriber, DEFAULT_TAP_CAPACITY,
};
use orscope_dns_wire::Rcode;
use orscope_json::Wire;
use orscope_netsim::{FaultKind, FaultRule, FaultScope};
use orscope_observe::observatory::RunReport;
use orscope_observe::{
    ChurnConfig, ChurnModel, ChurnResolution, EpochSabotage, Observatory, ObservatoryCheckpoint,
    ObservatoryShared, Resolution, Resolve, RollingTables, ServeConfig, ServeError, Update,
};
use orscope_resolver::paper::Year;
use orscope_resolver::population::{Population, PopulationConfig};
use orscope_resolver::{ProfileClass, ResponsePolicy};

use AnalysisMode::{Batch, Streaming};
use Axis::{Deadline, Inert, Mode, Rerun, Reshard, Resume, Retried, Shards, Tapped};

/// `$base` with the named axes moved: `with!(FAST, shards: 4)`.
macro_rules! with {
    ($base:expr, $($axis:ident: $value:expr),+) => {{
        let mut cell = $base;
        $(cell.$axis = $value;)+
        cell
    }};
}

/// `CampaignConfig::new`'s seed.
const SEED: u64 = 0xD5A1_2019;

/// What a cell scans: fast mode at scale 20,000, every address at scale
/// 60,000, or fast mode with 30 % forwarders (co-located with the
/// upstreams they share) and 15 off-port responders.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    Fast,
    FullQ1,
    Forwarders,
}

/// `Inert` is a blackhole window that opens months after any scan here
/// drained: it turns running ahead off and may change nothing else.
/// `Lossy` is 10 % loss and 5 % duplication; `Outage` blacks out the
/// authoritative server 30–90 s into the scan.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Faults {
    None,
    Inert,
    Lossy,
    Outage,
}

/// `Empty` is a bus nobody subscribed to (the publish fast path);
/// `Stalled` a roomy match-all lane, a narrow filtered one and a
/// capacity-1 lane nobody drains, so the publisher must drop.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Taps {
    None,
    Empty,
    Stalled,
}

/// `Chaos` is `ORSCOPE_CHAOS_SEED`, else [`SEED`].
#[derive(Clone, Copy, Debug, PartialEq)]
enum Seed {
    Fixed(u64),
    Chaos,
}

impl Seed {
    fn value(self) -> u64 {
        match self {
            Seed::Fixed(seed) => seed,
            Seed::Chaos => common::chaos_seed(SEED),
        }
    }
}

/// A campaign cell. `retried`: shard 1's first attempt fails and the
/// supervisor reruns it; `rerun`: a second, independent run.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Cell {
    year: Year,
    shape: Shape,
    seed: Seed,
    faults: Faults,
    retries: u32,
    shards: usize,
    analysis: AnalysisMode,
    taps: Taps,
    retried: bool,
    rerun: bool,
}

const FAST: Cell = Cell {
    year: Year::Y2018,
    shape: Shape::Fast,
    seed: Seed::Fixed(SEED),
    faults: Faults::None,
    retries: 0,
    shards: 1,
    analysis: Streaming,
    taps: Taps::None,
    retried: false,
    rerun: false,
};
const FULL_Q1: Cell = with!(FAST, shape: Shape::FullQ1);
const FORWARDERS: Cell = with!(FAST, shape: Shape::Forwarders);
const Y2013: Cell = with!(FAST, year: Year::Y2013);
const LOSSY: Cell = with!(FAST, faults: Faults::Lossy);
const OUTAGE: Cell = with!(FAST, seed: Seed::Chaos, faults: Faults::Outage);

/// An observatory cell: Y2018 at scale 60,000 with default churn and a
/// generation every `checkpoint_every` epochs, every one kept.
/// `sabotage` is `(epoch, failures)`: that epoch's round fails so often.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Serve {
    shards: usize,
    epochs: u64,
    checkpoint_every: u64,
    sabotage: Option<(u64, u32)>,
    deadline: Option<u64>,
    seam: Seam,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Seam {
    /// One uninterrupted run.
    Straight,
    /// The run (at `shards`) dies once `generation` is on disk (the later
    /// generations are deleted) and a second process resumes it.
    Resume { generation: u64, shards: usize },
    /// Shutdown is requested as the scheduler opens this epoch.
    ShutdownAt(u64),
}

/// Four epochs with a generation an epoch.
const SERVE: Serve = Serve {
    shards: 1,
    epochs: 4,
    checkpoint_every: 1,
    sabotage: None,
    deadline: None,
    seam: Seam::Straight,
};

/// An axis moved away from rest. `Mode` is the analysis mode, `Retried`
/// a failure the retry absorbs (a shard's or an epoch's), `Reshard` a
/// resume at a shard count other than the killed run's.
#[derive(Clone, Copy, Debug)]
enum Axis {
    Shards,
    Mode,
    Tapped,
    Inert,
    Retried,
    Rerun,
    Resume,
    Reshard,
    Deadline,
}

/// A kind of cell: the surfaces it digests, and what each axis leaves
/// alone.
trait Matrix: Copy + Debug {
    /// `self` with `axis` at rest.
    fn rest(self, axis: Axis) -> Self;
    /// The surfaces moving `axis` may not change, space-separated.
    fn columns(self, axis: Axis) -> &'static str;
    /// Each surface, named and digested.
    fn surfaces(self) -> Vec<(&'static str, u64)>;
}

/// Compares each of `cells` with the same cell with `axis` at rest.
fn check<C: Matrix>(axis: Axis, cells: impl IntoIterator<Item = C>) {
    for cell in cells {
        let (got, want) = (cell.surfaces(), cell.rest(axis).surfaces());
        let context = format!("{axis:?} at {cell:?}");
        compare(&context, cell.columns(axis), &got, &want);
    }
}

/// Asserts that `got` and `want` agree on each of `columns`.
fn compare(context: &str, columns: &str, got: &[(&str, u64)], want: &[(&str, u64)]) {
    for column in columns.split(' ') {
        let of = |all: &[(&str, u64)]| all.iter().find(|(name, _)| *name == column).unwrap().1;
        assert_eq!(of(got), of(want), "{context}: {column} moved");
    }
}

/// Asserts the leading surfaces of `cell`.
fn pin<C: Matrix>(cell: C, pinned: &[u64]) {
    let got: Vec<u64> = cell.surfaces().iter().map(|(_, digest)| *digest).collect();
    assert_eq!(got[..pinned.len()], *pinned, "{cell:?}: got {got:#018x?}");
}

/// The value built for `key`, once per process; concurrent callers wait
/// for the first.
fn memo<K: Copy + PartialEq, V: Sync>(
    table: &Mutex<Vec<(K, &'static OnceLock<V>)>>,
    key: K,
    build: fn(K) -> V,
) -> &'static V {
    let mut table = table.lock().unwrap();
    if !table.iter().any(|(built, _)| *built == key) {
        table.push((key, Box::leak(Box::default())));
    }
    let slot = table.iter().find(|(built, _)| *built == key).unwrap().1;
    drop(table);
    slot.get_or_init(|| build(key))
}

impl Matrix for Cell {
    fn rest(self, axis: Axis) -> Cell {
        match axis {
            Shards => with!(self, shards: 1),
            Mode => with!(self, analysis: Streaming),
            Tapped => with!(self, taps: Taps::None),
            Inert => with!(self, faults: Faults::None),
            Retried => with!(self, retried: false),
            Rerun => with!(self, rerun: false),
            Resume | Reshard | Deadline => unreachable!("an observatory axis"),
        }
    }

    fn columns(self, axis: Axis) -> &'static str {
        let faulted = matches!(self.faults, Faults::Lossy | Faults::Outage);
        match axis {
            // Event, timer and pacer-tick counts describe one layout
            // (they are Shard-scope) and the report echoes the count.
            // Under loss or an outage the text report's flow line moves
            // too: an abandoned probe that recursed hands its label to a
            // later target of its own shard, and `FlowSummary` counts a
            // label that recursed twice once.
            Shards if faulted => "tables_json telemetry dataset",
            Shards => "tables_json render telemetry dataset",
            // The text report names the retried shard.
            Retried => "tables_json telemetry dataset NetStats ProbeStats",
            _ => "tables_json render telemetry dataset NetStats ProbeStats report",
        }
    }

    fn surfaces(self) -> Vec<(&'static str, u64)> {
        digests(run(self))
    }
}

/// Each surface of a campaign, digested; the first three are pinned.
fn digests(result: &CampaignResult) -> Vec<(&'static str, u64)> {
    let data = result.dataset();
    let counts = [data.q1, data.q2, data.r1, data.r2(), data.off_port_dropped];
    let surfaces = [
        ("tables_json", result.tables_json()),
        ("render", result.render()),
        ("telemetry", result.telemetry().unwrap().to_jsonl()),
        ("dataset", format!("{counts:?}")),
        ("NetStats", format!("{:?}", result.net_stats())),
        ("ProbeStats", format!("{:?}", data.probe_stats)),
        ("report", result.to_json().encode()),
    ];
    let digested = surfaces.map(|(name, text)| (name, digest(text.as_bytes())));
    digested.to_vec()
}

/// `cell`'s campaign; a chaos cell at the default seed is its fixed twin.
fn run(cell: Cell) -> &'static CampaignResult {
    static RUNS: Mutex<Vec<(Cell, &'static OnceLock<CampaignResult>)>> = Mutex::new(Vec::new());
    let fixed = with!(cell, seed: Seed::Fixed(cell.seed.value()));
    memo(&RUNS, fixed, build)
}

fn config(cell: Cell) -> CampaignConfig {
    let full_q1 = cell.shape == Shape::FullQ1;
    let mut config = CampaignConfig::new(cell.year, if full_q1 { 60_000.0 } else { 20_000.0 });
    (config.seed, config.shards, config.full_q1) = (cell.seed.value(), cell.shards, full_q1);
    (config.analysis, config.retry_limit) = (cell.analysis, cell.retries);
    if cell.shape == Shape::Forwarders {
        (config.forwarder_fraction, config.off_port_responders) = (0.3, 15);
    }
    let window = |opens: u64, closes: u64, scope| {
        let (opens, closes) = (Duration::from_secs(opens), Duration::from_secs(closes));
        FaultRule::window(opens, closes, scope, FaultKind::Blackhole)
    };
    let (all, auth) = (FaultScope::All, FaultScope::Host(config.infra.auth));
    match cell.faults {
        Faults::None => {}
        Faults::Inert => config.faults.push(window(10_000_000, 10_000_001, all)),
        Faults::Lossy => config = config.with_loss(0.1).with_duplication(0.05),
        Faults::Outage => config.faults.push(window(30, 90, auth)),
    }
    let failures = 1;
    config.sabotage = cell.retried.then_some(ShardSabotage { shard: 1, failures });
    config
}

fn build(cell: Cell) -> CampaignResult {
    let campaign = Campaign::new(config(cell));
    let result = match cell.taps {
        Taps::None => campaign.run(),
        Taps::Empty => campaign.with_bus(Arc::new(RecordBus::new())).run(),
        Taps::Stalled => {
            let (bus, infra) = (Arc::new(RecordBus::new()), Infra::default());
            let all = TapPredicate::match_all();
            let roomy = TapSubscriber::attach(&bus, all, DEFAULT_TAP_CAPACITY, &infra);
            let nxdomain = "rcode=NXDomain".parse().unwrap();
            let narrow = TapSubscriber::attach(&bus, nxdomain, 64, &infra);
            let stalled = bus.subscribe(1);
            let result = campaign.with_bus(bus.clone()).run();
            let stats = bus.stats();
            assert!(stats.published > 0, "{cell:?} published nothing");
            assert!(stalled.dropped() > 0, "a never-drained lane drops");
            let lanes = roomy.dropped() + narrow.dropped() + stalled.dropped();
            assert_eq!(lanes, stats.dropped, "bus drops are the lanes' sum");
            result
        }
    };
    let result = result.expect("campaign runs");
    check_books(&result);
    result
}

/// The books every campaign balances, whatever its cell: the telemetry
/// series against the simulator's own `NetStats` and the dataset, each
/// answered query under one question type and one rcode, and one probe
/// span per shard that delivered.
fn check_books(result: &CampaignResult) {
    let snapshot = result.telemetry().unwrap();
    let counter = |name: &str| snapshot.counters[name].value;
    let sum = |prefix: &str| -> u64 {
        let series = snapshot.counters.iter();
        let series = series.filter(|(name, _)| name.starts_with(prefix));
        series.map(|(_, metric)| metric.value).sum()
    };
    let (net, data) = (result.net_stats(), result.dataset());
    let lost = result.degraded().map_or(0, |report| report.failed.len());
    let latency = &snapshot.histograms["prober.q1_r2_latency_ns"].value;
    let probe_spans = snapshot.spans["phase.probe"].count;
    #[rustfmt::skip]
    let books = [
        ("net.datagrams_sent", counter("net.datagrams_sent"), net.sent),
        ("net.datagrams_lost", counter("net.datagrams_lost"), net.lost),
        ("net.datagrams_delivered", counter("net.datagrams_delivered"), net.delivered),
        ("prober.probes_sent", counter("prober.probes_sent"), data.q1),
        ("auth.queries", counter("auth.queries"), data.q2),
        ("prober.q1_r2_latency_ns", latency.count, data.r2()),
        ("auth.qtype_*", sum("auth.qtype_"), counter("auth.queries")),
        ("auth.rcode_*", sum("auth.rcode_"), counter("auth.queries")),
        ("phase.probe", probe_spans, (result.config().shards - lost) as u64),
    ];
    for (book, lhs, rhs) in books {
        assert_eq!(lhs, rhs, "{book} does not balance: {:?}", result.config());
    }
    assert!(snapshot.histograms["resolver.recursion_depth"].value.count > 0);
    assert!(counter("resolver.responses_sent") >= counter("prober.r2_captured"));
    for phase in "phase.population_build phase.capture_drain phase.analyze".split(' ') {
        assert!(snapshot.spans.contains_key(phase), "missing span {phase}");
    }
}

/// What an observatory run served: the digests of `/tables`, `/trends`,
/// every generation file (names and bytes, oldest first) and the failure
/// counters; the counters themselves, as [`FAILURES`] names them; and
/// the tables.
type Served = (Vec<(&'static str, u64)>, Vec<u64>, RollingTables);

const FAILURES: &str = "orscope_observe_epochs_degraded orscope_observe_epoch_retries \
    orscope_observe_checkpoint_rollbacks orscope_observe_http_rejected_conns \
    orscope_observe_http_timeouts";

impl Matrix for Serve {
    fn rest(self, axis: Axis) -> Serve {
        match axis {
            Shards => with!(self, shards: 1),
            Retried => with!(self, sabotage: None),
            Resume | Reshard => with!(self, seam: Seam::Straight),
            Deadline => with!(self, deadline: None),
            Mode | Tapped | Inert | Rerun => unreachable!("a campaign axis"),
        }
    }

    /// Generations carry the run's fingerprint (its shard count and
    /// deadline among it); `/metrics` counts this process's retries.
    fn columns(self, axis: Axis) -> &'static str {
        match axis {
            Shards => "/tables /trends failures",
            Resume | Retried => "/tables /trends generations",
            _ => "/tables /trends",
        }
    }

    fn surfaces(self) -> Vec<(&'static str, u64)> {
        serve(self).0.clone()
    }
}

fn serve(cell: Serve) -> &'static Served {
    static RUNS: Mutex<Vec<(Serve, &'static OnceLock<Served>)>> = Mutex::new(Vec::new());
    memo(&RUNS, cell, serve_build)
}

fn serve_config(cell: Serve, shards: usize) -> ServeConfig {
    static RUN: AtomicU64 = AtomicU64::new(0);
    let mut config = ServeConfig::new(Year::Y2018, 60_000.0);
    (config.seed, config.shards, config.epochs) = (0x2E90_C4F1, shards, Some(cell.epochs));
    (config.checkpoint_every, config.keep_generations) = (cell.checkpoint_every, 1_000);
    config.epoch_deadline_virtual_secs = cell.deadline;
    let sabotage = |(epoch, failures)| EpochSabotage { epoch, failures };
    config.sabotage = cell.sabotage.map(sabotage);
    let run = RUN.fetch_add(1, Ordering::Relaxed);
    config.state_dir = common::scratch(&format!("invariance-{run}"));
    config
}

fn serve_build(cell: Serve) -> Served {
    let mut config = serve_config(cell, cell.shards);
    let (shared, report) = match cell.seam {
        Seam::Straight => finish(Observatory::new(config.clone())),
        Seam::Resume { generation, shards } => {
            let killed = serve_config(with!(cell, seam: Seam::Straight), shards);
            config.state_dir = killed.state_dir.clone();
            finish(Observatory::new(killed));
            let keep = ObservatoryCheckpoint::generation_name(generation);
            for path in generations(&config.state_dir) {
                if *path.file_name().unwrap() > *keep {
                    std::fs::remove_file(path).unwrap();
                }
            }
            let (shared, report) = finish(Observatory::new(config.clone()));
            assert_eq!(report.resumed_from, Some(generation), "{cell:?}");
            (shared, report)
        }
        Seam::ShutdownAt(epoch) => {
            let (churn, shared) = (ChurnModel::new(ChurnConfig::default()), Arc::default());
            let resolve = ShutdownAt(churn, epoch, Arc::clone(&shared));
            let observatory = Observatory::with_resolve(config.clone(), resolve);
            assert!(shared.set(observatory.as_ref().unwrap().shared()).is_ok());
            finish(observatory)
        }
    };
    let mut disk = Vec::new();
    for path in generations(&config.state_dir) {
        disk.extend(path.file_name().unwrap().as_encoded_bytes());
        disk.extend(std::fs::read(&path).unwrap());
    }
    std::fs::remove_dir_all(&config.state_dir).unwrap();
    let metrics = String::from_utf8(shared.metrics_bytes()).unwrap();
    let failures = FAILURES.split_whitespace().map(|name| {
        let line = metrics.lines().find(|line| line.starts_with(name));
        let line = line.unwrap_or_else(|| panic!("{name} missing from /metrics"));
        line.rsplit(' ').next().unwrap().parse().unwrap()
    });
    let failures: Vec<u64> = failures.collect();
    let surfaces = vec![
        ("/tables", digest(&shared.tables_bytes())),
        ("/trends", digest(&shared.trends_bytes())),
        ("generations", digest(&disk)),
        ("failures", digest(format!("{failures:?}").as_bytes())),
    ];
    let served = (surfaces, failures, shared.tables_snapshot());
    check_epochs(cell, &served, &report);
    served
}

fn finish<R: Resolve>(
    observatory: Result<Observatory<R>, ServeError>,
) -> (Arc<ObservatoryShared>, RunReport) {
    let mut observatory = observatory.unwrap();
    let report = observatory.run().unwrap();
    (observatory.shared(), report)
}

/// The generation files in `dir`, oldest first.
fn generations(dir: &Path) -> Vec<PathBuf> {
    let entries = std::fs::read_dir(dir).unwrap();
    let mut paths: Vec<PathBuf> = entries.map(|entry| entry.unwrap().path()).collect();
    paths.sort();
    paths
}

/// What every observatory run balances: each epoch's members land in
/// exactly one transition cell and one class; an epoch is degraded
/// exactly when its sabotage outlasts the retry or the deadline cannot be
/// met, and then claims no scan and moves no member; and the rows, their
/// totals, the run report and `/metrics` count the same degraded epochs.
fn check_epochs(cell: Serve, (_, failures, tables): &Served, report: &RunReport) {
    let rows = tables.epochs();
    let epochs = match cell.seam {
        Seam::ShutdownAt(epoch) => epoch + 2,
        Seam::Straight | Seam::Resume { .. } => cell.epochs,
    };
    assert_eq!(rows.len() as u64, epochs, "{cell:?}");
    for row in rows {
        let context = format!("{cell:?}, epoch {}", row.epoch);
        let (population, classes) = (row.population, row.class_counts.iter().sum());
        let landed = (row.transitions.total(), classes);
        assert_eq!(landed, (population, population), "{context}");
        let failed = |(at, times)| at == row.epoch && times > 1;
        let degraded = cell.sabotage.is_some_and(failed) || cell.deadline == Some(1);
        assert_eq!(row.degraded, degraded, "{context}");
        if row.degraded {
            assert_eq!((row.r2, row.transitions.moved()), (0, 0), "{context}");
        }
    }
    let degraded = rows.iter().filter(|row| row.degraded).count() as u64;
    assert_eq!(tables.totals().epochs_degraded, degraded, "{cell:?}");
    if cell.seam == Seam::Straight {
        let counted = (report.epochs_degraded, failures[0]);
        assert_eq!(counted, (degraded, degraded), "{cell:?}");
    }
}

/// The matrix's rows: each a test, named for what it holds, that checks
/// its cells in order.
macro_rules! matrix {
    ($($(#[$doc:meta])* fn $test:ident() $cells:block)+) => {
        $($(#[$doc])* #[test] fn $test() $cells)+
    };
}

matrix! {
    /// `tables_json`, `render` and the telemetry JSONL of each fixed-seed
    /// baseline.
    fn baselines_match_their_pinned_digests() {
        pin(FAST, &[0xf4e51cd59bd6b842, 0xeb54cc93a5bef5db, 0xe8cc91d718836640]);
        pin(FULL_Q1, &[0xf48c1154b7ae2f9c, 0x2d0c3e4ded13745f, 0x1879c8d9be7c345d]);
        pin(FORWARDERS, &[0x220f0a0f9a1b13aa, 0x15aaa30075e46f7b, 0xdfd7e2441930c995]);
        pin(Y2013, &[0x57d810d3ffada6e1, 0xa0234a7b2523d66a, 0xbf8c218f4104f95c]);
        pin(LOSSY, &[0xadb20f6350576697, 0xa6a166655922f47c, 0xa3ea07ef5bd05c58]);
    }
    fn tables_are_byte_identical_across_shard_counts() {
        check(Shards, [2, 3, 4, 8].map(|shards| with!(FAST, shards: shards)));
        check(Shards, [with!(LOSSY, shards: 3)]);
    }
    fn invariance_holds_for_the_2013_scan() { check(Shards, [with!(Y2013, shards: 4)]) }
    fn same_seed_reproduces_the_report_byte_for_byte() { check(Rerun, [with!(FAST, rerun: true)]) }
    fn same_seed_reproduces_the_sharded_report_byte_for_byte() {
        check(Rerun, [with!(FAST, rerun: true, shards: 4)]);
    }
    fn reports_are_byte_identical_across_analysis_modes_and_shards() {
        check(Shards, [1, 2, 4].map(|shards| with!(FAST, shards: shards)));
        check(Mode, [1, 2, 4].map(|shards| with!(FAST, shards: shards, analysis: Batch)));
    }
    /// Loss and duplication reshape the capture stream (retries, dropped
    /// R2s, duplicate deliveries); streaming must classify it as batch.
    fn failure_injection_is_analysis_mode_invariant() {
        check(Mode, [with!(LOSSY, analysis: Batch)]);
    }
    /// Every cell balances its books as it is built; these at 4 shards.
    fn counters_agree_with_the_simulator_stats() { check_books(run(with!(FAST, shards: 4))) }

    fn tables_and_trends_are_shard_invariant() {
        check(Shards, [2, 4].map(|shards| with!(SERVE, shards: shards)));
    }
    fn kill_and_resume_reproduces_the_uninterrupted_run() {
        check(Resume, [with!(SERVE, shards: 2, seam: Seam::Resume { generation: 2, shards: 2 })]);
    }
    fn resume_survives_a_shard_count_change() {
        check(Reshard, [with!(SERVE, shards: 4, seam: Seam::Resume { generation: 2, shards: 1 })]);
    }
    /// Epoch 1 fails its attempt and its retry: its row carries no failure
    /// text, so it is the same at any shard count.
    fn degraded_epochs_are_shard_invariant_and_conserve_population() {
        check(Shards, [with!(SERVE, shards: 2, sabotage: Some((1, 2)))]);
    }
    fn one_transient_failure_is_invisible_after_the_identical_seed_retry() {
        check(Retried, [with!(SERVE, shards: 2, sabotage: Some((1, 1)))]);
    }
    /// One virtual second a round: no campaign finishes.
    fn an_impossible_epoch_deadline_degrades_every_epoch_shard_invariantly() {
        check(Shards, [with!(SERVE, shards: 2, deadline: Some(1))]);
    }
    /// A year of virtual time per one-day round never fires.
    fn a_generous_deadline_changes_nothing() {
        check(Deadline, [with!(SERVE, shards: 2, deadline: Some(365 * 86_400))]);
    }

    // The in-flight seams: every document and generation is pinned to
    // what a one-round-at-a-time scheduler wrote for the same
    // configuration.
    fn epoch_limits_that_end_on_a_lone_epoch() {
        pin(with!(SERVE, epochs: 1), &[0xbdbd0d71cfe4075c, 0x3fc57c65b5492fd5, 0x30e2fbbc7cfd3a20]);
        pin(with!(SERVE, epochs: 2), &[0xc3c6b4d39fa7761e, 0x5e118cf61011ce52, 0xba1a10a20de6a2d6]);
        pin(with!(SERVE, epochs: 3), &[0x09dae4db74b0dbca, 0x9d786409448bf868, 0xe0197fb726a8ea3e]);
        pin(with!(SERVE, epochs: 401, checkpoint_every: 50),
            &[0x1deead4c52fae2b5, 0xfcf2b9ac29a04c6c, 0x4cd41c492412c7f9]);
    }
    fn generations_flushed_between_the_epochs_of_a_pair() {
        pin(with!(SERVE, epochs: 12, checkpoint_every: 3),
            &[0xe453882dd9f91163, 0xcd496f3430a386a8, 0x9aaec52566ecbc37]);
        pin(with!(SERVE, epochs: 12, checkpoint_every: 5),
            &[0xe453882dd9f91163, 0xcd496f3430a386a8, 0x0e9d54afce285aab]);
    }
    fn a_sabotaged_epoch_on_either_thread_retries_or_degrades() {
        pin(with!(SERVE, epochs: 5, sabotage: Some((2, 1))),
            &[0x73e1627a5290e16d, 0x0ba195273d6759bd, 0x048159290b12b4e5]);
        pin(with!(SERVE, epochs: 5, sabotage: Some((2, 2))),
            &[0x5ffe33a43fa74945, 0xc4932d72f6bb07f3, 0xa6a4bfaeb480336d]);
        pin(with!(SERVE, epochs: 5, sabotage: Some((3, 1))),
            &[0x73e1627a5290e16d, 0x0ba195273d6759bd, 0x048159290b12b4e5]);
        pin(with!(SERVE, epochs: 5, sabotage: Some((3, 2))),
            &[0xb01e995d7a020181, 0xf72ffc7e94387ef8, 0x71dc5d9deea29d5e]);
    }
    /// Generation 3 is written once epoch 2, the first of the pair (2, 3),
    /// is absorbed: the resume pairs (3, 4), runs 5 alone and must write
    /// what the uninterrupted run wrote.
    fn a_resume_from_a_generation_written_mid_pair_converges() {
        let six = [0x8e8b8b430bc6e8cd, 0xe73446f208e7344a, 0x7f92992f2f1c657d];
        pin(with!(SERVE, epochs: 6), &six);
        pin(with!(SERVE, epochs: 6, seam: Seam::Resume { generation: 3, shards: 1 }), &six);
    }
    /// Shutdown lands while the pair (2, 3) is being opened: both are
    /// absorbed before the final flush, and the state is a four-epoch
    /// run's, [`SERVE`]'s.
    fn a_shutdown_requested_mid_pair_absorbs_both_epochs() {
        let four = [0x9c32601e92ede1a9, 0x0d58e92fec747d55, 0xc4b14ffb9c17f6a9];
        pin(SERVE, &four);
        pin(with!(SERVE, epochs: 10, seam: Seam::ShutdownAt(2)), &four);
    }
}

#[test]
fn a_misspelt_chaos_seed_fails_loudly() {
    assert_eq!(common::seed_from(Ok("3".to_owned()), SEED), 3);
    let unset = Err(std::env::VarError::NotPresent);
    assert_eq!(common::seed_from(unset, SEED), SEED);
    let typo = std::panic::catch_unwind(|| common::seed_from(Ok("1O".to_owned()), SEED));
    let message = *typo.unwrap_err().downcast::<String>().unwrap();
    assert!(message.contains("\"1O\""), "{message}");
}

#[test]
fn invariance_holds_with_forwarders_and_off_port_responders() {
    let cells = [4, 8].map(|shards| with!(FORWARDERS, shards: shards));
    check(Shards, cells);
    assert_eq!(run(cells[1]).dataset().off_port_dropped, 15);
}

#[test]
fn sharding_does_not_change_the_seed_sensitivity() {
    // Aggregate R2 is scale-pinned, but which address answered which
    // qname must differ between seeds; batch mode keeps the records.
    let layout = |seed: u64| -> Vec<(String, std::net::Ipv4Addr)> {
        let cell = with!(FAST, seed: Seed::Fixed(seed), shards: 4, analysis: Batch);
        let records = run(cell).dataset().records.iter();
        records.map(|c| (c.qname.to_string(), c.resolver)).collect()
    };
    assert_ne!(layout(SEED), layout(8), "seed had no effect on the layout");
}

#[test]
fn different_seeds_produce_different_reports() {
    // Lossless, the seed reaches the text report: which addresses the
    // population occupies (Table VIII) and every latency draw (the flow
    // summary's median). The header echoes the seed and is dropped.
    let body = |seed: u64| {
        let text = run(with!(FAST, seed: Seed::Fixed(seed))).render();
        let (header, body) = text.split_once('\n').expect("header line");
        assert!(header.contains(&format!("seed {seed:#x}")), "{header}");
        body.to_owned()
    };
    assert_ne!(body(SEED), body(8));
}

#[test]
fn different_seeds_produce_different_json_reports_under_loss() {
    // The JSON report carries counts only: lossless, those are the
    // calibrated population's whatever the seed, but under loss the seed
    // decides which datagrams drop. The echoed seed is stripped.
    let strip = |seed: u64| {
        let report = run(with!(LOSSY, seed: Seed::Fixed(seed))).to_json();
        let mut members = report.as_obj().unwrap().to_vec();
        members.retain(|(key, _)| key != "seed");
        Wire::Obj(members).encode()
    };
    assert_ne!(strip(SEED), strip(8));
}

#[test]
fn streaming_mode_retains_no_buffered_captures() {
    let default = CampaignConfig::new(Year::Y2018, 20_000.0).analysis;
    assert_eq!(default, Streaming, "streaming is the default");
    let data = run(FAST).dataset();
    assert!(data.records.is_empty(), "streaming buffers no records");
    assert!(data.raw.is_empty(), "nor raw payloads unless asked");
    assert!(data.r2() > 0, "counters still populated");
}

#[test]
fn reports_are_identical_with_zero_one_or_many_taps() {
    for analysis in [Streaming, Batch] {
        for shards in [1, 2, 4] {
            let cell = with!(FAST, analysis: analysis, shards: shards);
            let taps = [Taps::Empty, Taps::Stalled];
            check(Tapped, taps.map(|taps| with!(cell, taps: taps)));
        }
    }
    check(Tapped, [with!(LOSSY, taps: Taps::Stalled)]);
}

#[test]
fn concurrent_tap_drain_is_unobservable_in_reports() {
    for analysis in [Streaming, Batch] {
        let cell = with!(FAST, analysis: analysis, shards: 2);
        let bus = Arc::new(RecordBus::new());
        let all = TapPredicate::match_all();
        let tap = TapSubscriber::attach(&bus, all, DEFAULT_TAP_CAPACITY, &Infra::default());
        // Drained on a live thread while the campaign runs, as an
        // attached `orscope tap` client drains it.
        let stop = Arc::new(AtomicBool::new(false));
        let drainer = std::thread::spawn({
            let stop = stop.clone();
            move || {
                let mut seen = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    seen += u64::from(tap.poll(Duration::from_millis(5)).is_some());
                }
                seen + std::iter::from_fn(|| tap.poll_now()).count() as u64
            }
        });
        let result = Campaign::new(config(cell)).with_bus(bus).run().unwrap();
        stop.store(true, Ordering::SeqCst);
        assert!(drainer.join().unwrap() > 0, "a drained tap sees records");
        let (got, want) = (digests(&result), cell.surfaces());
        compare("a drained tap", cell.columns(Tapped), &got, &want);
    }
}

#[test]
fn concurrent_campaigns_tag_each_record_with_its_own_round() {
    // Two campaigns share one bus and run side by side, as two
    // observatory rounds do. One address is honest in the first and
    // refusing in the second; the second measures under its own zone so
    // a record's qname tells which campaign captured it. Nothing is
    // decoded until both have finished, so a class looked up at decode
    // time would tag both campaigns' records alike.
    let (first_config, first) = (config(FAST), run(FAST).population().clone());
    let mut second_config = first_config.clone();
    second_config.infra.zone = "probeteam.net".parse().unwrap();
    second_config.infra.auth_ns_name = "ns1.probeteam.net".parse().unwrap();
    let honest = |&i: &usize| first.resolver(i).policy.class() == ProfileClass::Honest;
    let index = (0..first.resolvers.len()).find(honest).unwrap();
    let addr = first.resolver(index).addr;
    let mut second = first.clone();
    let refusing = ResponsePolicy::refusing();
    assert_eq!(refusing.class(), ProfileClass::Refusing);
    let refusing = Arc::make_mut(&mut second.table).intern(refusing);
    second.resolvers.set_profile(index, refusing);

    let bus = Arc::new(RecordBus::new());
    let all = TapPredicate::match_all();
    let tap = TapSubscriber::attach(&bus, all, 1 << 15, &Infra::default());
    std::thread::scope(|scope| {
        for (config, population) in [(first_config, first), (second_config, second)] {
            let campaign = Campaign::new(config).with_bus(bus.clone());
            scope.spawn(move || campaign.run_with_population(population).unwrap());
        }
    });
    let mut seen = [0u32; 2];
    while let Some(event) = tap.poll_now() {
        if event.src != addr && event.dst != addr {
            continue;
        }
        let qname = event.qname.as_deref().expect("every record here decodes");
        let second = qname.ends_with(".probeteam.net");
        let class = [ProfileClass::Honest, ProfileClass::Refusing][usize::from(second)];
        assert_eq!(event.class, Some(class), "{event:?}");
        seen[usize::from(second)] += 1;
    }
    assert_eq!(tap.dropped(), 0, "the lane held every record");
    assert!(seen.iter().all(|&events| events > 0), "{seen:?}");
}

#[test]
fn jsonl_export_is_byte_identical_across_shard_counts() {
    let baseline = run(FAST).telemetry().unwrap().to_jsonl();
    let series = "net.datagrams_sent prober.probes_sent prober.q1_r2_latency_ns \
        resolver.client_queries auth.queries";
    for name in series.split_whitespace() {
        assert!(baseline.contains(name), "export lacks {name}:\n{baseline}");
    }
    check(Shards, [4, 8].map(|shards| with!(FAST, shards: shards)));
}

#[test]
fn an_inert_fault_rule_changes_no_byte_and_no_count() {
    for cell in [FAST, FULL_Q1] {
        for shards in [1, 2] {
            check(Inert, [with!(cell, shards: shards, faults: Faults::Inert)]);
            let paced = run(with!(cell, shards: shards)).dataset();
            assert!(paced.probe_stats.pacer_ticks > 0, "the scan paced itself");
        }
    }
}

/// Total ServFail responses, with and without an answer, in Table VI.
fn servfails(result: &CampaignResult) -> u64 {
    let rows = result.table6_measured().rows;
    let servfail = rows.iter().find(|(rcode, _, _)| *rcode == Rcode::ServFail);
    servfail.map_or(0, |(_, with, without)| with + without)
}

#[test]
fn authns_blackhole_is_survived_and_shard_invariant() {
    let (clean, faulted) = (run(with!(OUTAGE, faults: Faults::None)), run(OUTAGE));
    let (stats, clean_stats) = (faulted.dataset().probe_stats, clean.dataset().probe_stats);
    // The outage was real and the scan still drained.
    assert!(faulted.net_stats().blackhole_drops > 0, "window never hit");
    assert!(stats.done, "scan did not drain");
    assert!(!faulted.is_partial(), "a fault window is not a shard loss");
    // Recursers probed in the window answer ServFail only after their
    // upstream timeout, past the prober's patience: without retries the
    // outage is suppressed R2, more abandonment and late unmatched
    // answers.
    assert!(faulted.dataset().r2() < clean.dataset().r2());
    assert!(stats.probes_abandoned > clean_stats.probes_abandoned);
    assert!(stats.unmatched > 0, "late ServFails arrive unmatched");
    // With retries the prober re-probes past the window: R2 recovers
    // and the window shows as elevated ServFail.
    let recovered = run(with!(OUTAGE, retries: 3));
    assert!(recovered.dataset().probe_stats.retransmits_sent > 0);
    assert!(recovered.dataset().r2() > faulted.dataset().r2());
    let elevated = servfails(recovered) > servfails(clean);
    assert!(elevated, "ServFail not elevated");
    // The fault schedule is part of the seed: every layout sees it.
    check(Shards, [2, 4].map(|shards| with!(OUTAGE, shards: shards)));
}

#[test]
fn retransmissions_recover_lost_probes() {
    let lossy = with!(LOSSY, seed: Seed::Chaos);
    let fragile = run(lossy).dataset();
    let resilient = run(with!(lossy, retries: 3)).dataset();
    let stats = resilient.probe_stats;
    assert!(stats.retransmits_sent > 0, "no retransmissions under loss");
    assert_eq!(fragile.probe_stats.retransmits_sent, 0);
    assert!(resilient.r2() > fragile.r2(), "retries recovered nothing");
    assert!(stats.probes_abandoned < fragile.probe_stats.probes_abandoned);
    // Retransmissions are booked apart: Q1 stays the planned count.
    assert_eq!(fragile.q1, resilient.q1);
}

#[test]
fn supervised_retry_is_invisible_in_the_result() {
    // The supervisor reruns the shard with its original seed; only the
    // degraded report records that anything happened.
    let cell = with!(FAST, seed: Seed::Chaos, shards: 2, retried: true);
    check(Retried, [cell]);
    let degraded = run(cell).degraded().expect("retry must be reported");
    assert_eq!(degraded.retried, vec![1]);
    assert!(degraded.failed.is_empty());
    assert!(!run(cell).is_partial());
}

#[test]
fn permanent_shard_loss_yields_a_partial_result() {
    let sabotaged = |shards: usize, shard: usize| {
        let mut config = config(with!(FAST, seed: Seed::Chaos, shards: shards));
        config.sabotage = Some(ShardSabotage { shard, failures: 2 });
        Campaign::new(config).run()
    };
    let result = sabotaged(4, 2).unwrap();
    assert!(result.is_partial());
    check_books(&result);
    let degraded = result.degraded().expect("loss must be reported");
    assert_eq!(degraded.failed.len(), 1);
    assert_eq!(degraded.failed[0].shard, 2);
    // One shard past its retry budget errors out rather than fabricating
    // an empty result.
    let err = sabotaged(1, 0).unwrap_err();
    assert!(matches!(err, CampaignError::AllShardsFailed(_)));
}

#[test]
fn transition_matrix_conserves_population_and_shows_churn() {
    // Every cell checks conservation; epoch 0 here is pure arrival and
    // later epochs move members.
    let rows = serve(SERVE).2.epochs();
    assert_eq!(rows[0].leaves, 0);
    let later = rows[1..].iter();
    let churned: u64 = later.map(|r| r.joins + r.leaves + r.drifts).sum();
    assert!(churned > 0, "default churn rates must move members");
}

#[test]
fn observatory_failure_counters_are_shard_invariant() {
    let cell = with!(SERVE, shards: 2, sabotage: Some((1, 2)));
    check(Shards, [cell]);
    // One degraded epoch after one identical-seed retry; nothing else.
    assert_eq!(serve(cell).1, [1, 1, 0, 0, 0]);
}

/// The churn model (or its resolution), requesting shutdown through the
/// handle as the scheduler opens the epoch.
struct ShutdownAt<C>(C, u64, Arc<OnceLock<Arc<ObservatoryShared>>>);

impl Resolve for ShutdownAt<ChurnModel> {
    type Resolution = ShutdownAt<ChurnResolution>;

    fn resolve(&self, target: &PopulationConfig) -> Self::Resolution {
        ShutdownAt(self.0.resolve(target), self.1, Arc::clone(&self.2))
    }
}

impl Resolution for ShutdownAt<ChurnResolution> {
    fn poll_update(&mut self, epoch: u64) -> Option<Update> {
        if epoch == self.1 {
            self.2.get().unwrap().request_shutdown();
        }
        self.0.poll_update(epoch)
    }

    fn seed_population(&self) -> Population {
        self.0.seed_population()
    }
}
