//! The epoch scheduler: supervised rolling campaigns over a churning
//! population.
//!
//! An [`Observatory`] owns a [`Resolve`] discovery source (by default
//! the seeded [`ChurnModel`]) and a [`ServeConfig`]. Each virtual-day
//! epoch it drains the discovery stream's membership updates, records
//! the profile-transition matrix, runs one full campaign round over the
//! current membership on the shared sharded/streaming infrastructure,
//! reduces the round to an [`EpochRow`], and absorbs it into the
//! [`RollingTables`] behind the HTTP surface.
//!
//! Rounds are share-nothing jobs — an epoch's membership and seed are
//! fixed before its round starts — so two run at once: the scheduler
//! opens epochs `e` and `e + 1` (membership, row, matrices, population,
//! all on its own thread), runs `e`'s round itself and `e + 1`'s on a
//! scoped helper thread, and absorbs both strictly in epoch order. Every
//! document, counter and checkpoint generation is what a one-at-a-time
//! scheduler would have produced.
//!
//! Unattended operation is the design center. Every epoch runs under a
//! supervisor: a round that panics, fails permanently, or blows its
//! virtual-time deadline is retried once with the identical seed, and a
//! second failure produces a *degraded* row — population accounted for
//! in the transition matrix's `skip` pseudo-row, scan counts zeroed —
//! instead of killing the process. State persists as verified
//! checkpoint generations ([`ObservatoryCheckpoint::save_generation`]);
//! on resume, corrupt generations are quarantined and the run rolls
//! back to the newest one that verifies.
//!
//! Determinism is end to end: membership is a pure function of the
//! churn seed, each round's campaign seed is a pure function of
//! `(serve seed, epoch)`, campaign results are shard-invariant, and a
//! deadline blows (or not) identically at every shard count — so the
//! same configuration produces byte-identical `/tables` and `/trends`
//! documents at any shard count, and across any kill/corrupt/resume
//! history.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use orscope_core::bus::RecordBus;
use orscope_core::sync::{lock, read, write};
use orscope_core::{
    supervise, Campaign, CampaignConfig, CampaignError, CampaignResult, Infra, Supervised,
};
use orscope_dns_wire::Rcode;
use orscope_netsim::EpochClock;
use orscope_resolver::paper::Year;
use orscope_resolver::population::{Population, PopulationConfig};
use orscope_resolver::{ProfileClass, ProfileTable};
use orscope_telemetry::{MetricValue, Scope, TelemetrySnapshot};

use crate::churn::{ChurnConfig, ChurnModel};
use crate::resolve::{Resolution, Resolve, Update};
use crate::series::{EpochRow, RollingTables, TransitionMatrix, N_CLASSES, SKIP};
use crate::state::{Fingerprint, ObservatoryCheckpoint};

/// Multiplier for deriving per-epoch campaign seeds (SplitMix64's
/// golden-ratio increment — any odd constant with good bit dispersion
/// works; what matters is that it is fixed, so epoch seeds survive
/// restarts).
const EPOCH_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Campaign rounds in flight at once: the scheduler opens this many
/// epochs, runs their rounds side by side, and absorbs them in order.
const ROUNDS_IN_FLIGHT: u64 = 2;

/// Deterministic epoch-failure injection, for exercising the epoch
/// supervisor. The targeted epoch's first `failures` *attempts* (the
/// initial run and, if needed, the retry) panic before the campaign
/// starts: `failures: 1` exercises the invisible-retry path, `failures:
/// 2` forces a degraded row. Not part of the run [`Fingerprint`] — a
/// sabotaged-then-retried epoch produces byte-identical tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSabotage {
    /// Which epoch's attempts to fail.
    pub epoch: u64,
    /// How many consecutive attempts to fail.
    pub failures: u32,
}

/// Everything that shapes a serve run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Which scan year's population mix to reproduce.
    pub year: Year,
    /// Population down-scaling factor (1:scale).
    pub scale: f64,
    /// Base seed: campaign rounds derive per-epoch seeds from it.
    pub seed: u64,
    /// Shards per campaign round (results are shard-invariant).
    pub shards: usize,
    /// Virtual seconds per epoch (86 400 = one virtual day).
    pub epoch_virtual_secs: u64,
    /// Stop after this many epochs; `None` = run until shutdown.
    pub epochs: Option<u64>,
    /// Churn model knobs.
    pub churn: ChurnConfig,
    /// Where checkpoint generations live. The library default is a path
    /// under the OS temp dir so tests and casual runs never litter the
    /// working tree; the CLI overrides it with a visible (gitignored)
    /// default.
    pub state_dir: PathBuf,
    /// Also checkpoint every N completed epochs (0 = only the final
    /// flush on exit).
    pub checkpoint_every: u64,
    /// Verified checkpoint generations to retain (oldest are pruned).
    pub keep_generations: usize,
    /// Wall-clock pause between epochs, so a demo serve doesn't spin
    /// a core replaying days as fast as it can.
    pub interval: Duration,
    /// Virtual-time budget per campaign round, in virtual seconds. A
    /// round still busy at the deadline fails its attempt (and, after
    /// the retry, degrades the epoch) instead of stalling the scheduler
    /// forever. `None` runs every round to idle.
    pub epoch_deadline_virtual_secs: Option<u64>,
    /// Failure injection for the epoch supervisor (tests only).
    pub sabotage: Option<EpochSabotage>,
}

impl ServeConfig {
    /// Defaults: one virtual day per epoch, default churn,
    /// run-until-shutdown, state under the OS temp dir, three
    /// checkpoint generations, no deadline.
    pub fn new(year: Year, scale: f64) -> Self {
        Self {
            year,
            scale,
            seed: 7,
            shards: 1,
            epoch_virtual_secs: 86_400,
            epochs: None,
            churn: ChurnConfig::default(),
            state_dir: std::env::temp_dir().join("orscope-serve"),
            checkpoint_every: 0,
            keep_generations: 3,
            interval: Duration::ZERO,
            epoch_deadline_virtual_secs: None,
            sabotage: None,
        }
    }

    /// Checks the knobs for operator errors.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range knob.
    pub fn validate(&self) -> Result<(), String> {
        // Scale, shards and deadline are the rounds' to judge.
        self.campaign_config(0)
            .validate()
            .map_err(|err| match err {
                CampaignError::InvalidConfig(reason) => reason,
                other => other.to_string(),
            })?;
        if self.epoch_virtual_secs == 0 {
            return Err("epoch length must be positive".to_string());
        }
        if self.epochs == Some(0) {
            return Err("epoch limit 0 would never scan".to_string());
        }
        if self.keep_generations == 0 {
            return Err("keep-generations 0 would delete every checkpoint".to_string());
        }
        self.churn.validate()
    }

    /// The configuration of epoch `epoch`'s campaign round.
    pub(crate) fn campaign_config(&self, epoch: u64) -> CampaignConfig {
        let seed = self
            .seed
            .wrapping_add(epoch.wrapping_mul(EPOCH_SEED_STRIDE));
        let config = CampaignConfig::new(self.year, self.scale)
            .with_seed(seed)
            .with_shards(self.shards);
        match self.epoch_deadline_virtual_secs {
            Some(deadline) => config.with_virtual_deadline(Duration::from_secs(deadline)),
            None => config,
        }
    }

    /// The identity of this run's deterministic output stream.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            year: self.year.as_u16(),
            scale: self.scale,
            seed: self.seed,
            shards: self.shards,
            epoch_virtual_secs: self.epoch_virtual_secs,
            churn: self.churn.clone(),
            epoch_deadline_virtual_secs: self.epoch_deadline_virtual_secs,
        }
    }
}

/// A serve-run failure.
#[derive(Debug)]
pub enum ServeError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// A campaign round failed.
    Campaign(CampaignError),
    /// The state dir is unusable: not creatable, not a directory, or
    /// not writable. Detected at startup, before any epoch runs.
    StateDir(String),
    /// The state dir could not be read or written.
    Io(std::io::Error),
    /// The state dir holds a checkpoint from a different run identity;
    /// continuing would splice two incompatible output streams.
    IncompatibleCheckpoint(String),
    /// Every checkpoint generation in the state dir failed
    /// verification. The corrupt files were quarantined (`*.corrupt`);
    /// resuming silently from scratch would hide the data loss, so the
    /// operator must opt in by pointing at a fresh state dir.
    CorruptState(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidConfig(reason) => write!(f, "invalid serve config: {reason}"),
            ServeError::Campaign(err) => write!(f, "campaign round failed: {err}"),
            ServeError::StateDir(reason) => write!(f, "unusable state dir: {reason}"),
            ServeError::Io(err) => write!(f, "serve state dir: {err}"),
            ServeError::IncompatibleCheckpoint(reason) => {
                write!(f, "incompatible checkpoint: {reason}")
            }
            ServeError::CorruptState(reason) => write!(f, "corrupt state: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CampaignError> for ServeError {
    fn from(err: CampaignError) -> Self {
        ServeError::Campaign(err)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(err: std::io::Error) -> Self {
        ServeError::Io(err)
    }
}

/// What a finished (or shut down) run did.
#[derive(Debug)]
pub struct RunReport {
    /// Epochs absorbed into the tables, counting resumed ones.
    pub epochs_completed: u64,
    /// `Some(n)` when the run resumed a checkpoint with `n` epochs done.
    pub resumed_from: Option<u64>,
    /// Where the final checkpoint generation was flushed.
    pub checkpoint_path: PathBuf,
    /// Corrupt generations quarantined (`*.corrupt`) during recovery;
    /// each one is a rollback to an older generation.
    pub quarantined: Vec<PathBuf>,
    /// Epochs that exhausted their retry and were absorbed as degraded
    /// rows this run.
    pub epochs_degraded: u64,
}

/// Where the scheduler is in its lifecycle, as exposed on `/readyz`.
/// `/healthz` answers "is the process alive" and stays 200 through
/// recovery and degradation; `/readyz` answers "is the data surface
/// fully caught up and clean".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceState {
    /// Constructed, not yet running.
    Starting,
    /// Verifying checkpoint generations / replaying churn.
    Recovering,
    /// Serving; last epoch completed normally.
    Ready,
    /// Serving, but the most recent epoch was absorbed as a degraded
    /// row.
    Degraded,
    /// Final checkpoint flushed; scheduler exited.
    Stopping,
}

impl ServiceState {
    fn from_u8(value: u8) -> Self {
        match value {
            0 => ServiceState::Starting,
            1 => ServiceState::Recovering,
            2 => ServiceState::Ready,
            3 => ServiceState::Degraded,
            _ => ServiceState::Stopping,
        }
    }

    /// The state's wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ServiceState::Starting => "starting",
            ServiceState::Recovering => "recovering",
            ServiceState::Ready => "ready",
            ServiceState::Degraded => "degraded",
            ServiceState::Stopping => "stopping",
        }
    }
}

/// State shared between the epoch scheduler and the HTTP surface.
/// Readers (HTTP handlers) never block the scheduler for longer than
/// one document render.
pub struct ObservatoryShared {
    tables: RwLock<RollingTables>,
    campaign_telemetry: Mutex<TelemetrySnapshot>,
    /// The record bus every campaign round publishes to; `/tap`
    /// connections subscribe here.
    bus: Arc<RecordBus>,
    book: ServiceBook,
    state: AtomicU8,
    healthy: AtomicBool,
    shutdown: AtomicBool,
    /// Rounds started and not yet absorbed, and the most there ever
    /// were: what proves rounds overlap, whatever the timing.
    #[cfg(test)]
    rounds_in_flight: AtomicU64,
    #[cfg(test)]
    rounds_in_flight_high_water: AtomicU64,
}

impl ObservatoryShared {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            tables: RwLock::new(RollingTables::default()),
            campaign_telemetry: Mutex::new(TelemetrySnapshot::default()),
            bus: Arc::new(RecordBus::new()),
            book: ServiceBook::default(),
            state: AtomicU8::new(ServiceState::Starting as u8),
            healthy: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            #[cfg(test)]
            rounds_in_flight: AtomicU64::new(0),
            #[cfg(test)]
            rounds_in_flight_high_water: AtomicU64::new(0),
        })
    }

    #[cfg(test)]
    fn round_started(&self) {
        let now = self.rounds_in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.rounds_in_flight_high_water
            .fetch_max(now, Ordering::SeqCst);
    }

    /// Asks the scheduler (and the HTTP accept loop) to wind down.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Epochs absorbed so far.
    pub fn epochs_completed(&self) -> u64 {
        self.book.epochs_completed.load(Ordering::SeqCst)
    }

    /// Whether the scheduler is up (true from run start to final
    /// checkpoint flush; liveness, not readiness).
    pub(crate) fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// Where the scheduler is in its lifecycle.
    pub fn state(&self) -> ServiceState {
        ServiceState::from_u8(self.state.load(Ordering::SeqCst))
    }

    pub(crate) fn set_state(&self, state: ServiceState) {
        self.state.store(state as u8, Ordering::SeqCst);
    }

    /// Whether `/readyz` should answer 200: serving, caught up, and the
    /// last epoch was clean.
    pub(crate) fn is_ready(&self) -> bool {
        self.state() == ServiceState::Ready
    }

    /// The record bus campaign rounds publish to. `/tap` handlers
    /// subscribe here; each subscription gets its own bounded lane.
    pub fn bus(&self) -> &Arc<RecordBus> {
        &self.bus
    }

    /// Counts one HTTP request against the service metrics.
    pub(crate) fn record_http_request(&self) {
        self.book.http_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection turned away at the limit.
    pub(crate) fn record_http_rejected(&self) {
        let rejected = &self.book.http_rejected_conns;
        rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection dropped for blowing an I/O deadline.
    pub(crate) fn record_http_timeout(&self) {
        self.book.http_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time clone of the rolling tables (for exporters and
    /// invariant checks; the HTTP surface uses the `*_bytes` forms).
    pub fn tables_snapshot(&self) -> RollingTables {
        read(&self.tables).clone()
    }

    /// The `/tables` document, as served.
    pub fn tables_bytes(&self) -> Vec<u8> {
        read(&self.tables).tables_bytes()
    }

    /// The `/trends` document, as served.
    pub fn trends_bytes(&self) -> Vec<u8> {
        read(&self.tables).trends_bytes()
    }

    /// The `/healthz` document, as served. Liveness only: 200 as long
    /// as the process runs, through recovery and degraded epochs alike.
    pub(crate) fn healthz_bytes(&self) -> Vec<u8> {
        // Fixed fields written directly (numbers and two fixed words,
        // nothing to escape): the probes are what the operator's
        // monitoring trusts, so they build no value tree on the way out.
        let status = if self.is_healthy() { "ok" } else { "stopping" };
        format!(
            "{{\n  \"epochs_completed\": {},\n  \"population\": {},\n  \"status\": \"{status}\"\n}}\n",
            self.epochs_completed(),
            self.book.population.load(Ordering::SeqCst),
        )
        .into_bytes()
    }

    /// The `/readyz` document, as served (the HTTP layer pairs it with
    /// 200 when [`Self::is_ready`], 503 otherwise).
    pub(crate) fn readyz_bytes(&self) -> Vec<u8> {
        let state = self.state();
        format!(
            "{{\n  \"checkpoint_rollbacks\": {},\n  \"epoch_retries\": {},\n  \
             \"epochs_completed\": {},\n  \"epochs_degraded\": {},\n  \
             \"ready\": {},\n  \"state\": \"{}\"\n}}\n",
            self.book.checkpoint_rollbacks.load(Ordering::Relaxed),
            self.book.epoch_retries.load(Ordering::Relaxed),
            self.epochs_completed(),
            self.book.epochs_degraded.load(Ordering::Relaxed),
            state == ServiceState::Ready,
            state.as_str(),
        )
        .into_bytes()
    }

    /// The `/metrics` document: the service's book plus the absorbed
    /// campaign telemetry, both in Prometheus text format with a
    /// `surface` label telling them apart.
    pub fn metrics_bytes(&self) -> Vec<u8> {
        let mut out = self
            .book
            .snapshot()
            .to_prometheus_labeled(&[("surface", "service")]);
        out.push_str(
            &lock(&self.campaign_telemetry).to_prometheus_labeled(&[("surface", "campaign")]),
        );
        // Tap/bus metrics are rendered straight from the bus rather
        // than through a snapshot: their values depend on how fast
        // external tap consumers drain their lanes (queue depth, drops),
        // so they are load-dependent and deliberately excluded from the
        // shard-invariance assertions that cover the campaign surface.
        let bus = self.bus.stats();
        out.push_str(&format!(
            "orscope_tap_subscribers{{surface=\"service\"}} {}\n\
             orscope_tap_subscribers_total{{surface=\"service\"}} {}\n\
             orscope_tap_events_published{{surface=\"service\"}} {}\n\
             orscope_tap_events_dropped{{surface=\"service\"}} {}\n",
            bus.subscribers, bus.attached_total, bus.published, bus.dropped,
        ));
        for lane in self.bus.lane_stats() {
            out.push_str(&format!(
                "orscope_tap_queue_depth{{surface=\"service\",lane=\"{id}\"}} {depth}\n\
                 orscope_tap_lane_dropped{{surface=\"service\",lane=\"{id}\"}} {dropped}\n",
                id = lane.id,
                depth = lane.depth,
                dropped = lane.dropped,
            ));
        }
        out.into_bytes()
    }
}

/// The service's book: plain atomics that the scheduler and the HTTP
/// workers write, and that `/healthz`, `/readyz` and `/metrics` all
/// read.
#[derive(Default)]
struct ServiceBook {
    epochs_completed: AtomicU64,
    population: AtomicU64,
    materialized_hosts: AtomicU64,
    churn_joins: AtomicU64,
    churn_leaves: AtomicU64,
    churn_drifts: AtomicU64,
    rounds: AtomicU64,
    http_requests: AtomicU64,
    epochs_degraded: AtomicU64,
    epoch_retries: AtomicU64,
    checkpoint_rollbacks: AtomicU64,
    http_rejected_conns: AtomicU64,
    http_timeouts: AtomicU64,
}

impl ServiceBook {
    /// The book entered into a snapshot by name (`observe.{field}`), as
    /// `/metrics` renders it: levels are gauges, tallies are counters.
    fn snapshot(&self) -> TelemetrySnapshot {
        let book = [
            ("epochs_completed", true, &self.epochs_completed),
            ("population", true, &self.population),
            ("materialized_hosts", true, &self.materialized_hosts),
            ("churn_joins", false, &self.churn_joins),
            ("churn_leaves", false, &self.churn_leaves),
            ("churn_drifts", false, &self.churn_drifts),
            ("rounds", false, &self.rounds),
            ("http_requests", false, &self.http_requests),
            ("epochs_degraded", false, &self.epochs_degraded),
            ("epoch_retries", false, &self.epoch_retries),
            ("checkpoint_rollbacks", false, &self.checkpoint_rollbacks),
            ("http_rejected_conns", false, &self.http_rejected_conns),
            ("http_timeouts", false, &self.http_timeouts),
        ];
        let mut out = TelemetrySnapshot::default();
        for (name, level, cell) in book {
            let scope = Scope::Shard;
            let value = cell.load(Ordering::SeqCst);
            let series = if level {
                &mut out.gauges
            } else {
                &mut out.counters
            };
            series.insert(format!("observe.{name}"), MetricValue { scope, value });
        }
        out
    }
}

/// The long-running service: epoch scheduler plus shared state.
pub struct Observatory<R: Resolve = ChurnModel> {
    config: ServeConfig,
    resolve: R,
    shared: Arc<ObservatoryShared>,
}

impl Observatory<ChurnModel> {
    /// An observatory over the built-in seeded churn model.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeConfig::validate`] failures.
    pub fn new(config: ServeConfig) -> Result<Self, ServeError> {
        let churn = ChurnModel::new(config.churn.clone());
        Self::with_resolve(config, churn)
    }
}

impl<R: Resolve> Observatory<R> {
    /// An observatory over a custom discovery source.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeConfig::validate`] failures.
    pub fn with_resolve(config: ServeConfig, resolve: R) -> Result<Self, ServeError> {
        config.validate().map_err(ServeError::InvalidConfig)?;
        Ok(Self {
            config,
            resolve,
            shared: ObservatoryShared::new(),
        })
    }

    /// The state the HTTP surface (and tests) read.
    pub fn shared(&self) -> Arc<ObservatoryShared> {
        self.shared.clone()
    }

    /// The configuration this observatory runs.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Runs epochs until the limit is reached or shutdown is requested,
    /// then flushes the final checkpoint generation. Blocking; pair
    /// with [`crate::http::serve`] on another thread for the live
    /// surface. Two epochs' rounds are in flight at a time; a shutdown
    /// requested while they run lets both finish and be absorbed before
    /// the final flush. With an interval, each absorb is still followed
    /// by its pause.
    ///
    /// # Errors
    ///
    /// Fails on an unusable state dir, a state dir whose every
    /// generation is corrupt or was written by an incompatible run, or
    /// a non-degradable campaign error. Epoch-level failures (panics,
    /// deadline blows, lost shards) do NOT error: they degrade.
    pub fn run(&mut self) -> Result<RunReport, ServeError> {
        let config = &self.config;
        let shared = &self.shared;
        let clock = EpochClock::new(Duration::from_secs(config.epoch_virtual_secs));

        ensure_state_dir(&config.state_dir)?;
        shared.set_state(ServiceState::Recovering);
        shared.healthy.store(true, Ordering::SeqCst);

        let mut target = PopulationConfig::new(config.year, config.scale);
        target.seed = config.seed;
        target.reserved_hosts = Infra::default().addresses();
        let mut resolution = self.resolve.resolve(&target);
        let statics = resolution.seed_population();

        // Resume: verify generations newest-first, quarantining corrupt
        // ones, then fast-forward churn through the completed epochs
        // (membership is a pure function of the seed, so no scans
        // re-run).
        let ours = config.fingerprint();
        let recovery = ObservatoryCheckpoint::recover(&config.state_dir, &ours)?;
        let quarantined = recovery.quarantined.clone();
        let rollbacks = recovery.rollbacks();
        shared
            .book
            .checkpoint_rollbacks
            .fetch_add(rollbacks, Ordering::Relaxed);
        let mut resumed_from = None;
        match recovery.checkpoint {
            Some(checkpoint) => {
                resumed_from = Some(checkpoint.epochs_done);
                *write(&shared.tables) = checkpoint.tables;
            }
            None if !recovery.incompatible.is_empty() => {
                return Err(ServeError::IncompatibleCheckpoint(format!(
                    "state dir {} was written by a different run ({}); \
                     move it aside or change --state-dir",
                    config.state_dir.display(),
                    recovery.incompatible[0].display(),
                )));
            }
            None if !recovery.quarantined.is_empty() => {
                return Err(ServeError::CorruptState(format!(
                    "every checkpoint generation in {} failed verification and was \
                     quarantined as *.corrupt; restarting from epoch 0 would silently \
                     discard history — point --state-dir at a fresh directory to start over",
                    config.state_dir.display(),
                )));
            }
            None => {}
        }
        let start_epoch = resumed_from.unwrap_or(0);

        let mut membership = Membership::new(Arc::clone(&statics.table));
        for epoch in 0..start_epoch {
            while let Some(update) = resolution.poll_update(epoch) {
                membership.apply(update);
            }
        }

        let book = &shared.book;
        book.epochs_completed.store(start_epoch, Ordering::SeqCst);
        book.population.store(membership.len(), Ordering::SeqCst);
        shared.set_state(ServiceState::Ready);

        let limit = config.epochs.unwrap_or(u64::MAX);
        let mut epochs_degraded = 0u64;
        let mut epochs_completed = start_epoch;
        while epochs_completed < limit && !shared.shutdown_requested() {
            // Open the next epochs in order: membership advances and each
            // epoch's row, both matrices it may end with and the
            // population its round scans are fixed before any round runs.
            let batch = epochs_completed..limit.min(epochs_completed + ROUNDS_IN_FLIGHT);
            let mut opened = Vec::with_capacity(ROUNDS_IN_FLIGHT as usize);
            let mut populations = Vec::with_capacity(ROUNDS_IN_FLIGHT as usize);
            for epoch in batch {
                let churn =
                    membership.advance(std::iter::from_fn(|| resolution.poll_update(epoch)));
                opened.push(Opened {
                    row: EpochRow {
                        epoch,
                        virtual_day: clock.days_at(epoch),
                        population: membership.len(),
                        joins: churn.joins,
                        leaves: churn.leaves,
                        drifts: churn.drifts,
                        class_counts: membership.class_counts,
                        ..EpochRow::default()
                    },
                    transitions: membership.transitions(&churn),
                    skipped: membership.skipped(),
                });
                populations.push(membership.population(&statics));
            }

            // Then absorb them strictly in epoch order, exactly as if
            // they had run one after another. A shutdown requested
            // meanwhile lets every opened epoch land first.
            let rounds = run_rounds(config, shared, epochs_completed, populations);
            for (opened, round) in opened.into_iter().zip(rounds) {
                epochs_degraded += u64::from(absorb(shared, opened, round));
                epochs_completed += 1;
                if config.checkpoint_every > 0 && epochs_completed % config.checkpoint_every == 0 {
                    self.flush_generation(epochs_completed)?;
                }
                wait_interval(shared, config.interval);
            }
        }

        let checkpoint_path = self.flush_generation(epochs_completed)?;
        shared.set_state(ServiceState::Stopping);
        shared.healthy.store(false, Ordering::SeqCst);
        Ok(RunReport {
            epochs_completed,
            resumed_from,
            checkpoint_path,
            quarantined,
            epochs_degraded,
        })
    }

    /// Writes generation `epochs_done`: encoded under the read lock,
    /// straight from the shared tables, then persisted outside it.
    fn flush_generation(&self, epochs_done: u64) -> Result<PathBuf, ServeError> {
        let config = &self.config;
        let sealed = ObservatoryCheckpoint::sealed(
            &config.fingerprint(),
            epochs_done,
            &read(&self.shared.tables),
        );
        Ok(ObservatoryCheckpoint::persist(
            &config.state_dir,
            config.keep_generations,
            epochs_done,
            &sealed,
        )?)
    }
}

/// An epoch between its membership update and its absorb: the row as
/// churn left it, plus the matrix it takes if its round completes and
/// the one it takes if the round degrades.
struct Opened {
    row: EpochRow,
    transitions: TransitionMatrix,
    skipped: TransitionMatrix,
}

/// What a completed round leaves for its row: the Table III, VI and IX
/// counts, the campaign telemetry, and the peak of hosts it
/// materialized. The round's result itself is dropped where it ran.
struct Round {
    r2: u64,
    without_answer: u64,
    correct: u64,
    incorrect: u64,
    err_pct: f64,
    nxdomain: u64,
    refused: u64,
    malicious: u64,
    telemetry: Option<TelemetrySnapshot>,
    materialized_hosts: u64,
}

impl Round {
    fn of(result: &CampaignResult) -> Self {
        let breakdown = result.table3_measured().0;
        let rcodes = result.table6_measured();
        let (nx_w, nx_wo) = rcodes.get(Rcode::NXDomain);
        let (ref_w, ref_wo) = rcodes.get(Rcode::Refused);
        Self {
            r2: breakdown.total(),
            without_answer: breakdown.wo,
            correct: breakdown.w_corr,
            incorrect: breakdown.w_incorr,
            err_pct: breakdown.err_pct(),
            nxdomain: nx_w + nx_wo,
            refused: ref_w + ref_wo,
            malicious: result.table9_measured().total_r2(),
            telemetry: result.telemetry().cloned(),
            materialized_hosts: result.materialized_hosts() as u64,
        }
    }

    /// Writes the scan counts into `row`.
    fn fill(&self, row: &mut EpochRow) {
        row.r2 = self.r2;
        row.without_answer = self.without_answer;
        row.correct = self.correct;
        row.incorrect = self.incorrect;
        row.err_pct = self.err_pct;
        row.nxdomain = self.nxdomain;
        row.refused = self.refused;
        row.malicious = self.malicious;
    }
}

/// Runs the rounds of the epochs from `first` on, one per population:
/// the first on this thread, each other on a scoped helper of its own.
/// Rounds share nothing but the bus, so they run side by side; the
/// outcomes come back in epoch order.
fn run_rounds(
    config: &ServeConfig,
    shared: &ObservatoryShared,
    first: u64,
    populations: Vec<Population>,
) -> Vec<Supervised<Round>> {
    let start = |epoch: u64, population: Population| {
        #[cfg(test)]
        shared.round_started();
        run_round(config, Arc::clone(&shared.bus), epoch, population)
    };
    std::thread::scope(|scope| {
        let mut rounds = (first..).zip(populations);
        let here = rounds.next();
        let helpers: Vec<_> = rounds
            .map(|(epoch, population)| scope.spawn(move || start(epoch, population)))
            .collect();
        here.map(|(epoch, population)| start(epoch, population))
            .into_iter()
            .chain(
                helpers
                    .into_iter()
                    .map(|helper| helper.join().expect("a round's supervisor does not panic")),
            )
            .collect()
    })
}

/// The supervised campaign round of `epoch` over `population`: an
/// attempt, then one retry with the identical seed. An attempt fails by
/// panicking (the sabotage hook, keyed on `(epoch, attempt)`, panics
/// before the campaign starts), by a campaign error, or by a
/// shard-incomplete result.
fn run_round(
    config: &ServeConfig,
    bus: Arc<RecordBus>,
    epoch: u64,
    population: Population,
) -> Supervised<Round> {
    let campaign = Campaign::new(config.campaign_config(epoch)).with_bus(bus);
    // Shared, so the retry scans the very population the attempt did.
    let population = Arc::new(population);
    supervise(|attempt| {
        if config
            .sabotage
            .is_some_and(|plan| plan.epoch == epoch && attempt < plan.failures)
        {
            panic!("sabotaged epoch attempt");
        }
        match campaign.run_with_population(Arc::clone(&population)) {
            Ok(round) if round.is_partial() => {
                // A shard is missing, so the counts depend on the shard
                // layout; absorbing them would break byte-invariance.
                // Treat like any other failure.
                let report = round
                    .degraded()
                    .map(ToString::to_string)
                    .unwrap_or_default();
                Err(format!("shard-incomplete result: {}", report.trim_end()))
            }
            Ok(round) => Ok(Round::of(&round)),
            Err(err) => Err(err.to_string()),
        }
    })
}

/// Absorbs one epoch whose round came back: its row into the tables,
/// then the service's gauges, counters and state. Returns whether the
/// epoch degraded.
fn absorb(shared: &ObservatoryShared, opened: Opened, supervised: Supervised<Round>) -> bool {
    let Opened {
        mut row,
        transitions,
        skipped,
    } = opened;
    let epoch = row.epoch;
    if let Some(message) = &supervised.first_failure {
        shared.book.epoch_retries.fetch_add(1, Ordering::Relaxed);
        eprintln!("epoch {epoch} attempt failed ({message}); retrying");
    }
    let round = supervised
        .outcome
        .inspect_err(|message| eprintln!("epoch {epoch} retry failed ({message}); degrading"))
        .ok();
    match &round {
        Some(round) => {
            round.fill(&mut row);
            row.transitions = transitions;
        }
        None => {
            // Degraded epoch: the scan never produced a usable round.
            // Membership still advanced (churn is pure), so the
            // population is conserved in the `skip` pseudo-row at each
            // member's current class; scan counts stay zero.
            row.transitions = skipped;
            row.degraded = true;
        }
    }
    let (population, joins, leaves, drifts) = (row.population, row.joins, row.leaves, row.drifts);
    write(&shared.tables).absorb_epoch(row);
    #[cfg(test)]
    shared.rounds_in_flight.fetch_sub(1, Ordering::SeqCst);

    let book = &shared.book;
    book.epochs_completed.store(epoch + 1, Ordering::SeqCst);
    book.population.store(population, Ordering::SeqCst);
    if epoch > 0 {
        book.churn_joins.fetch_add(joins, Ordering::Relaxed);
    }
    book.churn_leaves.fetch_add(leaves, Ordering::Relaxed);
    book.churn_drifts.fetch_add(drifts, Ordering::Relaxed);
    match round {
        Some(round) => {
            let hosts = round.materialized_hosts;
            book.materialized_hosts.store(hosts, Ordering::Relaxed);
            book.rounds.fetch_add(1, Ordering::Relaxed);
            if let Some(snapshot) = &round.telemetry {
                lock(&shared.campaign_telemetry).absorb(snapshot);
            }
            shared.set_state(ServiceState::Ready);
            false
        }
        None => {
            book.epochs_degraded.fetch_add(1, Ordering::Relaxed);
            shared.set_state(ServiceState::Degraded);
            true
        }
    }
}

/// Creates the state dir if needed and proves it is a writable
/// directory, so a bad `--state-dir` fails at startup with a clear
/// message instead of after the first epoch's worth of work.
fn ensure_state_dir(dir: &Path) -> Result<(), ServeError> {
    std::fs::create_dir_all(dir)
        .map_err(|err| ServeError::StateDir(format!("cannot create {}: {err}", dir.display())))?;
    if !dir.is_dir() {
        return Err(ServeError::StateDir(format!(
            "{} exists but is not a directory",
            dir.display()
        )));
    }
    let probe = dir.join(".write-probe.tmp");
    std::fs::write(&probe, b"probe")
        .and_then(|()| std::fs::remove_file(&probe))
        .map_err(|err| ServeError::StateDir(format!("{} is not writable: {err}", dir.display())))
}

/// The current membership as `(profile, country)` ids into the seed
/// population's table, with a running count of it per behavior class.
/// A member's class is its profile's, so none is stored apart.
struct Membership {
    members: BTreeMap<Ipv4Addr, (u32, u16)>,
    table: Arc<ProfileTable>,
    /// Members per class, indexed by [`ProfileClass::index`].
    class_counts: [u64; N_CLASSES],
}

/// What one epoch's updates did: the churn counts, the class counts the
/// epoch opened with, and the class each address an update touched had
/// then (`None`: not a member).
struct EpochChurn {
    joins: u64,
    leaves: u64,
    drifts: u64,
    opened_with: [u64; N_CLASSES],
    touched: BTreeMap<Ipv4Addr, Option<ProfileClass>>,
}

/// What applying one update did to the membership table.
enum Applied {
    Join,
    Leave,
    Drift,
    Ignored,
}

impl Membership {
    fn new(table: Arc<ProfileTable>) -> Self {
        Self {
            members: BTreeMap::new(),
            table,
            class_counts: [0; N_CLASSES],
        }
    }

    fn len(&self) -> u64 {
        self.members.len() as u64
    }

    fn class_of(&self, addr: Ipv4Addr) -> Option<ProfileClass> {
        let &(profile, _) = self.members.get(&addr)?;
        Some(self.table.get(profile).class())
    }

    fn apply(&mut self, update: Update) -> Applied {
        let addr = update.addr();
        let before = self.class_of(addr);
        let applied = match update {
            Update::Add {
                profile, country, ..
            } => {
                self.members.insert(addr, (profile, country));
                Applied::Join
            }
            Update::Remove(_) => match self.members.remove(&addr) {
                Some(_) => Applied::Leave,
                None => Applied::Ignored,
            },
            Update::Drift { to, .. } => match self.members.get_mut(&addr) {
                Some((profile, _)) => {
                    *profile = to;
                    Applied::Drift
                }
                None => Applied::Ignored,
            },
        };
        if let Some(class) = before {
            self.class_counts[class.index()] -= 1;
        }
        if let Some(class) = self.class_of(addr) {
            self.class_counts[class.index()] += 1;
        }
        applied
    }

    /// Applies one epoch's updates, noting what its transitions need.
    fn advance(&mut self, updates: impl Iterator<Item = Update>) -> EpochChurn {
        let mut churn = EpochChurn {
            joins: 0,
            leaves: 0,
            drifts: 0,
            opened_with: self.class_counts,
            touched: BTreeMap::new(),
        };
        for update in updates {
            let addr = update.addr();
            churn
                .touched
                .entry(addr)
                .or_insert_with(|| self.class_of(addr));
            match self.apply(update) {
                Applied::Join => churn.joins += 1,
                Applied::Leave => churn.leaves += 1,
                Applied::Drift => churn.drifts += 1,
                Applied::Ignored => {}
            }
        }
        churn
    }

    /// Where each current member came from over the epoch `churn`
    /// describes: a touched address from its class at the epoch's open
    /// (or `join`), every other member from the class it is still in.
    fn transitions(&self, churn: &EpochChurn) -> TransitionMatrix {
        let mut matrix = TransitionMatrix::default();
        let mut untouched = churn.opened_with;
        for (&addr, &opened) in &churn.touched {
            if let Some(class) = opened {
                untouched[class.index()] -= 1;
            }
            if let Some(class) = self.class_of(addr) {
                matrix.record(opened, class);
            }
        }
        for class in ProfileClass::ALL {
            matrix.add(class.index(), class, untouched[class.index()]);
        }
        matrix
    }

    /// The population a round over the current members scans: `statics`
    /// with the members as its resolvers. Their ids index `statics`'
    /// table, which the round shares rather than copies. Members come in
    /// address order, so the round's generation order is its storage
    /// order.
    fn population(&self, statics: &Population) -> Population {
        let mut population = statics.clone();
        population.resolvers = self
            .members
            .iter()
            .map(|(&addr, &(profile, country))| (addr, profile, country))
            .collect();
        population
    }

    /// A degraded epoch's matrix: every member in the `skip` pseudo-row
    /// at its current class.
    fn skipped(&self) -> TransitionMatrix {
        let mut matrix = TransitionMatrix::default();
        for class in ProfileClass::ALL {
            matrix.add(SKIP, class, self.class_counts[class.index()]);
        }
        matrix
    }
}

/// Sleeps `interval` in short slices, returning early on shutdown.
fn wait_interval(shared: &ObservatoryShared, interval: Duration) {
    let mut remaining = interval;
    while !remaining.is_zero() && !shared.shutdown_requested() {
        let slice = remaining.min(Duration::from_millis(20));
        std::thread::sleep(slice);
        remaining = remaining.saturating_sub(slice);
    }
}

#[cfg(test)]
mod tests {
    use orscope_check::Rng;
    use orscope_resolver::{HostList, ResponsePolicy};

    use super::*;

    fn scratch(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "orscope-observatory-test-{label}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(label: &str) -> ServeConfig {
        let mut config = ServeConfig::new(Year::Y2018, 60_000.0);
        config.epochs = Some(3);
        config.state_dir = scratch(label);
        config
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut bad = config("validate");
        bad.shards = 0;
        assert!(matches!(
            Observatory::new(bad).err(),
            Some(ServeError::InvalidConfig(_))
        ));
        let mut zero_epochs = config("validate2");
        zero_epochs.epochs = Some(0);
        assert!(Observatory::new(zero_epochs).is_err());
        let mut zero_keep = config("validate3");
        zero_keep.keep_generations = 0;
        assert!(Observatory::new(zero_keep).is_err());
        let mut zero_deadline = config("validate4");
        zero_deadline.epoch_deadline_virtual_secs = Some(0);
        assert!(Observatory::new(zero_deadline).is_err());
    }

    #[test]
    fn a_configuration_whose_rounds_cannot_scan_is_refused_up_front() {
        // No round of these can scan, so the rounds' own validation
        // refuses them before the first epoch rather than letting every
        // epoch degrade.
        let mut empty = config("validate5");
        empty.scale = 1e9;
        let mut too_many_shards = config("validate6");
        too_many_shards.shards = 65;
        let mut below_one = config("validate7");
        below_one.scale = 0.5;
        for (bad, reason) in [
            (empty, "no responder"),
            (too_many_shards, "out of range"),
            (below_one, "at least 1"),
        ] {
            let campaign = bad.campaign_config(0).validate().unwrap_err();
            let refused = bad.validate().unwrap_err();
            assert!(refused.contains(reason), "{refused}");
            assert!(
                campaign.to_string().ends_with(&refused),
                "{campaign} / {refused}"
            );
        }
    }

    #[test]
    fn runs_the_configured_number_of_epochs() {
        let mut observatory = Observatory::new(config("runs")).unwrap();
        let shared = observatory.shared();
        assert_eq!(shared.state(), ServiceState::Starting);
        let report = observatory.run().unwrap();
        assert_eq!(report.epochs_completed, 3);
        assert_eq!(report.resumed_from, None);
        assert_eq!(report.epochs_degraded, 0);
        assert!(report.quarantined.is_empty());
        assert_eq!(shared.epochs_completed(), 3);
        assert!(!shared.is_healthy(), "unhealthy after final flush");
        assert_eq!(shared.state(), ServiceState::Stopping);
        assert!(!shared.is_ready());
        let tables = shared.tables_bytes();
        assert!(!tables.is_empty());
        assert!(report.checkpoint_path.exists());
        std::fs::remove_dir_all(&observatory.config().state_dir).unwrap();
    }

    #[test]
    fn two_rounds_are_in_flight_before_either_is_absorbed() {
        // Counted from a round's start to its row's absorb, so the count
        // needs no timing: a scheduler that absorbed each round before
        // starting the next would never read more than one.
        let mut four = config("in-flight");
        four.epochs = Some(4);
        let mut observatory = Observatory::new(four).unwrap();
        let shared = observatory.shared();
        observatory.run().unwrap();
        assert_eq!(shared.rounds_in_flight_high_water.load(Ordering::SeqCst), 2);
        assert_eq!(shared.rounds_in_flight.load(Ordering::SeqCst), 0);
        std::fs::remove_dir_all(&observatory.config().state_dir).unwrap();
    }

    #[test]
    fn transition_rows_sum_to_population_every_epoch() {
        let mut observatory = Observatory::new(config("conserve")).unwrap();
        let shared = observatory.shared();
        observatory.run().unwrap();
        let tables = read(&shared.tables);
        assert_eq!(tables.epochs().len(), 3);
        for row in tables.epochs() {
            assert_eq!(
                row.transitions.total(),
                row.population,
                "epoch {}: every member must land in exactly one cell",
                row.epoch
            );
            assert!(row.population > 0);
            assert!(row.r2 > 0, "epoch {} campaign saw responses", row.epoch);
        }
        drop(tables);
        std::fs::remove_dir_all(&observatory.config().state_dir).unwrap();
    }

    #[test]
    fn incompatible_checkpoint_is_refused() {
        let dir = scratch("refuse");
        let mut first = config("refuse");
        first.state_dir = dir.clone();
        first.epochs = Some(1);
        Observatory::new(first.clone()).unwrap().run().unwrap();
        let mut reseeded = first;
        reseeded.seed = 999;
        let err = Observatory::new(reseeded).unwrap().run().unwrap_err();
        assert!(
            matches!(err, ServeError::IncompatibleCheckpoint(_)),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_before_first_epoch_still_flushes_a_checkpoint() {
        let mut config = config("early-shutdown");
        config.epochs = None;
        let mut observatory = Observatory::new(config).unwrap();
        observatory.shared().request_shutdown();
        let report = observatory.run().unwrap();
        assert_eq!(report.epochs_completed, 0);
        assert!(report.checkpoint_path.exists());
        std::fs::remove_dir_all(&observatory.config().state_dir).unwrap();
    }

    #[test]
    fn state_dir_under_a_file_is_a_startup_error() {
        let blocker = std::env::temp_dir().join(format!(
            "orscope-observatory-blocker-{}",
            std::process::id()
        ));
        std::fs::write(&blocker, b"in the way").unwrap();
        let mut bad = config("statedir");
        bad.state_dir = blocker.join("nested");
        let err = Observatory::new(bad).unwrap().run().unwrap_err();
        assert!(matches!(err, ServeError::StateDir(_)), "{err}");
        std::fs::remove_file(&blocker).unwrap();
    }

    #[test]
    fn sabotaged_epoch_degrades_after_one_retry() {
        let mut sabotaged = config("sabotage");
        sabotaged.sabotage = Some(EpochSabotage {
            epoch: 1,
            failures: 2,
        });
        let mut observatory = Observatory::new(sabotaged).unwrap();
        let shared = observatory.shared();
        let report = observatory.run().unwrap();
        assert_eq!(report.epochs_completed, 3, "run survived the bad epoch");
        assert_eq!(report.epochs_degraded, 1);
        let tables = shared.tables_snapshot();
        let row = &tables.epochs()[1];
        assert!(row.degraded);
        assert_eq!(row.r2, 0);
        assert_eq!(row.transitions.total(), row.population, "conserved");
        assert!(!tables.epochs()[0].degraded);
        assert!(!tables.epochs()[2].degraded);
        std::fs::remove_dir_all(&observatory.config().state_dir).unwrap();
    }

    /// The clone-based computation the delta replaced: copy the class
    /// map before the epoch's updates and diff the current one against
    /// it.
    fn transitions_by_clone(
        opened: &BTreeMap<Ipv4Addr, ProfileClass>,
        now: &BTreeMap<Ipv4Addr, ProfileClass>,
        degraded: bool,
    ) -> (TransitionMatrix, [u64; N_CLASSES]) {
        let mut transitions = TransitionMatrix::default();
        let mut class_counts = [0; N_CLASSES];
        for (addr, class) in now {
            if degraded {
                transitions.record_skip(*class);
            } else {
                transitions.record(opened.get(addr).copied(), *class);
            }
            class_counts[class.index()] += 1;
        }
        (transitions, class_counts)
    }

    fn class_map(membership: &Membership) -> BTreeMap<Ipv4Addr, ProfileClass> {
        membership
            .members
            .keys()
            .map(|&addr| (addr, membership.class_of(addr).expect("a member")))
            .collect()
    }

    /// A round's population reads, at every index, the member the
    /// membership holds in that place of its address order, and its
    /// storage order is that order (the permutation is the identity).
    /// It equals what interning each member's owned policy and country
    /// into a copy of the pool table built, and shares the pool table
    /// instead of copying it.
    #[test]
    fn a_rounds_population_reads_the_members_in_address_order() {
        let mut resolution = ChurnModel::new(ChurnConfig::default())
            .resolve(&PopulationConfig::new(Year::Y2018, 20_000.0));
        let statics = resolution.seed_population();
        let pool = statics.table();
        let mut membership = Membership::new(Arc::clone(pool));
        for epoch in 0..4 {
            membership.advance(std::iter::from_fn(|| resolution.poll_update(epoch)));
            let population = membership.population(&statics);
            assert!(Arc::ptr_eq(population.table(), pool), "epoch {epoch}");
            let mut copy = ProfileTable::clone(pool);
            let oracle: HostList = membership
                .members
                .iter()
                .map(|(&addr, &(profile, country))| {
                    let policy = ResponsePolicy::clone(pool.get(profile));
                    let country = pool.country(country);
                    (addr, copy.intern(policy), copy.intern_country(country))
                })
                .collect();
            assert_eq!(population.resolvers, oracle, "epoch {epoch}");
            assert_eq!(
                copy.len(),
                pool.len(),
                "every member's policy is a pool profile"
            );
            let resolvers = &population.resolvers;
            assert_eq!(resolvers.len(), membership.members.len());
            assert!(resolvers.addrs().eq(resolvers.distinct_addrs()));
            for (host, (&addr, &(profile, country))) in
                population.resolvers().zip(&membership.members)
            {
                assert_eq!(host.addr, addr, "epoch {epoch}");
                assert!(Arc::ptr_eq(host.policy, pool.get(profile)), "epoch {epoch}");
                assert_eq!(host.country, pool.country(country), "epoch {epoch}");
                assert_eq!(population.find(addr), Some(profile), "a member is probed");
            }
            assert!(population.resolvers().any(|host| host.country.is_some()));
        }
    }

    #[test]
    fn transitions_from_the_updates_match_the_clone_diff() {
        let churn = ChurnConfig {
            join_rate: 0.2,
            leave_rate: 0.2,
            drift_rate: 0.3,
            pool_headroom: 1.0,
            seed: 11,
        };
        let mut resolution =
            ChurnModel::new(churn).resolve(&PopulationConfig::new(Year::Y2018, 60_000.0));
        let mut rng = Rng::new(3);
        let pool = Arc::clone(resolution.seed_population().table());
        let mut membership = Membership::new(Arc::clone(&pool));
        let mut departed: Vec<(Ipv4Addr, (u32, u16))> = Vec::new();
        let stranger = |n: u8| Ipv4Addr::new(198, 51, 100, n);
        let profiles = [ProfileClass::Honest, ProfileClass::Refusing].map(|class| {
            (0..pool.len() as u32)
                .find(|&id| pool.get(id).class() == class)
                .expect("the pool holds every class")
        });
        for epoch in 0..8 {
            let mut updates: Vec<Update> =
                std::iter::from_fn(|| resolution.poll_update(epoch)).collect();
            if epoch > 0 {
                // What the model never sends, spliced in anywhere: a
                // member re-added under another profile, a departed one
                // back, a join that leaves again, a leave that re-joins,
                // a second drift, and a remove and a drift of nobody.
                let add = |addr, (profile, country)| Update::Add {
                    addr,
                    profile,
                    country,
                };
                let members: Vec<(Ipv4Addr, (u32, u16))> = membership
                    .members
                    .iter()
                    .map(|(&addr, &member)| (addr, member))
                    .collect();
                let (readded, (_, country)) = *rng.choice(&members);
                let readded_as = (*rng.choice(&profiles), country);
                let (rejoined, rejoined_as) = *rng.choice(&members);
                let (drifted, _) = *rng.choice(&members);
                let mut extras = vec![
                    add(readded, readded_as),
                    add(stranger(epoch as u8), readded_as),
                    Update::Remove(stranger(epoch as u8)),
                    Update::Remove(rejoined),
                    add(rejoined, rejoined_as),
                    Update::Drift {
                        addr: drifted,
                        to: *rng.choice(&profiles),
                    },
                    Update::Drift {
                        addr: drifted,
                        to: *rng.choice(&profiles),
                    },
                    Update::Remove(stranger(200)),
                    Update::Drift {
                        addr: stranger(201),
                        to: profiles[0],
                    },
                ];
                if let Some((addr, back)) = departed.pop() {
                    extras.push(add(addr, back));
                }
                for extra in extras {
                    updates.insert(rng.range(0..=updates.len()), extra);
                }
            }
            for update in &updates {
                if let Some(&leaving) = membership.members.get(&update.addr()) {
                    if matches!(update, Update::Remove(_)) {
                        departed.push((update.addr(), leaving));
                    }
                }
            }
            let opened = class_map(&membership);
            let churn = membership.advance(updates.into_iter());
            let degraded = epoch == 5;
            let (expected, class_counts) =
                transitions_by_clone(&opened, &class_map(&membership), degraded);
            let matrix = if degraded {
                membership.skipped()
            } else {
                membership.transitions(&churn)
            };
            assert_eq!(matrix, expected, "epoch {epoch}");
            assert_eq!(membership.class_counts, class_counts, "epoch {epoch}");
            assert_eq!(matrix.total(), membership.len(), "epoch {epoch}");
            if epoch > 0 {
                assert!(churn.joins > 0 && churn.leaves > 0 && churn.drifts > 0);
                assert!(matrix.moved() > 0 || degraded, "epoch {epoch} moved nobody");
            }
        }
    }
}
