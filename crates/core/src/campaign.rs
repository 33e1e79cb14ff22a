//! Campaign assembly and execution.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::{Duration, Instant};

use orscope_analysis::{AnalysisMode, Dataset, StreamingAnalyzer};
use orscope_authns::{
    AuthStats, AuthoritativeServer, CaptureHandle, CapturedPacket, ClusterZone, DelegationServer,
    ProbeLabel, SharedSink, Zone,
};
use orscope_ipspace::AllowedSpace;
use orscope_lookup::geo::GeoDb;
use orscope_lookup::threatintel::ThreatDb;
use orscope_netsim::{
    Coverage, FaultKind, FaultPlan, FaultRule, FaultScope, HashLatency, LazyRegistry, NetStats,
    SimNet, SimTime,
};
use orscope_prober::{ProbeStats, Prober, ProberConfig, TargetSource, MAX_RETRIES};
use orscope_resolver::paper::{Year, YearSpec};
use orscope_resolver::population::{Member, Population, PopulationConfig};
use orscope_resolver::{ProfiledResolver, ResolverStats};
use orscope_telemetry::{MetricValue, Scope, TelemetrySnapshot};

use crate::error::{CampaignError, DegradedReport, ShardFailure, ShardSabotage};
use crate::host::Host;
use crate::infra::{seed_geo_db, seed_threat_db, Infra};
use crate::plan::{self, ShardWalk, SilentRun, TargetPlan};
use crate::recorder::{Publisher, ShardRecorder};
use crate::result::CampaignResult;
use crate::supervise::{supervise, Supervised};

/// Configuration of one reproduction campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Which scan to reproduce.
    pub year: Year,
    /// Down-scaling factor (1.0 = full Internet scale).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Scheduled, scoped network impairments (the chaos layer). The
    /// plan's seed is mixed with the campaign seed, and the same mixed
    /// plan is handed to every shard, so fault decisions are
    /// shard-invariant. Campaign-wide loss and duplication
    /// ([`Self::with_loss`], [`Self::with_duplication`]) are always-on,
    /// all-scope rules of this plan.
    pub faults: FaultPlan,
    /// Per-probe retransmission budget: an unanswered Q1 is re-sent with
    /// exponential backoff up to this many times, at most
    /// [`MAX_RETRIES`], before the target is abandoned (0 = the paper's
    /// fire-and-forget scan).
    pub retry_limit: u32,
    /// Extra off-port responders (the §V blind-spot ablation).
    pub off_port_responders: u64,
    /// Fraction of standard honest resolvers replaced by CPE forwarders
    /// relaying to shared upstream resolvers.
    pub forwarder_fraction: f64,
    /// Probe-rate override; default is the year's published rate.
    pub probe_rate_pps: Option<u64>,
    /// When `true`, probe the full scaled address space
    /// (`round(Q1/scale)` targets), reproducing Table II's Q1 exactly.
    /// When `false`, probe only responders plus twice as many silent
    /// targets — the fast mode for tests and examples (every non-Q1
    /// quantity is unaffected because silent hosts contribute nothing
    /// but Q1 volume).
    pub full_q1: bool,
    /// Number of independent shards to partition the campaign across
    /// (1 = the classic single-`SimNet` run). Each shard owns a disjoint
    /// slice of the address space and runs on its own OS thread; results
    /// are merged afterwards. Must be in `1..=64`.
    pub shards: usize,
    /// Deterministic shard-failure injection for exercising the
    /// supervisor (tests and chaos drills only).
    pub sabotage: Option<ShardSabotage>,
    /// Virtual-time budget for the scan. A shard whose simulation still
    /// has pending events at this deadline returns an error to the
    /// shard supervisor: the shard is retried once and then reported
    /// failed, exactly like a shard that panicked. `None` (the default)
    /// runs every shard to idle. Because per-flow send times and RTTs
    /// are shard-layout-invariant, whether a scan fits the budget does
    /// not depend on the shard count.
    pub(crate) virtual_deadline: Option<Duration>,
    /// How captures become tables: the default single-pass
    /// [`AnalysisMode::Streaming`] classifies at capture time and keeps
    /// only accumulators; [`AnalysisMode::Batch`] buffers every payload
    /// and classifies after the scan (the original pipeline, kept as an
    /// oracle). Both render byte-identical reports.
    pub analysis: AnalysisMode,
    /// Keep raw R2 captures alongside the streaming accumulators
    /// (needed for pcap export; forfeits the memory bound).
    pub retain_raw: bool,
    /// Infrastructure addresses.
    pub infra: Infra,
}

impl CampaignConfig {
    /// A fast-mode campaign for `year` at `scale`.
    pub fn new(year: Year, scale: f64) -> Self {
        Self {
            year,
            scale,
            seed: 0xD5A1_2019,
            faults: FaultPlan::new(),
            retry_limit: 0,
            off_port_responders: 0,
            forwarder_fraction: 0.0,
            probe_rate_pps: None,
            full_q1: false,
            shards: 1,
            sabotage: None,
            virtual_deadline: None,
            analysis: AnalysisMode::default(),
            retain_raw: false,
            infra: Infra::default(),
        }
    }

    /// Selects how captures become tables (streaming or batch).
    pub fn with_analysis(mut self, analysis: AnalysisMode) -> Self {
        self.analysis = analysis;
        self
    }

    /// Keeps raw R2 captures in streaming mode (pcap export).
    pub fn with_retain_raw(mut self, retain_raw: bool) -> Self {
        self.retain_raw = retain_raw;
        self
    }

    /// Switches to full-Q1 mode (slower; exact Table II Q1).
    pub fn with_full_q1(mut self) -> Self {
        self.full_q1 = true;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Adds independent per-datagram loss with `probability`: an
    /// always-on, all-scope rule appended to [`Self::faults`] (none for
    /// 0; a probability outside `[0, 1]` fails validation).
    pub fn with_loss(mut self, probability: f64) -> Self {
        if probability != 0.0 {
            self.faults.push(FaultRule::always(
                FaultScope::All,
                FaultKind::Loss { probability },
            ));
        }
        self
    }

    /// Adds independent per-datagram duplication with `probability`
    /// (UDP may deliver twice), as [`Self::with_loss`] adds loss.
    pub fn with_duplication(mut self, probability: f64) -> Self {
        if probability != 0.0 {
            self.faults.push(FaultRule::always(
                FaultScope::All,
                FaultKind::Duplicate { probability },
            ));
        }
        self
    }

    /// Installs a fault plan (scheduled, scoped impairments). It
    /// replaces every rule set before it, those of [`Self::with_loss`]
    /// and [`Self::with_duplication`] included.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the per-probe retransmission budget.
    pub fn with_retries(mut self, retry_limit: u32) -> Self {
        self.retry_limit = retry_limit;
        self
    }

    /// Overrides the probe rate.
    pub fn with_probe_rate(mut self, rate_pps: u64) -> Self {
        self.probe_rate_pps = Some(rate_pps);
        self
    }

    /// Sets the CPE-forwarder fraction.
    pub fn with_forwarder_fraction(mut self, fraction: f64) -> Self {
        self.forwarder_fraction = fraction;
        self
    }

    /// Sets the number of extra off-port responders.
    pub fn with_off_port_responders(mut self, count: u64) -> Self {
        self.off_port_responders = count;
        self
    }

    /// Injects deterministic shard failures (supervisor testing).
    pub fn with_sabotage(mut self, sabotage: ShardSabotage) -> Self {
        self.sabotage = Some(sabotage);
        self
    }

    /// Caps the scan's virtual time; a shard still busy at the deadline
    /// fails under the supervisor instead of running on.
    pub fn with_virtual_deadline(mut self, deadline: Duration) -> Self {
        self.virtual_deadline = Some(deadline);
        self
    }

    /// Checks the configuration for operator errors.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidConfig`] for out-of-range knobs:
    /// a scale below 1 (the paper's full scan) or so large that the
    /// year's population has no responder, a forwarder fraction outside
    /// `[0, 1]`, a retry budget above [`MAX_RETRIES`], a zero probe rate,
    /// a shard count outside `1..=64`, a malformed fault plan (a loss
    /// or duplication probability outside `[0, 1]` among them), a zone
    /// that leaves no room for the two probe labels, or a name server
    /// named outside its zone.
    pub fn validate(&self) -> Result<(), CampaignError> {
        let invalid = |reason: String| Err(CampaignError::InvalidConfig(reason));
        if !(self.scale.is_finite() && self.scale >= 1.0) {
            return invalid(format!(
                "scale {:?} must be a number of at least 1, the paper's full scan",
                self.scale
            ));
        }
        if Population::planned_resolvers(self.year, self.scale) == 0 {
            let largest = 2 * Population::planned_resolvers(self.year, 1.0);
            return invalid(format!(
                "scale {} leaves the {} population no responder (the largest that keeps one is {largest})",
                self.scale, self.year
            ));
        }
        if !(1..=64).contains(&self.shards) {
            return invalid(format!("shard count {} out of range 1..=64", self.shards));
        }
        if !(0.0..=1.0).contains(&self.forwarder_fraction) {
            return invalid(format!(
                "forwarder_fraction {} not in [0, 1]",
                self.forwarder_fraction
            ));
        }
        if self.retry_limit > MAX_RETRIES {
            return invalid(format!(
                "retry budget {} out of range 0..={MAX_RETRIES}",
                self.retry_limit
            ));
        }
        if self.probe_rate_pps == Some(0) {
            return invalid("probe rate must be positive (got 0 pps)".to_owned());
        }
        if let Err(reason) = self.faults.validate() {
            return invalid(format!("fault plan: {reason}"));
        }
        if let Some(sabotage) = self.sabotage {
            if sabotage.shard >= self.shards {
                return invalid(format!(
                    "sabotaged shard {} does not exist ({} shard(s))",
                    sabotage.shard, self.shards
                ));
            }
        }
        if self.virtual_deadline == Some(Duration::ZERO) {
            return invalid("virtual deadline of zero would fail every scan".to_owned());
        }
        let Infra {
            zone, auth_ns_name, ..
        } = &self.infra;
        if ProbeLabel::new(0, 0).try_qname(zone).is_err() {
            return invalid(format!(
                "zone {zone} leaves no room for the two probe labels"
            ));
        }
        if !auth_ns_name.is_subdomain_of(zone) {
            return invalid(format!("name server {auth_ns_name} is outside zone {zone}"));
        }
        Ok(())
    }

    /// The fault plan actually installed in every shard simulator: the
    /// configured plan with its seed mixed with the campaign seed (so
    /// reseeding the campaign reseeds the chaos draws) — identical
    /// across shards by construction.
    pub(crate) fn effective_faults(&self) -> FaultPlan {
        let mut plan = self.faults.clone();
        plan.seed ^= self.seed;
        plan
    }
}

/// A runnable reproduction campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
    /// Optional record bus for live tap subscribers. Kept beside (not
    /// inside) the config so `CampaignConfig` stays a plain comparable
    /// value type.
    bus: Option<std::sync::Arc<crate::bus::RecordBus>>,
    /// Test builds only: run as the eager reference (see
    /// `crate::eager_oracle`).
    #[cfg(test)]
    pub(crate) preregister_hosts: bool,
}

impl Campaign {
    /// Creates a campaign.
    pub fn new(config: CampaignConfig) -> Self {
        Self {
            config,
            bus: None,
            #[cfg(test)]
            preregister_hosts: false,
        }
    }

    /// Attaches a record bus: every shard publishes its captured R2 and
    /// authoritative-server packets to it, so tap subscribers can watch
    /// flows as they are recorded. Publishing is free while the bus has
    /// no subscribers, and a slow subscriber only ever drops its own
    /// records — it cannot stall the scan.
    pub fn with_bus(mut self, bus: std::sync::Arc<crate::bus::RecordBus>) -> Self {
        self.bus = Some(bus);
        self
    }

    /// The attached record bus, if any.
    pub fn bus(&self) -> Option<&std::sync::Arc<crate::bus::RecordBus>> {
        self.bus.as_ref()
    }

    /// The configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Builds the topology, runs the scan to completion, and analyzes
    /// the captures.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidConfig`] for a degenerate
    /// configuration (see [`CampaignConfig::validate`]) and
    /// [`CampaignError::AllShardsFailed`] when every shard panicked
    /// twice. A campaign that loses *some* shards still returns `Ok`,
    /// with the surviving shards merged and
    /// [`CampaignResult::degraded`] describing the gap.
    pub fn run(&self) -> Result<CampaignResult, CampaignError> {
        let config = &self.config;
        config.validate()?;
        let build_started = Instant::now();
        let population = std::sync::Arc::new(self.build_population());
        self.run_inner(population, Some(build_started.elapsed()))
    }

    /// Runs the campaign over a caller-supplied population (used by the
    /// observatory's rounds). A shared population is only read, so a
    /// caller that may run it again — a supervised retry — keeps its copy
    /// without cloning it.
    ///
    /// # Errors
    ///
    /// As for [`Campaign::run`].
    pub fn run_with_population(
        &self,
        population: impl Into<std::sync::Arc<Population>>,
    ) -> Result<CampaignResult, CampaignError> {
        self.config.validate()?;
        self.run_inner(population.into(), None)
    }

    /// Generates the population this configuration describes.
    pub(crate) fn build_population(&self) -> Population {
        let config = &self.config;
        let mut pop_config = PopulationConfig::new(config.year, config.scale);
        pop_config.seed = config.seed;
        pop_config.reserved_hosts = config.infra.addresses();
        pop_config.off_port_responders = config.off_port_responders;
        pop_config.forwarder_fraction = config.forwarder_fraction;
        Population::generate(&pop_config)
    }

    /// Plans the scan of `population` over the probeable Internet.
    pub(crate) fn plan_targets(
        &self,
        spec: &YearSpec,
        population: &std::sync::Arc<Population>,
    ) -> TargetPlan {
        TargetPlan::new(
            &self.config,
            spec,
            std::sync::Arc::clone(population),
            AllowedSpace::probeable(),
        )
    }

    /// Shared body of [`Campaign::run`] and
    /// [`Campaign::run_with_population`]. `build_wall` is the wall-clock
    /// time spent generating the population, when this call did so.
    fn run_inner(
        &self,
        population: std::sync::Arc<Population>,
        build_wall: Option<Duration>,
    ) -> Result<CampaignResult, CampaignError> {
        let config = &self.config;
        let spec = YearSpec::get(config.year);
        // Campaign-level phase spans and supervision counters; the
        // shards' snapshots are absorbed into it at merge time.
        let mut telemetry = TelemetrySnapshot::default();
        if let Some(wall) = build_wall {
            // Population building happens before the simulation starts,
            // so it consumes no virtual time.
            telemetry.finish_phase("phase.population_build", wall, 0);
        }
        let threat = seed_threat_db(&population);
        let geo = seed_geo_db(&population);
        let knobs = self.shard_knobs(&spec);

        // The scan plan is derived once from the master seed, so every
        // shard count scans the same addresses in the same global order
        // — but no target is built here: the plan steps over the
        // population's own address-ordered hosts. Each shard walks the
        // plan's two permutations itself and keeps the targets it owns,
        // with their campaign-wide send slots.
        let targets = self.plan_targets(&spec, &population);

        // Every shard reads this one population and keeps the hosts
        // `Population::home` places on it, which is where the plan's
        // walk sends their probes.
        let shards = config.shards;

        // ---- fan out: one supervised SimNet per shard ----
        // A panicking shard is rebuilt from the same plan (same seed) and
        // retried once. A second panic marks the shard permanently
        // failed: its slice is missing from the merge and the result
        // carries a `DegradedReport`.
        let run = |index: usize| {
            supervise(|attempt| {
                self.run_shard(ShardPlan::new(
                    config,
                    &knobs,
                    index,
                    attempt,
                    // A retry walks the permutations afresh.
                    targets.shard(index, shards),
                    &population,
                ))
            })
        };
        let runs: Vec<Supervised<ShardOutcome>> = std::thread::scope(|scope| {
            // Shard 0 runs on the calling thread, which would otherwise
            // only sleep in `join`: a one-shard campaign (every
            // observatory round) spawns nothing.
            let handles: Vec<_> = (1..shards)
                .map(|index| scope.spawn(move || run(index)))
                .collect();
            let first = run(0);
            std::iter::once(first)
                .chain(
                    handles
                        .into_iter()
                        .map(|handle| handle.join().expect("supervisor thread panicked")),
                )
                .collect()
        });

        // ---- triage ----
        let mut failed: Vec<ShardFailure> = Vec::new();
        let mut retried: Vec<usize> = Vec::new();
        let mut outcomes: Vec<ShardOutcome> = Vec::new();
        for (shard, run) in runs.into_iter().enumerate() {
            if run.retried() {
                retried.push(shard);
            }
            match run.outcome {
                Ok(outcome) => outcomes.push(outcome),
                Err(message) => failed.push(ShardFailure { shard, message }),
            }
        }
        if outcomes.is_empty() {
            return Err(CampaignError::AllShardsFailed(failed));
        }
        let scope = Scope::Shard;
        for (name, count) in [
            ("campaign.shard_retries", retried.len()),
            ("campaign.shards_lost", failed.len()),
        ] {
            let value = count as u64;
            telemetry
                .counters
                .insert(name.to_owned(), MetricValue { scope, value });
        }
        let degraded = (!failed.is_empty() || !retried.is_empty())
            .then_some(DegradedReport { failed, retried });

        let result = self.assemble(population, threat, geo, telemetry, outcomes, degraded);
        debug_assert!(
            result.is_partial() || result.dataset().q1 == targets.len(),
            "whole campaign probed {} of {} planned targets",
            result.dataset().q1,
            targets.len()
        );
        Ok(result)
    }

    /// Merges the outcomes of the shards that finished, and their
    /// snapshots into the campaign's `telemetry`, into one result.
    fn assemble(
        &self,
        population: std::sync::Arc<Population>,
        threat: ThreatDb,
        geo: GeoDb,
        mut telemetry: TelemetrySnapshot,
        outcomes: Vec<ShardOutcome>,
        degraded: Option<DegradedReport>,
    ) -> CampaignResult {
        let config = &self.config;
        let analyze = Instant::now();
        // In batch mode the per-shard datasets carry the classified
        // records; in streaming mode they carry only counters (the
        // records were folded into each shard's accumulators at capture
        // time) and the analyzers are absorbed order-insensitively.
        let mut dataset = if outcomes.len() == 1 {
            outcomes[0].dataset(config)
        } else {
            Dataset::merge(
                outcomes
                    .iter()
                    .map(|outcome| outcome.dataset(config))
                    .collect(),
            )
        };
        let mut stream: Option<StreamingAnalyzer> = None;
        let mut net_stats = NetStats::default();
        let mut auth_packets: Vec<CapturedPacket> = Vec::new();
        let mut shard_telemetry: Vec<TelemetrySnapshot> = Vec::new();
        let mut materialized = Materialized::default();
        for outcome in outcomes {
            shard_telemetry.push(outcome.telemetry);
            materialized.peak += outcome.materialized.peak;
            materialized.total += outcome.materialized.total;
            net_stats.absorb(&outcome.net_stats);
            auth_packets.extend(outcome.recorder.auth_packets);
            if let Some(analysis) = outcome.recorder.analyzer {
                match stream.as_mut() {
                    Some(merged) => merged.absorb(analysis),
                    None => stream = Some(analysis),
                }
            }
        }
        // A streaming run's analyzer, not the (empty) capture buffer,
        // knows how many R2s were classified, and holds the raw captures
        // when they were retained.
        if let Some(stream) = stream.as_mut() {
            dataset.set_r2_total(stream.r2_classified());
            if config.retain_raw {
                dataset.attach_raw(stream.take_raw());
            }
        }
        // Canonical merged capture order: chronological, with the stable
        // sort breaking cross-shard ties by shard index.
        auth_packets.sort_by_key(|packet| packet.at);
        telemetry.finish_phase("phase.analyze", analyze.elapsed(), 0);
        for shard in &shard_telemetry {
            telemetry.absorb(shard);
        }

        CampaignResult::new(
            config.clone(),
            YearSpec::get(config.year),
            dataset,
            threat,
            geo,
            population,
            net_stats,
            materialized,
            auth_packets,
            telemetry,
            degraded,
            stream,
        )
    }

    /// A shard's end of the attached bus, if any: its records tagged with
    /// the classes `population` gives them.
    fn publisher(&self, population: &std::sync::Arc<Population>) -> Option<Publisher> {
        let bus = self.bus.clone()?;
        Some(Publisher::new(bus, std::sync::Arc::clone(population)))
    }

    /// Derives the knobs every shard shares: the aggregate probe rate
    /// and the per-cluster name capacity.
    pub(crate) fn shard_knobs(&self, spec: &YearSpec) -> ShardKnobs {
        let config = &self.config;
        let cluster_capacity = ((orscope_authns::scheme::CLUSTER_CAPACITY as f64 / config.scale)
            .round() as u64)
            .clamp(64, orscope_authns::scheme::CLUSTER_CAPACITY);
        // The probe rate scales with the population so the in-flight
        // working set keeps its real-world proportion to the cluster
        // size (100k pps against 3.7B targets ~ 50 pps against 1.85M).
        let total_rate = config
            .probe_rate_pps
            .unwrap_or_else(|| ((spec.probe_rate_pps as f64 / config.scale).ceil() as u64).max(1));
        ShardKnobs {
            total_rate,
            cluster_capacity,
        }
    }

    /// Builds one shard's simulation, runs it to completion, and returns
    /// its raw outcome for merging, or why it blew the virtual deadline.
    /// A sabotaged attempt panics instead: it stands for a crash.
    fn run_shard(&self, plan: ShardPlan) -> Result<ShardOutcome, String> {
        if let Some(sabotage) = self.config.sabotage {
            if sabotage.shard == plan.shard && plan.attempt < sabotage.failures {
                panic!(
                    "sabotaged: shard {} ordered to fail on attempt {}",
                    plan.shard, plan.attempt
                );
            }
        }
        #[cfg(test)]
        let (population, shard, shards) = (
            std::sync::Arc::clone(&plan.population),
            plan.shard,
            plan.shards,
        );
        let publisher = self.publisher(&plan.population);
        let recorder = ShardRecorder::new(&self.config, plan.responders(), publisher);
        let mut world = self.build_shard(plan, recorder);
        #[cfg(test)]
        if self.preregister_hosts {
            world.preregister_hosts(&population, shard, shards, &self.config);
        }
        // ---- run to completion (or the virtual deadline) ----
        let started = Instant::now();
        match self.config.virtual_deadline {
            None => world.net.run_until_idle(),
            Some(deadline) => {
                // A blown deadline is a shard failure like any other: the
                // supervisor retries once (the rerun is deterministic, so
                // a genuine overrun fails again), then degrades.
                world.net.run_until(SimTime::ZERO + deadline);
                if !world.net.is_idle() {
                    return Err(format!(
                        "virtual deadline exceeded: events still pending at {deadline:?}"
                    ));
                }
            }
        }
        Ok(world.collect(started.elapsed()))
    }

    /// Assembles one shard's simulator: network, name-server hierarchy,
    /// resolver population, and prober, with both capture points writing
    /// into `recorder`. The caller decides how far to run it.
    fn build_shard(&self, plan: ShardPlan, recorder: ShardRecorder) -> ShardWorld {
        let config = &self.config;
        let infra = &config.infra;

        // ---- network & name-server hierarchy ----
        let released = Rc::<RefCell<ResolverStats>>::default();
        let mut net = SimNet::builder()
            // Latency hashes from the master seed in every shard so a
            // host's RTTs do not depend on the shard layout.
            .latency(HashLatency::internet(config.seed))
            // Same mixed plan in every shard: hashed per-flow draws keep
            // chaos decisions identical regardless of layout.
            .faults(config.effective_faults())
            // Probed hosts materialize on first packet from the interned
            // profile table; only the upstreams are pre-registered below,
            // because forwarders from many clients share their caches
            // across the whole scan.
            .lazy_hosts(PopulationRegistry::new(
                std::sync::Arc::clone(&plan.population),
                infra.root,
                Rc::clone(&released),
                plan.silent,
            ))
            .build();
        let mut root = DelegationServer::new();
        root.delegate(
            "net".parse().expect("static name"),
            "a.gtld-servers.net".parse().expect("static name"),
            infra.tld,
        );
        net.insert(infra.root, Host::Delegation(Box::new(root)));
        let mut tld = DelegationServer::new();
        tld.delegate(infra.zone.clone(), infra.auth_ns_name.clone(), infra.auth);
        net.insert(infra.tld, Host::Delegation(Box::new(tld)));

        let recorder = Rc::new(RefCell::new(recorder));
        let sink: SharedSink = recorder.clone();
        let mut zone = Zone::new(infra.zone.clone(), infra.auth_ns_name.clone());
        zone.add_a(infra.auth_ns_name.clone(), infra.auth);
        // Apex bulk records: what makes ANY queries amplify (§II-C).
        for i in 0..8 {
            zone.add_txt(
                infra.zone.clone(),
                &format!("v=measurement{i}; site=ucfsealresearch; key=k{i:016x}"),
            );
        }
        let auth = AuthoritativeServer::new(
            ClusterZone::new(zone),
            CaptureHandle::with_sink(sink.clone()),
            plan.cluster_capacity,
        );
        net.insert(infra.auth, Host::Auth(Box::new(auth)));

        // ---- shared upstreams (the ones this shard holds) ----
        for (i, host) in plan.population.upstreams().enumerate() {
            if plan.population.home(Member::Upstream(i), plan.shards) != plan.shard {
                continue;
            }
            let resolver =
                ProfiledResolver::new_shared(std::sync::Arc::clone(host.policy), infra.root);
            net.insert(host.addr, Host::Resolver(Box::new(resolver)));
        }

        // ---- prober ----
        let mut prober_config = ProberConfig::new(infra.zone.clone(), plan.targets);
        prober_config.rate_pps = plan.total_rate_pps;
        prober_config.cluster_capacity = plan.cluster_capacity;
        prober_config.base_cluster = plan.base_cluster;
        prober_config.retry_limit = config.retry_limit;
        let prober = Prober::new(prober_config, sink).expect("probe rate validated");
        net.insert(infra.prober, Host::Prober(Box::new(prober)));
        net.set_timer_for(infra.prober, SimTime::ZERO, 0);

        ShardWorld {
            net,
            recorder,
            released,
            cluster_capacity: plan.cluster_capacity,
        }
    }
}

/// Knobs shared by every shard of one campaign.
pub(crate) struct ShardKnobs {
    /// Aggregate (campaign-wide) probe rate.
    pub(crate) total_rate: u64,
    /// Names per subdomain cluster.
    pub(crate) cluster_capacity: u64,
}

/// Everything one shard needs to run independently: the campaign's
/// population, its walk of the target plan, and derived knobs.
pub(crate) struct ShardPlan {
    /// Shard index (0-based).
    pub(crate) shard: usize,
    /// The campaign's shard count.
    pub(crate) shards: usize,
    /// Supervision attempt (0 = first run, 1 = retry).
    pub(crate) attempt: u32,
    /// The campaign-wide probe rate (slot pacing is global).
    pub(crate) total_rate_pps: u64,
    /// First subdomain cluster this shard allocates from.
    pub(crate) base_cluster: u32,
    /// Names per cluster (shared across shards).
    pub(crate) cluster_capacity: u64,
    /// This shard's targets with their campaign-wide send slots, in
    /// scan order (see [`TargetPlan::shard`]).
    pub(crate) targets: TargetSource,
    /// The silent addresses of the run `targets` holds, which the
    /// shard's registry settles sends against.
    pub(crate) silent: Rc<SilentRun>,
    /// The campaign's population, shared by every shard: this one holds
    /// the hosts [`Population::home`] places on it, is only ever sent to
    /// those, and materializes each by [`Population::find`].
    pub(crate) population: std::sync::Arc<Population>,
}

impl ShardPlan {
    /// Shard `index` of `config.shards` on its supervision `attempt`,
    /// walking `walk` over `population`.
    pub(crate) fn new(
        config: &CampaignConfig,
        knobs: &ShardKnobs,
        index: usize,
        attempt: u32,
        walk: ShardWalk,
        population: &std::sync::Arc<Population>,
    ) -> Self {
        // Disjoint cluster namespaces per shard keep merged qnames
        // globally unique (1,000 clusters shared across <= 64 shards).
        let cluster_stride = 1_000 / config.shards as u32;
        Self {
            shard: index,
            shards: config.shards,
            attempt,
            total_rate_pps: knobs.total_rate,
            base_cluster: index as u32 * cluster_stride,
            cluster_capacity: knobs.cluster_capacity,
            silent: walk.silent(),
            targets: TargetSource::new(walk),
            population: std::sync::Arc::clone(population),
        }
    }

    /// How many of the population's responders this shard holds: every
    /// R2 it captures comes from one of them.
    pub(crate) fn responders(&self) -> usize {
        let population = &self.population;
        let held = |&member: &Member| population.home(member, self.shards) == self.shard;
        population.responders().filter(held).count()
    }
}

/// Released resolvers kept for the next materialization. A fault-free
/// shard has a handful of hosts live at once, so a short stack already
/// serves nearly every materialization; the bound is what keeps a burst
/// of simultaneous releases from staying resident for the rest of the
/// scan.
const RESOLVER_POOL: usize = 16;

/// Materializes `ProfiledResolver` endpoints on demand from the
/// campaign's population and its shared profile table.
/// Covers probed hosts (resolvers and off-port responders); upstreams
/// are always registered eagerly.
///
/// A send to a silent target is settled from the shard walk's record
/// ([`SilentRun`]) before the simulator looks anything up: the walk
/// already found no probed host or infrastructure there. The walk does
/// not step over the upstreams, which are registered, so an address
/// some upstream holds is left to the full route.
///
/// Endpoints the simulator releases come back through
/// [`LazyRegistry::recycle`], where their books are added to the
/// shard's, and are re-armed with [`ProfiledResolver::reset`] for the
/// next address, which keeps their maps and scratch messages and is
/// otherwise the resolver `new_shared` builds. A released resolver is
/// rebuilt for a query, never for the echo of its own resolution: the
/// R1s its re-asked Q2s bring back are
/// [`LazyRegistry::fresh_ignores`]d and its spent upstream timeouts are
/// the simulator's to settle.
struct PopulationRegistry {
    population: std::sync::Arc<Population>,
    /// The root hint every resolver built here recurses from.
    root: Ipv4Addr,
    /// The summed books of every resolver handed back so far; the
    /// shard's world holds the other reference and reads it when the
    /// run is over.
    released: Rc<RefCell<ResolverStats>>,
    /// At most [`RESOLVER_POOL`] released resolvers, in the boxes
    /// `Host::Resolver` holds them in: reuse moves a pointer and keeps
    /// the allocation.
    #[allow(clippy::vec_box)]
    pool: RefCell<Vec<Box<ProfiledResolver>>>,
    /// The silent addresses of the run the shard's walk filled last.
    silent: Rc<SilentRun>,
}

impl PopulationRegistry {
    fn new(
        population: std::sync::Arc<Population>,
        root: Ipv4Addr,
        released: Rc<RefCell<ResolverStats>>,
        silent: Rc<SilentRun>,
    ) -> Self {
        Self {
            population,
            root,
            released,
            pool: RefCell::new(Vec::with_capacity(RESOLVER_POOL)),
            silent,
        }
    }
}

impl Coverage for PopulationRegistry {
    fn covers(&self, addr: Ipv4Addr) -> bool {
        plan::find(&self.population, addr).is_some()
    }

    fn holds_nobody(&self, addr: Ipv4Addr) -> bool {
        // Without forwarders there is no upstream to look for (a lookup
        // in an empty list measured 3 % of a silent slot).
        let upstreams = &self.population.upstreams;
        self.silent.take(addr) && (upstreams.is_empty() || upstreams.find(addr).is_none())
    }
}

impl LazyRegistry<Host> for PopulationRegistry {
    fn materialize(&self, addr: Ipv4Addr) -> Option<Host> {
        let population = &self.population;
        let policy = std::sync::Arc::clone(population.table().get(plan::find(population, addr)?));
        let resolver = match self.pool.borrow_mut().pop() {
            Some(mut resolver) => {
                resolver.reset(policy);
                resolver
            }
            None => Box::new(ProfiledResolver::new_shared(policy, self.root)),
        };
        Some(Host::Resolver(resolver))
    }

    /// The one place a released resolver's books are read: before
    /// `reset` zeroes them or a full pool drops them. Only resolvers
    /// are ever materialized here, so only resolvers come back.
    fn recycle(&self, host: Host) {
        let Host::Resolver(resolver) = host else {
            unreachable!("the simulator offers back only what this registry built");
        };
        self.released.borrow_mut().absorb(&resolver.stats());
        let mut pool = self.pool.borrow_mut();
        if pool.len() < RESOLVER_POOL {
            pool.push(resolver);
        }
    }

    /// Every host here is a [`ProfiledResolver`], and what a fresh one
    /// ignores is the resolver's to say.
    fn fresh_ignores(&self, _addr: Ipv4Addr, dgram: &orscope_netsim::Datagram) -> bool {
        ProfiledResolver::fresh_ignores(&dgram.payload)
    }
}

/// A fully-assembled shard simulation, ready to run.
pub(crate) struct ShardWorld {
    /// The shard's simulator with every endpoint registered.
    pub(crate) net: SimNet<Host>,
    /// The shard's record pipeline; the prober and the authoritative
    /// server hold the other two references.
    recorder: Rc<RefCell<ShardRecorder>>,
    /// The books of the resolvers released so far (the registry holds
    /// the other reference).
    released: Rc<RefCell<ResolverStats>>,
    /// Names per subdomain cluster (for the load-time model).
    cluster_capacity: u64,
}

impl ShardWorld {
    /// Harvests a completed shard run, which took `probe_wall`, into a
    /// mergeable outcome.
    fn collect(mut self, probe_wall: Duration) -> ShardOutcome {
        // Every layer's books, each read exactly once: the simulator's
        // own, and each host's from the host table. The released
        // resolvers were summed as they were handed back; the rest —
        // eager upstreams, and every materialized host when a fault
        // rule pinned them — are still registered.
        let mut probe_stats = ProbeStats::default();
        let mut resolvers = self.released.take();
        let mut auth = AuthStats::default();
        self.net.for_each_host(|_, host| match host {
            Host::Resolver(resolver) => resolvers.absorb(&resolver.stats()),
            Host::Auth(server) => auth = server.stats(),
            Host::Prober(prober) => probe_stats = prober.stats(),
            Host::Delegation(_) => {}
        });
        debug_assert!(probe_stats.done, "scan did not drain");
        // Scan wall clock: probe completion plus the zone-cluster load
        // stops (one minute per full cluster, pro-rated at scale).
        let load_secs = probe_stats.clusters_used as f64
            * orscope_authns::cluster::CLUSTER_LOAD_TIME.as_secs_f64()
            * (self.cluster_capacity as f64 / orscope_authns::scheme::CLUSTER_CAPACITY as f64);
        let duration_secs = probe_stats.finished_at.as_secs_f64() + load_secs;
        // Phase spans: the probe phase covers virtual time up to scan
        // completion; the capture drain covers the tail in which late
        // responses and retries settle. Both happen inside the single
        // `run_until_idle` call, so the drain gets no wall share.
        let probe_virt = probe_stats
            .finished_at
            .since(SimTime::ZERO)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let drain_virt = self
            .net
            .now()
            .since(probe_stats.finished_at)
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let mut telemetry = self.publish(&probe_stats, &resolvers, &auth);
        telemetry.finish_phase("phase.probe", probe_wall, probe_virt);
        telemetry.finish_phase("phase.capture_drain", Duration::ZERO, drain_virt);
        ShardOutcome {
            probe_stats,
            duration_secs,
            materialized: Materialized {
                peak: self.net.materialized_peak(),
                total: self.net.materialized_total(),
            },
            net_stats: *self.net.stats(),
            telemetry,
            recorder: self.recorder.take(),
        }
    }

    /// The shard's four books as named, scoped metrics — the only place
    /// a layer's count becomes a telemetry series.
    ///
    /// Global: what is decided per flow (datagram fates, probe and
    /// capture counts, what resolvers and the authoritative server
    /// answered, hashed fault draws), so the sum over shards does not
    /// depend on the layout. Shard: what depends on how hosts were
    /// partitioned — event-loop and timer counts, the queue high-water
    /// mark, the pacer's tick and token accounting.
    fn publish(
        &self,
        probe: &ProbeStats,
        resolvers: &ResolverStats,
        auth: &AuthStats,
    ) -> TelemetrySnapshot {
        let net = self.net.stats();
        let global = [
            ("net.datagrams_sent", net.sent),
            ("net.datagrams_lost", net.lost),
            ("net.datagrams_duplicated", net.duplicated),
            ("net.datagrams_delivered", net.delivered),
            ("net.datagrams_unrouted", net.unrouted),
            ("net.bytes_delivered", net.bytes_delivered),
            ("net.faults_injected", net.faults_injected),
            ("net.blackhole_drops", net.blackhole_drops),
            ("net.crash_drops", net.crash_drops),
            ("prober.probes_sent", probe.q1_sent),
            ("prober.r2_captured", probe.r2_captured),
            ("prober.off_port_dropped", probe.off_port_dropped),
            ("prober.unmatched", probe.unmatched),
            ("prober.retransmits_sent", probe.retransmits_sent),
            ("prober.probes_abandoned", probe.probes_abandoned),
            ("resolver.client_queries", resolvers.client_queries),
            ("resolver.responses_sent", resolvers.responses_sent),
            ("resolver.upstream_queries", resolvers.upstream_queries),
            ("resolver.failures", resolvers.failures),
            ("resolver.cache_hits", resolvers.cache_hits),
            ("resolver.negative_hits", resolvers.negative_hits),
            ("resolver.forwarded", resolvers.forwarded),
            ("auth.queries", auth.queries),
            ("auth.qtype_a", auth.qtype_a),
            ("auth.qtype_any", auth.qtype_any),
            ("auth.qtype_txt", auth.qtype_txt),
            ("auth.qtype_other", auth.qtype_other),
            ("auth.rcode_noerror", auth.rcode_noerror),
            ("auth.rcode_nxdomain", auth.rcode_nxdomain),
            ("auth.rcode_refused", auth.rcode_refused),
            ("auth.rcode_formerr", auth.rcode_formerr),
            ("auth.rcode_other", auth.rcode_other),
        ];
        let shard = [
            ("net.events_processed", net.events),
            ("net.timers_fired", net.timers_fired),
            ("prober.pacer_ticks", probe.pacer_ticks),
        ];
        let mut out = TelemetrySnapshot::default();
        for (scope, counters) in [(Scope::Global, &global[..]), (Scope::Shard, &shard[..])] {
            for &(name, value) in counters {
                out.counters
                    .insert(name.to_owned(), MetricValue { scope, value });
            }
        }
        let scope = Scope::Shard;
        let value = self.net.queue_depth_hwm() as u64;
        out.gauges.insert(
            "net.event_queue_depth_hwm".to_owned(),
            MetricValue { scope, value },
        );
        let scope = Scope::Global;
        for (name, value) in [
            ("prober.q1_r2_latency_ns", probe.q1_r2_latency_ns),
            ("resolver.recursion_depth", resolvers.recursion_depth),
        ] {
            let value = Box::new(value);
            out.histograms
                .insert(name.to_owned(), MetricValue { scope, value });
        }
        out
    }
}

/// A simulator's lazy-host books (summed over shards once merged).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Materialized {
    /// Peak live lazily-materialized hosts.
    pub(crate) peak: usize,
    /// Materializations: one for each time an event that mattered found
    /// its host not live.
    pub(crate) total: u64,
}

/// What one shard's simulation produced, pre-merge.
pub(crate) struct ShardOutcome {
    pub(crate) probe_stats: ProbeStats,
    pub(crate) duration_secs: f64,
    pub(crate) materialized: Materialized,
    pub(crate) net_stats: NetStats,
    pub(crate) telemetry: TelemetrySnapshot,
    /// Everything the shard recorded.
    pub(crate) recorder: ShardRecorder,
}

impl ShardOutcome {
    /// Classifies this shard's captures into a per-shard dataset.
    pub(crate) fn dataset(&self, config: &CampaignConfig) -> Dataset {
        Dataset::from_captures(
            config.year,
            config.scale,
            self.probe_stats.q1_sent,
            self.recorder.q2,
            self.recorder.r1,
            self.duration_secs,
            &self.recorder.captures,
            self.probe_stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orscope_netsim::{FxHashMap, FxHashSet};

    #[test]
    fn fast_campaign_runs_and_matches_scale() {
        let config = CampaignConfig::new(Year::Y2018, 10_000.0);
        let result = Campaign::new(config).run().unwrap();
        let spec = YearSpec::get(Year::Y2018);
        let expected_r2 = (spec.r2 as f64 / 10_000.0).round() as u64;
        assert_eq!(result.dataset().r2(), expected_r2);
        // Fast mode: Q1 = 3x responders.
        assert_eq!(result.dataset().q1, expected_r2 * 3);
    }

    #[test]
    fn host_phases_and_supervision_counts_enter_the_snapshot_once() {
        let result = Campaign::new(CampaignConfig::new(Year::Y2018, 20_000.0))
            .run()
            .unwrap();
        let telemetry = result.telemetry().expect("every campaign has telemetry");
        // Population build and analysis ran once each, on the host's
        // clock alone; the probe phase spent virtual time.
        for phase in ["phase.population_build", "phase.analyze"] {
            let span = telemetry.spans[phase];
            assert_eq!((span.count, span.virt_nanos), (1, 0), "{phase}");
        }
        assert!(telemetry.spans["phase.probe"].virt_nanos > 0);
        // A clean run reports its supervision counts all the same.
        let zero = MetricValue {
            scope: Scope::Shard,
            value: 0,
        };
        for name in ["campaign.shard_retries", "campaign.shards_lost"] {
            assert_eq!(telemetry.counters[name], zero, "{name}");
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let run = || {
            let result = Campaign::new(CampaignConfig::new(Year::Y2018, 20_000.0))
                .run()
                .unwrap();
            (
                result.dataset().r2(),
                result.dataset().q2,
                result.table3_measured().0,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn q2_equals_r1_at_the_authoritative_server() {
        let result = Campaign::new(CampaignConfig::new(Year::Y2018, 20_000.0))
            .run()
            .unwrap();
        assert_eq!(result.dataset().q2, result.dataset().r1);
        assert!(result.dataset().q2 > 0);
    }

    #[test]
    fn loss_injection_reduces_r2_but_not_determinism() {
        let config = CampaignConfig::new(Year::Y2018, 20_000.0).with_loss(0.2);
        let a = Campaign::new(config.clone()).run().unwrap();
        let b = Campaign::new(config).run().unwrap();
        assert_eq!(a.dataset().r2(), b.dataset().r2());
        let lossless = Campaign::new(CampaignConfig::new(Year::Y2018, 20_000.0))
            .run()
            .unwrap();
        assert!(a.dataset().r2() < lossless.dataset().r2());
    }

    #[test]
    fn off_port_responders_are_invisible_in_r2() {
        let config = CampaignConfig::new(Year::Y2018, 20_000.0).with_off_port_responders(20);
        let result = Campaign::new(config).run().unwrap();
        let baseline = Campaign::new(CampaignConfig::new(Year::Y2018, 20_000.0))
            .run()
            .unwrap();
        assert_eq!(result.dataset().r2(), baseline.dataset().r2());
        assert_eq!(result.dataset().off_port_dropped, 20);
    }

    #[test]
    fn sharded_campaign_matches_single_shard_counts() {
        let single = Campaign::new(CampaignConfig::new(Year::Y2018, 20_000.0))
            .run()
            .unwrap();
        for shards in [2, 4] {
            let config = CampaignConfig::new(Year::Y2018, 20_000.0).with_shards(shards);
            let sharded = Campaign::new(config).run().unwrap();
            assert_eq!(sharded.dataset().q1, single.dataset().q1, "{shards} shards");
            assert_eq!(sharded.dataset().q2, single.dataset().q2, "{shards} shards");
            assert_eq!(sharded.dataset().r1, single.dataset().r1, "{shards} shards");
            assert_eq!(
                sharded.dataset().r2(),
                single.dataset().r2(),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn sharded_campaign_is_deterministic() {
        let run = || {
            let config = CampaignConfig::new(Year::Y2018, 20_000.0).with_shards(4);
            let result = Campaign::new(config).run().unwrap();
            (
                result.dataset().r2(),
                result.dataset().q2,
                result.table3_measured().0,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sharded_campaign_keeps_forwarder_flows_in_shard() {
        // Forwarders relay to shared upstreams; if a forwarder and its
        // upstream landed in different shards the relayed query would be
        // unrouted and R2 would shrink.
        let build = |shards: usize| {
            let config = CampaignConfig::new(Year::Y2018, 20_000.0)
                .with_shards(shards)
                .with_forwarder_fraction(0.25)
                .with_off_port_responders(10);
            Campaign::new(config).run().unwrap()
        };
        let single = build(1);
        let sharded = build(4);
        assert_eq!(sharded.dataset().r2(), single.dataset().r2());
        assert_eq!(sharded.dataset().q2, single.dataset().q2);
        assert_eq!(sharded.dataset().off_port_dropped, 10);
    }

    #[test]
    fn zero_shards_rejected() {
        let config = CampaignConfig::new(Year::Y2018, 50_000.0).with_shards(0);
        let err = Campaign::new(config).run().unwrap_err();
        assert!(matches!(err, CampaignError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn a_scale_that_cannot_scan_is_refused() {
        for scale in [0.5, 1e-6, 1e-300, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = CampaignConfig::new(Year::Y2018, scale)
                .validate()
                .unwrap_err();
            assert!(err.to_string().contains("at least 1"), "{scale}: {err}");
        }
        // The largest scale that leaves a year one responder rounds half
        // a responder up; just past it nothing is left to probe.
        for year in Year::ALL {
            let largest = 2.0 * YearSpec::get(year).r2 as f64;
            for (scale, responders) in [
                (1.0, YearSpec::get(year).r2),
                (largest, 1),
                (largest * 1.001, 0),
            ] {
                assert_eq!(
                    Population::planned_resolvers(year, scale),
                    responders,
                    "{year} at {scale}"
                );
                let config = CampaignConfig::new(year, scale);
                assert_eq!(
                    config.validate().is_ok(),
                    responders > 0,
                    "{year} at {scale}"
                );
            }
            let err = CampaignConfig::new(year, 1e9).validate().unwrap_err();
            assert!(err.to_string().contains("no responder"), "{err}");
        }
        // The boundary the command line meets: 2018 keeps one responder
        // at 1e7 and none at 2e7.
        assert!(CampaignConfig::new(Year::Y2018, 1e7).validate().is_ok());
        assert!(CampaignConfig::new(Year::Y2018, 2e7).validate().is_err());
        let single = Campaign::new(CampaignConfig::new(Year::Y2018, 1e7))
            .run()
            .unwrap();
        assert_eq!(single.dataset().r2(), 1);
    }

    #[test]
    fn invalid_knobs_are_rejected_before_any_simulation() {
        let base = || CampaignConfig::new(Year::Y2018, 50_000.0);
        let zoned = |zone: String| CampaignConfig {
            infra: Infra {
                auth_ns_name: format!("ns1.{zone}").parse().unwrap(),
                zone: zone.parse().unwrap(),
                ..Infra::default()
            },
            ..base()
        };
        for config in [
            base().with_loss(1.5),
            base().with_loss(f64::NAN),
            base().with_duplication(-0.1),
            base().with_probe_rate(0),
            base().with_forwarder_fraction(2.0),
            base().with_retries(17),
            base().with_retries(u32::MAX),
            // 242 bytes on the wire: the two probe labels' 14 pass the
            // 255-byte limit, so no Q1 could be built.
            zoned(format!("{0}.{0}.{0}.{1}", "a".repeat(63), "b".repeat(48))),
            // The name server's A record would sit outside its zone.
            CampaignConfig {
                infra: Infra {
                    auth_ns_name: "ns1.example.net".parse().unwrap(),
                    ..Infra::default()
                },
                ..base()
            },
        ] {
            let err = Campaign::new(config).run().unwrap_err();
            assert!(matches!(err, CampaignError::InvalidConfig(_)), "{err}");
        }
        // One byte shorter, the zone leaves the labels room: the scan
        // runs and its probes are answered.
        let fits = zoned(format!("{0}.{0}.{0}.{1}", "a".repeat(63), "b".repeat(47)));
        let result = Campaign::new(fits).run().unwrap();
        assert!(result.dataset().r2() > 0);
    }

    #[test]
    fn sabotaged_shard_recovers_on_retry() {
        let config = CampaignConfig::new(Year::Y2018, 20_000.0)
            .with_shards(2)
            .with_sabotage(ShardSabotage {
                shard: 1,
                failures: 1,
            });
        let result = Campaign::new(config).run().unwrap();
        let degraded = result.degraded().expect("retry recorded");
        assert!(!degraded.is_partial(), "retry succeeded: nothing missing");
        assert_eq!(degraded.retried, vec![1]);
        // The retried shard reran with the same seed, so the merged
        // result matches an unsabotaged campaign.
        let clean = Campaign::new(CampaignConfig::new(Year::Y2018, 20_000.0).with_shards(2))
            .run()
            .unwrap();
        assert_eq!(result.dataset().r2(), clean.dataset().r2());
        assert_eq!(result.dataset().q2, clean.dataset().q2);
    }

    #[test]
    fn permanently_failed_shard_degrades_the_result() {
        let config = CampaignConfig::new(Year::Y2018, 20_000.0)
            .with_shards(2)
            .with_sabotage(ShardSabotage {
                shard: 0,
                failures: 2,
            });
        let result = Campaign::new(config).run().unwrap();
        assert!(result.is_partial());
        let degraded = result.degraded().expect("degradation recorded");
        assert_eq!(degraded.failed.len(), 1);
        assert_eq!(degraded.failed[0].shard, 0);
        assert!(degraded.failed[0].message.contains("sabotaged"));
        // The survivor's slice alone undercounts the clean campaign.
        let clean = Campaign::new(CampaignConfig::new(Year::Y2018, 20_000.0).with_shards(2))
            .run()
            .unwrap();
        assert!(result.dataset().r2() < clean.dataset().r2());
    }

    #[test]
    fn all_shards_failing_is_an_error() {
        let config = CampaignConfig::new(Year::Y2018, 50_000.0).with_sabotage(ShardSabotage {
            shard: 0,
            failures: 2,
        });
        let err = Campaign::new(config).run().unwrap_err();
        let CampaignError::AllShardsFailed(failures) = err else {
            panic!("wrong error: {err}");
        };
        assert_eq!(failures.len(), 1);
        assert!(failures[0].message.contains("sabotaged"));
    }

    /// Runs shard `shard` of `campaign` over `targets` to idle, its
    /// registry reading the walk's silent record or, with `full_route`,
    /// a record nothing fills: its books, how often it asked
    /// [`plan::find`] about each address, and the hosts registered
    /// before it ran.
    fn routed_shard(
        campaign: &Campaign,
        targets: &TargetPlan,
        population: &std::sync::Arc<Population>,
        shard: usize,
        full_route: bool,
    ) -> (
        (NetStats, ProbeStats),
        FxHashMap<Ipv4Addr, u32>,
        FxHashSet<Ipv4Addr>,
    ) {
        let config = &campaign.config;
        let knobs = campaign.shard_knobs(&YearSpec::get(config.year));
        let walk = targets.shard(shard, config.shards);
        let mut plan = ShardPlan::new(config, &knobs, shard, 0, walk, population);
        if full_route {
            plan.silent = Rc::default();
        }
        let recorder = ShardRecorder::new(config, plan.responders(), None);
        let mut world = campaign.build_shard(plan, recorder);
        let mut registered = FxHashSet::default();
        world.net.for_each_host(|addr, _| {
            registered.insert(addr);
        });
        let (outcome, finds) = plan::tests::counting_finds(|| {
            world.net.run_until_idle();
            world.collect(Duration::ZERO)
        });
        ((outcome.net_stats, outcome.probe_stats), finds, registered)
    }

    /// The silent record against the full route it cuts short. Over
    /// seeds × {fast, full-Q1} × 1–3 shards × {no rule, loss and
    /// duplication, a crash window on a silent target} × {the probeable
    /// space, the /24s that hold the forwarders' upstreams}, each shard
    /// runs as built and again with a record nothing fills, so that
    /// every send takes the full route. The books match field for field.
    /// Every silent target is looked up once, by the walk, where the
    /// full route looks the shard's own up a second time; so every send
    /// to one was settled before `covers` was asked, and none of them
    /// has a host registered or planned. Silence that falls on an
    /// upstream reaches it.
    #[test]
    fn the_silent_record_settles_only_sends_that_reach_nobody() {
        use crate::plan::tests::{all_but, pairs};
        for seed in [3, 77] {
            for full_q1 in [false, true] {
                let base =
                    CampaignConfig::new(Year::Y2018, [20_000.0, 400_000.0][usize::from(full_q1)])
                        .with_seed(seed)
                        .with_forwarder_fraction(0.3);
                let base = if full_q1 { base.with_full_q1() } else { base };
                let spec = YearSpec::get(base.year);
                let population =
                    std::sync::Arc::new(Campaign::new(base.clone()).build_population());
                let upstreams: Vec<Ipv4Addr> = population.upstreams.addrs().collect();
                assert!(!upstreams.is_empty(), "seed {seed}: forwarders present");
                let spaces = [AllowedSpace::probeable(), all_but(&upstreams)];
                for (wide, space) in spaces.into_iter().enumerate() {
                    let targets =
                        TargetPlan::new(&base, &spec, std::sync::Arc::clone(&population), space);
                    let silent: Vec<Ipv4Addr> = pairs(&targets, 0, 1)
                        .into_iter()
                        .map(|(_, addr)| addr)
                        .filter(|&addr| population.find(addr).is_none())
                        .collect();
                    let on_upstreams = silent
                        .iter()
                        .filter(|addr| upstreams.contains(addr))
                        .count();
                    assert_eq!(
                        on_upstreams > 0,
                        wide == 1,
                        "seed {seed}, full_q1 {full_q1}, space {wide}"
                    );
                    let crash = FaultPlan::seeded(seed).with_rule(FaultRule::window(
                        Duration::ZERO,
                        Duration::from_secs(3_600),
                        FaultScope::Host(silent[silent.len() / 2]),
                        FaultKind::Crash,
                    ));
                    let plans = [
                        base.clone(),
                        base.clone().with_loss(0.1).with_duplication(0.05),
                        base.clone().with_faults(crash),
                    ];
                    for (rule, config) in plans.into_iter().enumerate() {
                        for shards in 1..=3 {
                            // The plan reads neither the shard count nor
                            // the fault plan.
                            let campaign = Campaign::new(config.clone().with_shards(shards));
                            for shard in 0..shards {
                                let context = format!("seed {seed}, full_q1 {full_q1}, space {wide}, rule {rule}, shard {shard}/{shards}");
                                let (books, finds, registered) =
                                    routed_shard(&campaign, &targets, &population, shard, false);
                                let (full_books, full_finds, _) =
                                    routed_shard(&campaign, &targets, &population, shard, true);
                                assert_eq!(books, full_books, "{context}");
                                let own: FxHashSet<Ipv4Addr> = pairs(&targets, shard, shards)
                                    .into_iter()
                                    .map(|(_, addr)| addr)
                                    .collect();
                                for addr in &silent {
                                    assert_eq!(finds.get(addr), Some(&1), "{addr}: {context}");
                                    let upstream = upstreams.contains(addr);
                                    assert_eq!(
                                        registered.contains(addr),
                                        upstream && own.contains(addr),
                                        "{addr}: {context}"
                                    );
                                    let full = if own.contains(addr) && !upstream {
                                        2
                                    } else {
                                        1
                                    };
                                    assert_eq!(
                                        full_finds.get(addr),
                                        Some(&full),
                                        "{addr}: {context}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// A shard that blows its virtual deadline returns the miss as an
    /// error for the supervisor to retry, without unwinding.
    #[test]
    fn a_blown_virtual_deadline_is_an_error_not_a_panic() {
        let config = CampaignConfig::new(Year::Y2018, 20_000.0)
            .with_virtual_deadline(Duration::from_nanos(1));
        let campaign = Campaign::new(config.clone());
        let spec = YearSpec::get(config.year);
        let knobs = campaign.shard_knobs(&spec);
        let population = std::sync::Arc::new(campaign.build_population());
        let walk = campaign.plan_targets(&spec, &population).shard(0, 1);
        let plan = ShardPlan::new(&config, &knobs, 0, 0, walk, &population);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            campaign.run_shard(plan).map(drop)
        }));
        let Ok(Err(message)) = run else {
            panic!("expected Ok(Err(..)), the run unwound or finished");
        };
        assert!(
            message.starts_with("virtual deadline exceeded"),
            "{message}"
        );
    }
}
