//! Campaign assembly and execution.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::{Duration, Instant};

use orscope_analysis::{AnalysisMode, Dataset, StreamingAnalyzer};
use orscope_authns::{
    AuthStats, AuthoritativeServer, CaptureHandle, CapturedPacket, ClusterZone, DelegationServer,
    SharedSink, Zone,
};
use orscope_geo::GeoDb;
use orscope_ipspace::AllowedSpace;
use orscope_netsim::{
    Coverage, FaultKind, FaultPlan, FaultRule, FaultScope, HashLatency, LazyRegistry, NetStats,
    SimNet, SimTime,
};
use orscope_prober::{
    ProbeStats, Prober, ProberConfig, ProberHandle, ScanCheckpoint, SlotSchedule, TargetSource,
};
use orscope_resolver::paper::{Year, YearSpec};
use orscope_resolver::population::{Population, PopulationConfig};
use orscope_resolver::{ProfiledResolver, ResolverConfig, ResolverStats};
use orscope_telemetry::{Collector, MetricValue, Scope, SpanSnapshot, TelemetrySnapshot};
use orscope_threatintel::ThreatDb;

use crate::error::{CampaignError, DegradedReport, ShardFailure, ShardSabotage};
use crate::host::Host;
use crate::infra::{seed_geo_db, seed_threat_db, Infra};
use crate::plan::TargetPlan;
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
    /// Independent per-datagram loss probability (failure injection).
    pub loss_probability: f64,
    /// Independent per-datagram duplication probability (failure
    /// injection; UDP may deliver twice).
    pub duplicate_probability: f64,
    /// Scheduled, scoped network impairments (the chaos layer). The
    /// plan's seed is mixed with the campaign seed, and the same mixed
    /// plan is handed to every shard, so fault decisions are
    /// shard-invariant. `loss_probability` and `duplicate_probability`
    /// are always-on, all-scope rules appended to this plan.
    pub faults: FaultPlan,
    /// Per-probe retransmission budget: an unanswered Q1 is re-sent with
    /// exponential backoff up to this many times before the target is
    /// abandoned (0 = the paper's fire-and-forget scan).
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
    /// has pending events at this deadline panics, which the shard
    /// supervisor catches: the shard is retried once and then reported
    /// failed, exactly like any other shard panic. `None` (the default)
    /// runs every shard to idle. Because per-flow send times and RTTs
    /// are shard-layout-invariant, whether a scan fits the budget does
    /// not depend on the shard count.
    pub virtual_deadline: Option<Duration>,
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
            loss_probability: 0.0,
            duplicate_probability: 0.0,
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

    /// Sets the independent per-datagram loss probability.
    pub fn with_loss(mut self, probability: f64) -> Self {
        self.loss_probability = probability;
        self
    }

    /// Sets the independent per-datagram duplication probability.
    pub fn with_duplication(mut self, probability: f64) -> Self {
        self.duplicate_probability = probability;
        self
    }

    /// Installs a fault plan (scheduled, scoped impairments).
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
    /// a degenerate scale, probabilities outside `[0, 1]`, a zero probe
    /// rate, a shard count outside `1..=64`, or a malformed fault plan.
    pub fn validate(&self) -> Result<(), CampaignError> {
        let invalid = |reason: String| Err(CampaignError::InvalidConfig(reason));
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return invalid(format!("scale {} must be a positive number", self.scale));
        }
        if !(1..=64).contains(&self.shards) {
            return invalid(format!("shard count {} out of range 1..=64", self.shards));
        }
        for (name, p) in [
            ("loss_probability", self.loss_probability),
            ("duplicate_probability", self.duplicate_probability),
            ("forwarder_fraction", self.forwarder_fraction),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return invalid(format!("{name} {p} not in [0, 1]"));
            }
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
        Ok(())
    }

    /// The fault plan actually installed in every shard simulator: the
    /// configured plan with its seed mixed with the campaign seed (so
    /// reseeding the campaign reseeds the chaos draws), then the
    /// campaign-wide loss and duplication rules, in that order —
    /// identical across shards by construction.
    pub(crate) fn effective_faults(&self) -> FaultPlan {
        let mut plan = self.faults.clone();
        plan.seed ^= self.seed;
        let probability = self.loss_probability;
        if probability > 0.0 {
            plan.push(FaultRule::always(
                FaultScope::All,
                FaultKind::Loss { probability },
            ));
        }
        let probability = self.duplicate_probability;
        if probability > 0.0 {
            plan.push(FaultRule::always(
                FaultScope::All,
                FaultKind::Duplicate { probability },
            ));
        }
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
    /// continuous-monitoring trend, which interpolates populations
    /// between the two scans, and by the observatory's rounds). A shared
    /// population is only read, so a caller that may run it again — a
    /// supervised retry — keeps its copy without cloning it.
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
        // shards' snapshots are absorbed into its own at merge time.
        let collector = Collector::new();
        if let Some(wall) = build_wall {
            // Population building happens before the simulation starts,
            // so it consumes no virtual time.
            collector.record_span("phase.population_build", wall, 0);
        }
        let threat = seed_threat_db(&population);
        let geo = seed_geo_db(&population);
        let knobs = self.shard_knobs(&spec);

        // The scan plan is derived once from the master seed, so every
        // shard count scans the same addresses in the same global order
        // — but no target is built here, only the sorted index of the
        // responders. Each shard walks the plan's two permutations
        // itself and keeps the targets it owns, with their campaign-wide
        // send slots.
        let targets = self.plan_targets(&spec, &population);

        // ---- shard planning ----
        // Resolvers (and their forwarders) and off-port responders live
        // where `Population::shard` puts them, which is where the plan's
        // placement sends their probes.
        let shards = config.shards;
        let shard_pops: Vec<Population>;
        let shard_populations: Vec<&Population> = if shards == 1 {
            vec![&population]
        } else {
            shard_pops = population.shard(shards);
            shard_pops.iter().collect()
        };

        // ---- fan out: one supervised SimNet per shard ----
        // A panicking shard is rebuilt from the same plan (same seed) and
        // retried once. A second panic marks the shard permanently
        // failed: its slice is missing from the merge and the result
        // carries a `DegradedReport`.
        let run = |index: usize| {
            supervise(|attempt| {
                Ok(self.run_shard(ShardPlan::new(
                    config,
                    &knobs,
                    index,
                    attempt,
                    // A retry walks the permutations afresh.
                    TargetSource::new(targets.shard(index, shards)),
                    shard_populations[index],
                    targets.hosts(),
                )))
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
        collector
            .counter(Scope::Shard, "campaign.shard_retries")
            .add(retried.len() as u64);
        collector
            .counter(Scope::Shard, "campaign.shards_lost")
            .add(failed.len() as u64);
        let degraded = (!failed.is_empty() || !retried.is_empty())
            .then_some(DegradedReport { failed, retried });

        let result = self.assemble(population, threat, geo, collector, outcomes, degraded);
        debug_assert!(
            result.is_partial() || result.dataset().q1 == targets.len(),
            "whole campaign probed {} of {} planned targets",
            result.dataset().q1,
            targets.len()
        );
        Ok(result)
    }

    /// Merges the outcomes of the shards that finished into one result:
    /// the merge of [`Campaign::run`] and of [`Campaign::resume_from`].
    pub(crate) fn assemble(
        &self,
        population: std::sync::Arc<Population>,
        threat: ThreatDb,
        geo: GeoDb,
        collector: Collector,
        outcomes: Vec<ShardOutcome>,
        degraded: Option<DegradedReport>,
    ) -> CampaignResult {
        let config = &self.config;
        let analyze = collector.phase("phase.analyze");
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
        analyze.finish();
        let mut telemetry = collector.snapshot();
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
    /// the classes `hosts` and `table` give them.
    pub(crate) fn publisher(
        &self,
        hosts: &std::sync::Arc<HostIndex>,
        table: &std::sync::Arc<orscope_resolver::ProfileTable>,
    ) -> Option<Publisher> {
        let bus = self.bus.clone()?;
        Some(Publisher::new(bus, hosts.clone(), table.clone()))
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
    /// its raw outcome for merging.
    fn run_shard(&self, plan: ShardPlan<'_>) -> ShardOutcome {
        if let Some(sabotage) = self.config.sabotage {
            if sabotage.shard == plan.shard && plan.attempt < sabotage.failures {
                panic!(
                    "sabotaged: shard {} ordered to fail on attempt {}",
                    plan.shard, plan.attempt
                );
            }
        }
        let population = plan.population;
        let publisher = self.publisher(&plan.hosts, population.table());
        let recorder = ShardRecorder::new(&self.config, population, publisher);
        let mut world = self.build_shard(plan, None, recorder);
        #[cfg(test)]
        if self.preregister_hosts {
            world.preregister_hosts(population, &self.config);
        }
        // ---- run to completion (or the virtual deadline) ----
        let started = Instant::now();
        match self.config.virtual_deadline {
            None => world.net.run_until_idle(),
            Some(deadline) => {
                // A blown deadline is a shard failure like any other:
                // panic here, let the supervisor retry once (the rerun is
                // deterministic, so a genuine overrun fails again), and
                // surface the loss through the degraded-result path.
                world.net.run_until(SimTime::ZERO + deadline);
                if !world.net.is_idle() {
                    panic!(
                        "virtual deadline exceeded: events still pending at {:?}",
                        deadline
                    );
                }
            }
        }
        world.collect(started.elapsed())
    }

    /// Assembles one shard's simulator: network, name-server hierarchy,
    /// resolver population, and prober (resumed from `resume` when
    /// given), with both capture points writing into `recorder`. The
    /// caller decides how far to run it.
    pub(crate) fn build_shard(
        &self,
        plan: ShardPlan<'_>,
        resume: Option<&ScanCheckpoint>,
        recorder: ShardRecorder,
    ) -> ShardWorld {
        let config = &self.config;
        let infra = &config.infra;

        // ---- network & name-server hierarchy ----
        let resolver_config = ResolverConfig::new(infra.root);
        let released = Rc::<RefCell<ResolverStats>>::default();
        let mut net = SimNet::builder()
            .seed(plan.sim_seed)
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
                plan.hosts,
                std::sync::Arc::clone(plan.population.table()),
                resolver_config.clone(),
                Rc::clone(&released),
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
        let mut auth = AuthoritativeServer::new(
            ClusterZone::new(zone),
            CaptureHandle::with_sink(sink.clone()),
        );
        auth.enable_auto_advance(plan.cluster_capacity);
        net.insert(infra.auth, Host::Auth(Box::new(auth)));

        // ---- shared upstreams (this shard's slice) ----
        for host in plan.population.upstreams() {
            let resolver = ProfiledResolver::new_shared(
                std::sync::Arc::clone(host.policy),
                resolver_config.clone(),
            );
            net.insert(host.addr, Host::Resolver(Box::new(resolver)));
        }

        // ---- prober ----
        let prober_handle = ProberHandle::with_sink(sink);
        let mut prober_config = ProberConfig::new(infra.zone.clone(), plan.targets);
        prober_config.rate_pps = plan.total_rate_pps;
        prober_config.cluster_capacity = plan.cluster_capacity;
        prober_config.base_cluster = plan.base_cluster;
        prober_config.retry_limit = config.retry_limit;
        if resume.is_none() {
            // Campaign-global send slots; a resumed scan paces locally
            // over its remaining targets instead.
            prober_config.slots = Some(SlotSchedule {
                total_rate_pps: plan.total_rate_pps,
            });
        }
        let prober = match resume {
            None => Prober::new(prober_config, prober_handle.clone()),
            Some(checkpoint) => Prober::resume(prober_config, prober_handle.clone(), checkpoint),
        }
        .expect("probe rate validated");
        net.insert(infra.prober, Host::Prober(Box::new(prober)));
        net.set_timer_for(infra.prober, SimTime::ZERO, 0);

        ShardWorld {
            net,
            prober_handle,
            recorder,
            released,
            carried: resume.map_or((0, 0), |scan| (scan.q1_sent, scan.r2_captured)),
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

/// Everything one shard needs to run independently: its slice of the
/// population, its walk of the target plan, and derived knobs. Borrows
/// the shard population, so shard threads are spawned inside
/// `std::thread::scope`.
pub(crate) struct ShardPlan<'a> {
    /// Shard index (0-based).
    pub(crate) shard: usize,
    /// Supervision attempt (0 = first run, 1 = retry).
    pub(crate) attempt: u32,
    /// Seed for this shard's `SimNet`.
    pub(crate) sim_seed: u64,
    /// The campaign-wide probe rate (slot pacing is global).
    pub(crate) total_rate_pps: u64,
    /// First subdomain cluster this shard allocates from.
    pub(crate) base_cluster: u32,
    /// Names per cluster (shared across shards).
    pub(crate) cluster_capacity: u64,
    /// This shard's targets with their campaign-wide send slots, in
    /// scan order (see [`TargetPlan::shard`]).
    pub(crate) targets: TargetSource,
    /// The resolvers, off-port responders, and upstreams this shard owns.
    pub(crate) population: &'a Population,
    /// The campaign's probed hosts by address (see [`TargetPlan::hosts`]):
    /// a shard is only ever sent to the ones it owns.
    pub(crate) hosts: std::sync::Arc<HostIndex>,
}

impl<'a> ShardPlan<'a> {
    /// Shard `index` of `config.shards` on its supervision `attempt`,
    /// walking `targets` over `population`.
    pub(crate) fn new(
        config: &CampaignConfig,
        knobs: &ShardKnobs,
        index: usize,
        attempt: u32,
        targets: TargetSource,
        population: &'a Population,
        hosts: std::sync::Arc<HostIndex>,
    ) -> Self {
        // Disjoint cluster namespaces per shard keep merged qnames
        // globally unique (1,000 clusters shared across <= 64 shards).
        let cluster_stride = 1_000 / config.shards as u32;
        Self {
            shard: index,
            attempt,
            // Decorrelate per-shard simulator seeds; shard 0 keeps the
            // master seed so shards=1 reproduces the classic run exactly.
            sim_seed: config.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            total_rate_pps: knobs.total_rate,
            base_cluster: index as u32 * cluster_stride,
            cluster_capacity: knobs.cluster_capacity,
            targets,
            population,
            hosts,
        }
    }
}

/// A sorted `(packed address, profile id)` list under a first-level
/// directory over the high address bits.
///
/// Every datagram to an unmaterialised address looks its destination up
/// here, silent targets included, and a plain binary search over the
/// whole list is ~16 dependent loads spread across it. The directory
/// (at most one byte a host) narrows a lookup to the handful of hosts
/// sharing the address's top bits: one line of the directory, one or
/// two of the list.
///
/// A campaign builds one, over every probed host of its population, and
/// shares it: the plan's silent walk steps over the addresses in it and
/// every shard's registry materializes from it.
#[derive(Debug)]
pub(crate) struct HostIndex {
    hosts: Vec<(u32, orscope_resolver::ProfileId)>,
    /// `directory[b]..directory[b + 1]` bounds the hosts whose address
    /// starts with the bits `b`.
    directory: Vec<u32>,
    /// Address bits below the directory's.
    shift: u32,
}

impl HostIndex {
    /// Indexes the probed hosts of `population`: resolvers and off-port
    /// responders (upstreams are never probed and always registered).
    pub(crate) fn of(population: &Population) -> Self {
        let mut hosts = Vec::with_capacity(population.resolvers.len() + population.off_port.len());
        for list in [&population.resolvers, &population.off_port] {
            for i in 0..list.len() {
                hosts.push((u32::from(list.addr(i)), list.profile_id(i)));
            }
        }
        Self::new(hosts)
    }

    fn new(mut hosts: Vec<(u32, orscope_resolver::ProfileId)>) -> Self {
        hosts.sort_unstable_by_key(|&(addr, _)| addr);
        // Four hosts a bucket on average: 4 B of directory for them.
        let bits = (hosts.len() / 4).max(1).ilog2().min(24);
        let shift = 32 - bits;
        let mut directory = vec![0u32; (1usize << bits) + 1];
        for &(addr, _) in &hosts {
            directory[Self::bucket(addr, shift) + 1] += 1;
        }
        for bucket in 1..directory.len() {
            directory[bucket] += directory[bucket - 1];
        }
        Self {
            hosts,
            directory,
            shift,
        }
    }

    /// Widened first: with a one-bucket directory the shift is all 32 bits.
    fn bucket(addr: u32, shift: u32) -> usize {
        (u64::from(addr) >> shift) as usize
    }

    pub(crate) fn find(&self, addr: Ipv4Addr) -> Option<orscope_resolver::ProfileId> {
        let addr = u32::from(addr);
        let bucket = Self::bucket(addr, self.shift);
        let range = self.directory[bucket] as usize..self.directory[bucket + 1] as usize;
        let hosts = &self.hosts[range];
        let slot = hosts.binary_search_by_key(&addr, |&(a, _)| a).ok()?;
        Some(hosts[slot].1)
    }

    pub(crate) fn contains(&self, addr: Ipv4Addr) -> bool {
        self.find(addr).is_some()
    }

    /// The indexed addresses, ascending (one entry a host: an address
    /// planned twice comes up twice).
    pub(crate) fn addrs(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.hosts.iter().map(|&(addr, _)| Ipv4Addr::from(addr))
    }
}

/// Released resolvers kept for the next materialization. A fault-free
/// shard has a handful of hosts live at once, so a short stack already
/// serves nearly every materialization; the bound is what keeps a burst
/// of simultaneous releases from staying resident for the rest of the
/// scan.
const RESOLVER_POOL: usize = 16;

/// Materializes `ProfiledResolver` endpoints on demand from the
/// campaign's [`HostIndex`] plus the shared profile table.
/// Covers probed hosts (resolvers and off-port responders); upstreams
/// are always registered eagerly.
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
    hosts: std::sync::Arc<HostIndex>,
    table: std::sync::Arc<orscope_resolver::ProfileTable>,
    config: ResolverConfig,
    /// The summed books of every resolver handed back so far; the
    /// shard's world holds the other reference and reads it when the
    /// run is over.
    released: Rc<RefCell<ResolverStats>>,
    /// At most [`RESOLVER_POOL`] released resolvers, in the boxes
    /// `Host::Resolver` holds them in: reuse moves a pointer and keeps
    /// the allocation.
    #[allow(clippy::vec_box)]
    pool: RefCell<Vec<Box<ProfiledResolver>>>,
}

impl PopulationRegistry {
    fn new(
        hosts: std::sync::Arc<HostIndex>,
        table: std::sync::Arc<orscope_resolver::ProfileTable>,
        config: ResolverConfig,
        released: Rc<RefCell<ResolverStats>>,
    ) -> Self {
        Self {
            hosts,
            table,
            config,
            released,
            pool: RefCell::new(Vec::with_capacity(RESOLVER_POOL)),
        }
    }
}

impl Coverage for PopulationRegistry {
    fn covers(&self, addr: Ipv4Addr) -> bool {
        self.hosts.contains(addr)
    }
}

impl LazyRegistry<Host> for PopulationRegistry {
    fn materialize(&self, addr: Ipv4Addr) -> Option<Host> {
        let policy = std::sync::Arc::clone(self.table.get(self.hosts.find(addr)?));
        let resolver = match self.pool.borrow_mut().pop() {
            Some(mut resolver) => {
                resolver.reset(policy);
                resolver
            }
            None => Box::new(ProfiledResolver::new_shared(policy, self.config.clone())),
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
    /// Live view of the prober's counters.
    pub(crate) prober_handle: ProberHandle,
    /// The shard's record pipeline; the prober and the authoritative
    /// server hold the other two references.
    pub(crate) recorder: Rc<RefCell<ShardRecorder>>,
    /// The books of the resolvers released so far (the registry holds
    /// the other reference).
    released: Rc<RefCell<ResolverStats>>,
    /// `(Q1 sent, R2 captured)` carried in from the checkpoint a resumed
    /// world started at: on the prober's books, which cover the whole
    /// scan, but not this world's to publish.
    carried: (u64, u64),
    /// Names per subdomain cluster (for the load-time model).
    pub(crate) cluster_capacity: u64,
}

impl ShardWorld {
    /// Harvests a completed shard run, which took `probe_wall`, into a
    /// mergeable outcome.
    pub(crate) fn collect(mut self, probe_wall: Duration) -> ShardOutcome {
        let probe_stats = self.prober_handle.stats();
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
        // Every resolver's books, each read exactly once: the released
        // ones were summed as they were handed back, the rest — eager
        // upstreams, and every materialized host when a fault rule
        // pinned them — are still registered.
        let mut resolvers = self.released.take();
        let mut auth = AuthStats::default();
        self.net.for_each_host(|_, host| match host {
            Host::Resolver(resolver) => resolvers.absorb(&resolver.stats()),
            Host::Auth(server) => auth = server.stats(),
            _ => {}
        });
        let mut telemetry = self.publish(&probe_stats, &resolvers, &auth);
        let wall_nanos = u64::try_from(probe_wall.as_nanos()).unwrap_or(u64::MAX);
        for (name, wall_nanos, virt_nanos) in [
            ("phase.probe", wall_nanos, probe_virt),
            ("phase.capture_drain", 0, drain_virt),
        ] {
            let span = SpanSnapshot {
                count: 1,
                wall_nanos,
                virt_nanos,
            };
            telemetry.spans.insert(name.to_owned(), span);
        }
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
        let (carried_q1, carried_r2) = self.carried;
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
            ("prober.probes_sent", probe.q1_sent - carried_q1),
            ("prober.r2_captured", probe.r2_captured - carried_r2),
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
            ("prober.pacer_tokens_issued", probe.pacer_tokens_issued),
            ("prober.pacer_tokens_unused", probe.pacer_tokens_unused),
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

    #[test]
    fn host_index_agrees_with_a_plain_binary_search() {
        let mut rng = orscope_check::Rng::new(0x0D1C);
        let mut next = move || rng.next_u64() as u32;
        // Sizes on both sides of every directory width from one bucket
        // up, drawn uniformly and clustered under a few /16s.
        for size in [0usize, 1, 3, 4, 7, 8, 9, 100, 4_095, 4_096, 70_000] {
            for spread in [u32::MAX, 0x0003_FFFF] {
                let mut sorted: Vec<(u32, u32)> = (0..size)
                    .map(|i| (next() & spread | (next() % 3) << 30, i as u32))
                    .collect();
                sorted.sort_unstable();
                sorted.dedup_by_key(|&mut (addr, _)| addr);
                let index = HostIndex::new(sorted.clone());
                // At most a byte a host (and two entries when nearly empty).
                assert!(4 * index.directory.len() <= sorted.len() + 8);
                let edges = [0, 1, u32::MAX - 1, u32::MAX];
                let present = sorted
                    .iter()
                    .flat_map(|&(a, _)| [a.wrapping_sub(1), a, a.wrapping_add(1), a ^ 0x8000_0000]);
                let random: Vec<u32> = (0..1_000).map(|_| next()).collect();
                for addr in present.chain(edges).chain(random) {
                    let want = sorted
                        .binary_search_by_key(&addr, |&(a, _)| a)
                        .ok()
                        .map(|slot| sorted[slot].1);
                    assert_eq!(
                        index.find(Ipv4Addr::from(addr)),
                        want,
                        "{addr:#x} of {size}"
                    );
                }
            }
        }
    }

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
    fn invalid_knobs_are_rejected_before_any_simulation() {
        let base = || CampaignConfig::new(Year::Y2018, 50_000.0);
        for config in [
            base().with_loss(1.5),
            base().with_duplication(-0.1),
            base().with_probe_rate(0),
            base().with_forwarder_fraction(2.0),
        ] {
            let err = Campaign::new(config).run().unwrap_err();
            assert!(matches!(err, CampaignError::InvalidConfig(_)), "{err}");
        }
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
}
