//! Taps are observers, never participants: attaching any number of bus
//! subscribers — zero, one, many, or a deliberately stalled one that
//! forces the publisher to drop — must leave campaign reports
//! byte-identical to the no-bus baseline, at every shard count and in
//! both analysis modes. The flip side of the contract is liveness: a
//! consumer that never drains its lane must not block the event loop
//! (publishes are `try_send`-only), which these tests prove by simply
//! terminating.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use orscope_core::{
    AnalysisMode, Campaign, CampaignConfig, Infra, RecordBus, TapPredicate, TapSubscriber,
    DEFAULT_TAP_CAPACITY,
};
use orscope_resolver::paper::Year;
use orscope_resolver::population::{Population, PopulationConfig};
use orscope_resolver::{ProfileClass, ResponsePolicy};

/// Serialized table reports: the byte-level comparison surface (wall
/// clock is excluded; it is never invariant).
fn config(analysis: AnalysisMode, shards: usize) -> CampaignConfig {
    CampaignConfig::new(Year::Y2018, 10_000.0)
        .with_shards(shards)
        .with_analysis(analysis)
}

#[test]
fn reports_are_identical_with_zero_one_or_many_taps() {
    for analysis in [AnalysisMode::Streaming, AnalysisMode::Batch] {
        for shards in [1, 2, 4] {
            let baseline = Campaign::new(config(analysis, shards)).run().unwrap();
            let baseline_tables = baseline.tables_json();
            let baseline_render = baseline.render();

            // A bus with no subscribers: the publish fast path.
            let empty_bus = Arc::new(RecordBus::new());
            let with_empty_bus = Campaign::new(config(analysis, shards))
                .with_bus(empty_bus)
                .run()
                .unwrap();
            assert_eq!(
                with_empty_bus.tables_json(),
                baseline_tables,
                "empty bus perturbed tables: {analysis} x {shards} shards"
            );
            assert_eq!(
                with_empty_bus.render(),
                baseline_render,
                "empty bus perturbed render: {analysis} x {shards} shards"
            );

            // Several subscribers with very different appetites: a
            // roomy match-all lane, a narrow filtered lane, and a
            // capacity-1 lane that is never drained at all, so almost
            // every record published to it must be dropped.
            let bus = Arc::new(RecordBus::new());
            let roomy = TapSubscriber::attach(
                &bus,
                TapPredicate::match_all(),
                DEFAULT_TAP_CAPACITY,
                &Infra::default(),
            );
            let narrow = TapSubscriber::attach(
                &bus,
                "rcode=NXDomain".parse().unwrap(),
                64,
                &Infra::default(),
            );
            let stalled = bus.subscribe(1);
            let with_taps = Campaign::new(config(analysis, shards))
                .with_bus(bus.clone())
                .run()
                .unwrap();
            assert_eq!(
                with_taps.tables_json(),
                baseline_tables,
                "taps perturbed tables: {analysis} x {shards} shards"
            );
            assert_eq!(
                with_taps.render(),
                baseline_render,
                "taps perturbed render: {analysis} x {shards} shards"
            );
            // One recorder per shard publishes in both analysis modes.
            let stats = bus.stats();
            assert!(stats.published > 0, "{analysis} run published nothing");
            assert!(
                stats.dropped > 0,
                "a never-drained capacity-1 lane must drop"
            );
            assert!(stalled.dropped() > 0, "drops must land on the full lane");
            assert_eq!(
                roomy.dropped() + narrow.dropped() + stalled.dropped(),
                stats.dropped,
                "bus drop total must equal the per-lane sum"
            );
            drop((roomy, narrow, stalled));
        }
    }
}

#[test]
fn concurrent_tap_drain_is_unobservable_in_reports() {
    for analysis in [AnalysisMode::Streaming, AnalysisMode::Batch] {
        concurrent_tap_drain(analysis);
    }
}

fn concurrent_tap_drain(analysis: AnalysisMode) {
    let baseline = Campaign::new(config(analysis, 2)).run().unwrap();
    let bus = Arc::new(RecordBus::new());
    let tap = TapSubscriber::attach(
        &bus,
        TapPredicate::match_all(),
        DEFAULT_TAP_CAPACITY,
        &Infra::default(),
    );
    // Drain on a live consumer thread while the campaign runs, exactly
    // like an attached `orscope tap` client.
    let stop = Arc::new(AtomicBool::new(false));
    let drainer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut seen = 0u64;
            while !stop.load(Ordering::SeqCst) {
                if tap.poll(Duration::from_millis(5)).is_some() {
                    seen += 1;
                }
            }
            while tap.poll_now().is_some() {
                seen += 1;
            }
            seen
        })
    };
    let result = Campaign::new(config(analysis, 2))
        .with_bus(bus)
        .run()
        .unwrap();
    stop.store(true, Ordering::SeqCst);
    let seen = drainer.join().unwrap();
    assert!(seen > 0, "a drained match-all tap must observe records");
    assert_eq!(result.tables_json(), baseline.tables_json());
    assert_eq!(result.render(), baseline.render());
}

#[test]
fn concurrent_campaigns_tag_each_record_with_its_own_round() {
    // Two campaigns share one bus and run side by side, as two
    // observatory rounds do. One address is honest in the first and
    // refusing in the second; the second measures under its own zone so
    // a record's qname tells which campaign captured it. Nothing is
    // decoded until both have finished, so a class looked up at decode
    // time would tag both campaigns' records alike.
    let first_config = CampaignConfig::new(Year::Y2018, 20_000.0);
    let mut second_config = first_config.clone();
    second_config.infra.zone = "probeteam.net".parse().unwrap();
    second_config.infra.auth_ns_name = "ns1.probeteam.net".parse().unwrap();
    let mut generate = PopulationConfig::new(first_config.year, first_config.scale);
    generate.seed = first_config.seed;
    generate.reserved_hosts = first_config.infra.addresses();
    let first = Population::generate(&generate);
    let index = (0..first.resolvers.len())
        .find(|&i| first.resolver(i).policy.class() == ProfileClass::Honest)
        .expect("the population has an honest resolver");
    let addr = first.resolver(index).addr;
    let mut second = first.clone();
    let refusing = ResponsePolicy::refusing();
    assert_eq!(refusing.class(), ProfileClass::Refusing);
    let refusing = Arc::make_mut(&mut second.table).intern(refusing);
    second.resolvers.set_profile(index, refusing);

    let bus = Arc::new(RecordBus::new());
    let tap = TapSubscriber::attach(&bus, TapPredicate::match_all(), 1 << 15, &Infra::default());
    std::thread::scope(|scope| {
        for (config, population) in [(first_config, first), (second_config, second)] {
            let bus = bus.clone();
            scope.spawn(move || {
                Campaign::new(config)
                    .with_bus(bus)
                    .run_with_population(population)
                    .unwrap()
            });
        }
    });
    let mut seen = [0u32; 2];
    while let Some(event) = tap.poll_now() {
        if event.src != addr && event.dst != addr {
            continue;
        }
        let qname = event.qname.as_deref().expect("every record here decodes");
        let (campaign, class) = if qname.ends_with(".probeteam.net") {
            (1, ProfileClass::Refusing)
        } else {
            (0, ProfileClass::Honest)
        };
        assert_eq!(event.class, Some(class), "{event:?}");
        seen[campaign] += 1;
    }
    assert_eq!(tap.dropped(), 0, "the lane held every record");
    assert!(seen.iter().all(|&events| events > 0), "{seen:?}");
}
