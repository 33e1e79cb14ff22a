//! Chaos-layer robustness: campaigns must survive scripted network
//! faults and supervised shard panics without losing determinism. These
//! tests drive the netsim fault plan, the prober's retransmissions and
//! the core supervisor together through the public campaign API only.

use std::time::Duration;

use orscope_core::{Campaign, CampaignConfig, CampaignError, ShardSabotage};
use orscope_dns_wire::Rcode;
use orscope_netsim::{FaultKind, FaultPlan, FaultRule, FaultScope};
use orscope_resolver::paper::Year;

/// Campaign seed for every test in this suite. The CI chaos matrix
/// re-runs the whole suite under several seeds via
/// `ORSCOPE_CHAOS_SEED`; the properties asserted here are relational
/// (elevated/suppressed/identical), not calibrated constants, so they
/// must hold at any seed.
fn seed() -> u64 {
    std::env::var("ORSCOPE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn base_config() -> CampaignConfig {
    CampaignConfig::new(Year::Y2018, 20_000.0).with_seed(seed())
}

/// Total ServFail responses (with and without answer) in Table VI.
fn servfails(result: &orscope_core::CampaignResult) -> u64 {
    result
        .table6_measured()
        .rows
        .iter()
        .find(|(rcode, _, _)| *rcode == Rcode::ServFail)
        .map(|(_, with, without)| with + without)
        .unwrap_or(0)
}

/// An outage window that blacks out the authoritative server while the
/// scan is in flight (Y2018 at scale 20k probes at 5 pps for ~195
/// virtual seconds, so 30s-90s lands mid-scan).
fn authns_outage(config: &CampaignConfig) -> FaultPlan {
    FaultPlan::new().with_rule(FaultRule::window(
        Duration::from_secs(30),
        Duration::from_secs(90),
        FaultScope::Host(config.infra.auth),
        FaultKind::Blackhole,
    ))
}

#[test]
fn authns_blackhole_is_survived_and_shard_invariant() {
    let run = |shards: usize, faulted: bool, retries: u32| {
        let mut config = base_config().with_shards(shards).with_retries(retries);
        if faulted {
            let plan = authns_outage(&config);
            config = config.with_faults(plan);
        }
        Campaign::new(config).run().unwrap()
    };

    let clean = run(1, false, 0);
    let faulted = run(1, true, 0);

    // The outage was real: the simulator swallowed traffic to the
    // authoritative server, and the scan still drained to completion.
    assert!(faulted.net_stats().blackhole_drops > 0, "window never hit");
    assert!(faulted.dataset().probe_stats.done, "scan did not drain");
    assert!(!faulted.is_partial(), "a fault window is not a shard loss");

    // Recursers probed during the window degrade to ServFail, but
    // their answers arrive only after their upstream timeout — past the
    // prober's patience — so without retries the outage shows up as
    // suppressed R2, extra abandonment, and late unmatched responses.
    assert!(
        faulted.dataset().r2() < clean.dataset().r2(),
        "blackhole did not suppress R2"
    );
    assert!(
        faulted.dataset().probe_stats.probes_abandoned
            > clean.dataset().probe_stats.probes_abandoned,
        "blackhole did not elevate abandonment"
    );
    assert!(
        faulted.dataset().probe_stats.unmatched > 0,
        "late ServFails should arrive unmatched"
    );

    // With a retry budget the prober re-probes past the window: R2
    // recovers, and the window becomes visible as elevated ServFail
    // (the in-window retries now live long enough to catch the
    // recursers' failure answers).
    let recovered = run(1, true, 3);
    assert!(recovered.dataset().probe_stats.retransmits_sent > 0);
    assert!(
        recovered.dataset().r2() > faulted.dataset().r2(),
        "retries did not recover responses"
    );
    assert!(
        servfails(&recovered) > servfails(&clean),
        "blackhole did not elevate ServFail: {} vs {}",
        servfails(&recovered),
        servfails(&clean)
    );

    // The fault schedule is part of the campaign seed: every shard
    // layout must see the identical impairments and produce the
    // identical tables.
    let baseline = faulted.tables_json();
    for shards in [2, 4] {
        let sharded = run(shards, true, 0);
        assert_eq!(
            sharded.tables_json(),
            baseline,
            "faulted tables diverged at {shards} shards"
        );
        assert_eq!(
            sharded.net_stats().blackhole_drops,
            faulted.net_stats().blackhole_drops,
            "blackhole drops diverged at {shards} shards"
        );
    }
}

#[test]
fn retransmissions_recover_lost_probes() {
    let run = |retries: u32| {
        let config = base_config().with_loss(0.3).with_retries(retries);
        Campaign::new(config).run().unwrap()
    };
    let fragile = run(0);
    let resilient = run(3);

    let stats = resilient.dataset().probe_stats;
    assert!(stats.retransmits_sent > 0, "no retransmissions under loss");
    assert_eq!(fragile.dataset().probe_stats.retransmits_sent, 0);
    assert!(
        resilient.dataset().r2() > fragile.dataset().r2(),
        "retries did not recover responses: {} vs {}",
        resilient.dataset().r2(),
        fragile.dataset().r2()
    );
    assert!(
        stats.probes_abandoned < fragile.dataset().probe_stats.probes_abandoned,
        "retries did not reduce abandonment"
    );
    // Retransmissions are bookkept separately: Q1 stays the planned
    // count in both runs.
    assert_eq!(fragile.dataset().q1, resilient.dataset().q1);
}

#[test]
fn supervised_retry_is_invisible_in_the_result() {
    let clean = Campaign::new(base_config().with_shards(2)).run().unwrap();
    let sabotaged = Campaign::new(base_config().with_shards(2).with_sabotage(ShardSabotage {
        shard: 1,
        failures: 1,
    }))
    .run()
    .unwrap();

    // The supervisor reran the shard with its original seed, so the
    // merged tables are byte-identical to the undisturbed run; only the
    // degraded report records that anything happened.
    assert_eq!(sabotaged.tables_json(), clean.tables_json());
    assert_eq!(sabotaged.dataset().r2(), clean.dataset().r2());
    let degraded = sabotaged.degraded().expect("retry must be reported");
    assert_eq!(degraded.retried, vec![1]);
    assert!(degraded.failed.is_empty());
    assert!(!sabotaged.is_partial());
}

#[test]
fn permanent_shard_loss_yields_a_partial_result() {
    let result = Campaign::new(base_config().with_shards(4).with_sabotage(ShardSabotage {
        shard: 2,
        failures: 2,
    }))
    .run()
    .unwrap();
    assert!(result.is_partial());
    let degraded = result.degraded().expect("loss must be reported");
    assert_eq!(degraded.failed.len(), 1);
    assert_eq!(degraded.failed[0].shard, 2);

    // A single shard sabotaged past the retry budget still errors out
    // rather than fabricating an empty result.
    let err = Campaign::new(base_config().with_sabotage(ShardSabotage {
        shard: 0,
        failures: 2,
    }))
    .run()
    .unwrap_err();
    assert!(matches!(err, CampaignError::AllShardsFailed(_)));
}
