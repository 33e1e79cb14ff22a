//! A pacing tick that runs inside the dispatch of the tick before it is
//! unobservable at the campaign level. Any fault rule turns running
//! ahead off, so the same campaign plus a rule that can never fire — a
//! blackhole window that opens long after the scan has ended — ticks
//! one dispatch at a time; both must produce the same tables and the
//! same simulator and prober books.

use std::time::Duration;

use orscope_core::{Campaign, CampaignConfig};
use orscope_netsim::{FaultKind, FaultPlan, FaultRule, FaultScope};
use orscope_resolver::paper::Year;

/// A window that opens some four months of virtual time in: after any
/// scan at these scales has drained.
fn inert() -> FaultPlan {
    let opens = Duration::from_secs(10_000_000);
    FaultPlan::new().with_rule(FaultRule::window(
        opens,
        opens + Duration::from_secs(1),
        FaultScope::All,
        FaultKind::Blackhole,
    ))
}

/// The fast-mode and full-Q1 shapes at test scale.
fn shapes() -> [CampaignConfig; 2] {
    [
        CampaignConfig::new(Year::Y2018, 2_000.0),
        CampaignConfig::new(Year::Y2018, 60_000.0).with_full_q1(),
    ]
}

#[test]
fn an_inert_fault_rule_changes_no_byte_and_no_count() {
    for config in shapes() {
        for shards in [1, 2] {
            let run = |faults: FaultPlan| {
                let config = config.clone().with_shards(shards).with_faults(faults);
                Campaign::new(config).run().expect("campaign runs")
            };
            let (ahead, ticked) = (run(FaultPlan::new()), run(inert()));
            let shape = format!("scale {} at {shards} shard(s)", config.scale);
            assert_eq!(ahead.render(), ticked.render(), "{shape}: tables");
            assert_eq!(ahead.net_stats(), ticked.net_stats(), "{shape}: NetStats");
            assert_eq!(
                ahead.dataset().probe_stats,
                ticked.dataset().probe_stats,
                "{shape}: ProbeStats"
            );
            assert!(ahead.dataset().probe_stats.pacer_ticks > 0);
        }
    }
}
