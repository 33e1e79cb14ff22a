//! The byte-identity currency, checked by tier-1: FNV-1a-64 of what the
//! benchmark's four workloads render at its smoke sizes, seed 7. The
//! values are what `bash orbench/run.sh --smoke --seconds 0 --seed 7`
//! prints as `report_fnv64` / `tables_fnv64`, and the configurations are
//! built the way `orbench/src/workload.rs` builds them. A change that
//! must not move report bytes leaves this file alone; one that moves
//! them on purpose re-pins it and says why.

use orscope_core::integrity::digest as fnv1a64;
use orscope_core::{Campaign, CampaignConfig};
use orscope_observe::{Observatory, ServeConfig};
use orscope_resolver::paper::Year;

const SEED: u64 = 7;

fn report_fnv64(config: CampaignConfig) -> String {
    let result = Campaign::new(config.with_seed(SEED)).run().unwrap();
    format!("{:016x}", fnv1a64(result.render().as_bytes()))
}

#[test]
fn scan_dense_report_is_pinned_at_one_and_two_shards() {
    for shards in [1, 2] {
        let config = CampaignConfig::new(Year::Y2018, 2_000.0).with_shards(shards);
        assert_eq!(report_fnv64(config), "4313daeb45add58a", "{shards} shards");
    }
}

#[test]
fn scan_sparse_report_is_pinned() {
    let config = CampaignConfig::new(Year::Y2018, 60_000.0).with_full_q1();
    assert_eq!(report_fnv64(config), "145c3be8efb40589");
}

#[test]
fn serve_epochs_tables_are_pinned() {
    let state_dir = std::env::temp_dir().join(format!("orscope-checksums-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let mut config = ServeConfig::new(Year::Y2018, 20_000.0);
    config.seed = SEED;
    config.epochs = Some(20);
    config.checkpoint_every = 5;
    config.keep_generations = 3;
    config.state_dir = state_dir.clone();
    let mut observatory = Observatory::new(config).unwrap();
    let report = observatory.run().unwrap();
    assert_eq!((report.epochs_completed, report.epochs_degraded), (20, 0));
    let tables = observatory.shared().tables_bytes();
    std::fs::remove_dir_all(&state_dir).unwrap();
    assert_eq!(format!("{:016x}", fnv1a64(&tables)), "fd709e8c1b4b3fd6");
}

fn telemetry_fnv64(config: CampaignConfig) -> String {
    let result = Campaign::new(config.with_seed(SEED)).run().unwrap();
    let jsonl = result.telemetry().unwrap().to_jsonl();
    assert_eq!(jsonl.lines().count(), 34);
    format!("{:016x}", fnv1a64(jsonl.as_bytes()))
}

/// The telemetry export is report bytes too: every global metric of a
/// fault-free run, a lossy one (any fault rule pins materialized hosts,
/// so their books are read at the end of the run instead of at release)
/// and one with eager upstreams behind forwarders.
#[test]
fn telemetry_jsonl_is_pinned() {
    let dense = || CampaignConfig::new(Year::Y2018, 2_000.0);
    for shards in [1, 2, 3] {
        assert_eq!(
            telemetry_fnv64(dense().with_shards(shards)),
            "076e86b53cdfc974",
            "{shards} shards"
        );
    }
    let sparse = CampaignConfig::new(Year::Y2018, 60_000.0).with_full_q1();
    assert_eq!(telemetry_fnv64(sparse), "8d5e9bd4f426c1ea");
    for shards in [1, 2] {
        let lossy = dense()
            .with_loss(0.1)
            .with_duplication(0.05)
            .with_retries(2)
            .with_shards(shards);
        assert_eq!(
            telemetry_fnv64(lossy),
            "42a511b4b60fae38",
            "{shards} shards"
        );
    }
    let forwarders = dense()
        .with_forwarder_fraction(0.3)
        .with_off_port_responders(50);
    assert_eq!(telemetry_fnv64(forwarders), "014978b49162d32d");
}

/// Shard-scope metrics never reach the JSONL export; one shard's are
/// pinned here.
#[test]
fn shard_scope_telemetry_is_pinned() {
    let config = CampaignConfig::new(Year::Y2018, 2_000.0).with_seed(SEED);
    let result = Campaign::new(config).run().unwrap();
    let snapshot = result.telemetry().unwrap();
    for (name, value) in [
        ("prober.pacer_ticks", 9_858),
        ("net.events_processed", 39_044),
        ("net.timers_fired", 13_986),
    ] {
        assert_eq!(snapshot.counters[name].value, value, "{name}");
    }
    assert_eq!(snapshot.gauges["net.event_queue_depth_hwm"].value, 93);
}
