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
