//! Determinism regression: the whole pipeline is a pure function of its
//! configuration. The same seed must reproduce the report byte for
//! byte; a different seed must not.

use orscope_core::{Campaign, CampaignConfig};
use orscope_json::Wire;
use orscope_resolver::paper::Year;

fn report_json(seed: u64, shards: usize) -> String {
    let config = CampaignConfig::new(Year::Y2018, 20_000.0)
        .with_seed(seed)
        .with_shards(shards);
    Campaign::new(config).run().unwrap().to_json().encode()
}

#[test]
fn same_seed_reproduces_the_report_byte_for_byte() {
    assert_eq!(report_json(7, 1), report_json(7, 1));
}

#[test]
fn same_seed_reproduces_the_sharded_report_byte_for_byte() {
    assert_eq!(report_json(7, 4), report_json(7, 4));
}

#[test]
fn different_seeds_produce_different_reports() {
    // Strip the echoed seed field first, so the assertion is about the
    // measurement actually changing, not the config being echoed back.
    // On a lossless network the report's counts are the calibrated
    // population's and no seed moves them (only addresses and latencies
    // in the text rendering change); under loss the seed decides which
    // datagrams drop, and that reaches every table.
    let strip = |seed: u64| {
        let config = CampaignConfig::new(Year::Y2018, 20_000.0)
            .with_seed(seed)
            .with_loss(0.05);
        let Wire::Obj(mut members) = Campaign::new(config).run().unwrap().to_json() else {
            panic!("report object");
        };
        members.retain(|(key, _)| key != "seed");
        Wire::Obj(members).encode()
    };
    assert_ne!(strip(7), strip(8));
}
