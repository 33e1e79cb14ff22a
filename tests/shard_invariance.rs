//! The tentpole guarantee of sharded execution: partitioning the
//! campaign across N independent shards is an implementation detail.
//! For a fixed seed, every shard count must produce the same merged
//! dataset — byte-identical Tables II-X — because no datagram ever
//! crosses a shard boundary and every shard derives its inputs from the
//! master seed.

use orscope_core::{Campaign, CampaignConfig};
use orscope_resolver::paper::Year;

/// Serialized table reports (Tables II-X plus the section extras):
/// the byte-level comparison surface. Wall-clock duration is *not*
/// shard-invariant (shards run concurrently), so the comparison covers
/// the tables rather than the full report envelope.
#[test]
fn tables_are_byte_identical_across_shard_counts() {
    let run = |shards: usize| {
        let config = CampaignConfig::new(Year::Y2018, 20_000.0).with_shards(shards);
        Campaign::new(config).run().unwrap()
    };
    let single = run(1);
    let baseline = single.tables_json();
    for shards in [4, 8] {
        let sharded = run(shards);
        assert_eq!(
            sharded.dataset().q1,
            single.dataset().q1,
            "Q1 diverged at {shards} shards"
        );
        assert_eq!(
            sharded.dataset().q2,
            single.dataset().q2,
            "Q2 diverged at {shards} shards"
        );
        assert_eq!(
            sharded.dataset().r1,
            single.dataset().r1,
            "R1 diverged at {shards} shards"
        );
        assert_eq!(
            sharded.dataset().r2(),
            single.dataset().r2(),
            "R2 diverged at {shards} shards"
        );
        assert_eq!(
            sharded.tables_json(),
            baseline,
            "table reports diverged at {shards} shards"
        );
    }
}

#[test]
fn invariance_holds_with_forwarders_and_off_port_responders() {
    // The hardest partitioning case: forwarders must be co-located with
    // their shared upstreams, and off-port responders must stay invisible
    // regardless of which shard absorbs them.
    let run = |shards: usize| {
        let config = CampaignConfig::new(Year::Y2018, 20_000.0)
            .with_shards(shards)
            .with_forwarder_fraction(0.3)
            .with_off_port_responders(15);
        Campaign::new(config).run().unwrap()
    };
    let single = run(1);
    let baseline = single.tables_json();
    for shards in [4, 8] {
        let sharded = run(shards);
        assert_eq!(
            sharded.tables_json(),
            baseline,
            "table reports diverged at {shards} shards with forwarders"
        );
        assert_eq!(sharded.dataset().off_port_dropped, 15);
    }
}

#[test]
fn invariance_holds_for_the_2013_scan() {
    let run = |shards: usize| {
        let config = CampaignConfig::new(Year::Y2013, 20_000.0).with_shards(shards);
        Campaign::new(config).run().unwrap()
    };
    let baseline = run(1).tables_json();
    assert_eq!(run(4).tables_json(), baseline);
}

#[test]
fn sharding_does_not_change_the_seed_sensitivity() {
    // Different seeds must still produce different populations when
    // sharded — sharding must not accidentally pin the campaign to a
    // layout independent of the seed.
    let run = |seed: u64| {
        let config = CampaignConfig::new(Year::Y2018, 20_000.0)
            .with_seed(seed)
            .with_shards(4)
            .with_analysis(orscope_core::AnalysisMode::Batch);
        Campaign::new(config).run().unwrap()
    };
    let a = run(1);
    let b = run(2);
    // Aggregate R2 is scale-pinned, but the capture layout (which
    // address answered which qname) must differ between seeds. Batch
    // mode keeps the classified records around to compare.
    let layout = |r: &orscope_core::CampaignResult| -> Vec<(String, std::net::Ipv4Addr)> {
        r.dataset()
            .records
            .iter()
            .map(|c| (c.qname.to_string(), c.resolver))
            .collect()
    };
    assert_ne!(layout(&a), layout(&b), "seed had no effect on the layout");
}
