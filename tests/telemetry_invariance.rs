//! Telemetry must be an observer, not a participant: its global-scope
//! export has to be byte-identical for every shard count.

use orscope_core::{Campaign, CampaignConfig};
use orscope_observe::{EpochSabotage, Observatory, ServeConfig};
use orscope_resolver::paper::Year;

fn run(shards: usize) -> orscope_core::CampaignResult {
    let config = CampaignConfig::new(Year::Y2018, 20_000.0).with_shards(shards);
    Campaign::new(config).run().unwrap()
}

#[test]
fn jsonl_export_is_byte_identical_across_shard_counts() {
    let single = run(1);
    let baseline = single
        .telemetry()
        .expect("every campaign carries telemetry")
        .to_jsonl();
    assert!(!baseline.is_empty(), "telemetry export is empty");
    // Sanity: the export actually carries the hot-path counters.
    for name in [
        "net.datagrams_sent",
        "prober.probes_sent",
        "prober.q1_r2_latency_ns",
        "resolver.client_queries",
        "auth.queries",
    ] {
        assert!(baseline.contains(name), "export lacks {name}:\n{baseline}");
    }
    for shards in [4, 8] {
        let sharded = run(shards);
        let export = sharded
            .telemetry()
            .expect("every campaign carries telemetry")
            .to_jsonl();
        assert_eq!(
            export, baseline,
            "telemetry JSONL diverged at {shards} shards"
        );
    }
}

#[test]
fn counters_agree_with_the_simulator_stats() {
    let result = run(4);
    let snapshot = result
        .telemetry()
        .expect("every campaign carries telemetry");
    let stats = result.net_stats();
    assert_eq!(snapshot.counters["net.datagrams_sent"].value, stats.sent);
    assert_eq!(snapshot.counters["net.datagrams_lost"].value, stats.lost);
    assert_eq!(
        snapshot.counters["net.datagrams_delivered"].value,
        stats.delivered
    );
    // Every planned probe was recorded by the prober's own counter.
    assert_eq!(
        snapshot.counters["prober.probes_sent"].value,
        result.dataset().q1
    );
    // The authoritative server saw exactly the Q2 queries.
    assert_eq!(snapshot.counters["auth.queries"].value, result.dataset().q2);
    // Every captured R2 contributed one latency sample.
    assert_eq!(
        snapshot.histograms["prober.q1_r2_latency_ns"].value.count,
        result.dataset().r2()
    );
    // Each answered query is tallied under one question type and one
    // rcode.
    let sum = |prefix: &str| -> u64 {
        let series = snapshot.counters.iter();
        series
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, metric)| metric.value)
            .sum()
    };
    let queries = snapshot.counters["auth.queries"].value;
    assert_eq!(sum("auth.qtype_"), queries);
    assert_eq!(sum("auth.rcode_"), queries);
    assert!(snapshot.histograms["resolver.recursion_depth"].value.count > 0);
    assert!(
        snapshot.counters["resolver.responses_sent"].value
            >= snapshot.counters["prober.r2_captured"].value
    );
    // All four campaign phases were spanned.
    for phase in [
        "phase.population_build",
        "phase.probe",
        "phase.capture_drain",
        "phase.analyze",
    ] {
        assert!(snapshot.spans.contains_key(phase), "missing span {phase}");
    }
    // Sharded runs record one probe span per shard, absorbed by max.
    assert_eq!(snapshot.spans["phase.probe"].count, 4);
}

#[test]
fn observatory_failure_counters_are_shard_invariant() {
    // The unattended-operation counters (degraded epochs, retries,
    // rollbacks) describe the campaign, not the shard layout — a
    // sabotaged epoch must surface identically on /metrics whether the
    // run used one shard or two.
    let run = |label: &str, shards: usize| {
        let mut config = ServeConfig::new(Year::Y2018, 60_000.0);
        config.seed = 0x7E1E_2019;
        config.shards = shards;
        config.epochs = Some(3);
        config.sabotage = Some(EpochSabotage {
            epoch: 1,
            failures: 2, // first attempt and its retry both fail
        });
        config.state_dir =
            std::env::temp_dir().join(format!("orscope-telemetry-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&config.state_dir);
        let state_dir = config.state_dir.clone();
        let mut observatory = Observatory::new(config).unwrap();
        let shared = observatory.shared();
        let report = observatory.run().unwrap();
        assert_eq!(report.epochs_degraded, 1, "{label}");
        let metrics = String::from_utf8(shared.metrics_bytes()).unwrap();
        std::fs::remove_dir_all(&state_dir).unwrap();
        metrics
    };
    let scrape = |metrics: &str, name: &str| -> String {
        metrics
            .lines()
            .filter(|line| line.starts_with(name))
            .collect::<Vec<_>>()
            .join("\n")
    };

    let one = run("shards1", 1);
    let two = run("shards2", 2);
    for counter in [
        "orscope_observe_epochs_degraded",
        "orscope_observe_epoch_retries",
        "orscope_observe_checkpoint_rollbacks",
        "orscope_observe_http_rejected_conns",
        "orscope_observe_http_timeouts",
    ] {
        let baseline = scrape(&one, counter);
        assert!(!baseline.is_empty(), "{counter} missing from /metrics");
        assert_eq!(
            baseline,
            scrape(&two, counter),
            "{counter} diverged across shard counts"
        );
    }
    // The sabotaged epoch shows up with the exact expected magnitude.
    assert!(
        scrape(&one, "orscope_observe_epochs_degraded").ends_with(" 1"),
        "exactly one degraded epoch:\n{one}"
    );
    assert!(
        scrape(&one, "orscope_observe_epoch_retries").ends_with(" 1"),
        "exactly one identical-seed retry:\n{one}"
    );
}
