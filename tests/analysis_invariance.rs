//! The analysis-mode knob must be unobservable: streaming analysis
//! (records classified at capture time, payloads dropped immediately,
//! shard accumulators merged order-insensitively) and batch analysis
//! (every capture buffered, tables derived after the drain) must render
//! byte-identical reports at every shard count and under fault
//! injection. Batch is the oracle; this test pins streaming to it.

use orscope_core::{AnalysisMode, Campaign, CampaignConfig};
use orscope_resolver::paper::Year;

/// Serialized table reports: the byte-level comparison surface (wall
/// clock is excluded; it is never mode- or shard-invariant).
#[test]
fn reports_are_byte_identical_across_analysis_modes_and_shards() {
    let run = |analysis: AnalysisMode, shards: usize| {
        let config = CampaignConfig::new(Year::Y2018, 20_000.0)
            .with_shards(shards)
            .with_analysis(analysis);
        Campaign::new(config).run().unwrap()
    };
    let baseline = run(AnalysisMode::Batch, 1);
    let baseline_tables = baseline.tables_json();
    let baseline_render = baseline.render();
    for analysis in [AnalysisMode::Streaming, AnalysisMode::Batch] {
        for shards in [1, 2, 4] {
            let result = run(analysis, shards);
            assert_eq!(
                result.dataset().r2(),
                baseline.dataset().r2(),
                "R2 diverged: {analysis} x {shards} shards"
            );
            assert_eq!(
                result.tables_json(),
                baseline_tables,
                "table reports diverged: {analysis} x {shards} shards"
            );
            assert_eq!(
                result.render(),
                baseline_render,
                "rendered report diverged: {analysis} x {shards} shards"
            );
        }
    }
}

#[test]
fn failure_injection_is_analysis_mode_invariant() {
    // Loss and duplication reshape the capture stream (retries, dropped
    // R2s, duplicate deliveries); the streaming fold must classify that
    // stream exactly as the batch pass over the buffered dataset does.
    let run = |analysis: AnalysisMode| {
        let config = CampaignConfig::new(Year::Y2018, 40_000.0)
            .with_analysis(analysis)
            .with_loss(0.1)
            .with_duplication(0.05);
        Campaign::new(config).run().unwrap()
    };
    let streaming = run(AnalysisMode::Streaming);
    let batch = run(AnalysisMode::Batch);
    assert_eq!(streaming.tables_json(), batch.tables_json());
    assert_eq!(streaming.render(), batch.render());
}

#[test]
fn streaming_mode_retains_no_buffered_captures() {
    // The bounded-memory contract at the API surface: a streaming run
    // carries counters and accumulator state, not per-packet records.
    let config = CampaignConfig::new(Year::Y2018, 20_000.0);
    assert_eq!(
        config.analysis,
        AnalysisMode::Streaming,
        "streaming is the default"
    );
    let result = Campaign::new(config).run().unwrap();
    assert!(
        result.dataset().records.is_empty(),
        "streaming must not buffer classified records"
    );
    assert!(
        result.dataset().raw.is_empty(),
        "streaming must not retain raw payloads unless asked"
    );
    assert!(result.dataset().r2() > 0, "counters still populated");
}
