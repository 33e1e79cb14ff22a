//! The whole benchmark at test sizes: every workload's timed and traced
//! path runs, every named metric comes out finite, every correctness
//! check passes, and the names agree with `BENCHMARK.json`. The
//! full-size run stays out of the test suite.

use std::collections::BTreeSet;
use std::process::Command;

use orbench::report::{self, Outcome};
use orbench::workload::{Params, Workload};
use orbench::{cli, cold, traced};
use serde_json::Value;

const SEED: u64 = 0xD5A1_2019;

fn benchmark_json() -> Value {
    let path = orbench::aa::find_benchmark_json().expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn names(section: &Value) -> BTreeSet<String> {
    section
        .as_array()
        .unwrap()
        .iter()
        .map(|entry| entry["name"].as_str().unwrap().to_owned())
        .collect()
}

fn timed(workload: Workload) -> Outcome {
    let args = cli::parse(&["--smoke".to_owned(), "--seconds".to_owned(), "0".to_owned()]).unwrap();
    cold::run(
        std::path::Path::new(env!("CARGO_BIN_EXE_orbench")),
        workload,
        &args,
    )
    .unwrap()
}

fn note<'a>(outcome: &'a Outcome, key: &str) -> &'a str {
    &outcome
        .notes
        .iter()
        .find(|(name, _)| *name == key)
        .unwrap_or_else(|| panic!("no note `{key}`"))
        .1
}

#[test]
fn timed_runs_emit_every_end_to_end_metric_and_pass_every_check() {
    let expected = names(&benchmark_json()["end_to_end"]);
    let mut fnv = Vec::new();
    for workload in Workload::ALL {
        let outcome = timed(workload);
        assert!(
            outcome.correct(),
            "{}: {} of {} failed",
            workload.name(),
            outcome.failed,
            outcome.attempted
        );
        assert!(
            outcome.attempted >= Params::smoke().min_children as u64,
            "{}: every child was checked",
            workload.name()
        );
        let emitted: BTreeSet<String> = outcome
            .metrics
            .iter()
            .map(|metric| metric.name.to_owned())
            .collect();
        assert_eq!(emitted, expected, "{}", workload.name());
        for metric in &outcome.metrics {
            assert!(
                metric.value.is_finite() && metric.value > 0.0,
                "{} {} = {}",
                workload.name(),
                metric.name,
                metric.value
            );
        }
        if workload != Workload::ServeEpochs {
            fnv.push(note(&outcome, "report_fnv64").to_owned());
        }
    }
    // The house shard-invariance, across workloads: same seed, same bytes.
    assert_eq!(
        fnv[0], fnv[1],
        "scan-dense and scan-dense-2sh render the same report"
    );
    assert_ne!(fnv[0], fnv[2], "scan-sparse is a different campaign");
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    let expected = names(&benchmark_json()["per_layer"]);
    for workload in Workload::ALL {
        let run = traced::run(workload, &Params::smoke(), SEED, None);
        assert!(run.outcome.correct(), "{}", workload.name());
        let emitted: BTreeSet<String> = run
            .outcome
            .metrics
            .iter()
            .map(|metric| metric.name.to_owned())
            .collect();
        assert_eq!(emitted, expected, "{}", workload.name());
        for metric in &run.outcome.metrics {
            assert!(
                metric.value.is_finite(),
                "{} {} = {}",
                workload.name(),
                metric.name,
                metric.value
            );
        }
        let served = run.outcome.metric("observe.http_requests").unwrap();
        assert_eq!(
            served > 0.0,
            workload == Workload::ServeEpochs,
            "only the serve workload serves"
        );
        assert!(run.outcome.metric("core.probe_s").unwrap() > 0.0);

        // The document holds the spans, each inside its parent.
        let spans = run.document["spans"].as_array().unwrap();
        assert!(spans.len() > 20, "{} spans", spans.len());
        for span in spans {
            let (start, end) = (
                span["start_ns"].as_u64().unwrap(),
                span["end_ns"].as_u64().unwrap(),
            );
            assert!(start <= end);
            if let Some(parent) = span["parent"].as_u64() {
                assert!(
                    parent < span["id"].as_u64().unwrap(),
                    "a parent opens before its child"
                );
            }
        }
        assert_eq!(run.document["workload"], serde_json::json!(workload.name()));
    }
}

/// The shipped entry point, end to end: `orbench --smoke` as a child
/// process, in both modes (the traced one hands over to the sibling
/// `orbench-trace` binary).
#[test]
fn the_binaries_print_a_contract_result_line() {
    let benchmark = benchmark_json();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = Command::new(env!("CARGO_BIN_EXE_orbench"))
            .args([
                "--smoke",
                "--workload",
                "scan-dense",
                "--seed",
                "3",
                "--seconds",
                "0",
                "--trace",
                trace,
            ])
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(
            stdout.contains("host: {") && stdout.contains("host_cpus"),
            "every output is stamped"
        );
        let (correct, readings) =
            report::parse_result_line(stdout.lines().last().unwrap()).unwrap();
        assert!(correct);
        let emitted: BTreeSet<String> = readings.into_iter().map(|(name, _)| name).collect();
        assert_eq!(emitted, names(&benchmark[section]), "--trace {trace}");
    }
    // The sibling must exist where `orbench --trace 1` looks for it.
    assert!(std::path::Path::new(env!("CARGO_BIN_EXE_orbench-trace")).is_file());
}

#[test]
fn mistakes_exit_nonzero_without_a_result_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_orbench"))
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown workload"));
}
