//! `orbench aa`: the A/A check. Runs the whole benchmark several times
//! on one build, as two (or more) sets, and shows per workload × metric
//! whether the sets agree within the metric's own bound — the evidence
//! that a later before/after comparison can resolve anything at all.
//!
//! The arithmetic is the acceptance check's: a set's *spread* is the
//! interquartile range of its runs (Python's `statistics.quantiles`,
//! `n=4`) as a share of their median and must stay within the bound
//! (`setup_s` exempt); the *gap* between two sets' medians must too.
//!
//! The timed run's ungated times ([`UNGATED`]) are judged the same way
//! against [`UNGATED_BOUND`], the widest bound ISSUE 12 allows a gated
//! metric, and reported as `resolved` or `UNRESOLVED`: the record of
//! why they are not end-to-end metrics.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

use crate::cli;
use crate::report;
use crate::stats;
use crate::workload::Workload;

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a higher reading is the better one.
    pub higher_is_better: bool,
    /// The share of the median by which it may worsen.
    pub bound: f64,
}

/// `BENCHMARK.json`: in the working directory (the repository root, as
/// the benchmark is run), else beside this package.
pub fn find_benchmark_json() -> Option<PathBuf> {
    [
        PathBuf::from("BENCHMARK.json"),
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    ]
    .into_iter()
    .find(|path| path.is_file())
}

/// The end-to-end metrics and their bounds out of `BENCHMARK.json` text.
///
/// # Errors
///
/// Returns what is missing or malformed.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let document: Value = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = document["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json lacks `end_to_end`")?;
    entries
        .iter()
        .map(|entry| {
            let name = entry["name"]
                .as_str()
                .ok_or("end_to_end entry lacks `name`")?;
            let better = entry["better"]
                .as_str()
                .ok_or("end_to_end entry lacks `better`")?;
            let bound = entry["bound"]
                .as_f64()
                .ok_or("end_to_end entry lacks `bound`")?;
            Ok(Bound {
                name: name.to_owned(),
                higher_is_better: better == "higher",
                bound,
            })
        })
        .collect()
}

/// Times a timed run prints as notes without gating them, with whether
/// higher is better.
pub const UNGATED: [(&str, bool); 3] = [
    ("op_wall_s", false),
    ("op_cpu_s", false),
    ("op_events_per_s", true),
];

/// The bound the ungated times are held against.
pub const UNGATED_BOUND: f64 = 0.10;

/// Readings of one metric on one workload: `sets[set][run]`.
type Readings = Vec<Vec<f64>>;

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// One row of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The workload.
    pub workload: &'static str,
    /// The metric.
    pub metric: String,
    /// Median of each set.
    pub medians: Vec<f64>,
    /// IQR / median of each set (empty with fewer than two runs).
    pub spreads: Vec<f64>,
    /// Every reading: `readings[set][run]`.
    pub readings: Vec<Vec<f64>>,
    /// Largest worsening between any ordered pair of set medians.
    pub gap: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Whether `BENCHMARK.json` gates the metric.
    pub gated: bool,
    /// Whether gap and spreads are within the bound.
    pub pass: bool,
}

/// Judges one workload × metric.
pub fn judge(workload: &'static str, bound: &Bound, readings: &Readings) -> Verdict {
    let medians: Vec<f64> = readings.iter().map(|set| stats::median(set)).collect();
    let spreads: Vec<f64> = readings
        .iter()
        .filter(|set| set.len() >= 2)
        .map(|set| stats::iqr_share(set))
        .collect();
    let mut gap = 0.0f64;
    for (i, &a) in medians.iter().enumerate() {
        for (j, &b) in medians.iter().enumerate() {
            if i != j {
                gap = gap.max(worsening(a, b, bound.higher_is_better));
            }
        }
    }
    // Set-up time is exempt from the spread rule, not from the gap rule.
    let spreads_ok = bound.name == "setup_s" || spreads.iter().all(|&spread| spread <= bound.bound);
    Verdict {
        workload,
        metric: bound.name.clone(),
        medians,
        spreads,
        readings: readings.clone(),
        gap,
        bound: bound.bound,
        gated: true,
        pass: gap <= bound.bound && spreads_ok,
    }
}

/// Options of one A/A session.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Sets of runs to compare.
    pub sets: usize,
    /// Runs per set and workload (run `k` uses seed `k + 1` in every set).
    pub runs: usize,
    /// `--seconds` handed to every run.
    pub seconds: f64,
    /// Shrunk sizes (for trying the harness itself).
    pub smoke: bool,
}

/// Runs one workload in a child process and returns its readings.
fn run_child(
    workload: Workload,
    seed: u64,
    options: &Options,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let args = cli::Args {
        workload: Some(workload),
        seed,
        seconds: options.seconds,
        trace: false,
        smoke: options.smoke,
        cold: false,
        reference: None,
    };
    let mut command = Command::new(exe);
    command.args(args.to_flags());
    let output = command
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed nothing", workload.name()))?;
    let (correct, mut readings) = report::parse_result_line(line)?;
    if !correct {
        return Err(format!(
            "{} seed {seed}: a correctness check failed",
            workload.name()
        ));
    }
    // The ungated times are notes: `<workload>: <name> = <value>`.
    for (name, _) in UNGATED {
        let prefix = format!("{}: {name} = ", workload.name());
        let value = stdout
            .lines()
            .find_map(|line| line.strip_prefix(prefix.as_str())?.parse().ok())
            .ok_or_else(|| format!("{} did not print `{name}`", workload.name()))?;
        readings.push((name.to_owned(), value));
    }
    Ok(readings)
}

/// Runs the session and returns the verdicts, printing progress to
/// standard error. Within a set the workloads alternate, so slow drift
/// of the host lands on all of them alike.
///
/// # Errors
///
/// Fails when a run fails, reports `correct: false`, or omits a metric.
pub fn run(options: &Options, bounds: &[Bound]) -> Result<Vec<Verdict>, String> {
    /// One child run: which set, which workload, what it reported.
    struct Sample {
        set: usize,
        workload: Workload,
        values: Vec<(String, f64)>,
    }
    let mut samples: Vec<Sample> = Vec::new();
    for set in 0..options.sets {
        for run in 0..options.runs {
            for workload in Workload::ALL {
                let seed = run as u64 + 1;
                eprintln!(
                    "aa: set {} run {} {} (seed {seed})",
                    set + 1,
                    run + 1,
                    workload.name()
                );
                let values = run_child(workload, seed, options)?;
                samples.push(Sample {
                    set,
                    workload,
                    values,
                });
            }
        }
    }
    let ungated = UNGATED.map(|(name, higher_is_better)| Bound {
        name: name.to_owned(),
        higher_is_better,
        bound: UNGATED_BOUND,
    });
    let mut verdicts = Vec::new();
    for workload in Workload::ALL {
        for (bound, gated) in bounds
            .iter()
            .map(|bound| (bound, true))
            .chain(ungated.iter().map(|bound| (bound, false)))
        {
            let reading = |values: &[(String, f64)]| {
                values
                    .iter()
                    .find(|(name, _)| *name == bound.name)
                    .map(|(_, value)| *value)
                    .ok_or_else(|| format!("{} did not report `{}`", workload.name(), bound.name))
            };
            let readings = (0..options.sets)
                .map(|set| {
                    samples
                        .iter()
                        .filter(|sample| sample.set == set && sample.workload == workload)
                        .map(|sample| reading(&sample.values))
                        .collect::<Result<Vec<f64>, String>>()
                })
                .collect::<Result<Readings, String>>()?;
            verdicts.push(Verdict {
                gated,
                ..judge(workload.name(), bound, &readings)
            });
        }
    }
    Ok(verdicts)
}

/// The verdicts as a Markdown table, then every reading behind them.
pub fn render(verdicts: &[Verdict]) -> String {
    let mut out = String::from("| workload | metric | set medians | gap | set spreads (IQR/median) | bound | verdict |\n|---|---|---|---|---|---|---|\n");
    let join = |values: &[f64], format: &dyn Fn(f64) -> String| {
        values
            .iter()
            .map(|&v| format(v))
            .collect::<Vec<_>>()
            .join(" / ")
    };
    for verdict in verdicts {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.2} % | {} | {:.0} % | {} |",
            verdict.workload,
            verdict.metric,
            join(&verdict.medians, &|v| format!("{v:.6}")),
            verdict.gap * 100.0,
            join(&verdict.spreads, &|v| format!("{:.2} %", v * 100.0)),
            verdict.bound * 100.0,
            match (verdict.gated, verdict.pass) {
                (true, true) => "PASS",
                (true, false) => "FAIL",
                (false, true) => "resolved (not gated)",
                (false, false) => "UNRESOLVED (not gated)",
            },
        );
    }
    out.push_str(
        "\nEvery reading (one line per workload, metric and set; run k used seed k):\n\n```text\n",
    );
    for verdict in verdicts {
        for (set, readings) in verdict.readings.iter().enumerate() {
            let _ = writeln!(
                out,
                "{} {} set {}: {}",
                verdict.workload,
                verdict.metric,
                set + 1,
                join(readings, &|v| format!("{v:.5}")).replace(" / ", " ")
            );
        }
    }
    out.push_str("```\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, higher: bool, bound: f64) -> Bound {
        Bound {
            name: name.to_owned(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn bounds_come_out_of_the_committed_benchmark_json() {
        let path = find_benchmark_json().expect("BENCHMARK.json sits at the repository root");
        let bounds = parse_bounds(&std::fs::read_to_string(path).unwrap()).unwrap();
        let setup = bounds
            .iter()
            .find(|b| b.name == "setup_s")
            .expect("setup_s is mandatory");
        assert!(!setup.higher_is_better);
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
        assert!(
            bounds.iter().all(|b| b.bound <= setup.bound),
            "set-up time carries the largest bound"
        );
        assert!(bounds
            .iter()
            .all(|b| UNGATED.iter().all(|(name, _)| b.name != *name)));
    }

    #[test]
    fn a_gap_is_a_worsening_in_the_metrics_own_direction() {
        // Lower is better: 1.00 -> 1.05 is 5 % worse, and so is 1.05 -> 1.00
        // read the other way round; the larger of the two counts.
        let wall = judge(
            "w",
            &bound("wall_s", false, 0.08),
            &vec![vec![1.0, 1.0, 1.0], vec![1.05, 1.05, 1.05]],
        );
        assert!((wall.gap - 0.05).abs() < 1e-12 && wall.pass, "{wall:?}");
        let rate = judge(
            "w",
            &bound("events_per_s", true, 0.08),
            &vec![vec![100.0; 3], vec![90.0; 3]],
        );
        assert!((rate.gap - 0.10).abs() < 1e-12 && !rate.pass, "{rate:?}");
    }

    #[test]
    fn a_wide_spread_fails_except_for_setup_time() {
        let noisy = vec![vec![1.0, 1.0, 1.5, 2.0, 1.0], vec![1.0, 1.0, 1.5, 2.0, 1.0]];
        assert!(!judge("w", &bound("wall_s", false, 0.08), &noisy).pass);
        assert!(judge("w", &bound("setup_s", false, 0.1), &noisy).pass);
        assert!(render(&[judge("w", &bound("wall_s", false, 0.08), &noisy)]).contains("| FAIL |"));
    }
}
