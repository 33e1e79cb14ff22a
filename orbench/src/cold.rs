//! The timed run: one workload's operation in fresh child processes,
//! one after another, for `--seconds`.
//!
//! `orscope campaign` runs one campaign per process, so a fresh process
//! is what a user waits for and pays memory for. Each child
//! (`orbench --cold ...`) performs the operation exactly once and
//! reports on a `cold:` line; the parent times it from spawn to exit.
//! Work per child is fixed, so a child's peak resident set does not
//! depend on how many reps a slow or fast host fitted into the run, and
//! every set-up sample is genuinely cold.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::cli::Args;
use crate::host;
use crate::report::{Metric, Outcome};
use crate::scan;
use crate::serve::{self, HttpSample};
use crate::stats;
use crate::workload::{Params, Workload};

/// What one child measured about its single operation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdSample {
    /// Checked operations (the operation itself, plus HTTP requests).
    pub attempted: u64,
    /// Those whose check failed.
    pub failed: u64,
    /// Wall time of the operation, inside the process, seconds.
    pub wall_s: f64,
    /// Process CPU time over the same span, seconds.
    pub cpu_s: f64,
    /// Simulator events of the operation.
    pub events: u64,
    /// `VmHWM` of the child after the operation, MiB.
    pub peak_rss_mb: f64,
    /// FNV-1a-64 of what the operation rendered (report or tables).
    pub checksum: u64,
    /// Median latency of the serve client's requests, ms (0: none).
    pub http_p50_ms: f64,
}

impl ColdSample {
    /// The line a child prints; [`ColdSample::parse`] reads it back.
    pub fn to_line(&self) -> String {
        format!(
            "cold: attempted={} failed={} wall_s={} cpu_s={} events={} peak_rss_mb={} checksum={:016x} http_p50_ms={}",
            self.attempted,
            self.failed,
            self.wall_s,
            self.cpu_s,
            self.events,
            self.peak_rss_mb,
            self.checksum,
            self.http_p50_ms
        )
    }

    /// Parses a child's `cold:` line.
    pub fn parse(line: &str) -> Option<Self> {
        let fields = line.strip_prefix("cold: ")?;
        let field = |name: &str| {
            fields
                .split(' ')
                .find_map(|pair| pair.strip_prefix(name)?.strip_prefix('='))
        };
        Some(Self {
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            wall_s: field("wall_s")?.parse().ok()?,
            cpu_s: field("cpu_s")?.parse().ok()?,
            events: field("events")?.parse().ok()?,
            peak_rss_mb: field("peak_rss_mb")?.parse().ok()?,
            checksum: u64::from_str_radix(field("checksum")?, 16).ok()?,
            http_p50_ms: field("http_p50_ms")?.parse().ok()?,
        })
    }
}

/// The child's side: the workload's operation, once.
pub fn child(workload: Workload, params: &Params, seed: u64) -> ColdSample {
    match params.campaign(workload, seed) {
        Some(config) => {
            let rep = scan::scan_rep(&config);
            ColdSample {
                attempted: 1,
                failed: u64::from(!rep.ok),
                wall_s: rep.wall.as_secs_f64(),
                cpu_s: rep.cpu.as_secs_f64(),
                events: rep.events,
                peak_rss_mb: host::peak_rss_mib(),
                checksum: rep.report_fnv64,
                http_p50_ms: 0.0,
            }
        }
        None => {
            let rep = serve::serve_rep(params, seed, params.serve_epochs);
            let latencies: Vec<f64> = rep.samples.iter().map(HttpSample::latency_ms).collect();
            ColdSample {
                attempted: 1 + rep.samples.len() as u64,
                failed: u64::from(!rep.ok)
                    + rep.samples.iter().filter(|sample| !sample.ok).count() as u64,
                wall_s: rep.wall.as_secs_f64(),
                cpu_s: rep.cpu.as_secs_f64(),
                events: rep.events,
                peak_rss_mb: host::peak_rss_mib(),
                checksum: rep.tables_fnv64,
                http_p50_ms: if latencies.is_empty() {
                    0.0
                } else {
                    stats::median(&latencies)
                },
            }
        }
    }
}

/// Runs one child of `exe` and returns its sample with the seconds from
/// spawn to exit.
fn spawn_child(exe: &Path, workload: Workload, args: &Args) -> Result<(ColdSample, f64), String> {
    let child_args = Args {
        workload: Some(workload),
        cold: true,
        trace: false,
        ..args.clone()
    };
    let started = Instant::now();
    let output = Command::new(exe)
        .args(child_args.to_flags())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let elapsed = started.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!(
            "{} child exited with {}: {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let sample = stdout
        .lines()
        .find_map(ColdSample::parse)
        .ok_or_else(|| format!("{} child printed no `cold:` line", workload.name()))?;
    Ok((sample, elapsed))
}

/// Values at three decimals, space-separated: every child's reading is
/// worth keeping when a run looks odd.
fn series(values: &[f64]) -> String {
    values
        .iter()
        .map(|value| format!("{value:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The parent's side: children of `exe` until `args.seconds` have
/// passed (at least `min_children`), then the medians.
///
/// # Errors
///
/// Fails when a child cannot be run, exits nonzero or reports nothing:
/// a broken harness, not a measurement.
pub fn run(exe: &Path, workload: Workload, args: &Args) -> Result<Outcome, String> {
    let params = args.params();
    let mut samples: Vec<ColdSample> = Vec::new();
    let mut setups = Vec::new();
    let mut failed = 0u64;
    let started = Instant::now();
    while samples.len() < params.min_children || started.elapsed().as_secs_f64() < args.seconds {
        let (sample, elapsed) = spawn_child(exe, workload, args)?;
        // Same input, same work: every child renders the first one's
        // bytes from the first one's event count.
        if let Some(first) = samples.first() {
            failed += u64::from(sample.checksum != first.checksum || sample.events != first.events);
        }
        setups.push(elapsed);
        samples.push(sample);
    }
    let mut attempted: u64 = samples.iter().map(|sample| sample.attempted).sum();
    failed += samples.iter().map(|sample| sample.failed).sum::<u64>();
    let first = &samples[0];

    // The house shard-invariance: two shards render the bytes one does.
    if workload == Workload::ScanDense2sh {
        let (single, _) = spawn_child(exe, Workload::ScanDense, args)?;
        attempted += single.attempted;
        failed += single.failed + u64::from(single.checksum != first.checksum);
    }

    let column = |value: fn(&ColdSample) -> f64| samples.iter().map(value).collect::<Vec<f64>>();
    let walls = column(|sample| sample.wall_s);
    let rss = column(|sample| sample.peak_rss_mb);
    let op_wall_s = stats::median(&walls);
    let mut notes = vec![
        ("children", samples.len().to_string()),
        ("events_per_op", first.events.to_string()),
        ("op_wall_s", format!("{op_wall_s:.6}")),
        (
            "op_cpu_s",
            format!("{:.6}", stats::median(&column(|sample| sample.cpu_s))),
        ),
        (
            "op_events_per_s",
            format!("{:.1}", first.events as f64 / op_wall_s),
        ),
        (
            "setup_spread",
            format!("{:.4}", stats::range_share(&setups)),
        ),
        ("setups_s", series(&setups)),
        ("op_walls_s", series(&walls)),
        ("peak_rss_mbs", series(&rss)),
    ];
    if workload == Workload::ServeEpochs {
        notes.push((
            "http_p50_ms",
            format!("{:.3}", stats::median(&column(|sample| sample.http_p50_ms))),
        ));
        notes.push(("tables_fnv64", format!("{:016x}", first.checksum)));
    } else {
        notes.push(("report_fnv64", format!("{:016x}", first.checksum)));
    }
    Ok(Outcome {
        metrics: vec![
            Metric::new("setup_s", "s", stats::median(&setups)),
            Metric::new("peak_rss_mb", "MiB", stats::median(&rss)),
        ],
        attempted,
        failed,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cold_line_round_trips() {
        let sample = ColdSample {
            attempted: 77,
            failed: 0,
            wall_s: 0.893616,
            cpu_s: 0.89,
            events: 733_655,
            peak_rss_mb: 27.875,
            checksum: 0x7e22_67ce_8399_9810,
            http_p50_ms: 10.15,
        };
        let line = sample.to_line();
        assert!(line.starts_with("cold: ") && !line.contains('\n'));
        assert_eq!(ColdSample::parse(&line), Some(sample));
        assert_eq!(ColdSample::parse("scan-dense: reps = 3"), None);
        assert_eq!(ColdSample::parse("cold: attempted=1"), None);
    }
}
