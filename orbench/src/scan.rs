//! The scan workloads' operation: one whole campaign as
//! `orscope campaign` performs it — `Campaign::run()`,
//! `CampaignResult::render()`, and dropping the result — timed on the
//! wall clock and on the process CPU clock.

use std::time::{Duration, Instant};

use orscope_core::{Campaign, CampaignConfig, CampaignResult};

use crate::host;
use crate::stats;

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct ScanRep {
    /// Wall time of run + render + drop.
    pub wall: Duration,
    /// Process CPU time (user + system, all threads) over the same span.
    pub cpu: Duration,
    /// `NetStats::events` of the run.
    pub events: u64,
    /// FNV-1a-64 of the rendered report.
    pub report_fnv64: u64,
    /// Whether every per-rep check passed.
    pub ok: bool,
}

/// The per-rep correctness checks that need no reference: the result is
/// whole, clean, and every captured R2 is accounted for — Table III
/// (responses with a question) plus the empty-question responses of
/// §IV-B4 add up to the dataset's R2 total.
pub fn result_is_sound(result: &CampaignResult) -> bool {
    let classified = result.table3_measured().0.total() + result.empty_question_measured().total;
    !result.is_partial() && result.degraded().is_none() && classified == result.dataset().r2()
}

/// Runs `config` once, render included, and checks the result.
///
/// # Panics
///
/// Panics if the campaign errors: the workloads are chosen so that no
/// operation fails, so an error is a broken build, not a measurement.
pub fn scan_rep(config: &CampaignConfig) -> ScanRep {
    let cpu_before = host::cpu_time();
    let started = Instant::now();
    let result = Campaign::new(config.clone())
        .run()
        .expect("benchmark campaign runs");
    let report = result.render();
    let events = result.net_stats().events;
    let ok = result_is_sound(&result);
    drop(result);
    let wall = started.elapsed();
    let cpu = host::cpu_time() - cpu_before;
    ScanRep {
        wall,
        cpu,
        events,
        report_fnv64: stats::fnv1a64(report.as_bytes()),
        ok,
    }
}
