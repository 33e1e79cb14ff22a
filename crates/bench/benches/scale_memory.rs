//! Peak live memory and event throughput of whole campaigns across
//! population scales, lazy vs eager host materialization, written to
//! `BENCH_scale.json` at the repo root.
//!
//! Each arm runs the identical 2018 campaign (streaming analysis, the
//! default) and differs only in the [`Materialization`] knob: the eager
//! arm registers every planned responder as a boxed endpoint up front
//! (the pre-interning behaviour), the lazy arm materializes host slots
//! on first packet delivery and releases them at quiescence. A counting
//! global allocator tracks live bytes (alloc minus dealloc) and the
//! high-water mark; the reported figure per arm is peak live bytes
//! above the arm's starting baseline, covering population generation,
//! the scan, and analysis — the full `Campaign::run` footprint.
//!
//! The headline point is `scale = 1.0`: the paper's full 2018
//! population (~6.5M responders), which the eager path cannot hold. It
//! runs lazy-only and must finish on a single core within a 2 GiB peak.
//! Scale 200 records events/sec for comparison against
//! `BENCH_hotpath.json`'s end-to-end wheel figure.
//!
//! Not a criterion harness: the deliverable is the JSON artifact.
//! `--smoke` runs only the scale-200 point for CI liveness checks.

use std::time::Instant;

use orscope_bench::alloc::{peak_above, reset_peak, CountingAlloc};
use orscope_core::{Campaign, CampaignConfig, Materialization};
use orscope_resolver::paper::Year;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One measured campaign run.
struct Arm {
    peak_bytes: usize,
    events: u64,
    events_per_sec: f64,
    r2: u64,
    render: String,
}

fn run_arm(materialization: Materialization, scale: f64) -> Arm {
    let config = CampaignConfig::new(Year::Y2018, scale)
        .with_materialization(materialization)
        .with_telemetry(false);
    let campaign = Campaign::new(config);
    let baseline = reset_peak();
    let start = Instant::now();
    let result = campaign.run().expect("bench campaign runs");
    let elapsed = start.elapsed().as_secs_f64();
    let peak_bytes = peak_above(baseline);
    let events = result.net_stats().events;
    Arm {
        peak_bytes,
        events,
        events_per_sec: events as f64 / elapsed,
        r2: result.dataset().r2(),
        render: result.render(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Scale is a divisor: 20k ≈ 325 responders, 200 ≈ 32.5k, 1.0 = the
    // paper's full ~6.5M. Smoke runs only the 200 point.
    let compared_scales: &[f64] = if smoke { &[200.0] } else { &[200.0, 20_000.0] };

    let mut entries = String::new();
    let mut ratio_at_20k = f64::INFINITY;
    for (i, &scale) in compared_scales.iter().enumerate() {
        let eager = run_arm(Materialization::Eager, scale);
        let lazy = run_arm(Materialization::Lazy, scale);
        assert_eq!(
            eager.render, lazy.render,
            "the two arms must render identical reports at scale {scale}"
        );
        let ratio = eager.peak_bytes as f64 / lazy.peak_bytes.max(1) as f64;
        if scale == 20_000.0 {
            ratio_at_20k = ratio;
        }
        eprintln!(
            "scale {scale:>7}: r2={:>8}  eager peak {:>12} B  lazy peak {:>12} B  ({ratio:.1}x)  \
             eager {:>10.0} ev/s  lazy {:>10.0} ev/s",
            lazy.r2, eager.peak_bytes, lazy.peak_bytes, eager.events_per_sec, lazy.events_per_sec
        );
        if i > 0 {
            entries.push_str(",\n");
        }
        // Both arms process the identical event stream (same count, same
        // order), so the events/sec pair is a like-for-like throughput
        // comparison: lazy must not pay for its materialization checks.
        entries.push_str(&format!(
            "    {{\n      \"scale\": {scale},\n      \"r2\": {},\n      \
             \"eager_peak_live_bytes\": {},\n      \
             \"lazy_peak_live_bytes\": {},\n      \
             \"eager_over_lazy\": {ratio:.2},\n      \
             \"events\": {},\n      \
             \"eager_events_per_sec\": {:.0},\n      \
             \"lazy_events_per_sec\": {:.0}\n    }}",
            lazy.r2,
            eager.peak_bytes,
            lazy.peak_bytes,
            lazy.events,
            eager.events_per_sec,
            lazy.events_per_sec
        ));
        assert_eq!(eager.events, lazy.events, "identical event streams");
    }

    if smoke {
        // CI liveness check: exercise everything, commit nothing.
        let json = format!(
            "{{\n  \"bench\": \"scale_memory\",\n  \"smoke\": true,\n  \"scales\": [\n{entries}\n  ]\n}}\n"
        );
        eprintln!("{json}");
        return;
    }

    assert!(
        ratio_at_20k >= 5.0,
        "lazy materialization must hold peak live bytes at least 5x below \
         the eager path at scale 20k (got {ratio_at_20k:.2}x)"
    );

    // The paper-scale point: the full 2018 population, lazy-only (the
    // eager path at this scale is the multi-gigabyte blowup the
    // optimisation removes).
    let full = run_arm(Materialization::Lazy, 1.0);
    eprintln!(
        "scale     1.0: r2={:>8}  lazy peak {:>12} B  {:>10.0} ev/s ({} events)",
        full.r2, full.peak_bytes, full.events_per_sec, full.events
    );
    const GIB: usize = 1 << 30;
    assert!(
        full.peak_bytes <= 2 * GIB,
        "the full-scale campaign must fit in 2 GiB of live heap \
         (got {} bytes)",
        full.peak_bytes
    );
    entries.push_str(&format!(
        ",\n    {{\n      \"scale\": 1.0,\n      \"r2\": {},\n      \
         \"lazy_peak_live_bytes\": {},\n      \
         \"events\": {},\n      \
         \"lazy_events_per_sec\": {:.0}\n    }}",
        full.r2, full.peak_bytes, full.events, full.events_per_sec
    ));

    let json = format!(
        "{{\n  \"bench\": \"scale_memory\",\n  \"smoke\": false,\n  \
         \"metric\": \"peak live bytes above baseline and events/sec over full Campaign::run \
         (2018, streaming analysis)\",\n  \"scales\": [\n{entries}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, json).expect("write BENCH_scale.json");
    eprintln!("wrote {path}");
}
