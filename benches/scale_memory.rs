//! Peak live memory and event throughput of whole campaigns across
//! population scales, written to `BENCH_scale.json` at the repo root.
//!
//! Each point runs the 2018 campaign (streaming analysis, the default).
//! A counting global allocator tracks live bytes (alloc minus dealloc)
//! and the high-water mark; the reported figure is peak live bytes above
//! the starting baseline, covering population generation, the scan, and
//! analysis — the full `Campaign::run` footprint. Resolver endpoints
//! exist only while a flow is in progress (`materialized_hosts` is the
//! high-water mark of the host table), which is what keeps the figure
//! proportional to the scan's working set instead of the population.
//!
//! The headline point is `scale = 1.0`: the paper's full 2018
//! population (~6.5M responders). It must finish on a single core within
//! a 2 GiB peak.
//!
//! A plain `main`, not a timing harness: the deliverable is the JSON
//! artifact.
//! `--smoke` runs only the scale-200 point, whose peak is a count that
//! repeats exactly (one thread, a counting allocator), so CI gates on
//! it: [`SCALE_200_BYTES_PER_RESPONDER`].

use std::time::Instant;

use orscope_check::alloc::{peak_above, reset_peak, CountingAlloc};
use orscope_core::{Campaign, CampaignConfig};
use orscope_resolver::paper::Year;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak live bytes per responder the scale-200 point may cost: 7 %
/// above the 65.4 it measures (2,126,699 B for 32,531 responders). The
/// per-label flow join of 32 B rows and 12 B Q2/R1 stamps read 121.4
/// (3,950,595 B); one keyed through a hash map with a stamp for every
/// R1 read 171.8 (5,589,019 B); one with a heap vector or two per flow,
/// or a timing wheel that keeps drained slots' buffers, lands near 310.
const SCALE_200_BYTES_PER_RESPONDER: u64 = 70;

/// Runs one campaign and returns its JSON entry, its peak live bytes and
/// its responder count.
fn run_point(scale: f64) -> (String, usize, u64) {
    let config = CampaignConfig::new(Year::Y2018, scale);
    let campaign = Campaign::new(config);
    let baseline = reset_peak();
    let start = Instant::now();
    let result = campaign.run().expect("bench campaign runs");
    let elapsed = start.elapsed().as_secs_f64();
    let peak_bytes = peak_above(baseline);
    let events = result.net_stats().events;
    let events_per_sec = events as f64 / elapsed;
    let r2 = result.dataset().r2();
    let hosts = result.materialized_hosts();
    eprintln!(
        "scale {scale:>7}: r2={r2:>8}  peak {peak_bytes:>12} B  host table peak {hosts:>7}  \
         {events_per_sec:>10.0} ev/s ({events} events)"
    );
    assert!(
        (hosts as u64) * 10 <= r2,
        "the host table must stay an order of magnitude below the \
         responders it serves (peak {hosts} hosts for {r2} responders)"
    );
    let entry = format!(
        "    {{\n      \"scale\": {scale},\n      \"r2\": {r2},\n      \
         \"peak_live_bytes\": {peak_bytes},\n      \
         \"materialized_hosts_peak\": {hosts},\n      \
         \"events\": {events},\n      \
         \"events_per_sec\": {events_per_sec:.0}\n    }}"
    );
    (entry, peak_bytes, r2)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Scale is a divisor: 200 ≈ 32.5k responders, 1.0 = the paper's
    // full ~6.5M. Smoke runs only the 200 point.
    let scales: &[f64] = if smoke { &[200.0] } else { &[200.0, 1.0] };
    let mut entries = Vec::new();
    for &scale in scales {
        let (entry, peak_bytes, r2) = run_point(scale);
        entries.push(entry);
        if scale == 200.0 {
            assert!(
                peak_bytes as u64 <= SCALE_200_BYTES_PER_RESPONDER * r2,
                "scale 200 must peak within {SCALE_200_BYTES_PER_RESPONDER} live bytes per \
                 responder (got {peak_bytes} bytes for {r2} responders)"
            );
        }
        const GIB: usize = 1 << 30;
        assert!(
            peak_bytes <= 2 * GIB,
            "a campaign at scale {scale} must fit in 2 GiB of live heap (got {peak_bytes} bytes)"
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"scale_memory\",\n  \"smoke\": {smoke},\n  \
         \"metric\": \"peak live bytes above baseline and events/sec over full Campaign::run \
         (2018, streaming analysis)\",\n  \"scales\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    if smoke {
        // CI liveness check: exercise everything, commit nothing.
        eprintln!("{json}");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_scale.json");
    std::fs::write(path, json).expect("write BENCH_scale.json");
    eprintln!("wrote {path}");
}
