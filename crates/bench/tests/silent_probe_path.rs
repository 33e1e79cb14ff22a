//! The probe nobody answers costs what a stateless scanner pays: a Q1
//! patched into a template, one table entry, and a datagram that is
//! counted unrouted when it is handed to the wire instead of travelling
//! as an event. A one-shard full-Q1 campaign at scale 60,000 (61,596 of
//! its 62,418 datagrams go to nobody) must therefore process no event
//! for an unrouted datagram, lose none in the books, and spend about
//! two allocations a datagram sent. The counts repeat exactly from run
//! to run. One test per binary, because the allocator counts
//! process-wide.
//!
//! About one of those two allocations is not the probe path's: at this
//! scale the prober ticks at 1.7 pps, every tick is a timer filed more
//! than 256 ms ahead, and a wheel slot drops its buffer when it
//! cascades, so each such timer re-allocates its slot. The same run at
//! scale 3,000 (33 pps) reads 1.13 allocations a datagram. That is the
//! wheel's to fix, not this gate's to hide: the budget is about 20 %
//! above what the run measures here.

use orscope_bench::alloc::{allocs, CountingAlloc};
use orscope_core::{Campaign, CampaignConfig};
use orscope_resolver::paper::Year;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations a datagram sent the run may spend (it measures 2.03).
const ALLOCS_PER_DATAGRAM: f64 = 2.45;

#[test]
fn an_unanswered_probe_is_no_event_and_about_two_allocations() {
    let campaign = Campaign::new(CampaignConfig::new(Year::Y2018, 60_000.0).with_full_q1());
    let calls = allocs();
    let result = campaign.run().expect("campaign runs");
    let calls = (allocs() - calls) as f64;
    let net = *result.net_stats();
    eprintln!("{net:?}");
    assert!(
        net.unrouted > 50 * net.delivered,
        "the run must be almost all silence"
    );
    assert_eq!(
        net.events - net.timers_fired,
        net.delivered,
        "an unrouted datagram became an event"
    );
    assert_eq!(net.unrouted + net.delivered + net.lost, net.sent);
    let per_datagram = calls / net.sent as f64;
    eprintln!(
        "{} datagrams sent: {per_datagram:.3} allocations each",
        net.sent
    );
    assert!(
        per_datagram <= ALLOCS_PER_DATAGRAM,
        "{per_datagram:.3} allocations a datagram sent (budget {ALLOCS_PER_DATAGRAM})"
    );
}
