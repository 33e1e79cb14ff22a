//! The answered path reuses what it built for the previous packet: a
//! whole fast one-shard campaign — population, plan, scan, analysis —
//! spends about one allocation an event, the datagram payload, and a
//! couple of hundred requested bytes. When every decode built its
//! section vectors, every materialization its resolver and every
//! upstream response a copy of the pending resolution, the same run
//! spent 4.09 allocations and 3,364 bytes an event. The counts repeat
//! exactly from run to run. One test per binary, because the allocator
//! counts process-wide.
//!
//! The denominator is `NetStats::events`, which counts timers and the
//! datagrams that travelled. Two Q1s in three here go to nobody, and
//! since such a send is settled as unrouted on the spot instead of
//! becoming an event, the same allocations are spread over 39,045
//! events instead of 45,551: the figures read 1.23 and 349 where they
//! read 1.06 and 306, and the run allocated no more than it did.
//!
//! Since the authoritative server hands its one probe answer to the
//! response by value instead of through a 528-byte `vec![Record]`, and
//! the streaming analyzer classifies every R2 in one scratch message
//! instead of a fresh one, the same 39,045 events read 0.946 and 219.5
//! (budgets 1.5 and 800 until then).

use orscope_bench::alloc::{allocs, requested_bytes, CountingAlloc};
use orscope_core::{Campaign, CampaignConfig};
use orscope_resolver::paper::Year;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations an event the run may spend (it measures 0.946).
const ALLOCS_PER_EVENT: f64 = 1.1;
/// Requested bytes an event the run may spend (it measures 219.5).
const BYTES_PER_EVENT: f64 = 250.0;

#[test]
fn a_fast_campaign_allocates_about_once_an_event() {
    let campaign = Campaign::new(CampaignConfig::new(Year::Y2018, 2000.0));
    let (calls, bytes) = (allocs(), requested_bytes());
    let result = campaign.run().expect("campaign runs");
    let (calls, bytes) = (allocs() - calls, requested_bytes() - bytes);
    let events = result.net_stats().events as f64;
    // Each responder is built once, for its Q1, and only a few are
    // live at a time: nearly every one came out of the pool.
    assert!(
        result.materializations() > 10 * result.materialized_hosts() as u64,
        "the run must have released and recycled its resolvers"
    );
    let (calls, bytes) = (calls as f64 / events, bytes as f64 / events);
    eprintln!("{events} events: {calls:.3} allocations, {bytes:.1} requested bytes an event");
    assert!(
        calls <= ALLOCS_PER_EVENT,
        "{calls:.3} allocations an event (budget {ALLOCS_PER_EVENT})"
    );
    assert!(
        bytes <= BYTES_PER_EVENT,
        "{bytes:.1} requested bytes an event (budget {BYTES_PER_EVENT})"
    );
}
