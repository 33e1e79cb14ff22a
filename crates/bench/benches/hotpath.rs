//! Hot-path microbenchmarks for the three subsystems rebuilt in the
//! scheduler/slab/codec overhaul, written to `BENCH_hotpath.json` at the
//! repo root:
//!
//! - **Scheduler**: raw event-queue push+pop throughput under the
//!   timing wheel vs the reference binary heap, at campaign-density
//!   arrival times (events/sec; the wheel's win is the headline
//!   number). A timer-saturated full-`SimNet` drain rides along as the
//!   end-to-end figure, where per-event dispatch (endpoint detachment,
//!   stats, telemetry) dilutes the queue's share of the cost.
//! - **Codec**: `Message::encode_into` through a reused scratch buffer
//!   vs the allocating `Message::encode` (encodes/sec and, via a
//!   counting global allocator, allocations per encoded message — the
//!   reuse path must show zero in steady state).
//!
//! Not a criterion harness: the deliverable is the JSON artifact.
//! `--smoke` shrinks the workload for CI liveness checks.

use std::net::Ipv4Addr;
use std::time::Instant;

use orscope_bench::alloc::{allocs, CountingAlloc};
use orscope_dns_wire::{Message, Question, RData, Record};
use orscope_netsim::scheduler::RawQueue;
use orscope_netsim::{Context, Datagram, Endpoint, SchedulerKind, SimNet, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ignores everything; the simulator's own event machinery is the load.
struct Sink;

impl Endpoint for Sink {
    fn handle_datagram(&mut self, _dgram: &Datagram, _ctx: &mut Context<'_>) {}
}

/// Raw queue throughput: pushes `timers` events scattered over a window
/// matching campaign event density (~100k events per simulated second,
/// i.e. ~100 per wheel tick), then pops them all. Returns events per
/// wall-clock second; both push and pop sit on the campaign hot path.
///
/// This isolates the scheduler: no endpoint dispatch, no stats, no RNG.
/// At 400k resident events the heap's O(log n) sift walks ~19 levels of
/// an out-of-cache array per pop, while the wheel files and drains each
/// event through a handful of slot moves regardless of population.
fn raw_queue_events_per_sec(kind: SchedulerKind, timers: u64) -> f64 {
    let mut queue = RawQueue::new(kind);
    let horizon_nanos = timers * 10_000; // 100k events/sec of virtual time
    let mut x = 0x243F_6A88_85A3_08D3u64;
    let start = Instant::now();
    for _ in 0..timers {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        queue.push(SimTime::from_nanos(x % horizon_nanos));
    }
    let mut popped = 0u64;
    while let Some(event) = queue.pop() {
        std::hint::black_box(event);
        popped += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(popped, timers, "every event pops exactly once");
    timers as f64 / elapsed
}

/// Arms `timers` pseudo-randomly over one simulated hour and drains the
/// queue, returning events per wall-clock second (arming included: both
/// push and pop sit on the campaign hot path).
fn scheduler_events_per_sec(kind: SchedulerKind, timers: u64) -> f64 {
    let mut net = SimNet::builder().seed(1).scheduler(kind).build();
    let host = Ipv4Addr::new(10, 0, 0, 1);
    net.register(host, Sink);
    let mut x = 0x243F_6A88_85A3_08D3u64;
    let start = Instant::now();
    for token in 0..timers {
        // xorshift64: scattered, duplicate-heavy arrival times.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        net.set_timer_for(host, SimTime::from_nanos(x % 3_600_000_000_000), token);
    }
    net.run_until_idle();
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(net.stats().events, timers, "every timer fires exactly once");
    timers as f64 / elapsed
}

/// A representative R1: question echoed, A answer, NS authority, glue.
fn sample_response() -> Message {
    let qname = "or000.0000042.ucfsealresearch.net";
    let query = Message::query(0xCAFE, Question::a(qname.parse().unwrap()));
    Message::builder()
        .response_to(&query)
        .authoritative(true)
        .answer(Record::in_class(
            qname.parse().unwrap(),
            60,
            RData::A(Ipv4Addr::new(10, 42, 0, 1)),
        ))
        .authority(Record::in_class(
            "ucfsealresearch.net".parse().unwrap(),
            3600,
            RData::Ns("ns1.ucfsealresearch.net".parse().unwrap()),
        ))
        .additional(Record::in_class(
            "ns1.ucfsealresearch.net".parse().unwrap(),
            3600,
            RData::A(Ipv4Addr::new(45, 77, 1, 1)),
        ))
        .build()
}

/// (encodes/sec, allocations per encode) for the scratch-reuse path.
fn bench_encode_into(msg: &Message, iters: u64) -> (f64, f64) {
    let mut scratch = Vec::with_capacity(512);
    msg.encode_into(&mut scratch).expect("warmup encode");
    let before = allocs();
    let start = Instant::now();
    for _ in 0..iters {
        msg.encode_into(&mut scratch).expect("encode");
        std::hint::black_box(scratch.len());
    }
    let elapsed = start.elapsed().as_secs_f64();
    let allocated = allocs() - before;
    (iters as f64 / elapsed, allocated as f64 / iters as f64)
}

/// Same figures for the allocating pre-overhaul entry point.
fn bench_encode_fresh(msg: &Message, iters: u64) -> (f64, f64) {
    let before = allocs();
    let start = Instant::now();
    for _ in 0..iters {
        let wire = msg.encode().expect("encode");
        std::hint::black_box(wire.len());
    }
    let elapsed = start.elapsed().as_secs_f64();
    let allocated = allocs() - before;
    (iters as f64 / elapsed, allocated as f64 / iters as f64)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let timers: u64 = if smoke { 20_000 } else { 400_000 };
    let encode_iters: u64 = if smoke { 20_000 } else { 1_000_000 };
    let runs: u32 = if smoke { 1 } else { 3 };

    let mut heap_eps = 0f64;
    let mut wheel_eps = 0f64;
    let mut e2e_heap_eps = 0f64;
    let mut e2e_wheel_eps = 0f64;
    for _ in 0..runs {
        heap_eps = heap_eps.max(raw_queue_events_per_sec(SchedulerKind::Heap, timers));
        wheel_eps = wheel_eps.max(raw_queue_events_per_sec(SchedulerKind::Wheel, timers));
        e2e_heap_eps = e2e_heap_eps.max(scheduler_events_per_sec(SchedulerKind::Heap, timers));
        e2e_wheel_eps = e2e_wheel_eps.max(scheduler_events_per_sec(SchedulerKind::Wheel, timers));
    }
    let speedup = wheel_eps / heap_eps;
    let e2e_speedup = e2e_wheel_eps / e2e_heap_eps;
    eprintln!(
        "scheduler (raw queue): heap={heap_eps:>12.0} ev/s  wheel={wheel_eps:>12.0} ev/s  ({speedup:.2}x)"
    );
    eprintln!(
        "scheduler (end-to-end): heap={e2e_heap_eps:>12.0} ev/s  wheel={e2e_wheel_eps:>12.0} ev/s  ({e2e_speedup:.2}x)"
    );

    let msg = sample_response();
    let mut into_eps = 0f64;
    let mut into_allocs = f64::INFINITY;
    let mut fresh_eps = 0f64;
    let mut fresh_allocs = f64::INFINITY;
    for _ in 0..runs {
        let (eps, apo) = bench_encode_into(&msg, encode_iters);
        into_eps = into_eps.max(eps);
        into_allocs = into_allocs.min(apo);
        let (eps, apo) = bench_encode_fresh(&msg, encode_iters);
        fresh_eps = fresh_eps.max(eps);
        fresh_allocs = fresh_allocs.min(apo);
    }
    eprintln!(
        "encode: into={into_eps:>12.0}/s ({into_allocs:.3} allocs/op)  \
         fresh={fresh_eps:>12.0}/s ({fresh_allocs:.3} allocs/op)"
    );

    // Hand-formatted JSON: the artifact is small and flat, and manual
    // formatting keeps the bench free of serializer noise in the counts.
    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"smoke\": {smoke},\n  \"scheduler\": {{\n    \
         \"timers\": {timers},\n    \"runs\": {runs},\n    \
         \"heap_events_per_sec\": {heap_eps:.0},\n    \
         \"wheel_events_per_sec\": {wheel_eps:.0},\n    \
         \"wheel_speedup\": {speedup:.2},\n    \
         \"end_to_end_heap_events_per_sec\": {e2e_heap_eps:.0},\n    \
         \"end_to_end_wheel_events_per_sec\": {e2e_wheel_eps:.0},\n    \
         \"end_to_end_wheel_speedup\": {e2e_speedup:.2}\n  }},\n  \"encode\": {{\n    \
         \"iters\": {encode_iters},\n    \"message\": \"R1: 1 question + 3 records\",\n    \
         \"encode_into_per_sec\": {into_eps:.0},\n    \
         \"encode_into_allocs_per_op\": {into_allocs:.3},\n    \
         \"encode_fresh_per_sec\": {fresh_eps:.0},\n    \
         \"encode_fresh_allocs_per_op\": {fresh_allocs:.3}\n  }}\n}}\n"
    );
    if smoke {
        // CI liveness check: exercise everything, commit nothing.
        eprintln!("{json}");
        assert_eq!(into_allocs, 0.0, "scratch-reuse encode must not allocate");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(path, json).expect("write BENCH_hotpath.json");
    eprintln!("wrote {path}");
}
