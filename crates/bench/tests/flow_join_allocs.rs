//! The flow join owns no per-flow heap: folding authoritative packets
//! into reserved flows allocates only when the one shared stamp log
//! grows. One test per binary, because the allocator counts process-wide.

use std::net::Ipv4Addr;

use orscope_analysis::{RecordSink, StreamingAnalyzer};
use orscope_authns::scheme::ProbeLabel;
use orscope_authns::{CapturedPacket, Direction};
use orscope_bench::alloc::{allocs, CountingAlloc};
use orscope_dns_wire::{Message, Name, Question};
use orscope_netsim::{Payload, SimTime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn folding_auth_packets_allocates_with_the_log_not_with_the_flows() {
    const FLOWS: u64 = 4_096;
    const FANOUT: u64 = 4;
    let zone: Name = "ucfsealresearch.net".parse().unwrap();
    let mut packets = Vec::new();
    for round in 0..FANOUT {
        for seq in 0..FLOWS {
            let qname = ProbeLabel::new(0, seq).qname(&zone);
            let payload = Message::query(7, Question::a(qname)).encode().unwrap();
            for direction in [Direction::Inbound, Direction::Outbound] {
                packets.push(CapturedPacket {
                    at: SimTime::from_nanos(round * FLOWS + seq),
                    direction,
                    peer: Ipv4Addr::new(10, 0, 0, 1),
                    peer_port: 53,
                    label: None,
                    payload: Payload::from(payload.clone()),
                });
            }
        }
    }
    let mut analyzer = StreamingAnalyzer::new(zone, false);
    analyzer.reserve_flows(FLOWS as usize);

    let before = allocs();
    for packet in &packets {
        analyzer.on_auth(packet);
    }
    let spent = allocs() - before;

    // A doubling log regrows log2(N) times at most; two vectors a flow
    // would be 8,192 allocations before their own regrowth.
    let bound = 2 * packets.len().ilog2() as usize;
    assert!(
        spent <= bound,
        "{spent} allocations to fold {} packets into {FLOWS} reserved flows (bound {bound})",
        packets.len()
    );
    let flows = analyzer.take_flows();
    assert_eq!(flows.recursed_count(), FLOWS);
    assert_eq!(flows.mean_q2_fanout(), FANOUT as f64);
    assert!(flows
        .iter()
        .all(|flow| flow.r1_at().len() == FANOUT as usize));
}
