//! A scan interrupted mid-flight and resumed from its checkpoint must
//! cover every responder a straight run covers.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

use orscope_dns_wire::{Message, RData, Record};
use orscope_netsim::{Context, Datagram, Endpoint, FixedLatency, SimNet, SimTime};
use orscope_prober::{Prober, ProberConfig, ProberHandle, ScanCheckpoint};

/// Answers every query with a fixed A record.
struct Answerer;
impl Endpoint for Answerer {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        let Ok(query) = Message::decode(&dgram.payload) else {
            return;
        };
        let qname = query
            .first_question()
            .expect("probe has question")
            .qname()
            .clone();
        let resp = Message::builder()
            .response_to(&query)
            .recursion_available(true)
            .answer(Record::in_class(
                qname,
                60,
                RData::A(Ipv4Addr::new(1, 2, 3, 4)),
            ))
            .build();
        ctx.send(dgram.reply(resp.encode().expect("encodable")));
    }
}

fn targets() -> Vec<Ipv4Addr> {
    (0..400u32)
        .map(|i| Ipv4Addr::from(0x0900_0000 + i))
        .collect()
}

fn config() -> ProberConfig {
    let mut config = ProberConfig::new("ucfsealresearch.net".parse().expect("static"), targets());
    config.rate_pps = 100;
    config.response_window = Duration::from_millis(500);
    config.cluster_capacity = 50;
    config
}

fn build_net(register_responders: bool) -> SimNet {
    let mut net = SimNet::builder()
        .seed(33)
        .latency(FixedLatency(Duration::from_millis(10)))
        .build();
    if register_responders {
        // Every fourth target responds.
        for (i, addr) in targets().into_iter().enumerate() {
            if i % 4 == 0 {
                net.register(addr, Answerer);
            }
        }
    }
    net
}

const PROBER: Ipv4Addr = Ipv4Addr::new(132, 170, 5, 53);

/// Runs the scan for two virtual seconds (about half of it) and freezes
/// it: the live handle, the checkpoint, and the in-flight targets.
fn interrupted_scan() -> (ProberHandle, ScanCheckpoint, Vec<Ipv4Addr>) {
    let handle = ProberHandle::new();
    let mut net = build_net(true);
    let prober = Prober::new(config(), handle.clone()).expect("valid rate");
    let prober = Rc::new(RefCell::new(prober));
    net.register(PROBER, Rc::clone(&prober));
    net.set_timer_for(PROBER, SimTime::ZERO, 0);
    // 400 targets at 100 pps = 4 s; stop at 2 s.
    net.run_until(SimTime::from_secs(2));
    // Checkpoint the live endpoint through the handle kept on it.
    let prober = prober.borrow();
    (handle, prober.checkpoint(), prober.outstanding_targets())
}

#[test]
fn identical_interrupted_scans_write_identical_checkpoints() {
    // The checkpoint lists in-flight labels and targets out of hash
    // maps; their order must not depend on per-process hasher keys, or
    // two identical scans resume differently.
    let (_, first, first_outstanding) = interrupted_scan();
    let (_, second, second_outstanding) = interrupted_scan();
    assert!(first_outstanding.len() > 10, "a window's worth in flight");
    assert_eq!(first_outstanding, second_outstanding);
    assert_eq!(first, second);
    assert_eq!(first.to_json_string(), second.to_json_string());
}

#[test]
fn interrupted_scan_resumes_to_full_coverage() {
    // Phase 1: run roughly half the scan, then stop the world.
    let (handle, checkpoint, remaining_targets) = interrupted_scan();
    let stats_mid = handle.stats();
    assert!(
        stats_mid.q1_sent > 100 && stats_mid.q1_sent < 300,
        "{}",
        stats_mid.q1_sent
    );
    assert!(!stats_mid.done);

    // Survives serialization.
    let checkpoint =
        ScanCheckpoint::from_json_str(&checkpoint.to_json_string()).expect("roundtrip");

    // Phase 2: a fresh world resumes from the checkpoint; outstanding
    // targets are re-appended so their probes are re-sent.
    let resume_handle = ProberHandle::new();
    let mut resume_config = config();
    let mut resume_targets = targets();
    resume_targets.extend(remaining_targets);
    resume_config.targets = resume_targets.into();
    let mut net3 = build_net(true);
    net3.register(
        PROBER,
        Prober::resume(resume_config, resume_handle.clone(), &checkpoint).expect("valid rate"),
    );
    net3.set_timer_for(PROBER, SimTime::ZERO, 0);
    net3.run_until_idle();

    let final_stats = resume_handle.stats();
    assert!(final_stats.done);
    // Coverage: every responder answered in phase 1 or phase 2.
    let responders: std::collections::HashSet<Ipv4Addr> = targets()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 4 == 0)
        .map(|(_, a)| a)
        .collect();
    let phase2_hits: std::collections::HashSet<Ipv4Addr> =
        resume_handle.captures().iter().map(|c| c.target).collect();
    // Phase 1's captures are in `handle` (the first run).
    let phase1_hits: std::collections::HashSet<Ipv4Addr> =
        handle.captures().iter().map(|c| c.target).collect();
    let union: std::collections::HashSet<_> = phase1_hits.union(&phase2_hits).copied().collect();
    assert_eq!(
        union, responders,
        "every responder covered across the restart"
    );
    // The resumed scan did not redo finished work: its fresh Q1 volume
    // is bounded by the remaining targets plus the in-flight window.
    let resumed_q1 = final_stats.q1_sent - checkpoint.q1_sent;
    assert!(
        resumed_q1 as usize <= 400 - checkpoint.next_target + 80,
        "resumed Q1 {resumed_q1}"
    );
}
