//! `Dataset::merge` must be a pure fold: whatever order the shard
//! datasets arrive in — threads finish in nondeterministic order in a
//! real parallel campaign — the merged dataset and every table computed
//! from it must be identical.

use std::net::Ipv4Addr;

use orscope_analysis::tables::{Table2, Table3, Table4, Table5, Table6, Table7};
use orscope_analysis::Dataset;
use orscope_authns::scheme::{ground_truth, ProbeLabel};
use orscope_dns_wire::{Message, Name, Question, RData, Rcode, Record};
use orscope_netsim::{Payload, SimTime};
use orscope_prober::{ProbeStats, R2Capture};
use orscope_resolver::paper::Year;

fn zone() -> Name {
    "ucfsealresearch.net".parse().unwrap()
}

/// The response shapes the tables distinguish.
enum Shape {
    Correct,
    WrongIp,
    Refused,
    EmptyQuestion,
}

fn capture(label: ProbeLabel, target: Ipv4Addr, at_ms: u64, shape: Shape) -> R2Capture {
    let qname = label.qname(&zone());
    let query = Message::query(1, Question::a(qname.clone()));
    let response = match shape {
        Shape::Correct => Message::builder()
            .response_to(&query)
            .recursion_available(true)
            .answer(Record::in_class(
                qname.clone(),
                60,
                RData::A(ground_truth(label)),
            ))
            .build(),
        Shape::WrongIp => Message::builder()
            .response_to(&query)
            .authoritative(true)
            .answer(Record::in_class(
                qname.clone(),
                60,
                RData::A(Ipv4Addr::new(208, 91, 197, 91)),
            ))
            .build(),
        Shape::Refused => Message::builder()
            .response_to(&query)
            .rcode(Rcode::Refused)
            .build(),
        Shape::EmptyQuestion => {
            let mut resp = Message::builder()
                .response_to(&query)
                .rcode(Rcode::ServFail)
                .build();
            resp.clear_questions();
            resp
        }
    };
    let empty_question = matches!(shape, Shape::EmptyQuestion);
    R2Capture {
        target,
        label: (!empty_question).then_some(label),
        qname,
        at: SimTime::from_nanos(at_ms * 1_000_000),
        sent_at: SimTime::ZERO,
        payload: Payload::from(response.encode().unwrap()),
    }
}

/// One shard's dataset: disjoint cluster, disjoint targets, a mix of
/// response shapes so Tables III-VII all have nonzero cells.
fn shard(index: u32) -> Dataset {
    let cluster = index * 300;
    let base = Ipv4Addr::from(0x0A00_0000 + index * 0x100);
    let addr = |host: u32| Ipv4Addr::from(u32::from(base) + host + 1);
    let captures = vec![
        capture(
            ProbeLabel::new(cluster, 0),
            addr(0),
            10 + u64::from(index),
            Shape::Correct,
        ),
        capture(
            ProbeLabel::new(cluster, 1),
            addr(1),
            20 + u64::from(index),
            Shape::Correct,
        ),
        capture(
            ProbeLabel::new(cluster, 2),
            addr(2),
            30 + u64::from(index),
            Shape::WrongIp,
        ),
        capture(
            ProbeLabel::new(cluster, 3),
            addr(3),
            40 + u64::from(index),
            Shape::Refused,
        ),
        capture(
            ProbeLabel::new(cluster, 4),
            addr(4),
            50 + u64::from(index),
            Shape::EmptyQuestion,
        ),
    ];
    let stats = ProbeStats {
        q1_sent: 12,
        r2_captured: captures.len() as u64,
        subdomains_fresh: 5,
        clusters_used: 1,
        finished_at: SimTime::from_secs(u64::from(index) + 1),
        done: true,
        ..ProbeStats::default()
    };
    Dataset::from_captures(
        Year::Y2018,
        1_000.0,
        stats.q1_sent,
        8,
        8,
        60.0 * f64::from(index + 1),
        &captures,
        stats,
    )
}

/// A comparable fingerprint of everything the merge affects.
fn fingerprint(ds: &Dataset) -> String {
    let records: Vec<(String, Ipv4Addr, u64)> = ds
        .records
        .iter()
        .map(|r| (r.qname.to_string(), r.resolver, r.at.as_nanos()))
        .collect();
    format!(
        "q1={} q2={} r1={} r2={} dur={} stats={:?} t2={:?} t3={:?} t4={:?} t5={:?} t6={:?} t7={:?} records={records:?}",
        ds.q1,
        ds.q2,
        ds.r1,
        ds.r2(),
        ds.duration_secs,
        ds.probe_stats,
        Table2::measured(ds),
        Table3::measured(ds),
        Table4::measured(ds),
        Table5::measured(ds),
        Table6::measured(ds),
        Table7::measured(ds),
    )
}

#[test]
fn every_permutation_of_three_shards_merges_identically() {
    const ORDERINGS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let shards = [shard(0), shard(1), shard(2)];
    let baseline = fingerprint(&Dataset::merge(shards.to_vec()));
    for ordering in ORDERINGS {
        let permuted: Vec<Dataset> = ordering.iter().map(|&i| shards[i].clone()).collect();
        let merged = Dataset::merge(permuted);
        assert_eq!(
            fingerprint(&merged),
            baseline,
            "ordering {ordering:?} diverged"
        );
    }
}

#[test]
fn merged_counts_are_the_shard_sums() {
    let merged = Dataset::merge(vec![shard(0), shard(1), shard(2)]);
    assert_eq!(merged.q1, 36);
    assert_eq!(merged.q2, 24);
    assert_eq!(merged.r1, 24);
    assert_eq!(merged.r2(), 15);
    assert_eq!(merged.duration_secs, 180.0, "slowest shard wins");
    assert_eq!(merged.probe_stats.finished_at, SimTime::from_secs(3));
    assert_eq!(merged.matched().count(), 12);
    assert_eq!(merged.empty_question().count(), 3);
    assert!(merged.probe_stats.done);
}
