//! The streaming accumulators must equal the batch oracle: for an
//! arbitrary capture set — correct, wrong-IP, CNAME, TXT, refused,
//! NXDomain, empty-question, malformed, and undecodable responses,
//! plus auth-server packets including foreign qnames — splitting the
//! stream across shards, folding each shard through a
//! [`StreamingAnalyzer`], and merging the analyzers in any order must
//! render every table byte-identically to classifying the buffered
//! captures through [`Dataset`]. The flow figures are refereed by a
//! naive qname join written here, over the raw events, so the two
//! sides share no flow code.
//!
//! The property logic lives in plain seeded helpers: a fixed sweep of
//! small seeds, and a wider draw of seeds and shard counts at the
//! bottom.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Duration;

use orscope_analysis::tables::{
    AmplificationTable, AsnTable, CountryTable, EmptyQuestionReport, Table10, Table3, Table4,
    Table5, Table6, Table7, Table8, Table9,
};
use orscope_analysis::{Dataset, FlowSummary, RecordSink, StreamingAnalyzer};
use orscope_authns::scheme::{ground_truth, ProbeLabel};
use orscope_authns::{CapturedPacket, Direction};
use orscope_check::Rng;
use orscope_dns_wire::wire::Reader;
use orscope_dns_wire::{Header, Message, Name, Question, RData, Rcode, Record};
use orscope_geo::{GeoDb, GeoRecord};
use orscope_netsim::{Payload, SimTime};
use orscope_prober::{ProbeStats, R2Capture};
use orscope_resolver::paper::Year;
use orscope_threatintel::{Category, ThreatDb};

fn zone() -> Name {
    "ucfsealresearch.net".parse().unwrap()
}

/// The wrong-answer address pool; the first three are threat-reported.
const WRONG_IPS: [Ipv4Addr; 6] = [
    Ipv4Addr::new(208, 91, 197, 91),
    Ipv4Addr::new(198, 51, 100, 7),
    Ipv4Addr::new(203, 0, 113, 99),
    Ipv4Addr::new(192, 0, 2, 45),
    Ipv4Addr::new(198, 18, 4, 4),
    Ipv4Addr::new(100, 64, 9, 9),
];

fn threat_db() -> ThreatDb {
    let mut db = ThreatDb::new();
    db.seed(WRONG_IPS[0], Category::Malware, 3);
    db.seed(WRONG_IPS[0], Category::Botnet, 1);
    db.seed(WRONG_IPS[1], Category::Phishing, 2);
    db.seed(WRONG_IPS[2], Category::Spam, 1);
    db
}

fn geo_db() -> GeoDb {
    let mut db = GeoDb::new();
    for (i, ip) in WRONG_IPS.iter().enumerate() {
        db.insert_exact(*ip, GeoRecord::new("VG", 64_500 + i as u32, "WrongCo"));
    }
    // Resolvers live in 10.0.<band>.x; spread them over four countries
    // and ASes so the country/AS tables have several nonzero rows.
    let bands = [
        ("US", 100, "OrgA"),
        ("DE", 200, "OrgB"),
        ("JP", 300, "OrgC"),
        ("BR", 400, "OrgD"),
    ];
    for (band, (cc, asn, org)) in bands.iter().enumerate() {
        db.insert_range(
            Ipv4Addr::new(10, 0, band as u8, 0),
            Ipv4Addr::new(10, 0, band as u8, 255),
            GeoRecord::new(*cc, *asn, *org),
        );
    }
    db
}

/// Response shapes covering every classification branch.
#[derive(Clone, Copy)]
enum Shape {
    Correct,
    WrongIp(usize),
    Url(usize),
    Str(usize),
    Refused,
    NxDomain,
    EmptyQuestion,
    Malformed,
    Garbage,
}

fn random_shape(rng: &mut Rng) -> Shape {
    match rng.range(0..9) {
        0 | 1 => Shape::Correct,
        2 | 3 => Shape::WrongIp(rng.range(0..WRONG_IPS.len())),
        4 => Shape::Url(rng.range(0..3)),
        5 => Shape::Str(rng.range(0..3)),
        6 => Shape::Refused,
        7 => match rng.range(0..3) {
            0 => Shape::NxDomain,
            1 => Shape::EmptyQuestion,
            _ => Shape::Malformed,
        },
        _ => Shape::Garbage,
    }
}

/// Builds one R2 capture; flags vary so Tables IV/V/X see both values.
fn capture(
    label: ProbeLabel,
    target: Ipv4Addr,
    at_ms: u64,
    shape: Shape,
    ra: bool,
    aa: bool,
) -> R2Capture {
    let qname = label.qname(&zone());
    let query = Message::query(1, Question::a(qname.clone()));
    let builder = Message::builder()
        .response_to(&query)
        .recursion_available(ra)
        .authoritative(aa);
    let payload = match shape {
        Shape::Correct => builder
            .answer(Record::in_class(
                qname.clone(),
                60,
                RData::A(ground_truth(label)),
            ))
            .build()
            .encode()
            .unwrap(),
        Shape::WrongIp(i) => builder
            .answer(Record::in_class(qname.clone(), 60, RData::A(WRONG_IPS[i])))
            .build()
            .encode()
            .unwrap(),
        Shape::Url(i) => builder
            .answer(Record::in_class(
                qname.clone(),
                60,
                RData::Cname(format!("u{i}.dcoin.co").parse().unwrap()),
            ))
            .build()
            .encode()
            .unwrap(),
        Shape::Str(i) => builder
            .answer(Record::in_class(
                qname.clone(),
                60,
                RData::Txt(vec![format!("wild-{i}").into_bytes()]),
            ))
            .build()
            .encode()
            .unwrap(),
        Shape::Refused => builder.rcode(Rcode::Refused).build().encode().unwrap(),
        Shape::NxDomain => builder.rcode(Rcode::NXDomain).build().encode().unwrap(),
        Shape::EmptyQuestion => {
            let mut resp = builder.rcode(Rcode::ServFail).build();
            resp.clear_questions();
            resp.encode().unwrap()
        }
        Shape::Malformed => {
            let mut wire = builder
                .answer(Record::in_class(qname.clone(), 60, RData::A(WRONG_IPS[0])))
                .build()
                .encode()
                .unwrap();
            let len = wire.len();
            wire[len - 6] = 0xFF; // corrupt RDLENGTH: header salvages, answer is N/A
            wire[len - 5] = 0xFF;
            wire
        }
        Shape::Garbage => vec![0xDE, 0xAD], // no header: dropped by both modes
    };
    let empty_question = matches!(shape, Shape::EmptyQuestion);
    R2Capture {
        target,
        label: (!empty_question).then_some(label),
        qname,
        at: SimTime::from_nanos(at_ms * 1_000_000),
        sent_at: SimTime::from_nanos(at_ms * 1_000_000 / 2),
        payload: Payload::from(payload),
    }
}

/// One event in a shard's capture-time stream.
// A few dozen per generated stream; the size gap is not worth a `Box`.
#[allow(clippy::large_enum_variant)]
enum Event {
    R2(R2Capture),
    Auth(CapturedPacket),
}

impl Event {
    fn at(&self) -> SimTime {
        match self {
            Event::R2(c) => c.at,
            Event::Auth(p) => p.at,
        }
    }
}

fn auth_packet(qname: &Name, direction: Direction, peer: Ipv4Addr, at_ms: u64) -> CapturedPacket {
    let payload = Message::query(7, Question::a(qname.clone()))
        .encode()
        .unwrap();
    CapturedPacket {
        at: SimTime::from_nanos(at_ms * 1_000_000),
        direction,
        peer,
        peer_port: 53,
        label: None,
        payload: Payload::from(payload),
    }
}

/// Generates an arbitrary capture set: per-cluster events (so shard
/// splits mirror the campaign's disjoint cluster ranges) keyed for
/// sharding, plus the flat capture/auth lists the batch oracle reads.
fn generate(seed: u64) -> Vec<(u32, Event)> {
    let mut rng = Rng::new(seed);
    let n = rng.range(6u64..54);
    let mut events = Vec::new();
    for i in 0..n {
        let cluster = (i / 6) as u32;
        let label = ProbeLabel::new(cluster, i % 6);
        let band = rng.range(0u8..4);
        let resolver = Ipv4Addr::new(10, 0, band, (i % 250) as u8 + 1);
        let at_ms = rng.range(100u64..5_100);
        let shape = random_shape(&mut rng);
        let (ra, aa) = (rng.chance(60), rng.chance(30));
        events.push((
            cluster,
            Event::R2(capture(label, resolver, at_ms, shape, ra, aa)),
        ));
        // Some flows recurse: the auth server logs 1-3 Q2s and an R1,
        // all attributed to the same cluster (and thus the same shard).
        if rng.chance(50) {
            let qname = label.qname(&zone());
            let upstream = Ipv4Addr::new(10, 0, band, 200 + (i % 50) as u8);
            for hop in 0..rng.range(1u64..=3) {
                events.push((
                    cluster,
                    Event::Auth(auth_packet(
                        &qname,
                        Direction::Inbound,
                        upstream,
                        at_ms.saturating_sub(40) + hop,
                    )),
                ));
            }
            events.push((
                cluster,
                Event::Auth(auth_packet(
                    &qname,
                    Direction::Outbound,
                    upstream,
                    at_ms.saturating_sub(20),
                )),
            ));
        }
    }
    // Foreign auth traffic: qnames outside the measurement zone.
    let foreign: Name = "stray.example.com".parse().unwrap();
    for f in 0..rng.range(0u64..4) {
        let cluster = (f % (n / 6 + 1)) as u32;
        events.push((
            cluster,
            Event::Auth(auth_packet(
                &foreign,
                if f % 2 == 0 {
                    Direction::Inbound
                } else {
                    Direction::Outbound
                },
                Ipv4Addr::new(172, 16, 0, f as u8 + 1),
                50 + f,
            )),
        ));
    }
    events
}

/// The latency quantiles both sides report.
const QUANTILES: [f64; 5] = [0.0, 0.1, 0.5, 0.9, 1.0];

/// Fingerprints the flow figures the report reads.
fn flow_fingerprint(
    recursed: u64,
    fanout: f64,
    latencies: [Option<Duration>; 5],
    foreign: u64,
) -> String {
    format!("recursed={recursed} fanout={fanout:.6} latencies={latencies:?} foreign={foreign}")
}

fn summary_fingerprint(flows: &FlowSummary) -> String {
    flow_fingerprint(
        flows.recursed_count(),
        flows.mean_q2_fanout(),
        QUANTILES.map(|q| flows.latency_quantile(q)),
        flows.foreign_auth_packets,
    )
}

/// The four-flow join as a map of vectors over the raw events: every
/// Q2 of a label, and the Q1 -> R2 latency of every R2 whose header
/// parses (the rest carry nothing to analyze) and that names a probe.
fn naive_flow_fingerprint(captures: &[R2Capture], auth: &[CapturedPacket]) -> String {
    let mut q2: BTreeMap<ProbeLabel, u64> = BTreeMap::new();
    let mut foreign = 0;
    for packet in auth {
        let label = packet.label.or_else(|| {
            let query = Message::decode(&packet.payload).ok()?;
            ProbeLabel::parse(query.first_question()?.qname(), &zone())
        });
        match label {
            Some(label) if packet.direction == Direction::Inbound => {
                *q2.entry(label).or_default() += 1
            }
            Some(_) => {}
            None => foreign += 1,
        }
    }
    let mut latencies: Vec<u64> = captures
        .iter()
        .filter(|c| Header::decode(&mut Reader::new(&c.payload)).is_ok())
        .filter(|c| c.label.is_some() || ProbeLabel::parse(&c.qname, &zone()).is_some())
        .map(|c| c.at.as_nanos().saturating_sub(c.sent_at.as_nanos()))
        .collect();
    latencies.sort_unstable();
    let recursed = q2.len() as u64;
    let fanout = match recursed {
        0 => 0.0,
        n => q2.values().sum::<u64>() as f64 / n as f64,
    };
    let quantiles = QUANTILES.map(|q| {
        let last = latencies.len().checked_sub(1)?;
        Some(Duration::from_nanos(
            latencies[(last as f64 * q).round() as usize],
        ))
    });
    flow_fingerprint(recursed, fanout, quantiles, foreign)
}

/// The batch oracle: buffer everything, classify through `Dataset`,
/// render every table.
fn batch_fingerprint(events: &[(u32, Event)], geo: &GeoDb, threat: &ThreatDb) -> String {
    let captures: Vec<R2Capture> = events
        .iter()
        .filter_map(|(_, e)| match e {
            Event::R2(c) => Some(c.clone()),
            Event::Auth(_) => None,
        })
        .collect();
    let mut auth: Vec<CapturedPacket> = events
        .iter()
        .filter_map(|(_, e)| match e {
            Event::Auth(p) => Some(p.clone()),
            Event::R2(_) => None,
        })
        .collect();
    auth.sort_by_key(|p| p.at);
    let ds = Dataset::from_captures(
        Year::Y2018,
        1_000.0,
        captures.len() as u64,
        auth.len() as u64,
        auth.len() as u64,
        60.0,
        &captures,
        ProbeStats::default(),
    );
    format!(
        "r2={} t3={} t4={} t5={} t6={} t7={} t8={} t9={} t10={} cc={} as={} amp={} eq={} flows={}",
        ds.r2(),
        Table3::measured(&ds),
        Table4::measured(&ds),
        Table5::measured(&ds),
        Table6::measured(&ds),
        Table7::measured(&ds),
        Table8::measured(&ds, geo, threat, 10),
        Table9::measured(&ds, threat),
        Table10::measured(&ds, threat),
        CountryTable::measured(&ds, geo, threat),
        AsnTable::measured(&ds, geo, threat),
        AmplificationTable::measured(&ds),
        EmptyQuestionReport::measured(&ds),
        naive_flow_fingerprint(&captures, &auth),
    )
}

/// The streaming side: split events across `shards` analyzers by
/// cluster, fold each shard's stream in capture-time order, merge the
/// analyzers in a seed-chosen permutation, render every table.
fn streaming_fingerprint(
    events: &[(u32, Event)],
    shards: usize,
    perm_seed: u64,
    geo: &GeoDb,
    threat: &ThreatDb,
) -> String {
    let mut analyzers: Vec<StreamingAnalyzer> = (0..shards)
        .map(|_| StreamingAnalyzer::new(zone(), false))
        .collect();
    for (shard, analyzer) in analyzers.iter_mut().enumerate() {
        let mut stream: Vec<&Event> = events
            .iter()
            .filter(|(cluster, _)| *cluster as usize % shards == shard)
            .map(|(_, e)| e)
            .collect();
        stream.sort_by_key(|e| e.at());
        for event in stream {
            match event {
                Event::R2(c) => analyzer.on_r2(c),
                Event::Auth(p) => analyzer.on_auth(p),
            }
        }
    }
    // Merge in an arbitrary order: shard completion order must not show.
    let mut rng = Rng::new(perm_seed);
    let mut merged = StreamingAnalyzer::new(zone(), false);
    while !analyzers.is_empty() {
        let pick = rng.range(0..analyzers.len());
        merged.absorb(analyzers.swap_remove(pick));
    }
    format!(
        "r2={} t3={} t4={} t5={} t6={} t7={} t8={} t9={} t10={} cc={} as={} amp={} eq={} flows={}",
        merged.r2_classified(),
        merged.table3(),
        merged.table4(),
        merged.table5(),
        merged.table6(),
        merged.table7(),
        merged.table8(geo, threat, 10),
        merged.table9(threat),
        merged.table10(threat),
        merged.countries(geo, threat),
        merged.asns(geo, threat),
        merged.amplification(),
        merged.empty_question(),
        summary_fingerprint(&merged.take_flows()),
    )
}

/// The property: streaming == batch for any seed, shard split, and
/// merge order.
fn check_equivalence(seed: u64, shards: usize) {
    let events = generate(seed);
    let (geo, threat) = (geo_db(), threat_db());
    let oracle = batch_fingerprint(&events, &geo, &threat);
    for perm_seed in [seed, seed.wrapping_mul(31).wrapping_add(7)] {
        let streamed = streaming_fingerprint(&events, shards, perm_seed, &geo, &threat);
        assert_eq!(
            streamed, oracle,
            "streaming diverged from batch: seed={seed} shards={shards} perm={perm_seed}"
        );
    }
}

#[test]
fn streaming_equals_batch_over_seed_sweep() {
    for seed in 0..48 {
        for shards in [1, 2, 3] {
            check_equivalence(seed, shards);
        }
    }
}

#[test]
fn merge_is_order_insensitive_for_every_permutation_of_three_shards() {
    const ORDERINGS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let events = generate(0xFEED);
    let (geo, threat) = (geo_db(), threat_db());
    let fold = |ordering: &[usize; 3]| {
        let mut analyzers: Vec<StreamingAnalyzer> = (0..3)
            .map(|_| StreamingAnalyzer::new(zone(), false))
            .collect();
        for (cluster, event) in &events {
            let shard = *cluster as usize % 3;
            match event {
                Event::R2(c) => analyzers[shard].on_r2(c),
                Event::Auth(p) => analyzers[shard].on_auth(p),
            }
        }
        let mut merged = StreamingAnalyzer::new(zone(), false);
        for &i in ordering {
            let mut part = StreamingAnalyzer::new(zone(), false);
            std::mem::swap(&mut part, &mut analyzers[i]);
            merged.absorb(part);
        }
        format!(
            "{} {} {} {}",
            merged.table3(),
            merged.table7(),
            merged.table9(&threat),
            merged.countries(&geo, &threat)
        )
    };
    let baseline = fold(&ORDERINGS[0]);
    for ordering in &ORDERINGS[1..] {
        assert_eq!(fold(ordering), baseline, "ordering {ordering:?} diverged");
    }
}

#[test]
fn retain_raw_keeps_the_stream_for_pcap_export() {
    let events = generate(17);
    let mut analyzer = StreamingAnalyzer::new(zone(), true);
    let mut expected = 0;
    for (_, event) in &events {
        if let Event::R2(c) = event {
            analyzer.on_r2(c);
            expected += 1;
        }
    }
    assert_eq!(analyzer.take_raw().len(), expected);
    assert!(analyzer.take_raw().is_empty(), "take_raw drains");
}

#[test]
fn streaming_equals_batch_on_arbitrary_streams() {
    orscope_check::cases(256, |rng| {
        check_equivalence(rng.range(0..1_000_000), rng.range(1..4));
    });
}
