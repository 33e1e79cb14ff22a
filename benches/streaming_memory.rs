//! Peak live memory of the capture→tables path, batch vs streaming,
//! written to `BENCH_streaming.json` at the repo root.
//!
//! Both arms consume the identical synthetic capture stream (R2
//! responses with realistic multi-record answers, plus auth-server
//! Q2/R1 packets and foreign traffic) and finish with every table plus
//! the flow join. The batch arm buffers the stream and analyzes through
//! `Dataset::from_captures` + `FlowSummary::from_records` — the original
//! pipeline. The streaming arm folds each packet into a
//! `StreamingAnalyzer` the moment it is produced, so payloads die
//! immediately and the peak is the accumulator state alone.
//!
//! A counting global allocator tracks live bytes (alloc minus dealloc)
//! and the high-water mark; the reported figure for each arm is peak
//! live bytes above the arm's starting baseline. A plain `main`, not a
//! timing harness: the deliverable is the JSON artifact. `--smoke`
//! shrinks the workload for CI liveness checks.

use std::net::Ipv4Addr;

use orscope_analysis::tables::{
    AmplificationTable, AsnTable, CountryTable, EmptyQuestionReport, Table10, Table3, Table4,
    Table5, Table6, Table7, Table8, Table9,
};
use orscope_analysis::{Dataset, FlowSummary, RecordSink, StreamingAnalyzer};
use orscope_authns::scheme::{ground_truth, ProbeLabel};
use orscope_authns::{CapturedPacket, Direction};
use orscope_check::alloc::{peak_above, reset_peak, CountingAlloc};
use orscope_dns_wire::{Message, Name, Question, RData, Rcode, Record};
use orscope_geo::{GeoDb, GeoRecord};
use orscope_netsim::{Payload, SimTime};
use orscope_prober::{ProbeStats, R2Capture};
use orscope_resolver::paper::Year;
use orscope_threatintel::{Category, ThreatDb};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn zone() -> Name {
    "ucfsealresearch.net".parse().unwrap()
}

const WRONG_IPS: [Ipv4Addr; 4] = [
    Ipv4Addr::new(208, 91, 197, 91),
    Ipv4Addr::new(198, 51, 100, 7),
    Ipv4Addr::new(203, 0, 113, 99),
    Ipv4Addr::new(192, 0, 2, 45),
];

fn threat_db() -> ThreatDb {
    let mut db = ThreatDb::new();
    db.seed(WRONG_IPS[0], Category::Malware, 3);
    db.seed(WRONG_IPS[1], Category::Phishing, 2);
    db
}

fn geo_db() -> GeoDb {
    let mut db = GeoDb::new();
    for (i, ip) in WRONG_IPS.iter().enumerate() {
        db.insert_exact(*ip, GeoRecord::new("VG", 64_500 + i as u32, "WrongCo"));
    }
    db.insert_range(
        Ipv4Addr::new(10, 0, 0, 0),
        Ipv4Addr::new(10, 255, 255, 255),
        GeoRecord::new("US", 100, "OrgA"),
    );
    db
}

/// One event of the capture stream, in capture-time order.
// Built, handed to the consumer and dropped one at a time: boxing the
// R2 arm would add an allocation to the very count this bench takes.
#[allow(clippy::large_enum_variant)]
enum Event {
    R2(R2Capture),
    Auth(CapturedPacket),
}

/// Replays the seeded stream of `responses` R2 captures (plus the
/// recursive flows' auth packets) into `consume`, one event at a time —
/// the shape of the capture-time sink interface. Payload construction
/// is identical across arms; only what the consumer retains differs.
fn replay(seed: u64, responses: u64, mut consume: impl FnMut(Event)) {
    let zone = zone();
    let mut rng = orscope_check::Rng::new(seed);
    for i in 0..responses {
        let label = ProbeLabel::new((i % 1000) as u32, i / 1000);
        let qname = label.qname(&zone);
        let resolver = Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8);
        let at_ms = rng.range(100u64..600_100);
        let query = Message::query(1, Question::a(qname.clone()));
        let mut builder = Message::builder()
            .response_to(&query)
            .recursion_available(rng.chance(80));
        // A realistic answer section: the honest majority echo the
        // ground truth plus the zone's full NS delegation set with glue
        // (the shape that makes open resolvers amplifiers); a slice
        // redirect to the wrong-IP pool; a few refuse.
        let shape = rng.range(0..100);
        if shape < 78 {
            builder = builder.answer(Record::in_class(
                qname.clone(),
                60,
                RData::A(ground_truth(label)),
            ));
            for ns in 0..6 {
                builder = builder
                    .authority(Record::in_class(
                        zone.clone(),
                        3600,
                        RData::Ns(format!("ns{ns}.ucfsealresearch.net").parse().unwrap()),
                    ))
                    .additional(Record::in_class(
                        format!("ns{ns}.ucfsealresearch.net").parse().unwrap(),
                        3600,
                        RData::A(Ipv4Addr::new(45, 77, 1, ns as u8 + 1)),
                    ));
            }
        } else if shape < 90 {
            builder = builder.authoritative(true).answer(Record::in_class(
                qname.clone(),
                60,
                RData::A(WRONG_IPS[(i % WRONG_IPS.len() as u64) as usize]),
            ));
        } else {
            builder = builder.rcode(Rcode::Refused);
        }
        let payload = builder.build().encode().unwrap();
        // A third of the flows recurse: two Q2 hops and an R1 hit the
        // authoritative capture point before the R2 lands.
        if i % 3 == 0 {
            let upstream = Ipv4Addr::new(10, 200, (i >> 8) as u8, i as u8);
            let q2 = Message::query(7, Question::a(qname.clone()))
                .encode()
                .unwrap();
            for hop in 0..2u64 {
                consume(Event::Auth(CapturedPacket {
                    at: SimTime::from_nanos((at_ms - 40 + hop) * 1_000_000),
                    direction: Direction::Inbound,
                    peer: upstream,
                    peer_port: 53,
                    label: None,
                    payload: Payload::from(q2.clone()),
                }));
            }
            consume(Event::Auth(CapturedPacket {
                at: SimTime::from_nanos((at_ms - 20) * 1_000_000),
                direction: Direction::Outbound,
                peer: upstream,
                peer_port: 53,
                label: None,
                payload: Payload::from(q2),
            }));
        }
        consume(Event::R2(R2Capture {
            target: resolver,
            label: Some(label),
            qname,
            at: SimTime::from_nanos(at_ms * 1_000_000),
            sent_at: SimTime::from_nanos(at_ms * 500_000),
            payload: Payload::from(payload),
        }));
    }
}

/// Renders every table — both arms must do identical finishing work.
#[allow(clippy::too_many_arguments)]
fn render_tables(
    r2: u64,
    t3: Table3,
    t4: Table4,
    t5: Table5,
    t6: Table6,
    t7: Table7,
    t8: Table8,
    t9: Table9,
    t10: Table10,
    cc: CountryTable,
    asn: AsnTable,
    amp: AmplificationTable,
    eq: EmptyQuestionReport,
    flows: &FlowSummary,
) -> String {
    format!(
        "r2={r2} {t3} {t4} {t5} {t6} {t7} {t8} {t9} {t10} {cc} {asn} {amp} {eq} \
         flows={} fanout={:.4} median={:?} foreign={}",
        flows.recursed_count(),
        flows.mean_q2_fanout(),
        flows.latency_quantile(0.5),
        flows.foreign_auth_packets,
    )
}

/// The original pipeline: buffer the whole stream, then classify and
/// derive every table. Returns (peak live bytes, rendered tables).
fn batch_arm(seed: u64, responses: u64, geo: &GeoDb, threat: &ThreatDb) -> (usize, String) {
    let baseline = reset_peak();
    let mut captures = Vec::new();
    let mut auth = Vec::new();
    replay(seed, responses, |event| match event {
        Event::R2(c) => captures.push(c),
        Event::Auth(p) => auth.push(p),
    });
    auth.sort_by_key(|p| p.at);
    let ds = Dataset::from_captures(
        Year::Y2018,
        1_000.0,
        responses,
        auth.len() as u64,
        auth.len() as u64,
        600.0,
        &captures,
        ProbeStats::default(),
    );
    drop(captures);
    let flows = FlowSummary::from_records(&ds.records, &auth, &zone());
    let rendered = render_tables(
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
        &flows,
    );
    (peak_above(baseline), rendered)
}

/// The streaming pipeline: every event folds into the analyzer as it is
/// produced and its payload drops immediately.
fn streaming_arm(seed: u64, responses: u64, geo: &GeoDb, threat: &ThreatDb) -> (usize, String) {
    let baseline = reset_peak();
    let mut analyzer = StreamingAnalyzer::new(zone(), false);
    replay(seed, responses, |event| match event {
        Event::R2(c) => analyzer.on_r2(&c),
        Event::Auth(p) => analyzer.on_auth(&p),
    });
    // Tables first, then drain the flow summary — the order the
    // campaign uses.
    let r2 = analyzer.r2_classified();
    let t3 = analyzer.table3();
    let t4 = analyzer.table4();
    let t5 = analyzer.table5();
    let t6 = analyzer.table6();
    let t7 = analyzer.table7();
    let t8 = analyzer.table8(geo, threat, 10);
    let t9 = analyzer.table9(threat);
    let t10 = analyzer.table10(threat);
    let cc = analyzer.countries(geo, threat);
    let asn = analyzer.asns(geo, threat);
    let amp = analyzer.amplification();
    let eq = analyzer.empty_question();
    let flows = analyzer.take_flows();
    let rendered = render_tables(
        r2, t3, t4, t5, t6, t7, t8, t9, t10, cc, asn, amp, eq, &flows,
    );
    (peak_above(baseline), rendered)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scales: [u64; 2] = if smoke {
        [2_000, 10_000]
    } else {
        [20_000, 200_000]
    };
    let (geo, threat) = (geo_db(), threat_db());

    let mut entries = String::new();
    let mut last_ratio = 0f64;
    for (i, responses) in scales.iter().enumerate() {
        let (batch_peak, batch_tables) = batch_arm(42, *responses, &geo, &threat);
        let (stream_peak, stream_tables) = streaming_arm(42, *responses, &geo, &threat);
        assert_eq!(
            batch_tables, stream_tables,
            "the two arms must compute identical tables"
        );
        let ratio = batch_peak as f64 / stream_peak.max(1) as f64;
        last_ratio = ratio;
        eprintln!(
            "{responses:>7} responses: batch peak {:>12} B  streaming peak {:>12} B  ({ratio:.1}x)",
            batch_peak, stream_peak
        );
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\n      \"responses\": {responses},\n      \
             \"batch_peak_live_bytes\": {batch_peak},\n      \
             \"streaming_peak_live_bytes\": {stream_peak},\n      \
             \"batch_over_streaming\": {ratio:.2}\n    }}"
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"streaming_memory\",\n  \"smoke\": {smoke},\n  \
         \"metric\": \"peak live capture/analysis bytes above baseline\",\n  \
         \"scales\": [\n{entries}\n  ]\n}}\n"
    );
    assert!(
        last_ratio >= 5.0,
        "streaming must hold peak live bytes at least 5x below batch \
         at the largest scale (got {last_ratio:.2}x)"
    );
    if smoke {
        // CI liveness check: exercise everything, commit nothing.
        eprintln!("{json}");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_streaming.json");
    std::fs::write(path, json).expect("write BENCH_streaming.json");
    eprintln!("wrote {path}");
}
