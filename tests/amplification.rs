//! DNS amplification (§II-C): the factor an open resolver hands a
//! spoofed-source attacker.
//!
//! An attacker sends small queries with the victim's address as the
//! spoofed source; the open resolver recurses and delivers the answer to
//! the victim. Through an honest resolver and a record-rich apex (SOA,
//! NS and twenty 150-byte TXT records, as real amplification domains
//! carry), 100 queries of each kind land these bytes on the victim:
//! about 1x for `A`, 8x for `ANY`, and 44x for `ANY` once EDNS(0) lifts
//! the 512-byte cap (RFC 6891) — the "recent update" §II-C credits for
//! making amplification worse.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

use orscope_authns::scheme::CLUSTER_CAPACITY;
use orscope_authns::{
    AuthoritativeServer, CaptureHandle, CapturedPacket, ClusterZone, DelegationServer, R2Capture,
    RecordSink, Zone,
};
use orscope_dns_wire::{Message, Name, Question, RecordClass, RecordType};
use orscope_netsim::{Context, Datagram, Endpoint, FixedLatency, SimNet};
use orscope_resolver::{ProfiledResolver, ResponsePolicy};

const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const TLD: Ipv4Addr = Ipv4Addr::new(192, 5, 6, 30);
const AUTH: Ipv4Addr = Ipv4Addr::new(104, 238, 191, 60);
const RESOLVER: Ipv4Addr = Ipv4Addr::new(74, 0, 0, 1);
const VICTIM: Ipv4Addr = Ipv4Addr::new(203, 113, 0, 2);

/// The authoritative server's captures, kept as a test sink.
#[derive(Debug, Default)]
struct Packets(Vec<CapturedPacket>);

impl RecordSink for Packets {
    fn on_r2(&mut self, _capture: &R2Capture) {}

    fn on_auth(&mut self, packet: &CapturedPacket) {
        self.0.push(packet.clone());
    }
}

/// Spoofed queries of each kind.
const QUERIES: u16 = 100;

/// The victim only counts what lands on it.
struct Victim {
    bytes: Rc<RefCell<u64>>,
}

impl Endpoint for Victim {
    fn handle_datagram(&mut self, dgram: &Datagram, _ctx: &mut Context<'_>) {
        *self.bytes.borrow_mut() += dgram.wire_len() as u64;
    }
}

fn name(s: &str) -> Name {
    s.parse().expect("a valid name")
}

fn build_net() -> (SimNet, Rc<RefCell<u64>>) {
    let zone_name = name("ucfsealresearch.net");
    let ns_name = name("ns1.ucfsealresearch.net");
    let mut net = SimNet::builder()
        .seed(99)
        .latency(FixedLatency(Duration::from_millis(10)))
        .build();
    let mut root = DelegationServer::new();
    root.delegate(name("net"), name("a.gtld-servers.net"), TLD);
    net.register(ROOT, root);
    let mut tld = DelegationServer::new();
    tld.delegate(zone_name.clone(), ns_name.clone(), AUTH);
    net.register(TLD, tld);
    let mut zone = Zone::new(zone_name.clone(), ns_name.clone());
    zone.add_a(ns_name, AUTH);
    for i in 0..20 {
        zone.add_txt(
            zone_name.clone(),
            &format!("amplification-payload-{i:02}: {}", "x".repeat(120)),
        );
    }
    let mut cluster_zone = ClusterZone::new(zone);
    cluster_zone.load_cluster(0, 1000);
    let capture = CaptureHandle::with_sink(Rc::new(RefCell::new(Packets::default())));
    net.register(
        AUTH,
        AuthoritativeServer::new(cluster_zone, capture, CLUSTER_CAPACITY),
    );
    net.register(
        RESOLVER,
        ProfiledResolver::new(ResponsePolicy::honest(), ROOT),
    );
    let bytes = Rc::new(RefCell::new(0));
    let victim = Victim {
        bytes: bytes.clone(),
    };
    net.register(VICTIM, victim);
    (net, bytes)
}

/// `(attacker bytes sent, victim bytes received)` for [`QUERIES`]
/// spoofed queries of `qtype`, with an EDNS(0) 4,096-byte buffer or
/// without.
fn attack(qtype: RecordType, edns: bool) -> (u64, u64) {
    let (mut net, victim_bytes) = build_net();
    let mut sent = 0;
    for i in 0..QUERIES {
        let question = Question::new(name("ucfsealresearch.net"), qtype, RecordClass::In);
        let mut query = Message::query(i, question);
        if edns {
            query.set_edns_udp_size(4096);
        }
        let wire = query.encode().expect("encodable");
        let dgram = Datagram::new((VICTIM, 40_000 + i), (RESOLVER, 53), wire);
        sent += dgram.wire_len() as u64;
        net.inject(dgram);
    }
    net.run_until_idle();
    let received = *victim_bytes.borrow();
    (sent, received)
}

#[test]
fn spoofed_queries_amplify_as_pinned() {
    // (qtype, EDNS, attacker bytes, victim bytes, factor to 0.1x).
    let rows = [
        (RecordType::A, false, 6_500, 6_500, "1.0"),
        (RecordType::A, true, 7_600, 6_500, "0.9"),
        (RecordType::Ns, false, 6_500, 10_200, "1.6"),
        (RecordType::Ns, true, 7_600, 10_200, "1.3"),
        (RecordType::Any, false, 6_500, 50_900, "7.8"),
        (RecordType::Any, true, 7_600, 337_100, "44.4"),
    ];
    for (qtype, edns, want_sent, want_received, want_factor) in rows {
        let (sent, received) = attack(qtype, edns);
        let factor = format!("{:.1}", received as f64 / sent as f64);
        assert_eq!(
            (sent, received, factor.as_str()),
            (want_sent, want_received, want_factor),
            "{qtype} with EDNS {edns}"
        );
    }
}
