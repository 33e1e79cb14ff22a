//! DNS amplification (§II-C): measure the amplification factor an open
//! resolver provides to a spoofed-source attacker.
//!
//! An attacker sends small `ANY` queries with the victim's address as
//! the spoofed source; the open resolver recurses and delivers the large
//! answer to the victim. This example builds the hierarchy, sends both
//! `A` and `ANY` attack streams through an honest open resolver, and
//! reports bytes-in vs bytes-out at the victim.
//!
//! ```sh
//! cargo run --release --example amplification
//! ```

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

use orscope_authns::{AuthoritativeServer, CaptureHandle, ClusterZone, DelegationServer, Zone};
use orscope_dns_wire::{Message, Name, Question, RecordType};
use orscope_netsim::{Context, Datagram, Endpoint, FixedLatency, SimNet, SimTime};
use orscope_resolver::{ProfiledResolver, ResolverConfig, ResponsePolicy};

const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const TLD: Ipv4Addr = Ipv4Addr::new(192, 5, 6, 30);
const AUTH: Ipv4Addr = Ipv4Addr::new(104, 238, 191, 60);
const RESOLVER: Ipv4Addr = Ipv4Addr::new(74, 0, 0, 1);
const VICTIM: Ipv4Addr = Ipv4Addr::new(203, 113, 0, 2);

/// The victim only counts what lands on it.
struct Victim {
    bytes: Rc<RefCell<u64>>,
}

impl Endpoint for Victim {
    fn handle_datagram(&mut self, dgram: &Datagram, _ctx: &mut Context<'_>) {
        *self.bytes.borrow_mut() += dgram.wire_len() as u64;
    }
}

fn build_net() -> (SimNet, Rc<RefCell<u64>>) {
    let zone_name: Name = "ucfsealresearch.net".parse().expect("static");
    let ns_name: Name = "ns1.ucfsealresearch.net".parse().expect("static");
    let mut net = SimNet::builder()
        .seed(99)
        .latency(FixedLatency(Duration::from_millis(10)))
        .build();
    let mut root = DelegationServer::new();
    root.delegate(
        "net".parse().expect("static"),
        "a.gtld-servers.net".parse().expect("static"),
        TLD,
    );
    net.register(ROOT, root);
    let mut tld = DelegationServer::new();
    tld.delegate(zone_name.clone(), ns_name.clone(), AUTH);
    net.register(TLD, tld);
    // A record-rich apex: SOA + NS + a pile of TXT, as real amplification
    // domains carry.
    let mut zone = Zone::new(zone_name, ns_name.clone());
    zone.add_a(ns_name, AUTH);
    for i in 0..20 {
        zone.add_txt(
            "ucfsealresearch.net".parse().expect("static"),
            &format!("amplification-payload-{i:02}: {}", "x".repeat(120)),
        );
    }
    let mut cz = ClusterZone::new(zone);
    cz.load_cluster(0, 1000);
    net.register(AUTH, AuthoritativeServer::new(cz, CaptureHandle::new()));
    net.register(
        RESOLVER,
        ProfiledResolver::new(ResponsePolicy::honest(), ResolverConfig::new(ROOT)),
    );
    let bytes = Rc::new(RefCell::new(0u64));
    net.register(
        VICTIM,
        Victim {
            bytes: bytes.clone(),
        },
    );
    (net, bytes)
}

fn attack(qtype: RecordType, queries: u32, edns: bool) -> (u64, u64) {
    let (mut net, victim_bytes) = build_net();
    let mut attacker_bytes = 0u64;
    for i in 0..queries {
        // Spoofed source: the victim. The resolver's answer lands there.
        let question = Question::new(
            "ucfsealresearch.net".parse().expect("static"),
            qtype,
            orscope_dns_wire::RecordClass::In,
        );
        let mut query = Message::query(i as u16, question);
        if edns {
            // EDNS(0) lifts the 512-byte cap (RFC 6891) — the "recent
            // update" §II-C credits for making amplification worse.
            query.set_edns_udp_size(4096);
        }
        let wire = query.encode().expect("encodable");
        let dgram = Datagram::new((VICTIM, 40_000 + i as u16), (RESOLVER, 53), wire);
        attacker_bytes += dgram.wire_len() as u64;
        net.inject(dgram);
    }
    net.run_until_idle();
    assert!(net.now() > SimTime::ZERO);
    let received = *victim_bytes.borrow();
    (attacker_bytes, received)
}

fn main() {
    println!("DNS amplification through an open resolver (spoofed-source ANY attack)\n");
    println!(
        "{:<8} {:<6} {:>14} {:>16} {:>14}",
        "qtype", "edns", "attacker sent", "victim received", "amplification"
    );
    for qtype in [RecordType::A, RecordType::Ns, RecordType::Any] {
        for edns in [false, true] {
            let (sent, received) = attack(qtype, 100, edns);
            println!(
                "{:<8} {:<6} {:>12} B {:>14} B {:>13.1}x",
                qtype.to_string(),
                if edns { "4096" } else { "off" },
                sent,
                received,
                received as f64 / sent as f64
            );
        }
    }
    println!(
        "\nThe ANY query turns a ~75-byte spoofed packet into a kilobyte-class\n\
         response at the victim — the lever behind the 75 Gbps Spamhaus attack\n\
         the paper cites. The resolver, not the attacker, pays the bandwidth."
    );
}
