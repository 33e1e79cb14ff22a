//! A step-by-step recursive resolution trace (Fig. 1) plus the four-flow
//! capture view of the measurement methodology (Fig. 2).
//!
//! Builds the root / TLD / authoritative hierarchy, puts a single honest
//! open resolver in front of it, sends one probe query, and prints every
//! packet the simulation delivers, labeled with its role in the paper's
//! Q1/Q2/R1/R2 taxonomy.
//!
//! ```sh
//! cargo run --release --example resolution_trace
//! ```

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

use orscope_authns::scheme::{ProbeLabel, CLUSTER_CAPACITY};
use orscope_authns::{
    AuthoritativeServer, CaptureHandle, CapturedPacket, ClusterZone, DelegationServer, R2Capture,
    RecordSink, Zone,
};
use orscope_dns_wire::{Message, Name, Question};
use orscope_netsim::{Context, Datagram, Endpoint, FixedLatency, SimNet, SimTime};
use orscope_resolver::{ProfiledResolver, ResponsePolicy};

const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const TLD: Ipv4Addr = Ipv4Addr::new(192, 5, 6, 30);
const AUTH: Ipv4Addr = Ipv4Addr::new(104, 238, 191, 60);
const RESOLVER: Ipv4Addr = Ipv4Addr::new(74, 0, 0, 1);
const PROBER: Ipv4Addr = Ipv4Addr::new(132, 170, 5, 53);

/// The authoritative server's capture log: every packet, in order.
#[derive(Debug, Default)]
struct Capture(Vec<CapturedPacket>);

impl RecordSink for Capture {
    fn on_r2(&mut self, _capture: &R2Capture) {}

    fn on_auth(&mut self, packet: &CapturedPacket) {
        self.0.push(packet.clone());
    }
}

/// Wraps any endpoint and logs every datagram it receives.
struct Tap<E> {
    name: &'static str,
    inner: E,
    log: Rc<RefCell<Vec<String>>>,
}

impl<E: Endpoint> Endpoint for Tap<E> {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        let summary = match Message::decode(&dgram.payload) {
            Ok(msg) => {
                let qname = msg
                    .first_question()
                    .map(|q| q.qname().to_string())
                    .unwrap_or_else(|| "<no question>".into());
                let kind = if msg.header().is_response() {
                    format!(
                        "response rcode={} answers={}",
                        msg.header().rcode(),
                        msg.header().answer_count()
                    )
                } else {
                    "query".to_owned()
                };
                format!("{kind} for {qname}")
            }
            Err(e) => format!("undecodable ({e})"),
        };
        self.log.borrow_mut().push(format!(
            "t={} {:>9}  {} -> {}:{}  {}",
            ctx.now(),
            self.name,
            dgram.src,
            dgram.dst,
            dgram.dst_port,
            summary
        ));
        self.inner.handle_datagram(dgram, ctx);
    }

    fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        self.inner.handle_timer(token, ctx);
    }
}

/// The prober side of the trace: sends Q1, prints R2.
struct MiniProber {
    log: Rc<RefCell<Vec<String>>>,
}

impl Endpoint for MiniProber {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        let msg = Message::decode(&dgram.payload).expect("R2 decodes");
        self.log.borrow_mut().push(format!(
            "t={} {:>9}  R2 received: ra={} aa={} rcode={} answer={}",
            ctx.now(),
            "prober",
            msg.header().recursion_available() as u8,
            msg.header().authoritative() as u8,
            msg.header().rcode(),
            msg.answers()
                .first()
                .map(|r| r.rdata().to_string())
                .unwrap_or_else(|| "-".into()),
        ));
    }
}

fn main() {
    let zone_name: Name = "ucfsealresearch.net".parse().expect("static");
    let ns_name: Name = "ns1.ucfsealresearch.net".parse().expect("static");
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut net = SimNet::builder()
        .seed(1)
        .latency(FixedLatency(Duration::from_millis(15)))
        .build();

    let mut root = DelegationServer::new();
    root.delegate(
        "net".parse().expect("static"),
        "a.gtld-servers.net".parse().expect("static"),
        TLD,
    );
    net.register(
        ROOT,
        Tap {
            name: "root",
            inner: root,
            log: log.clone(),
        },
    );

    let mut tld = DelegationServer::new();
    tld.delegate(zone_name.clone(), ns_name.clone(), AUTH);
    net.register(
        TLD,
        Tap {
            name: ".net TLD",
            inner: tld,
            log: log.clone(),
        },
    );

    let capture = Rc::new(RefCell::new(Capture::default()));
    let mut zone = Zone::new(zone_name.clone(), ns_name.clone());
    zone.add_a(ns_name, AUTH);
    let mut cz = ClusterZone::new(zone);
    cz.load_cluster(0, 1000);
    net.register(
        AUTH,
        Tap {
            name: "auth NS",
            inner: AuthoritativeServer::new(
                cz,
                CaptureHandle::with_sink(capture.clone()),
                CLUSTER_CAPACITY,
            ),
            log: log.clone(),
        },
    );

    net.register(
        RESOLVER,
        Tap {
            name: "resolver",
            inner: ProfiledResolver::new(ResponsePolicy::honest(), ROOT),
            log: log.clone(),
        },
    );
    net.register(PROBER, MiniProber { log: log.clone() });

    // Q1: the probe, a unique subdomain as in Fig. 3.
    let label = ProbeLabel::new(0, 42);
    let qname = label.qname(&zone_name);
    println!("Probing {RESOLVER} with qname {qname}\n");
    let query = Message::query(0x5EA1, Question::a(qname));
    net.inject(Datagram::new(
        (PROBER, 61_000),
        (RESOLVER, 53),
        query.encode().expect("encodable"),
    ));
    net.run_until_idle();

    println!("Packet trace (cf. Fig. 1 steps 1-8 and Fig. 2's Q1/Q2/R1/R2):");
    for line in log.borrow().iter() {
        println!("  {line}");
    }
    println!("\nAuthoritative-server capture (the tcpdump of Fig. 2):");
    for packet in &capture.borrow().0 {
        println!(
            "  t={} {:?} peer={}:{} {} bytes",
            packet.at,
            packet.direction,
            packet.peer,
            packet.peer_port,
            packet.payload.len()
        );
    }
    println!(
        "\nGround truth for {label}: {}",
        orscope_authns::ground_truth(label)
    );
    assert!(net.now() > SimTime::ZERO);
}
