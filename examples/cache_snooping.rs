//! Cache snooping: estimating what users actually ask resolvers.
//!
//! The paper's future work (§V) asks how malicious open resolvers are
//! *actually used* by legitimate users — "if no user queries the
//! malicious open resolver, the manipulated DNS record is essentially
//! meaningless." Cache snooping (RD=0 queries, which a correct resolver
//! answers only from cache) is the classical measurement for that
//! question: by probing many resolvers' caches for a set of names, one
//! estimates how widely each name is being resolved.
//!
//! This example simulates a user population issuing Zipf-distributed
//! queries through a pool of open resolvers, then snoops every resolver
//! with RD=0 probes and compares the estimated popularity ranking with
//! the true one.
//!
//! ```sh
//! cargo run --release --example cache_snooping
//! ```

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

use orscope_authns::scheme::ProbeLabel;
use orscope_authns::{AuthoritativeServer, CaptureHandle, ClusterZone, DelegationServer, Zone};
use orscope_dns_wire::{Message, Name, Question};
use orscope_netsim::{Context, Datagram, Endpoint, FixedLatency, SimNet, SimTime};
use orscope_resolver::{ProfiledResolver, ResolverConfig, ResponsePolicy};

const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const TLD: Ipv4Addr = Ipv4Addr::new(192, 5, 6, 30);
const AUTH: Ipv4Addr = Ipv4Addr::new(104, 238, 191, 60);
const SNOOPER: Ipv4Addr = Ipv4Addr::new(185, 220, 100, 7);

const RESOLVERS: u32 = 60;
const DOMAINS: u64 = 12;
const USER_QUERIES: u64 = 600;

fn zone_name() -> Name {
    "ucfsealresearch.net".parse().expect("static")
}

fn domain(i: u64) -> Name {
    ProbeLabel::new(0, i).qname(&zone_name())
}

struct Snooper {
    hits: Rc<RefCell<Vec<u64>>>,
}

impl Endpoint for Snooper {
    fn handle_datagram(&mut self, dgram: &Datagram, _ctx: &mut Context<'_>) {
        let Ok(msg) = Message::decode(&dgram.payload) else {
            return;
        };
        if msg.answers().is_empty() {
            return; // not cached there
        }
        // The snoop query id encodes the domain index.
        let idx = msg.header().id() as usize % DOMAINS as usize;
        self.hits.borrow_mut()[idx] += 1;
    }
}

fn main() {
    let mut net = SimNet::builder()
        .seed(2024)
        .latency(FixedLatency(Duration::from_millis(6)))
        .build();
    let mut root = DelegationServer::new();
    root.delegate(
        "net".parse().expect("static"),
        "a.gtld-servers.net".parse().expect("static"),
        TLD,
    );
    net.register(ROOT, root);
    let mut tld = DelegationServer::new();
    tld.delegate(
        zone_name(),
        "ns1.ucfsealresearch.net".parse().expect("static"),
        AUTH,
    );
    net.register(TLD, tld);
    let mut cz = ClusterZone::new(Zone::new(
        zone_name(),
        "ns1.ucfsealresearch.net".parse().expect("static"),
    ));
    cz.load_cluster(0, DOMAINS);
    net.register(AUTH, AuthoritativeServer::new(cz, CaptureHandle::new()));

    let resolvers: Vec<Ipv4Addr> = (0..RESOLVERS)
        .map(|i| Ipv4Addr::from(0x4A00_0100 + i)) // 74.0.1.x pool
        .collect();
    for &addr in &resolvers {
        net.register(
            addr,
            ProfiledResolver::new(ResponsePolicy::honest(), ResolverConfig::new(ROOT)),
        );
    }

    // Phase 1: user traffic. Popularity is Zipf-ish: domain d gets
    // weight 1/(d+1); users pick resolvers round-robin.
    let weights: Vec<f64> = (0..DOMAINS).map(|d| 1.0 / (d + 1) as f64).collect();
    let total_weight: f64 = weights.iter().sum();
    let mut true_counts = vec![0u64; DOMAINS as usize];
    let mut acc = 0.0f64;
    for q in 0..USER_QUERIES {
        // Low-discrepancy sampling of the Zipf distribution.
        acc = (acc + 0.618_033_988_749) % 1.0;
        let mut pick = acc * total_weight;
        let mut idx = 0usize;
        for (d, w) in weights.iter().enumerate() {
            if pick < *w {
                idx = d;
                break;
            }
            pick -= w;
            idx = d;
        }
        true_counts[idx] += 1;
        let user = Ipv4Addr::from(0x0B00_0000 + (q as u32 % 200)); // 11.0.0.x users
        let query = Message::query(q as u16, Question::a(domain(idx as u64)));
        net.inject(Datagram::new(
            (user, 40_000),
            (resolvers[(q % RESOLVERS as u64) as usize], 53),
            query.encode().expect("encodable"),
        ));
    }
    net.run_until_idle();

    // Phase 2: snoop every resolver for every domain with RD=0.
    let hits = Rc::new(RefCell::new(vec![0u64; DOMAINS as usize]));
    net.register(SNOOPER, Snooper { hits: hits.clone() });
    for d in 0..DOMAINS {
        for &addr in &resolvers {
            let mut query = Message::query(d as u16, Question::a(domain(d)));
            query.header_mut().set_recursion_desired(false);
            net.inject(Datagram::new(
                (SNOOPER, 50_000),
                (addr, 53),
                query.encode().expect("encodable"),
            ));
        }
    }
    net.run_until_idle();
    assert!(net.now() > SimTime::ZERO);

    let hits = hits.borrow();
    println!(
        "Cache snooping across {RESOLVERS} open resolvers ({USER_QUERIES} user queries, {DOMAINS} domains)\n"
    );
    println!(
        "{:<38} {:>11} {:>16}",
        "domain", "true queries", "caches holding it"
    );
    let mut order: Vec<usize> = (0..DOMAINS as usize).collect();
    order.sort_by_key(|&d| std::cmp::Reverse(true_counts[d]));
    for d in order {
        println!(
            "{:<38} {:>11} {:>10}/{RESOLVERS}",
            domain(d as u64).to_string(),
            true_counts[d],
            hits[d]
        );
    }
    // Rank agreement between true popularity and snooped cache presence.
    let mut concordant = 0u64;
    let mut pairs = 0u64;
    for a in 0..DOMAINS as usize {
        for b in (a + 1)..DOMAINS as usize {
            if true_counts[a] == true_counts[b] || hits[a] == hits[b] {
                continue;
            }
            pairs += 1;
            if (true_counts[a] > true_counts[b]) == (hits[a] > hits[b]) {
                concordant += 1;
            }
        }
    }
    println!(
        "\nRank concordance (snooped vs true): {concordant}/{pairs} pairs — the cache\n\
         footprint recovers the popularity ordering without ever seeing user\n\
         traffic. Pointed at the paper's 26,926 malicious-answer names, the same\n\
         probe would measure how many victims each malicious resolver serves."
    );
}
