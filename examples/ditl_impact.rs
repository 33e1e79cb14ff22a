//! Measuring the *actual* impact of malicious open resolvers — the
//! paper's stated follow-up (§V): "we plan to conduct a follow-up
//! analysis to investigate the actual use of malicious open resolvers
//! with the annual Day In The Life of the Internet (DITL) collection."
//!
//! DITL captures traffic at the root servers. This example stages the
//! whole study: a user population issues queries through the calibrated
//! 2018 open-resolver population (a few users are configured — by
//! malware or bad luck — to use threat-listed resolvers), the root
//! server's traffic is captured DITL-style, and the analysis joins the
//! three vantage points:
//!
//! 1. client-side: how many users actually received manipulated answers,
//! 2. resolver-side: which malicious resolvers served real traffic,
//! 3. root-side: what fraction of the abuse is even *visible* at the
//!    root (malicious resolvers answer from configuration and never
//!    recurse — the paper's point that passive root data alone
//!    underestimates them).
//!
//! ```sh
//! cargo run --release --example ditl_impact
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::Arc;

use orscope_authns::scheme::ProbeLabel;
use orscope_authns::{AuthoritativeServer, CaptureHandle, ClusterZone, DelegationServer, Zone};
use orscope_core::{Campaign, CampaignConfig};
use orscope_dns_wire::{Message, Name, Question};
use orscope_netsim::{Context, Datagram, Endpoint, HashLatency, SimNet, SimTime};
use orscope_resolver::paper::Year;
use orscope_resolver::{ProfiledResolver, ResolverConfig};

const USERS: u64 = 400;
const QUERIES_PER_USER: u64 = 5;

fn zone_name() -> Name {
    "ucfsealresearch.net".parse().expect("static")
}

/// Wraps the root server and counts inbound queries (the DITL capture).
struct DitlTap<E> {
    inner: E,
    queries: Rc<RefCell<u64>>,
    sources: Rc<RefCell<HashMap<Ipv4Addr, u64>>>,
}

impl<E: Endpoint> Endpoint for DitlTap<E> {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        if dgram.dst_port == 53 {
            *self.queries.borrow_mut() += 1;
            *self.sources.borrow_mut().entry(dgram.src).or_default() += 1;
        }
        self.inner.handle_datagram(dgram, ctx);
    }
    fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        self.inner.handle_timer(token, ctx);
    }
}

/// A user: queries its configured resolver and checks the answers.
struct User {
    resolver: Ipv4Addr,
    wrong_answers: Rc<RefCell<u64>>,
    answers: Rc<RefCell<u64>>,
}

impl Endpoint for User {
    fn handle_datagram(&mut self, dgram: &Datagram, _ctx: &mut Context<'_>) {
        let Ok(msg) = Message::decode(&dgram.payload) else {
            return;
        };
        let Some(label) = msg
            .first_question()
            .and_then(|q| ProbeLabel::parse(q.qname(), &zone_name()))
        else {
            return;
        };
        if let Some(addr) = msg.answers().first().and_then(|r| r.rdata().as_a()) {
            *self.answers.borrow_mut() += 1;
            if addr != orscope_authns::ground_truth(label) {
                *self.wrong_answers.borrow_mut() += 1;
            }
        }
    }
    fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        // One query per timer tick; token carries the domain index.
        let label = ProbeLabel::new(0, token % 500);
        let query = Message::query(token as u16, Question::a(label.qname(&zone_name())));
        ctx.send(Datagram::new(
            (ctx.local_addr(), 40_000 + (token % 20_000) as u16),
            (self.resolver, 53),
            query.encode().expect("encodable"),
        ));
    }
}

fn main() {
    // The calibrated 2018 population (1:2000 -> ~3,250 resolvers).
    let scan = Campaign::new(CampaignConfig::new(Year::Y2018, 2_000.0))
        .run()
        .unwrap();
    let population = scan.population();
    let infra = &scan.config().infra;

    // Rebuild the world with the DITL tap on the root.
    let mut net = SimNet::builder()
        .seed(0xD17)
        .latency(HashLatency::internet(0xD17))
        .build();
    let root_queries = Rc::new(RefCell::new(0u64));
    let root_sources = Rc::new(RefCell::new(HashMap::new()));
    let mut root = DelegationServer::new();
    root.delegate(
        "net".parse().expect("static"),
        "a.gtld-servers.net".parse().expect("static"),
        infra.tld,
    );
    net.register(
        infra.root,
        DitlTap {
            inner: root,
            queries: root_queries.clone(),
            sources: root_sources.clone(),
        },
    );
    let mut tld = DelegationServer::new();
    tld.delegate(zone_name(), infra.auth_ns_name.clone(), infra.auth);
    net.register(infra.tld, tld);
    let mut cz = ClusterZone::new(Zone::new(zone_name(), infra.auth_ns_name.clone()));
    cz.load_cluster(0, 500);
    net.register(
        infra.auth,
        AuthoritativeServer::new(cz, CaptureHandle::new()),
    );
    let resolver_config = ResolverConfig::new(infra.root);
    for planned in population.resolvers() {
        net.register(
            planned.addr,
            ProfiledResolver::new_shared(Arc::clone(planned.policy), resolver_config.clone()),
        );
    }

    // Users pick resolvers: most land on well-behaved ones, a slice is
    // pointed (by malware, per the paper's threat model) at malicious
    // resolvers.
    let malicious: Vec<Ipv4Addr> = population
        .resolvers()
        .filter(|r| r.policy.malicious_category.is_some())
        .map(|r| r.addr)
        .collect();
    let honest: Vec<Ipv4Addr> = population
        .resolvers()
        .filter(|r| r.policy.recurses())
        .map(|r| r.addr)
        .collect();
    let wrong_answers = Rc::new(RefCell::new(0u64));
    let answers = Rc::new(RefCell::new(0u64));
    let mut users_on_malicious = 0u64;
    for u in 0..USERS {
        let user_addr = Ipv4Addr::from(0x0C00_0000 + u as u32); // 12.0.0.x
                                                                // 6% of users are (unknowingly) configured onto a malicious
                                                                // resolver — the DNS-changer malware scenario.
        let resolver = if u % 16 == 0 && !malicious.is_empty() {
            users_on_malicious += 1;
            malicious[(u / 16) as usize % malicious.len()]
        } else {
            honest[u as usize % honest.len()]
        };
        net.register(
            user_addr,
            User {
                resolver,
                wrong_answers: wrong_answers.clone(),
                answers: answers.clone(),
            },
        );
        for q in 0..QUERIES_PER_USER {
            net.set_timer_for(
                user_addr,
                SimTime::from_nanos((u * QUERIES_PER_USER + q) * 3_000_000),
                u * QUERIES_PER_USER + q,
            );
        }
    }
    net.run_until_idle();

    let total_queries = USERS * QUERIES_PER_USER;
    let wrong = *wrong_answers.borrow();
    let answered = *answers.borrow();
    let root_seen = *root_queries.borrow();
    let malicious_set: std::collections::HashSet<_> = malicious.iter().collect();
    let malicious_at_root = root_sources
        .borrow()
        .keys()
        .filter(|src| malicious_set.contains(src))
        .count();

    println!("DITL-style impact study over the calibrated 2018 population\n");
    println!("  users                          : {USERS} ({users_on_malicious} behind malicious resolvers)");
    println!("  user queries issued            : {total_queries}");
    println!("  answers received               : {answered}");
    println!(
        "  manipulated answers at clients : {wrong} ({:.1}% of answers)",
        wrong as f64 / answered.max(1) as f64 * 100.0
    );
    println!("  root-visible resolver queries  : {root_seen} (the DITL vantage)");
    println!(
        "  malicious resolvers at root    : {malicious_at_root} of {}",
        malicious.len()
    );
    println!(
        "\nThe asymmetry is the finding: every query a victim sends to a\n\
         malicious resolver is answered from canned data, so the root —\n\
         DITL's vantage — sees {malicious_at_root} of the {} malicious resolvers. Passive\n\
         root collections alone cannot size this threat; the paper's active\n\
         behavioral probing is what exposes it.",
        malicious.len()
    );
    assert!(wrong > 0, "victims received manipulated answers");
    assert_eq!(malicious_at_root, 0, "malicious resolvers never recurse");
}
