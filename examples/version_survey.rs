//! A resolver-software survey over the responding population, via the
//! `version.bind CH TXT` channel — the fingerprinting methodology of
//! Takano et al. (cited by the paper when motivating the exploitability
//! of open resolvers: old, unpatched software is the attack surface).
//!
//! After the behavioral scan identifies responders, a second, targeted
//! sweep asks each for its software banner.
//!
//! ```sh
//! cargo run --release --example version_survey
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use orscope_core::{Campaign, CampaignConfig};
use orscope_dns_wire::{Message, Question, RData, RecordClass, RecordType};
use orscope_netsim::{Context, Datagram, Endpoint, FixedLatency, SimNet, SimTime};
use orscope_resolver::paper::Year;
use orscope_resolver::{ProfiledResolver, ResolverConfig};

const SURVEYOR: Ipv4Addr = Ipv4Addr::new(132, 170, 5, 54);

struct Surveyor {
    banners: Rc<RefCell<HashMap<String, u64>>>,
    refused: Rc<RefCell<u64>>,
}

impl Endpoint for Surveyor {
    fn handle_datagram(&mut self, dgram: &Datagram, _ctx: &mut Context<'_>) {
        let Ok(msg) = Message::decode(&dgram.payload) else {
            return;
        };
        match msg.answers().first().map(|r| r.rdata()) {
            Some(RData::Txt(segments)) => {
                let banner = String::from_utf8_lossy(&segments[0]).into_owned();
                *self.banners.borrow_mut().entry(banner).or_default() += 1;
            }
            _ => *self.refused.borrow_mut() += 1,
        }
    }
}

fn main() {
    // Phase 1: the behavioral scan finds the responders.
    let result = Campaign::new(CampaignConfig::new(Year::Y2018, 2_000.0))
        .run()
        .unwrap();
    let responders: Vec<Ipv4Addr> = result.population().resolvers.addrs().collect();
    println!(
        "Phase 1: behavioral scan found {} responders; surveying their software...\n",
        responders.len()
    );

    // Phase 2: a fresh network with the same population, probed with
    // version.bind CH TXT.
    let mut net = SimNet::builder()
        .seed(42)
        .latency(FixedLatency(Duration::from_millis(8)))
        .build();
    let resolver_config = ResolverConfig::new(result.config().infra.root);
    for planned in result.population().resolvers() {
        net.register(
            planned.addr,
            ProfiledResolver::new_shared(Arc::clone(planned.policy), resolver_config.clone()),
        );
    }
    let banners = Rc::new(RefCell::new(HashMap::new()));
    let refused = Rc::new(RefCell::new(0u64));
    net.register(
        SURVEYOR,
        Surveyor {
            banners: banners.clone(),
            refused: refused.clone(),
        },
    );
    for (i, &addr) in responders.iter().enumerate() {
        let question = Question::new(
            "version.bind".parse().expect("static"),
            RecordType::Txt,
            RecordClass::Ch,
        );
        let query = Message::query(i as u16, question);
        net.inject(Datagram::new(
            (SURVEYOR, 50_000),
            (addr, 53),
            query.encode().expect("encodable"),
        ));
    }
    net.run_until_idle();
    assert!(net.now() > SimTime::ZERO);

    let banners = banners.borrow();
    let mut rows: Vec<(&String, &u64)> = banners.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1));
    let disclosed: u64 = rows.iter().map(|(_, &n)| n).sum();
    println!("{:<42} {:>8} {:>7}", "software banner", "count", "share");
    for (banner, count) in &rows {
        println!(
            "{banner:<42} {count:>8} {:>6.1}%",
            **count as f64 / disclosed as f64 * 100.0
        );
    }
    println!(
        "\n{} resolvers disclosed a version; {} refused the CH query.",
        disclosed,
        refused.borrow()
    );
    println!(
        "Version banners are exactly what amplification-botnet builders harvest:\n\
         an old BIND or dnsmasq banner marks a host that will stay exploitable."
    );
}
