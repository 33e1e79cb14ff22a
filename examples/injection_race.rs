//! Off-path record injection (cache poisoning) against an open resolver.
//!
//! The paper's related work (Schomp et al. PAM'14; Klein et al.
//! INFOCOM'17, "more than 92% of DNS resolution platforms are vulnerable
//! to cache injection") motivates one of its key observations: a
//! manipulated answer can reach users *through* an honest resolver. This
//! experiment stages that attack inside the simulator:
//!
//! 1. The attacker asks the victim resolver for a target name,
//! 2. then immediately sprays forged responses spoofing the
//!    authoritative server's address, racing the genuine answer,
//! 3. a legitimate client later asks the resolver for the same name and
//!    we check whose answer is in the cache.
//!
//! Two victim configurations are contrasted: a weak-entropy resolver
//! with *sequential* transaction IDs (pre-Kaminsky behaviour) and a
//! hardened one with randomized IDs, where the forged packet must guess
//! both the 16-bit ID and the ID-derived ephemeral port.
//!
//! ```sh
//! cargo run --release --example injection_race
//! ```

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

use orscope_authns::scheme::ProbeLabel;
use orscope_authns::{AuthoritativeServer, CaptureHandle, ClusterZone, DelegationServer, Zone};
use orscope_dns_wire::{Message, Name, Question, RData, Record};
use orscope_netsim::{Context, Datagram, Endpoint, FixedLatency, SimNet, SimTime};
use orscope_resolver::{ProfiledResolver, ResolverConfig, ResponsePolicy};

const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const TLD: Ipv4Addr = Ipv4Addr::new(192, 5, 6, 30);
const AUTH: Ipv4Addr = Ipv4Addr::new(104, 238, 191, 60);
const RESOLVER: Ipv4Addr = Ipv4Addr::new(74, 0, 0, 1);
const ATTACKER: Ipv4Addr = Ipv4Addr::new(185, 220, 100, 1);
const CLIENT: Ipv4Addr = Ipv4Addr::new(131, 94, 0, 9);
const EVIL: Ipv4Addr = Ipv4Addr::new(208, 91, 197, 91);

/// Forged responses per wave; waves are spread over the resolution
/// window so some land while the resolver is awaiting the
/// authoritative answer.
const WAVE_SIZE: u16 = 64;
/// Number of waves (one every 5 ms across the ~70 ms resolution).
const WAVES: u64 = 20;

fn zone_name() -> Name {
    "ucfsealresearch.net".parse().expect("static")
}

/// The off-path attacker: fires timed waves of forged responses, each
/// spoofing the authoritative server's address and guessing the
/// resolver's transaction id (and therefore its ephemeral port).
struct Attacker {
    qname: Name,
    sequential_window: bool,
}

impl Endpoint for Attacker {
    fn handle_datagram(&mut self, _dgram: &Datagram, _ctx: &mut Context<'_>) {}

    fn handle_timer(&mut self, wave: u64, ctx: &mut Context<'_>) {
        for i in 0..WAVE_SIZE {
            // Against a sequential allocator, low IDs are where the
            // resolver lives (1 = root leg, 2 = TLD leg, 3 = auth leg).
            // Against a randomized one this window is just a blind stab.
            let txn = if self.sequential_window {
                i + 1
            } else {
                (wave as u16)
                    .wrapping_mul(64)
                    .wrapping_add(i)
                    .wrapping_mul(131)
                    .max(1)
            };
            let mut forged = Message::builder()
                .id(txn)
                .question(Question::a(self.qname.clone()))
                .authoritative(true)
                .answer(Record::in_class(self.qname.clone(), 3600, RData::A(EVIL)))
                .build();
            forged.header_mut().set_response(true);
            let dst_port = 32_768 + (txn & 0x3FFF);
            ctx.send(Datagram::new(
                (AUTH, 53), // spoofed source!
                (RESOLVER, dst_port),
                forged.encode().expect("encodable"),
            ));
        }
    }
}

struct Client {
    answers: Rc<RefCell<Vec<Ipv4Addr>>>,
}

impl Endpoint for Client {
    fn handle_datagram(&mut self, dgram: &Datagram, _ctx: &mut Context<'_>) {
        if let Ok(msg) = Message::decode(&dgram.payload) {
            if let Some(addr) = msg.answers().first().and_then(|r| r.rdata().as_a()) {
                self.answers.borrow_mut().push(addr);
            }
        }
    }
}

/// Runs one poisoning attempt; returns the address the later legitimate
/// client received.
fn attempt(randomize_txn: bool, dns0x20: bool, trial: u64) -> Ipv4Addr {
    let mut net = SimNet::builder()
        .seed(1000 + trial)
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
    cz.load_cluster(0, 1000);
    net.register(AUTH, AuthoritativeServer::new(cz, CaptureHandle::new()));

    let config = ResolverConfig {
        randomize_txn,
        dns0x20,
        ..ResolverConfig::new(ROOT)
    };
    net.register(
        RESOLVER,
        ProfiledResolver::new(ResponsePolicy::honest(), config),
    );
    let answers = Rc::new(RefCell::new(Vec::new()));
    net.register(
        CLIENT,
        Client {
            answers: answers.clone(),
        },
    );

    // Unique name per trial so caches never carry over.
    let label = ProbeLabel::new(0, trial);
    let qname = label.qname(&zone_name());

    // Step 1: the attacker triggers resolution...
    net.register(
        ATTACKER,
        Attacker {
            qname: qname.clone(),
            sequential_window: !randomize_txn,
        },
    );
    let trigger = Message::query(0x0BAD, Question::a(qname.clone()));
    net.inject(Datagram::new(
        (ATTACKER, 50_000),
        (RESOLVER, 53),
        trigger.encode().expect("encodable"),
    ));
    // ...and step 2: sprays forged waves across the resolution window,
    // racing the genuine authoritative answer (which needs ~70 ms of
    // root/TLD/auth round trips).
    for wave in 0..WAVES {
        net.set_timer_for(ATTACKER, SimTime::from_nanos(wave * 5_000_000), wave);
    }
    net.run_until_idle();

    // Step 3: a legitimate client asks for the (now cached) name.
    let query = Message::query(0x1234, Question::a(qname));
    net.inject(Datagram::new(
        (CLIENT, 40_000),
        (RESOLVER, 53),
        query.encode().expect("encodable"),
    ));
    net.run_until_idle();
    assert!(net.now() > SimTime::ZERO);
    let got = answers.borrow().first().copied();
    got.unwrap_or(Ipv4Addr::UNSPECIFIED)
}

fn main() {
    const TRIALS: u64 = 40;
    println!(
        "Off-path record injection: {} forged packets per attempt, {TRIALS} trials\n",
        WAVE_SIZE as u64 * WAVES
    );
    for (label, randomize, dns0x20) in [
        ("sequential txn ids (weak)", false, false),
        ("sequential ids + DNS 0x20", false, true),
        ("randomized txn ids", true, false),
    ] {
        let mut poisoned = 0u64;
        for trial in 0..TRIALS {
            let got = attempt(randomize, dns0x20, trial);
            let truth = orscope_authns::ground_truth(ProbeLabel::new(0, trial));
            if got == EVIL {
                poisoned += 1;
            } else {
                assert_eq!(got, truth, "client got neither truth nor poison");
            }
        }
        println!(
            "  {label:<27} poisoned {poisoned}/{TRIALS} caches ({:.0}%)",
            poisoned as f64 / TRIALS as f64 * 100.0
        );
    }
    println!(
        "\nWith sequential IDs the forged answer wins the race almost every\n\
         time. Either entropy channel alone — randomized IDs (16 bits) or\n\
         DNS 0x20 case scrambling (one bit per letter of the qname) — stops\n\
         this blind spray; real hardened resolvers stack both. The record-\n\
         injection studies the paper cites found much of the 2014-2017\n\
         population deployed neither."
    );
}
