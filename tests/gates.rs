//! The count and allocation gates, as one table: on `workload`,
//! `counter` may not exceed `budget`; `pinned` is what it measured when
//! the row was last re-pinned. A row whose budget equals its pinned
//! figure is exact — the counter may move in neither direction — which
//! is how the simulator's books are held field for field. A change that
//! moves a figure on purpose edits its row and says why.
//!
//! Every figure repeats exactly from run to run. The target is a plain
//! `main` (`harness = false`) that walks the workloads serially, because
//! the allocator counts process-wide and a test harness's own thread
//! would allocate inside the counted window:
//! `cargo test --offline --test gates` prints each workload's ledger.

use std::net::Ipv4Addr;

use orscope_analysis::{RecordSink, StreamingAnalyzer};
use orscope_authns::scheme::ProbeLabel;
use orscope_authns::{CapturedPacket, Direction};
use orscope_check::alloc::{
    allocs, live_bytes, peak_above, requested_bytes, reset_peak, CountingAlloc,
};
use orscope_core::{Campaign, CampaignConfig};
use orscope_dns_wire::{Message, Name, Question};
use orscope_json::Wire;
use orscope_netsim::{Payload, SimTime};
use orscope_observe::{Observatory, ObservatoryCheckpoint, RollingTables, ServeConfig};
use orscope_resolver::paper::Year;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `(workload, counter, budget, pinned)`.
const GATES: &[(&str, &str, f64, f64)] = &[
    // `dense`: a one-shard fast campaign at scale 2,000 — population,
    // plan, scan, analysis. The answered path reuses what it built for
    // the previous packet, so an event (a timer or a datagram that
    // travelled) costs less than one allocation: the payload of a
    // datagram that travels, and nothing for the fifth of the sends
    // that go to nobody or the timer that re-arms into an empty queue.
    // A change to any endpoint's packet path, `dns-wire` decode/build or
    // the resolver pool shows up in the first two rows.
    ("dense", "allocations per event", 0.9, 0.777),
    ("dense", "requested bytes per event", 235.0, 185.2),
    // A scan asks each responder once, so it builds each planned host
    // once: the R1s that come back to a resolver already released and
    // the upstream timeouts that outlive their resolution are settled
    // without rebuilding it (12,529 when each of them did), and nearly
    // every build came out of the pool (a tenth of them live at once
    // would say otherwise).
    ("dense", "materializations", 3_253.0, 3_253.0),
    ("dense", "planned hosts", 3_253.0, 3_253.0),
    // The most the whole campaign holds at once: 398,354 B. The flow
    // join is three figures folded at capture time — 8 B a labelled R2
    // and a bit a label — where a per-label join of 32 B rows, 4 B
    // index slots and 12 B Q2/R1 stamps read 606,618 B (186.5 B a host).
    (
        "dense",
        "peak live bytes per planned host",
        398_354.0 / 3_253.0,
        398_354.0 / 3_253.0,
    ),
    ("dense", "live hosts at the peak", 325.0, 10.0),
    // Settling is bookkeeping, not behaviour: every simulator counter
    // reads what it read when those hosts were rebuilt to ignore their
    // events. A change to `SimNet::step`'s arrival path or to either
    // `fresh_ignores` shows up here.
    ("dense", "net.sent", 31_564.0, 31_564.0),
    ("dense", "net.delivered", 25_058.0, 25_058.0),
    ("dense", "net.lost", 0.0, 0.0),
    ("dense", "net.duplicated", 0.0, 0.0),
    ("dense", "net.unrouted", 6_506.0, 6_506.0),
    ("dense", "net.timers_fired", 13_987.0, 13_987.0),
    ("dense", "net.events", 39_045.0, 39_045.0),
    ("dense", "net.bytes_delivered", 1_672_426.0, 1_672_426.0),
    ("dense", "net.faults_injected", 0.0, 0.0),
    ("dense", "net.blackhole_drops", 0.0, 0.0),
    ("dense", "net.crash_drops", 0.0, 0.0),
    // The echo is still there to be counted: resolver farms re-ask, and
    // every re-asked Q2 is answered.
    ("dense", "R2 per Q2", 1.0 / 1.9, 0.499),
    ("dense", "Q2 without an R1", 0.0, 0.0),
    // `sparse`: a one-shard full-Q1 campaign at scale 60,000, almost
    // all silence. A send to nobody is settled as unrouted on the spot:
    // it is no event, is lost from no book and is never built — the
    // prober hands its template's bytes to `Context::send_bytes`, which
    // copies them only for a destination somebody holds or is planned
    // at. The ticks that pace the scan run inside one dispatch while
    // nothing else is queued, and one that must be armed waits beside
    // the wheel, not in a slot. What is left is the 1.3 % of probes
    // that are answered. A payload built for nobody, or a lone timer
    // filed into a slot, costs one allocation a datagram and trips the
    // budget twenty times over; a change to the prober's send path,
    // `Context::send_bytes`, `TimingWheel::push` or `Coverage::covers`
    // shows up here.
    ("sparse", "allocations per datagram sent", 0.05, 0.033),
    // Nothing is held per target: the budget is the measured peak plus
    // two bytes for each of the 61,704 targets, so a stored address a
    // target (246,816 B) trips it and an allocator-neutral edit does
    // not.
    ("sparse", "peak live bytes", 250_490.0, 127_082.0),
    ("sparse", "peak live bytes per target", 4.060, 2.060),
    ("sparse", "delivered per unrouted", 0.02, 0.013),
    ("sparse", "events beside timers and deliveries", 0.0, 0.0),
    ("sparse", "datagrams sent and not accounted for", 0.0, 0.0),
    // `flow-join`: 32,768 authoritative packets, a Q2 and its R1 four
    // times over for each of 4,096 reserved flows. The join keeps no
    // per-flow state beyond a Q2-seen bit, so it allocates only the
    // cluster's map node and its bitset's doublings (6); a vector or
    // row a flow would be 4,096 allocations, and the per-label join of
    // rows and a shared stamp log spent 13.
    ("flow-join", "allocations", 12.0, 6.0),
    // A flow holds its reserved 8 B latency and 8 B amplification
    // factor and one bit; the cluster's bitset (512 B) and map node
    // (320 B) spread over the 4,096 make 16.2 B exactly. The per-label
    // join (a 32 B row, 8 B of index and four 12 B stamps) read 96.0.
    ("flow-join", "live bytes per flow", 16.203125, 16.203125),
    // `history`: 600 epochs of real observatory rows. A row is integers
    // and fixed-size arrays in one vector that grows by an eighth; its
    // matrix counts one epoch's distinct IPv4 members, so its cells are
    // `u32` (a row of 984 B with `u64` cells read 995.5, and a
    // `BTreeMap` of class names and a `Vec<Vec<u64>>` matrix a row in a
    // doubling vector read 1,756 B).
    ("history", RESIDENT, 650.0, 590.8),
    // Saving a generation, recovering it and rendering `/trends` each
    // write or read the history field by field, so the most held at
    // once is `recover`'s: the file it read and the rows it rebuilt
    // (1,562.5 with `u64` cells). Built as `Wire` trees they held
    // 11,952 B an epoch; a tree of `/trends` alone holds 2,126, and the
    // test checks that it trips the budget.
    ("history", PEAK_ABOVE_ROWS, 1_300.0, 1_157.8),
];

/// The `history` counters.
const RESIDENT: &str = "resident bytes per epoch";
const PEAK_ABOVE_ROWS: &str = "peak live bytes per epoch above the rows";

type Ledger = Vec<(&'static str, f64)>;

/// Runs `config` and returns the result with the allocations and
/// requested bytes the run spent and the most it held live at once.
fn campaign(config: CampaignConfig) -> (orscope_core::CampaignResult, f64, f64, f64) {
    let campaign = Campaign::new(config);
    let (calls, bytes, live) = (allocs(), requested_bytes(), reset_peak());
    let result = campaign.run().expect("campaign runs");
    let (calls, bytes) = (allocs() - calls, requested_bytes() - bytes);
    (result, calls as f64, bytes as f64, peak_above(live) as f64)
}

fn dense() -> Ledger {
    let (result, calls, bytes, peak) = campaign(CampaignConfig::new(Year::Y2018, 2000.0));
    let net = *result.net_stats();
    let population = result.population();
    let planned = population.resolvers.len() + population.off_port.len();
    let dataset = result.dataset();
    vec![
        ("allocations per event", calls / net.events as f64),
        ("requested bytes per event", bytes / net.events as f64),
        ("materializations", result.materializations() as f64),
        ("planned hosts", planned as f64),
        ("peak live bytes per planned host", peak / planned as f64),
        ("live hosts at the peak", result.materialized_hosts() as f64),
        ("net.sent", net.sent as f64),
        ("net.delivered", net.delivered as f64),
        ("net.lost", net.lost as f64),
        ("net.duplicated", net.duplicated as f64),
        ("net.unrouted", net.unrouted as f64),
        ("net.timers_fired", net.timers_fired as f64),
        ("net.events", net.events as f64),
        ("net.bytes_delivered", net.bytes_delivered as f64),
        ("net.faults_injected", net.faults_injected as f64),
        ("net.blackhole_drops", net.blackhole_drops as f64),
        ("net.crash_drops", net.crash_drops as f64),
        ("R2 per Q2", dataset.r2() as f64 / dataset.q2 as f64),
        ("Q2 without an R1", dataset.q2 as f64 - dataset.r1 as f64),
    ]
}

fn sparse() -> Ledger {
    let config = CampaignConfig::new(Year::Y2018, 60_000.0).with_full_q1();
    let (result, calls, _, peak) = campaign(config);
    let net = *result.net_stats();
    let settled = net.unrouted + net.delivered + net.lost;
    let targets = result.dataset().q1 as f64;
    vec![
        ("peak live bytes", peak),
        ("peak live bytes per target", peak / targets),
        ("allocations per datagram sent", calls / net.sent as f64),
        (
            "delivered per unrouted",
            net.delivered as f64 / net.unrouted as f64,
        ),
        (
            "events beside timers and deliveries",
            net.events as f64 - (net.timers_fired + net.delivered) as f64,
        ),
        (
            "datagrams sent and not accounted for",
            net.sent as f64 - settled as f64,
        ),
    ]
}

fn flow_join() -> Ledger {
    const FLOWS: u64 = 4_096;
    const FANOUT: u64 = 4;
    let zone: Name = "ucfsealresearch.net".parse().unwrap();
    let mut packets = Vec::new();
    for round in 0..FANOUT {
        for seq in 0..FLOWS {
            let qname = ProbeLabel::new(0, seq).qname(&zone);
            let payload = Message::query(7, Question::a(qname)).encode().unwrap();
            for direction in [Direction::Inbound, Direction::Outbound] {
                packets.push(CapturedPacket {
                    at: SimTime::from_nanos(round * FLOWS + seq),
                    direction,
                    peer: Ipv4Addr::new(10, 0, 0, 1),
                    peer_port: 53,
                    label: None,
                    payload: Payload::from(payload.clone()),
                });
            }
        }
    }
    let held = live_bytes();
    let mut analyzer = StreamingAnalyzer::new(zone, false);
    analyzer.reserve_flows(FLOWS as usize);

    let before = allocs();
    for packet in &packets {
        analyzer.on_auth(packet);
    }
    let spent = allocs() - before;
    let live = (live_bytes() - held) as f64;

    // The fold did its work.
    let flows = analyzer.take_flows();
    assert_eq!(flows.recursed_count(), FLOWS);
    assert_eq!(flows.mean_q2_fanout(), FANOUT as f64);
    vec![
        ("allocations", spent as f64),
        ("live bytes per flow", live / FLOWS as f64),
    ]
}

fn history() -> Ledger {
    const EPOCHS: u64 = 600;
    let state_dir =
        std::env::temp_dir().join(format!("orscope-gates-history-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    // Real rows from a short run, cycled to the history length as
    // `orbench`'s `history_of` does.
    let mut config = ServeConfig::new(Year::Y2018, 60_000.0);
    config.epochs = Some(4);
    config.state_dir = state_dir.clone();
    let fingerprint = config.fingerprint();
    let mut observatory = Observatory::new(config).expect("serve configuration is valid");
    observatory.run().expect("seed run completes");
    let rows = observatory.shared().tables_snapshot().epochs().to_vec();
    drop(observatory);
    std::fs::remove_dir_all(&state_dir).expect("state dir is removable");

    let before = live_bytes();
    let mut tables = RollingTables::default();
    for epoch in 0..EPOCHS {
        let mut row = rows[epoch as usize % rows.len()].clone();
        row.epoch = epoch;
        row.virtual_day = epoch as f64;
        tables.absorb_epoch(row);
    }
    let resident = (live_bytes() - before) as f64 / EPOCHS as f64;

    let checkpoint = ObservatoryCheckpoint {
        fingerprint: fingerprint.clone(),
        epochs_done: EPOCHS,
        tables,
    };
    let baseline = reset_peak();
    checkpoint
        .save_generation(&state_dir, 1)
        .expect("generation is written");
    let recovered = ObservatoryCheckpoint::recover(&state_dir, &fingerprint)
        .expect("state dir is readable")
        .checkpoint
        .expect("the generation verifies");
    assert_eq!(recovered, checkpoint);
    drop(recovered);
    let trends = checkpoint.tables.trends_bytes();
    let peak = peak_above(baseline) as f64 / EPOCHS as f64;
    std::fs::remove_dir_all(&state_dir).expect("state dir is removable");

    // The budget holds back a whole-history tree: `/trends` alone as one.
    let baseline = reset_peak();
    let tree = Wire::decode(&trends).expect("served JSON decodes");
    let tree_peak = peak_above(baseline) as f64 / EPOCHS as f64;
    drop(tree);
    let budget = GATES
        .iter()
        .find(|gate| gate.1 == PEAK_ABOVE_ROWS)
        .map_or(0.0, |gate| gate.2);
    assert!(
        tree_peak > budget,
        "a /trends tree ({tree_peak:.0} B an epoch) slips under the {budget} B budget"
    );
    vec![(RESIDENT, resident), (PEAK_ABOVE_ROWS, peak)]
}

fn main() {
    every_gate_holds();
}

fn every_gate_holds() {
    let workloads = [
        ("dense", dense as fn() -> Ledger),
        ("sparse", sparse),
        ("flow-join", flow_join),
        ("history", history),
    ];
    let mut checked = 0;
    for (workload, run) in workloads {
        let ledger = run();
        for (counter, value) in &ledger {
            eprintln!("{workload}: {counter} = {value:.3}");
        }
        for &(_, counter, budget, pinned) in GATES.iter().filter(|gate| gate.0 == workload) {
            let &(_, value) = ledger
                .iter()
                .find(|(name, _)| *name == counter)
                .unwrap_or_else(|| panic!("{workload} keeps no counter {counter:?}"));
            assert!(
                value <= budget,
                "{workload}: {counter} is {value:.3}, budget {budget} (pinned at {pinned})"
            );
            assert!(
                budget != pinned || value == pinned,
                "{workload}: {counter} moved from {pinned} to {value}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, GATES.len(), "a gate names no workload");
}
