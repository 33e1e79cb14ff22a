//! The count and allocation gates, as one table: on `workload`,
//! `counter` may not exceed `budget`; `pinned` is what it measured when
//! the row was last re-pinned. A row whose budget equals its pinned
//! figure is exact — the counter may move in neither direction — which
//! is how the simulator's books are held field for field. A change that
//! moves a figure on purpose edits its row and says why.
//!
//! Every figure but the two-shard peak (`dense-2sh`, whose threads
//! interleave) repeats exactly from run to run. The target is a plain
//! `main` (`harness = false`) that walks the workloads serially, because
//! the allocator counts process-wide and a test harness's own thread
//! would allocate inside the counted window:
//! `cargo test --offline --test gates` prints each workload's ledger.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

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
use orscope_resolver::population::{Population, PopulationConfig};

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
    // the resolver pool shows up in the first two rows. The scheduler's
    // slab grows by doubling, a few times a run: 0.777 and 127.4 B when
    // each of the timing wheel's 448 slots grew a buffer of its own, and
    // 0.703 and 83.9 B when the prober kept an outstanding map of 48 B
    // buckets and a separate expiry queue.
    ("dense", "allocations per event", 0.9, 0.694),
    // 185.2 with 256 B names (528 B records) and slot buffers.
    ("dense", "requested bytes per event", 165.0, 82.3),
    // A scan asks each responder once, so it builds each planned host
    // once: the R1s that come back to a resolver already released and
    // the upstream timeouts that outlive their resolution are settled
    // without rebuilding it (12,529 when each of them did), and nearly
    // every build came out of the pool (a tenth of them live at once
    // would say otherwise).
    ("dense", "materializations", 3_253.0, 3_253.0),
    ("dense", "planned hosts", 3_253.0, 3_253.0),
    // The most the whole campaign holds at once: 149,551 B. It read
    // 149,991 B while the prober's ticket index was open-addressed and
    // the geo table a hash map: the index is a hash map of 8 B buckets
    // and a control byte each again, at most seven eighths full where
    // the open-addressed 8 B slots were at most half full, and the geo
    // table's exact entries are one address-sorted vector of 64 B
    // entries, trimmed to its length, where a `RandomState` hash map
    // held them. It read
    // 150,023 B while each zone carried a default TTL that only the
    // zone-file reader set and kept its one NS record in a vector of its
    // own, 150,263 B while the prober pulled its targets one at a time from a
    // boxed stream of iterator adapters, where a walk now fills a buffer
    // of 16 owned `(slot, address)` pairs (256 B) a run, and while its
    // address-to-ticket index was the hash map it is again (150,295 B
    // with the run buffer and the hash map); 150,335 B while each capture point also carried a packet log of its
    // own that nothing wrote, 150,359 B while the prober's book sat in a
    // shared handle outside the prober (its reference counts, borrow flag and an R2 log no
    // campaign wrote), and 150,499 B while the prober kept a second, local pacer's carry
    // state, a `ProberConfig::slots` and two send-token counters (with
    // their two metric names in the shard's snapshot), and the
    // authoritative server a rollover flag and a load-time book nothing
    // read; 161,427 B when the prober kept each probe in flight twice — a
    // 48 B bucket of a map keyed by target and a 24 B entry of an
    // expiry queue — where one 24 B flight in a ring per attempt level
    // and an 8 B bucket of an address-to-ticket index now do, and the
    // resolvers' maps each carried 16 B of SipHash keys. It read
    // 173,982 B when about two hosts in three drew a version.bind
    // banner, which interned up to seven variants of each profile, and
    // 271,876 B when the timing wheel kept a buffer in each of its 448
    // slots, where an emptied inner slot held on to its capacity; its one
    // slab of event nodes holds as many as were ever filed at once, and
    // a slot is a 4 B list head. With those buffers it read 291,106 B
    // (5.9 B a host more) when every probed host was stored twice — in
    // generation order with a country a host, and again as the
    // address-sorted `(address, profile)` pairs of a separate host
    // index — 291,114 B when the boxed prober's target source counted
    // the targets it had handed out (a cursor only the deleted campaign
    // checkpoint read), and 16 B more when the campaign gathered its one
    // shard's population into a one-element vector of references before
    // the fan-out. A `Name`
    // keeps its labels inline up to 54 bytes and is 64 B, so a record is
    // 144 B and every pooled resolver's scratch messages, pending and
    // referral maps are sized to the probe names they hold; with a
    // 256 B name (528 B records) it read 402,490 B (123.7 B a host). The
    // flow join is three figures folded at capture time — 4 B a
    // labelled R2 and a bit a label, the amplification factors a count
    // per distinct value — where 8 B latencies and an 8 B factor a
    // response added 16 B an R2, and a per-label join of 32 B rows,
    // 4 B index slots and 12 B Q2/R1 stamps read 606,618 B with 256 B
    // names. 4,096 B of it are the resolvers' membership filter: the
    // bits in front of their directory that answer most misses from one
    // load.
    (
        "dense",
        "peak live bytes per planned host",
        149_551.0 / 3_253.0,
        149_551.0 / 3_253.0,
    ),
    ("dense", "live hosts at the peak", 325.0, 10.0),
    // `generate`: `Population::generate` for the `dense` campaign, on
    // its own: 73,758 B at its peak for 3,253 hosts. The host list is
    // sorted into its columns one at a time, so it holds 20 B a host at
    // most. 91,665 B when a version.bind banner step interned bannered
    // variants of the profiles, and 125,927 B when every host placed
    // went into the set of addresses the rank walk steps over and the
    // list kept a country a host; a set entry a host trips the row.
    (
        "generate",
        GENERATE_PEAK,
        73_758.0 / 3_253.0,
        73_758.0 / 3_253.0,
    ),
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
    // `dense-2sh`: the `dense` campaign on two shards. Both read the
    // campaign's one population and keep the hosts it places on them,
    // and each sizes its analysis for its own responders. A copy of the
    // population per shard read 132.8–134.8 B a planned host and trips
    // the budget; a shard reserving for every responder of the campaign
    // adds 4 B a host (124.8–126.0), which the plan's unit tests catch.
    // The shard thread and the calling thread interleave their
    // allocations, so the peak moves by a few bytes a host from run to
    // run (57.4–60.2) and the row is not exact. It read 63.1–63.7
    // (budget 67) while each shard's prober kept an outstanding map of
    // 48 B buckets beside its expiry queue, 66.8–67.7
    // (budget 71) while profiles carried version.bind banners,
    // 112.9–116.1 when each shard's timing wheel kept a buffer in each
    // of its 448 slots, and 120.7–122.1 when, besides, each host was
    // stored twice.
    ("dense-2sh", "peak live bytes per planned host", 64.0, 59.3),
    // `sparse`: a one-shard full-Q1 campaign at scale 60,000, almost
    // all silence. A send to nobody is settled as unrouted on the spot:
    // it is no event, is lost from no book and is never built — the
    // prober hands each Q1 to `Context::send_with`, which asks for it
    // only for a destination somebody holds or is planned at. The
    // ticks that pace the scan run inside one dispatch while
    // nothing else is queued, and one that must be armed is filed in
    // the slab node its predecessor freed. What is left is the 1.3 % of
    // probes that are answered. A payload built for nobody, or a pacing
    // tick that allocates, costs one allocation a datagram and trips the
    // budget twenty times over (0.033 when the wheel's slots grew
    // buffers of their own); a change to the prober's send path,
    // `Context::send_with`, `TimingWheel::push`, `Coverage::holds_nobody`
    // or `Coverage::covers` shows up here.
    ("sparse", "allocations per datagram sent", 0.05, 0.020),
    // Nothing is held per target: the budget is the measured peak plus
    // two bytes for each of the 61,704 targets, so a stored address a
    // target (246,816 B) trips it and an allocator-neutral edit does
    // not. The few answered probes' names and records are 64 B and
    // 144 B; at 256 B and 528 B (and a buffer in each of the timing
    // wheel's 448 slots) the peak read 127,250 B, and 104,534 B with
    // the slot buffers alone. 39,198 B (budget 162,606) while profiles
    // carried version.bind banners, 35,267 B (budget 158,675) while the
    // prober kept an outstanding map of 48 B buckets beside its expiry
    // queue, 34,979 B (budget 158,387) while it kept a second pacer's
    // carry state and two send-token counters, and 34,839 B (budget
    // 158,247) while its ticket index was open-addressed and the geo
    // table a hash map.
    ("sparse", "peak live bytes", 158_103.0, 34_695.0),
    ("sparse", "peak live bytes per target", 2.562, 0.562),
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
    // A flow holds its reserved 4 B latency (nanoseconds below 2^32;
    // a longer one goes to an overflow list no flow here reaches) and
    // one bit; the amplification factors are a count per distinct value,
    // nothing a flow. The cluster's bitset (512 B) and map node (320 B)
    // spread over the 4,096 make 4.2 B exactly. An 8 B latency and an
    // 8 B factor a flow read 16.2; the per-label join (a 32 B row, 8 B
    // of index and four 12 B stamps) read 96.0.
    ("flow-join", "live bytes per flow", 4.203125, 4.203125),
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
    // `size`: what aim 2 counts, as exact rows. A change that deletes
    // lowers a row; one that adds to a count raises its budget in the
    // same change and says why in CHANGES.md. Lines are the non-blank
    // lines of every `.rs` file under `crates/*/src` and `src/`, less
    // each item annotated `#[cfg(test)]` — from the attribute to the
    // line at its indentation that closes the item's brace, or to the
    // item's first line when that ends in `;` or `}` — and less each
    // file whose `mod` is declared under `#[cfg(test)]`. Fields are the
    // top-level fields that `{:#?}` prints; flags are the distinct
    // `--` words that `orscope help` prints. Builders are the lines of
    // `crates/core/src/campaign.rs` from the line `impl CampaignConfig {`
    // to the next line that is `}` alone, whose text after its
    // indentation starts with `pub fn with_`. `pub` items are the counted
    // lines (by the line rule) whose text after their indentation starts
    // with `pub ` — bare `pub` only, so fields and re-exports count and
    // `pub(crate)` does not. Integration test files are the `.rs` files
    // directly under `tests/` and under each `crates/*/tests/`: a new
    // invariance axis is a row of `tests/invariance.rs`, not a file and a
    // test binary of its own.
    ("size", "non-test lines", LINES, LINES),
    ("size", "pub items", PUB_ITEMS, PUB_ITEMS),
    ("size", "CampaignConfig fields", 15.0, 15.0),
    ("size", "CampaignConfig with_* builders", 14.0, 14.0),
    ("size", "ServeConfig fields", 13.0, 13.0),
    ("size", "orscope help flags", 34.0, 34.0),
    ("size", "crates", 13.0, 13.0),
    ("size", "example files", 3.0, 3.0),
    ("size", "integration test files", 30.0, 30.0),
];

/// The `size` workload's line count and `pub` item count.
const LINES: f64 = 21_680.0;
const PUB_ITEMS: f64 = 1_297.0;

/// The `generate` counter.
const GENERATE_PEAK: &str = "peak live bytes per host";

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

fn generate() -> Ledger {
    // The population the `dense` campaign generates.
    let campaign = CampaignConfig::new(Year::Y2018, 2000.0);
    let mut config = PopulationConfig::new(campaign.year, campaign.scale);
    config.seed = campaign.seed;
    config.reserved_hosts = campaign.infra.addresses();
    let live = reset_peak();
    let population = Population::generate(&config);
    let peak = peak_above(live) as f64;
    let lists = [
        &population.resolvers,
        &population.off_port,
        &population.upstreams,
    ];
    let hosts = lists.iter().map(|list| list.len()).sum::<usize>() as f64;
    vec![(GENERATE_PEAK, peak / hosts)]
}

fn dense_2sh() -> Ledger {
    let config = CampaignConfig::new(Year::Y2018, 2000.0).with_shards(2);
    let (result, _, _, peak) = campaign(config);
    let population = result.population();
    let planned = population.resolvers.len() + population.off_port.len();
    vec![("peak live bytes per planned host", peak / planned as f64)]
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

fn size() -> Ledger {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fields = |debug: String| {
        let top_level = |line: &&str| {
            let field = line.strip_prefix("    ").unwrap_or_default();
            field.starts_with(|c: char| c.is_ascii_lowercase()) && field.contains(':')
        };
        debug.lines().filter(top_level).count() as f64
    };
    let campaign = CampaignConfig::new(Year::Y2018, 2000.0);
    let serve = ServeConfig::new(Year::Y2018, 2000.0);
    let campaign_rs = std::fs::read_to_string(root.join("crates/core/src/campaign.rs"))
        .expect("campaign source is readable");
    let builders = campaign_rs
        .lines()
        .skip_while(|line| *line != "impl CampaignConfig {")
        .take_while(|line| *line != "}")
        .filter(|line| line.trim_start().starts_with("pub fn with_"))
        .count();
    let help = std::process::Command::new(env!("CARGO_BIN_EXE_orscope"))
        .arg("help")
        .output()
        .expect("orscope runs");
    assert!(help.status.success(), "orscope help exits 0");
    let help = String::from_utf8(help.stdout).expect("help is UTF-8");
    let flags: BTreeSet<&str> = help
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|word| word.starts_with("--") && word.len() > 2)
        .collect();
    let entries = |dir: &Path| {
        let entries = std::fs::read_dir(dir).expect("directory is readable");
        entries.map(|entry| entry.expect("entry is readable").path())
    };
    let crates: Vec<PathBuf> = entries(&root.join("crates")).collect();
    let test_dirs =
        std::iter::once(root.join("tests")).chain(crates.iter().map(|k| k.join("tests")));
    let rust_file = |path: &PathBuf| path.extension().is_some_and(|ext| ext == "rs");
    let test_files = test_dirs
        .filter(|dir| dir.is_dir())
        .flat_map(|dir| entries(&dir).filter(rust_file).collect::<Vec<_>>())
        .count();
    let mut sources = vec![root.join("src")];
    sources.extend(crates.iter().map(|krate| krate.join("src")));
    let lines = non_test_lines(sources);
    let pub_items = lines
        .iter()
        .filter(|line| line.trim_start().starts_with("pub "))
        .count();
    vec![
        ("non-test lines", lines.len() as f64),
        ("pub items", pub_items as f64),
        ("CampaignConfig fields", fields(format!("{campaign:#?}"))),
        ("CampaignConfig with_* builders", builders as f64),
        ("ServeConfig fields", fields(format!("{serve:#?}"))),
        ("orscope help flags", flags.len() as f64),
        ("crates", crates.len() as f64),
        (
            "example files",
            entries(&root.join("examples")).count() as f64,
        ),
        ("integration test files", test_files as f64),
    ]
}

/// The lines the `size` workload's line rule (see its rows) counts in
/// every `.rs` file under `dirs`.
fn non_test_lines(mut dirs: Vec<PathBuf>) -> Vec<String> {
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("source directory is readable") {
            let path = entry.expect("entry is readable").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    let mut test_only = BTreeSet::new();
    let mut counted = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source is readable");
        let lines: Vec<&str> = text.lines().collect();
        let mut kept = Vec::new();
        let mut at = 0;
        while at < lines.len() {
            let line = lines[at];
            if line.trim() != "#[cfg(test)]" {
                if !line.trim().is_empty() {
                    kept.push(line.to_owned());
                }
                at += 1;
                continue;
            }
            let indent = &line[..line.len() - line.trim_start().len()];
            at += 1;
            while lines[at].trim_start().starts_with("#[") {
                at += 1;
            }
            let first = lines[at].trim_end();
            if let Some(name) = first.trim_start().strip_prefix("mod ") {
                // `dir/lib.rs` declares `dir/name.rs`; `dir/foo.rs`
                // declares `dir/foo/name.rs`.
                let name = name.trim_end_matches(';');
                let dir = match file.file_stem().and_then(|stem| stem.to_str()) {
                    Some("lib" | "main" | "mod") => file.parent().unwrap().to_path_buf(),
                    _ => file.with_extension(""),
                };
                test_only.insert(dir.join(format!("{name}.rs")));
                test_only.insert(dir.join(name).join("mod.rs"));
            }
            if !(first.ends_with(';') || first.ends_with('}')) {
                let close = format!("{indent}}}");
                while !lines[at].starts_with(&close) {
                    at += 1;
                }
            }
            at += 1;
        }
        counted.push((file, kept));
    }
    counted
        .into_iter()
        .filter(|(file, _)| !test_only.contains(*file))
        .flat_map(|(_, kept)| kept)
        .collect()
}

fn main() {
    every_gate_holds();
}

fn every_gate_holds() {
    let workloads = [
        ("dense", dense as fn() -> Ledger),
        ("generate", generate),
        ("dense-2sh", dense_2sh),
        ("sparse", sparse),
        ("flow-join", flow_join),
        ("history", history),
        ("size", size),
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
