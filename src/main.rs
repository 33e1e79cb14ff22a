//! The `orscope` command-line interface.
//!
//! `orscope help` prints every subcommand and flag.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use orscope_core::{
    Campaign, CampaignConfig, PredicateError, RecordBus, TapPredicate, TapSubscriber,
    DEFAULT_TAP_CAPACITY,
};
use orscope_json::Wire;
use orscope_netsim::{FaultKind, FaultPlan, FaultRule, FaultScope};
use orscope_observe::{http, ChurnConfig, HttpConfig, Observatory, ServeConfig};
use orscope_resolver::paper::Year;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let run = |known: &[&str], body: fn(&[String]) -> Result<(), String>| {
        reject_unknown_flags(command, &args[1..], known)?;
        body(&args[1..])
    };
    let result = match command {
        "campaign" => run(CAMPAIGN_FLAGS, cmd_campaign),
        "tables" => run(TABLES_FLAGS, cmd_tables),
        "serve" => run(SERVE_FLAGS, cmd_serve),
        "tap" => run(TAP_FLAGS, cmd_tap),
        "pcap" => run(PCAP_FLAGS, cmd_pcap),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `orscope help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("orscope: {message}");
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "orscope — behavioral analysis of open DNS resolvers (DSN'19 reproduction)\n\
     \n\
     USAGE:\n\
     \x20 orscope campaign [--year 2013|2018] [--scale S] [--seed N] [--shards N]\n\
     \x20                  [--full-q1] [--loss P] [--duplicate P] [--retries N]\n\
     \x20                  [--rate PPS] [--authns-outage FROM:UNTIL]\n\
     \x20                  [--faults FILE.json]\n\
     \x20                  [--json FILE] [--telemetry FILE]\n\
     \x20 orscope tables   [--scale S] [--json FILE] [--markdown FILE]\n\
     \x20 orscope serve    [--year 2013|2018] [--scale S] [--seed N] [--shards N]\n\
     \x20                  [--epochs N] [--epoch-secs SECS] [--port P]\n\
     \x20                  [--join R] [--leave R] [--drift R] [--headroom H]\n\
     \x20                  [--churn-seed N]\n\
     \x20                  [--interval-ms MS] [--state-dir DIR]\n\
     \x20                  [--checkpoint-every N] [--keep-generations K]\n\
     \x20                  [--epoch-deadline SECS] [--fresh]\n\
     \x20                  [--http-max-conns N] [--http-timeout-ms MS]\n\
     \x20 orscope tap      [--url http://HOST:PORT] [--match EXPR] [--limit N]\n\
     \x20                  [--oneshot [--year 2013|2018] [--scale S] [--seed N]\n\
     \x20                  [--shards N]]\n\
     \x20 orscope pcap     [--year 2013|2018] [--scale S] OUTPUT.pcap\n\
     \n\
     COMMANDS:\n\
     \x20 campaign  replay one scan and print every table, paper vs measured\n\
     \x20 tables    replay both scans (the full evaluation of the paper), one\n\
     \x20           thread each; --markdown writes the tables as markdown\n\
     \x20 serve     run the resolver observatory: one supervised campaign\n\
     \x20           round per virtual day over a churning population, live\n\
     \x20           HTTP surface (/tables /trends /metrics /healthz /readyz),\n\
     \x20           checkpoint generations with corruption recovery; resumes\n\
     \x20           from --state-dir unless --fresh; SIGTERM/SIGINT flush a\n\
     \x20           final verified checkpoint and exit cleanly\n\
     \x20 tap       stream capture records as NDJSON: attach to a running\n\
     \x20           `orscope serve` (GET /tap) or, with --oneshot, run a\n\
     \x20           local campaign and tap it in-process. --match filters\n\
     \x20           with space-separated clauses: qname=GLOB (e.g.\n\
     \x20           qname=*.example), rcode=NAME|N, class=CLASS, src=PREFIX,\n\
     \x20           dst=PREFIX (dotted prefix or CIDR). Taps are lossy by\n\
     \x20           design: a slow consumer drops records, never slows the\n\
     \x20           campaign\n\
     \x20 pcap      run a scan and export the captured R2 traffic as libpcap\n\
     \n\
     CHAOS / ROBUSTNESS (campaign):\n\
     \x20 --loss P              independent per-datagram loss probability\n\
     \x20 --duplicate P         per-datagram duplication probability\n\
     \x20 --retries N           per-probe retransmission budget, 0–16 (exp. backoff)\n\
     \x20 --rate PPS            probe-rate override\n\
     \x20 --authns-outage A:B   blackhole the authoritative server between\n\
     \x20                       virtual seconds A and B\n\
     \x20 --faults FILE.json    install a full fault plan from JSON\n\
     \n\
     UNATTENDED OPERATION (serve):\n\
     \x20 --keep-generations K  retain the newest K verified checkpoint\n\
     \x20                       generations (default 3); corrupt ones are\n\
     \x20                       quarantined as *.corrupt and rolled back over\n\
     \x20 --epoch-deadline S    virtual-second budget per campaign round; a\n\
     \x20                       round still busy at S fails the attempt (one\n\
     \x20                       retry, then the epoch degrades, run continues)\n\
     \x20 --http-max-conns N    concurrent connections before 503+Retry-After\n\
     \x20                       (at least 1)\n\
     \x20 --http-timeout-ms MS  per-connection read/write timeout, at least 1\n\
     \x20                       (slow-loris clients get 408, not a pinned thread)";

fn print_help() {
    println!("{HELP}");
}

/// The flags each subcommand defines (the USAGE block of [`HELP`]).
const CAMPAIGN_FLAGS: &[&str] = &[
    "--year",
    "--scale",
    "--seed",
    "--shards",
    "--full-q1",
    "--loss",
    "--duplicate",
    "--retries",
    "--rate",
    "--authns-outage",
    "--faults",
    "--json",
    "--telemetry",
];
const TABLES_FLAGS: &[&str] = &["--scale", "--json", "--markdown"];
const SERVE_FLAGS: &[&str] = &[
    "--year",
    "--scale",
    "--seed",
    "--shards",
    "--epochs",
    "--epoch-secs",
    "--port",
    "--join",
    "--leave",
    "--drift",
    "--headroom",
    "--churn-seed",
    "--interval-ms",
    "--state-dir",
    "--checkpoint-every",
    "--keep-generations",
    "--epoch-deadline",
    "--fresh",
    "--http-max-conns",
    "--http-timeout-ms",
];
const TAP_FLAGS: &[&str] = &[
    "--url",
    "--match",
    "--limit",
    "--oneshot",
    "--year",
    "--scale",
    "--seed",
    "--shards",
];
const PCAP_FLAGS: &[&str] = &["--year", "--scale"];

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &["--full-q1", "--fresh", "--oneshot"];

/// The subcommands with two modes, switched by one flag: `(command,
/// mode flag, flags only that mode reads, flags only the other reads)`.
const MODES: &[(&str, &str, &[&str], &[&str])] = &[(
    "tap",
    "--oneshot",
    &["--year", "--scale", "--seed", "--shards"],
    &["--url"],
)];

/// Fails on whatever `command` would otherwise silently ignore: a
/// `--flag` it does not define (a typo such as `--shard 4` must not run
/// the default), a flag given twice (only the first would count), a
/// flag its mode does not read ([`MODES`]), or a positional argument
/// (`pcap` takes one, its output path).
fn reject_unknown_flags(command: &str, args: &[String], known: &[&str]) -> Result<(), String> {
    let (flags, positionals) = split_args(args);
    for (i, flag) in flags.iter().enumerate() {
        if !known.contains(&flag.as_str()) {
            return Err(format!(
                "unknown flag {flag} for `orscope {command}`; try `orscope help`"
            ));
        }
        if flags[..i].contains(flag) {
            return Err(format!("{flag} given twice for `orscope {command}`"));
        }
    }
    let has = |name: &str| flags.iter().any(|flag| *flag == name);
    for &(_, mode, only_in, never_in) in MODES.iter().filter(|modes| modes.0 == command) {
        let (unread, why) = if has(mode) {
            (never_in, "is not read with")
        } else {
            (only_in, "needs")
        };
        if let Some(flag) = unread.iter().find(|flag| has(flag)) {
            return Err(format!("{flag} {why} {mode} in `orscope {command}`"));
        }
    }
    match positionals.get(usize::from(command == "pcap")) {
        Some(extra) => Err(format!(
            "unexpected argument {extra:?} for `orscope {command}`; try `orscope help`"
        )),
        None => Ok(()),
    }
}

/// Pulls `--name value` from an argument list.
fn flag_value(args: &[String], name: &str) -> Result<Option<String>, String> {
    for (i, arg) in args.iter().enumerate() {
        if arg == name {
            return match args.get(i + 1) {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("{name} needs a value")),
            };
        }
    }
    Ok(None)
}

fn parse_year(args: &[String]) -> Result<Year, String> {
    match flag_value(args, "--year")?.as_deref() {
        None | Some("2018") => Ok(Year::Y2018),
        Some("2013") => Ok(Year::Y2013),
        Some(other) => Err(format!("unknown year {other}; use 2013 or 2018")),
    }
}

fn parse_number<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    Ok(parse_optional(args, name)?.unwrap_or(default))
}

/// The number `--name` gives, if the flag is there.
fn parse_optional<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag_value(args, name)?
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("{name}: bad number {raw:?}"))
        })
        .transpose()
}

/// Builds the campaign fault plan from the chaos flags.
fn parse_faults(args: &[String], config: &CampaignConfig) -> Result<FaultPlan, String> {
    let mut plan = match flag_value(args, "--faults")? {
        None => FaultPlan::new(),
        Some(path) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
            FaultPlan::from_json_str(&text).map_err(|e| format!("parsing {path}: {e}"))?
        }
    };
    if let Some(window) = flag_value(args, "--authns-outage")? {
        let (from, until) = window
            .split_once(':')
            .ok_or_else(|| format!("--authns-outage {window:?}: expected FROM:UNTIL seconds"))?;
        let parse = |raw: &str| -> Result<Duration, String> {
            raw.parse::<f64>()
                .ok()
                .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                .ok_or_else(|| format!("--authns-outage: bad number {raw:?}"))
        };
        plan.push(FaultRule::window(
            parse(from)?,
            parse(until)?,
            FaultScope::Host(config.infra.auth),
            FaultKind::Blackhole,
        ));
    }
    Ok(plan)
}

fn cmd_campaign(args: &[String]) -> Result<(), String> {
    let year = parse_year(args)?;
    let scale: f64 = parse_number(args, "--scale", 1_000.0)?;
    let seed: u64 = parse_number(args, "--seed", 0xD5A1_2019)?;
    let shards: usize = parse_number(args, "--shards", 1)?;
    let loss: f64 = parse_number(args, "--loss", 0.0)?;
    let duplicate: f64 = parse_number(args, "--duplicate", 0.0)?;
    let mut config = CampaignConfig::new(year, scale)
        .with_seed(seed)
        .with_shards(shards)
        .with_retries(parse_number(args, "--retries", 0u32)?);
    if args.iter().any(|a| a == "--full-q1") {
        config = config.with_full_q1();
    }
    if let Some(rate) = parse_optional(args, "--rate")? {
        config = config.with_probe_rate(rate);
    }
    // `with_faults` replaces every rule, so the plan goes in before the
    // campaign-wide loss and duplication rules.
    let faults = parse_faults(args, &config)?;
    config = config
        .with_faults(faults)
        .with_loss(loss)
        .with_duplication(duplicate);

    let started = std::time::Instant::now();
    let result = Campaign::new(config).run().map_err(|e| e.to_string())?;
    if let Some(degraded) = result.degraded() {
        eprintln!("{degraded}");
    }
    eprintln!(
        "simulated {} probes / {} responses in {:?}",
        result.dataset().q1,
        result.dataset().r2(),
        started.elapsed()
    );
    println!("{}", result.render());
    if let Some(path) = flag_value(args, "--json")? {
        std::fs::write(&path, result.to_json().encode_pretty())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = flag_value(args, "--telemetry")? {
        let snapshot = result
            .telemetry()
            .expect("every campaign carries telemetry");
        let jsonl = snapshot.to_jsonl_tagged(&[("year", u64::from(year.as_u16()))]);
        std::fs::write(&path, jsonl).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_tables(args: &[String]) -> Result<(), String> {
    let scale: f64 = parse_number(args, "--scale", 500.0)?;
    // The two scans are independent simulations: one thread each, their
    // reports printed in `Year::ALL` order.
    let results = std::thread::scope(|scope| {
        Year::ALL
            .map(|year| scope.spawn(move || Campaign::new(CampaignConfig::new(year, scale)).run()))
            .into_iter()
            .map(|handle| handle.join().expect("campaign thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| e.to_string())?;
    let mut blobs = Vec::new();
    let mut markdown = String::new();
    for result in &results {
        println!("{}", result.render());
        blobs.push(result.to_json());
        markdown.push_str(&format!("\n### {} scan\n", result.spec().year));
        for report in result.table_reports() {
            markdown.push_str(&report.to_markdown());
        }
    }
    if let Some(path) = flag_value(args, "--json")? {
        let blob = Wire::obj(vec![
            ("scale", Wire::from(scale)),
            ("years", Wire::Arr(blobs)),
        ]);
        std::fs::write(&path, blob.encode_pretty()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = flag_value(args, "--markdown")? {
        std::fs::write(&path, markdown).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Set by the signal handler; polled by the serve watcher thread.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGINT and SIGTERM via the raw libc
/// `signal(2)` (already linked by std; avoids a signal-handling crate
/// for two constants and one registration).
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {
    // No graceful-signal support off Unix; Ctrl-C hard-kills, and the
    // periodic checkpoint (--checkpoint-every) limits lost work.
}

/// The serve surface's limits from the `--http-*` flags. A zero is
/// refused: no socket takes a zero timeout, so every client would see
/// its connection closed without a reply, and a zero cap answers every
/// connection with 503.
fn parse_http_config(args: &[String]) -> Result<HttpConfig, String> {
    let mut http_config = HttpConfig::default();
    http_config.max_connections =
        parse_number(args, "--http-max-conns", http_config.max_connections)?;
    if http_config.max_connections == 0 {
        return Err("--http-max-conns 0 would answer every connection with 503".to_owned());
    }
    if let Some(ms) = parse_optional(args, "--http-timeout-ms")? {
        if ms == 0 {
            return Err("--http-timeout-ms 0 would close every connection unanswered".to_owned());
        }
        http_config.read_timeout = Duration::from_millis(ms);
        http_config.write_timeout = Duration::from_millis(ms);
    }
    Ok(http_config)
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let year = parse_year(args)?;
    let mut config = ServeConfig::new(year, parse_number(args, "--scale", 20_000.0)?);
    config.seed = parse_number(args, "--seed", 0xD5A1_2019u64)?;
    config.shards = parse_number(args, "--shards", 1usize)?;
    config.epoch_virtual_secs = parse_number(args, "--epoch-secs", 86_400u64)?;
    config.epochs = parse_optional(args, "--epochs")?;
    let default_churn = ChurnConfig::default();
    config.churn = ChurnConfig {
        join_rate: parse_number(args, "--join", default_churn.join_rate)?,
        leave_rate: parse_number(args, "--leave", default_churn.leave_rate)?,
        drift_rate: parse_number(args, "--drift", default_churn.drift_rate)?,
        pool_headroom: parse_number(args, "--headroom", default_churn.pool_headroom)?,
        seed: parse_number(args, "--churn-seed", default_churn.seed)?,
    };
    config.checkpoint_every = parse_number(args, "--checkpoint-every", 0u64)?;
    config.keep_generations = parse_number(args, "--keep-generations", config.keep_generations)?;
    config.epoch_deadline_virtual_secs = parse_optional(args, "--epoch-deadline")?;
    config.interval = Duration::from_millis(parse_number(args, "--interval-ms", 500u64)?);
    // The CLI default is a visible (gitignored) path so an operator can
    // find their state; the library default stays under the temp dir.
    config.state_dir = PathBuf::from(
        flag_value(args, "--state-dir")?.unwrap_or_else(|| "serve-state".to_string()),
    );
    let port: u16 = parse_number(args, "--port", 7353u16)?;
    let http_config = parse_http_config(args)?;

    let mut observatory = Observatory::new(config).map_err(|e| e.to_string())?;
    let shared = observatory.shared();

    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
    // Only a run that is about to start may wipe its history: every
    // flag has parsed, the observatory took the config and the port is
    // bound.
    if args.iter().any(|a| a == "--fresh") {
        let state_dir = &observatory.config().state_dir;
        match std::fs::remove_dir_all(state_dir) {
            Ok(()) => {}
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
            Err(err) => return Err(format!("--fresh: {}: {err}", state_dir.display())),
        }
    }
    let surface =
        http::serve_with(listener, shared.clone(), http_config).map_err(|e| e.to_string())?;
    eprintln!(
        "observatory listening on http://{} (/healthz /readyz /tables /trends /metrics /tap)",
        surface.addr()
    );

    install_signal_handlers();
    let watcher_shared = shared.clone();
    let watcher = std::thread::spawn(move || {
        while !watcher_shared.shutdown_requested() {
            if SIGNALLED.load(Ordering::SeqCst) {
                eprintln!("signal received: flushing checkpoint and shutting down");
                watcher_shared.request_shutdown();
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });

    let run = observatory.run();
    // Stops the HTTP accept loop and the watcher even when the run
    // ended by epoch limit or error rather than by signal.
    shared.request_shutdown();
    let _ = watcher.join();
    surface.join();

    let report = run.map_err(|e| e.to_string())?;
    for quarantined in &report.quarantined {
        eprintln!(
            "recovery: quarantined corrupt checkpoint {} and rolled back",
            quarantined.display()
        );
    }
    match report.resumed_from {
        Some(done) => eprintln!(
            "served {} epochs ({} resumed + {} new); checkpoint at {}",
            report.epochs_completed,
            done,
            report.epochs_completed - done,
            report.checkpoint_path.display()
        ),
        None => eprintln!(
            "served {} epochs; checkpoint at {}",
            report.epochs_completed,
            report.checkpoint_path.display()
        ),
    }
    if report.epochs_degraded > 0 {
        eprintln!(
            "warning: {} epoch(s) degraded this run (absorbed as skip rows; see /readyz)",
            report.epochs_degraded
        );
    }
    Ok(())
}

fn cmd_tap(args: &[String]) -> Result<(), String> {
    let predicate_text = flag_value(args, "--match")?.unwrap_or_default();
    // Parse locally in both modes: a typo should fail fast with the
    // parser's message, not as a server-side 400 body.
    let predicate: TapPredicate = predicate_text
        .parse()
        .map_err(|err: PredicateError| err.0)?;
    let limit: Option<u64> = parse_optional(args, "--limit")?;
    install_signal_handlers();
    if args.iter().any(|a| a == "--oneshot") {
        tap_oneshot(args, predicate, limit)
    } else {
        tap_remote(args, &predicate_text, limit)
    }
}

/// Percent-encodes a query-string value (RFC 3986 unreserved set, plus
/// `*` which the predicate globs use heavily and no server misreads).
fn url_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for byte in text.bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' | b'*' => {
                out.push(byte as char);
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// One nonblocking-ish read step against the tap socket.
enum Pump {
    Data,
    Timeout,
    Eof,
}

fn pump(stream: &mut TcpStream, buffer: &mut Vec<u8>) -> Result<Pump, String> {
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(0) => Ok(Pump::Eof),
        Ok(n) => {
            buffer.extend_from_slice(&chunk[..n]);
            Ok(Pump::Data)
        }
        // `Interrupted` is what `read(2)` returns when SIGINT/SIGTERM
        // lands mid-call: surface it as a timeout so the caller's loop
        // re-checks the shutdown flag and detaches cleanly.
        Err(err)
            if err.kind() == std::io::ErrorKind::WouldBlock
                || err.kind() == std::io::ErrorKind::TimedOut
                || err.kind() == std::io::ErrorKind::Interrupted =>
        {
            Ok(Pump::Timeout)
        }
        Err(err) => Err(format!("reading tap stream: {err}")),
    }
}

/// Attaches to a running `orscope serve` and relays its `/tap` chunked
/// NDJSON stream to stdout. SIGINT/SIGTERM detach cleanly (exit 0); the
/// server notices the closed socket and reclaims the lane.
fn tap_remote(args: &[String], predicate: &str, limit: Option<u64>) -> Result<(), String> {
    let url = flag_value(args, "--url")?.unwrap_or_else(|| "http://127.0.0.1:7353".to_string());
    let authority = url
        .strip_prefix("http://")
        .unwrap_or(&url)
        .trim_end_matches('/');
    if authority.is_empty() || authority.contains('/') {
        return Err(format!("--url {url:?}: expected http://HOST:PORT"));
    }
    let mut target = String::from("/tap");
    let mut sep = '?';
    if !predicate.is_empty() {
        target.push(sep);
        sep = '&';
        target.push_str("match=");
        target.push_str(&url_encode(predicate));
    }
    if let Some(limit) = limit {
        target.push(sep);
        target.push_str(&format!("limit={limit}"));
    }
    let mut stream =
        TcpStream::connect(authority).map_err(|e| format!("connecting {authority}: {e}"))?;
    // Short read timeouts so the loop can poll for SIGTERM between
    // reads; a timeout is "no data yet", not an error.
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("sending request: {e}"))?;

    let mut buffer: Vec<u8> = Vec::new();
    // Response head first.
    let head_end = loop {
        if let Some(pos) = find_subslice(&buffer, b"\r\n\r\n") {
            break pos + 4;
        }
        if SIGNALLED.load(Ordering::SeqCst) {
            return Ok(());
        }
        if let Pump::Eof = pump(&mut stream, &mut buffer)? {
            return Err("server closed the connection before answering".into());
        }
    };
    let head = String::from_utf8_lossy(&buffer[..head_end]).into_owned();
    buffer.drain(..head_end);
    let status = head.lines().next().unwrap_or("").trim().to_string();
    if !status.contains(" 200") {
        // Errors are small Content-Length bodies; drain what arrives
        // promptly and show it alongside the status line.
        while !matches!(pump(&mut stream, &mut buffer)?, Pump::Eof | Pump::Timeout) {}
        let body = String::from_utf8_lossy(&buffer);
        return Err(format!("server answered {status}: {}", body.trim()));
    }

    // Chunked NDJSON body: one chunk per line, blank lines are
    // heartbeats, the zero-length chunk ends the stream.
    let mut lines = 0u64;
    let mut done = false;
    while !done && !SIGNALLED.load(Ordering::SeqCst) {
        while let Some(size_end) = find_subslice(&buffer, b"\r\n") {
            let size_text = String::from_utf8_lossy(&buffer[..size_end]).into_owned();
            let size = usize::from_str_radix(size_text.trim(), 16)
                .map_err(|_| format!("bad chunk header {size_text:?}"))?;
            let total = size_end + 2 + size + 2;
            if buffer.len() < total {
                break;
            }
            let payload = buffer[size_end + 2..size_end + 2 + size].to_vec();
            buffer.drain(..total);
            if size == 0 {
                done = true;
                break;
            }
            let text = String::from_utf8_lossy(&payload);
            if !text.trim().is_empty() {
                print!("{text}");
                let _ = std::io::stdout().flush();
                lines += text.lines().count() as u64;
            }
        }
        if done {
            break;
        }
        if let Pump::Eof = pump(&mut stream, &mut buffer)? {
            break;
        }
    }
    eprintln!("tap: {lines} line(s) received");
    Ok(())
}

/// Runs a local campaign with a bus attached and prints matching
/// records from an in-process subscriber — no server required.
fn tap_oneshot(args: &[String], predicate: TapPredicate, limit: Option<u64>) -> Result<(), String> {
    let year = parse_year(args)?;
    let config = CampaignConfig::new(year, parse_number(args, "--scale", 1_000.0)?)
        .with_seed(parse_number(args, "--seed", 0xD5A1_2019u64)?)
        .with_shards(parse_number(args, "--shards", 1usize)?);
    let bus = Arc::new(RecordBus::new());
    let tap = TapSubscriber::attach(&bus, predicate, DEFAULT_TAP_CAPACITY, &config.infra);
    let campaign = Campaign::new(config).with_bus(bus);
    let worker = std::thread::spawn(move || campaign.run());
    let mut printed = 0u64;
    let mut finished = false;
    while limit.is_none_or(|limit| printed < limit) && !SIGNALLED.load(Ordering::SeqCst) {
        match tap.poll(Duration::from_millis(100)) {
            Some(event) => {
                println!("{}", event.to_ndjson());
                printed += 1;
            }
            // One more empty poll after the campaign ends drains
            // anything still queued before we stop.
            None if finished => break,
            None => finished = worker.is_finished(),
        }
    }
    let result = worker
        .join()
        .map_err(|_| "campaign thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    eprintln!(
        "tap: {printed} line(s) printed, {} dropped; campaign saw {} probes / {} responses",
        tap.dropped(),
        result.dataset().q1,
        result.dataset().r2()
    );
    Ok(())
}

/// Splits an argument list into its `--flag`s and its positional
/// arguments; the value after a flag that takes one is neither.
fn split_args(args: &[String]) -> (Vec<&String>, Vec<&String>) {
    let (mut flags, mut positionals) = (Vec::new(), Vec::new());
    let mut skip_next = false;
    for arg in args {
        if std::mem::take(&mut skip_next) {
            continue;
        }
        if arg.starts_with("--") {
            skip_next = !BOOLEAN_FLAGS.contains(&arg.as_str());
            flags.push(arg);
        } else {
            positionals.push(arg);
        }
    }
    (flags, positionals)
}

/// The positional (non-flag, non-flag-value) arguments.
fn positionals(args: &[String]) -> Vec<&String> {
    split_args(args).1
}

fn cmd_pcap(args: &[String]) -> Result<(), String> {
    let year = parse_year(args)?;
    let scale: f64 = parse_number(args, "--scale", 5_000.0)?;
    let output = positionals(args)
        .first()
        .cloned()
        .cloned()
        .ok_or("pcap needs an output path")?;
    // Raw captures are dropped at capture time by default; pcap export
    // is the one consumer that needs them retained.
    let config = CampaignConfig::new(year, scale).with_retain_raw(true);
    let prober = config.infra.prober;
    let result = Campaign::new(config).run().map_err(|e| e.to_string())?;
    let packets: Vec<orscope_prober::pcap::PcapPacket> = result
        .dataset()
        .raw
        .iter()
        .map(|cap| orscope_prober::pcap::from_r2(cap, prober, 61_000))
        .collect();
    let bytes = orscope_prober::pcap::write_file(&packets);
    std::fs::write(&output, &bytes).map_err(|e| format!("writing {output}: {e}"))?;
    eprintln!(
        "wrote {output}: {} R2 packets, {} bytes",
        packets.len(),
        bytes.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_value_extraction() {
        let a = args(&["--scale", "500", "--json", "out.json"]);
        assert_eq!(flag_value(&a, "--scale").unwrap(), Some("500".into()));
        assert_eq!(flag_value(&a, "--json").unwrap(), Some("out.json".into()));
        assert_eq!(flag_value(&a, "--seed").unwrap(), None);
        assert!(flag_value(&args(&["--scale"]), "--scale").is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_per_subcommand() {
        let ok = args(&["--scale", "500", "--full-q1", "--shards", "4"]);
        assert!(reject_unknown_flags("campaign", &ok, CAMPAIGN_FLAGS).is_ok());
        // The typo that used to run one shard silently.
        let shard = args(&["--shard", "4"]);
        let err = reject_unknown_flags("campaign", &shard, CAMPAIGN_FLAGS).unwrap_err();
        assert!(err.contains("--shard") && err.contains("campaign"), "{err}");
        // A flag another subcommand defines is still unknown here.
        assert!(reject_unknown_flags("tables", &ok, TABLES_FLAGS).is_err());
        let every = args(&["--checkpoint-every", "5"]);
        let err = reject_unknown_flags("campaign", &every, CAMPAIGN_FLAGS).unwrap_err();
        assert!(err.contains("--checkpoint-every"), "{err}");
        assert!(reject_unknown_flags("serve", &every, SERVE_FLAGS).is_ok());
        // Flag values and pcap's one output path are not flags.
        let pcap = args(&["--scale", "--5", "out.pcap"]);
        assert!(reject_unknown_flags("pcap", &pcap, PCAP_FLAGS).is_ok());
        // A repeated flag used to run its first value and drop the rest.
        let twice = args(&["--seed", "2", "--scale", "60000", "--seed", "3"]);
        let err = reject_unknown_flags("campaign", &twice, CAMPAIGN_FLAGS).unwrap_err();
        assert!(err.contains("--seed") && err.contains("twice"), "{err}");
        assert!(err.contains("campaign"), "{err}");
        let twice = args(&["--full-q1", "--full-q1"]);
        assert!(reject_unknown_flags("campaign", &twice, CAMPAIGN_FLAGS).is_err());
        // A stray positional used to be ignored.
        let stray = args(&["--scale", "60000", "--seed", "1", "bogus"]);
        let err = reject_unknown_flags("campaign", &stray, CAMPAIGN_FLAGS).unwrap_err();
        assert!(err.contains("bogus") && err.contains("campaign"), "{err}");
        let stray = args(&["out.pcap", "--scale", "5000", "again.pcap"]);
        let err = reject_unknown_flags("pcap", &stray, PCAP_FLAGS).unwrap_err();
        assert!(err.contains("again.pcap"), "{err}");
        // A flag its mode does not read used to be dropped silently, and
        // the oracle selector is gone from both scan subcommands.
        let check = |command, known, line: &str| {
            reject_unknown_flags(command, &args(&line.split(' ').collect::<Vec<_>>()), known)
        };
        let (campaign, tables, tap) = (CAMPAIGN_FLAGS, TABLES_FLAGS, TAP_FLAGS);
        for (command, known, line) in [
            ("campaign", campaign, "--analysis batch"),
            ("tables", tables, "--analysis batch"),
            ("tap", tap, "--scale 5000"),
            ("tap", tap, "--match rcode=0 --shards 2"),
            ("tap", tap, "--oneshot --url http://h:1"),
        ] {
            let refused = line.split(' ').rfind(|arg| arg.starts_with("--")).unwrap();
            let err = check(command, known, line).unwrap_err();
            assert!(err.contains(refused), "{command} {line}: {err}");
        }
        // The campaign cut is gone: its two flags are unknown, alone or
        // together.
        for line in [
            "--stop-after 6",
            "--checkpoint-file c",
            "--stop-after 6 --checkpoint-file c",
        ] {
            let err = check("campaign", campaign, line).unwrap_err();
            assert!(err.starts_with("unknown flag --"), "{line}: {err}");
        }
        assert!(check("tap", tap, "--oneshot --scale 5000 --shards 2").is_ok());
        assert!(check("tap", tap, "--url http://h:1 --limit 5").is_ok());
    }

    #[test]
    fn every_flag_is_in_its_subcommands_usage() {
        let usage = HELP
            .split("\n\n")
            .nth(1)
            .expect("USAGE is the second block");
        let stanzas: Vec<&str> = usage.split("\n  orscope ").skip(1).collect();
        for (command, flags) in [
            ("campaign", CAMPAIGN_FLAGS),
            ("tables", TABLES_FLAGS),
            ("serve", SERVE_FLAGS),
            ("tap", TAP_FLAGS),
            ("pcap", PCAP_FLAGS),
        ] {
            let stanza = stanzas
                .iter()
                .find(|stanza| stanza.starts_with(command))
                .unwrap_or_else(|| panic!("no usage for {command}"));
            for flag in flags {
                assert!(
                    stanza.contains(&format!("{flag} ")) || stanza.contains(&format!("{flag}]")),
                    "{command}: {flag} is parsed but not in the help text"
                );
            }
        }
    }

    #[test]
    fn year_parsing() {
        assert_eq!(parse_year(&args(&[])).unwrap(), Year::Y2018);
        assert_eq!(parse_year(&args(&["--year", "2013"])).unwrap(), Year::Y2013);
        assert!(parse_year(&args(&["--year", "1999"])).is_err());
    }

    #[test]
    fn number_parsing() {
        assert_eq!(
            parse_number(&args(&["--scale", "250"]), "--scale", 1.0).unwrap(),
            250.0
        );
        assert_eq!(
            parse_number::<f64>(&args(&[]), "--scale", 7.5).unwrap(),
            7.5
        );
        assert!(parse_number::<u64>(&args(&["--seed", "xyz"]), "--seed", 0).is_err());
    }

    #[test]
    fn outage_bounds_that_are_no_duration_are_refused() {
        let config = CampaignConfig::new(Year::Y2018, 20_000.0);
        let outage = |window: &str| parse_faults(&args(&["--authns-outage", window]), &config);
        for window in ["-5:90", "nan:90", "inf:90", "1e30:2e30"] {
            let err = outage(window).unwrap_err();
            assert!(
                err.starts_with("--authns-outage: bad number"),
                "{window}: {err}"
            );
        }
        let rules = outage("30:90").unwrap().rules;
        let window = rules.iter().map(|rule| (rule.from, rule.until));
        let secs = Duration::from_secs;
        assert_eq!(window.collect::<Vec<_>>(), [(secs(30), secs(90))]);
    }

    #[test]
    fn a_retry_budget_above_the_cap_is_refused_before_any_simulation() {
        for retries in ["17", "4294967295"] {
            let err = cmd_campaign(&args(&["--retries", retries])).unwrap_err();
            assert!(
                err.contains(&format!("retry budget {retries} out of range 0..=16")),
                "{retries}: {err}"
            );
        }
    }

    #[test]
    fn zero_http_limits_are_refused_before_a_fresh_run_wipes_its_state() {
        let state_dir =
            std::env::temp_dir().join(format!("orscope-refused-{}", std::process::id()));
        let history = state_dir.join("checkpoint-00000001.ckpt");
        std::fs::create_dir_all(&state_dir).unwrap();
        std::fs::write(&history, b"history").unwrap();
        let dir = state_dir.to_str().unwrap();
        for (flag, reason) in [
            ("--http-timeout-ms", "close every connection unanswered"),
            ("--http-max-conns", "answer every connection with 503"),
        ] {
            let line = [flag, "0", "--fresh", "--port", "0", "--state-dir", dir];
            let err = cmd_serve(&args(&line)).unwrap_err();
            assert_eq!(err, format!("{flag} 0 would {reason}"));
            assert_eq!(std::fs::read(&history).unwrap(), b"history", "{flag}");
            assert!(parse_http_config(&args(&[flag, "1"])).is_ok());
        }
        std::fs::remove_dir_all(&state_dir).unwrap();
        let config = parse_http_config(&args(&["--http-timeout-ms", "5"])).unwrap();
        assert_eq!(config.write_timeout, Duration::from_millis(5));
        // The accept loop's poll is no setting.
        let poll = args(&["--http-poll-ms", "5"]);
        let err = reject_unknown_flags("serve", &poll, SERVE_FLAGS).unwrap_err();
        assert!(err.starts_with("unknown flag --http-poll-ms"), "{err}");
    }

    #[test]
    fn positional_extraction() {
        let a = args(&["--scale", "5000", "out.pcap"]);
        assert_eq!(positionals(&a), vec!["out.pcap"]);
        let b = args(&["out.pcap", "--scale", "5000"]);
        assert_eq!(positionals(&b), vec!["out.pcap"]);
        let c = args(&["--full-q1", "out.pcap"]);
        assert_eq!(positionals(&c), vec!["out.pcap"]);
        assert!(positionals(&args(&["--scale", "5000"])).is_empty());
    }
}
