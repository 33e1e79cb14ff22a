//! `orbench`: the timed side of the benchmark, on the system allocator.
//!
//! ```text
//! orbench --workload NAME --seed N --seconds N --trace 0|1   one workload; last stdout line is the result
//! orbench [--seed N] [--seconds N] [--trace 0|1]              all four, one after another
//! orbench aa --sets 2 --runs 5 [--seconds N]                  the A/A check, as a Markdown table
//! orbench --smoke ...                                         the same paths at test sizes
//! orbench --cold --workload NAME --seed N                     one operation (a timed run's child)
//! ```
//!
//! `--trace 0` starts `--cold` children of this binary for `--seconds`.
//! `--trace 1` measures untraced reps here, then hands over to the
//! sibling `orbench-trace` binary (counting allocator, spans).

use std::process::{Command, ExitCode};

use orbench::host::HostStamp;
use orbench::workload::Workload;
use orbench::{aa, cli, cold, traced};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("aa") => run_aa(&args[1..]),
        _ => cli::parse(&args).and_then(|args| match args.workload {
            Some(workload) => run_one(workload, &args),
            None => run_all(&args),
        }),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("orbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Prints the host stamp and warns when the host is already busy.
fn stamp(args: &cli::Args) {
    let stamp = HostStamp::collect();
    println!("host: {}", stamp.to_json());
    println!(
        "run: seed = {:#x}, seconds = {}, params = {}",
        args.seed,
        args.seconds,
        args.params().to_json()
    );
    if stamp.is_noisy() {
        println!(
            "WARNING: load average {:.2} exceeds half of {} CPUs; this run is noisy",
            stamp.load_1m, stamp.host_cpus
        );
    }
}

fn run_one(workload: Workload, args: &cli::Args) -> Result<ExitCode, String> {
    if args.cold {
        println!(
            "{}",
            cold::child(workload, &args.params(), args.seed).to_line()
        );
        return Ok(ExitCode::SUCCESS);
    }
    stamp(args);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    if args.trace {
        // The reference must not pay for counting, so it runs here; the
        // traced pass needs the counting allocator, so it runs there.
        let reference = traced::reference(workload, &args.params(), args.seed);
        let sibling = exe.with_file_name("orbench-trace");
        let handoff = cli::Args {
            reference: Some(reference),
            ..args.clone()
        };
        // The child inherits standard output: its result line is ours.
        let status = Command::new(&sibling)
            .args(handoff.to_flags())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", sibling.display()))?;
        return Ok(if status.success() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    cold::run(&exe, workload, args)?.print(workload.name());
    Ok(ExitCode::SUCCESS)
}

/// Runs the four workloads one after another, each under a process of
/// its own so that each prints its own stamp and result line.
fn run_all(args: &cli::Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_ok = true;
    for workload in Workload::ALL {
        let one = cli::Args {
            workload: Some(workload),
            ..args.clone()
        };
        let status = Command::new(&exe)
            .args(one.to_flags())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
        all_ok &= status.success();
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_aa(args: &[String]) -> Result<ExitCode, String> {
    let mut options = aa::Options {
        sets: 2,
        runs: 5,
        seconds: 20.0,
        smoke: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--smoke" {
            options.smoke = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let invalid = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--sets" => {
                options.sets = value.parse().ok().filter(|&n| n >= 2).ok_or_else(invalid)?
            }
            "--runs" => {
                options.runs = value.parse().ok().filter(|&n| n >= 1).ok_or_else(invalid)?
            }
            "--seconds" => options.seconds = value.parse().map_err(|_| invalid())?,
            _ => return Err(format!("unknown flag `{flag}` for aa")),
        }
    }
    let path = aa::find_benchmark_json()
        .ok_or("BENCHMARK.json not found (run from the repository root)")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bounds = aa::parse_bounds(&text)?;
    let stamp = HostStamp::collect();
    println!("host: {}", stamp.to_json());
    println!(
        "aa: {} sets x {} runs x {} workloads, {} s each\n",
        options.sets,
        options.runs,
        Workload::ALL.len(),
        options.seconds
    );
    let verdicts = aa::run(&options, &bounds)?;
    print!("{}", aa::render(&verdicts));
    let gated = verdicts.iter().filter(|verdict| verdict.gated).count();
    let failures = verdicts
        .iter()
        .filter(|verdict| verdict.gated && !verdict.pass)
        .count();
    let unresolved = verdicts
        .iter()
        .filter(|verdict| !verdict.gated && !verdict.pass)
        .count();
    println!(
        "\n{} of {gated} gated workload x metric pairs PASS; {unresolved} of {} ungated pairs are UNRESOLVED at {:.0} %",
        gated - failures,
        verdicts.len() - gated,
        aa::UNGATED_BOUND * 100.0
    );
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
