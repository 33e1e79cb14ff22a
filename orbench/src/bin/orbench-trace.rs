//! `orbench-trace`: the traced side of the benchmark. Installs the
//! counting allocator, runs one workload's operation once under spans
//! plus the isolated layer timings, prints every per-layer metric and
//! writes `<target>/orbench/trace-<workload>.json`.
//!
//! Normally started by `orbench --trace 1`, which passes the untraced
//! reps it measured on the system allocator (`--reference`).

use std::process::ExitCode;

use orbench::alloc::CountingAlloc;
use orbench::{cli, serve, traced};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("orbench-trace: {message}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        eprintln!("orbench-trace: --workload is required");
        return ExitCode::from(2);
    };
    let run = traced::run(workload, &args.params(), args.seed, args.reference);

    let dir = serve::output_dir();
    let path = dir.join(format!("trace-{}.json", workload.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, format!("{:#}\n", run.document)));
    match written {
        Ok(()) => println!("{}: trace written to {}", workload.name(), path.display()),
        Err(err) => {
            eprintln!("orbench-trace: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    }
    run.outcome.print(workload.name());
    ExitCode::SUCCESS
}
