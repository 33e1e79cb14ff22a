//! Regenerates every table and in-text figure of the paper's evaluation
//! and writes the paper-vs-measured report.
//!
//! ```sh
//! cargo run --release -p orscope-bench --bin make_tables \
//!     [--shards N] [--telemetry OUT.jsonl] [--prometheus OUT.prom] \
//!     [SCALE] [OUT.json] [OUT.md]
//! ```
//!
//! `SCALE` defaults to 500 (both scans finish in a few seconds); the
//! optional JSON path receives the machine-readable comparison and the
//! optional markdown path the EXPERIMENTS-style tables.
//!
//! `--telemetry` writes the merged campaign telemetry as JSON lines
//! (one metric per line, tagged with the scan year). The global-scope
//! metrics in that export are byte-identical for every `--shards`
//! value. `--prometheus` writes the full dump — including shard-scope
//! diagnostics and phase spans — in Prometheus text format.

use orscope_core::{Campaign, CampaignConfig};
use orscope_json::Wire;
use orscope_resolver::paper::Year;

/// Pulls `--name value` out of `args`, removing both tokens.
fn take_flag(args: &mut Vec<String>, name: &str) -> Option<String> {
    let index = args.iter().position(|a| a == name)?;
    if index + 1 >= args.len() {
        panic!("{name} needs a value");
    }
    args.remove(index);
    Some(args.remove(index))
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let shards: usize = take_flag(&mut args, "--shards")
        .map(|s| s.parse().expect("--shards must be an integer"))
        .unwrap_or(1);
    let telemetry_path = take_flag(&mut args, "--telemetry");
    let prometheus_path = take_flag(&mut args, "--prometheus");
    let mut args = args.into_iter();
    let scale: f64 = args
        .next()
        .map(|s| s.parse().expect("SCALE must be a number"))
        .unwrap_or(500.0);
    let json_path = args.next();
    let markdown_path = args.next();

    // The two scans are independent simulations: run them in parallel.
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = Year::ALL
            .into_iter()
            .map(|year| {
                scope.spawn(move || {
                    let started = std::time::Instant::now();
                    let config = CampaignConfig::new(year, scale).with_shards(shards);
                    let result = Campaign::new(config).run().unwrap();
                    eprintln!(
                        "[{year}] simulated {} probes, {} responses in {:?}",
                        result.dataset().q1,
                        result.dataset().r2(),
                        started.elapsed()
                    );
                    result
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign thread"))
            .collect()
    });
    let mut json_years = Vec::new();
    let mut markdown = String::new();
    for result in &results {
        println!("{}", result.render());
        json_years.push(result.to_json());
        markdown.push_str(&format!("\n### {} scan\n", result.spec().year));
        for report in result.table_reports() {
            markdown.push_str(&report.to_markdown());
        }
    }

    if let Some(path) = json_path {
        let blob = Wire::obj(vec![
            ("scale", Wire::from(scale)),
            ("years", Wire::Arr(json_years)),
        ]);
        std::fs::write(&path, blob.encode_pretty()).expect("write json");
        eprintln!("wrote {path}");
    }
    if let Some(path) = markdown_path {
        std::fs::write(&path, markdown).expect("write markdown");
        eprintln!("wrote {path}");
    }
    if let Some(path) = telemetry_path {
        let mut out = String::new();
        for result in &results {
            let snapshot = result
                .telemetry()
                .expect("every campaign carries telemetry");
            let year = u64::from(result.spec().year.as_u16());
            out.push_str(&snapshot.to_jsonl_tagged(&[("year", year)]));
        }
        std::fs::write(&path, out).expect("write telemetry jsonl");
        eprintln!("wrote {path}");
    }
    if let Some(path) = prometheus_path {
        let mut out = String::new();
        for result in &results {
            let snapshot = result
                .telemetry()
                .expect("every campaign carries telemetry");
            let year = result.spec().year.as_u16().to_string();
            out.push_str(&snapshot.to_prometheus_labeled(&[("year", &year)]));
        }
        std::fs::write(&path, out).expect("write prometheus dump");
        eprintln!("wrote {path}");
    }
}
