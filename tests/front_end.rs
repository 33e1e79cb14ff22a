//! `orscope tables` is the one front end that regenerates the paper's
//! evaluation: what it writes is what the library renders for each year
//! of `Year::ALL`, in that order, byte for byte. And `orscope serve
//! --fresh` wipes its state dir only for a run that is about to start.

use std::process::Command;

use orscope_core::{Campaign, CampaignConfig};
use orscope_json::Wire;
use orscope_resolver::paper::Year;

#[test]
fn tables_writes_what_the_library_renders() {
    let dir = std::env::temp_dir().join(format!("orscope-front-end-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (json, markdown) = (dir.join("tables.json"), dir.join("tables.md"));
    let output = Command::new(env!("CARGO_BIN_EXE_orscope"))
        .args(["tables", "--scale", "20000", "--json"])
        .arg(&json)
        .arg("--markdown")
        .arg(&markdown)
        .output()
        .expect("orscope runs");
    assert!(output.status.success(), "{output:?}");

    let results = Year::ALL.map(|year| {
        let config = CampaignConfig::new(year, 20_000.0);
        Campaign::new(config).run().expect("campaign runs")
    });
    let read = |path| std::fs::read_to_string(path).expect("orscope wrote it");
    let years = Wire::Arr(results.iter().map(|result| result.to_json()).collect());
    let expected = Wire::obj(vec![("scale", Wire::from(20_000.0)), ("years", years)]);
    assert_eq!(read(&json), expected.encode_pretty());
    let mut expected = String::new();
    for result in &results {
        expected.push_str(&format!("\n### {} scan\n", result.spec().year));
        for report in result.table_reports() {
            expected.push_str(&report.to_markdown());
        }
    }
    assert_eq!(read(&markdown), expected);
    std::fs::remove_dir_all(&dir).expect("scratch dir is removable");
}

#[test]
fn a_refused_fresh_serve_keeps_its_state_dir() {
    let dir = std::env::temp_dir().join(format!("orscope-fresh-{}", std::process::id()));
    let generation = dir.join("checkpoint-00000003.ckpt");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(&generation, b"history").expect("generation is writable");
    // A flag that does not parse, and a config the observatory refuses.
    for bad in [["--port", "x"], ["--keep-generations", "0"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_orscope"))
            .args(["serve", "--fresh", "--state-dir"])
            .arg(&dir)
            .args(bad)
            .output()
            .expect("orscope runs");
        assert!(!output.status.success(), "{bad:?} was accepted");
        assert!(generation.exists(), "{bad:?} wiped the state dir");
    }
    std::fs::remove_dir_all(&dir).expect("scratch dir is removable");
}
