//! The campaign's JSON report is a stable machine interface: downstream
//! tooling (EXPERIMENTS regeneration, dashboards) parses it, so its
//! shape is pinned here.

use orscope_core::{Campaign, CampaignConfig};
use orscope_json::Wire;
use orscope_resolver::paper::Year;

#[test]
fn report_json_schema_is_stable() {
    let result = Campaign::new(CampaignConfig::new(Year::Y2018, 20_000.0))
        .run()
        .unwrap();
    let json = result.to_json();

    // Top-level fields.
    for key in [
        "year",
        "scale",
        "seed",
        "q1",
        "q2",
        "r1",
        "r2",
        "duration_secs",
        "tables",
    ] {
        assert!(json.get(key).is_some(), "missing {key}");
    }
    assert_eq!(json["year"], Wire::U64(2018));
    assert_eq!(json["scale"], Wire::F64(20_000.0));
    assert_eq!(json["q2"], json["r1"]);

    // Tables: every block has a title and comparisons with the fixed
    // triple of fields.
    let tables = json["tables"].as_arr().expect("tables array");
    assert!(tables.len() >= 10, "{} table blocks", tables.len());
    let titles: Vec<&str> = tables
        .iter()
        .map(|t| t["title"].as_str().expect("title"))
        .collect();
    for needle in [
        "Table II",
        "Table III",
        "Table IV",
        "Table V",
        "Table VI",
        "Table VII",
        "Table VIII",
        "Table IX",
        "Table X",
        "IV-C2",
        "IV-B4",
    ] {
        assert!(
            titles.iter().any(|t| t.contains(needle)),
            "no table block for {needle} in {titles:?}"
        );
    }
    for table in tables {
        let comparisons = table["comparisons"].as_arr().expect("comparisons");
        assert!(!comparisons.is_empty());
        for c in comparisons {
            assert!(c["name"].as_str().is_ok());
            assert!(c["paper"].as_f64().is_ok());
            assert!(c["measured"].as_f64().is_ok());
        }
    }

    // The report round-trips through its text, compact and pretty.
    assert_eq!(Wire::decode(json.encode()).expect("parseable"), json);
    assert_eq!(Wire::decode(json.encode_pretty()).expect("parseable"), json);
}

#[test]
fn markdown_report_contains_every_table() {
    let result = Campaign::new(CampaignConfig::new(Year::Y2013, 20_000.0))
        .run()
        .unwrap();
    let markdown: String = result
        .table_reports()
        .iter()
        .map(|r| r.to_markdown())
        .collect();
    assert!(markdown.contains("**Table III (answer presence and correctness)**"));
    assert!(markdown.contains("| W_corr |"));
    assert!(markdown.matches("| quantity | paper |").count() >= 10);
}
