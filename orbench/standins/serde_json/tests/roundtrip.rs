//! The stand-in `serde` + `serde_derive` + `serde_json` against the
//! shapes this repository derives and the bytes the published crates
//! would write for them.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Row {
    epoch: u64,
    /// A documented field: doc comments are attributes the derive skips.
    pub err_pct: f64,
    counts: BTreeMap<String, u64>,
    pairs: Vec<(u32, u64)>,
    note: Option<String>,
    #[serde(default)]
    degraded: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Newtype(u32);

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Scope {
    All,
    Host(Ipv4Addr),
    Link { src: Ipv4Addr, dst: Ipv4Addr },
    Window(u32, u32),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Rule {
    from: Duration,
    scope: Scope,
    id: Newtype,
}

fn row() -> Row {
    Row {
        epoch: 3,
        err_pct: 2.5,
        counts: BTreeMap::from([("honest".to_owned(), 7), ("silent".to_owned(), 0)]),
        pairs: vec![(1, 2)],
        note: None,
        degraded: true,
    }
}

#[test]
fn structs_round_trip_through_value_and_text() {
    let value = serde_json::to_value(&row()).unwrap();
    assert_eq!(value["counts"]["honest"], json!(7));
    assert_eq!(value["pairs"], json!([[1, 2]]));
    assert_eq!(value["note"], Value::Null);
    assert_eq!(serde_json::from_value::<Row>(value).unwrap(), row());

    let text = serde_json::to_string(&row()).unwrap();
    assert_eq!(serde_json::from_str::<Row>(&text).unwrap(), row());
}

#[test]
fn missing_fields_default_only_when_told_to() {
    let mut value = serde_json::to_value(&row()).unwrap();
    let Value::Object(map) = &mut value else {
        panic!("a struct is an object")
    };
    let stripped: serde_json::Map = map
        .iter()
        .filter(|(key, _)| *key != "degraded" && *key != "note")
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    let back: Row = serde_json::from_value(Value::Object(stripped)).unwrap();
    assert!(!back.degraded, "#[serde(default)]");
    assert_eq!(back.note, None, "an absent Option is None");
    let err = serde_json::from_value::<Row>(json!({ "epoch": 1 })).unwrap_err();
    assert!(err.to_string().contains("missing field"), "{err}");
    assert!(serde_json::from_value::<Row>(json!([1, 2])).is_err());
}

#[test]
fn enums_are_externally_tagged_and_newtypes_transparent() {
    let rule = Rule {
        from: Duration::new(5, 250),
        scope: Scope::Link {
            src: Ipv4Addr::new(1, 2, 3, 4),
            dst: Ipv4Addr::new(5, 6, 7, 8),
        },
        id: Newtype(9),
    };
    let value = serde_json::to_value(&rule).unwrap();
    assert_eq!(
        value,
        json!({
            "from": { "secs": 5, "nanos": 250 },
            "scope": { "Link": { "src": "1.2.3.4", "dst": "5.6.7.8" } },
            "id": 9,
        })
    );
    assert_eq!(serde_json::from_value::<Rule>(value).unwrap(), rule);
    for scope in [
        Scope::All,
        Scope::Host(Ipv4Addr::LOCALHOST),
        Scope::Window(1, 2),
    ] {
        let value = serde_json::to_value(&scope).unwrap();
        assert_eq!(serde_json::from_value::<Scope>(value).unwrap(), scope);
    }
    assert_eq!(serde_json::to_value(&Scope::All).unwrap(), json!("All"));
    assert_eq!(
        serde_json::to_value(&Scope::Window(1, 2)).unwrap(),
        json!({ "Window": [1, 2] })
    );
    assert!(serde_json::from_value::<Scope>(json!("Nope"))
        .unwrap_err()
        .to_string()
        .contains("unknown variant"));
}

#[test]
fn pretty_output_is_the_published_layout() {
    let doc = json!({
        "b": [1, -2, 2.5, 1.0, null, true],
        "a": { "nested": {}, "empty": [], "text": "q\"uote\n" },
        "big": 18446744073709551615u64,
        "nan": f64::NAN,
    });
    let expected = r#"{
  "a": {
    "empty": [],
    "nested": {},
    "text": "q\"uote\n"
  },
  "b": [
    1,
    -2,
    2.5,
    1.0,
    null,
    true
  ],
  "big": 18446744073709551615,
  "nan": null
}"#;
    assert_eq!(serde_json::to_string_pretty(&doc).unwrap(), expected);
    assert_eq!(format!("{doc:#}"), expected);
    let compact = r#"{"a":{"empty":[],"nested":{},"text":"q\"uote\n"},"b":[1,-2,2.5,1.0,null,true],"big":18446744073709551615,"nan":null}"#;
    assert_eq!(doc.to_string(), compact);
    let parsed: Value = serde_json::from_str(expected).unwrap();
    assert_eq!(parsed, doc, "the parser reads back what the writer wrote");
}

#[test]
fn json_macro_takes_expressions_closures_and_nested_literals() {
    let rows = [row()];
    let latest = rows.last();
    let doc = json!({
        "latest": latest.map(|row| json!({ "epoch": row.epoch, "churn": { "joins": row.epoch + 1, }, })),
        "delta": 3i64 - 5i64,
        "series": rows.iter().map(|row| row.epoch).collect::<Vec<_>>(),
        "counts": rows[0].counts,
    });
    assert_eq!(doc["latest"]["churn"]["joins"], json!(4));
    assert_eq!(doc["delta"], json!(-2));
    assert_eq!(doc["series"], json!([3]));
    assert_eq!(doc["counts"]["silent"], json!(0));
    assert_eq!(doc["absent"]["deeper"], Value::Null);
    assert_eq!(json!(1), json!(1u8));
    assert_ne!(json!(1), json!(1.0), "integers and floats stay distinct");
}

#[test]
fn the_parser_refuses_garbage_and_bounds_nesting() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\" 1}",
        "nul",
        "1 2",
        "\"open",
        "\"\\x\"",
        "[\"\\ud800\"]",
    ] {
        assert!(serde_json::from_str::<Value>(bad).is_err(), "{bad:?}");
    }
    let deep = "[".repeat(10_000);
    assert!(serde_json::from_str::<Value>(&deep)
        .unwrap_err()
        .to_string()
        .contains("recursion"));
    let text: Value =
        serde_json::from_str(r#"{"s": "\u00e9\ud83d\ude00 \/", "n": -1.5e2, "i": -7}"#).unwrap();
    assert_eq!(text["s"], json!("é😀 /"));
    assert_eq!(text["n"], json!(-150.0));
    assert_eq!(text["i"].as_i64(), Some(-7));
}
