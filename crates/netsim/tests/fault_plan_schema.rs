//! The `--faults FILE.json` schema, pinned: the README's example loads,
//! every `FaultKind` / `FaultScope` variant loads from its documented
//! spelling, malformed plans are rejected with the offending
//! member named, and the loader is total on hostile input (the codec's
//! own seeded loop, over arbitrary bytes too, is `orscope-json`'s
//! `tests/total.rs`).

use std::net::Ipv4Addr;
use std::time::Duration;

use orscope_json::Wire;
use orscope_netsim::{FaultKind, FaultPlan, FaultRule, FaultScope};

/// The JSON block under "Arbitrary scripted impairments" in README.md.
fn readme_example() -> &'static str {
    let readme = include_str!("../../../README.md");
    let section = &readme[readme
        .find("Arbitrary scripted impairments")
        .expect("the README documents --faults")..];
    let block = &section[section.find("```json\n").expect("a json example") + 8..];
    &block[..block.find("```").expect("the example block closes")]
}

const A: Ipv4Addr = Ipv4Addr::new(132, 170, 5, 53);
const B: Ipv4Addr = Ipv4Addr::new(104, 238, 191, 60);

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

/// [`every_variant`] in the documented layout: each `FaultKind` and
/// `FaultScope` in its literal spelling, a full-range seed, a sub-second
/// window start and the end of an always-on rule.
const EVERY_VARIANT: &str = r#"{"seed": 18446744073709551615, "rules": [
  {"from": {"secs": 0, "nanos": 0}, "until": {"secs": 120, "nanos": 0},
   "scope": "All", "kind": {"Loss": {"probability": 0.05}}},
  {"from": {"secs": 0, "nanos": 0},
   "until": {"secs": 18446744073709551615, "nanos": 999999999},
   "scope": {"Host": "104.238.191.60"},
   "kind": {"Duplicate": {"probability": 1.0}}},
  {"from": {"secs": 1, "nanos": 500000000}, "until": {"secs": 600, "nanos": 0},
   "scope": {"Link": {"src": "132.170.5.53", "dst": "104.238.191.60"}},
   "kind": {"Delay": {"extra": {"secs": 0, "nanos": 50000000},
                      "jitter": {"secs": 0, "nanos": 1}}}},
  {"from": {"secs": 0, "nanos": 0},
   "until": {"secs": 18446744073709551615, "nanos": 999999999},
   "scope": {"Link": {"src": "132.170.5.53", "dst": "104.238.191.60"}},
   "kind": {"Reorder": {"probability": 0.0,
                        "max_shift": {"secs": 0, "nanos": 5000000}}}},
  {"from": {"secs": 30, "nanos": 0}, "until": {"secs": 90, "nanos": 0},
   "scope": {"Host": "104.238.191.60"}, "kind": "Blackhole"},
  {"from": {"secs": 2, "nanos": 0}, "until": {"secs": 4, "nanos": 0},
   "scope": "All", "kind": "Crash"}
]}"#;

/// One rule per kind, all three scopes, a sub-second and an unbounded
/// window among them.
fn every_variant() -> FaultPlan {
    let link = FaultScope::Link { src: A, dst: B };
    FaultPlan::seeded(u64::MAX)
        .with_rule(FaultRule::window(
            secs(0),
            secs(120),
            FaultScope::All,
            FaultKind::Loss { probability: 0.05 },
        ))
        .with_rule(FaultRule::always(
            FaultScope::Host(B),
            FaultKind::Duplicate { probability: 1.0 },
        ))
        .with_rule(FaultRule::window(
            Duration::from_millis(1_500),
            secs(600),
            link,
            FaultKind::Delay {
                extra: Duration::from_millis(50),
                jitter: Duration::from_nanos(1),
            },
        ))
        .with_rule(FaultRule::always(
            link,
            FaultKind::Reorder {
                probability: 0.0,
                max_shift: Duration::from_millis(5),
            },
        ))
        .with_rule(FaultRule::window(
            secs(30),
            secs(90),
            FaultScope::Host(B),
            FaultKind::Blackhole,
        ))
        .with_rule(FaultRule::window(
            secs(2),
            secs(4),
            FaultScope::All,
            FaultKind::Crash,
        ))
}

#[test]
fn the_readme_example_is_a_valid_plan() {
    let plan = FaultPlan::from_json_str(readme_example()).expect("the documented example loads");
    assert_eq!(
        plan,
        FaultPlan::seeded(7)
            .with_rule(FaultRule::window(
                secs(0),
                secs(120),
                FaultScope::All,
                FaultKind::Loss { probability: 0.05 },
            ))
            .with_rule(FaultRule::window(
                secs(30),
                secs(90),
                FaultScope::Host(B),
                FaultKind::Blackhole,
            ))
            .with_rule(FaultRule::window(
                secs(0),
                secs(600),
                FaultScope::Link { src: A, dst: B },
                FaultKind::Delay {
                    extra: Duration::from_millis(50),
                    jitter: Duration::from_millis(10),
                },
            ))
    );
}

#[test]
fn every_variant_loads_from_its_documented_spelling() {
    assert_eq!(FaultPlan::from_json_str(EVERY_VARIANT), Ok(every_variant()));
    // Layout, not whitespace: the same document written compactly, as
    // the derive this schema came from wrote it, is the same plan.
    let compact = Wire::decode(EVERY_VARIANT).unwrap().encode();
    assert!(compact.starts_with(r#"{"seed":18446744073709551615,"rules":[{"from":{"secs":0,"#));
    assert_eq!(FaultPlan::from_json_str(&compact), Ok(every_variant()));
}

#[test]
fn malformed_plans_are_rejected_with_the_member_named() {
    let good = r#"{"seed":1,"rules":[{"from":{"secs":0,"nanos":0},"until":{"secs":9,"nanos":0},"scope":{"Host":"10.0.0.1"},"kind":{"Loss":{"probability":0.5}}}]}"#;
    assert!(FaultPlan::from_json_str(good).is_ok());
    for (from, to, needles) in [
        // Unknown variants.
        (
            r#"{"Loss":{"probability":0.5}}"#,
            r#""Lossy""#,
            &["kind", "Lossy", "unknown variant"][..],
        ),
        (
            r#"{"Loss":{"probability":0.5}}"#,
            r#"{"Jitter":{}}"#,
            &["kind", "Jitter", "unknown variant"],
        ),
        (
            r#"{"Host":"10.0.0.1"}"#,
            r#""Everywhere""#,
            &["scope", "Everywhere", "unknown variant"],
        ),
        (
            r#"{"Loss":{"probability":0.5}}"#,
            r#"{"Blackhole":{}}"#,
            &["kind", "Blackhole"],
        ),
        // Out-of-range and mistyped probabilities.
        ("0.5", "1.5", &["rule 0", "probability"]),
        ("0.5", "-0.1", &["rule 0", "probability"]),
        (
            "0.5",
            "\"high\"",
            &["rule 0", "kind", "Loss", "probability"],
        ),
        // Missing and mistyped members.
        (
            r#""probability":0.5"#,
            r#""probabilty":0.5"#,
            &["kind", "Loss", "probability"],
        ),
        (r#""seed":1,"#, "", &["seed"]),
        (r#""until":{"secs":9,"nanos":0},"#, "", &["rule 0", "until"]),
        (
            r#"{"secs":9,"nanos":0}"#,
            r#"{"secs":9,"nanos":1000000000}"#,
            &["until", "nanos"],
        ),
        (r#"{"secs":9,"nanos":0}"#, "9", &["until"]),
        (
            r#""10.0.0.1""#,
            r#""10.0.0.256""#,
            &["scope", "Host", "10.0.0.256"],
        ),
        (
            r#"{"Host":"10.0.0.1"}"#,
            r#"{"Link":{"src":"10.0.0.1"}}"#,
            &["scope", "Link", "dst"],
        ),
        // What `validate` rejects, at load time.
        (r#""secs":9"#, r#""secs":0"#, &["rule 0", "window"]),
        (r#"{"Loss":{"probability":0.5}}"#, r#""Crash""#, &[]),
    ] {
        let text = good.replace(from, to);
        assert_ne!(text, good, "{from} must occur in the document");
        match (FaultPlan::from_json_str(&text), needles) {
            (Ok(_), []) => {} // a host-scoped crash is a fine plan
            (Ok(plan), _) => panic!("{to} was accepted as {plan:?}"),
            (Err(err), _) => {
                for needle in needles {
                    assert!(
                        err.contains(needle),
                        "{to}: {err:?} does not name {needle:?}"
                    );
                }
            }
        }
    }
    let link_crash = good
        .replace(
            r#"{"Host":"10.0.0.1"}"#,
            r#"{"Link":{"src":"10.0.0.1","dst":"10.0.0.2"}}"#,
        )
        .replace(r#"{"Loss":{"probability":0.5}}"#, r#""Crash""#);
    assert!(FaultPlan::from_json_str(&link_crash)
        .unwrap_err()
        .contains("crash"));
}

/// What a mutation inserts: JSON's structural bytes, number and escape
/// fragments, and one byte that is never UTF-8.
const ALPHABET: &[u8] = b"{}[]\",:\\-+.eu0123456789\xff";

#[test]
fn hostile_plan_files_are_errors_never_panics() {
    let valid = [
        EVERY_VARIANT.to_owned(),
        Wire::decode(EVERY_VARIANT).unwrap().encode(),
        readme_example().to_owned(),
    ];
    let mut accepted = 0u32;
    orscope_check::cases(30_000, |rng| {
        let mut bytes = rng.choice(&valid).clone().into_bytes();
        rng.mutate(&mut bytes, ALPHABET);
        // `--faults` reads the file as text; what is not UTF-8 never
        // reaches the loader.
        let Ok(text) = std::str::from_utf8(&bytes) else {
            return;
        };
        if let Ok(plan) = FaultPlan::from_json_str(text) {
            assert_eq!(plan.validate(), Ok(()), "{text}");
            accepted += 1;
        }
    });
    assert!(accepted > 100, "only {accepted} mutated plans still loaded");
}
