//! The `--faults FILE.json` schema, pinned: the README's example loads,
//! every `FaultKind` / `FaultScope` variant round-trips through its
//! documented spelling, malformed plans are rejected with the offending
//! member named, and the loader is total on hostile input.

use std::net::Ipv4Addr;
use std::time::Duration;

use orscope_netsim::{FaultKind, FaultPlan, FaultRule, FaultScope};

#[path = "../../json/tests/hostile/mod.rs"]
mod hostile;

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
fn every_variant_round_trips_through_the_documented_spelling() {
    let plan = every_variant();
    let compact = plan.to_json().encode();
    for (spelling, what) in [
        (r#""scope":"All""#, "unit scope"),
        (r#""scope":{"Host":"104.238.191.60"}"#, "host scope"),
        (
            r#""scope":{"Link":{"src":"132.170.5.53","dst":"104.238.191.60"}}"#,
            "link scope",
        ),
        (r#""kind":{"Loss":{"probability":0.05}}"#, "loss"),
        (r#""kind":{"Duplicate":{"probability":1.0}}"#, "duplicate"),
        (
            r#""kind":{"Delay":{"extra":{"secs":0,"nanos":50000000},"jitter":{"secs":0,"nanos":1}}}"#,
            "delay",
        ),
        (
            r#""kind":{"Reorder":{"probability":0.0,"max_shift":{"secs":0,"nanos":5000000}}}"#,
            "reorder",
        ),
        (r#""kind":"Blackhole""#, "blackhole"),
        (r#""kind":"Crash""#, "crash"),
        (
            r#""from":{"secs":1,"nanos":500000000}"#,
            "sub-second window start",
        ),
        (
            r#""until":{"secs":18446744073709551615,"nanos":999999999}"#,
            "an always-on rule's end",
        ),
        (r#"{"seed":18446744073709551615,"rules":["#, "plan header"),
    ] {
        assert!(
            compact.contains(spelling),
            "{what}: {spelling} not in {compact}"
        );
    }
    assert_eq!(FaultPlan::from_json_str(&compact), Ok(plan.clone()));
    assert_eq!(
        FaultPlan::from_json_str(&plan.to_json().encode_pretty()),
        Ok(plan)
    );
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

#[test]
fn hostile_plan_files_are_errors_never_panics() {
    let plan = every_variant();
    let valid = vec![
        plan.to_json().encode(),
        plan.to_json().encode_pretty(),
        readme_example().to_owned(),
    ];
    let mut accepted = 0u32;
    hostile::for_each_hostile_input(&valid, 30_000, |input| {
        // `--faults` reads the file as text; what is not UTF-8 never
        // reaches the loader.
        let Ok(text) = std::str::from_utf8(input) else {
            return;
        };
        if let Ok(plan) = FaultPlan::from_json_str(text) {
            assert_eq!(plan.validate(), Ok(()), "a loaded plan is a valid plan");
            assert_eq!(FaultPlan::from_json_str(&plan.to_json().encode()), Ok(plan));
            accepted += 1;
        }
    });
    assert!(accepted > 100, "only {accepted} mutated plans still loaded");
}
