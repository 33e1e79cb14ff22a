//! Property tests over the tap predicate language: parse/display must
//! round-trip for every well-formed predicate, and arbitrary input —
//! however malformed — must come back as `Err`, never a panic. The
//! parser fronts an open HTTP surface (`GET /tap?match=`), so hostile
//! input is its normal diet.

use orscope_check::{cases, Rng};
use orscope_core::TapPredicate;

/// The named rcodes `Display` emits.
const RCODES: [&str; 11] = [
    "NoError", "FormErr", "ServFail", "NXDomain", "NotImp", "Refused", "YXDomain", "YXRRSet",
    "NXRRSet", "NotAuth", "NotZone",
];

const CLASSES: [&str; 9] = [
    "honest",
    "filtering",
    "forwarder",
    "misdirecting",
    "malicious",
    "refusing",
    "nxwall",
    "other",
    "silent",
];

/// A canonical qname glob: the restricted character set the parser
/// admits, in lowercase (parsing lowercases, so canonical form is the
/// fixed point), 1..=31 characters, the first not a separator.
fn qname_glob(rng: &mut Rng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789*";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789*._-";
    let mut glob = vec![*rng.choice(FIRST)];
    glob.extend(rng.vec(0..=30, |rng| *rng.choice(REST)));
    String::from_utf8(glob).expect("ASCII")
}

/// A canonical address pattern: a dotted prefix or a CIDR, as
/// `Display` renders them.
fn addr_pattern(rng: &mut Rng) -> String {
    let octets = rng.vec(1..=4, |rng| rng.range(0u8..=255).to_string());
    match rng.bool() {
        true => octets.join("."),
        false => {
            let [a, b, c, d]: [u8; 4] = std::array::from_fn(|_| rng.range(..));
            format!("{a}.{b}.{c}.{d}/{}", rng.range(0..=32))
        }
    }
}

/// One canonical clause, exactly as `Display` would print it.
fn clause(rng: &mut Rng) -> String {
    match rng.range(0..6) {
        0 => format!("qname={}", qname_glob(rng)),
        1 => format!("rcode={}", rng.choice(&RCODES)),
        2 => format!("rcode={}", rng.range(0..=15)),
        3 => format!("class={}", rng.choice(&CLASSES)),
        4 => format!("src={}", addr_pattern(rng)),
        _ => format!("dst={}", addr_pattern(rng)),
    }
}

/// Up to 80 characters of what an open port sees: arbitrary (mostly
/// invalid, lossily decoded) bytes, soup over the language's own
/// alphabet, or a canonical predicate with a few bytes damaged.
fn hostile_text(rng: &mut Rng) -> String {
    const ALPHABET: &[u8] = b"qnamercodlssrt=*./ 0123456789-_NXD\t\xff";
    let bytes = match rng.range(0..3) {
        0 => rng.bytes(0..=80),
        1 => rng.vec(0..=80, |rng| *rng.choice(ALPHABET)),
        _ => {
            let mut bytes = rng.vec(1..5, clause).join(" ").into_bytes();
            rng.mutate(&mut bytes, ALPHABET);
            bytes
        }
    };
    String::from_utf8_lossy(&bytes).chars().take(80).collect()
}

/// Canonical predicates are a fixed point of parse ∘ display:
/// parsing the display of a parsed predicate yields the same
/// clauses and the same display string.
#[test]
fn parse_display_round_trips() {
    cases(256, |rng| {
        let text = rng.vec(0..5, clause).join(" ");
        let parsed: TapPredicate = text.parse().expect("canonical predicate parses");
        let displayed = parsed.to_string();
        let reparsed: TapPredicate = displayed.parse().expect("displayed predicate reparses");
        assert_eq!(parsed, reparsed);
        assert_eq!(displayed, reparsed.to_string());
    });
}

/// Arbitrary input never panics: it either parses (and then
/// round-trips) or returns a structured error.
#[test]
fn arbitrary_input_parses_or_errs() {
    let mut parsed = 0;
    cases(256, |rng| match hostile_text(rng).parse::<TapPredicate>() {
        Ok(predicate) => {
            let reparsed: TapPredicate = predicate
                .to_string()
                .parse()
                .expect("display of a parsed predicate must reparse");
            assert_eq!(predicate, reparsed);
            parsed += 1;
        }
        Err(err) => assert!(!err.0.is_empty(), "errors must say what went wrong"),
    });
    // Both arms ran: damage is small enough that some inputs still parse.
    assert!((10..250).contains(&parsed), "{parsed} of 256 parsed");
}

/// The numeric rcode form for named rcodes normalizes to the name,
/// and stays matchable either way.
#[test]
fn numeric_rcodes_normalize() {
    cases(256, |rng| {
        let numeric: TapPredicate = format!("rcode={}", rng.range(0..=15))
            .parse()
            .expect("numeric rcode parses");
        let named: TapPredicate = numeric
            .to_string()
            .parse()
            .expect("normalized form reparses");
        assert_eq!(numeric, named);
    });
}
