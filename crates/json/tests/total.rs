//! The one JSON reader is total: arbitrary bytes and byte-mutated valid
//! documents produce `Ok` or `Err` — never a panic — while requesting
//! at most `ALLOC_FACTOR` bytes of heap per input byte, every value the
//! writer can produce decodes back to itself from both the compact and
//! the pretty form, and reading past a value accepts what decoding it
//! does.

use orscope_check::alloc::{thread_requested_bytes, CountingAlloc};
use orscope_check::{cases, Rng};
use orscope_json::{Reader, Wire, MAX_DEPTH};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Structural bytes, digits, literal fragments and a stray non-UTF-8
/// byte: soup drawn from this gets much deeper into a JSON reader than
/// uniform bytes do.
const ALPHABET: &[u8] = b"{}[]\",:\\ \n\t-+.eEu0123456789truefalsn\xff";

/// Runs `check` on `rounds` generated inputs. A third are arbitrary
/// bytes, a third alphabet soup, a third copies of a `valid` document
/// with a few bytes flipped, inserted, deleted, doubled or cut off.
fn for_each_hostile_input(valid: &[String], rounds: u64, mut check: impl FnMut(&[u8])) {
    cases(rounds, |rng| {
        let input = match rng.range(0..3) {
            0 => rng.bytes(0..64),
            1 => rng.vec(0..96, |rng| *rng.choice(ALPHABET)),
            _ => {
                let mut bytes = rng.choice(valid).clone().into_bytes();
                rng.mutate(&mut bytes, ALPHABET);
                bytes
            }
        };
        check(&input);
    });
}

/// Heap bytes the reader may request per input byte, every regrowth of
/// every vector counted in full. The worst honest cases measure 64
/// (`[[[[..]]]]`: two bytes a level, each level a vector at its
/// four-slot minimum of 128 bytes) and 53 (`[[0],[0],..`: the same inner
/// vector every four bytes, plus a doubling outer one); the budget is
/// twice that.
const ALLOC_FACTOR: usize = 128;
/// Room for one error message.
const ALLOC_SLACK: usize = 1024;

fn decode_within_budget(input: &[u8]) -> Result<Wire, String> {
    let before = thread_requested_bytes();
    let outcome = Wire::decode(input);
    let requested = thread_requested_bytes() - before;
    let budget = ALLOC_FACTOR * input.len() + ALLOC_SLACK;
    assert!(
        requested <= budget,
        "decoding {} bytes requested {requested} bytes of heap (budget {budget})",
        input.len()
    );
    outcome
}

/// A value the writer can produce and the reader must return unchanged:
/// finite floats, negative `I64`s only, strings over controls, quotes,
/// backslashes and 1- to 4-byte scalars.
fn arbitrary_value(rng: &mut Rng, depth: usize) -> Wire {
    let string = |rng: &mut Rng| -> String {
        let chars = rng.vec(0..12, |rng| match rng.range(0..6) {
            0 => char::from(rng.range(0u8..0x20)),
            1 => *rng.choice(&['"', '\\', '/', '\u{7f}']),
            2 => char::from_u32(rng.range(0x80..0x780)).unwrap(),
            3 => *rng.choice(&['\u{20ac}', '\u{fffd}', '\u{1f50d}', '\u{10ffff}']),
            _ => char::from(rng.range(b' '..=b'~')),
        });
        chars.into_iter().collect()
    };
    let containers = if depth < 4 { 2 } else { 0 };
    match rng.range(0..6 + containers) {
        0 => Wire::Null,
        1 => Wire::Bool(rng.bool()),
        2 => Wire::U64(rng.next_u64() >> rng.range(0..64)),
        3 => Wire::I64(-1 - (rng.next_u64() >> rng.range(1..64)) as i64),
        4 => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break Wire::F64(x);
            }
        },
        5 => Wire::Str(string(rng)),
        6 => Wire::Arr(rng.vec(0..5, |rng| arbitrary_value(rng, depth + 1))),
        _ => Wire::Obj(rng.vec(0..5, |rng| (string(rng), arbitrary_value(rng, depth + 1)))),
    }
}

#[test]
fn every_encoded_value_decodes_to_itself_compact_and_pretty() {
    cases(4_000, |rng| {
        let value = arbitrary_value(rng, 0);
        for encoded in [value.encode(), value.encode_pretty()] {
            match decode_within_budget(encoded.as_bytes()) {
                Ok(decoded) if decoded == value => {}
                other => panic!("{encoded} decoded to {other:?}"),
            }
        }
    });
}

#[test]
fn arbitrary_and_mutated_bytes_never_panic_and_stay_within_the_allocation_budget() {
    let valid: Vec<String> = (0..64u64)
        .map(|seed| arbitrary_value(&mut Rng::new(seed), 0))
        .flat_map(|value| [value.encode(), value.encode_pretty()])
        .collect();
    let mut accepted = 0u32;
    for_each_hostile_input(&valid, 60_000, |input| {
        if let Ok(value) = decode_within_budget(input) {
            // Whatever was accepted is a value like any other: it
            // re-encodes to a document that reads back the same.
            assert_eq!(Wire::decode(value.encode()), Ok(value));
            accepted += 1;
        }
    });
    // The mutations are small, so a fair share of inputs still parse:
    // the loop exercises the accepting paths, not only the first error.
    assert!(accepted > 2_000, "only {accepted} inputs were accepted");
}

#[test]
fn reading_past_a_value_accepts_exactly_what_decoding_does() {
    // Typed readers skip the members they do not know; a skipped member
    // must be held to the grammar a decoded one is, or a document could
    // verify through one path and fail through the other.
    let valid: Vec<String> = (0..64u64)
        .map(|seed| arbitrary_value(&mut Rng::new(seed), 0))
        .flat_map(|value| [value.encode(), value.encode_pretty()])
        .collect();
    for_each_hostile_input(&valid, 20_000, |input| {
        let before = thread_requested_bytes();
        let mut reader = Reader::new(input);
        let skipped = reader.skip().and_then(|()| reader.finish());
        let requested = thread_requested_bytes() - before;
        assert!(requested <= ALLOC_FACTOR * input.len() + ALLOC_SLACK);
        assert_eq!(
            skipped.is_ok(),
            Wire::decode(input).is_ok(),
            "{:?}",
            String::from_utf8_lossy(input)
        );
    });
}

#[test]
fn the_budget_holds_on_the_adversarial_shapes() {
    for document in [
        "[".repeat(100_000),
        "{\"\":".repeat(50_000),
        "[[0],".repeat(25_000),
        "[0,".repeat(30_000),
        "[{\"\":0},".repeat(12_000),
        format!("[{}0]", "[0],".repeat(25_000)),
        format!("[{}0]", "0,".repeat(50_000)),
        format!("[{}{{}}]", "{\"\":0},".repeat(12_000)),
        format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH)),
        format!("\"{}\"", "\\u0041".repeat(10_000)),
    ] {
        let _ = decode_within_budget(document.as_bytes());
    }
}
