//! The one JSON reader is total: arbitrary bytes and byte-mutated valid
//! documents produce `Ok` or `Err` — never a panic — while requesting
//! at most `ALLOC_FACTOR` bytes of heap per input byte, and every value
//! the writer can produce decodes back to itself from both the compact
//! and the pretty form. Seeded, so a failure names the seed to replay.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use orscope_json::{Wire, MAX_DEPTH};

thread_local! {
    /// Bytes this thread has requested from the allocator (the test
    /// harness runs other tests on other threads).
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// Counts bytes *requested* per thread — not `orscope_bench::alloc`'s
/// process-wide live peak, and this leaf crate cannot depend on that
/// one anyway.
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counter is a const-initialised thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|bytes| bytes.set(bytes.get() + layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|bytes| bytes.set(bytes.get() + new_size));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Sebastiano Vigna's SplitMix64 — one `u64` of state, no dependency.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..bound` (`bound` > 0).
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Structural bytes, digits, literal fragments and a stray non-UTF-8
/// byte: soup drawn from this gets much deeper into a JSON reader than
/// uniform bytes do.
const ALPHABET: &[u8] = b"{}[]\",:\\ \n\t-+.eEu0123456789truefalsn\xff";

/// Runs `check` on `rounds` generated inputs, one per seed `0..rounds`.
/// A third are arbitrary bytes, a third alphabet soup, a third copies
/// of a `valid` document with a few bytes flipped, inserted, deleted,
/// doubled or cut off. When `check` panics, the seed and the input are
/// printed before the panic continues.
fn for_each_hostile_input(valid: &[String], rounds: u64, mut check: impl FnMut(&[u8])) {
    for seed in 0..rounds {
        let mut rng = SplitMix64(seed);
        let input: Vec<u8> = match seed % 3 {
            0 => (0..rng.below(64)).map(|_| rng.next() as u8).collect(),
            1 => (0..rng.below(96))
                .map(|_| ALPHABET[rng.below(ALPHABET.len())])
                .collect(),
            _ => {
                let mut bytes = valid[rng.below(valid.len())].clone().into_bytes();
                for _ in 0..1 + rng.below(4) {
                    let at = rng.below(bytes.len().max(1)).min(bytes.len());
                    match rng.below(5) {
                        0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
                        1 => bytes.insert(at, ALPHABET[rng.below(ALPHABET.len())]),
                        2 if at < bytes.len() => {
                            bytes.remove(at);
                        }
                        3 => {
                            let tail = bytes[at..].to_vec();
                            bytes.extend_from_slice(&tail);
                        }
                        _ => bytes.truncate(at),
                    }
                }
                bytes
            }
        };
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(&input))) {
            eprintln!(
                "failing seed {seed}: input {:?}",
                String::from_utf8_lossy(&input)
            );
            resume_unwind(panic);
        }
    }
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
    let before = REQUESTED.with(Cell::get);
    let outcome = Wire::decode(input);
    let requested = REQUESTED.with(Cell::get) - before;
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
fn arbitrary_value(rng: &mut SplitMix64, depth: usize) -> Wire {
    let string = |rng: &mut SplitMix64| -> String {
        (0..rng.below(12))
            .map(|_| match rng.below(6) {
                0 => char::from(rng.below(0x20) as u8),
                1 => ['"', '\\', '/', '\u{7f}'][rng.below(4)],
                2 => char::from_u32(0x80 + rng.below(0x700) as u32).unwrap(),
                3 => ['\u{20ac}', '\u{fffd}', '\u{1f50d}', '\u{10ffff}'][rng.below(4)],
                _ => char::from(b' ' + rng.below(95) as u8),
            })
            .collect()
    };
    let containers = if depth < 4 { 2 } else { 0 };
    match rng.below(6 + containers) {
        0 => Wire::Null,
        1 => Wire::Bool(rng.next() & 1 == 1),
        2 => Wire::U64(rng.next() >> rng.below(64)),
        3 => Wire::I64(-1 - (rng.next() >> (1 + rng.below(63))) as i64),
        4 => loop {
            let x = f64::from_bits(rng.next());
            if x.is_finite() {
                break Wire::F64(x);
            }
        },
        5 => Wire::Str(string(rng)),
        6 => Wire::Arr(
            (0..rng.below(5))
                .map(|_| arbitrary_value(rng, depth + 1))
                .collect(),
        ),
        _ => Wire::Obj(
            (0..rng.below(5))
                .map(|_| (string(rng), arbitrary_value(rng, depth + 1)))
                .collect(),
        ),
    }
}

#[test]
fn every_encoded_value_decodes_to_itself_compact_and_pretty() {
    for seed in 0..4_000u64 {
        let value = arbitrary_value(&mut SplitMix64(seed), 0);
        for encoded in [value.encode(), value.encode_pretty()] {
            match decode_within_budget(encoded.as_bytes()) {
                Ok(decoded) if decoded == value => {}
                other => panic!("failing seed {seed}: {encoded} decoded to {other:?}"),
            }
        }
    }
}

#[test]
fn arbitrary_and_mutated_bytes_never_panic_and_stay_within_the_allocation_budget() {
    let valid: Vec<String> = (0..64u64)
        .map(|seed| arbitrary_value(&mut SplitMix64(seed), 0))
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
