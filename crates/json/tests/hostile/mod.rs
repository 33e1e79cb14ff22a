//! A seeded hostile-input generator for total-parser tests: arbitrary
//! bytes, JSON-alphabet soup, and byte-mutated valid documents.
//!
//! Shared source, not a crate: the tests of every reader built on
//! `Wire::decode` pull this file in with `#[path]`, so the typed readers
//! (`ScanCheckpoint`, the fault plan) run the same loop as the codec's
//! own test without the leaf crate growing a dependency edge.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Sebastiano Vigna's SplitMix64 — one `u64` of state, no dependency.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: usize) -> usize {
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
pub fn for_each_hostile_input(valid: &[String], rounds: u64, mut check: impl FnMut(&[u8])) {
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
