//! `ScanCheckpoint::from_json_str` reads operator-kept files: hostile
//! input is an error, never a panic, and whatever loads writes back to
//! a file that loads the same. (The codec's own seeded loop, over
//! arbitrary bytes too, is `orscope-json`'s `tests/total.rs`.)

use std::panic::{catch_unwind, resume_unwind};

use orscope_prober::ScanCheckpoint;

/// Sebastiano Vigna's SplitMix64.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a mutation inserts: JSON's structural bytes, number and escape
/// fragments, and one byte that is never UTF-8.
const ALPHABET: &[u8] = b"{}[]\",:\\-+.eu0123456789\xff";

#[test]
fn hostile_cursor_files_are_errors_never_panics() {
    let cursors = [
        ScanCheckpoint {
            next_target: 12_345,
            cluster: 2,
            next_seq: 99,
            cluster_capacity: 5_000,
            reuse_pool: vec![(0, 7), (1, 8), (u32::MAX, u64::MAX)],
            fresh: 10_000,
            reused: 2_000,
            q1_sent: 12_000,
            r2_captured: 40,
        },
        ScanCheckpoint {
            next_target: 0,
            cluster: 0,
            next_seq: 0,
            cluster_capacity: 1,
            reuse_pool: Vec::new(),
            fresh: 0,
            reused: 0,
            q1_sent: 0,
            r2_captured: u64::MAX,
        },
    ];
    let valid: Vec<String> = cursors
        .iter()
        .flat_map(|cursor| [cursor.to_json_string(), cursor.to_json().encode()])
        .collect();
    for (cursor, text) in cursors.iter().zip(valid.chunks(2)) {
        assert_eq!(ScanCheckpoint::from_json_str(&text[0]).as_ref(), Ok(cursor));
        assert_eq!(ScanCheckpoint::from_json_str(&text[1]).as_ref(), Ok(cursor));
    }
    let mut accepted = 0u32;
    for seed in 0..30_000u64 {
        // A valid file with one to four bytes flipped, inserted,
        // removed, or everything behind them cut off.
        let mut rng = seed;
        let mut below = |bound: usize| (splitmix64(&mut rng) % bound as u64) as usize;
        let mut bytes = valid[below(valid.len())].clone().into_bytes();
        for _ in 0..1 + below(4) {
            let at = below(bytes.len() + 1);
            match below(4) {
                0 if at < bytes.len() => bytes[at] ^= 1 << below(8),
                1 => bytes.insert(at, ALPHABET[below(ALPHABET.len())]),
                2 if at < bytes.len() => drop(bytes.remove(at)),
                _ => bytes.truncate(at),
            }
        }
        // The CLI reads the file as text; what is not UTF-8 never
        // reaches the loader.
        let Ok(text) = std::str::from_utf8(&bytes) else {
            continue;
        };
        match catch_unwind(|| ScanCheckpoint::from_json_str(text)) {
            Ok(Ok(cursor)) => {
                assert_eq!(
                    ScanCheckpoint::from_json_str(&cursor.to_json_string()),
                    Ok(cursor),
                    "seed {seed}: {text}"
                );
                accepted += 1;
            }
            Ok(Err(_)) => {}
            Err(panic) => {
                eprintln!("failing seed {seed}: input {text:?}");
                resume_unwind(panic);
            }
        }
    }
    assert!(
        accepted > 100,
        "only {accepted} mutated cursors still loaded"
    );
}
