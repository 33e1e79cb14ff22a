//! `ScanCheckpoint::from_json_str` reads operator-kept files: hostile
//! input is an error, never a panic, and whatever loads writes back to
//! a file that loads the same. (The codec's own seeded loop, over
//! arbitrary bytes too, is `orscope-json`'s `tests/total.rs`.)

use orscope_prober::ScanCheckpoint;

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
    orscope_check::cases(30_000, |rng| {
        let mut bytes = rng.choice(&valid).clone().into_bytes();
        rng.mutate(&mut bytes, ALPHABET);
        // The CLI reads the file as text; what is not UTF-8 never
        // reaches the loader.
        let Ok(text) = std::str::from_utf8(&bytes) else {
            return;
        };
        if let Ok(cursor) = ScanCheckpoint::from_json_str(text) {
            assert_eq!(
                ScanCheckpoint::from_json_str(&cursor.to_json_string()),
                Ok(cursor),
                "{text}"
            );
            accepted += 1;
        }
    });
    assert!(
        accepted > 100,
        "only {accepted} mutated cursors still loaded"
    );
}
