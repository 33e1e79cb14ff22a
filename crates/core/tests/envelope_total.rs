//! `integrity::unseal` reads checkpoint files from disk: hostile bytes
//! are an error, never a panic, and what it accepts is exactly what
//! `seal` writes — on `Ok(payload)`, sealing the payload again gives
//! back the input byte for byte.

use orscope_check::Rng;
use orscope_core::integrity::{digest, seal, unseal, MAGIC};

/// An envelope around `payload` whose length and digest are spelled
/// the way `seal` spells them or the ways a lenient number parser
/// would also take: a sign, a leading zero, uppercase or unpadded hex.
fn respelled(rng: &mut Rng, payload: &[u8]) -> Vec<u8> {
    let (len, sum) = (payload.len(), digest(payload));
    let len = match rng.range(0..3) {
        0 => format!("{len}"),
        1 => format!("+{len}"),
        _ => format!("0{len}"),
    };
    let sum = match rng.range(0..4) {
        0 => format!("{sum:016x}"),
        1 => format!("{sum:016X}"),
        2 => format!("{sum:x}"),
        _ => format!("+{sum:016x}"),
    };
    let mut bytes = format!("{MAGIC} {len} {sum}\n").into_bytes();
    bytes.extend_from_slice(payload);
    bytes
}

#[test]
fn unseal_accepts_exactly_what_seal_writes() {
    const ALPHABET: &[u8] = b"0123456789abcdefABCDEF+- \n";
    let (mut accepted, mut respellings) = (0u32, 0u32);
    orscope_check::cases(20_000, |rng| {
        let payload = rng.bytes(0..200);
        let mut bytes = seal(payload.clone());
        assert_eq!(unseal(&bytes), Ok(&payload[..]));
        match rng.range(0..4) {
            0 => bytes = rng.bytes(0..200),
            1 => {
                bytes = respelled(rng, &payload);
                respellings += 1;
            }
            _ => rng.mutate(&mut bytes, ALPHABET),
        }
        if let Ok(unsealed) = unseal(&bytes) {
            assert_eq!(seal(unsealed.to_vec()), bytes, "{bytes:02x?}");
            accepted += 1;
        }
    });
    // Canonical spellings and no-op edits still verify, so the property
    // above was checked on accepted inputs, not only on errors.
    assert!(
        accepted > 500 && respellings > 4_000,
        "{accepted} accepted, {respellings} respelled"
    );
}
