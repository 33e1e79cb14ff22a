//! A tamper-evident envelope for the observatory's checkpoint files.
//!
//! Checkpoints are the only state that survives a crash, so a
//! truncated or bit-flipped file must be *detected* at resume, never
//! silently parsed into half a table. [`seal`] prefixes a payload
//! with a one-line header carrying the payload length and a 64-bit
//! FNV-1a digest; [`unseal`] re-verifies both and says exactly which
//! way the file is bad. [`persist_atomic`] writes a sealed file
//! crash-safely: temp file, `fsync` the file, rename into place,
//! `fsync` the directory — a `kill -9` at any instant leaves either
//! the old generation or the new one, never a torn file that
//! *passes* verification.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Header magic; bump the version when the envelope layout changes.
pub const MAGIC: &str = "ORSCOPE-CKPT/1";

/// How a sealed file failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// No header line, or one that does not parse.
    BadHeader,
    /// The payload is shorter (truncation) or longer (splice) than
    /// the header promised.
    LengthMismatch {
        /// Bytes the header declared.
        declared: usize,
        /// Bytes actually present after the header.
        actual: usize,
    },
    /// The payload bytes do not hash to the header digest.
    DigestMismatch,
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::BadHeader => write!(f, "missing or malformed envelope header"),
            IntegrityError::LengthMismatch { declared, actual } => write!(
                f,
                "payload length {actual} does not match declared {declared} (truncated?)"
            ),
            IntegrityError::DigestMismatch => {
                write!(f, "payload digest mismatch (bit flip or partial overwrite)")
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

/// 64-bit FNV-1a over `bytes` — not cryptographic, but a single
/// flipped bit anywhere in the payload changes it, which is the
/// failure model for local disk corruption.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Spare capacity a payload buffer needs for [`seal`] to put the
/// header in front of it without reallocating: the magic, a length
/// of up to twenty digits, the digest, two spaces and the newline.
pub const HEADER_ROOM: usize = MAGIC.len() + 40;

/// The envelope's header line, without its newline.
fn header(len: usize, digest: u64) -> String {
    format!("{MAGIC} {len} {digest:016x}")
}

/// Wraps `payload` in the envelope, `MAGIC len digest\n` + payload,
/// in the payload's own buffer: a checkpoint is the largest thing
/// the service writes, and sealing it makes no second copy.
pub fn seal(mut payload: Vec<u8>) -> Vec<u8> {
    let header = header(payload.len(), digest(&payload)) + "\n";
    payload.extend_from_slice(header.as_bytes());
    payload.rotate_right(header.len());
    payload
}

/// Verifies the envelope and returns the payload slice. The header
/// must read exactly as [`seal`] writes it: a length with no sign
/// and no leading zero, sixteen lowercase hex digits, one space
/// between fields.
///
/// # Errors
///
/// [`IntegrityError`] naming the first check that failed.
pub fn unseal(sealed: &[u8]) -> Result<&[u8], IntegrityError> {
    let newline = sealed
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(IntegrityError::BadHeader)?;
    let header = std::str::from_utf8(&sealed[..newline]).map_err(|_| IntegrityError::BadHeader)?;
    let mut parts = header.split(' ');
    if parts.next() != Some(MAGIC) {
        return Err(IntegrityError::BadHeader);
    }
    let declared: usize = parts
        .next()
        .and_then(|raw| raw.parse().ok())
        .ok_or(IntegrityError::BadHeader)?;
    let expected = u64::from_str_radix(parts.next().ok_or(IntegrityError::BadHeader)?, 16)
        .map_err(|_| IntegrityError::BadHeader)?;
    // The parsers take a sign, leading zeros and uppercase hex, which
    // `seal` never writes: only its own spelling of the two is a header.
    if header != self::header(declared, expected) {
        return Err(IntegrityError::BadHeader);
    }
    let payload = &sealed[newline + 1..];
    if payload.len() != declared {
        return Err(IntegrityError::LengthMismatch {
            declared,
            actual: payload.len(),
        });
    }
    if digest(payload) != expected {
        return Err(IntegrityError::DigestMismatch);
    }
    Ok(payload)
}

/// Writes `bytes` to `path` crash-safely: staged temp file (`path`
/// with `.tmp` appended), `fsync`, rename over the target, then
/// `fsync` the directory (created if missing) so the rename itself
/// survives a power cut.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn persist_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    let dir = dir.unwrap_or(Path::new("."));
    fs::create_dir_all(dir)?;
    let mut staging = path.as_os_str().to_owned();
    staging.push(".tmp");
    {
        let mut file = fs::File::create(&staging)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&staging, path)?;
    // Directory fsync is best-effort off Unix (opening a directory
    // for sync is not portable), and even on Unix some filesystems
    // refuse it; the rename above is still atomic either way.
    if let Ok(dir_handle) = fs::File::open(dir) {
        let _ = dir_handle.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_roundtrips() {
        let payload = b"{\"epochs\": 3}\n";
        let mut buffer = Vec::with_capacity(payload.len() + HEADER_ROOM);
        buffer.extend_from_slice(payload);
        let at = buffer.as_ptr();
        let sealed = seal(buffer);
        assert_eq!(unseal(&sealed).unwrap(), payload);
        assert_eq!(sealed.as_ptr(), at, "sealed in place");
    }

    #[test]
    fn truncation_is_length_mismatch() {
        let sealed = seal(b"0123456789".to_vec());
        for cut in [sealed.len() - 1, sealed.len() - 5] {
            match unseal(&sealed[..cut]) {
                Err(IntegrityError::LengthMismatch { declared: 10, .. }) => {}
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flip_is_digest_mismatch() {
        let mut sealed = seal(b"0123456789".to_vec());
        let last = sealed.len() - 1;
        sealed[last] ^= 0x40; // flip inside the payload, length kept
        assert_eq!(unseal(&sealed), Err(IntegrityError::DigestMismatch));
    }

    #[test]
    fn garbage_and_empty_are_bad_headers() {
        assert_eq!(unseal(b""), Err(IntegrityError::BadHeader));
        assert_eq!(
            unseal(b"not an envelope\nx"),
            Err(IntegrityError::BadHeader)
        );
        assert_eq!(unseal(b"\xff\xfe\n"), Err(IntegrityError::BadHeader));
    }

    #[test]
    fn persist_atomic_leaves_no_staging_file() {
        let dir =
            std::env::temp_dir().join(format!("orscope-integrity-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("gen.ckpt");
        persist_atomic(&path, &seal(b"payload".to_vec())).unwrap();
        assert!(path.exists());
        assert!(!dir.join("gen.ckpt.tmp").exists());
        assert_eq!(unseal(&fs::read(&path).unwrap()).unwrap(), b"payload");
        fs::remove_dir_all(&dir).unwrap();
    }
}
