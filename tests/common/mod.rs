//! Helpers the root suites share: a fresh state dir and the chaos seed.

use std::path::PathBuf;

/// A state dir of its own for `label`, emptied first.
pub(crate) fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orscope-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The seed CI's chaos sweep sets in `ORSCOPE_CHAOS_SEED`, or `default`
/// when it is unset. A value that does not parse fails the run and names
/// the value: a typo must not quietly run the default seed.
pub(crate) fn chaos_seed(default: u64) -> u64 {
    seed_from(std::env::var("ORSCOPE_CHAOS_SEED"), default)
}

/// [`chaos_seed`] over the variable's lookup.
pub(crate) fn seed_from(var: Result<String, std::env::VarError>, default: u64) -> u64 {
    match var {
        Ok(raw) => raw
            .parse()
            .unwrap_or_else(|_| panic!("ORSCOPE_CHAOS_SEED={raw:?} is not a u64")),
        Err(std::env::VarError::NotPresent) => default,
        Err(err) => panic!("ORSCOPE_CHAOS_SEED: {err}"),
    }
}
