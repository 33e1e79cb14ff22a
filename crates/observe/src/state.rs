//! Serve-state persistence: checkpoint generations with corruption
//! recovery.
//!
//! The observatory periodically (and on graceful shutdown) flushes an
//! [`ObservatoryCheckpoint`] — the run [`Fingerprint`], how many epochs
//! completed, and the full [`RollingTables`] — into its state dir as a
//! numbered *generation* (`checkpoint-00000042.ckpt`). Each generation
//! is wrapped in the [`orscope_core::integrity`] envelope (length +
//! digest header) and written via write-then-rename with `fsync` of the
//! file and the directory, so a `kill -9` at any instant leaves either
//! the previous generation or the new one — never a torn file that
//! verifies. The newest `keep` generations are retained.
//!
//! Resume runs [`ObservatoryCheckpoint::recover`]: generations are
//! verified newest-first (envelope digest, JSON parse, structural
//! invariants, run fingerprint). A file that fails verification is
//! *quarantined* — renamed to `*.corrupt`, preserved for post-mortems —
//! and recovery rolls back to the next older generation. Because
//! membership is a pure function of the churn seed and campaign rounds
//! are deterministic, resuming from any verified generation and
//! fast-forwarding produces trend tables byte-identical to a run that
//! was never interrupted — the torture suite's core assertion.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use orscope_core::integrity;
use orscope_json::Wire;

use crate::churn::ChurnConfig;
use crate::series::RollingTables;

/// The identity of a serve run: everything that determines its output.
/// Two runs with equal fingerprints produce byte-identical tables, so a
/// checkpoint is only resumable into a run with the same fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Scan year being reproduced.
    pub year: u16,
    /// Population down-scaling factor.
    pub scale: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Shard count (results are shard-invariant, but the fingerprint
    /// records it so an operator sees what the run was using).
    pub shards: usize,
    /// Virtual seconds per epoch.
    pub epoch_virtual_secs: u64,
    /// The churn model's knobs and seed.
    pub churn: ChurnConfig,
    /// Per-epoch virtual-time budget. Part of the identity because a
    /// deadline that fires degrades epochs, which changes the tables.
    pub epoch_deadline_virtual_secs: Option<u64>,
}

impl Fingerprint {
    /// Whether `other` identifies the same deterministic output stream.
    /// Shard count is excluded: results are shard-invariant, so a
    /// checkpoint written at `--shards 2` resumes cleanly at `--shards
    /// 4`.
    pub fn compatible_with(&self, other: &Fingerprint) -> bool {
        self.year == other.year
            && self.scale == other.scale
            && self.seed == other.seed
            && self.epoch_virtual_secs == other.epoch_virtual_secs
            && self.churn == other.churn
            && self.epoch_deadline_virtual_secs == other.epoch_deadline_virtual_secs
    }

    fn to_wire(&self) -> Wire {
        Wire::obj(vec![
            ("year", Wire::U64(u64::from(self.year))),
            ("scale", Wire::F64(self.scale)),
            ("seed", Wire::U64(self.seed)),
            ("shards", Wire::U64(self.shards as u64)),
            ("epoch_virtual_secs", Wire::U64(self.epoch_virtual_secs)),
            (
                "churn",
                Wire::obj(vec![
                    ("join_rate", Wire::F64(self.churn.join_rate)),
                    ("leave_rate", Wire::F64(self.churn.leave_rate)),
                    ("drift_rate", Wire::F64(self.churn.drift_rate)),
                    ("pool_headroom", Wire::F64(self.churn.pool_headroom)),
                    ("seed", Wire::U64(self.churn.seed)),
                ]),
            ),
            (
                "epoch_deadline_virtual_secs",
                Wire::from(self.epoch_deadline_virtual_secs),
            ),
        ])
    }

    fn from_wire(wire: &Wire) -> Result<Self, String> {
        let churn = wire.field("churn")?;
        Ok(Self {
            year: wire.field_as("year", Wire::as_uint)?,
            scale: wire.field_as("scale", Wire::as_f64)?,
            seed: wire.field_as("seed", Wire::as_u64)?,
            shards: wire.field_as("shards", Wire::as_uint)?,
            epoch_virtual_secs: wire.field_as("epoch_virtual_secs", Wire::as_u64)?,
            churn: ChurnConfig {
                join_rate: churn.field_as("join_rate", Wire::as_f64)?,
                leave_rate: churn.field_as("leave_rate", Wire::as_f64)?,
                drift_rate: churn.field_as("drift_rate", Wire::as_f64)?,
                pool_headroom: churn.field_as("pool_headroom", Wire::as_f64)?,
                seed: churn.field_as("seed", Wire::as_u64)?,
            },
            epoch_deadline_virtual_secs: wire
                .field_as("epoch_deadline_virtual_secs", Wire::as_opt_u64)?,
        })
    }
}

/// What [`ObservatoryCheckpoint::recover`] found in a state dir.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The newest generation that passed every check, if any.
    pub checkpoint: Option<ObservatoryCheckpoint>,
    /// Corrupt generations, renamed to `*.corrupt` and skipped. Each
    /// entry is one rollback: the run resumed from an older generation
    /// than the one it would have used.
    pub quarantined: Vec<PathBuf>,
    /// Intact generations written by a *different* run identity. Left
    /// in place; resuming over them would splice incompatible streams.
    pub incompatible: Vec<PathBuf>,
}

impl Recovery {
    /// Generations skipped because they failed verification.
    pub fn rollbacks(&self) -> u64 {
        self.quarantined.len() as u64
    }
}

/// A resumable snapshot of an observatory run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservatoryCheckpoint {
    /// Identity of the run that wrote this.
    pub fingerprint: Fingerprint,
    /// Epochs fully absorbed into `tables`.
    pub epochs_done: u64,
    /// The rolling state as of `epochs_done`.
    pub tables: RollingTables,
}

impl ObservatoryCheckpoint {
    /// Generation file names: `checkpoint-<epochs_done>.ckpt`.
    pub const PREFIX: &'static str = "checkpoint-";
    /// Generation file extension (the envelope makes it non-JSON).
    pub const SUFFIX: &'static str = ".ckpt";

    /// The file name of the generation for `epochs_done`.
    pub fn generation_name(epochs_done: u64) -> String {
        format!("{}{epochs_done:08}{}", Self::PREFIX, Self::SUFFIX)
    }

    /// The checkpoint's durable wire form. Checkpoints use the crate's
    /// hand-written, versioned codec rather than derived serialization:
    /// the on-disk schema is spelled out field by field, so it cannot
    /// drift silently when a struct gains a field, and the recovery
    /// path owns every byte it accepts.
    fn to_wire(&self) -> Wire {
        Wire::obj(vec![
            ("version", Wire::U64(1)),
            ("fingerprint", self.fingerprint.to_wire()),
            ("epochs_done", Wire::U64(self.epochs_done)),
            ("tables", self.tables.to_wire()),
        ])
    }

    fn from_wire(wire: &Wire) -> Result<Self, String> {
        let version = wire.field_as("version", Wire::as_u64)?;
        if version != 1 {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        Ok(Self {
            fingerprint: wire.field_as("fingerprint", Fingerprint::from_wire)?,
            epochs_done: wire.field_as("epochs_done", Wire::as_u64)?,
            tables: wire.field_as("tables", RollingTables::from_wire)?,
        })
    }

    /// Parses `checkpoint-NNNNNNNN.ckpt` back to its generation number.
    fn parse_generation(name: &str) -> Option<u64> {
        name.strip_prefix(Self::PREFIX)?
            .strip_suffix(Self::SUFFIX)?
            .parse()
            .ok()
    }

    /// Writes this checkpoint as a new generation in `dir` (created if
    /// missing) — sealed, fsynced, renamed into place — then prunes all
    /// but the newest `keep` generations.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_generation(&self, dir: &Path, keep: usize) -> io::Result<PathBuf> {
        let mut payload = self.to_wire().encode().into_bytes();
        payload.push(b'\n');
        let sealed = integrity::seal(&payload);
        let path =
            integrity::persist_atomic(dir, &Self::generation_name(self.epochs_done), &sealed)?;
        // Prune: everything older than the newest `keep` generations.
        let mut generations = Self::list_generations(dir)?;
        if generations.len() > keep.max(1) {
            generations.truncate(generations.len() - keep.max(1));
            for (_, stale) in generations {
                fs::remove_file(stale)?;
            }
        }
        Ok(path)
    }

    /// Every generation in `dir`, sorted oldest first. Quarantined
    /// (`*.corrupt`) and staging (`*.tmp`) files are not generations.
    fn list_generations(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
        let entries = match fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(err) => return Err(err),
        };
        let mut generations = Vec::new();
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(generation) = Self::parse_generation(name) {
                generations.push((generation, entry.path()));
            }
        }
        generations.sort();
        Ok(generations)
    }

    /// Finds the newest generation that verifies end to end: envelope
    /// digest, JSON parse, structural invariants of the tables, the
    /// generation number matching the file name, and the run
    /// fingerprint matching `expected`. Generations failing anything
    /// but the fingerprint check are quarantined (renamed `*.corrupt`)
    /// and recovery rolls back to the next older one.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (including a failed quarantine
    /// rename — a state dir that cannot be written is not safe to
    /// resume into).
    pub fn recover(dir: &Path, expected: &Fingerprint) -> io::Result<Recovery> {
        let mut recovery = Recovery::default();
        let mut generations = Self::list_generations(dir)?;
        generations.reverse(); // newest first
        for (generation, path) in generations {
            let bytes = fs::read(&path)?;
            let verified = Self::verify(&bytes, generation);
            match verified {
                Err(_reason) => {
                    let quarantine = quarantine_path(&path);
                    fs::rename(&path, &quarantine)?;
                    recovery.quarantined.push(quarantine);
                }
                Ok(checkpoint) => {
                    if checkpoint.fingerprint.compatible_with(expected) {
                        recovery.checkpoint = Some(checkpoint);
                        return Ok(recovery);
                    }
                    recovery.incompatible.push(path);
                }
            }
        }
        Ok(recovery)
    }

    /// Runs every content check on one generation's raw bytes.
    ///
    /// # Errors
    ///
    /// A description of the first failed check.
    pub fn verify(bytes: &[u8], generation: u64) -> Result<Self, String> {
        let payload = integrity::unseal(bytes).map_err(|err| err.to_string())?;
        let wire = Wire::decode(payload).map_err(|err| format!("parse: {err}"))?;
        let checkpoint = Self::from_wire(&wire).map_err(|err| format!("parse: {err}"))?;
        if checkpoint.epochs_done != generation {
            return Err(format!(
                "generation {generation} file claims epochs_done {}",
                checkpoint.epochs_done
            ));
        }
        checkpoint
            .tables
            .validate()
            .map_err(|reason| format!("tables: {reason}"))?;
        Ok(checkpoint)
    }
}

/// Where a corrupt generation is moved: alongside itself, `.corrupt`
/// appended (with a numeric suffix if a previous quarantine of the same
/// name is already there).
fn quarantine_path(path: &Path) -> PathBuf {
    let base = PathBuf::from(format!("{}.corrupt", path.display()));
    if !base.exists() {
        return base;
    }
    for n in 1u32.. {
        let candidate = PathBuf::from(format!("{}.corrupt.{n}", path.display()));
        if !candidate.exists() {
            return candidate;
        }
    }
    unreachable!("u32 quarantine suffixes exhausted")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(seed: u64) -> Fingerprint {
        Fingerprint {
            year: 2018,
            scale: 50_000.0,
            seed,
            shards: 2,
            epoch_virtual_secs: 86_400,
            churn: ChurnConfig::default(),
            epoch_deadline_virtual_secs: None,
        }
    }

    fn checkpoint(seed: u64, epochs_done: u64) -> ObservatoryCheckpoint {
        ObservatoryCheckpoint {
            fingerprint: fingerprint(seed),
            epochs_done,
            tables: RollingTables::default(),
        }
    }

    fn scratch(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("orscope-state-test-{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_then_recover_roundtrips() {
        let dir = scratch("roundtrip");
        let saved = checkpoint(7, 3);
        saved.save_generation(&dir, 3).unwrap();
        let recovery = ObservatoryCheckpoint::recover(&dir, &fingerprint(7)).unwrap();
        assert!(recovery.quarantined.is_empty());
        assert_eq!(recovery.rollbacks(), 0);
        assert_eq!(recovery.checkpoint.unwrap(), saved);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_recovers_to_nothing() {
        let dir = scratch("empty");
        let recovery = ObservatoryCheckpoint::recover(&dir, &fingerprint(7)).unwrap();
        assert!(recovery.checkpoint.is_none());
        assert!(recovery.quarantined.is_empty());
    }

    #[test]
    fn generations_are_pruned_to_keep() {
        let dir = scratch("prune");
        for epochs in 1..=5 {
            checkpoint(7, epochs).save_generation(&dir, 3).unwrap();
        }
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names.len(), 3, "{names:?}");
        for kept in [3, 4, 5] {
            assert!(
                names.contains(&ObservatoryCheckpoint::generation_name(kept)),
                "{names:?}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_generation_rolls_back_and_quarantines() {
        let dir = scratch("rollback");
        checkpoint(7, 1).save_generation(&dir, 3).unwrap();
        checkpoint(7, 2).save_generation(&dir, 3).unwrap();
        let newest = dir.join(ObservatoryCheckpoint::generation_name(2));
        let mut bytes = fs::read(&newest).unwrap();
        bytes.truncate(bytes.len() / 2);
        fs::write(&newest, bytes).unwrap();

        let recovery = ObservatoryCheckpoint::recover(&dir, &fingerprint(7)).unwrap();
        assert_eq!(recovery.rollbacks(), 1);
        assert_eq!(recovery.checkpoint.unwrap().epochs_done, 1, "rolled back");
        assert!(recovery.quarantined[0]
            .to_string_lossy()
            .ends_with(".corrupt"));
        assert!(recovery.quarantined[0].exists(), "preserved, not deleted");
        assert!(!newest.exists(), "bad file no longer a generation");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_and_empty_file_are_detected() {
        let dir = scratch("flip");
        checkpoint(7, 1).save_generation(&dir, 3).unwrap();
        checkpoint(7, 2).save_generation(&dir, 3).unwrap();
        checkpoint(7, 3).save_generation(&dir, 3).unwrap();
        // Bit-flip in the middle of generation 3's payload.
        let gen3 = dir.join(ObservatoryCheckpoint::generation_name(3));
        let mut bytes = fs::read(&gen3).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x01;
        fs::write(&gen3, bytes).unwrap();
        // Generation 2 emptied outright.
        fs::write(dir.join(ObservatoryCheckpoint::generation_name(2)), b"").unwrap();

        let recovery = ObservatoryCheckpoint::recover(&dir, &fingerprint(7)).unwrap();
        assert_eq!(recovery.rollbacks(), 2);
        assert_eq!(recovery.checkpoint.unwrap().epochs_done, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn renamed_generation_is_rejected() {
        // An intact envelope moved to the wrong generation number is
        // tampering, not a resume point.
        let dir = scratch("renamed");
        checkpoint(7, 1).save_generation(&dir, 3).unwrap();
        checkpoint(7, 2).save_generation(&dir, 3).unwrap();
        let from = dir.join(ObservatoryCheckpoint::generation_name(2));
        let to = dir.join(ObservatoryCheckpoint::generation_name(9));
        fs::rename(from, to).unwrap();
        let recovery = ObservatoryCheckpoint::recover(&dir, &fingerprint(7)).unwrap();
        assert_eq!(recovery.rollbacks(), 1);
        assert_eq!(recovery.checkpoint.unwrap().epochs_done, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incompatible_generation_is_kept_but_not_resumed() {
        let dir = scratch("foreign");
        checkpoint(999, 4).save_generation(&dir, 3).unwrap();
        let recovery = ObservatoryCheckpoint::recover(&dir, &fingerprint(7)).unwrap();
        assert!(recovery.checkpoint.is_none());
        assert_eq!(recovery.incompatible.len(), 1);
        assert!(recovery.incompatible[0].exists(), "left in place");
        assert_eq!(recovery.rollbacks(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_compatibility_ignores_shards_only() {
        let base = fingerprint(7);
        let mut resharded = base.clone();
        resharded.shards = 4;
        assert!(base.compatible_with(&resharded));
        let mut reseeded = base.clone();
        reseeded.seed = 8;
        assert!(!base.compatible_with(&reseeded));
        let mut rescaled = base.clone();
        rescaled.churn.drift_rate = 0.5;
        assert!(!base.compatible_with(&rescaled));
        let mut redeadlined = base.clone();
        redeadlined.epoch_deadline_virtual_secs = Some(3_600);
        assert!(!base.compatible_with(&redeadlined));
    }
}
