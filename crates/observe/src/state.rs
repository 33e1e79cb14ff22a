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
//! verified newest-first (envelope digest, a parse that reads the
//! history one row at a time, the totals and matrices the rows imply,
//! run fingerprint). A file that fails verification is
//! *quarantined* — renamed to `*.corrupt`, the newest few preserved for
//! post-mortems — and recovery rolls back to the next older generation.
//! What a crash can leave behind is bounded: staging files of torn
//! writes go at the next write, earlier quarantined files past
//! [`ObservatoryCheckpoint::QUARANTINE_KEPT`] at the next recovery. Because
//! membership is a pure function of the churn seed and campaign rounds
//! are deterministic, resuming from any verified generation and
//! fast-forwarding produces trend tables byte-identical to a run that
//! was never interrupted — the torture suite's core assertion.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use orscope_core::integrity;
use orscope_json::{Reader, Wire, Writer};

use crate::churn::ChurnConfig;
use crate::series::{RollingTables, STATE_BYTES_PER_EPOCH};

/// Checkpoint bytes besides the rows: the fingerprint, the cumulative
/// matrix and the totals take about a kilobyte.
const STATE_HEAD_BYTES: usize = 2_048;

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
    pub(crate) fn compatible_with(&self, other: &Fingerprint) -> bool {
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
    pub(crate) incompatible: Vec<PathBuf>,
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
    pub(crate) const SUFFIX: &'static str = ".ckpt";
    /// Quarantined generations a state dir keeps, newest first: the
    /// evidence of the latest corruption, without a crash loop growing
    /// the dir.
    pub const QUARANTINE_KEPT: usize = 4;

    /// The file name of the generation for `epochs_done`.
    pub fn generation_name(epochs_done: u64) -> String {
        format!("{}{epochs_done:08}{}", Self::PREFIX, Self::SUFFIX)
    }

    /// The checkpoint's durable form, sealed: `{"version": 1,
    /// "fingerprint": .., "epochs_done": .., "tables": ..}` plus a
    /// newline, in the integrity envelope. Checkpoints use the crate's
    /// hand-written, versioned codec rather than derived serialization:
    /// the on-disk schema is spelled out field by field, so it cannot
    /// drift silently when a struct gains a field, and the recovery
    /// path owns every byte it accepts. The rows are written straight
    /// from `tables` into one buffer sized for them, which the envelope
    /// then wraps in place — so the service encodes under its read lock
    /// instead of cloning the history first.
    pub(crate) fn sealed(
        fingerprint: &Fingerprint,
        epochs_done: u64,
        tables: &RollingTables,
    ) -> Vec<u8> {
        let mut out = String::with_capacity(
            integrity::HEADER_ROOM
                + STATE_HEAD_BYTES
                + STATE_BYTES_PER_EPOCH * tables.epochs().len(),
        );
        let mut doc = Writer::compact(&mut out);
        doc.begin_object()
            .key("version")
            .u64(1)
            .key("fingerprint")
            .value(&fingerprint.to_wire())
            .key("epochs_done")
            .u64(epochs_done)
            .key("tables");
        tables.write_state(&mut doc);
        doc.end_object();
        out.push('\n');
        integrity::seal(out.into_bytes())
    }

    /// Reads the payload [`Self::sealed`] wraps, the rolling state one
    /// row at a time: members in any order, each exactly once, unknown
    /// members skipped.
    fn read(payload: &[u8]) -> Result<Self, String> {
        let mut input = Reader::new(payload);
        let (mut fingerprint, mut epochs_done) = (None, 0);
        let mut tables = RollingTables::default();
        let members = ["version", "fingerprint", "epochs_done", "tables"];
        input.object(&members, |input, name| {
            match name {
                "version" => {
                    let version = input.u64()?;
                    if version != 1 {
                        return Err(format!("unsupported checkpoint version {version}"));
                    }
                }
                "fingerprint" => fingerprint = Some(Fingerprint::from_wire(&input.value()?)?),
                "epochs_done" => epochs_done = input.u64()?,
                "tables" => tables = RollingTables::read_state(input)?,
                other => unreachable!("{other} is not a checkpoint member"),
            }
            Ok(())
        })?;
        input.finish()?;
        Ok(Self {
            fingerprint: fingerprint.ok_or("missing field \"fingerprint\"")?,
            epochs_done,
            tables,
        })
    }

    /// Parses `checkpoint-NNNNNNNN.ckpt` back to its generation number.
    fn parse_generation(name: &str) -> Option<u64> {
        name.strip_prefix(Self::PREFIX)?
            .strip_suffix(Self::SUFFIX)?
            .parse()
            .ok()
    }

    /// Parses a quarantined generation's name, `<generation>.corrupt`
    /// or `<generation>.corrupt.N`, to `(generation, N)` (N = 0 for the
    /// first).
    fn parse_quarantined(name: &str) -> Option<(u64, u32)> {
        let (generation, n) = name.split_once(".corrupt")?;
        let n = match n {
            "" => 0,
            n => n.strip_prefix('.')?.parse().ok()?,
        };
        Some((Self::parse_generation(generation)?, n))
    }

    /// Writes this checkpoint as a new generation in `dir` (created if
    /// missing) — sealed, fsynced, renamed into place — then prunes all
    /// but the newest `keep` generations.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_generation(&self, dir: &Path, keep: usize) -> io::Result<PathBuf> {
        let sealed = Self::sealed(&self.fingerprint, self.epochs_done, &self.tables);
        Self::persist(dir, keep, self.epochs_done, &sealed)
    }

    /// Writes the [`sealed`](Self::sealed) generation for `epochs_done`
    /// into `dir` (created if missing) — fsynced, renamed into place —
    /// then prunes all but the newest `keep` generations.
    pub(crate) fn persist(
        dir: &Path,
        keep: usize,
        epochs_done: u64,
        sealed: &[u8],
    ) -> io::Result<PathBuf> {
        let path = dir.join(Self::generation_name(epochs_done));
        integrity::persist_atomic(&path, sealed)?;
        // Prune: everything older than the newest `keep` generations,
        // and the staging files of writes a crash cut short (this
        // write's own was renamed into place).
        let mut generations = Self::list(dir, Self::parse_generation)?;
        let stale = generations.len().saturating_sub(keep.max(1));
        let torn = Self::list(dir, |name| {
            Self::parse_generation(name.strip_suffix(".tmp")?)
        })?;
        for (_, file) in generations.drain(..stale).chain(torn) {
            fs::remove_file(file)?;
        }
        Ok(path)
    }

    /// The files in `dir` whose names `parse` reads, sorted by what it
    /// read. A generation is `checkpoint-NNNNNNNN.ckpt`: quarantined
    /// (`*.corrupt`) and staging (`*.tmp`) files are not.
    fn list<K: Ord>(
        dir: &Path,
        parse: impl Fn(&str) -> Option<K>,
    ) -> io::Result<Vec<(K, PathBuf)>> {
        let entries = match fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(err) => return Err(err),
        };
        let mut files = Vec::new();
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(key) = parse(name) {
                files.push((key, entry.path()));
            }
        }
        files.sort();
        Ok(files)
    }

    /// Finds the newest generation that verifies end to end: envelope
    /// digest, JSON parse, structural invariants of the tables, the
    /// generation number matching the file name, and the run
    /// fingerprint matching `expected`. Generations failing anything
    /// but the fingerprint check are quarantined (renamed `*.corrupt`,
    /// or `*.corrupt.N` past the first of that generation) and recovery
    /// rolls back to the next older one. Then earlier quarantined files
    /// are deleted, oldest first, until at most [`Self::QUARANTINE_KEPT`]
    /// remain; none this call quarantined is.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (including a failed quarantine
    /// rename — a state dir that cannot be written is not safe to
    /// resume into).
    pub fn recover(dir: &Path, expected: &Fingerprint) -> io::Result<Recovery> {
        let mut recovery = Recovery::default();
        let mut earlier = Self::list(dir, Self::parse_quarantined)?;
        let generations = Self::list(dir, Self::parse_generation)?;
        for (generation, path) in generations.into_iter().rev() {
            match Self::verify(&fs::read(&path)?, generation) {
                Err(_reason) => {
                    let n = earlier
                        .iter()
                        .filter(|((of, _), _)| *of == generation)
                        .map(|((_, n), _)| n + 1)
                        .max()
                        .unwrap_or(0);
                    let suffix = if n == 0 {
                        String::new()
                    } else {
                        format!(".{n}")
                    };
                    let quarantine = PathBuf::from(format!("{}.corrupt{suffix}", path.display()));
                    fs::rename(&path, &quarantine)?;
                    recovery.quarantined.push(quarantine);
                }
                Ok(checkpoint) if checkpoint.fingerprint.compatible_with(expected) => {
                    recovery.checkpoint = Some(checkpoint);
                    break;
                }
                Ok(_) => recovery.incompatible.push(path),
            }
        }
        // What this call quarantined is the evidence it reports, so only
        // earlier quarantines make room for it.
        let kept = Self::QUARANTINE_KEPT.saturating_sub(recovery.quarantined.len());
        let stale = earlier.len().saturating_sub(kept);
        for (_, file) in earlier.drain(..stale) {
            fs::remove_file(file)?;
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
        Self::read(payload)
            .map_err(|err| format!("parse: {err}"))?
            .checked(generation)
    }

    /// The checks after parsing: the generation number matches the file
    /// name and the tables hold what their rows imply.
    fn checked(self, generation: u64) -> Result<Self, String> {
        if self.epochs_done != generation {
            return Err(format!(
                "generation {generation} file claims epochs_done {}",
                self.epochs_done
            ));
        }
        self.tables
            .validate()
            .map_err(|reason| format!("tables: {reason}"))?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use orscope_check::alloc::{thread_requested_bytes, CountingAlloc};
    use orscope_check::{cases, Rng};

    use super::*;
    use crate::series::tests::arbitrary_tables;

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// `tests/total.rs`'s budget for the JSON reader: heap bytes
    /// requested per input byte, plus room for one error message.
    const ALLOC_FACTOR: usize = 128;
    const ALLOC_SLACK: usize = 1024;

    /// The tree path the streaming codec replaced, kept as the oracle.
    impl ObservatoryCheckpoint {
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

        fn verify_tree(bytes: &[u8], generation: u64) -> Result<Self, String> {
            let payload = integrity::unseal(bytes).map_err(|err| err.to_string())?;
            let wire = Wire::decode(payload).map_err(|err| format!("parse: {err}"))?;
            Self::from_wire(&wire)
                .map_err(|err| format!("parse: {err}"))?
                .checked(generation)
        }
    }

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
    fn a_recovery_keeps_every_file_it_quarantines() {
        // More corrupt generations than the dir keeps quarantined: this
        // recovery's evidence survives it, and the next one's displaces it.
        let dir = scratch("many-corrupt");
        let keep = ObservatoryCheckpoint::QUARANTINE_KEPT + 3;
        let corrupt_all = |dir: &Path| {
            for epochs in 1..=keep as u64 {
                let path = checkpoint(7, epochs).save_generation(dir, keep).unwrap();
                fs::write(path, b"").unwrap();
            }
            ObservatoryCheckpoint::recover(dir, &fingerprint(7)).unwrap()
        };
        let first = corrupt_all(&dir);
        assert!(first.checkpoint.is_none());
        assert_eq!(first.quarantined.len(), keep);
        assert!(first.quarantined.iter().all(|path| path.exists()));
        let second = corrupt_all(&dir);
        assert_eq!(second.quarantined.len(), keep);
        assert!(second.quarantined.iter().all(|path| path.exists()));
        let files = fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, keep, "the first recovery's are gone");
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

    /// The payload of a sealed generation with the envelope stripped.
    fn payload(checkpoint: &ObservatoryCheckpoint) -> Vec<u8> {
        let sealed = ObservatoryCheckpoint::sealed(
            &checkpoint.fingerprint,
            checkpoint.epochs_done,
            &checkpoint.tables,
        );
        integrity::unseal(&sealed).unwrap().to_vec()
    }

    fn arbitrary_checkpoint(rng: &mut Rng) -> ObservatoryCheckpoint {
        let epochs = rng.range(0..4);
        let tables = arbitrary_tables(rng, epochs);
        let mut fingerprint = fingerprint(rng.next_u64());
        fingerprint.epoch_deadline_virtual_secs = rng.bool().then(|| rng.range(1..100_000));
        ObservatoryCheckpoint {
            fingerprint,
            epochs_done: tables.epochs().len() as u64,
            tables,
        }
    }

    /// Shuffles the members of every object and, with `extras`, now and
    /// then adds one nobody reads; arrays keep their order.
    fn reorder(value: &mut Wire, rng: &mut Rng, extras: bool) {
        match value {
            Wire::Obj(members) => {
                for at in (1..members.len()).rev() {
                    members.swap(at, rng.range(0..=at));
                }
                if extras && rng.chance(10) {
                    let unknown = Wire::Arr(vec![Wire::obj(vec![("x", Wire::Null)])]);
                    members.insert(rng.range(0..=members.len()), ("extra".to_owned(), unknown));
                }
                members
                    .iter_mut()
                    .for_each(|(_, member)| reorder(member, rng, extras));
            }
            Wire::Arr(items) => items.iter_mut().for_each(|item| reorder(item, rng, extras)),
            _ => {}
        }
    }

    const ALPHABET: &[u8] = b"{}[]\",:\\ \n\t-+.eEu0123456789truefalsn\xff";

    #[test]
    fn the_written_payload_is_the_tree_paths_bytes() {
        cases(64, |rng| {
            let checkpoint = arbitrary_checkpoint(rng);
            let mut tree = checkpoint.to_wire().encode().into_bytes();
            tree.push(b'\n');
            assert_eq!(payload(&checkpoint), tree);
        });
    }

    #[test]
    fn verify_is_total_and_agrees_with_the_tree_path() {
        let mut accepted = 0u32;
        cases(4_000, |rng| {
            let checkpoint = arbitrary_checkpoint(rng);
            let generation = checkpoint.epochs_done;
            let input = match rng.range(0..6) {
                // Arbitrary bytes, bare and in an envelope that verifies.
                0 => rng.bytes(0..96),
                1 => integrity::seal(rng.vec(0..96, |rng| *rng.choice(ALPHABET))),
                // A whole generation damaged on disk: the envelope
                // catches it.
                2 => {
                    let mut sealed = integrity::seal(payload(&checkpoint));
                    rng.mutate(&mut sealed, ALPHABET);
                    sealed
                }
                // A damaged payload in an envelope that verifies: flipped,
                // inserted, deleted, doubled or truncated bytes.
                3 | 4 => {
                    let mut bytes = payload(&checkpoint);
                    rng.mutate(&mut bytes, ALPHABET);
                    integrity::seal(bytes)
                }
                // Members reordered (and unknown ones added) at every
                // level, then sometimes damaged as well.
                _ => {
                    let mut tree = checkpoint.to_wire();
                    reorder(&mut tree, rng, true);
                    let mut bytes = if rng.bool() {
                        tree.encode()
                    } else {
                        tree.encode_pretty()
                    }
                    .into_bytes();
                    if rng.bool() {
                        rng.mutate(&mut bytes, ALPHABET);
                    }
                    integrity::seal(bytes)
                }
            };
            let before = thread_requested_bytes();
            let streamed = ObservatoryCheckpoint::verify(&input, generation);
            let requested = thread_requested_bytes() - before;
            let budget = ALLOC_FACTOR * input.len() + ALLOC_SLACK;
            assert!(
                requested <= budget,
                "verifying {} bytes requested {requested} (budget {budget})",
                input.len()
            );
            match (
                streamed,
                ObservatoryCheckpoint::verify_tree(&input, generation),
            ) {
                (Ok(streamed), Ok(tree)) => {
                    assert_eq!(streamed, tree);
                    accepted += 1;
                }
                (Err(_), Err(_)) => {}
                (streamed, tree) => panic!(
                    "the reader said {streamed:?}, the tree path {tree:?}, on {:?}",
                    String::from_utf8_lossy(&input)
                ),
            }
        });
        // Reordered generations are valid unless an added member landed
        // among the class counts, so a fair share verifies: the property
        // exercises the accepting path, not only errors.
        assert!(accepted > 200, "only {accepted} inputs verified");
    }

    /// The member at `path` of a decoded generation.
    fn member<'a>(value: &'a mut Wire, path: &[&str]) -> &'a mut Wire {
        path.iter().fold(value, |value, step| match value {
            Wire::Obj(members) => {
                &mut members
                    .iter_mut()
                    .find(|(name, _)| name == step)
                    .unwrap_or_else(|| panic!("no member {step}"))
                    .1
            }
            Wire::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
            other => panic!("{other:?} has no member {step}"),
        })
    }

    #[test]
    fn a_row_cell_past_u32_does_not_verify() {
        // A row's matrix counts one epoch's distinct IPv4 members, so a
        // cell of 2^32 cannot be true: a generation holding one is
        // refused at the parse even when its population, cumulative
        // matrix and digest all agree with it. The cumulative matrix
        // itself may pass 2^32.
        let mut rng = Rng::new(26);
        let checkpoint = loop {
            let checkpoint = arbitrary_checkpoint(&mut rng);
            if checkpoint.epochs_done > 0 {
                break checkpoint;
            }
        };
        let generation = checkpoint.epochs_done;
        let mut tree = checkpoint.to_wire();
        for path in [
            &["tables", "epochs", "0", "population"][..],
            &["tables", "epochs", "0", "transitions", "counts", "0", "0"],
            &["tables", "cumulative", "counts", "0", "0"],
        ] {
            let Wire::U64(count) = member(&mut tree, path) else {
                panic!("{path:?} is not a count");
            };
            *count += 1 << 32;
        }
        let sealed = integrity::seal(tree.encode().into_bytes());
        let reason = ObservatoryCheckpoint::verify(&sealed, generation).unwrap_err();
        assert!(reason.contains("out of range"), "{reason}");
        assert!(ObservatoryCheckpoint::verify_tree(&sealed, generation).is_err());
    }

    #[test]
    fn a_reordered_generation_reads_back_the_same_checkpoint() {
        cases(32, |rng| {
            let checkpoint = arbitrary_checkpoint(rng);
            let mut tree = checkpoint.to_wire();
            reorder(&mut tree, rng, false);
            let sealed = integrity::seal(tree.encode_pretty().into_bytes());
            let read = ObservatoryCheckpoint::verify(&sealed, checkpoint.epochs_done);
            assert_eq!(read, Ok(checkpoint));
        });
    }
}
