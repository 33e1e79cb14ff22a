//! Two rounds in flight, absorbed strictly in order: every document the
//! observatory writes is pinned to what a one-round-at-a-time scheduler
//! wrote for the same configuration. Each case runs the library to its
//! end and compares FNV-1a-64 of the final `/tables` and `/trends` bytes
//! and of every checkpoint generation left in the state dir (names and
//! bytes, oldest first) with figures that scheduler produced — so the
//! ordering is held without keeping a serial path around to compare
//! against.
//!
//! The cases put the seams where pairing could show: epoch limits that
//! end on a lone epoch, generations flushed between the two epochs of a
//! pair, a sabotaged epoch on either thread (retried, or degraded), a
//! resume from a generation written mid-pair, and a shutdown requested
//! while a pair is open.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use orscope_observe::{
    ChurnConfig, ChurnModel, ChurnResolution, EpochSabotage, Observatory, ObservatoryShared,
    Resolution, Resolve, ServeConfig, Update,
};
use orscope_resolver::paper::Year;
use orscope_resolver::population::{Population, PopulationConfig};

fn scratch(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("orscope-in-flight-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(label: &str, epochs: u64, checkpoint_every: u64) -> ServeConfig {
    let mut config = ServeConfig::new(Year::Y2018, 60_000.0);
    config.seed = 0x2E90_C4F1;
    config.epochs = Some(epochs);
    config.checkpoint_every = checkpoint_every;
    config.keep_generations = 1_000;
    config.state_dir = scratch(label);
    config
}

fn fnv64(bytes: &[u8], mut hash: u64) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// `[/tables, /trends, generations]`, as FNV-1a-64.
type Digests = [u64; 3];

/// Digests of what `shared` serves and of every generation in `dir`.
fn digests(shared: &ObservatoryShared, dir: &Path) -> Digests {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    names.sort();
    let mut generations = FNV_OFFSET;
    for path in names {
        let name = path.file_name().unwrap().to_str().unwrap();
        generations = fnv64(name.as_bytes(), generations);
        generations = fnv64(&std::fs::read(&path).unwrap(), generations);
    }
    [
        fnv64(&shared.tables_bytes(), FNV_OFFSET),
        fnv64(&shared.trends_bytes(), FNV_OFFSET),
        generations,
    ]
}

/// Runs `config` to its end and digests the outcome, then removes the
/// state dir.
fn run(config: ServeConfig) -> Digests {
    run_with(Observatory::new(config).unwrap())
}

fn run_with<R: Resolve>(mut observatory: Observatory<R>) -> Digests {
    let shared = observatory.shared();
    observatory.run().unwrap();
    let dir = observatory.config().state_dir.clone();
    let digests = digests(&shared, &dir);
    std::fs::remove_dir_all(&dir).unwrap();
    digests
}

fn check(label: &str, got: Digests, pinned: Digests) {
    assert_eq!(
        got, pinned,
        "{label}: got [{:#018x}, {:#018x}, {:#018x}]",
        got[0], got[1], got[2]
    );
}

#[test]
fn epoch_limits_that_end_on_a_lone_epoch() {
    for (epochs, checkpoint_every, pinned) in [
        (
            1,
            1,
            [0xbdbd0d71cfe4075c, 0x3fc57c65b5492fd5, 0x30e2fbbc7cfd3a20],
        ),
        (
            2,
            1,
            [0xc3c6b4d39fa7761e, 0x5e118cf61011ce52, 0xba1a10a20de6a2d6],
        ),
        (
            3,
            1,
            [0x09dae4db74b0dbca, 0x9d786409448bf868, 0xe0197fb726a8ea3e],
        ),
        (
            401,
            50,
            [0x1deead4c52fae2b5, 0xfcf2b9ac29a04c6c, 0x4cd41c492412c7f9],
        ),
    ] {
        let label = format!("limit-{epochs}");
        check(
            &label,
            run(config(&label, epochs, checkpoint_every)),
            pinned,
        );
    }
}

#[test]
fn generations_flushed_between_the_epochs_of_a_pair() {
    for (checkpoint_every, pinned) in [
        (
            3,
            [0xe453882dd9f91163, 0xcd496f3430a386a8, 0x9aaec52566ecbc37],
        ),
        (
            5,
            [0xe453882dd9f91163, 0xcd496f3430a386a8, 0x0e9d54afce285aab],
        ),
    ] {
        let label = format!("every-{checkpoint_every}");
        check(&label, run(config(&label, 12, checkpoint_every)), pinned);
    }
}

#[test]
fn a_sabotaged_epoch_on_either_thread_retries_or_degrades() {
    for (epoch, failures, pinned) in [
        (
            2,
            1,
            [0x73e1627a5290e16d, 0x0ba195273d6759bd, 0x048159290b12b4e5],
        ),
        (
            2,
            2,
            [0x5ffe33a43fa74945, 0xc4932d72f6bb07f3, 0xa6a4bfaeb480336d],
        ),
        (
            3,
            1,
            [0x73e1627a5290e16d, 0x0ba195273d6759bd, 0x048159290b12b4e5],
        ),
        (
            3,
            2,
            [0xb01e995d7a020181, 0xf72ffc7e94387ef8, 0x71dc5d9deea29d5e],
        ),
    ] {
        let label = format!("sabotage-{epoch}-{failures}");
        let mut sabotaged = config(&label, 5, 1);
        sabotaged.sabotage = Some(EpochSabotage { epoch, failures });
        check(&label, run(sabotaged), pinned);
    }
}

/// A six-epoch run with a generation an epoch.
const SIX_EPOCHS: Digests = [0x8e8b8b430bc6e8cd, 0xe73446f208e7344a, 0x7f92992f2f1c657d];

/// A four-epoch run with a generation an epoch.
const FOUR_EPOCHS: Digests = [0x9c32601e92ede1a9, 0x0d58e92fec747d55, 0xc4b14ffb9c17f6a9];

#[test]
fn a_resume_from_a_generation_written_mid_pair_converges() {
    // Generation 3 is written after epoch 2, the first of the pair
    // (2, 3), is absorbed: resuming from it pairs (3, 4) and runs 5
    // alone, and must write what an uninterrupted run writes.
    check("straight", run(config("resume-straight", 6, 1)), SIX_EPOCHS);
    let label = "resume";
    let first = config(label, 6, 1);
    let dir = first.state_dir.clone();
    Observatory::new(first).unwrap().run().unwrap();
    for generation in 4..=6 {
        let name = orscope_observe::ObservatoryCheckpoint::generation_name(generation);
        std::fs::remove_file(dir.join(name)).unwrap();
    }
    let mut second = config("resume-continue", 6, 1);
    second.state_dir = dir;
    let mut resumed = Observatory::new(second).unwrap();
    let shared = resumed.shared();
    let report = resumed.run().unwrap();
    assert_eq!(report.resumed_from, Some(3));
    let dir = resumed.config().state_dir.clone();
    check(label, digests(&shared, &dir), SIX_EPOCHS);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The churn model, requesting shutdown as the scheduler opens `epoch`.
struct ShutdownAt {
    churn: ChurnModel,
    epoch: u64,
    shared: Arc<OnceLock<Arc<ObservatoryShared>>>,
}

struct ShutdownResolution {
    churn: ChurnResolution,
    epoch: u64,
    shared: Arc<OnceLock<Arc<ObservatoryShared>>>,
}

impl Resolve for ShutdownAt {
    type Resolution = ShutdownResolution;

    fn resolve(&self, target: &PopulationConfig) -> ShutdownResolution {
        ShutdownResolution {
            churn: self.churn.resolve(target),
            epoch: self.epoch,
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Resolution for ShutdownResolution {
    fn poll_update(&mut self, epoch: u64) -> Option<Update> {
        if epoch == self.epoch {
            self.shared.get().unwrap().request_shutdown();
        }
        self.churn.poll_update(epoch)
    }

    fn seed_population(&self) -> Population {
        self.churn.seed_population()
    }
}

#[test]
fn a_shutdown_requested_mid_pair_absorbs_both_epochs() {
    // Shutdown lands while the pair (2, 3) is being opened: both its
    // epochs are absorbed before the final flush, and the state is
    // exactly a four-epoch run's.
    let label = "shutdown";
    let config = config(label, 10, 1);
    let shared = Arc::new(OnceLock::new());
    let churn = ShutdownAt {
        churn: ChurnModel::new(ChurnConfig::default()),
        epoch: 2,
        shared: Arc::clone(&shared),
    };
    let observatory = Observatory::with_resolve(config, churn).unwrap();
    assert!(shared.set(observatory.shared()).is_ok());
    check(label, run_with(observatory), FOUR_EPOCHS);
}
