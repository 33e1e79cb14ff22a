//! Corruption-recovery suite: whatever happens to the state dir —
//! truncation, bit-flips, emptied files, every generation destroyed —
//! resume either converges to the exact state of a never-interrupted
//! run or refuses loudly. Silent divergence is the one outcome that
//! must be impossible.

use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};

use orscope_core::integrity;
use orscope_json::Wire;
use orscope_observe::{
    http, Observatory, ObservatoryCheckpoint, RollingTables, ServeConfig, ServeError,
};
use orscope_resolver::paper::Year;

const EPOCHS: u64 = 4;
const HALF: u64 = EPOCHS / 2;

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orscope-recovery-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(label: &str, epochs: u64) -> ServeConfig {
    let mut config = ServeConfig::new(Year::Y2018, 60_000.0);
    config.seed = 0x5EC0_7E57;
    config.shards = 2;
    config.epochs = Some(epochs);
    config.checkpoint_every = 1; // one generation per epoch
    config.keep_generations = 8; // keep them all at this run length
    config.state_dir = scratch(label);
    config
}

/// The full-run rolling state an uninterrupted run converges to —
/// compared via deep equality, so the assertion is meaningful even
/// where serialized documents are not available.
fn straight_run(label: &str) -> RollingTables {
    let mut observatory = Observatory::new(config(label, EPOCHS)).unwrap();
    let shared = observatory.shared();
    observatory.run().unwrap();
    let tables = shared.tables_snapshot();
    fs::remove_dir_all(&observatory.config().state_dir).unwrap();
    tables
}

/// Runs the first `upto` epochs, leaving generations 1..=upto on disk,
/// and returns the state dir.
fn partial_run(label: &str, upto: u64) -> PathBuf {
    let partial = config(label, upto);
    let dir = partial.state_dir.clone();
    let report = Observatory::new(partial).unwrap().run().unwrap();
    assert_eq!(report.epochs_completed, upto);
    for generation in 1..=upto {
        assert!(
            dir.join(ObservatoryCheckpoint::generation_name(generation))
                .exists(),
            "generation {generation} missing after the partial run"
        );
    }
    dir
}

/// Resumes in `dir` to the full run length and returns the final state
/// plus the run report's quarantine list.
fn resume(label: &str, dir: &Path) -> (RollingTables, Vec<PathBuf>, Option<u64>) {
    // The label must differ from the partial run's: `config` scrubs its
    // own scratch path, and the resumed run must not scrub `dir`.
    let mut full = config(&format!("{label}-resume"), EPOCHS);
    full.state_dir = dir.to_path_buf();
    let mut observatory = Observatory::new(full).unwrap();
    let shared = observatory.shared();
    let report = observatory.run().unwrap();
    (
        shared.tables_snapshot(),
        report.quarantined,
        report.resumed_from,
    )
}

fn generation_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(ObservatoryCheckpoint::generation_name(generation))
}

#[test]
fn truncation_at_every_quarter_rolls_back_and_converges() {
    let straight = straight_run("trunc-straight");
    for (label, quarter) in [("q1", 1), ("q2", 2), ("q3", 3)] {
        let label = format!("trunc-{label}");
        let dir = partial_run(&label, HALF);
        let newest = generation_path(&dir, HALF);
        let mut bytes = fs::read(&newest).unwrap();
        bytes.truncate(bytes.len() * quarter / 4);
        fs::write(&newest, bytes).unwrap();

        let (tables, quarantined, resumed_from) = resume(&label, &dir);
        assert_eq!(quarantined.len(), 1, "{label}: one rollback");
        assert_eq!(
            resumed_from,
            Some(HALF - 1),
            "{label}: resumed from the next older generation"
        );
        assert_eq!(
            tables, straight,
            "{label}: post-recovery state diverged from the uninterrupted run"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn bit_flips_in_header_and_body_both_quarantine() {
    let straight = straight_run("flip-straight");
    // Offset 3 lands inside the envelope magic; a late offset lands in
    // the payload. Either way the generation must not verify.
    for (label, from_end) in [("header", false), ("body", true)] {
        let label = format!("flip-{label}");
        let dir = partial_run(&label, HALF);
        let newest = generation_path(&dir, HALF);
        let mut bytes = fs::read(&newest).unwrap();
        let offset = if from_end { bytes.len() - 4 } else { 3 };
        bytes[offset] ^= 0x20;
        fs::write(&newest, bytes).unwrap();

        let (tables, quarantined, _) = resume(&label, &dir);
        assert_eq!(quarantined.len(), 1, "{label}");
        assert!(
            quarantined[0].to_string_lossy().contains(".corrupt"),
            "{label}: quarantined file keeps the evidence"
        );
        assert!(quarantined[0].exists(), "{label}: preserved, not deleted");
        assert_eq!(tables, straight, "{label}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn emptied_file_and_digest_mismatch_roll_back_together() {
    // Generation 3 emptied, generation 2 with a forged digest:
    // recovery walks back over both to the oldest intact generation.
    let straight = straight_run("multi-straight");
    let dir = partial_run("multi", 3);
    fs::write(generation_path(&dir, 3), b"").unwrap();
    let older = generation_path(&dir, 2);
    let mut bytes = fs::read(&older).unwrap();
    // Rewrite the digest hex in the sealed header: the envelope stays
    // well-formed, but the digest no longer matches the payload.
    let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
    let header = String::from_utf8(bytes[..header_end].to_vec()).unwrap();
    let mut parts: Vec<&str> = header.split(' ').collect();
    let forged = if parts[2].starts_with('0') {
        "1deadbeefdeadbee"
    } else {
        "0deadbeefdeadbee"
    };
    parts[2] = forged;
    let forged_header = parts.join(" ");
    bytes.splice(..header_end, forged_header.into_bytes());
    fs::write(&older, bytes).unwrap();

    let (tables, quarantined, resumed_from) = resume("multi", &dir);
    assert_eq!(quarantined.len(), 2, "both bad generations quarantined");
    assert_eq!(
        resumed_from,
        Some(1),
        "rolled all the way back to generation 1"
    );
    assert_eq!(tables, straight);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_generation_corrupt_is_a_hard_error_not_a_silent_restart() {
    let dir = partial_run("all-corrupt", HALF);
    for generation in 1..=HALF {
        fs::write(generation_path(&dir, generation), b"garbage").unwrap();
    }
    let mut full = config("all-corrupt-resume", EPOCHS);
    full.state_dir = dir.clone();
    match Observatory::new(full).unwrap().run() {
        Err(ServeError::CorruptState(reason)) => {
            assert!(
                reason.contains("quarantined"),
                "error should tell the operator where the evidence went: {reason}"
            );
        }
        other => panic!("expected CorruptState, got {other:?}"),
    }
    // The evidence is preserved on disk.
    let corrupt_files = fs::read_dir(&dir)
        .unwrap()
        .filter(|entry| {
            entry
                .as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .contains(".corrupt")
        })
        .count();
    assert_eq!(corrupt_files as u64, HALF);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stray_staging_files_are_not_generations() {
    let straight = straight_run("stray-straight");
    let dir = partial_run("stray", HALF);
    // A .tmp left by a crash mid-write and unrelated litter must be
    // ignored, not parsed, not quarantined.
    fs::write(dir.join("checkpoint-00000009.ckpt.tmp"), b"torn write").unwrap();
    fs::write(dir.join("notes.txt"), b"operator scribbles").unwrap();

    let (tables, quarantined, resumed_from) = resume("stray", &dir);
    assert!(quarantined.is_empty(), "nothing real was corrupt");
    assert_eq!(resumed_from, Some(HALF));
    assert_eq!(tables, straight);
    assert!(dir.join("notes.txt").exists());
    // The torn write is gone with the next generation written.
    assert!(!dir.join("checkpoint-00000009.ckpt.tmp").exists());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_crash_loop_leaves_a_bounded_state_dir() {
    // Each cycle is a crash that corrupted the newest generation and
    // tore the write of the next, then a restart that recovers and
    // writes that generation again or one further along. However long
    // that goes on, the dir holds the kept generations, the newest few
    // quarantined ones and no staging file.
    const KEEP: usize = 3;
    let dir = partial_run("crash-loop", HALF);
    let newest = generation_path(&dir, HALF);
    let mut checkpoint = ObservatoryCheckpoint::verify(&fs::read(newest).unwrap(), HALF).unwrap();
    for cycle in 0..100 {
        let newest = checkpoint.epochs_done;
        let path = generation_path(&dir, newest);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        fs::write(&path, bytes).unwrap();
        let torn = format!("{}.tmp", ObservatoryCheckpoint::generation_name(newest + 1));
        fs::write(dir.join(torn), b"torn write").unwrap();

        let recovery = ObservatoryCheckpoint::recover(&dir, &checkpoint.fingerprint).unwrap();
        assert_eq!(recovery.rollbacks(), 1, "cycle {cycle}");
        assert!(
            recovery.quarantined[0].exists(),
            "cycle {cycle}: the newest kept"
        );
        checkpoint = recovery.checkpoint.expect("an older generation verifies");
        checkpoint.epochs_done = newest + 2 * u64::from(cycle % 10 == 9);
        checkpoint.save_generation(&dir, KEEP).unwrap();

        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            names.len() <= KEEP + ObservatoryCheckpoint::QUARANTINE_KEPT,
            "cycle {cycle}: {names:?}"
        );
        assert!(
            !names.iter().any(|name| name.ends_with(".tmp")),
            "{names:?}"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// The body of `GET path` from the surface at `addr`.
fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    let request = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (_, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a head");
    body.to_owned()
}

#[test]
fn a_resume_serves_its_epochs_and_population_on_every_probe() {
    // A resume that runs no new epoch: `/metrics` reads the book that
    // `/healthz` reads, not a zero waiting for the next absorb.
    let dir = partial_run("resume-metrics", 3);
    let mut again = config("resume-metrics-again", 3);
    again.state_dir = dir.clone();
    let mut observatory = Observatory::new(again).unwrap();
    let shared = observatory.shared();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let surface = http::serve(listener, shared.clone()).unwrap();
    let report = observatory.run().unwrap();
    assert_eq!(report.resumed_from, Some(3));
    let (healthz, metrics) = (
        get(surface.addr(), "/healthz"),
        get(surface.addr(), "/metrics"),
    );
    shared.request_shutdown();
    surface.join();

    let field = |name: &str| {
        let prefix = format!("\"{name}\": ");
        let line = healthz
            .lines()
            .find_map(|line| line.trim().strip_prefix(&prefix));
        line.expect("/healthz has the field")
            .trim_end_matches(',')
            .to_owned()
    };
    let series = |name: &str| {
        let prefix = format!("orscope_observe_{name}{{surface=\"service\",scope=\"shard\"}} ");
        let line = metrics.lines().find_map(|line| line.strip_prefix(&prefix));
        line.expect("/metrics has the series").to_owned()
    };
    assert_eq!(series("epochs_completed"), "3");
    assert_eq!(
        series("epochs_completed"),
        shared.epochs_completed().to_string()
    );
    assert_ne!(field("population"), "0");
    assert_eq!(series("population"), field("population"));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn state_path_under_a_file_fails_fast_with_a_clear_error() {
    let blocker = scratch("blocker-file");
    fs::create_dir_all(blocker.parent().unwrap()).unwrap();
    fs::write(&blocker, b"i am a file").unwrap();
    let mut config = config("under-file", EPOCHS);
    config.state_dir = blocker.join("state");
    match Observatory::new(config).unwrap().run() {
        Err(ServeError::StateDir(reason)) => {
            assert!(!reason.is_empty(), "the error must name the problem");
        }
        other => panic!("expected StateDir, got {other:?}"),
    }
    fs::remove_file(&blocker).unwrap();
}

/// The member at `path` (names, and positions in arrays) of a decoded
/// generation.
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
fn a_sealed_generation_whose_totals_contradict_its_rows_rolls_back() {
    // Each case edits one number a generation holds and re-seals it with
    // the digest recomputed, so the envelope vouches for it and only the
    // content checks can tell: every total must be the sum over the
    // rows, joins over the rows after epoch 0, the cumulative matrix
    // the sum of the rows' matrices, and every row numbered by its
    // position. Served anyway, `/tables` would contradict `/trends`.
    let straight = straight_run("forged-straight");
    for (label, path) in [
        ("r2", &["tables", "totals", "r2"][..]),
        ("incorrect", &["tables", "totals", "incorrect"]),
        ("malicious", &["tables", "totals", "malicious"]),
        ("leaves", &["tables", "totals", "leaves"]),
        ("drifts", &["tables", "totals", "drifts"]),
        ("epochs_degraded", &["tables", "totals", "epochs_degraded"]),
        ("joins", &["tables", "totals", "joins"]),
        ("cumulative", &["tables", "cumulative", "counts", "0", "0"]),
        ("epoch", &["tables", "epochs", "1", "epoch"]),
    ] {
        let label = format!("forged-{label}");
        let dir = partial_run(&label, HALF);
        let newest = generation_path(&dir, HALF);
        let sealed = fs::read(&newest).unwrap();
        let mut generation = Wire::decode(integrity::unseal(&sealed).unwrap()).unwrap();
        let Wire::U64(count) = member(&mut generation, path) else {
            panic!("{label}: not a count");
        };
        *count += 1;
        let mut payload = generation.encode().into_bytes();
        payload.push(b'\n');
        let forged = integrity::seal(payload);
        let reason = ObservatoryCheckpoint::verify(&forged, HALF).unwrap_err();
        assert!(reason.starts_with("tables: "), "{label}: {reason}");
        fs::write(&newest, forged).unwrap();

        let (tables, quarantined, resumed_from) = resume(&label, &dir);
        assert_eq!(quarantined.len(), 1, "{label}: quarantined");
        assert_eq!(resumed_from, Some(HALF - 1), "{label}: rolled back");
        assert_eq!(tables, straight, "{label}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
