//! Torture test for unattended operation: `kill -9` the serve process
//! mid-run, corrupt what it left behind, resume — and the tables must
//! converge to the exact state of a run that was never interrupted.
//!
//! This drives the real binary (the same process an operator runs), not
//! a library harness, so the whole path is covered: CLI flag parsing,
//! the supervised scheduler, generation flushing, the integrity
//! envelope, quarantine, rollback, and churn fast-forward.

mod common;

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use orscope_observe::{Observatory, ObservatoryCheckpoint, RollingTables, ServeConfig};
use orscope_resolver::paper::Year;

const SCALE: f64 = 60_000.0;
const CHILD_EPOCHS: u64 = 4;
const FULL_EPOCHS: u64 = 6;

/// Seed shared by the child process and the library runs. Honors the
/// same `ORSCOPE_CHAOS_SEED` the invariance matrix's chaos cells use, so
/// CI can prove the recovery path is seed-independent.
fn seed() -> u64 {
    common::chaos_seed(0x7047_0365)
}

/// The library-side mirror of the child's serve flags.
fn mirror_config(state_dir: &Path, epochs: u64) -> ServeConfig {
    let mut config = ServeConfig::new(Year::Y2018, SCALE);
    config.seed = seed();
    config.shards = 1;
    config.epochs = Some(epochs);
    config.checkpoint_every = 1;
    config.state_dir = state_dir.to_path_buf();
    config
}

fn spawn_serve(state_dir: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_orscope"))
        .args([
            "serve",
            "--scale",
            "60000",
            "--seed",
            &seed().to_string(),
            "--shards",
            "1",
            "--epochs",
            &CHILD_EPOCHS.to_string(),
            "--checkpoint-every",
            "1",
            "--interval-ms",
            "150",
            "--port",
            "0",
            "--state-dir",
        ])
        .arg(state_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn orscope serve")
}

/// Completed generation files currently in the state dir, oldest first.
fn generations(state_dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(state_dir) else {
        return Vec::new();
    };
    let mut found: Vec<PathBuf> = entries
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let name = path.file_name()?.to_str()?;
            (name.starts_with("checkpoint-") && name.ends_with(".ckpt")).then_some(path)
        })
        .collect();
    found.sort();
    found
}

#[test]
fn kill_nine_then_corrupt_then_resume_converges_byte_identically() {
    // The truth: one uninterrupted library run over the full span.
    let straight_dir = common::scratch("torture-straight");
    let mut straight = Observatory::new(mirror_config(&straight_dir, FULL_EPOCHS)).unwrap();
    let straight_shared = straight.shared();
    straight.run().unwrap();
    let straight_tables = straight_shared.tables_bytes();
    let straight_trends = straight_shared.trends_bytes();
    let straight_snapshot: RollingTables = straight_shared.tables_snapshot();
    std::fs::remove_dir_all(&straight_dir).unwrap();

    // The victim: the real binary, checkpointing every epoch.
    let state_dir = common::scratch("torture-victim");
    let mut child = spawn_serve(&state_dir);

    // Wait for at least two durable generations, then `kill -9` — no
    // signal handler, no final flush, whatever is mid-write stays torn.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if generations(&state_dir).len() >= 2 {
            break;
        }
        if let Ok(Some(status)) = child.try_wait() {
            // Slow machine: the child finished all its epochs before we
            // sampled two generations. That still leaves generations on
            // disk, so the test proceeds.
            assert!(status.success(), "serve child failed: {status}");
            break;
        }
        assert!(Instant::now() < deadline, "no generations appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let _ = child.wait();

    // Sabotage what survived: truncate the newest generation mid-file.
    let survivors = generations(&state_dir);
    assert!(!survivors.is_empty(), "the child flushed nothing durable");
    let newest = survivors.last().unwrap();
    let bytes = std::fs::read(newest).unwrap();
    std::fs::write(newest, &bytes[..bytes.len() / 2]).unwrap();

    // Resume in-process over the damaged state dir.
    let mut resumed = Observatory::new(mirror_config(&state_dir, FULL_EPOCHS)).unwrap();
    let resumed_shared = resumed.shared();
    let report = resumed.run().unwrap();

    assert!(
        !report.quarantined.is_empty(),
        "the truncated generation must be quarantined"
    );
    assert!(
        report.quarantined[0].to_string_lossy().contains(".corrupt"),
        "{:?}",
        report.quarantined
    );
    assert_eq!(report.epochs_completed, FULL_EPOCHS);
    assert_eq!(
        resumed_shared.tables_snapshot(),
        straight_snapshot,
        "post-recovery rolling state diverged from the uninterrupted run"
    );
    assert_eq!(
        resumed_shared.tables_bytes(),
        straight_tables,
        "post-recovery /tables bytes diverged"
    );
    assert_eq!(
        resumed_shared.trends_bytes(),
        straight_trends,
        "post-recovery /trends bytes diverged"
    );
    std::fs::remove_dir_all(&state_dir).unwrap();
}

#[test]
fn sigterm_mid_run_flushes_a_verified_final_checkpoint() {
    // SIGTERM (graceful, unlike the kill -9 above) must leave a final
    // generation that verifies end to end.
    let state_dir = common::scratch("torture-sigterm");
    let mut child = spawn_serve(&state_dir);
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut finished_on_its_own = false;
    loop {
        if !generations(&state_dir).is_empty() {
            break;
        }
        if let Ok(Some(status)) = child.try_wait() {
            assert!(status.success(), "serve child failed: {status}");
            finished_on_its_own = true;
            break;
        }
        assert!(Instant::now() < deadline, "no generations appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
    if !finished_on_its_own {
        // `kill(2)` with SIGTERM via the `kill` utility keeps this test
        // free of raw libc; the child's handler requests shutdown and
        // the scheduler flushes before exiting.
        let status = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        assert!(status.success());
        let exit_deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if child.try_wait().expect("child wait").is_some() {
                break;
            }
            assert!(
                Instant::now() < exit_deadline,
                "child ignored SIGTERM past the deadline"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // Every surviving generation verifies; the newest one resumes.
    let survivors = generations(&state_dir);
    assert!(!survivors.is_empty(), "no checkpoint flushed on SIGTERM");
    for path in &survivors {
        let name = path.file_name().unwrap().to_str().unwrap();
        let generation: u64 = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".ckpt"))
            .unwrap()
            .parse()
            .unwrap();
        let bytes = std::fs::read(path).unwrap();
        ObservatoryCheckpoint::verify(&bytes, generation)
            .unwrap_or_else(|err| panic!("{name} does not verify after SIGTERM: {err}"));
    }
    std::fs::remove_dir_all(&state_dir).unwrap();
}
