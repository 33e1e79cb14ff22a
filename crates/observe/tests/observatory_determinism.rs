//! Churn determinism suite: the observatory's published documents are a
//! pure function of `(seed, config)` — invariant across shard counts
//! and across a kill-and-resume boundary — and the per-epoch transition
//! matrix conserves the population.

use std::path::PathBuf;

use orscope_observe::{EpochSabotage, Observatory, ServeConfig};
use orscope_resolver::paper::Year;

const EPOCHS: u64 = 4;

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "orscope-determinism-{label}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(label: &str, shards: usize, epochs: u64) -> ServeConfig {
    let mut config = ServeConfig::new(Year::Y2018, 60_000.0);
    config.seed = 0x0B5E_2018;
    config.shards = shards;
    config.epochs = Some(epochs);
    config.state_dir = scratch(label);
    config
}

/// Runs to the epoch limit and returns the exact `/tables` and
/// `/trends` bytes the HTTP surface would serve.
fn run(config: ServeConfig) -> (Vec<u8>, Vec<u8>) {
    let state_dir = config.state_dir.clone();
    let mut observatory = Observatory::new(config).unwrap();
    let shared = observatory.shared();
    observatory.run().unwrap();
    let documents = (shared.tables_bytes(), shared.trends_bytes());
    std::fs::remove_dir_all(&state_dir).unwrap();
    documents
}

#[test]
fn tables_and_trends_are_shard_invariant() {
    let (tables_1, trends_1) = run(config("shards1", 1, EPOCHS));
    let (tables_2, trends_2) = run(config("shards2", 2, EPOCHS));
    let (tables_4, trends_4) = run(config("shards4", 4, EPOCHS));
    assert!(!trends_1.is_empty());
    assert_eq!(tables_1, tables_2, "tables: 1 vs 2 shards");
    assert_eq!(tables_1, tables_4, "tables: 1 vs 4 shards");
    assert_eq!(trends_1, trends_2, "trends: 1 vs 2 shards");
    assert_eq!(trends_1, trends_4, "trends: 1 vs 4 shards");
}

#[test]
fn kill_and_resume_reproduces_the_uninterrupted_run() {
    let (straight_tables, straight_trends) = run(config("straight", 2, EPOCHS));

    // Same config, stopped halfway: the final-epoch checkpoint flushed
    // at exit carries the epoch state forward. The second config gets
    // its own label: `config` scrubs its scratch path, and the resumed
    // run must not scrub the state it is resuming.
    let dir = scratch("resumed");
    let mut first_half = config("resumed", 2, EPOCHS / 2);
    first_half.state_dir = dir.clone();
    let report = Observatory::new(first_half).unwrap().run().unwrap();
    assert_eq!(report.epochs_completed, EPOCHS / 2);
    assert_eq!(report.resumed_from, None);

    let mut second_half = config("resumed-continue", 2, EPOCHS);
    second_half.state_dir = dir.clone();
    let mut resumed = Observatory::new(second_half).unwrap();
    let shared = resumed.shared();
    let report = resumed.run().unwrap();
    assert_eq!(report.resumed_from, Some(EPOCHS / 2));
    assert_eq!(report.epochs_completed, EPOCHS);

    assert_eq!(
        shared.tables_bytes(),
        straight_tables,
        "resumed /tables bytes differ from the uninterrupted run"
    );
    assert_eq!(
        shared.trends_bytes(),
        straight_trends,
        "resumed /trends bytes differ from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_survives_a_shard_count_change() {
    // Shard invariance means a checkpoint written at 1 shard may resume
    // at 4 shards and still match the straight 4-shard run.
    let (straight_tables, _) = run(config("reshard-straight", 4, EPOCHS));

    let dir = scratch("reshard");
    let mut first = config("reshard", 1, EPOCHS / 2);
    first.state_dir = dir.clone();
    Observatory::new(first).unwrap().run().unwrap();

    let mut second = config("reshard-continue", 4, EPOCHS);
    second.state_dir = dir.clone();
    let mut resumed = Observatory::new(second).unwrap();
    let shared = resumed.shared();
    let report = resumed.run().unwrap();
    assert_eq!(report.resumed_from, Some(EPOCHS / 2), "actually resumed");
    assert_eq!(shared.tables_bytes(), straight_tables);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn transition_matrix_conserves_population_and_shows_churn() {
    let mut observatory = Observatory::new(config("conservation", 1, EPOCHS)).unwrap();
    let shared = observatory.shared();
    observatory.run().unwrap();
    let tables = shared.tables_snapshot();
    assert_eq!(tables.epochs().len() as u64, EPOCHS);
    for row in tables.epochs() {
        assert_eq!(
            row.transitions.total(),
            row.population,
            "epoch {}: every current member lands in exactly one matrix cell",
            row.epoch
        );
        let class_total: u64 = row.class_counts.iter().sum();
        assert_eq!(class_total, row.population, "epoch {}", row.epoch);
    }
    // Epoch 0 is pure arrival; later epochs actually churn.
    assert_eq!(tables.epochs()[0].leaves, 0);
    let churned: u64 = tables
        .epochs()
        .iter()
        .skip(1)
        .map(|row| row.joins + row.leaves + row.drifts)
        .sum();
    assert!(churned > 0, "default churn rates must move members");
    std::fs::remove_dir_all(&observatory.config().state_dir).unwrap();
}

#[test]
fn degraded_epochs_are_shard_invariant_and_conserve_population() {
    // Epoch 1 sabotaged past its retry: it degrades. The degraded row
    // must be identical whatever the shard layout was — its bytes carry
    // no failure text, its members land in the `skip` pseudo-row.
    let sabotaged = |label: &str, shards: usize| {
        let mut config = config(label, shards, EPOCHS);
        config.sabotage = Some(EpochSabotage {
            epoch: 1,
            failures: 2, // attempt + retry both fail
        });
        config
    };
    let mut one = Observatory::new(sabotaged("degraded1", 1)).unwrap();
    let shared_one = one.shared();
    let report_one = one.run().unwrap();
    let mut two = Observatory::new(sabotaged("degraded2", 2)).unwrap();
    let shared_two = two.shared();
    let report_two = two.run().unwrap();

    assert_eq!(report_one.epochs_degraded, 1);
    assert_eq!(report_two.epochs_degraded, 1);
    let tables = shared_one.tables_snapshot();
    assert_eq!(
        tables,
        shared_two.tables_snapshot(),
        "degraded runs diverge across shard counts"
    );
    assert_eq!(shared_one.tables_bytes(), shared_two.tables_bytes());
    assert_eq!(shared_one.trends_bytes(), shared_two.trends_bytes());

    // The degraded row conserves population and admits no scan claims.
    let row = &tables.epochs()[1];
    assert!(row.degraded);
    assert_eq!(row.r2, 0, "no scan backs a degraded epoch");
    assert_eq!(row.transitions.total(), row.population, "conserved");
    assert_eq!(row.transitions.moved(), 0, "skips claim no movement");
    assert!(!tables.epochs()[0].degraded);
    assert!(
        !tables.epochs()[2].degraded,
        "run continued past the failure"
    );
    assert_eq!(tables.totals().epochs_degraded, 1);
    std::fs::remove_dir_all(&one.config().state_dir).unwrap();
    std::fs::remove_dir_all(&two.config().state_dir).unwrap();
}

#[test]
fn one_transient_failure_is_invisible_after_the_identical_seed_retry() {
    let (clean_tables, clean_trends) = run(config("retry-clean", 2, EPOCHS));
    let mut flaky = config("retry-flaky", 2, EPOCHS);
    flaky.sabotage = Some(EpochSabotage {
        epoch: 1,
        failures: 1, // first attempt fails, the retry succeeds
    });
    let mut observatory = Observatory::new(flaky).unwrap();
    let shared = observatory.shared();
    let report = observatory.run().unwrap();
    assert_eq!(report.epochs_degraded, 0, "the retry absorbed the failure");
    assert_eq!(
        shared.tables_bytes(),
        clean_tables,
        "a retried epoch must be byte-identical to a clean one"
    );
    assert_eq!(shared.trends_bytes(), clean_trends);
    assert!(!shared.tables_snapshot().epochs()[1].degraded);
    std::fs::remove_dir_all(&observatory.config().state_dir).unwrap();
}

#[test]
fn an_impossible_epoch_deadline_degrades_every_epoch_shard_invariantly() {
    // One virtual second per round: no campaign finishes, every epoch
    // degrades — and the tables still agree across shard counts.
    let strangled = |label: &str, shards: usize| {
        let mut config = config(label, shards, EPOCHS);
        config.epoch_deadline_virtual_secs = Some(1);
        config
    };
    let mut one = Observatory::new(strangled("deadline1", 1)).unwrap();
    let shared_one = one.shared();
    let report = one.run().unwrap();
    assert_eq!(
        report.epochs_degraded, EPOCHS,
        "every round blew the budget"
    );
    let mut two = Observatory::new(strangled("deadline2", 2)).unwrap();
    let shared_two = two.shared();
    two.run().unwrap();
    assert_eq!(shared_one.tables_snapshot(), shared_two.tables_snapshot());
    for row in shared_one.tables_snapshot().epochs() {
        assert!(row.degraded, "epoch {}", row.epoch);
        assert_eq!(
            row.transitions.total(),
            row.population,
            "epoch {}",
            row.epoch
        );
    }
    std::fs::remove_dir_all(&one.config().state_dir).unwrap();
    std::fs::remove_dir_all(&two.config().state_dir).unwrap();
}

#[test]
fn a_generous_deadline_changes_nothing() {
    let (clean_tables, _) = run(config("roomy-clean", 2, EPOCHS));
    let mut roomy = config("roomy", 2, EPOCHS);
    // A year of virtual time per one-day round: never fires. The
    // fingerprint differs (the deadline is part of the run identity),
    // but the produced tables must not.
    roomy.epoch_deadline_virtual_secs = Some(365 * 86_400);
    let mut observatory = Observatory::new(roomy).unwrap();
    let shared = observatory.shared();
    let report = observatory.run().unwrap();
    assert_eq!(report.epochs_degraded, 0);
    assert_eq!(shared.tables_bytes(), clean_tables);
    std::fs::remove_dir_all(&observatory.config().state_dir).unwrap();
}
