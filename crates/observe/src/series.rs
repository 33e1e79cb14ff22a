//! Rolling time-series tables the observatory accumulates.
//!
//! Each epoch's campaign round is reduced to one [`EpochRow`] — the
//! classification counts the paper's tables track, plus the churn
//! bookkeeping (joins/leaves/drifts and a profile-transition matrix) —
//! and absorbed into [`RollingTables`], the single structure behind the
//! `/tables` and `/trends` endpoints and the serve checkpoint. Every
//! field is integer counts or ratios of them, and both encodings of the
//! state go through [`orscope_json::Wire`] with a fixed member order —
//! the served documents sorted by key, the checkpoint form in field
//! order — so two observatories that absorbed the same rows render
//! byte-identical documents — the property the shard-count and resume
//! determinism suites assert.

use std::collections::BTreeMap;

use orscope_json::Wire;
use orscope_resolver::ProfileClass;

/// Number of behavior classes a member can be in.
pub const N_CLASSES: usize = ProfileClass::ALL.len();

/// Number of matrix rows: one per previous-epoch class, plus the `join`
/// and `skip` pseudo-rows.
pub const N_ROWS: usize = N_CLASSES + 2;

/// How members moved between behavior classes across one epoch (or
/// cumulatively). Rows are the previous-epoch class plus two
/// pseudo-rows: `join` for members that were not present last epoch,
/// and `skip` for members counted during a degraded epoch — one whose
/// campaign round failed under supervision, so no scan backs its
/// transitions. Columns are the current class. Every *current* member
/// lands in exactly one cell, so a per-epoch matrix totals to that
/// epoch's population size — the conservation law the determinism
/// suite checks, degraded epochs included.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionMatrix {
    counts: Vec<Vec<u64>>,
}

impl Default for TransitionMatrix {
    fn default() -> Self {
        Self {
            counts: vec![vec![0; N_CLASSES]; N_ROWS],
        }
    }
}

impl TransitionMatrix {
    /// Records one member that is now in `to`, coming from `from`
    /// (`None` = joined this epoch).
    pub fn record(&mut self, from: Option<ProfileClass>, to: ProfileClass) {
        let row = from.map_or(N_CLASSES, |class| class.index());
        self.counts[row][to.index()] += 1;
    }

    /// Records one member of a *degraded* epoch in the conserving
    /// `skip` pseudo-row: the member is present (so the population
    /// total stays honest) but no scan vouches for its transition.
    pub fn record_skip(&mut self, current: ProfileClass) {
        self.counts[N_CLASSES + 1][current.index()] += 1;
    }

    /// The count skipped into `to` during degraded epochs.
    pub fn get_skip(&self, to: ProfileClass) -> u64 {
        self.counts[N_CLASSES + 1][to.index()]
    }

    /// Whether the matrix has the expected shape. Deserialized
    /// checkpoints are validated with this before they are trusted: a
    /// matrix from an older layout (or a corrupted one that still
    /// parsed) must roll back, not index out of bounds later.
    pub fn is_well_formed(&self) -> bool {
        self.counts.len() == N_ROWS && self.counts.iter().all(|row| row.len() == N_CLASSES)
    }

    /// The count in one cell (`from: None` = the join pseudo-row).
    pub fn get(&self, from: Option<ProfileClass>, to: ProfileClass) -> u64 {
        self.counts[from.map_or(N_CLASSES, |class| class.index())][to.index()]
    }

    /// Sum over all cells — for a per-epoch matrix, the population size.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Members that changed class this epoch (off-diagonal, excluding
    /// joins).
    pub fn moved(&self) -> u64 {
        let mut moved = 0;
        for (row, cols) in self.counts.iter().take(N_CLASSES).enumerate() {
            for (col, &count) in cols.iter().enumerate() {
                if row != col {
                    moved += count;
                }
            }
        }
        moved
    }

    /// Adds `other`'s cells into this matrix.
    pub fn absorb(&mut self, other: &TransitionMatrix) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            for (cell, &add) in mine.iter_mut().zip(theirs) {
                *cell += add;
            }
        }
    }

    /// The checkpoint wire form: `{"counts": [[u64; N_CLASSES]; N_ROWS]}`.
    pub(crate) fn to_wire(&self) -> Wire {
        Wire::obj(vec![(
            "counts",
            Wire::Arr(
                self.counts
                    .iter()
                    .map(|row| Wire::Arr(row.iter().map(|&cell| Wire::U64(cell)).collect()))
                    .collect(),
            ),
        )])
    }

    /// Decodes the checkpoint wire form. Shape is not enforced here —
    /// [`RollingTables::validate`] rejects malformed matrices so the
    /// caller can quarantine the whole checkpoint.
    pub(crate) fn from_wire(wire: &Wire) -> Result<Self, String> {
        let counts = wire
            .field("counts")?
            .as_arr()?
            .iter()
            .map(|row| row.as_arr()?.iter().map(Wire::as_u64).collect())
            .collect::<Result<Vec<Vec<u64>>, String>>()?;
        Ok(Self { counts })
    }

    /// A labeled JSON rendering: `{"from_honest": {"honest": n, ...},
    /// ..., "join": {...}, "skip": {...}}`, rows and columns sorted by
    /// label.
    pub fn to_json(&self) -> Wire {
        let sorted = |mut members: Vec<(String, Wire)>| {
            members.sort_by(|a, b| a.0.cmp(&b.0));
            Wire::Obj(members)
        };
        let row_json = |cols: &[u64]| {
            sorted(
                ProfileClass::ALL
                    .iter()
                    .zip(cols)
                    .map(|(class, &count)| (class.as_str().to_owned(), Wire::U64(count)))
                    .collect(),
            )
        };
        let mut rows: Vec<(String, Wire)> = ProfileClass::ALL
            .iter()
            .zip(&self.counts)
            .map(|(class, cols)| (format!("from_{class}"), row_json(cols)))
            .collect();
        rows.push(("join".to_owned(), row_json(&self.counts[N_CLASSES])));
        rows.push(("skip".to_owned(), row_json(&self.counts[N_CLASSES + 1])));
        sorted(rows)
    }
}

/// One epoch's reduction: classification counts from the campaign round
/// plus the churn that produced this epoch's membership.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRow {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Virtual days since the observatory started, at epoch open.
    pub virtual_day: f64,
    /// Members scanned this epoch.
    pub population: u64,
    /// Members that joined at this epoch's open.
    pub joins: u64,
    /// Members that left at this epoch's open.
    pub leaves: u64,
    /// Members whose profile drifted at this epoch's open.
    pub drifts: u64,
    /// R2 responses classified this epoch (Table III total).
    pub r2: u64,
    /// R2 responses without an answer section.
    pub without_answer: u64,
    /// R2 responses with the correct answer.
    pub correct: u64,
    /// R2 responses with an incorrect answer.
    pub incorrect: u64,
    /// Incorrect as a percentage of answered (Table III err%).
    pub err_pct: f64,
    /// NXDOMAIN responses (Table VI row).
    pub nxdomain: u64,
    /// REFUSED responses (Table VI row).
    pub refused: u64,
    /// Answers matching the malicious threat DB (Table IX).
    pub malicious: u64,
    /// Current membership by behavior class.
    pub class_counts: BTreeMap<String, u64>,
    /// Class movement from the previous epoch.
    pub transitions: TransitionMatrix,
    /// Whether this epoch's campaign round failed under supervision
    /// (panic, permanent shard loss, or a blown virtual deadline). A
    /// degraded row carries zeroed scan counts and its members in the
    /// matrix `skip` pseudo-row; only the free-text failure reason stays
    /// out of the row, because it can mention layout details (shard
    /// indices) that would break shard-invariant table bytes.
    pub degraded: bool,
}

impl EpochRow {
    pub(crate) fn to_wire(&self) -> Wire {
        Wire::obj(vec![
            ("epoch", Wire::U64(self.epoch)),
            ("virtual_day", Wire::F64(self.virtual_day)),
            ("population", Wire::U64(self.population)),
            ("joins", Wire::U64(self.joins)),
            ("leaves", Wire::U64(self.leaves)),
            ("drifts", Wire::U64(self.drifts)),
            ("r2", Wire::U64(self.r2)),
            ("without_answer", Wire::U64(self.without_answer)),
            ("correct", Wire::U64(self.correct)),
            ("incorrect", Wire::U64(self.incorrect)),
            ("err_pct", Wire::F64(self.err_pct)),
            ("nxdomain", Wire::U64(self.nxdomain)),
            ("refused", Wire::U64(self.refused)),
            ("malicious", Wire::U64(self.malicious)),
            ("class_counts", Wire::from(&self.class_counts)),
            ("transitions", self.transitions.to_wire()),
            ("degraded", Wire::Bool(self.degraded)),
        ])
    }

    pub(crate) fn from_wire(wire: &Wire) -> Result<Self, String> {
        Ok(Self {
            epoch: wire.field_as("epoch", Wire::as_u64)?,
            virtual_day: wire.field_as("virtual_day", Wire::as_f64)?,
            population: wire.field_as("population", Wire::as_u64)?,
            joins: wire.field_as("joins", Wire::as_u64)?,
            leaves: wire.field_as("leaves", Wire::as_u64)?,
            drifts: wire.field_as("drifts", Wire::as_u64)?,
            r2: wire.field_as("r2", Wire::as_u64)?,
            without_answer: wire.field_as("without_answer", Wire::as_u64)?,
            correct: wire.field_as("correct", Wire::as_u64)?,
            incorrect: wire.field_as("incorrect", Wire::as_u64)?,
            err_pct: wire.field_as("err_pct", Wire::as_f64)?,
            nxdomain: wire.field_as("nxdomain", Wire::as_u64)?,
            refused: wire.field_as("refused", Wire::as_u64)?,
            malicious: wire.field_as("malicious", Wire::as_u64)?,
            class_counts: wire.field_as("class_counts", Wire::as_count_map)?,
            transitions: wire.field_as("transitions", TransitionMatrix::from_wire)?,
            degraded: wire.field_as("degraded", Wire::as_bool)?,
        })
    }
}

/// Whole-run accumulators.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Campaign rounds absorbed.
    pub epochs_completed: u64,
    /// R2 responses across all epochs.
    pub r2: u64,
    /// Incorrect answers across all epochs.
    pub incorrect: u64,
    /// Malicious answers across all epochs.
    pub malicious: u64,
    /// Join events across all epochs (excluding epoch 0's initial
    /// discovery, which is arrival, not churn).
    pub joins: u64,
    /// Leave events across all epochs.
    pub leaves: u64,
    /// Drift events across all epochs.
    pub drifts: u64,
    /// Epochs whose campaign round degraded instead of completing.
    pub epochs_degraded: u64,
}

impl Totals {
    pub(crate) fn to_wire(&self) -> Wire {
        Wire::obj(vec![
            ("epochs_completed", Wire::U64(self.epochs_completed)),
            ("r2", Wire::U64(self.r2)),
            ("incorrect", Wire::U64(self.incorrect)),
            ("malicious", Wire::U64(self.malicious)),
            ("joins", Wire::U64(self.joins)),
            ("leaves", Wire::U64(self.leaves)),
            ("drifts", Wire::U64(self.drifts)),
            ("epochs_degraded", Wire::U64(self.epochs_degraded)),
        ])
    }

    pub(crate) fn from_wire(wire: &Wire) -> Result<Self, String> {
        Ok(Self {
            epochs_completed: wire.field_as("epochs_completed", Wire::as_u64)?,
            r2: wire.field_as("r2", Wire::as_u64)?,
            incorrect: wire.field_as("incorrect", Wire::as_u64)?,
            malicious: wire.field_as("malicious", Wire::as_u64)?,
            joins: wire.field_as("joins", Wire::as_u64)?,
            leaves: wire.field_as("leaves", Wire::as_u64)?,
            drifts: wire.field_as("drifts", Wire::as_u64)?,
            epochs_degraded: wire.field_as("epochs_degraded", Wire::as_u64)?,
        })
    }
}

/// The observatory's accumulated state: every absorbed epoch row, the
/// cumulative transition matrix, and run totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RollingTables {
    epochs: Vec<EpochRow>,
    cumulative: TransitionMatrix,
    totals: Totals,
}

impl RollingTables {
    /// Folds one epoch's reduction into the rolling state.
    pub fn absorb_epoch(&mut self, row: EpochRow) {
        self.cumulative.absorb(&row.transitions);
        self.totals.epochs_completed += 1;
        self.totals.epochs_degraded += u64::from(row.degraded);
        self.totals.r2 += row.r2;
        self.totals.incorrect += row.incorrect;
        self.totals.malicious += row.malicious;
        if row.epoch > 0 {
            self.totals.joins += row.joins;
        }
        self.totals.leaves += row.leaves;
        self.totals.drifts += row.drifts;
        self.epochs.push(row);
    }

    /// The most recently absorbed epoch.
    pub fn latest(&self) -> Option<&EpochRow> {
        self.epochs.last()
    }

    /// All absorbed epochs, in order.
    pub fn epochs(&self) -> &[EpochRow] {
        &self.epochs
    }

    /// Run totals.
    pub fn totals(&self) -> &Totals {
        &self.totals
    }

    /// Structural sanity check for state loaded from disk: matrix
    /// shapes, epoch count, and the per-epoch conservation law. A
    /// checkpoint that parses but fails this must be treated as
    /// corrupt (quarantine + roll back), never absorbed.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !self.cumulative.is_well_formed() {
            return Err("cumulative transition matrix has the wrong shape".to_owned());
        }
        if self.totals.epochs_completed != self.epochs.len() as u64 {
            return Err(format!(
                "totals claim {} epochs but {} rows are present",
                self.totals.epochs_completed,
                self.epochs.len()
            ));
        }
        for row in &self.epochs {
            if !row.transitions.is_well_formed() {
                return Err(format!("epoch {}: malformed transition matrix", row.epoch));
            }
            if row.transitions.total() != row.population {
                return Err(format!(
                    "epoch {}: matrix total {} != population {}",
                    row.epoch,
                    row.transitions.total(),
                    row.population
                ));
            }
        }
        Ok(())
    }

    /// The `/tables` document: the latest epoch in full, cumulative
    /// transitions, and run totals. Members are listed sorted by key at
    /// every level — the served bytes are pinned by checksum.
    pub fn tables_json(&self) -> Wire {
        let latest = self.epochs.last().map(|row| {
            Wire::obj(vec![
                (
                    "churn",
                    Wire::obj(vec![
                        ("drifts", Wire::from(row.drifts)),
                        ("joins", Wire::from(row.joins)),
                        ("leaves", Wire::from(row.leaves)),
                    ]),
                ),
                (
                    "classification",
                    Wire::obj(vec![
                        ("correct", Wire::from(row.correct)),
                        ("err_pct", Wire::from(row.err_pct)),
                        ("incorrect", Wire::from(row.incorrect)),
                        ("malicious", Wire::from(row.malicious)),
                        ("nxdomain", Wire::from(row.nxdomain)),
                        ("r2", Wire::from(row.r2)),
                        ("refused", Wire::from(row.refused)),
                        ("without_answer", Wire::from(row.without_answer)),
                    ]),
                ),
                ("degraded", Wire::from(row.degraded)),
                ("epoch", Wire::from(row.epoch)),
                ("population", Wire::from(row.population)),
                ("population_by_class", Wire::from(&row.class_counts)),
                ("transitions", row.transitions.to_json()),
                ("virtual_day", Wire::from(row.virtual_day)),
            ])
        });
        Wire::obj(vec![
            ("cumulative_transitions", self.cumulative.to_json()),
            ("epochs_completed", Wire::from(self.totals.epochs_completed)),
            ("latest", Wire::from(latest)),
            (
                "totals",
                Wire::obj(vec![
                    ("drifts", Wire::from(self.totals.drifts)),
                    ("epochs_degraded", Wire::from(self.totals.epochs_degraded)),
                    ("incorrect", Wire::from(self.totals.incorrect)),
                    ("joins", Wire::from(self.totals.joins)),
                    ("leaves", Wire::from(self.totals.leaves)),
                    ("malicious", Wire::from(self.totals.malicious)),
                    ("r2", Wire::from(self.totals.r2)),
                ]),
            ),
        ])
    }

    /// The `/trends` document: the per-epoch series plus consecutive-
    /// epoch deltas of the headline numbers (members sorted by key, as
    /// in [`Self::tables_json`]).
    pub fn trends_json(&self) -> Wire {
        let series = self
            .epochs
            .iter()
            .map(|row| {
                Wire::obj(vec![
                    ("degraded", Wire::from(row.degraded)),
                    ("drifts", Wire::from(row.drifts)),
                    ("epoch", Wire::from(row.epoch)),
                    ("err_pct", Wire::from(row.err_pct)),
                    ("incorrect", Wire::from(row.incorrect)),
                    ("joins", Wire::from(row.joins)),
                    ("leaves", Wire::from(row.leaves)),
                    ("malicious", Wire::from(row.malicious)),
                    ("moved", Wire::from(row.transitions.moved())),
                    ("population", Wire::from(row.population)),
                    ("population_by_class", Wire::from(&row.class_counts)),
                    ("r2", Wire::from(row.r2)),
                    ("virtual_day", Wire::from(row.virtual_day)),
                ])
            })
            .collect();
        let deltas = self
            .epochs
            .windows(2)
            .map(|pair| {
                let (prev, next) = (&pair[0], &pair[1]);
                let delta = |next: u64, prev: u64| Wire::from(next as i64 - prev as i64);
                Wire::obj(vec![
                    ("epoch", Wire::from(next.epoch)),
                    ("err_pct", Wire::from(next.err_pct - prev.err_pct)),
                    ("incorrect", delta(next.incorrect, prev.incorrect)),
                    ("malicious", delta(next.malicious, prev.malicious)),
                    ("population", delta(next.population, prev.population)),
                    ("r2", delta(next.r2, prev.r2)),
                ])
            })
            .collect();
        Wire::obj(vec![
            ("deltas", Wire::Arr(deltas)),
            ("epochs_completed", Wire::from(self.totals.epochs_completed)),
            ("epochs_degraded", Wire::from(self.totals.epochs_degraded)),
            ("series", Wire::Arr(series)),
        ])
    }

    /// The checkpoint wire form of the whole rolling state.
    pub(crate) fn to_wire(&self) -> Wire {
        Wire::obj(vec![
            (
                "epochs",
                Wire::Arr(self.epochs.iter().map(EpochRow::to_wire).collect()),
            ),
            ("cumulative", self.cumulative.to_wire()),
            ("totals", self.totals.to_wire()),
        ])
    }

    /// Decodes the checkpoint wire form (callers must still
    /// [`validate`](Self::validate) before trusting it).
    pub(crate) fn from_wire(wire: &Wire) -> Result<Self, String> {
        Ok(Self {
            epochs: wire
                .field("epochs")?
                .as_arr()?
                .iter()
                .map(EpochRow::from_wire)
                .collect::<Result<Vec<EpochRow>, String>>()?,
            cumulative: wire.field_as("cumulative", TransitionMatrix::from_wire)?,
            totals: wire.field_as("totals", Totals::from_wire)?,
        })
    }

    /// `/tables` as the exact bytes served (pretty JSON + newline).
    pub fn tables_bytes(&self) -> Vec<u8> {
        render(&self.tables_json())
    }

    /// `/trends` as the exact bytes served (pretty JSON + newline).
    pub fn trends_bytes(&self) -> Vec<u8> {
        render(&self.trends_json())
    }
}

fn render(value: &Wire) -> Vec<u8> {
    let mut bytes = value.encode_pretty().into_bytes();
    bytes.push(b'\n');
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(epoch: u64, population: u64) -> EpochRow {
        let mut transitions = TransitionMatrix::default();
        for _ in 0..population {
            transitions.record(
                if epoch == 0 {
                    None
                } else {
                    Some(ProfileClass::Honest)
                },
                ProfileClass::Honest,
            );
        }
        EpochRow {
            epoch,
            virtual_day: epoch as f64,
            population,
            joins: if epoch == 0 { population } else { 2 },
            leaves: if epoch == 0 { 0 } else { 1 },
            drifts: 0,
            r2: population,
            without_answer: 1,
            correct: population.saturating_sub(2),
            incorrect: 1,
            err_pct: 1.0,
            nxdomain: 0,
            refused: 0,
            malicious: 1,
            class_counts: BTreeMap::from([("honest".to_string(), population)]),
            transitions,
            degraded: false,
        }
    }

    #[test]
    fn matrix_conserves_population() {
        let mut matrix = TransitionMatrix::default();
        matrix.record(None, ProfileClass::Honest);
        matrix.record(Some(ProfileClass::Honest), ProfileClass::Refusing);
        matrix.record(Some(ProfileClass::Refusing), ProfileClass::Refusing);
        assert_eq!(matrix.total(), 3);
        assert_eq!(matrix.moved(), 1, "one class change, joins excluded");
        assert_eq!(matrix.get(None, ProfileClass::Honest), 1);
        assert_eq!(
            matrix.get(Some(ProfileClass::Honest), ProfileClass::Refusing),
            1
        );
    }

    #[test]
    fn matrix_json_labels_every_cell() {
        let mut matrix = TransitionMatrix::default();
        matrix.record(Some(ProfileClass::Forwarder), ProfileClass::Silent);
        let value = matrix.to_json();
        assert_eq!(value["from_forwarder"]["silent"], Wire::U64(1));
        assert_eq!(value["join"]["honest"], Wire::U64(0));
        assert_eq!(
            value.as_obj().unwrap().len(),
            N_ROWS,
            "one row per class plus the join and skip pseudo-rows"
        );
    }

    #[test]
    fn skip_row_conserves_population_without_claiming_movement() {
        let mut matrix = TransitionMatrix::default();
        matrix.record_skip(ProfileClass::Honest);
        matrix.record_skip(ProfileClass::Honest);
        matrix.record_skip(ProfileClass::Refusing);
        assert_eq!(matrix.total(), 3, "skipped members still count");
        assert_eq!(matrix.moved(), 0, "a skip is not a class change");
        assert_eq!(matrix.get_skip(ProfileClass::Honest), 2);
        assert_eq!(matrix.to_json()["skip"]["refusing"], Wire::U64(1));
    }

    #[test]
    fn degraded_rows_count_in_totals_and_documents() {
        let mut tables = RollingTables::default();
        tables.absorb_epoch(row(0, 10));
        let mut bad = row(1, 10);
        bad.degraded = true;
        bad.r2 = 0;
        bad.transitions = TransitionMatrix::default();
        for _ in 0..10 {
            bad.transitions.record_skip(ProfileClass::Honest);
        }
        tables.absorb_epoch(bad);
        assert_eq!(tables.totals().epochs_degraded, 1);
        let doc = tables.tables_json();
        assert_eq!(doc["latest"]["degraded"], Wire::Bool(true));
        assert_eq!(doc["totals"]["epochs_degraded"], Wire::U64(1));
        assert_eq!(
            doc["cumulative_transitions"]["skip"]["honest"],
            Wire::U64(10)
        );
        let trends = tables.trends_json();
        assert_eq!(trends["epochs_degraded"], Wire::U64(1));
        assert_eq!(trends["series"][1]["degraded"], Wire::Bool(true));
        tables.validate().expect("conservation holds");
    }

    #[test]
    fn validate_rejects_malformed_state() {
        let mut tables = RollingTables::default();
        tables.absorb_epoch(row(0, 10));
        let mut wrong_shape = tables.clone();
        wrong_shape.cumulative =
            TransitionMatrix::from_wire(&Wire::decode(r#"{"counts":[[0,0]]}"#).unwrap()).unwrap();
        assert!(!wrong_shape.cumulative.is_well_formed());
        assert!(wrong_shape.validate().is_err());
        let mut unconserved = tables.clone();
        unconserved.epochs[0].population += 1;
        assert!(unconserved.validate().is_err());
        let mut miscounted = tables;
        miscounted.totals.epochs_completed = 9;
        assert!(miscounted.validate().is_err());
    }

    #[test]
    fn absorb_accumulates_totals_and_cumulative_matrix() {
        let mut tables = RollingTables::default();
        tables.absorb_epoch(row(0, 10));
        tables.absorb_epoch(row(1, 11));
        assert_eq!(tables.totals().epochs_completed, 2);
        assert_eq!(tables.totals().r2, 21);
        assert_eq!(tables.totals().joins, 2, "epoch 0 arrival not counted");
        assert_eq!(tables.totals().leaves, 1);
        assert_eq!(tables.latest().unwrap().epoch, 1);
        let cumulative = tables.tables_json()["cumulative_transitions"].clone();
        assert_eq!(cumulative["join"]["honest"], Wire::U64(10));
        assert_eq!(cumulative["from_honest"]["honest"], Wire::U64(11));
    }

    #[test]
    fn rendering_is_deterministic_and_roundtrips() {
        let mut tables = RollingTables::default();
        tables.absorb_epoch(row(0, 10));
        tables.absorb_epoch(row(1, 11));
        assert_eq!(tables.tables_bytes(), tables.tables_bytes());
        assert_eq!(tables.trends_bytes(), tables.trends_bytes());
        for (served, document) in [
            (tables.tables_bytes(), tables.tables_json()),
            (tables.trends_bytes(), tables.trends_json()),
        ] {
            assert_eq!(Wire::decode(served).unwrap(), document);
            assert_members_sorted(&document);
        }
    }

    /// The served documents are specified as sorted-key at every level.
    fn assert_members_sorted(value: &Wire) {
        match value {
            Wire::Obj(members) => {
                let keys: Vec<&String> = members.iter().map(|(key, _)| key).collect();
                assert!(keys.windows(2).all(|pair| pair[0] < pair[1]), "{keys:?}");
                members
                    .iter()
                    .for_each(|(_, member)| assert_members_sorted(member));
            }
            Wire::Arr(items) => items.iter().for_each(assert_members_sorted),
            _ => {}
        }
    }

    #[test]
    fn wire_codec_roundtrips_rolling_state() {
        let mut tables = RollingTables::default();
        tables.absorb_epoch(row(0, 10));
        let mut second = row(1, 11);
        second.degraded = true;
        second.err_pct = 100.0 / 3.0;
        tables.absorb_epoch(second);
        let encoded = tables.to_wire().encode();
        let decoded = RollingTables::from_wire(&Wire::decode(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, tables);
        assert_eq!(
            decoded.to_wire().encode(),
            encoded,
            "re-encoding is byte-stable"
        );
        decoded.validate().expect("decoded state is well-formed");
    }

    #[test]
    fn trends_include_consecutive_deltas() {
        let mut tables = RollingTables::default();
        tables.absorb_epoch(row(0, 10));
        tables.absorb_epoch(row(1, 8));
        let trends = tables.trends_json();
        assert_eq!(trends["series"].as_arr().unwrap().len(), 2);
        let deltas = trends["deltas"].as_arr().unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0]["population"], Wire::I64(-2));
    }
}
