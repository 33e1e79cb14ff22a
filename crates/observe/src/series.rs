//! Rolling time-series tables the observatory accumulates.
//!
//! Each epoch's campaign round is reduced to one [`EpochRow`] — the
//! classification counts the paper's tables track, plus the churn
//! bookkeeping (joins/leaves/drifts and a profile-transition matrix) —
//! and absorbed into [`RollingTables`], the single structure behind the
//! `/tables` and `/trends` endpoints and the serve checkpoint. A row is
//! plain integers and fixed-size arrays, so the history owns one
//! allocation however long it grows. Every document is written field by
//! field from the rows by [`orscope_json::Writer`] into one pre-sized
//! buffer, and the checkpoint form is read back the same way by
//! [`orscope_json::Reader`], one row at a time: no document of the
//! history is ever a tree. Member order is fixed — the served documents
//! sorted by key, the checkpoint form in field order — so two
//! observatories that absorbed the same rows render byte-identical
//! documents, the property the shard-count and resume determinism
//! suites assert.

use orscope_json::{Reader, Writer};
use orscope_resolver::ProfileClass;

/// Number of behavior classes a member can be in.
pub(crate) const N_CLASSES: usize = ProfileClass::ALL.len();

/// Number of matrix rows: one per previous-epoch class, plus the `join`
/// and `skip` pseudo-rows.
pub(crate) const N_ROWS: usize = N_CLASSES + 2;

/// The matrix row of members that joined this epoch.
const JOIN: usize = N_CLASSES;

/// The matrix row of members counted during a degraded epoch.
pub(crate) const SKIP: usize = N_CLASSES + 1;

/// Served bytes of one epoch of `/trends` (its series entry and delta),
/// rounded up from the 564 a row of `serve --scale 20000` takes: sizes
/// the buffer so the document is written without regrowth.
const TRENDS_BYTES_PER_EPOCH: usize = 640;

/// Checkpoint bytes of one row, rounded up from the 543 such a row
/// takes.
pub(crate) const STATE_BYTES_PER_EPOCH: usize = 640;

/// `/tables` holds one row and two matrices, whatever the history.
const TABLES_BYTES: usize = 8_192;

/// The classes in label order, which is how every served document and
/// the checkpoint's class counts list them.
fn by_label() -> [ProfileClass; N_CLASSES] {
    let mut classes = ProfileClass::ALL;
    classes.sort_unstable_by_key(|class| class.as_str());
    classes
}

/// The class whose label is `name`.
fn class_named(name: &str) -> Result<ProfileClass, String> {
    ProfileClass::ALL
        .into_iter()
        .find(|class| class.as_str() == name)
        .ok_or_else(|| format!("unknown class {name:?}"))
}

/// A matrix cell. A row's own matrix counts distinct IPv4 members of one
/// epoch, so its cells fit `u32`; the cumulative matrix sums every row
/// and keeps `u64`. Either way a cell reads as `u64`.
pub trait Cell: Copy + Default + PartialEq + std::fmt::Debug + Into<u64> + TryFrom<u64> {}

impl Cell for u32 {}
impl Cell for u64 {}

/// How members moved between behavior classes across one epoch (or
/// cumulatively). Rows are the previous-epoch class plus two
/// pseudo-rows: `join` for members that were not present last epoch,
/// and `skip` for members counted during a degraded epoch — one whose
/// campaign round failed under supervision, so no scan backs its
/// transitions. Columns are the current class. Every *current* member
/// lands in exactly one cell, so a per-epoch matrix totals to that
/// epoch's population size — the conservation law the determinism
/// suite checks, degraded epochs included.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Transitions<C: Cell> {
    counts: [[C; N_CLASSES]; N_ROWS],
}

/// One epoch's matrix, as a row holds it.
pub(crate) type TransitionMatrix = Transitions<u32>;

/// The sum of every absorbed row's matrix.
pub(crate) type CumulativeTransitions = Transitions<u64>;

impl<C: Cell> Transitions<C> {
    /// Records one member that is now in `to`, coming from `from`
    /// (`None` = joined this epoch).
    pub fn record(&mut self, from: Option<ProfileClass>, to: ProfileClass) {
        self.add(from.map_or(JOIN, ProfileClass::index), to, 1);
    }

    /// Adds `count` members to the cell of matrix row `row` (a class
    /// index, [`JOIN`] or [`SKIP`]) and column `to`.
    ///
    /// # Panics
    ///
    /// When the cell would leave its type's range — for a row's matrix,
    /// more members than IPv4 has addresses.
    pub(crate) fn add(&mut self, row: usize, to: ProfileClass, count: u64) {
        let cell = &mut self.counts[row][to.index()];
        let sum = (*cell).into() + count;
        *cell = C::try_from(sum).unwrap_or_else(|_| panic!("matrix cell {sum} out of range"));
    }

    /// The count in one cell (`from: None` = the join pseudo-row).
    pub fn get(&self, from: Option<ProfileClass>, to: ProfileClass) -> u64 {
        self.counts[from.map_or(JOIN, ProfileClass::index)][to.index()].into()
    }

    /// Sum over all cells — for a per-epoch matrix, the population size.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().map(|&cell| cell.into()).sum()
    }

    /// Members that changed class this epoch (off-diagonal, excluding
    /// joins).
    pub fn moved(&self) -> u64 {
        let mut moved = 0;
        for (row, cols) in self.counts.iter().take(N_CLASSES).enumerate() {
            for (col, &count) in cols.iter().enumerate() {
                if row != col {
                    moved += count.into();
                }
            }
        }
        moved
    }

    /// Writes the checkpoint form: `{"counts": [[count; N_CLASSES]; N_ROWS]}`.
    fn write(&self, out: &mut Writer) {
        out.begin_object().key("counts").begin_array();
        for row in &self.counts {
            out.begin_array();
            for &cell in row {
                out.u64(cell.into());
            }
            out.end_array();
        }
        out.end_array().end_object();
    }

    /// Reads the checkpoint form; a matrix of any other shape, or a cell
    /// out of its type's range, is an error here, before anything could
    /// index or add it.
    fn read(input: &mut Reader) -> Result<Self, String> {
        let mut matrix = Self::default();
        input.object(&["counts"], |input, _| {
            let rows = input.array(|input, row| {
                let cells = matrix
                    .counts
                    .get_mut(row)
                    .ok_or(format!("more than {N_ROWS} rows"))?;
                let cols = input.array(|input, col| {
                    *cells
                        .get_mut(col)
                        .ok_or(format!("more than {N_CLASSES} columns"))? = cell(input.u64()?)?;
                    Ok(())
                })?;
                if cols == N_CLASSES {
                    Ok(())
                } else {
                    Err(format!("row {row} has {cols} columns, not {N_CLASSES}"))
                }
            })?;
            if rows == N_ROWS {
                Ok(())
            } else {
                Err(format!("{rows} rows, not {N_ROWS}"))
            }
        })?;
        Ok(matrix)
    }

    /// Writes the labeled form: `{"from_honest": {"honest": n, ...},
    /// ..., "join": {...}, "skip": {...}}`, rows and columns sorted by
    /// label.
    fn write_labeled(&self, out: &mut Writer, labels: &[ProfileClass; N_CLASSES]) {
        let row = |out: &mut Writer, cells: &[C; N_CLASSES]| {
            out.begin_object();
            for class in labels {
                out.key(class.as_str()).u64(cells[class.index()].into());
            }
            out.end_object();
        };
        out.begin_object();
        for class in labels {
            out.key(&format!("from_{class}"));
            row(out, &self.counts[class.index()]);
        }
        out.key("join");
        row(out, &self.counts[JOIN]);
        out.key("skip");
        row(out, &self.counts[SKIP]);
        out.end_object();
    }
}

/// A count read from disk as a cell, if it fits one.
fn cell<C: Cell>(count: u64) -> Result<C, String> {
    C::try_from(count).map_err(|_| format!("matrix cell {count} out of range"))
}

impl CumulativeTransitions {
    /// Adds a row's cells into the running sum.
    pub(crate) fn absorb(&mut self, row: &TransitionMatrix) {
        for (mine, theirs) in self.counts.iter_mut().zip(&row.counts) {
            for (cell, &add) in mine.iter_mut().zip(theirs) {
                *cell += u64::from(add);
            }
        }
    }

    /// [`Self::absorb`] that reports overflow instead of wrapping, for
    /// counts read from disk.
    fn checked_absorb(&mut self, row: &TransitionMatrix) -> Option<()> {
        for (mine, theirs) in self.counts.iter_mut().zip(&row.counts) {
            for (cell, &add) in mine.iter_mut().zip(theirs) {
                *cell = cell.checked_add(u64::from(add))?;
            }
        }
        Some(())
    }
}

/// Writes `name: count` members, in the order given.
fn write_counts(out: &mut Writer, members: &[(&str, u64)]) {
    for &(name, count) in members {
        out.key(name).u64(count);
    }
}

/// Writes per-class member counts as an object sorted by label, the
/// classes with no member left out.
fn write_class_counts(out: &mut Writer, counts: &[u64; N_CLASSES], labels: &[ProfileClass]) {
    out.begin_object();
    for class in labels {
        let count = counts[class.index()];
        if count > 0 {
            out.key(class.as_str()).u64(count);
        }
    }
    out.end_object();
}

/// Reads per-class member counts: each member a class label, at most
/// once.
fn read_class_counts(input: &mut Reader) -> Result<[u64; N_CLASSES], String> {
    let mut counts = [0; N_CLASSES];
    let mut seen = [false; N_CLASSES];
    input.members(|input, name| {
        let class = class_named(&name)?.index();
        if std::mem::replace(&mut seen[class], true) {
            return Err(format!("duplicate class {name:?}"));
        }
        counts[class] = input.u64()?;
        Ok(())
    })?;
    Ok(counts)
}

/// One epoch's reduction: classification counts from the campaign round
/// plus the churn that produced this epoch's membership.
#[derive(Debug, Clone, Default, PartialEq)]
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
    pub(crate) without_answer: u64,
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
    /// Current membership by behavior class, indexed by
    /// [`ProfileClass::index`].
    pub class_counts: [u64; N_CLASSES],
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

/// The checkpoint members of a row, in the order they are written.
const ROW_MEMBERS: [&str; 17] = [
    "epoch",
    "virtual_day",
    "population",
    "joins",
    "leaves",
    "drifts",
    "r2",
    "without_answer",
    "correct",
    "incorrect",
    "err_pct",
    "nxdomain",
    "refused",
    "malicious",
    "class_counts",
    "transitions",
    "degraded",
];

impl EpochRow {
    fn write(&self, out: &mut Writer, labels: &[ProfileClass]) {
        out.begin_object().key("epoch").u64(self.epoch);
        out.key("virtual_day").f64(self.virtual_day);
        write_counts(
            out,
            &[
                ("population", self.population),
                ("joins", self.joins),
                ("leaves", self.leaves),
                ("drifts", self.drifts),
                ("r2", self.r2),
                ("without_answer", self.without_answer),
                ("correct", self.correct),
                ("incorrect", self.incorrect),
            ],
        );
        out.key("err_pct").f64(self.err_pct);
        write_counts(
            out,
            &[
                ("nxdomain", self.nxdomain),
                ("refused", self.refused),
                ("malicious", self.malicious),
            ],
        );
        out.key("class_counts");
        write_class_counts(out, &self.class_counts, labels);
        out.key("transitions");
        self.transitions.write(out);
        out.key("degraded").bool(self.degraded).end_object();
    }

    fn read(input: &mut Reader) -> Result<Self, String> {
        let mut row = Self::default();
        input.object(&ROW_MEMBERS, |input, name| {
            match name {
                "epoch" => row.epoch = input.u64()?,
                "virtual_day" => row.virtual_day = input.f64()?,
                "population" => row.population = input.u64()?,
                "joins" => row.joins = input.u64()?,
                "leaves" => row.leaves = input.u64()?,
                "drifts" => row.drifts = input.u64()?,
                "r2" => row.r2 = input.u64()?,
                "without_answer" => row.without_answer = input.u64()?,
                "correct" => row.correct = input.u64()?,
                "incorrect" => row.incorrect = input.u64()?,
                "err_pct" => row.err_pct = input.f64()?,
                "nxdomain" => row.nxdomain = input.u64()?,
                "refused" => row.refused = input.u64()?,
                "malicious" => row.malicious = input.u64()?,
                "class_counts" => row.class_counts = read_class_counts(input)?,
                "transitions" => row.transitions = TransitionMatrix::read(input)?,
                "degraded" => row.degraded = input.bool()?,
                other => unreachable!("{other} is not in ROW_MEMBERS"),
            }
            Ok(())
        })?;
        Ok(row)
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

/// The checkpoint members of the totals, in the order they are written.
const TOTALS_MEMBERS: [&str; 8] = [
    "epochs_completed",
    "r2",
    "incorrect",
    "malicious",
    "joins",
    "leaves",
    "drifts",
    "epochs_degraded",
];

impl Totals {
    /// The totals' fields, in [`TOTALS_MEMBERS`] order.
    fn fields(&self) -> [u64; 8] {
        [
            self.epochs_completed,
            self.r2,
            self.incorrect,
            self.malicious,
            self.joins,
            self.leaves,
            self.drifts,
            self.epochs_degraded,
        ]
    }

    fn fields_mut(&mut self) -> [&mut u64; 8] {
        [
            &mut self.epochs_completed,
            &mut self.r2,
            &mut self.incorrect,
            &mut self.malicious,
            &mut self.joins,
            &mut self.leaves,
            &mut self.drifts,
            &mut self.epochs_degraded,
        ]
    }

    /// What absorbing `row` adds to each field, in [`TOTALS_MEMBERS`]
    /// order.
    fn contribution(row: &EpochRow) -> [u64; 8] {
        [
            1,
            row.r2,
            row.incorrect,
            row.malicious,
            if row.epoch > 0 { row.joins } else { 0 },
            row.leaves,
            row.drifts,
            u64::from(row.degraded),
        ]
    }

    fn write(&self, out: &mut Writer) {
        out.begin_object();
        for (name, value) in TOTALS_MEMBERS.into_iter().zip(self.fields()) {
            out.key(name).u64(value);
        }
        out.end_object();
    }

    fn read(input: &mut Reader) -> Result<Self, String> {
        let mut totals = Self::default();
        input.object(&TOTALS_MEMBERS, |input, name| {
            let field = match name {
                "epochs_completed" => &mut totals.epochs_completed,
                "r2" => &mut totals.r2,
                "incorrect" => &mut totals.incorrect,
                "malicious" => &mut totals.malicious,
                "joins" => &mut totals.joins,
                "leaves" => &mut totals.leaves,
                "drifts" => &mut totals.drifts,
                "epochs_degraded" => &mut totals.epochs_degraded,
                other => unreachable!("{other} is not in TOTALS_MEMBERS"),
            };
            *field = input.u64()?;
            Ok(())
        })?;
        Ok(totals)
    }
}

/// The observatory's accumulated state: every absorbed epoch row, the
/// cumulative transition matrix, and run totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RollingTables {
    epochs: Vec<EpochRow>,
    cumulative: CumulativeTransitions,
    totals: Totals,
}

impl RollingTables {
    /// Folds one epoch's reduction into the rolling state.
    pub fn absorb_epoch(&mut self, row: EpochRow) {
        self.cumulative.absorb(&row.transitions);
        for (total, add) in self
            .totals
            .fields_mut()
            .into_iter()
            .zip(Totals::contribution(&row))
        {
            *total += add;
        }
        self.push(row);
    }

    /// Appends `row`, growing the history by an eighth at a time rather
    /// than doubling it: the rows are the observatory's one allocation
    /// that grows with its age, so a doubled buffer would hold up to
    /// twice what it uses for the rest of the run.
    fn push(&mut self, row: EpochRow) {
        if self.epochs.len() == self.epochs.capacity() {
            self.epochs.reserve_exact(16 + self.epochs.len() / 8);
        }
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

    /// Sanity check for state loaded from disk: every row numbered by
    /// its position and conserving its population, and the totals and
    /// the cumulative matrix exactly what absorbing the rows gives. A
    /// checkpoint that parses but fails this must be treated as corrupt
    /// (quarantine + roll back), never absorbed — else `/tables` would
    /// disagree with `/trends`. (A matrix of the wrong shape does not
    /// parse.)
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let overflow = || "counts overflow u64".to_owned();
        let mut totals = [0u64; 8];
        let mut cumulative = CumulativeTransitions::default();
        for (index, row) in self.epochs.iter().enumerate() {
            if row.epoch != index as u64 {
                return Err(format!("row {index} claims epoch {}", row.epoch));
            }
            // `u32` cells: no row's total can overflow.
            let population = row.transitions.total();
            if population != row.population {
                return Err(format!(
                    "epoch {index}: matrix total {population} != population {}",
                    row.population
                ));
            }
            for (total, add) in totals.iter_mut().zip(Totals::contribution(row)) {
                *total = total.checked_add(add).ok_or_else(overflow)?;
            }
            cumulative
                .checked_absorb(&row.transitions)
                .ok_or_else(overflow)?;
        }
        for ((name, claimed), rows) in TOTALS_MEMBERS
            .into_iter()
            .zip(self.totals.fields())
            .zip(totals)
        {
            if claimed != rows {
                return Err(format!(
                    "totals claim {name} {claimed} but the rows sum to {rows}"
                ));
            }
        }
        if cumulative != self.cumulative {
            return Err("cumulative transitions are not the sum of the rows'".to_owned());
        }
        Ok(())
    }

    /// `/tables` as the exact bytes served (pretty JSON + newline): the
    /// latest epoch in full, cumulative transitions, and run totals,
    /// members sorted by key at every level — the served bytes are
    /// pinned by checksum.
    pub fn tables_bytes(&self) -> Vec<u8> {
        let labels = by_label();
        let mut out = String::with_capacity(TABLES_BYTES);
        let mut doc = Writer::pretty(&mut out);
        doc.begin_object().key("cumulative_transitions");
        self.cumulative.write_labeled(&mut doc, &labels);
        doc.key("epochs_completed")
            .u64(self.totals.epochs_completed)
            .key("latest");
        match self.epochs.last() {
            None => {
                doc.null();
            }
            Some(row) => {
                doc.begin_object().key("churn").begin_object();
                write_counts(
                    &mut doc,
                    &[
                        ("drifts", row.drifts),
                        ("joins", row.joins),
                        ("leaves", row.leaves),
                    ],
                );
                doc.end_object().key("classification").begin_object();
                doc.key("correct").u64(row.correct);
                doc.key("err_pct").f64(row.err_pct);
                write_counts(
                    &mut doc,
                    &[
                        ("incorrect", row.incorrect),
                        ("malicious", row.malicious),
                        ("nxdomain", row.nxdomain),
                        ("r2", row.r2),
                        ("refused", row.refused),
                        ("without_answer", row.without_answer),
                    ],
                );
                doc.end_object().key("degraded").bool(row.degraded);
                write_counts(
                    &mut doc,
                    &[("epoch", row.epoch), ("population", row.population)],
                );
                doc.key("population_by_class");
                write_class_counts(&mut doc, &row.class_counts, &labels);
                doc.key("transitions");
                row.transitions.write_labeled(&mut doc, &labels);
                doc.key("virtual_day").f64(row.virtual_day).end_object();
            }
        }
        let totals = &self.totals;
        doc.key("totals").begin_object();
        write_counts(
            &mut doc,
            &[
                ("drifts", totals.drifts),
                ("epochs_degraded", totals.epochs_degraded),
                ("incorrect", totals.incorrect),
                ("joins", totals.joins),
                ("leaves", totals.leaves),
                ("malicious", totals.malicious),
                ("r2", totals.r2),
            ],
        );
        doc.end_object().end_object();
        out.push('\n');
        out.into_bytes()
    }

    /// `/trends` as the exact bytes served (pretty JSON + newline): the
    /// per-epoch series plus consecutive-epoch deltas of the headline
    /// numbers (members sorted by key, as in [`Self::tables_bytes`]).
    pub fn trends_bytes(&self) -> Vec<u8> {
        let labels = by_label();
        let mut out = String::with_capacity(TRENDS_BYTES_PER_EPOCH * (self.epochs.len() + 1));
        let mut doc = Writer::pretty(&mut out);
        doc.begin_object().key("deltas").begin_array();
        for pair in self.epochs.windows(2) {
            let (prev, next) = (&pair[0], &pair[1]);
            doc.begin_object().key("epoch").u64(next.epoch);
            doc.key("err_pct").f64(next.err_pct - prev.err_pct);
            for (name, next, prev) in [
                ("incorrect", next.incorrect, prev.incorrect),
                ("malicious", next.malicious, prev.malicious),
                ("population", next.population, prev.population),
                ("r2", next.r2, prev.r2),
            ] {
                doc.key(name).i64(delta(next, prev));
            }
            doc.end_object();
        }
        doc.end_array();
        write_counts(
            &mut doc,
            &[
                ("epochs_completed", self.totals.epochs_completed),
                ("epochs_degraded", self.totals.epochs_degraded),
            ],
        );
        doc.key("series").begin_array();
        for row in &self.epochs {
            doc.begin_object().key("degraded").bool(row.degraded);
            write_counts(&mut doc, &[("drifts", row.drifts), ("epoch", row.epoch)]);
            doc.key("err_pct").f64(row.err_pct);
            write_counts(
                &mut doc,
                &[
                    ("incorrect", row.incorrect),
                    ("joins", row.joins),
                    ("leaves", row.leaves),
                    ("malicious", row.malicious),
                    ("moved", row.transitions.moved()),
                    ("population", row.population),
                ],
            );
            doc.key("population_by_class");
            write_class_counts(&mut doc, &row.class_counts, &labels);
            doc.key("r2").u64(row.r2);
            doc.key("virtual_day").f64(row.virtual_day).end_object();
        }
        doc.end_array().end_object();
        out.push('\n');
        out.into_bytes()
    }

    /// Writes the checkpoint form of the whole rolling state: the rows,
    /// then the cumulative matrix and the totals.
    pub(crate) fn write_state(&self, out: &mut Writer) {
        let labels = by_label();
        out.begin_object().key("epochs").begin_array();
        for row in &self.epochs {
            row.write(out, &labels);
        }
        out.end_array().key("cumulative");
        self.cumulative.write(out);
        out.key("totals");
        self.totals.write(out);
        out.end_object();
    }

    /// Reads the checkpoint form, one row at a time (callers must still
    /// [`validate`](Self::validate) before trusting it).
    pub(crate) fn read_state(input: &mut Reader) -> Result<Self, String> {
        let mut tables = Self::default();
        input.object(&["epochs", "cumulative", "totals"], |input, name| {
            match name {
                "epochs" => {
                    input.array(|input, _| {
                        tables.push(EpochRow::read(input)?);
                        Ok(())
                    })?;
                }
                "cumulative" => tables.cumulative = CumulativeTransitions::read(input)?,
                "totals" => tables.totals = Totals::read(input)?,
                other => unreachable!("{other} is not a member of the rolling state"),
            }
            Ok(())
        })?;
        Ok(tables)
    }
}

/// A consecutive-epoch change of a count, as served.
fn delta(next: u64, prev: u64) -> i64 {
    (next as i64).wrapping_sub(prev as i64)
}

/// The tree path the streaming one replaced, kept as the oracle its
/// bytes and its verdicts are held to.
#[cfg(test)]
pub(crate) mod oracle {
    use orscope_json::Wire;

    use super::*;

    fn class_counts_json(counts: &[u64; N_CLASSES]) -> Wire {
        Wire::Obj(
            by_label()
                .into_iter()
                .filter(|class| counts[class.index()] > 0)
                .map(|class| (class.as_str().to_owned(), Wire::U64(counts[class.index()])))
                .collect(),
        )
    }

    fn class_counts_from_wire(wire: &Wire) -> Result<[u64; N_CLASSES], String> {
        let mut counts = [0; N_CLASSES];
        let mut seen = [false; N_CLASSES];
        for (name, value) in wire.as_obj()? {
            let class = class_named(name)?.index();
            if std::mem::replace(&mut seen[class], true) {
                return Err(format!("duplicate class {name:?}"));
            }
            counts[class] = value.as_u64()?;
        }
        Ok(counts)
    }

    impl<C: Cell> Transitions<C> {
        pub(crate) fn to_wire(&self) -> Wire {
            Wire::obj(vec![(
                "counts",
                Wire::Arr(
                    self.counts
                        .iter()
                        .map(|row| {
                            Wire::Arr(row.iter().map(|&cell| Wire::U64(cell.into())).collect())
                        })
                        .collect(),
                ),
            )])
        }

        pub(crate) fn from_wire(wire: &Wire) -> Result<Self, String> {
            let rows = wire.field("counts")?.as_arr()?;
            if rows.len() != N_ROWS {
                return Err(format!("{} rows, not {N_ROWS}", rows.len()));
            }
            let mut matrix = Self::default();
            for (cells, row) in matrix.counts.iter_mut().zip(rows) {
                let row = row.as_arr()?;
                if row.len() != N_CLASSES {
                    return Err(format!("{} columns, not {N_CLASSES}", row.len()));
                }
                for (slot, value) in cells.iter_mut().zip(row) {
                    *slot = cell(value.as_u64()?)?;
                }
            }
            Ok(matrix)
        }

        pub(crate) fn to_json(&self) -> Wire {
            let sorted = |mut members: Vec<(String, Wire)>| {
                members.sort_by(|a, b| a.0.cmp(&b.0));
                Wire::Obj(members)
            };
            let row_json = |cols: &[C]| {
                sorted(
                    ProfileClass::ALL
                        .iter()
                        .zip(cols)
                        .map(|(class, &count)| (class.as_str().to_owned(), Wire::U64(count.into())))
                        .collect(),
                )
            };
            let mut rows: Vec<(String, Wire)> = ProfileClass::ALL
                .iter()
                .zip(&self.counts)
                .map(|(class, cols)| (format!("from_{class}"), row_json(cols)))
                .collect();
            rows.push(("join".to_owned(), row_json(&self.counts[JOIN])));
            rows.push(("skip".to_owned(), row_json(&self.counts[SKIP])));
            sorted(rows)
        }
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
                ("class_counts", class_counts_json(&self.class_counts)),
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
                class_counts: wire.field_as("class_counts", class_counts_from_wire)?,
                transitions: wire.field_as("transitions", TransitionMatrix::from_wire)?,
                degraded: wire.field_as("degraded", Wire::as_bool)?,
            })
        }
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

    impl RollingTables {
        pub(crate) fn tables_json(&self) -> Wire {
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
                    ("population_by_class", class_counts_json(&row.class_counts)),
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

        pub(crate) fn trends_json(&self) -> Wire {
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
                        ("population_by_class", class_counts_json(&row.class_counts)),
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

        pub(crate) fn from_wire(wire: &Wire) -> Result<Self, String> {
            Ok(Self {
                epochs: wire
                    .field("epochs")?
                    .as_arr()?
                    .iter()
                    .map(EpochRow::from_wire)
                    .collect::<Result<Vec<EpochRow>, String>>()?,
                cumulative: wire.field_as("cumulative", CumulativeTransitions::from_wire)?,
                totals: wire.field_as("totals", Totals::from_wire)?,
            })
        }
    }

    /// What the parent served: the tree, pretty, plus a newline.
    pub(crate) fn served(document: &Wire) -> Vec<u8> {
        let mut bytes = document.encode_pretty().into_bytes();
        bytes.push(b'\n');
        bytes
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use orscope_check::{cases, Rng};
    use orscope_json::Wire;

    impl<C: Cell> Transitions<C> {
        /// The count skipped into `to` during degraded epochs.
        fn get_skip(&self, to: ProfileClass) -> u64 {
            self.counts[SKIP][to.index()].into()
        }

        /// Records one member of a *degraded* epoch in the conserving
        /// `skip` pseudo-row: the member is present (so the population
        /// total stays honest) but no scan vouches for its transition.
        pub(crate) fn record_skip(&mut self, current: ProfileClass) {
            self.add(SKIP, current, 1);
        }
    }

    use super::oracle::served;
    use super::*;

    fn counts_of(class: ProfileClass, count: u64) -> [u64; N_CLASSES] {
        let mut counts = [0; N_CLASSES];
        counts[class.index()] = count;
        counts
    }

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
            class_counts: counts_of(ProfileClass::Honest, population),
            transitions,
            degraded: false,
        }
    }

    /// A row with every field drawn: a mix of classes in every matrix
    /// row, sometimes degraded, a fractional `err_pct`, counts that rise
    /// and fall from epoch to epoch (so deltas go negative).
    pub(crate) fn arbitrary_row(rng: &mut Rng, epoch: u64) -> EpochRow {
        let degraded = rng.chance(20);
        let mut transitions = TransitionMatrix::default();
        let mut class_counts = [0; N_CLASSES];
        for _ in 0..rng.range(0..40) {
            let to = *rng.choice(&ProfileClass::ALL);
            let from = if degraded { SKIP } else { rng.range(0..=JOIN) };
            transitions.add(from, to, 1);
            class_counts[to.index()] += 1;
        }
        let count = |rng: &mut Rng| if degraded { 0 } else { rng.range(0..5_000) };
        EpochRow {
            epoch,
            virtual_day: epoch as f64 * rng.f64(0.01, 2.0),
            population: transitions.total(),
            joins: rng.range(0..50),
            leaves: rng.range(0..50),
            drifts: rng.range(0..50),
            r2: count(rng),
            without_answer: count(rng),
            correct: count(rng),
            incorrect: count(rng),
            err_pct: if degraded { 0.0 } else { rng.f64(0.0, 100.0) },
            nxdomain: count(rng),
            refused: count(rng),
            malicious: count(rng),
            class_counts,
            transitions,
            degraded,
        }
    }

    pub(crate) fn arbitrary_tables(rng: &mut Rng, epochs: u64) -> RollingTables {
        let mut tables = RollingTables::default();
        for epoch in 0..epochs {
            tables.absorb_epoch(arbitrary_row(rng, epoch));
        }
        tables
    }

    fn state_bytes(tables: &RollingTables) -> String {
        let mut out = String::new();
        tables.write_state(&mut Writer::compact(&mut out));
        out
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
    fn a_row_cell_holds_a_u32_and_a_cumulative_one_a_u64() {
        let one_cell = |cell: u64| {
            let zeros = ["0"; N_CLASSES - 1].join(",");
            let mut rows = vec![format!("[0,{zeros}]"); N_ROWS];
            rows[0] = format!("[{cell},{zeros}]");
            format!(r#"{{"counts":[{}]}}"#, rows.join(","))
        };
        let row = |text: &str| TransitionMatrix::read(&mut Reader::new(text.as_bytes()));
        let full = row(&one_cell(u64::from(u32::MAX))).unwrap();
        assert_eq!(full.total(), u64::from(u32::MAX));
        let past = one_cell(1 << 32);
        assert!(row(&past).unwrap_err().contains("out of range"));
        assert!(TransitionMatrix::from_wire(&Wire::decode(&past).unwrap()).is_err());
        let cumulative = CumulativeTransitions::read(&mut Reader::new(past.as_bytes())).unwrap();
        assert_eq!(cumulative.total(), 1 << 32);
        assert_eq!(
            CumulativeTransitions::from_wire(&Wire::decode(&past).unwrap()),
            Ok(cumulative)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_row_cell_never_wraps() {
        let mut matrix = TransitionMatrix::default();
        matrix.add(0, ProfileClass::Honest, u64::from(u32::MAX));
        matrix.record(Some(ProfileClass::ALL[0]), ProfileClass::Honest);
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
        let doc = Wire::decode(tables.tables_bytes()).unwrap();
        assert_eq!(doc["latest"]["degraded"], Wire::Bool(true));
        assert_eq!(doc["totals"]["epochs_degraded"], Wire::U64(1));
        assert_eq!(
            doc["cumulative_transitions"]["skip"]["honest"],
            Wire::U64(10)
        );
        let trends = Wire::decode(tables.trends_bytes()).unwrap();
        assert_eq!(trends["epochs_degraded"], Wire::U64(1));
        assert_eq!(trends["series"][1]["degraded"], Wire::Bool(true));
        tables.validate().expect("conservation holds");
    }

    #[test]
    fn validate_rejects_malformed_state() {
        let mut tables = RollingTables::default();
        tables.absorb_epoch(row(0, 10));
        tables.absorb_epoch(row(1, 11));
        tables.validate().expect("absorbed state is consistent");
        // A matrix of the wrong shape no longer reaches `validate`: it
        // fails to read, and the generation is quarantined all the same.
        for shape in [
            r#"{"counts":[[0,0]]}"#,
            &format!(
                r#"{{"counts":[{}]}}"#,
                ["[0,0,0,0,0,0,0,0,0]"; N_ROWS + 1].join(",")
            ),
            &format!(
                r#"{{"counts":[{}]}}"#,
                ["[0,0,0,0,0,0,0,0,0,0]"; N_ROWS].join(",")
            ),
        ] {
            assert!(TransitionMatrix::read(&mut Reader::new(shape.as_bytes())).is_err());
            assert!(TransitionMatrix::from_wire(&Wire::decode(shape).unwrap()).is_err());
        }
        let mut unconserved = tables.clone();
        unconserved.epochs[0].population += 1;
        assert!(unconserved.validate().is_err());
        let mut miscounted = tables.clone();
        miscounted.totals.epochs_completed = 9;
        assert!(miscounted.validate().is_err());
        // What the rows imply: each total, the cumulative matrix, and
        // every row numbered by its position.
        for (total, name) in TOTALS_MEMBERS.into_iter().enumerate().skip(1) {
            let mut forged = tables.clone();
            *forged.totals.fields_mut()[total] += 1;
            let err = forged.validate().unwrap_err();
            assert!(err.contains(name), "{err}");
        }
        let mut forged = tables.clone();
        forged.cumulative.record(None, ProfileClass::Silent);
        assert!(forged.validate().unwrap_err().contains("cumulative"));
        let mut renumbered = tables.clone();
        renumbered.epochs[1].epoch = 0;
        assert!(renumbered.validate().unwrap_err().contains("epoch"));
        let mut overflowing = tables;
        overflowing.epochs[1].r2 = u64::MAX;
        assert!(overflowing.validate().unwrap_err().contains("overflow"));
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
    fn the_history_grows_by_an_eighth() {
        let mut tables = RollingTables::default();
        for epoch in 0..600 {
            tables.absorb_epoch(row(epoch, 1));
            let (len, capacity) = (tables.epochs.len(), tables.epochs.capacity());
            assert!(capacity <= len + 16 + len / 8, "{len} rows in {capacity}");
        }
    }

    #[test]
    fn renders_are_the_tree_paths_bytes() {
        // 0, 1, 2 and 300 epochs of drawn rows: degraded rows, negative
        // deltas, fractional err_pct, classes with no member.
        for epochs in [0, 1, 2, 300] {
            cases(if epochs == 300 { 4 } else { 64 }, |rng| {
                let tables = arbitrary_tables(rng, epochs);
                assert_eq!(tables.tables_bytes(), served(&tables.tables_json()));
                assert_eq!(tables.trends_bytes(), served(&tables.trends_json()));
                assert_eq!(state_bytes(&tables), tables.to_wire().encode());
                tables.validate().expect("absorbed state is consistent");
            });
        }
    }

    #[test]
    fn served_members_are_sorted_at_every_level() {
        let tables = arbitrary_tables(&mut Rng::new(7), 3);
        for served in [tables.tables_bytes(), tables.trends_bytes()] {
            assert_members_sorted(&Wire::decode(served).unwrap());
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
    fn the_state_roundtrips_through_the_reader() {
        cases(32, |rng| {
            let epochs = rng.range(0..6);
            let tables = arbitrary_tables(rng, epochs);
            let encoded = state_bytes(&tables);
            let mut input = Reader::new(encoded.as_bytes());
            let decoded = RollingTables::read_state(&mut input).unwrap();
            input.finish().unwrap();
            assert_eq!(decoded, tables);
            assert_eq!(state_bytes(&decoded), encoded, "re-encoding is byte-stable");
            decoded.validate().expect("decoded state is well-formed");
        });
    }

    #[test]
    fn class_counts_name_known_classes_once() {
        let read = |text: &str| read_class_counts(&mut Reader::new(text.as_bytes()));
        assert_eq!(
            read(r#"{"silent":2,"honest":1}"#),
            Ok({
                let mut counts = counts_of(ProfileClass::Honest, 1);
                counts[ProfileClass::Silent.index()] = 2;
                counts
            })
        );
        assert!(read(r#"{"honest":1,"honest":1}"#).is_err());
        assert!(read(r#"{"gremlin":1}"#)
            .unwrap_err()
            .contains("unknown class"));
    }

    #[test]
    fn trends_include_consecutive_deltas() {
        let mut tables = RollingTables::default();
        tables.absorb_epoch(row(0, 10));
        tables.absorb_epoch(row(1, 8));
        let trends = Wire::decode(tables.trends_bytes()).unwrap();
        assert_eq!(trends["series"].as_arr().unwrap().len(), 2);
        let deltas = trends["deltas"].as_arr().unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0]["population"], Wire::I64(-2));
    }
}
