//! Generators for every table in the paper's evaluation.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::net::Ipv4Addr;

use orscope_dns_wire::Rcode;
use orscope_lookup::geo::GeoDb;
use orscope_lookup::threatintel::{Category, ThreatDb};
use orscope_resolver::paper::{AnswerClass, YearSpec};

use crate::classify::{AnswerKind, ClassifiedR2};
use crate::dataset::Dataset;

/// The W/O / W_corr / W_incorr triple used by Tables III, IV and V.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnswerBreakdown {
    /// Responses without an answer section.
    pub wo: u64,
    /// Responses with a correct answer.
    pub w_corr: u64,
    /// Responses with an incorrect answer (including malformed).
    pub w_incorr: u64,
}

impl AnswerBreakdown {
    /// Accumulates a classified packet.
    pub fn add(&mut self, rec: &ClassifiedR2) {
        if !rec.has_answer() {
            self.wo += 1;
        } else if rec.correct {
            self.w_corr += 1;
        } else {
            self.w_incorr += 1;
        }
    }

    /// Folds an iterator of packets into a breakdown.
    pub fn collect<'a>(records: impl Iterator<Item = &'a ClassifiedR2>) -> Self {
        let mut out = Self::default();
        for rec in records {
            out.add(rec);
        }
        out
    }

    /// Merges another breakdown in (shard absorption; commutative).
    pub fn absorb(&mut self, other: &Self) {
        self.wo += other.wo;
        self.w_corr += other.w_corr;
        self.w_incorr += other.w_incorr;
    }

    /// Total packets.
    pub fn total(&self) -> u64 {
        self.wo + self.w_corr + self.w_incorr
    }

    /// Packets with an answer (the W column).
    pub fn w(&self) -> u64 {
        self.w_corr + self.w_incorr
    }

    /// `Err(%) = W_incorr / W * 100` (0 when W is 0).
    pub fn err_pct(&self) -> f64 {
        if self.w() == 0 {
            0.0
        } else {
            self.w_incorr as f64 / self.w() as f64 * 100.0
        }
    }
}

/// Table II: one scan's probe summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2 {
    /// Probes sent.
    pub q1: u64,
    /// Resolver queries seen at the authoritative server (Q2 == R1).
    pub q2_r1: u64,
    /// Responses captured at the prober.
    pub r2: u64,
    /// Scan duration, seconds.
    pub duration_secs: f64,
}

impl Table2 {
    /// Computes the row from a dataset.
    pub fn measured(ds: &Dataset) -> Self {
        Self {
            q1: ds.q1,
            q2_r1: ds.q2,
            r2: ds.r2(),
            duration_secs: ds.duration_secs,
        }
    }

    /// The paper's published row.
    pub fn paper(spec: &YearSpec) -> Self {
        Self {
            q1: spec.q1,
            q2_r1: spec.q2_r1,
            r2: spec.r2,
            duration_secs: spec.duration_secs as f64,
        }
    }

    /// Q2 as a percentage of Q1 (the parenthesized figure in Table II).
    pub(crate) fn q2_pct(&self) -> f64 {
        if self.q1 == 0 {
            0.0
        } else {
            self.q2_r1 as f64 / self.q1 as f64 * 100.0
        }
    }

    /// R2 as a percentage of Q1.
    pub fn r2_pct(&self) -> f64 {
        if self.q1 == 0 {
            0.0
        } else {
            self.r2 as f64 / self.q1 as f64 * 100.0
        }
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Q1 {:>13} | Q2,R1 {:>11} ({:.4}%) | R2 {:>10} ({:.4}%) | {:.0}s",
            self.q1,
            self.q2_r1,
            self.q2_pct(),
            self.r2,
            self.r2_pct(),
            self.duration_secs
        )
    }
}

/// Table III: answer presence and correctness over the matched packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table3(pub AnswerBreakdown);

impl Table3 {
    /// Computes the table from a dataset (matched packets only, as in
    /// the paper).
    pub fn measured(ds: &Dataset) -> Self {
        Self(AnswerBreakdown::collect(ds.matched()))
    }

    /// The paper's published column for `spec`'s year.
    pub fn paper(spec: &YearSpec) -> Self {
        Self(AnswerBreakdown {
            wo: spec.answer_class_total(AnswerClass::None),
            w_corr: spec.answer_class_total(AnswerClass::Correct),
            w_incorr: spec.answer_class_total(AnswerClass::Incorrect)
                + spec.answer_class_total(AnswerClass::Malformed),
        })
    }
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &self.0;
        write!(
            f,
            "R2 {:>10} | W/O {:>10} | W_corr {:>10} | W_incorr {:>8} | Err {:.3}%",
            b.total(),
            b.wo,
            b.w_corr,
            b.w_incorr,
            b.err_pct()
        )
    }
}

/// Tables IV and V share this shape: a breakdown per flag value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlagTable {
    /// Breakdown over packets with the flag clear.
    pub flag0: AnswerBreakdown,
    /// Breakdown over packets with the flag set.
    pub flag1: AnswerBreakdown,
}

impl FlagTable {
    /// Accumulates one packet on the side `flag` selects.
    pub fn add(&mut self, rec: &ClassifiedR2, flag: bool) {
        if flag {
            self.flag1.add(rec);
        } else {
            self.flag0.add(rec);
        }
    }

    /// Merges another flag table in (shard absorption; commutative).
    pub fn absorb(&mut self, other: &Self) {
        self.flag0.absorb(&other.flag0);
        self.flag1.absorb(&other.flag1);
    }

    fn collect<'a>(
        records: impl Iterator<Item = &'a ClassifiedR2>,
        flag: impl Fn(&ClassifiedR2) -> bool,
    ) -> Self {
        let mut out = Self::default();
        for rec in records {
            out.add(rec, flag(rec));
        }
        out
    }

    fn paper_for(spec: &YearSpec, cell_flag: impl Fn(bool, bool) -> bool) -> Self {
        let mut flag0 = AnswerBreakdown::default();
        let mut flag1 = AnswerBreakdown::default();
        for cell in &spec.flag_cells {
            let side = if cell_flag(cell.ra, cell.aa) {
                &mut flag1
            } else {
                &mut flag0
            };
            match cell.answer {
                AnswerClass::None => side.wo += cell.count,
                AnswerClass::Correct => side.w_corr += cell.count,
                AnswerClass::Incorrect | AnswerClass::Malformed => side.w_incorr += cell.count,
            }
        }
        for slice in &spec.incorrect.slices {
            let side = if cell_flag(slice.ra, slice.aa) {
                &mut flag1
            } else {
                &mut flag0
            };
            side.w_incorr += slice.count;
        }
        Self { flag0, flag1 }
    }
}

impl fmt::Display for FlagTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (bit, b) in [(0, &self.flag0), (1, &self.flag1)] {
            writeln!(
                f,
                "  bit={bit}: W/O {:>10} | W_corr {:>10} | W_incorr {:>8} | total {:>10} | Err {:.3}%",
                b.wo,
                b.w_corr,
                b.w_incorr,
                b.total(),
                b.err_pct()
            )?;
        }
        Ok(())
    }
}

/// Table IV: the Recursion Available flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table4(pub FlagTable);

impl Table4 {
    /// Computes the table from a dataset.
    pub fn measured(ds: &Dataset) -> Self {
        Self(FlagTable::collect(ds.matched(), |r| r.ra))
    }

    /// The paper's published table.
    pub fn paper(spec: &YearSpec) -> Self {
        Self(FlagTable::paper_for(spec, |ra, _| ra))
    }
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Table V: the Authoritative Answer flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table5(pub FlagTable);

impl Table5 {
    /// Computes the table from a dataset.
    pub fn measured(ds: &Dataset) -> Self {
        Self(FlagTable::collect(ds.matched(), |r| r.aa))
    }

    /// The paper's published table.
    pub fn paper(spec: &YearSpec) -> Self {
        Self(FlagTable::paper_for(spec, |_, aa| aa))
    }
}

impl fmt::Display for Table5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Table VI: rcode distribution, split by answer presence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table6 {
    /// `(rcode, with-answer count, without-answer count)` in the paper's
    /// column order.
    pub rows: Vec<(Rcode, u64, u64)>,
}

impl Table6 {
    /// Computes the table from a dataset.
    pub fn measured(ds: &Dataset) -> Self {
        let mut w: HashMap<Rcode, u64> = HashMap::new();
        let mut wo: HashMap<Rcode, u64> = HashMap::new();
        for rec in ds.matched() {
            let map = if rec.has_answer() { &mut w } else { &mut wo };
            *map.entry(rec.rcode).or_default() += 1;
        }
        Self::from_counts(&w, &wo)
    }

    /// Assembles the table from per-rcode tallies (shared with the
    /// streaming accumulators).
    pub(crate) fn from_counts(w: &HashMap<Rcode, u64>, wo: &HashMap<Rcode, u64>) -> Self {
        let rows = Rcode::TABLE_VI_ORDER
            .iter()
            .map(|&rc| {
                (
                    rc,
                    w.get(&rc).copied().unwrap_or(0),
                    wo.get(&rc).copied().unwrap_or(0),
                )
            })
            .collect();
        Self { rows }
    }

    /// The paper's published table.
    pub fn paper(spec: &YearSpec) -> Self {
        let mut w: HashMap<Rcode, u64> = HashMap::new();
        let mut wo: HashMap<Rcode, u64> = HashMap::new();
        for cell in &spec.flag_cells {
            let map = match cell.answer {
                AnswerClass::None => &mut wo,
                _ => &mut w,
            };
            *map.entry(cell.rcode).or_default() += cell.count;
        }
        // All incorrect slices respond NoError with an answer.
        let incorrect: u64 = spec.incorrect.slices.iter().map(|s| s.count).sum();
        *w.entry(Rcode::NoError).or_default() += incorrect;
        let rows = Rcode::TABLE_VI_ORDER
            .iter()
            .map(|&rc| {
                (
                    rc,
                    w.get(&rc).copied().unwrap_or(0),
                    wo.get(&rc).copied().unwrap_or(0),
                )
            })
            .collect();
        Self { rows }
    }

    /// Count for one rcode as `(with answer, without answer)`.
    pub fn get(&self, rcode: Rcode) -> (u64, u64) {
        self.rows
            .iter()
            .find(|(rc, _, _)| *rc == rcode)
            .map(|&(_, w, wo)| (w, wo))
            .unwrap_or((0, 0))
    }
}

impl fmt::Display for Table6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (rc, w, wo) in &self.rows {
            writeln!(
                f,
                "  {rc:>9}: W {w:>10} | W/O {wo:>10} | total {:>10}",
                w + wo
            )?;
        }
        Ok(())
    }
}

/// Table VII: the forms incorrect answers take.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Table7 {
    /// IP-form packets and unique addresses.
    pub ip_r2: u64,
    /// Unique wrong addresses.
    pub ip_unique: u64,
    /// URL-form packets.
    pub url_r2: u64,
    /// Unique URL values.
    pub url_unique: u64,
    /// String-form packets.
    pub string_r2: u64,
    /// Unique string values.
    pub string_unique: u64,
    /// Undecodable answers (N/A).
    pub na_r2: u64,
}

impl Table7 {
    /// Computes the table over the matched incorrect packets.
    pub fn measured(ds: &Dataset) -> Self {
        let mut out = Self::default();
        let mut ips = std::collections::HashSet::new();
        let mut urls = std::collections::HashSet::new();
        let mut strings = std::collections::HashSet::new();
        for rec in ds.matched().filter(|r| r.incorrect()) {
            match &rec.answer {
                AnswerKind::Ip(ip) => {
                    out.ip_r2 += 1;
                    ips.insert(*ip);
                }
                AnswerKind::Url(u) => {
                    out.url_r2 += 1;
                    urls.insert(u.clone());
                }
                AnswerKind::Str(s) => {
                    out.string_r2 += 1;
                    strings.insert(s.clone());
                }
                AnswerKind::Malformed => out.na_r2 += 1,
                AnswerKind::None => {}
            }
        }
        out.ip_unique = ips.len() as u64;
        out.url_unique = urls.len() as u64;
        out.string_unique = strings.len() as u64;
        out
    }

    /// The paper's published column.
    pub fn paper(spec: &YearSpec) -> Self {
        let inc = &spec.incorrect;
        let top_mal: u64 = inc
            .top_ips
            .iter()
            .filter(|t| t.category.is_some())
            .map(|t| t.count)
            .sum();
        let top_total: u64 = inc.top_ips.iter().map(|t| t.count).sum();
        let mal_total: u64 = inc.malicious.iter().map(|m| m.r2).sum();
        let mal_unique: u64 = inc.malicious.iter().map(|m| m.unique_ips).sum();
        let top_benign_unique = inc.top_ips.iter().filter(|t| t.category.is_none()).count() as u64;
        Self {
            ip_r2: top_total + inc.tail_ip_r2 + (mal_total - top_mal),
            ip_unique: mal_unique + top_benign_unique + inc.tail_ip_unique,
            url_r2: inc.url_r2,
            url_unique: inc.url_unique,
            string_r2: inc.string_r2,
            string_unique: inc.string_unique,
            na_r2: inc.malformed_r2,
        }
    }

    /// Total incorrect packets.
    pub fn total(&self) -> u64 {
        self.ip_r2 + self.url_r2 + self.string_r2 + self.na_r2
    }
}

impl fmt::Display for Table7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  IP     : {:>8} packets, {:>6} unique",
            self.ip_r2, self.ip_unique
        )?;
        writeln!(
            f,
            "  URL    : {:>8} packets, {:>6} unique",
            self.url_r2, self.url_unique
        )?;
        writeln!(
            f,
            "  string : {:>8} packets, {:>6} unique",
            self.string_r2, self.string_unique
        )?;
        writeln!(f, "  N/A    : {:>8} packets", self.na_r2)?;
        writeln!(f, "  Total  : {:>8} packets", self.total())
    }
}

/// One Table VIII row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table8Row {
    /// The wrong answer address.
    pub ip: Ipv4Addr,
    /// Packets carrying it.
    pub count: u64,
    /// Organization from the geolocation database.
    pub org: String,
    /// Whether the threat database has reports for it (`Y`/`N`/`N/A`).
    pub reports: &'static str,
}

/// Table VIII: the top-10 addresses in incorrect responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table8 {
    /// Rows in descending packet order.
    pub rows: Vec<Table8Row>,
}

impl Table8 {
    /// Computes the top-`k` from a dataset, consulting the geo and
    /// threat databases for org names and report flags.
    pub fn measured(ds: &Dataset, geo: &GeoDb, threat: &ThreatDb, k: usize) -> Self {
        let mut counts: HashMap<Ipv4Addr, u64> = HashMap::new();
        for rec in ds.matched().filter(|r| r.incorrect()) {
            if let AnswerKind::Ip(ip) = rec.answer {
                *counts.entry(ip).or_default() += 1;
            }
        }
        Self::from_counts(counts, geo, threat, k)
    }

    /// Assembles the top-`k` from per-address tallies (shared with the
    /// streaming accumulators).
    pub(crate) fn from_counts(
        counts: HashMap<Ipv4Addr, u64>,
        geo: &GeoDb,
        threat: &ThreatDb,
        k: usize,
    ) -> Self {
        let mut sorted: Vec<(Ipv4Addr, u64)> = counts.into_iter().collect();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let rows = sorted
            .into_iter()
            .take(k)
            .map(|(ip, count)| {
                let record = geo.lookup(ip);
                let reports = if record.is_private() {
                    "N/A"
                } else if threat.is_reported(ip) {
                    "Y"
                } else {
                    "N"
                };
                Table8Row {
                    ip,
                    count,
                    org: record.org,
                    reports,
                }
            })
            .collect();
        Self { rows }
    }

    /// The paper's published top-10.
    pub fn paper(spec: &YearSpec) -> Self {
        let rows = spec
            .incorrect
            .top_ips
            .iter()
            .map(|t| Table8Row {
                ip: t.ip,
                count: t.count,
                org: t.org.to_owned(),
                reports: if t.org == "private network" {
                    "N/A"
                } else if t.category.is_some() {
                    "Y"
                } else {
                    "N"
                },
            })
            .collect();
        Self { rows }
    }

    /// Sum of the listed rows.
    pub fn total(&self) -> u64 {
        self.rows.iter().map(|r| r.count).sum()
    }
}

impl fmt::Display for Table8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.rows {
            writeln!(
                f,
                "  {:<16} {:>8}  {:<24} {}",
                row.ip.to_string(),
                row.count,
                row.org,
                row.reports
            )?;
        }
        writeln!(f, "  {:<16} {:>8}", "Total", self.total())
    }
}

/// One Table IX row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table9Row {
    /// The category.
    pub category: Category,
    /// Unique reported addresses observed.
    pub unique_ips: u64,
    /// Packets carrying those addresses.
    pub r2: u64,
}

/// Table IX: malicious addresses by report category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table9 {
    /// Rows in the paper's category order.
    pub rows: Vec<Table9Row>,
}

impl Table9 {
    /// Computes the table by validating every wrong IP answer against
    /// the threat database (the Cymon step of §IV-C2).
    pub fn measured(ds: &Dataset, threat: &ThreatDb) -> Self {
        let mut counts: HashMap<Ipv4Addr, u64> = HashMap::new();
        for rec in ds.matched().filter(|r| r.incorrect()) {
            if let AnswerKind::Ip(ip) = rec.answer {
                *counts.entry(ip).or_default() += 1;
            }
        }
        Self::from_ip_counts(counts.into_iter(), threat)
    }

    /// Assembles the table from per-address packet tallies (shared with
    /// the streaming accumulators): each address contributes its count
    /// to its dominant category.
    pub(crate) fn from_ip_counts(
        counts: impl Iterator<Item = (Ipv4Addr, u64)>,
        threat: &ThreatDb,
    ) -> Self {
        let mut unique: HashMap<Category, std::collections::HashSet<Ipv4Addr>> = HashMap::new();
        let mut packets: HashMap<Category, u64> = HashMap::new();
        for (ip, n) in counts {
            if let Some(category) = threat.dominant_category(ip) {
                unique.entry(category).or_default().insert(ip);
                *packets.entry(category).or_default() += n;
            }
        }
        let rows = Category::ALL
            .iter()
            .map(|&category| Table9Row {
                category,
                unique_ips: unique.get(&category).map_or(0, |s| s.len() as u64),
                r2: packets.get(&category).copied().unwrap_or(0),
            })
            .collect();
        Self { rows }
    }

    /// The paper's published table.
    pub fn paper(spec: &YearSpec) -> Self {
        let rows = spec
            .incorrect
            .malicious
            .iter()
            .map(|m| Table9Row {
                category: m.category,
                unique_ips: m.unique_ips,
                r2: m.r2,
            })
            .collect();
        Self { rows }
    }

    /// Total unique malicious addresses.
    pub(crate) fn total_unique(&self) -> u64 {
        self.rows.iter().map(|r| r.unique_ips).sum()
    }

    /// Total malicious packets.
    pub fn total_r2(&self) -> u64 {
        self.rows.iter().map(|r| r.r2).sum()
    }
}

impl fmt::Display for Table9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (tu, tr) = (self.total_unique().max(1), self.total_r2().max(1));
        for row in &self.rows {
            writeln!(
                f,
                "  {:<17} #IP {:>5} ({:>4.1}%) | #R2 {:>7} ({:>4.1}%)",
                row.category.to_string(),
                row.unique_ips,
                row.unique_ips as f64 / tu as f64 * 100.0,
                row.r2,
                row.r2 as f64 / tr as f64 * 100.0
            )?;
        }
        writeln!(
            f,
            "  Total             #IP {:>5}          | #R2 {:>7}",
            self.total_unique(),
            self.total_r2()
        )
    }
}

/// Table X: RA/AA flags on malicious responses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Table10 {
    /// Malicious packets with RA=0 / RA=1.
    pub ra: [u64; 2],
    /// Malicious packets with AA=0 / AA=1.
    pub aa: [u64; 2],
    /// Malicious packets with a nonzero rcode (the paper found none).
    pub nonzero_rcode: u64,
}

impl Table10 {
    /// Computes the table over threat-reported answers.
    pub fn measured(ds: &Dataset, threat: &ThreatDb) -> Self {
        let mut out = Self::default();
        for rec in ds.matched().filter(|r| r.incorrect()) {
            if let AnswerKind::Ip(ip) = rec.answer {
                if threat.is_reported(ip) {
                    out.ra[usize::from(rec.ra)] += 1;
                    out.aa[usize::from(rec.aa)] += 1;
                    if rec.rcode != Rcode::NoError {
                        out.nonzero_rcode += 1;
                    }
                }
            }
        }
        out
    }

    /// The paper's published table (2018).
    pub fn paper(spec: &YearSpec) -> Self {
        let mut out = Self::default();
        for &(ra, aa, count) in &spec.incorrect.malicious_flags {
            out.ra[usize::from(ra)] += count;
            out.aa[usize::from(aa)] += count;
        }
        out
    }

    /// Total malicious packets.
    pub fn total(&self) -> u64 {
        self.ra[0] + self.ra[1]
    }
}

impl fmt::Display for Table10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.total().max(1) as f64;
        writeln!(
            f,
            "  RA0 {:>7} ({:.1}%) | RA1 {:>7} ({:.1}%)",
            self.ra[0],
            self.ra[0] as f64 / t * 100.0,
            self.ra[1],
            self.ra[1] as f64 / t * 100.0
        )?;
        writeln!(
            f,
            "  AA0 {:>7} ({:.1}%) | AA1 {:>7} ({:.1}%)",
            self.aa[0],
            self.aa[0] as f64 / t * 100.0,
            self.aa[1],
            self.aa[1] as f64 / t * 100.0
        )?;
        writeln!(f, "  nonzero rcode: {}", self.nonzero_rcode)
    }
}

/// §IV-C2: country distribution of malicious resolvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountryTable {
    /// `(country code, malicious R2 count)`, descending.
    pub rows: Vec<(String, u64)>,
}

impl CountryTable {
    /// Computes the distribution by geolocating the *resolver* address
    /// of every threat-reported response.
    pub fn measured(ds: &Dataset, geo: &GeoDb, threat: &ThreatDb) -> Self {
        Self::from_resolver_tallies(reported_resolver_tallies(ds, threat), geo)
    }

    /// Assembles the distribution from `(resolver, count)` tallies of
    /// threat-reported responses (shared with the streaming
    /// accumulators; a resolver may appear more than once).
    pub(crate) fn from_resolver_tallies(
        tallies: impl Iterator<Item = (Ipv4Addr, u64)>,
        geo: &GeoDb,
    ) -> Self {
        let mut counts: HashMap<String, u64> = HashMap::new();
        for (resolver, n) in tallies {
            let record = geo.lookup(resolver);
            *counts.entry(record.country).or_default() += n;
        }
        let mut rows: Vec<(String, u64)> = counts.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Self { rows }
    }

    /// The paper's published distribution.
    pub fn paper(spec: &YearSpec) -> Self {
        Self {
            rows: spec
                .countries
                .iter()
                .map(|&(code, n)| (code.to_owned(), n))
                .collect(),
        }
    }

    /// The count for one country.
    pub fn get(&self, code: &str) -> u64 {
        self.rows
            .iter()
            .find(|(c, _)| c == code)
            .map(|&(_, n)| n)
            .unwrap_or(0)
    }

    /// Total across countries.
    pub fn total(&self) -> u64 {
        self.rows.iter().map(|r| r.1).sum()
    }
}

impl fmt::Display for CountryTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (code, count) in &self.rows {
            write!(f, " {code}({count})")?;
        }
        Ok(())
    }
}

/// `(resolver, 1)` tallies over a dataset's threat-reported responses —
/// the batch-side source for [`CountryTable`] and [`AsnTable`].
fn reported_resolver_tallies<'a>(
    ds: &'a Dataset,
    threat: &'a ThreatDb,
) -> impl Iterator<Item = (Ipv4Addr, u64)> + 'a {
    ds.matched()
        .filter(|r| r.incorrect())
        .filter_map(move |rec| match rec.answer {
            AnswerKind::Ip(ip) if threat.is_reported(ip) => Some((rec.resolver, 1)),
            _ => None,
        })
}

/// §IV-B4: the empty-question packets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmptyQuestionReport {
    /// Total packets without a question section.
    pub total: u64,
    /// Of those, packets with an answer section.
    pub with_answer: u64,
    /// Answers that are private-network addresses.
    pub(crate) private_answers: u64,
    /// Packets with RA=1.
    pub ra1: u64,
    /// Packets with AA=1.
    pub aa1: u64,
    /// rcode counts `(NoError, FormErr, ServFail, NXDomain, Refused)`.
    pub rcodes: [u64; 5],
}

impl EmptyQuestionReport {
    /// Computes the report from a dataset.
    pub fn measured(ds: &Dataset) -> Self {
        let mut out = Self::default();
        for rec in ds.empty_question() {
            out.add(rec);
        }
        out
    }

    /// Accumulates one empty-question packet.
    pub fn add(&mut self, rec: &ClassifiedR2) {
        self.total += 1;
        if rec.has_answer() {
            self.with_answer += 1;
            if let AnswerKind::Ip(ip) = rec.answer {
                if ip.is_private() {
                    self.private_answers += 1;
                }
            }
        }
        self.ra1 += u64::from(rec.ra);
        self.aa1 += u64::from(rec.aa);
        match rec.rcode {
            Rcode::NoError => self.rcodes[0] += 1,
            Rcode::FormErr => self.rcodes[1] += 1,
            Rcode::ServFail => self.rcodes[2] += 1,
            Rcode::NXDomain => self.rcodes[3] += 1,
            Rcode::Refused => self.rcodes[4] += 1,
            _ => {}
        }
    }

    /// Merges another report in (shard absorption; commutative).
    pub fn absorb(&mut self, other: &Self) {
        self.total += other.total;
        self.with_answer += other.with_answer;
        self.private_answers += other.private_answers;
        self.ra1 += other.ra1;
        self.aa1 += other.aa1;
        for (slot, n) in self.rcodes.iter_mut().zip(other.rcodes) {
            *slot += n;
        }
    }

    /// The paper's published breakdown (2018).
    pub fn paper(spec: &YearSpec) -> Self {
        let mut out = Self::default();
        for cell in &spec.empty_question {
            out.total += cell.count;
            if let Some(answer) = &cell.answer {
                out.with_answer += cell.count;
                if let orscope_resolver::profile::AnswerData::FixedIp(ip) = answer {
                    if ip.is_private() {
                        out.private_answers += cell.count;
                    }
                }
            }
            out.ra1 += u64::from(cell.ra) * cell.count;
            out.aa1 += u64::from(cell.aa) * cell.count;
            match cell.rcode {
                Rcode::NoError => out.rcodes[0] += cell.count,
                Rcode::FormErr => out.rcodes[1] += cell.count,
                Rcode::ServFail => out.rcodes[2] += cell.count,
                Rcode::NXDomain => out.rcodes[3] += cell.count,
                Rcode::Refused => out.rcodes[4] += cell.count,
                _ => {}
            }
        }
        out
    }
}

impl fmt::Display for EmptyQuestionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  total {} | with answer {} (private {}) | RA1 {} | AA1 {}",
            self.total, self.with_answer, self.private_answers, self.ra1, self.aa1
        )?;
        writeln!(
            f,
            "  rcodes: NoError {} FormErr {} ServFail {} NXDomain {} Refused {}",
            self.rcodes[0], self.rcodes[1], self.rcodes[2], self.rcodes[3], self.rcodes[4]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orscope_resolver::paper::Year;

    fn spec(year: Year) -> YearSpec {
        YearSpec::get(year)
    }

    #[test]
    fn paper_table3_matches_published() {
        let t = Table3::paper(&spec(Year::Y2018));
        assert_eq!(t.0.wo, 3_642_109);
        assert_eq!(t.0.w_corr, 2_752_562);
        assert_eq!(t.0.w_incorr, 111_093);
        assert!((t.0.err_pct() - 3.879).abs() < 0.01);
        let t = Table3::paper(&spec(Year::Y2013));
        assert_eq!(t.0.w_incorr, 121_293);
        assert!((t.0.err_pct() - 1.029).abs() < 0.01);
    }

    #[test]
    fn paper_table4_matches_published() {
        let t = Table4::paper(&spec(Year::Y2018));
        assert_eq!(t.0.flag0.wo, 3_434_415);
        assert_eq!(t.0.flag0.w_corr, 3_994);
        assert_eq!(t.0.flag0.w_incorr, 65_172);
        assert!((t.0.flag0.err_pct() - 94.225).abs() < 0.01);
        assert_eq!(t.0.flag1.total(), 3_002_183);
        assert!((t.0.flag1.err_pct() - 1.643).abs() < 0.01);
    }

    #[test]
    fn paper_table5_matches_published() {
        let t = Table5::paper(&spec(Year::Y2013));
        assert_eq!(t.0.flag1.total(), 381_124);
        // The paper prints 20.539% for this row, which is
        // W_incorr/Total (78,279/381,124) — not its own defined formula
        // Err = W_incorr/W (the 2018 row *does* use W). We use the
        // defined formula: 78,279/231,368 = 33.83%.
        assert_eq!(t.0.flag1.w_incorr, 78_279);
        assert!((t.0.flag1.err_pct() - 33.833).abs() < 0.01);
        assert!(
            (t.0.flag1.w_incorr as f64 / t.0.flag1.total() as f64 * 100.0 - 20.539).abs() < 0.01
        );
        let t = Table5::paper(&spec(Year::Y2018));
        assert_eq!(t.0.flag1.total(), 249_193);
        assert!((t.0.flag1.err_pct() - 78.938).abs() < 0.05);
    }

    #[test]
    fn paper_table6_matches_published() {
        let t = Table6::paper(&spec(Year::Y2018));
        assert_eq!(t.get(Rcode::NoError), (2_860_940, 377_803));
        assert_eq!(t.get(Rcode::ServFail), (2_489, 200_320));
        assert_eq!(t.get(Rcode::Refused), (193, 2_934_283));
        assert_eq!(t.get(Rcode::NotAuth), (0, 80_032));
    }

    #[test]
    fn paper_table7_matches_published() {
        let t = Table7::paper(&spec(Year::Y2018));
        assert_eq!(t.ip_r2, 110_790);
        assert_eq!(t.ip_unique, 15_022);
        assert_eq!(t.url_r2, 231);
        assert_eq!(t.string_r2, 72);
        assert_eq!(t.total(), 111_093);
        let t = Table7::paper(&spec(Year::Y2013));
        assert_eq!(t.ip_r2, 112_270);
        assert_eq!(t.ip_unique, 28_443);
        assert_eq!(t.na_r2, 8_764);
        assert_eq!(t.total(), 121_293);
    }

    #[test]
    fn paper_table8_matches_published() {
        let t = Table8::paper(&spec(Year::Y2018));
        assert_eq!(t.rows.len(), 10);
        assert_eq!(t.total(), 50_669);
        assert_eq!(t.rows[0].ip, Ipv4Addr::new(216, 194, 64, 193));
        assert_eq!(t.rows[0].reports, "N");
        assert_eq!(t.rows[1].reports, "Y");
        assert_eq!(t.rows[4].reports, "N/A");
        // Descending order.
        for w in t.rows.windows(2) {
            assert!(w[0].count >= w[1].count);
        }
    }

    #[test]
    fn paper_table9_matches_published() {
        let t = Table9::paper(&spec(Year::Y2018));
        assert_eq!(t.total_unique(), 335);
        assert_eq!(t.total_r2(), 26_926);
        assert_eq!(t.rows[0].category, Category::Malware);
        assert_eq!(t.rows[0].r2, 23_189);
    }

    #[test]
    fn paper_table10_matches_published() {
        let t = Table10::paper(&spec(Year::Y2018));
        assert_eq!(t.ra, [19_534, 7_392]);
        assert_eq!(t.aa, [7_472, 19_454]);
        assert_eq!(t.total(), 26_926);
        assert_eq!(t.nonzero_rcode, 0);
    }

    #[test]
    fn paper_countries_match_published() {
        let t = CountryTable::paper(&spec(Year::Y2018));
        assert_eq!(t.get("US"), 21_819);
        assert_eq!(t.get("IN"), 3_596);
        assert_eq!(t.total(), 26_926);
        let t13 = CountryTable::paper(&spec(Year::Y2013));
        assert_eq!(t13.get("US"), 12_616);
        assert_eq!(t13.rows.len(), 36);
    }

    #[test]
    fn paper_empty_question_matches_published() {
        let r = EmptyQuestionReport::paper(&spec(Year::Y2018));
        assert_eq!(r.total, 494);
        assert_eq!(r.with_answer, 19);
        assert_eq!(r.private_answers, 14);
        assert_eq!(r.ra1, 184);
        assert_eq!(r.aa1, 2);
        assert_eq!(r.rcodes, [26, 1, 302, 2, 163]);
    }

    #[test]
    fn displays_render() {
        let spec = spec(Year::Y2018);
        assert!(!Table2::paper(&spec).to_string().is_empty());
        assert!(Table3::paper(&spec).to_string().contains("Err"));
        assert!(Table4::paper(&spec).to_string().contains("bit=0"));
        assert!(Table6::paper(&spec).to_string().contains("Refused"));
        assert!(Table7::paper(&spec).to_string().contains("unique"));
        assert!(Table8::paper(&spec).to_string().contains("Tera-byte"));
        assert!(Table9::paper(&spec).to_string().contains("Malware"));
        assert!(Table10::paper(&spec).to_string().contains("RA0"));
        assert!(CountryTable::paper(&spec).to_string().contains("US(21819)"));
        assert!(EmptyQuestionReport::paper(&spec)
            .to_string()
            .contains("494"));
    }

    #[test]
    fn table2_percentages() {
        let t = Table2::paper(&spec(Year::Y2018));
        assert!((t.q2_pct() - 0.3525).abs() < 0.001);
        assert!((t.r2_pct() - 0.1757).abs() < 0.001);
    }
}

/// §IV-C2 companion: autonomous-system distribution of malicious
/// resolvers (the paper looks up "geolocation and the autonomous system
/// (AS) using ip2location").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsnTable {
    /// `(asn, org, malicious R2 count)`, descending by count.
    pub rows: Vec<(u32, String, u64)>,
}

impl AsnTable {
    /// Computes the distribution by looking up the resolver address of
    /// every threat-reported response.
    pub fn measured(ds: &Dataset, geo: &GeoDb, threat: &ThreatDb) -> Self {
        Self::from_resolver_tallies(reported_resolver_tallies(ds, threat), geo)
    }

    /// Assembles the distribution from `(resolver, count)` tallies of
    /// threat-reported responses (shared with the streaming
    /// accumulators). Each AS takes its org name from its numerically
    /// lowest resolver, so the rows do not depend on record order.
    pub(crate) fn from_resolver_tallies(
        tallies: impl Iterator<Item = (Ipv4Addr, u64)>,
        geo: &GeoDb,
    ) -> Self {
        let mut counts: HashMap<u32, (Ipv4Addr, u64)> = HashMap::new();
        for (resolver, n) in tallies {
            let record = geo.lookup(resolver);
            let entry = counts.entry(record.asn).or_insert((resolver, 0));
            entry.0 = entry.0.min(resolver);
            entry.1 += n;
        }
        let mut rows: Vec<(u32, String, u64)> = counts
            .into_iter()
            .map(|(asn, (resolver, n))| (asn, geo.lookup(resolver).org, n))
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        Self { rows }
    }

    /// Total malicious responses attributed to an AS.
    pub fn total(&self) -> u64 {
        self.rows.iter().map(|r| r.2).sum()
    }
}

impl fmt::Display for AsnTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (asn, org, count) in self.rows.iter().take(10) {
            writeln!(f, "  AS{asn:<6} {org:<28} {count:>8}")?;
        }
        Ok(())
    }
}

/// §II-C quantified: the bandwidth-amplification exposure of the
/// responding population. For every R2 the amplification factor is the
/// response payload over the triggering query's size; resolvers with a
/// factor above 1 amplify a spoofed-source attacker.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AmplificationTable {
    /// Responders measured.
    pub responders: u64,
    /// Responders whose response exceeded the query (factor > 1).
    pub amplifiers: u64,
    /// Mean amplification factor.
    pub mean: f64,
    /// Median factor.
    pub p50: f64,
    /// 95th-percentile factor.
    pub(crate) p95: f64,
    /// Maximum factor observed.
    pub max: f64,
}

impl AmplificationTable {
    /// Computes amplification factors from the classified records.
    pub fn measured(ds: &Dataset) -> Self {
        let mut tally = AmplificationTally::default();
        for rec in &ds.records {
            tally.add(rec);
        }
        Self::from_tally(&tally)
    }

    /// Reduces a tally (shared with the streaming accumulators) to what
    /// sorting its factors and summing them would give, to the bit: the
    /// sum runs in ascending order of factor, each one added as many
    /// times as it occurred, so the rendered output does not depend on
    /// the order the factors accumulated in.
    pub(crate) fn from_tally(tally: &AmplificationTally) -> Self {
        let Some((max, _)) = tally.factors().next_back() else {
            return Self::default();
        };
        let n: u64 = tally.counts.values().sum();
        let quantile = |q: f64| {
            let idx = ((n - 1) as f64 * q).round() as u64;
            let mut upto = 0;
            tally
                .factors()
                .find(|&(_, count)| {
                    upto += count;
                    idx < upto
                })
                .map_or(max, |(factor, _)| factor)
        };
        let mut sum = 0.0;
        for (factor, count) in tally.factors() {
            for _ in 0..count {
                sum += factor;
            }
        }
        Self {
            responders: n,
            amplifiers: tally
                .factors()
                .filter(|&(factor, _)| factor > 1.0)
                .map(|(_, count)| count)
                .sum(),
            mean: sum / n as f64,
            p50: quantile(0.5),
            p95: quantile(0.95),
            max,
        }
    }

    /// The sort-then-sum reduction [`AmplificationTable::from_tally`]
    /// must reproduce field for field.
    #[cfg(test)]
    pub(crate) fn from_factors(mut factors: Vec<f64>) -> Self {
        if factors.is_empty() {
            return Self::default();
        }
        factors.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = factors.len();
        let quantile = |q: f64| factors[((n - 1) as f64 * q).round() as usize];
        Self {
            responders: n as u64,
            amplifiers: factors.iter().filter(|&&f| f > 1.0).count() as u64,
            mean: factors.iter().sum::<f64>() / n as f64,
            p50: quantile(0.5),
            p95: quantile(0.95),
            max: factors[n - 1],
        }
    }
}

/// The multiset of amplification factors, as a count per distinct
/// factor. A factor is a ratio of two integers below 2^16 (payload and
/// query bytes), so a scan's responses share a handful of values, and
/// a non-negative finite `f64` orders as its bits: the map iterates
/// factors in ascending order.
#[derive(Debug, Clone, Default)]
pub(crate) struct AmplificationTally {
    /// Factor bits to occurrences.
    counts: BTreeMap<u64, u64>,
}

impl AmplificationTally {
    /// Counts one record's factor.
    pub(crate) fn add(&mut self, rec: &ClassifiedR2) {
        *self
            .counts
            .entry(amplification_factor(rec).to_bits())
            .or_default() += 1;
    }

    /// Adds another tally's counts.
    pub(crate) fn absorb(&mut self, other: AmplificationTally) {
        for (bits, count) in other.counts {
            *self.counts.entry(bits).or_default() += count;
        }
    }

    /// `(factor, occurrences)`, ascending.
    fn factors(&self) -> impl DoubleEndedIterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .map(|(&bits, &count)| (f64::from_bits(bits), count))
    }
}

/// One record's bandwidth-amplification factor: response payload over
/// the triggering query's size (header (12) + qname + qtype/qclass).
pub(crate) fn amplification_factor(rec: &ClassifiedR2) -> f64 {
    let query_len = (12 + rec.qname.wire_len() + 4) as f64;
    rec.payload_len as f64 / query_len
}

impl fmt::Display for AmplificationTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {} responders, {} amplify (>1x): mean {:.2}x, p50 {:.2}x, p95 {:.2}x, max {:.2}x",
            self.responders, self.amplifiers, self.mean, self.p50, self.p95, self.max
        )
    }
}

#[cfg(test)]
mod amplification_tests {
    use super::*;
    use orscope_authns::scheme::{ProbeLabel, CLUSTER_CAPACITY};
    use orscope_netsim::{Payload, SimTime};
    use orscope_prober::R2Capture;
    use orscope_resolver::paper::Year;

    #[test]
    fn factors_from_raw_payloads() {
        let zone: orscope_dns_wire::Name = "ucfsealresearch.net".parse().unwrap();
        let mk = |seq: u64, payload_len: usize| R2Capture {
            target: std::net::Ipv4Addr::new(9, 9, 9, 9),
            label: Some(ProbeLabel::new(0, seq)),
            qname: ProbeLabel::new(0, seq).qname(&zone),
            at: SimTime::ZERO,
            sent_at: SimTime::ZERO,
            payload: Payload::from(vec![0u8; payload_len]),
        };
        // Query size for these names: 12 + 35 (qname wire) + 4 = 51.
        let ds = Dataset::from_captures(
            Year::Y2018,
            1.0,
            3,
            0,
            0,
            1.0,
            &[mk(1, 51), mk(2, 102), mk(3, 25)],
            orscope_prober::ProbeStats::default(),
        );
        let t = AmplificationTable::measured(&ds);
        assert_eq!(t.responders, 3);
        assert_eq!(t.amplifiers, 1);
        assert!((t.max - 2.0).abs() < 1e-9, "{}", t.max);
        assert!((t.p50 - 1.0).abs() < 1e-9);
        assert!(t.to_string().contains("amplify"));
    }

    /// Random multisets of `(payload length, qname)` — drawn from a
    /// small pool, so factors repeat, and from anywhere — split over 1-4
    /// analyzers absorbed in every order, and the batch path over all of
    /// them, reduce to what sorting the factors and summing them gives,
    /// field for field and the mean to the bit.
    #[test]
    fn tally_matches_sorting_the_factors() {
        let zone: orscope_dns_wire::Name = "ucfsealresearch.net".parse().unwrap();
        orscope_check::cases(64, |rng| {
            let pool: Vec<(usize, u64)> =
                rng.vec(1..6, |rng| (rng.range(12..2_000), rng.range(0..1 << 20)));
            let parts = rng.range(1..5);
            let mut analyzers = vec![crate::StreamingAnalyzer::new(zone.clone(), false); parts];
            let (mut captures, mut factors) = (Vec::new(), Vec::new());
            for _ in 0..rng.range(0..300) {
                let (payload_len, seq) = if rng.chance(70) {
                    *rng.choice(&pool)
                } else {
                    (rng.range(12..65_535), rng.range(0..u64::MAX))
                };
                // Qnames of every wire length the prober could send.
                let qname = match rng.range(0..3) {
                    0 => ProbeLabel::new(0, seq % CLUSTER_CAPACITY).qname(&zone),
                    1 => zone.clone(),
                    _ => orscope_dns_wire::Name::from_labels(
                        (0..seq % 4).map(|_| vec![b'x'; 1 + (seq % 63) as usize]),
                    )
                    .unwrap(),
                };
                factors.push(payload_len as f64 / (16 + qname.wire_len()) as f64);
                let capture = R2Capture {
                    target: std::net::Ipv4Addr::new(9, 9, 9, 9),
                    label: None,
                    qname,
                    at: SimTime::ZERO,
                    sent_at: SimTime::ZERO,
                    payload: Payload::from(vec![0u8; payload_len]),
                };
                crate::RecordSink::on_r2(&mut analyzers[rng.range(0..parts)], &capture);
                captures.push(capture);
            }
            let want = AmplificationTable::from_factors(factors);
            let same = |got: AmplificationTable, how: &str| {
                assert_eq!(got, want, "{how}");
                assert_eq!(got.mean.to_bits(), want.mean.to_bits(), "{how}");
            };
            for order in crate::flows::tests::orders(parts) {
                let mut merged = analyzers[order[0]].clone();
                for &next in &order[1..] {
                    merged.absorb(analyzers[next].clone());
                }
                same(merged.amplification(), &format!("order {order:?}"));
            }
            let ds = Dataset::from_captures(
                Year::Y2018,
                1.0,
                0,
                0,
                0,
                1.0,
                &captures,
                orscope_prober::ProbeStats::default(),
            );
            same(AmplificationTable::measured(&ds), "batch");
        });
    }

    #[test]
    fn empty_dataset_is_zeroed() {
        let ds = Dataset::from_captures(
            Year::Y2018,
            1.0,
            0,
            0,
            0,
            0.0,
            &[],
            orscope_prober::ProbeStats::default(),
        );
        assert_eq!(
            AmplificationTable::measured(&ds),
            AmplificationTable::default()
        );
    }
}
