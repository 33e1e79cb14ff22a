//! The two lookup databases: geolocation ([`GeoDb`]) and threat
//! reputation ([`ThreatDb`]).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use crate::category::Category;
use crate::record::GeoRecord;
use crate::report::Report;

/// Private / special-use blocks recognized intrinsically, as `(first,
/// last)` raw ranges: RFC 1918, loopback, link-local, CGN and 0/8.
const PRIVATE_RANGES: [(u32, u32); 7] = [
    (0x0000_0000, 0x00FF_FFFF), // 0.0.0.0/8
    (0x0A00_0000, 0x0AFF_FFFF), // 10.0.0.0/8
    (0x6440_0000, 0x647F_FFFF), // 100.64.0.0/10
    (0x7F00_0000, 0x7FFF_FFFF), // 127.0.0.0/8
    (0xA9FE_0000, 0xA9FE_FFFF), // 169.254.0.0/16
    (0xAC10_0000, 0xAC1F_FFFF), // 172.16.0.0/12
    (0xC0A8_0000, 0xC0A8_FFFF), // 192.168.0.0/16
];

/// A range+exact lookup table from IPv4 address to [`GeoRecord`].
///
/// Lookup precedence: exact `/32` entry, then the narrowest covering
/// range entry, then the intrinsic private-network check, then
/// [`GeoRecord::unknown`].
///
/// # Example
///
/// ```
/// use orscope_lookup::geo::{GeoDb, GeoRecord};
/// use std::net::Ipv4Addr;
///
/// let mut db = GeoDb::new();
/// db.insert_exact(
///     Ipv4Addr::new(208, 91, 197, 91),
///     GeoRecord::new("VG", 40034, "Confluence Network Inc"),
/// );
/// assert_eq!(db.lookup(Ipv4Addr::new(208, 91, 197, 91)).country, "VG");
/// assert!(db.lookup(Ipv4Addr::new(192, 168, 1, 1)).is_private());
/// assert_eq!(db.lookup(Ipv4Addr::new(203, 0, 113, 80)).org, "unknown");
/// ```
#[derive(Debug, Clone, Default)]
pub struct GeoDb {
    /// `(address, record)`, in insertion order until [`GeoDb::finalize`]
    /// sorts it by address and keeps the last record of each address.
    exact: Vec<(u32, GeoRecord)>,
    /// `(first, last, record)` sorted by `first`; ranges may nest but the
    /// narrowest match wins.
    ranges: Vec<(u32, u32, GeoRecord)>,
    /// Whether both lists are sorted, `exact` without repeats.
    sorted: bool,
}

impl GeoDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an exact (`/32`) entry, replacing any earlier one for
    /// `addr`.
    pub fn insert_exact(&mut self, addr: Ipv4Addr, record: GeoRecord) {
        self.exact.push((u32::from(addr), record));
        self.sorted = false;
    }

    /// Registers an inclusive range entry.
    ///
    /// # Panics
    ///
    /// Panics if `first > last`.
    pub fn insert_range(&mut self, first: Ipv4Addr, last: Ipv4Addr, record: GeoRecord) {
        let (f, l) = (u32::from(first), u32::from(last));
        assert!(f <= l, "inverted range {first}..{last}");
        self.ranges.push((f, l, record));
        self.sorted = false;
    }

    /// The exact entry for `a`: a binary search once the table is
    /// finalized, the latest insert before.
    fn exact(&self, a: u32) -> Option<&GeoRecord> {
        let at = if self.sorted {
            self.exact.binary_search_by_key(&a, |&(addr, _)| addr).ok()
        } else {
            self.exact.iter().rposition(|&(addr, _)| addr == a)
        };
        at.map(|at| &self.exact[at].1)
    }

    /// Looks up `addr`; never fails (see type-level docs for precedence).
    pub fn lookup(&self, addr: Ipv4Addr) -> GeoRecord {
        let a = u32::from(addr);
        if let Some(record) = self.exact(a) {
            return record.clone();
        }
        // Narrowest covering range wins.
        let mut best: Option<&(u32, u32, GeoRecord)> = None;
        for entry in &self.ranges {
            if entry.0 <= a && a <= entry.1 {
                let width = entry.1 - entry.0;
                if best.is_none_or(|b| width < b.1 - b.0) {
                    best = Some(entry);
                }
            }
        }
        if let Some((_, _, record)) = best {
            return record.clone();
        }
        if PRIVATE_RANGES.iter().any(|&(f, l)| f <= a && a <= l) {
            return GeoRecord::private_network();
        }
        GeoRecord::unknown()
    }

    /// Number of range entries.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Sorts both tables by address, keeps the last exact entry of each
    /// address and trims the exact table to its length: call it once
    /// every entry is in. Lookups before it answer the same, slower.
    pub fn finalize(&mut self) {
        if self.sorted {
            return;
        }
        // Reversed first, so that the stable sort puts each address's
        // latest entry first among its own and the dedup keeps it.
        self.exact.reverse();
        self.exact.sort_by_key(|&(addr, _)| addr);
        self.exact.dedup_by_key(|&mut (addr, _)| addr);
        self.exact.shrink_to_fit();
        self.ranges.sort_by_key(|&(f, l, _)| (f, l));
        self.sorted = true;
    }
}

/// A queryable store of per-IP threat reports, mimicking the Cymon API.
///
/// # Example
///
/// ```
/// use orscope_lookup::threatintel::{Category, Report, ThreatDb};
/// use std::net::Ipv4Addr;
///
/// let mut db = ThreatDb::new();
/// let ip = Ipv4Addr::new(208, 91, 197, 91);
/// db.add_report(ip, Report::new(Category::Malware));
/// db.add_report(ip, Report::new(Category::Malware));
/// db.add_report(ip, Report::new(Category::Phishing));
/// assert_eq!(db.dominant_category(ip), Some(Category::Malware));
/// assert!(db.is_reported(ip));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThreatDb {
    reports: HashMap<Ipv4Addr, Vec<Report>>,
}

impl ThreatDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a report for `ip`.
    pub fn add_report(&mut self, ip: Ipv4Addr, report: Report) {
        self.reports.entry(ip).or_default().push(report);
    }

    /// Seeds `ip` with `count` reports of `category` (bulk loading).
    pub fn seed(&mut self, ip: Ipv4Addr, category: Category, count: usize) {
        let entry = self.reports.entry(ip).or_default();
        for day in 0..count {
            entry.push(Report::new(category).on_day(day as u32));
        }
    }

    /// All reports for `ip` (empty slice if never reported).
    pub fn lookup(&self, ip: Ipv4Addr) -> &[Report] {
        self.reports.get(&ip).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `ip` has at least one report.
    pub fn is_reported(&self, ip: Ipv4Addr) -> bool {
        self.reports.contains_key(&ip)
    }

    /// The most frequently reported category for `ip`, the paper's rule
    /// for multi-category addresses (Table IX). Ties break toward the
    /// earlier category in Table IX order (Malware first), matching the
    /// severity-leaning reading of the paper.
    pub fn dominant_category(&self, ip: Ipv4Addr) -> Option<Category> {
        let reports = self.reports.get(&ip)?;
        let mut counts: HashMap<Category, usize> = HashMap::new();
        for r in reports {
            *counts.entry(r.category).or_default() += 1;
        }
        Category::ALL
            .iter()
            .copied()
            .filter_map(|c| counts.get(&c).map(|&n| (c, n)))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(c, _)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ThreatDb {
        /// Iterates `(ip, dominant category)` over all reported addresses.
        fn iter_dominant(&self) -> impl Iterator<Item = (Ipv4Addr, Category)> + '_ {
            self.reports
                .keys()
                .map(move |&ip| (ip, self.dominant_category(ip).expect("reported ip")))
        }

        /// Number of distinct reported addresses.
        fn reported_address_count(&self) -> usize {
            self.reports.len()
        }
    }

    impl GeoDb {
        /// Number of exact entries.
        fn exact_count(&self) -> usize {
            self.exact.len()
        }
    }

    #[test]
    fn the_exact_table_answers_as_the_map_it_replaced() {
        // Inserts over a few addresses (so most repeat, the last insert
        // winning), beside ranges that cover some of them, read back
        // before and after `finalize` against a hash map of the exact
        // entries and an exact-free twin for the rest.
        orscope_check::cases(100, |rng| {
            let mut db = GeoDb::new();
            let mut ranges_only = GeoDb::new();
            let mut map: HashMap<Ipv4Addr, GeoRecord> = HashMap::new();
            let addr = |rng: &mut orscope_check::Rng| {
                Ipv4Addr::from(rng.range(0..64u32).wrapping_mul(0x0301_0507))
            };
            for i in 0..rng.range(0..6u32) {
                let first = u32::from(addr(rng));
                let last = first.saturating_add(rng.range(0..0x0400_0000u32));
                let record = GeoRecord::new("US", i, "range");
                db.insert_range(first.into(), last.into(), record.clone());
                ranges_only.insert_range(first.into(), last.into(), record);
            }
            for i in 0..rng.range(0..80u32) {
                let ip = addr(rng);
                let record = GeoRecord::new("VG", i, format!("org {i}"));
                db.insert_exact(ip, record.clone());
                map.insert(ip, record);
            }
            let probes: Vec<Ipv4Addr> = (0..100).map(|_| addr(rng)).collect();
            let expected: Vec<GeoRecord> = probes
                .iter()
                .map(|ip| {
                    map.get(ip)
                        .cloned()
                        .unwrap_or_else(|| ranges_only.lookup(*ip))
                })
                .collect();
            let read = |db: &GeoDb| probes.iter().map(|&ip| db.lookup(ip)).collect::<Vec<_>>();
            assert_eq!(read(&db), expected, "before finalize");
            db.finalize();
            assert_eq!(read(&db), expected, "after finalize");
            assert_eq!(db.exact_count(), map.len());
            assert!(db.exact.windows(2).all(|pair| pair[0].0 < pair[1].0));
            assert_eq!(db.exact.capacity(), db.exact.len());
        });
    }

    #[test]
    fn exact_beats_range() {
        let mut db = GeoDb::new();
        db.insert_range(
            Ipv4Addr::new(8, 0, 0, 0),
            Ipv4Addr::new(8, 255, 255, 255),
            GeoRecord::new("US", 1, "Level3"),
        );
        db.insert_exact(
            Ipv4Addr::new(8, 8, 8, 8),
            GeoRecord::new("US", 15169, "Google LLC"),
        );
        assert_eq!(db.lookup(Ipv4Addr::new(8, 8, 8, 8)).asn, 15169);
        assert_eq!(db.lookup(Ipv4Addr::new(8, 9, 9, 9)).asn, 1);
    }

    #[test]
    fn narrowest_range_wins() {
        let mut db = GeoDb::new();
        db.insert_range(
            Ipv4Addr::new(100, 0, 0, 0),
            Ipv4Addr::new(110, 255, 255, 255),
            GeoRecord::new("US", 1, "broad"),
        );
        db.insert_range(
            Ipv4Addr::new(105, 0, 0, 0),
            Ipv4Addr::new(105, 0, 255, 255),
            GeoRecord::new("IN", 2, "narrow"),
        );
        assert_eq!(db.lookup(Ipv4Addr::new(105, 0, 1, 1)).country, "IN");
        assert_eq!(db.lookup(Ipv4Addr::new(109, 0, 0, 1)).country, "US");
    }

    #[test]
    fn private_ranges_recognized() {
        let db = GeoDb::new();
        for addr in [
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(172, 30, 1, 254),
            Ipv4Addr::new(192, 168, 2, 1),
            Ipv4Addr::new(127, 0, 0, 1),
            Ipv4Addr::new(0, 0, 0, 0),
        ] {
            assert!(db.lookup(addr).is_private(), "{addr}");
        }
    }

    #[test]
    fn unknown_fallback() {
        let db = GeoDb::new();
        let r = db.lookup(Ipv4Addr::new(198, 100, 50, 25));
        assert_eq!(r.country, "ZZ");
        assert_eq!(r.org, "unknown");
    }

    #[test]
    fn explicit_entry_overrides_private_sentinel() {
        // A campaign may pin specific private addresses to the
        // private-network record explicitly; exact entries always win.
        let mut db = GeoDb::new();
        db.insert_exact(Ipv4Addr::new(10, 0, 0, 1), GeoRecord::new("KR", 9, "lab"));
        assert_eq!(db.lookup(Ipv4Addr::new(10, 0, 0, 1)).country, "KR");
    }

    #[test]
    fn counts() {
        let mut db = GeoDb::new();
        db.insert_exact(Ipv4Addr::new(1, 1, 1, 1), GeoRecord::unknown());
        db.insert_range(
            Ipv4Addr::new(2, 0, 0, 0),
            Ipv4Addr::new(2, 0, 0, 255),
            GeoRecord::unknown(),
        );
        db.finalize();
        assert_eq!(db.exact_count(), 1);
        assert_eq!(db.range_count(), 1);
    }

    const IP: Ipv4Addr = Ipv4Addr::new(74, 220, 199, 15);

    #[test]
    fn empty_db() {
        let db = ThreatDb::new();
        assert!(!db.is_reported(IP));
        assert_eq!(db.dominant_category(IP), None);
        assert!(db.lookup(IP).is_empty());
        assert_eq!(db.reported_address_count(), 0);
    }

    #[test]
    fn dominant_is_most_frequent() {
        let mut db = ThreatDb::new();
        db.seed(IP, Category::Phishing, 5);
        db.seed(IP, Category::Malware, 2);
        assert_eq!(db.dominant_category(IP), Some(Category::Phishing));
        assert_eq!(db.lookup(IP).len(), 7);
    }

    #[test]
    fn ties_break_toward_earlier_table_ix_row() {
        let mut db = ThreatDb::new();
        db.seed(IP, Category::Botnet, 3);
        db.seed(IP, Category::Malware, 3);
        assert_eq!(db.dominant_category(IP), Some(Category::Malware));
    }

    #[test]
    fn single_report_dominates() {
        let mut db = ThreatDb::new();
        db.add_report(IP, Report::new(Category::Scan));
        assert_eq!(db.dominant_category(IP), Some(Category::Scan));
    }

    #[test]
    fn iter_dominant_covers_all() {
        let mut db = ThreatDb::new();
        db.seed(IP, Category::Malware, 1);
        db.seed(Ipv4Addr::new(1, 2, 3, 4), Category::Spam, 2);
        let mut cats: Vec<_> = db.iter_dominant().collect();
        cats.sort();
        assert_eq!(cats.len(), 2);
        assert_eq!(db.reported_address_count(), 2);
    }
}
