//! The geolocation database.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use crate::record::GeoRecord;

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
/// use orscope_geo::{GeoDb, GeoRecord};
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
    exact: HashMap<Ipv4Addr, GeoRecord>,
    /// `(first, last, record)` sorted by `first`; ranges may nest but the
    /// narrowest match wins.
    ranges: Vec<(u32, u32, GeoRecord)>,
    sorted: bool,
}

impl GeoDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an exact (`/32`) entry.
    pub fn insert_exact(&mut self, addr: Ipv4Addr, record: GeoRecord) {
        self.exact.insert(addr, record);
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

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.ranges.sort_by_key(|&(f, l, _)| (f, l));
            self.sorted = true;
        }
    }

    /// Looks up `addr`; never fails (see type-level docs for precedence).
    pub fn lookup(&self, addr: Ipv4Addr) -> GeoRecord {
        if let Some(record) = self.exact.get(&addr) {
            return record.clone();
        }
        let a = u32::from(addr);
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

    /// Number of exact entries.
    pub fn exact_count(&self) -> usize {
        self.exact.len()
    }

    /// Number of range entries.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Sorts the internal range list for deterministic iteration; called
    /// automatically where needed.
    pub fn finalize(&mut self) {
        self.ensure_sorted();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
