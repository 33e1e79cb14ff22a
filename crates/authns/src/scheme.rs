//! The probe subdomain naming scheme of Fig. 3 and the ground truth.
//!
//! Every probed IP address receives a query for a unique subdomain
//! `or{ccc}.{sssssss}.<zone>`, where `ccc` is the three-digit cluster
//! number and `sssssss` the seven-digit sequence number within the
//! cluster. Uniqueness defeats resolver caches and lets the analysis
//! group Q1/Q2/R1/R2 by qname instead of the 16-bit DNS ID (which cannot
//! disambiguate 100k packets per second).

use std::fmt;
use std::net::Ipv4Addr;

use orscope_dns_wire::{Name, ParseNameError};

/// Subdomains per cluster: the paper's authoritative server could hold
/// about five million zone entries at a time.
pub const CLUSTER_CAPACITY: u64 = 5_000_000;

/// A parsed probe label: cluster number and in-cluster sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProbeLabel {
    /// Cluster number (`ccc`, 0..=999).
    pub cluster: u32,
    /// Sequence within the cluster (`sssssss`, 0..CLUSTER_CAPACITY).
    pub seq: u64,
}

impl ProbeLabel {
    /// Creates a label, validating the ranges.
    ///
    /// # Panics
    ///
    /// Panics if `cluster > 999` or `seq >= CLUSTER_CAPACITY` — both are
    /// generator bugs, not runtime conditions.
    pub fn new(cluster: u32, seq: u64) -> Self {
        assert!(cluster <= 999, "cluster {cluster} out of range");
        assert!(seq < CLUSTER_CAPACITY, "sequence {seq} out of range");
        Self { cluster, seq }
    }

    /// The two leading labels as ASCII bytes, e.g.
    /// `(*b"or007", *b"0001234")`. Stack buffers: the prober formats one
    /// name per probe, so this must not allocate.
    pub fn labels(&self) -> ([u8; 5], [u8; 7]) {
        let mut first = *b"or000";
        write_digits(&mut first[2..], u64::from(self.cluster));
        let mut second = [b'0'; 7];
        write_digits(&mut second, self.seq);
        (first, second)
    }

    /// The full qname under `zone`, e.g. `or007.0001234.<zone>`.
    ///
    /// # Panics
    ///
    /// Panics if `zone` is within 14 bytes of the 255-byte name limit;
    /// [`ProbeLabel::try_qname`] reports that instead.
    pub fn qname(&self, zone: &Name) -> Name {
        self.try_qname(zone)
            .expect("the zone leaves room for the two probe labels")
    }

    /// [`ProbeLabel::qname`] for a zone not yet known to leave room for
    /// the two probe labels.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNameError::NameTooLong`] if the qname would exceed
    /// 255 bytes on the wire.
    pub fn try_qname(&self, zone: &Name) -> Result<Name, ParseNameError> {
        let (first, second) = self.labels();
        Name::from_labels([&first[..], &second[..]].into_iter().chain(zone.labels()))
    }

    /// Parses a probe qname back into its label, if `qname` is a
    /// well-formed probe subdomain directly under `zone`.
    pub fn parse(qname: &Name, zone: &Name) -> Option<ProbeLabel> {
        if !qname.is_subdomain_of(zone) || qname.label_count() != zone.label_count() + 2 {
            return None;
        }
        let mut labels = qname.labels();
        // DNS names are case-insensitive (and DNS 0x20 clients scramble
        // case deliberately): accept the `or` prefix in either case.
        let [o, r, cluster @ ..] = labels.next()? else {
            return None;
        };
        if !o.eq_ignore_ascii_case(&b'o') || !r.eq_ignore_ascii_case(&b'r') || cluster.len() != 3 {
            return None;
        }
        let second = labels.next()?;
        if second.len() != 7 {
            return None;
        }
        let cluster = parse_digits(cluster)? as u32;
        let seq = parse_digits(second)?;
        if seq >= CLUSTER_CAPACITY {
            return None;
        }
        Some(ProbeLabel { cluster, seq })
    }
}

/// `DIGIT_PAIRS[2 * n..2 * n + 2]` is `n` in two decimal digits.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Fills `out` with the low decimal digits of `value`, zero-padded on
/// the left (the value's range is bounded by [`ProbeLabel::new`]), two
/// digits a division.
fn write_digits(out: &mut [u8], mut value: u64) {
    let mut end = out.len();
    while end >= 2 {
        let pair = (value % 100) as usize * 2;
        out[end - 2..end].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        value /= 100;
        end -= 2;
    }
    if end == 1 {
        out[0] = b'0' + (value % 10) as u8;
    }
}

/// The value of an all-ASCII-digits byte string (at most 7 digits here,
/// so it cannot overflow).
fn parse_digits(digits: &[u8]) -> Option<u64> {
    digits.iter().try_fold(0u64, |value, &byte| {
        byte.is_ascii_digit()
            .then(|| value * 10 + u64::from(byte - b'0'))
    })
}

impl fmt::Display for ProbeLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (first, second) = self.labels();
        // The buffers hold only `or` and ASCII digits.
        let text = |bytes| std::str::from_utf8(bytes).expect("ASCII labels");
        write!(f, "{}.{}", text(&first), text(&second))
    }
}

/// The ground-truth A record for a probe subdomain.
///
/// The paper's zone files assign each subdomain an address; correctness of
/// an open resolver's answer (Table III) is judged against this value. We
/// derive it deterministically from the label so the authoritative server
/// need not materialize five million records: addresses land in
/// 45.76.0.0/15 (the hosting range our simulated Vultr instance lives in),
/// which never collides with the manipulated answers resolvers inject.
pub fn ground_truth(label: ProbeLabel) -> Ipv4Addr {
    let mut x = (label.cluster as u64) << 40 | label.seq;
    // SplitMix-style mixing.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    // 45.76.0.0/15: fix the top 15 bits, scatter the remaining 17.
    let base = u32::from(Ipv4Addr::new(45, 76, 0, 0));
    Ipv4Addr::from(base | (x as u32 & 0x0001_FFFF))
}

/// Whether `addr` lies in the ground-truth range (45.76.0.0/15). Used by
/// the classifier as a fast plausibility filter.
pub fn in_ground_truth_range(addr: Ipv4Addr) -> bool {
    u32::from(addr) >> 17 == u32::from(Ipv4Addr::new(45, 76, 0, 0)) >> 17
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone() -> Name {
        "ucfsealresearch.net".parse().unwrap()
    }

    #[test]
    fn qname_formatting_matches_figure_3() {
        let label = ProbeLabel::new(0, 1);
        assert_eq!(
            label.qname(&zone()).to_string(),
            "or000.0000001.ucfsealresearch.net"
        );
        let label = ProbeLabel::new(999, 4_999_999);
        assert_eq!(
            label.qname(&zone()).to_string(),
            "or999.4999999.ucfsealresearch.net"
        );
    }

    /// The digit-pair table writes what `format!` writes, for every
    /// cluster and for random sequence numbers (the extremes included),
    /// and `parse` reads it back.
    #[test]
    fn labels_match_format_and_parse_back() {
        let zone = zone();
        orscope_check::cases(1_000, |rng| {
            let cluster = rng.range(0..1_000u32);
            for seq in [rng.range(0..CLUSTER_CAPACITY), 0, CLUSTER_CAPACITY - 1] {
                let label = ProbeLabel::new(cluster, seq);
                let (first, second) = label.labels();
                assert_eq!(first, format!("or{cluster:03}").as_bytes());
                assert_eq!(second, format!("{seq:07}").as_bytes());
                assert_eq!(ProbeLabel::parse(&label.qname(&zone), &zone), Some(label));
            }
        });
        for cluster in 0..1_000 {
            let (first, _) = ProbeLabel::new(cluster, 0).labels();
            assert_eq!(first, format!("or{cluster:03}").as_bytes());
        }
    }

    #[test]
    fn parse_roundtrip() {
        for (cluster, seq) in [(0u32, 0u64), (3, 42), (999, 4_999_999)] {
            let label = ProbeLabel::new(cluster, seq);
            let qname = label.qname(&zone());
            assert_eq!(ProbeLabel::parse(&qname, &zone()), Some(label));
        }
    }

    #[test]
    fn parse_is_case_insensitive() {
        // DNS 0x20 clients send scrambled case; the zone must still
        // recognize its own subdomains.
        let name: Name = "oR007.0000123.UcFsEaLreSEARCH.net".parse().unwrap();
        assert_eq!(
            ProbeLabel::parse(&name, &zone()),
            Some(ProbeLabel::new(7, 123))
        );
    }

    #[test]
    fn parse_rejects_foreign_names() {
        let z = zone();
        for bad in [
            "www.ucfsealresearch.net",
            "or000.ucfsealresearch.net",
            "or00.0000001.ucfsealresearch.net",
            "or000.000001.ucfsealresearch.net",
            "xx000.0000001.ucfsealresearch.net",
            "or000.0000001.example.net",
            "deep.or000.0000001.ucfsealresearch.net",
            "or000.9999999.ucfsealresearch.net", // seq >= capacity
            "or+12.0000001.ucfsealresearch.net", // signs are not digits
            "or000.+000001.ucfsealresearch.net",
        ] {
            let name: Name = bad.parse().unwrap();
            assert_eq!(ProbeLabel::parse(&name, &z), None, "{bad}");
        }
    }

    #[test]
    fn ground_truth_is_deterministic_and_in_range() {
        let a = ground_truth(ProbeLabel::new(1, 77));
        let b = ground_truth(ProbeLabel::new(1, 77));
        assert_eq!(a, b);
        assert!(in_ground_truth_range(a));
        assert!(!in_ground_truth_range(Ipv4Addr::new(208, 91, 197, 91)));
        assert!(!in_ground_truth_range(Ipv4Addr::new(192, 168, 1, 1)));
    }

    #[test]
    fn ground_truth_spreads_across_addresses() {
        let unique: std::collections::HashSet<Ipv4Addr> = (0..1000)
            .map(|seq| ground_truth(ProbeLabel::new(0, seq)))
            .collect();
        assert!(unique.len() > 990, "only {} unique addresses", unique.len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_cluster_panics() {
        let _ = ProbeLabel::new(1000, 0);
    }

    #[test]
    fn display() {
        assert_eq!(ProbeLabel::new(7, 123).to_string(), "or007.0000123");
    }
}
