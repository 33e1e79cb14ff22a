//! The registry of RFC-reserved address blocks excluded from probing.
//!
//! This is Table I of the paper: sixteen blocks, 575,931,649 addresses in
//! total, that an Internet-wide scan must never target (private networks,
//! loopback, multicast, documentation ranges, ...).

use crate::cidr::Cidr;

/// One entry of the exclusion table: a block and the RFC that reserves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReservedBlock {
    /// The reserved CIDR block.
    pub(crate) cidr: Cidr,
    /// The RFC document reserving the block, e.g. `"RFC1918"`.
    pub(crate) rfc: &'static str,
}

/// The sixteen reserved blocks of Table I, in ascending address order.
pub(crate) fn blocks() -> &'static [ReservedBlock; 16] {
    use std::net::Ipv4Addr;
    use std::sync::OnceLock;
    static BLOCKS: OnceLock<[ReservedBlock; 16]> = OnceLock::new();
    BLOCKS.get_or_init(|| {
        let mk = |a, b, c, d, len, rfc| ReservedBlock {
            cidr: Cidr::new(Ipv4Addr::new(a, b, c, d), len),
            rfc,
        };
        [
            mk(0, 0, 0, 0, 8, "RFC1122"),
            mk(10, 0, 0, 0, 8, "RFC1918"),
            mk(100, 64, 0, 0, 10, "RFC6598"),
            mk(127, 0, 0, 0, 8, "RFC1122"),
            mk(169, 254, 0, 0, 16, "RFC3927"),
            mk(172, 16, 0, 0, 12, "RFC1918"),
            mk(192, 0, 0, 0, 24, "RFC6890"),
            mk(192, 0, 2, 0, 24, "RFC5737"),
            mk(192, 88, 99, 0, 24, "RFC3068"),
            mk(192, 168, 0, 0, 16, "RFC1918"),
            mk(198, 18, 0, 0, 15, "RFC2544"),
            mk(198, 51, 100, 0, 24, "RFC5737"),
            mk(203, 0, 113, 0, 24, "RFC5737"),
            mk(224, 0, 0, 0, 4, "RFC5771"),
            mk(240, 0, 0, 0, 4, "RFC1112"),
            mk(255, 255, 255, 255, 32, "RFC919"),
        ]
    })
}

/// Whether a raw address falls in any reserved block.
pub fn is_reserved(addr: u32) -> bool {
    blocks().iter().any(|b| b.cidr.contains(addr))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    /// The total printed at the bottom of Table I in the paper:
    /// 575,931,649.
    ///
    /// This figure is internally inconsistent with the table's own rows,
    /// whose sizes sum to `row_sum()` = 592,708,865 (the printed total is
    /// exactly one /8 short). The paper's own 2018 Q1 count (3,702,258,432
    /// probes, Table II) equals `2^32 - total_excluded()`, confirming that
    /// the row data — not the printed total — is what the scan actually
    /// used.
    const PAPER_PRINTED_TOTAL: u64 = 575_931_649;

    /// Sum of the per-row block sizes of Table I: 592,708,865.
    ///
    /// One address (255.255.255.255/32) is double-counted because it also
    /// lies inside 240.0.0.0/4; the true union is `total_excluded()`.
    fn row_sum() -> u64 {
        blocks().iter().map(|b| b.cidr.len()).sum()
    }

    /// Number of distinct excluded addresses (the union of Table I
    /// blocks): 592,708,864.
    fn total_excluded() -> u64 {
        crate::Blocklist::reserved().covered()
    }

    /// Number of probeable addresses: `2^32 - total_excluded()` =
    /// 3,702,258,432, which matches the paper's 2018 Q1 count exactly.
    pub(crate) fn total_probeable() -> u64 {
        (1u64 << 32) - total_excluded()
    }

    #[test]
    fn reserved_totals_are_consistent_with_table_2_q1() {
        assert_eq!(row_sum(), 592_708_865);
        assert_eq!(total_excluded(), 592_708_864);
        // The probeable count equals the paper's 2018 Q1 figure, which
        // cross-validates the block registry against Table II.
        assert_eq!(total_probeable(), 3_702_258_432);
        // Table I's printed total is one /8 short of its own rows.
        assert_eq!(row_sum() - PAPER_PRINTED_TOTAL, 16_777_216);
    }

    #[test]
    fn sixteen_blocks_in_ascending_order() {
        let b = blocks();
        assert_eq!(b.len(), 16);
        for w in b.windows(2) {
            assert!(w[0].cidr.first() < w[1].cidr.first());
        }
    }

    #[test]
    fn per_block_counts_match_table_1() {
        let expected: &[(&str, u64)] = &[
            ("0.0.0.0/8", 16_777_216),
            ("10.0.0.0/8", 16_777_216),
            ("100.64.0.0/10", 4_194_304),
            ("127.0.0.0/8", 16_777_216),
            ("169.254.0.0/16", 65_536),
            ("172.16.0.0/12", 1_048_576),
            ("192.0.0.0/24", 256),
            ("192.0.2.0/24", 256),
            ("192.88.99.0/24", 256),
            ("192.168.0.0/16", 65_536),
            ("198.18.0.0/15", 131_072),
            ("198.51.100.0/24", 256),
            ("203.0.113.0/24", 256),
            ("224.0.0.0/4", 268_435_456),
            ("240.0.0.0/4", 268_435_456),
            ("255.255.255.255/32", 1),
        ];
        for (block, (text, count)) in blocks().iter().zip(expected) {
            assert_eq!(block.cidr.to_string(), *text);
            assert_eq!(block.cidr.len(), *count, "count mismatch for {text}");
        }
    }

    #[test]
    fn only_known_overlap_is_broadcast_inside_class_e() {
        // 255.255.255.255/32 lies inside 240.0.0.0/4; Table I lists both.
        let b = blocks();
        let mut overlaps = Vec::new();
        for i in 0..b.len() {
            for j in (i + 1)..b.len() {
                if b[i].cidr.overlaps(&b[j].cidr) {
                    overlaps.push((b[i].cidr.to_string(), b[j].cidr.to_string()));
                }
            }
        }
        assert_eq!(
            overlaps,
            vec![("240.0.0.0/4".to_owned(), "255.255.255.255/32".to_owned())]
        );
    }

    #[test]
    fn is_reserved_spot_checks() {
        assert!(is_reserved(u32::from(Ipv4Addr::new(10, 1, 2, 3))));
        assert!(is_reserved(u32::from(Ipv4Addr::new(192, 168, 1, 1))));
        assert!(is_reserved(u32::from(Ipv4Addr::new(239, 255, 255, 250))));
        assert!(is_reserved(u32::MAX));
        assert!(!is_reserved(u32::from(Ipv4Addr::new(8, 8, 8, 8))));
        assert!(!is_reserved(u32::from(Ipv4Addr::new(1, 1, 1, 1))));
        // Boundary: 192.0.1.0 sits between the 192.0.0.0/24 and
        // 192.0.2.0/24 documentation blocks and is probeable.
        assert!(!is_reserved(u32::from(Ipv4Addr::new(192, 0, 1, 0))));
    }

    #[test]
    fn rfc_attribution() {
        let rfc1918: Vec<_> = blocks().iter().filter(|b| b.rfc == "RFC1918").collect();
        assert_eq!(rfc1918.len(), 3);
    }
}
