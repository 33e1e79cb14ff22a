//! The paper's published numbers, resolved into a generative population
//! specification.
//!
//! Everything in this module is *data recovered from the paper's tables*
//! (Tables II-X plus the in-text country distributions of §IV-C2 and the
//! empty-question breakdown of §IV-B4), reorganized as the joint cell
//! decomposition a population generator needs. Where the paper prints
//! only marginals (it never gives the full RA x AA x rcode x answer
//! joint), cells were allocated deterministically under documented
//! assumptions; all printed marginals are preserved and asserted by the
//! tests at the bottom of this module.
//!
//! Resolved paper-internal inconsistencies (also listed in DESIGN.md):
//!
//! 1. Table I's printed total (575,931,649) is one /8 short of its own
//!    rows; the 2018 Q1 count confirms the rows (see `orscope_ipspace`).
//! 2. Table V 2018 prints AA0 W_corr = 2,727,477 and AA0 W/O =
//!    3,512,053, but Tables III/IV force 2,727,467 and 3,512,063 (ten
//!    packets moved between the columns); we use the consistent values.
//! 3. Table VI 2018 W/O sums 14 short of Table III's W/O; the residual is
//!    assigned to Refused (the dominant bucket).
//! 4. Table VI 2013 W NoError (11,780,575) disagrees with Table III's W
//!    minus the stated 14,005 nonzero-rcode answers; we use the derived
//!    11,778,877 (2013 W/O similarly gets +12 on Refused).
//! 5. Table VII 2013 "string" prints 10 packets over 57 uniques; we use
//!    10 uniques.
//! 6. §IV-B4's RA split (184 + 303 = 487) misses 7 of the 494 packets;
//!    the 7 are assigned to RA=0.
//! 7. The 2013 top-10 list gives explicit counts for only six entries;
//!    the remaining four are reconstructed to preserve the printed total
//!    (26,514), the stated ordering hints, and each entry's rank.

use std::net::Ipv4Addr;

use orscope_dns_wire::Rcode;
use orscope_lookup::threatintel::Category;

/// Which scan a specification describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Year {
    /// The October-November 2013 scan (7d 5h, C-based prober).
    Y2013,
    /// The April 2018 scan (11h, modified ZMap at 100k pps).
    Y2018,
}

impl Year {
    /// Both scans, chronological.
    pub const ALL: [Year; 2] = [Year::Y2013, Year::Y2018];

    /// The calendar year as a number.
    pub fn as_u16(self) -> u16 {
        match self {
            Year::Y2013 => 2013,
            Year::Y2018 => 2018,
        }
    }
}

impl std::fmt::Display for Year {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_u16())
    }
}

/// Answer classification of an R2 packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnswerClass {
    /// No `dns_answer` section (the W/O column).
    None,
    /// Answer matches the zone's ground truth.
    Correct,
    /// Answer present but wrong (IP / URL / string forms).
    Incorrect,
    /// Answer present but undecodable (2013's 8,764 N/A packets).
    Malformed,
}

/// One homogeneous population cell: every resolver in it responds with
/// the same flags, rcode and answer class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlagCell {
    /// Recursion Available bit of the response.
    pub ra: bool,
    /// Authoritative Answer bit of the response.
    pub aa: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Answer class.
    pub answer: AnswerClass,
    /// Number of resolvers (== R2 packets) in the cell.
    pub count: u64,
}

/// Which value pool an incorrect-answer slice draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncorrectPool {
    /// Addresses with threat-intel reports (Tables VIII-X).
    Malicious,
    /// Wrong but unreported addresses (hosting parkers, private IPs...).
    BenignIp,
    /// CNAME/URL answers.
    Url,
    /// String answers (`wild`, `OK`, ...).
    Str,
    /// Undecodable rdata (2013 N/A).
    Malformed,
}

/// A slice of the incorrect population: `count` resolvers with the given
/// flags, drawing answer values from `pool` in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncorrectSlice {
    /// Recursion Available bit.
    pub ra: bool,
    /// Authoritative Answer bit.
    pub aa: bool,
    /// Value pool.
    pub pool: IncorrectPool,
    /// Number of resolvers.
    pub count: u64,
}

/// An explicitly named top wrong-answer address (Table VIII / §IV-C1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopIpEntry {
    /// The answer address.
    pub ip: Ipv4Addr,
    /// R2 packets carrying it.
    pub count: u64,
    /// Threat category if the address is reported (Cymon column "Y").
    pub category: Option<Category>,
    /// Organization name from Whois (Table VIII "Org Name").
    pub org: &'static str,
}

/// One Table IX row: a category's unique-address and packet counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaliciousCategorySpec {
    /// The threat category.
    pub category: Category,
    /// Unique reported addresses in the category.
    pub unique_ips: u64,
    /// R2 packets carrying those addresses.
    pub r2: u64,
}

/// The incorrect-answer side of a year: pools and their flag placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncorrectSpec {
    /// Flag placement slices; pool draws happen in list order.
    pub slices: Vec<IncorrectSlice>,
    /// Explicit top addresses (malicious ones are drawn from the
    /// malicious pool, benign ones from the benign pool, in rank order).
    pub top_ips: Vec<TopIpEntry>,
    /// Table IX rows.
    pub malicious: Vec<MaliciousCategorySpec>,
    /// Table X joint flag counts for malicious packets `(ra, aa, count)`.
    pub malicious_flags: Vec<(bool, bool, u64)>,
    /// Long-tail benign wrong IPs: unique addresses and total packets.
    pub tail_ip_unique: u64,
    /// Packets across the benign tail.
    pub tail_ip_r2: u64,
    /// URL-form answers: unique values / packets (Table VII).
    pub url_unique: u64,
    /// Packets across URL-form answers.
    pub url_r2: u64,
    /// String-form answers: unique values / packets (Table VII).
    pub string_unique: u64,
    /// Packets across string-form answers.
    pub string_r2: u64,
    /// Undecodable answers (Table VII N/A; 2013 only).
    pub malformed_r2: u64,
}

/// A §IV-B4 empty-question responder cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmptyQuestionCell {
    /// RA bit.
    pub ra: bool,
    /// AA bit.
    pub aa: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Fixed answer payload (`None` = empty answer section).
    pub answer: Option<crate::profile::AnswerData>,
    /// Number of resolvers.
    pub count: u64,
}

/// Everything needed to regenerate one year's population and compare the
/// measured tables against the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct YearSpec {
    /// Which scan.
    pub year: Year,
    /// Q1: probes sent (Table II).
    pub q1: u64,
    /// Q2 == R1: packets at the authoritative server (Table II).
    pub q2_r1: u64,
    /// R2: responses captured at the prober (Table II).
    pub r2: u64,
    /// Scan duration in seconds (Table II).
    pub duration_secs: u64,
    /// Probe rate in packets per second.
    pub probe_rate_pps: u64,
    /// Homogeneous cells for the `None`/`Correct` answer classes.
    pub flag_cells: Vec<FlagCell>,
    /// The incorrect-answer specification.
    pub incorrect: IncorrectSpec,
    /// §IV-B4 empty-question responders (2018 only).
    pub empty_question: Vec<EmptyQuestionCell>,
    /// Baseline auth-server queries per resolution for correct resolvers.
    pub(crate) auth_dup_base: u16,
    /// Fraction of correct resolvers sending one extra auth query
    /// (calibrates Table II's Q2 against R2).
    pub(crate) auth_dup_extra_fraction: f64,
    /// Country distribution of malicious R2 sources (§IV-C2).
    pub countries: Vec<(&'static str, u64)>,
}

impl YearSpec {
    /// The specification for `year`.
    pub fn get(year: Year) -> YearSpec {
        match year {
            Year::Y2013 => spec_2013(),
            Year::Y2018 => spec_2018(),
        }
    }

    /// Total resolvers answering with each [`AnswerClass`].
    pub fn answer_class_total(&self, class: AnswerClass) -> u64 {
        let from_cells: u64 = self
            .flag_cells
            .iter()
            .filter(|c| c.answer == class)
            .map(|c| c.count)
            .sum();
        let from_incorrect: u64 = self
            .incorrect
            .slices
            .iter()
            .filter(|s| match class {
                AnswerClass::Incorrect => s.pool != IncorrectPool::Malformed,
                AnswerClass::Malformed => s.pool == IncorrectPool::Malformed,
                _ => false,
            })
            .map(|s| s.count)
            .sum();
        from_cells + from_incorrect
    }

    /// Total malicious R2 packets (Table IX bottom row).
    pub fn malicious_r2(&self) -> u64 {
        self.incorrect.malicious.iter().map(|m| m.r2).sum()
    }
}

/// A cell helper.
fn cell(ra: bool, aa: bool, rcode: Rcode, answer: AnswerClass, count: u64) -> FlagCell {
    FlagCell {
        ra,
        aa,
        rcode,
        answer,
        count,
    }
}

fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
    Ipv4Addr::new(a, b, c, d)
}

/// The 2018 scan specification.
fn spec_2018() -> YearSpec {
    use AnswerClass::{Correct, None as NoAns};
    use IncorrectPool::*;
    let flag_cells = vec![
        // ---- Correct answers (Tables III/IV/V; recursing profiles) ----
        cell(true, false, Rcode::NoError, Correct, 2_724_752),
        cell(true, false, Rcode::FormErr, Correct, 23),
        cell(true, false, Rcode::ServFail, Correct, 2_489),
        cell(true, false, Rcode::NXDomain, Correct, 10),
        cell(true, false, Rcode::Refused, Correct, 193),
        cell(true, true, Rcode::NoError, Correct, 21_101),
        cell(false, true, Rcode::NoError, Correct, 3_994),
        // ---- No answer (W/O; Tables IV/V/VI) ----
        cell(true, false, Rcode::NoError, NoAns, 207_694),
        cell(false, true, Rcode::NoError, NoAns, 130_046),
        cell(false, false, Rcode::NoError, NoAns, 40_063),
        cell(false, false, Rcode::FormErr, NoAns, 233),
        cell(false, false, Rcode::ServFail, NoAns, 200_320),
        cell(false, false, Rcode::NXDomain, NoAns, 48_830),
        cell(false, false, Rcode::NotImp, NoAns, 605),
        cell(false, false, Rcode::Refused, NoAns, 2_934_283), // 2,934,269 + 14 residual
        cell(false, false, Rcode::YXDomain, NoAns, 1),
        cell(false, false, Rcode::YXRRSet, NoAns, 2),
        cell(false, false, Rcode::NotAuth, NoAns, 80_032),
    ];
    let incorrect = IncorrectSpec {
        slices: vec![
            // Malicious first, per Table X's joint flag counts.
            IncorrectSlice {
                ra: false,
                aa: true,
                pool: Malicious,
                count: 19_454,
            },
            IncorrectSlice {
                ra: false,
                aa: false,
                pool: Malicious,
                count: 80,
            },
            IncorrectSlice {
                ra: true,
                aa: false,
                pool: Malicious,
                count: 7_392,
            },
            // Benign wrong IPs fill the remaining flag budget.
            IncorrectSlice {
                ra: false,
                aa: true,
                pool: BenignIp,
                count: 45_638,
            },
            IncorrectSlice {
                ra: true,
                aa: true,
                pool: BenignIp,
                count: 28_960,
            },
            IncorrectSlice {
                ra: true,
                aa: false,
                pool: BenignIp,
                count: 9_266,
            },
            // URL and string forms (placed in the plain RA1/AA0 cell).
            IncorrectSlice {
                ra: true,
                aa: false,
                pool: Url,
                count: 231,
            },
            IncorrectSlice {
                ra: true,
                aa: false,
                pool: Str,
                count: 72,
            },
        ],
        top_ips: vec![
            TopIpEntry {
                ip: ip(216, 194, 64, 193),
                count: 23_692,
                category: None,
                org: "Tera-byte Dot Com",
            },
            TopIpEntry {
                ip: ip(74, 220, 199, 15),
                count: 13_369,
                category: Some(Category::Malware),
                org: "Unified Layer",
            },
            TopIpEntry {
                ip: ip(208, 91, 197, 91),
                count: 8_239,
                category: Some(Category::Malware),
                org: "Confluence Network Inc",
            },
            TopIpEntry {
                ip: ip(141, 8, 225, 68),
                count: 1_197,
                category: Some(Category::Malware),
                org: "Rook Media GmbH",
            },
            TopIpEntry {
                ip: ip(192, 168, 1, 1),
                count: 1_014,
                category: None,
                org: "private network",
            },
            TopIpEntry {
                ip: ip(192, 168, 2, 1),
                count: 741,
                category: None,
                org: "private network",
            },
            TopIpEntry {
                ip: ip(114, 44, 34, 86),
                count: 734,
                category: None,
                org: "Chunghwa Telecom",
            },
            TopIpEntry {
                ip: ip(172, 30, 1, 254),
                count: 607,
                category: None,
                org: "private network",
            },
            TopIpEntry {
                ip: ip(10, 0, 0, 1),
                count: 548,
                category: None,
                org: "private network",
            },
            TopIpEntry {
                ip: ip(118, 166, 1, 6),
                count: 528,
                category: None,
                org: "Chunghwa Telecom",
            },
        ],
        malicious: vec![
            MaliciousCategorySpec {
                category: Category::Malware,
                unique_ips: 170,
                r2: 23_189,
            },
            MaliciousCategorySpec {
                category: Category::Phishing,
                unique_ips: 125,
                r2: 2_878,
            },
            MaliciousCategorySpec {
                category: Category::Spam,
                unique_ips: 15,
                r2: 44,
            },
            MaliciousCategorySpec {
                category: Category::SshBruteforce,
                unique_ips: 10,
                r2: 323,
            },
            MaliciousCategorySpec {
                category: Category::Scan,
                unique_ips: 9,
                r2: 388,
            },
            MaliciousCategorySpec {
                category: Category::Botnet,
                unique_ips: 4,
                r2: 102,
            },
            MaliciousCategorySpec {
                category: Category::EmailBruteforce,
                unique_ips: 2,
                r2: 2,
            },
        ],
        malicious_flags: vec![
            (false, true, 19_454),
            (false, false, 80),
            (true, false, 7_392),
        ],
        tail_ip_unique: 14_680,
        tail_ip_r2: 56_000,
        url_unique: 80,
        url_r2: 231,
        string_unique: 29,
        string_r2: 72,
        malformed_r2: 0,
    };
    let empty_question = empty_question_2018();
    YearSpec {
        year: Year::Y2018,
        q1: 3_702_258_432,
        q2_r1: 13_049_863,
        r2: 6_506_258,
        duration_secs: 11 * 3600, // 04/26 3PM -> 04/27 2AM
        probe_rate_pps: 100_000,
        flag_cells,
        incorrect,
        empty_question,
        auth_dup_base: 4,
        // 13,049,863 / 2,752,562 = 4.7410...
        auth_dup_extra_fraction: 0.741,
        countries: vec![
            ("US", 21_819),
            ("IN", 3_596),
            ("HK", 714),
            ("VG", 291),
            ("AE", 162),
            ("CN", 146),
            ("DE", 31),
            ("PL", 24),
            ("RU", 18),
            ("BG", 16),
            ("NL", 14),
            ("IE", 12),
            ("AU", 11),
            ("KY", 11),
            ("CA", 8),
            ("FR", 7),
            ("GB", 7),
            ("JP", 7),
            ("CH", 6),
            ("PT", 6),
            ("IT", 5),
            ("SG", 3),
            ("TR", 3),
            ("VN", 2),
            ("AR", 1),
            ("AT", 1),
            ("ES", 1),
            ("JO", 1),
            ("LT", 1),
            ("MY", 1),
            ("UA", 1),
        ],
    }
}

/// The §IV-B4 empty-question cells (494 packets, 2018).
fn empty_question_2018() -> Vec<EmptyQuestionCell> {
    use crate::profile::AnswerData;
    let eq = |ra: bool, aa: bool, rcode: Rcode, answer: Option<AnswerData>, count: u64| {
        EmptyQuestionCell {
            ra,
            aa,
            rcode,
            answer,
            count,
        }
    };
    let mut cells = Vec::new();
    // 19 packets with (incorrect) answers, all RA=1 AA=0 rcode NoError:
    // 13 x 192.168.0.0/16, 1 x 10.0.0.0/8, 1 garbled string, 4 unrouted.
    for i in 0..13u8 {
        cells.push(eq(
            true,
            false,
            Rcode::NoError,
            Some(AnswerData::FixedIp(ip(192, 168, i, 1))),
            1,
        ));
    }
    cells.push(eq(
        true,
        false,
        Rcode::NoError,
        Some(AnswerData::FixedIp(ip(10, 11, 12, 13))),
        1,
    ));
    cells.push(eq(
        true,
        false,
        Rcode::NoError,
        Some(AnswerData::Text("0000".to_owned())),
        1,
    ));
    for i in 0..4u8 {
        // Addresses "which could not be found in Whois".
        cells.push(eq(
            true,
            false,
            Rcode::NoError,
            Some(AnswerData::FixedIp(ip(185, 251, 200 + i, 9))),
            1,
        ));
    }
    // 475 without answers: RA1 165, RA0 310 (incl. the +7 of note 6);
    // rcodes: NoError 7, FormErr 1, ServFail 302, NXDomain 2, Refused 163;
    // AA=1 on two RA0 ServFail packets.
    cells.push(eq(true, false, Rcode::NoError, None, 7));
    cells.push(eq(true, false, Rcode::ServFail, None, 158));
    cells.push(eq(false, false, Rcode::ServFail, None, 142));
    cells.push(eq(false, true, Rcode::ServFail, None, 2));
    cells.push(eq(false, false, Rcode::FormErr, None, 1));
    cells.push(eq(false, false, Rcode::NXDomain, None, 2));
    cells.push(eq(false, false, Rcode::Refused, None, 163));
    cells
}

/// The 2013 scan specification.
fn spec_2013() -> YearSpec {
    use AnswerClass::{Correct, None as NoAns};
    use IncorrectPool::*;
    let flag_cells = vec![
        // ---- Correct answers ----
        cell(true, false, Rcode::NoError, Correct, 11_491_476),
        cell(true, false, Rcode::ServFail, Correct, 12_723),
        cell(true, false, Rcode::NXDomain, Correct, 10),
        cell(true, false, Rcode::Refused, Correct, 1_272),
        cell(false, true, Rcode::NoError, Correct, 153_089),
        cell(false, false, Rcode::NoError, Correct, 13_019),
        // ---- No answer ----
        cell(true, false, Rcode::NoError, NoAns, 719_403),
        cell(false, true, Rcode::NoError, NoAns, 149_756),
        cell(false, false, Rcode::NoError, NoAns, 329_613),
        cell(false, false, Rcode::FormErr, NoAns, 453),
        cell(false, false, Rcode::ServFail, NoAns, 354_176),
        cell(false, false, Rcode::NXDomain, NoAns, 145_724),
        cell(false, false, Rcode::NotImp, NoAns, 38),
        cell(false, false, Rcode::Refused, NoAns, 3_168_065), // 3,168,053 + 12 residual
        cell(false, false, Rcode::YXRRSet, NoAns, 2),
        cell(false, false, Rcode::NotAuth, NoAns, 11),
    ];
    let incorrect = IncorrectSpec {
        slices: vec![
            IncorrectSlice {
                ra: false,
                aa: true,
                pool: Malicious,
                count: 12_874,
            },
            IncorrectSlice {
                ra: false,
                aa: true,
                pool: BenignIp,
                count: 62_968,
            },
            IncorrectSlice {
                ra: true,
                aa: true,
                pool: BenignIp,
                count: 2_437,
            },
            IncorrectSlice {
                ra: true,
                aa: false,
                pool: BenignIp,
                count: 33_991,
            },
            IncorrectSlice {
                ra: true,
                aa: false,
                pool: Url,
                count: 249,
            },
            IncorrectSlice {
                ra: true,
                aa: false,
                pool: Str,
                count: 10,
            },
            IncorrectSlice {
                ra: true,
                aa: false,
                pool: Malformed,
                count: 8_764,
            },
        ],
        // Reconstructed per note 7: explicit counts are the paper's;
        // ranks 2, 4, 6 and 10 are reconstructed to sum to 26,514.
        top_ips: vec![
            TopIpEntry {
                ip: ip(74, 220, 199, 15),
                count: 9_651,
                category: Some(Category::Malware),
                org: "Unified Layer",
            },
            TopIpEntry {
                ip: ip(192, 168, 1, 254),
                count: 5_200,
                category: None,
                org: "private network",
            },
            TopIpEntry {
                ip: ip(20, 20, 20, 20),
                count: 5_100,
                category: None,
                org: "Microsoft Corporation",
            },
            TopIpEntry {
                ip: ip(192, 168, 2, 1),
                count: 1_400,
                category: None,
                org: "private network",
            },
            TopIpEntry {
                ip: ip(0, 0, 0, 0),
                count: 1_032,
                category: None,
                org: "private network",
            },
            TopIpEntry {
                ip: ip(202, 106, 0, 20),
                count: 1_010,
                category: None,
                org: "China Unicom",
            },
            TopIpEntry {
                ip: ip(173, 192, 59, 63),
                count: 995,
                category: None,
                org: "SoftLayer Technologies",
            },
            TopIpEntry {
                ip: ip(221, 238, 203, 46),
                count: 811,
                category: None,
                org: "China Telecom",
            },
            TopIpEntry {
                ip: ip(68, 87, 91, 199),
                count: 748,
                category: None,
                org: "Comcast Cable",
            },
            TopIpEntry {
                ip: ip(192, 168, 1, 1),
                count: 567,
                category: None,
                org: "private network",
            },
        ],
        malicious: vec![
            MaliciousCategorySpec {
                category: Category::Malware,
                unique_ips: 65,
                r2: 11_149,
            },
            MaliciousCategorySpec {
                category: Category::Phishing,
                unique_ips: 19,
                r2: 1_092,
            },
            MaliciousCategorySpec {
                category: Category::Spam,
                unique_ips: 4,
                r2: 67,
            },
            MaliciousCategorySpec {
                category: Category::SshBruteforce,
                unique_ips: 2,
                r2: 2,
            },
            MaliciousCategorySpec {
                category: Category::Scan,
                unique_ips: 8,
                r2: 493,
            },
            MaliciousCategorySpec {
                category: Category::Botnet,
                unique_ips: 1,
                r2: 70,
            },
            MaliciousCategorySpec {
                category: Category::EmailBruteforce,
                unique_ips: 1,
                r2: 1,
            },
        ],
        // Table X exists only for 2018; 2013 malicious packets are placed
        // in the RA0/AA1 cell (the 2018 data shows malicious responses
        // cluster there).
        malicious_flags: vec![(false, true, 12_874)],
        tail_ip_unique: 28_334,
        tail_ip_r2: 82_533,
        url_unique: 175,
        url_r2: 249,
        string_unique: 10, // note 5: the printed 57 exceeds the 10 packets
        string_r2: 10,
        malformed_r2: 8_764,
    };
    YearSpec {
        year: Year::Y2013,
        q1: 3_676_724_690,
        q2_r1: 38_079_578,
        r2: 16_660_123,
        duration_secs: 7 * 24 * 3600 + 4 * 3600, // 10/28 2PM -> 11/04 6PM
        probe_rate_pps: 5_903,
        flag_cells,
        incorrect,
        empty_question: Vec::new(),
        auth_dup_base: 3,
        // 38,079,578 / 11,671,589 = 3.2626...
        auth_dup_extra_fraction: 0.2626,
        countries: vec![
            ("US", 12_616),
            ("TR", 91),
            ("VG", 28),
            ("PL", 24),
            ("IR", 18),
            ("BR", 9),
            ("KR", 8),
            ("TW", 8),
            ("AR", 7),
            ("BG", 6),
            ("ES", 5),
            ("PT", 5),
            ("AT", 4),
            ("CA", 4),
            ("DE", 4),
            ("NL", 4),
            ("VN", 4),
            ("CH", 3),
            ("RU", 3),
            ("SA", 3),
            ("AU", 2),
            ("ID", 2),
            ("KE", 2),
            ("SE", 2),
            ("CN", 1),
            ("FR", 1),
            ("GB", 1),
            ("HK", 1),
            ("MA", 1),
            ("NA", 1),
            ("NI", 1),
            ("PR", 1),
            ("SG", 1),
            ("TH", 1),
            ("VA", 1),
            ("ZA", 1),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl YearSpec {
        /// Total unique malicious addresses (Table IX bottom row).
        fn malicious_unique(&self) -> u64 {
            self.incorrect.malicious.iter().map(|m| m.unique_ips).sum()
        }

        /// Total empty-question R2.
        fn empty_question_r2(&self) -> u64 {
            self.empty_question.iter().map(|c| c.count).sum()
        }

        /// Total matched R2 (excludes the empty-question packets).
        fn matched_r2(&self) -> u64 {
            self.flag_cells.iter().map(|c| c.count).sum::<u64>()
                + self.incorrect.slices.iter().map(|s| s.count).sum::<u64>()
        }
    }

    /// Sum of cells matching a predicate plus incorrect slices matching
    /// another predicate.
    fn marginal(
        spec: &YearSpec,
        cells: impl Fn(&FlagCell) -> bool,
        slices: impl Fn(&IncorrectSlice) -> bool,
    ) -> u64 {
        spec.flag_cells
            .iter()
            .filter(|c| cells(c))
            .map(|c| c.count)
            .sum::<u64>()
            + spec
                .incorrect
                .slices
                .iter()
                .filter(|s| slices(s))
                .map(|s| s.count)
                .sum::<u64>()
    }

    #[test]
    fn table_2_totals() {
        let s13 = YearSpec::get(Year::Y2013);
        assert_eq!(s13.q1, 3_676_724_690);
        assert_eq!(s13.q2_r1, 38_079_578);
        assert_eq!(s13.r2, 16_660_123);
        let s18 = YearSpec::get(Year::Y2018);
        assert_eq!(s18.q1, 3_702_258_432);
        assert_eq!(s18.q2_r1, 13_049_863);
        assert_eq!(s18.r2, 6_506_258);
    }

    #[test]
    fn table_3_marginals_2018() {
        let s = YearSpec::get(Year::Y2018);
        assert_eq!(s.answer_class_total(AnswerClass::None), 3_642_109);
        assert_eq!(s.answer_class_total(AnswerClass::Correct), 2_752_562);
        assert_eq!(s.answer_class_total(AnswerClass::Incorrect), 111_093);
        assert_eq!(s.answer_class_total(AnswerClass::Malformed), 0);
        assert_eq!(s.matched_r2(), 6_505_764);
        assert_eq!(s.empty_question_r2(), 494);
        assert_eq!(s.matched_r2() + s.empty_question_r2(), s.r2);
    }

    #[test]
    fn table_3_marginals_2013() {
        let s = YearSpec::get(Year::Y2013);
        assert_eq!(s.answer_class_total(AnswerClass::None), 4_867_241);
        assert_eq!(s.answer_class_total(AnswerClass::Correct), 11_671_589);
        // Table III's 121,293 "incorrect" includes the 8,764 N/A packets
        // (Table VII's total confirms this).
        assert_eq!(
            s.answer_class_total(AnswerClass::Incorrect)
                + s.answer_class_total(AnswerClass::Malformed),
            121_293
        );
        assert_eq!(s.answer_class_total(AnswerClass::Malformed), 8_764);
        assert_eq!(s.matched_r2(), s.r2);
    }

    #[test]
    fn table_4_ra_marginals() {
        for (year, expect) in [
            // (RA0 W/O, RA0 corr, RA0 incorr, RA1 W/O, RA1 corr, RA1 incorr)
            (
                Year::Y2013,
                (
                    4_147_838u64,
                    166_108u64,
                    75_842u64,
                    719_403u64,
                    11_505_481u64,
                    45_451u64,
                ),
            ),
            (
                Year::Y2018,
                (3_434_415, 3_994, 65_172, 207_694, 2_748_568, 45_921),
            ),
        ] {
            let s = YearSpec::get(year);
            let wo = |ra: bool| {
                marginal(
                    &s,
                    |c| c.ra == ra && c.answer == AnswerClass::None,
                    |_| false,
                )
            };
            let corr = |ra: bool| {
                marginal(
                    &s,
                    |c| c.ra == ra && c.answer == AnswerClass::Correct,
                    |_| false,
                )
            };
            let incorr = |ra: bool| marginal(&s, |_| false, |sl| sl.ra == ra);
            assert_eq!(wo(false), expect.0, "{year} RA0 W/O");
            assert_eq!(corr(false), expect.1, "{year} RA0 corr");
            assert_eq!(incorr(false), expect.2, "{year} RA0 incorr");
            assert_eq!(wo(true), expect.3, "{year} RA1 W/O");
            assert_eq!(corr(true), expect.4, "{year} RA1 corr");
            assert_eq!(incorr(true), expect.5, "{year} RA1 incorr");
        }
    }

    #[test]
    fn table_5_aa_marginals() {
        for (year, expect) in [
            // (AA0 W/O, AA0 corr, AA0 incorr, AA1 W/O, AA1 corr, AA1 incorr)
            (
                Year::Y2013,
                (
                    4_717_485u64,
                    11_518_500u64,
                    43_014u64,
                    149_756u64,
                    153_089u64,
                    78_279u64,
                ),
            ),
            // AA0 W/O and corr use the Table III/IV-consistent values
            // (note 2): Table V prints 3,512,053 / 2,727,477, shifting
            // ten packets between the columns relative to Table III.
            (
                Year::Y2018,
                (3_512_063, 2_727_467, 17_041, 130_046, 25_095, 94_052),
            ),
        ] {
            let s = YearSpec::get(year);
            let wo = |aa: bool| {
                marginal(
                    &s,
                    |c| c.aa == aa && c.answer == AnswerClass::None,
                    |_| false,
                )
            };
            let corr = |aa: bool| {
                marginal(
                    &s,
                    |c| c.aa == aa && c.answer == AnswerClass::Correct,
                    |_| false,
                )
            };
            let incorr = |aa: bool| marginal(&s, |_| false, |sl| sl.aa == aa);
            assert_eq!(wo(false), expect.0, "{year} AA0 W/O");
            assert_eq!(corr(false), expect.1, "{year} AA0 corr");
            assert_eq!(incorr(false), expect.2, "{year} AA0 incorr");
            assert_eq!(wo(true), expect.3, "{year} AA1 W/O");
            assert_eq!(corr(true), expect.4, "{year} AA1 corr");
            assert_eq!(incorr(true), expect.5, "{year} AA1 incorr");
        }
    }

    #[test]
    fn table_6_rcode_marginals_2018() {
        let s = YearSpec::get(Year::Y2018);
        // With answer (incorrect slices are all NoError by construction).
        let w = |rc: Rcode| {
            marginal(
                &s,
                |c| c.rcode == rc && matches!(c.answer, AnswerClass::Correct),
                |_| rc == Rcode::NoError,
            )
        };
        assert_eq!(w(Rcode::NoError), 2_860_940);
        assert_eq!(w(Rcode::FormErr), 23);
        assert_eq!(w(Rcode::ServFail), 2_489);
        assert_eq!(w(Rcode::NXDomain), 10);
        assert_eq!(w(Rcode::Refused), 193);
        // Without answer.
        let wo = |rc: Rcode| {
            marginal(
                &s,
                |c| c.rcode == rc && c.answer == AnswerClass::None,
                |_| false,
            )
        };
        assert_eq!(wo(Rcode::NoError), 377_803);
        assert_eq!(wo(Rcode::FormErr), 233);
        assert_eq!(wo(Rcode::ServFail), 200_320);
        assert_eq!(wo(Rcode::NXDomain), 48_830);
        assert_eq!(wo(Rcode::NotImp), 605);
        assert_eq!(wo(Rcode::Refused), 2_934_283); // paper 2,934,269 + 14 (note 3)
        assert_eq!(wo(Rcode::YXDomain), 1);
        assert_eq!(wo(Rcode::YXRRSet), 2);
        assert_eq!(wo(Rcode::NotAuth), 80_032);
    }

    #[test]
    fn table_6_rcode_marginals_2013() {
        let s = YearSpec::get(Year::Y2013);
        let w = |rc: Rcode| {
            marginal(
                &s,
                |c| c.rcode == rc && matches!(c.answer, AnswerClass::Correct),
                |_| rc == Rcode::NoError,
            )
        };
        // Derived NoError (note 4): Table III W minus the 14,005.
        assert_eq!(w(Rcode::NoError), 11_491_476 + 121_293 + 153_089 + 13_019);
        assert_eq!(w(Rcode::ServFail), 12_723);
        assert_eq!(w(Rcode::NXDomain), 10);
        assert_eq!(w(Rcode::Refused), 1_272);
        let wo = |rc: Rcode| {
            marginal(
                &s,
                |c| c.rcode == rc && c.answer == AnswerClass::None,
                |_| false,
            )
        };
        assert_eq!(wo(Rcode::NoError), 1_198_772);
        assert_eq!(wo(Rcode::FormErr), 453);
        assert_eq!(wo(Rcode::ServFail), 354_176);
        assert_eq!(wo(Rcode::NXDomain), 145_724);
        assert_eq!(wo(Rcode::NotImp), 38);
        assert_eq!(wo(Rcode::Refused), 3_168_065); // paper 3,168,053 + 12
        assert_eq!(wo(Rcode::YXRRSet), 2);
        assert_eq!(wo(Rcode::NotAuth), 11);
    }

    #[test]
    fn table_7_forms() {
        let s18 = YearSpec::get(Year::Y2018).incorrect;
        let top_r2: u64 = s18.top_ips.iter().map(|t| t.count).sum();
        assert_eq!(top_r2, 50_669, "Table VIII total");
        // IP form: top + tail + malicious-not-in-top.
        let top_mal: u64 = s18
            .top_ips
            .iter()
            .filter(|t| t.category.is_some())
            .map(|t| t.count)
            .sum();
        assert_eq!(top_mal, 22_805, "the paper's 'deceptive' top-10 subtotal");
        let mal_tail = 26_926 - top_mal;
        let ip_form = top_r2 + s18.tail_ip_r2 + mal_tail;
        assert_eq!(ip_form, 110_790);
        assert_eq!(s18.url_r2, 231);
        assert_eq!(s18.string_r2, 72);
        assert_eq!(ip_form + s18.url_r2 + s18.string_r2, 111_093);

        let s13 = YearSpec::get(Year::Y2013).incorrect;
        let top_r2: u64 = s13.top_ips.iter().map(|t| t.count).sum();
        assert_eq!(top_r2, 26_514);
        let top_mal: u64 = s13
            .top_ips
            .iter()
            .filter(|t| t.category.is_some())
            .map(|t| t.count)
            .sum();
        assert_eq!(top_mal, 9_651);
        let ip_form = top_r2 + s13.tail_ip_r2 + (12_874 - top_mal);
        assert_eq!(ip_form, 112_270);
        assert_eq!(
            ip_form + s13.url_r2 + s13.string_r2 + s13.malformed_r2,
            121_293
        );
    }

    #[test]
    fn table_9_malicious_totals() {
        let s13 = YearSpec::get(Year::Y2013);
        assert_eq!(s13.malicious_unique(), 100);
        assert_eq!(s13.malicious_r2(), 12_874);
        let s18 = YearSpec::get(Year::Y2018);
        assert_eq!(s18.malicious_unique(), 335);
        assert_eq!(s18.malicious_r2(), 26_926);
    }

    #[test]
    fn table_10_malicious_flags_2018() {
        let s = YearSpec::get(Year::Y2018);
        let flags = &s.incorrect.malicious_flags;
        let ra0: u64 = flags.iter().filter(|f| !f.0).map(|f| f.2).sum();
        let ra1: u64 = flags.iter().filter(|f| f.0).map(|f| f.2).sum();
        let aa0: u64 = flags.iter().filter(|f| !f.1).map(|f| f.2).sum();
        let aa1: u64 = flags.iter().filter(|f| f.1).map(|f| f.2).sum();
        assert_eq!(ra0, 19_534);
        assert_eq!(ra1, 7_392);
        assert_eq!(aa0, 7_472);
        assert_eq!(aa1, 19_454);
        // Malicious flag totals must match the Malicious slices.
        let slice_total: u64 = s
            .incorrect
            .slices
            .iter()
            .filter(|sl| sl.pool == IncorrectPool::Malicious)
            .map(|sl| sl.count)
            .sum();
        assert_eq!(slice_total, 26_926);
    }

    #[test]
    fn countries_sum_to_malicious_r2() {
        for year in Year::ALL {
            let s = YearSpec::get(year);
            let total: u64 = s.countries.iter().map(|c| c.1).sum();
            assert_eq!(total, s.malicious_r2(), "{year}");
        }
        assert_eq!(YearSpec::get(Year::Y2013).countries.len(), 36);
        assert_eq!(YearSpec::get(Year::Y2018).countries.len(), 31);
    }

    #[test]
    fn pool_budgets_match_slices() {
        for year in Year::ALL {
            let inc = YearSpec::get(year).incorrect;
            let slice_sum = |pool: IncorrectPool| -> u64 {
                inc.slices
                    .iter()
                    .filter(|s| s.pool == pool)
                    .map(|s| s.count)
                    .sum()
            };
            let top_benign: u64 = inc
                .top_ips
                .iter()
                .filter(|t| t.category.is_none())
                .map(|t| t.count)
                .sum();
            assert_eq!(
                slice_sum(IncorrectPool::BenignIp),
                top_benign + inc.tail_ip_r2,
                "{year} benign pool"
            );
            let mal_total: u64 = inc.malicious.iter().map(|m| m.r2).sum();
            assert_eq!(
                slice_sum(IncorrectPool::Malicious),
                mal_total,
                "{year} malicious pool"
            );
            assert_eq!(slice_sum(IncorrectPool::Url), inc.url_r2, "{year} url pool");
            assert_eq!(
                slice_sum(IncorrectPool::Str),
                inc.string_r2,
                "{year} str pool"
            );
            assert_eq!(
                slice_sum(IncorrectPool::Malformed),
                inc.malformed_r2,
                "{year} malformed"
            );
        }
    }

    #[test]
    fn error_rates_match_paper_headlines() {
        // Err% of Table III: 1.029% (2013) -> 3.879% (2018).
        let rate = |year: Year| {
            let s = YearSpec::get(year);
            let incorr = s.answer_class_total(AnswerClass::Incorrect)
                + s.answer_class_total(AnswerClass::Malformed);
            let w = incorr + s.answer_class_total(AnswerClass::Correct);
            incorr as f64 / w as f64 * 100.0
        };
        assert!(
            (rate(Year::Y2013) - 1.029).abs() < 0.01,
            "{}",
            rate(Year::Y2013)
        );
        assert!(
            (rate(Year::Y2018) - 3.879).abs() < 0.01,
            "{}",
            rate(Year::Y2018)
        );
    }

    #[test]
    fn q2_calibration_is_close() {
        for year in Year::ALL {
            let s = YearSpec::get(year);
            let corr = s.answer_class_total(AnswerClass::Correct);
            let expected_q2 = corr as f64 * (s.auth_dup_base as f64 + s.auth_dup_extra_fraction);
            let err = (expected_q2 - s.q2_r1 as f64).abs() / s.q2_r1 as f64;
            assert!(err < 0.001, "{year}: {expected_q2} vs {}", s.q2_r1);
        }
    }

    #[test]
    fn empty_question_cells_match_paragraph() {
        let cells = YearSpec::get(Year::Y2018).empty_question;
        let total: u64 = cells.iter().map(|c| c.count).sum();
        assert_eq!(total, 494);
        let with_answer: u64 = cells
            .iter()
            .filter(|c| c.answer.is_some())
            .map(|c| c.count)
            .sum();
        assert_eq!(with_answer, 19);
        let ra1: u64 = cells.iter().filter(|c| c.ra).map(|c| c.count).sum();
        assert_eq!(ra1, 184);
        let aa1: u64 = cells.iter().filter(|c| c.aa).map(|c| c.count).sum();
        assert_eq!(aa1, 2);
        let rcode = |rc: Rcode| -> u64 {
            cells
                .iter()
                .filter(|c| c.rcode == rc)
                .map(|c| c.count)
                .sum()
        };
        assert_eq!(rcode(Rcode::NoError), 26);
        assert_eq!(rcode(Rcode::FormErr), 1);
        assert_eq!(rcode(Rcode::ServFail), 302); // paper 301 + 1 residual
        assert_eq!(rcode(Rcode::NXDomain), 2);
        assert_eq!(rcode(Rcode::Refused), 163);
    }
}
