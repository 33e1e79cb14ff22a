//! End-to-end reproduction check: a 1:1000 replay of the 2018 scan must
//! reproduce the *shape* of every table in the paper — who dominates,
//! by roughly what factor, and where the flag inversions sit.

use orscope_authns::scheme::ProbeLabel;
use orscope_authns::Direction;
use orscope_core::{Campaign, CampaignConfig, CampaignResult, Captured, Record, RecordBus};
use orscope_dns_wire::{Message, Rcode};
use orscope_netsim::SimTime;
use orscope_resolver::paper::Year;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

const SCALE: f64 = 1000.0;

/// The campaign, and every record a tap lane on its bus carried.
fn tapped() -> &'static (CampaignResult, Vec<Record>) {
    static RUN: OnceLock<(CampaignResult, Vec<Record>)> = OnceLock::new();
    RUN.get_or_init(|| {
        let bus = Arc::new(RecordBus::new());
        let lane = bus.subscribe(1 << 16);
        let result = Campaign::new(CampaignConfig::new(Year::Y2018, SCALE))
            .with_bus(bus)
            .run()
            .unwrap();
        let records: Vec<Record> = std::iter::from_fn(|| lane.try_recv()).collect();
        assert_eq!(lane.dropped(), 0, "the lane held every record");
        (result, records)
    })
}

fn result() -> &'static CampaignResult {
    &tapped().0
}

/// De-scaled measured count.
fn up(measured: u64) -> u64 {
    result().dataset().descale(measured)
}

#[test]
fn r2_total_matches_paper() {
    assert_eq!(up(result().dataset().r2()), 6_506_000);
}

#[test]
fn q2_r1_volume_matches_table_2() {
    let ds = result().dataset();
    assert_eq!(ds.q2, ds.r1, "every Q2 is answered by one R1");
    let measured = up(ds.q2) as f64;
    let paper = 13_049_863.0;
    assert!(
        (measured / paper - 1.0).abs() < 0.01,
        "Q2 {measured} vs paper {paper}"
    );
}

#[test]
fn table_3_within_one_percent() {
    let m = result().table3_measured().0;
    for (name, paper, measured) in [
        ("W/O", 3_642_109u64, up(m.wo)),
        ("W_corr", 2_752_562, up(m.w_corr)),
        ("W_incorr", 111_093, up(m.w_incorr)),
    ] {
        let ratio = measured as f64 / paper as f64;
        assert!((ratio - 1.0).abs() < 0.01, "{name}: {measured} vs {paper}");
    }
    assert!((m.err_pct() - 3.879).abs() < 0.3, "Err% {}", m.err_pct());
}

#[test]
fn table_4_ra_inversion() {
    let t = result().table4_measured().0;
    // RA=0 responses that carry answers are overwhelmingly wrong (94%).
    assert!(t.flag0.err_pct() > 85.0, "RA0 err {}", t.flag0.err_pct());
    // RA=1 answers are mostly right.
    assert!(t.flag1.err_pct() < 3.0, "RA1 err {}", t.flag1.err_pct());
    // Marginals within 2%.
    assert!((up(t.flag0.total()) as f64 / 3_503_581.0 - 1.0).abs() < 0.02);
    assert!((up(t.flag1.total()) as f64 / 3_002_183.0 - 1.0).abs() < 0.02);
}

#[test]
fn table_5_aa_inversion() {
    let t = result().table5_measured().0;
    // AA=1 answers are mostly wrong (79% in the paper).
    assert!(t.flag1.err_pct() > 60.0, "AA1 err {}", t.flag1.err_pct());
    assert!(t.flag0.err_pct() < 2.0, "AA0 err {}", t.flag0.err_pct());
    // AA=1 is a small minority of all responses (~3.8%).
    let share = t.flag1.total() as f64 / (t.flag0.total() + t.flag1.total()) as f64;
    assert!(share < 0.06, "AA1 share {share}");
}

#[test]
fn table_6_rcode_shape() {
    let t = result().table6_measured();
    // Refused dominates the no-answer column.
    let (_, refused_wo) = t.get(Rcode::Refused);
    let (_, servfail_wo) = t.get(Rcode::ServFail);
    let (_, nxdomain_wo) = t.get(Rcode::NXDomain);
    assert!(refused_wo > 10 * servfail_wo);
    assert!(servfail_wo > nxdomain_wo);
    // NoError dominates the with-answer column; a sliver of nonzero
    // rcodes with answers exists (the paper's 2,715).
    let (noerror_w, _) = t.get(Rcode::NoError);
    let (servfail_w, _) = t.get(Rcode::ServFail);
    assert!(noerror_w > 500 * servfail_w.max(1));
    assert!(
        servfail_w >= 1,
        "nonzero-rcode-with-answer survives scaling"
    );
    // NotAuth grew to ~80k in 2018.
    let (_, notauth_wo) = t.get(Rcode::NotAuth);
    assert!((up(notauth_wo) as f64 / 80_032.0 - 1.0).abs() < 0.05);
}

#[test]
fn table_7_ip_form_dominates() {
    let t = result().table7_measured();
    assert!(t.ip_r2 > 100 * (t.url_r2 + t.string_r2).max(1));
    assert_eq!(t.na_r2, 0, "2018 had no undecodable answers");
    assert!((up(t.ip_r2) as f64 / 110_790.0 - 1.0).abs() < 0.02);
}

#[test]
fn table_8_top_answers() {
    let t = result().table8_measured();
    // The hosting-parker tops the list, the malware pair right behind.
    assert_eq!(t.rows[0].ip.to_string(), "216.194.64.193");
    assert_eq!(t.rows[0].org, "Tera-byte Dot Com");
    assert_eq!(t.rows[0].reports, "N");
    let second = &t.rows[1];
    assert_eq!(second.ip.to_string(), "74.220.199.15");
    assert_eq!(second.reports, "Y");
    // Rank-1 ~1.8x rank-2, as in the paper (23,692 vs 13,369).
    let ratio = t.rows[0].count as f64 / second.count as f64;
    assert!((1.2..2.6).contains(&ratio), "rank ratio {ratio}");
}

#[test]
fn table_9_category_shape() {
    let t = result().table9_measured();
    let malware = &t.rows[0];
    let phishing = &t.rows[1];
    assert!(malware.r2 > 5 * phishing.r2.max(1), "malware dominates R2");
    // Malware ~86% of malicious packets.
    let share = malware.r2 as f64 / t.total_r2() as f64;
    assert!((0.75..0.95).contains(&share), "malware share {share}");
    // Total malicious ~26,926.
    assert!((up(t.total_r2()) as f64 / 26_926.0 - 1.0).abs() < 0.05);
}

#[test]
fn table_10_malicious_flag_inversion() {
    let t = result().table10_measured();
    let total = t.total() as f64;
    assert!(
        t.ra[0] as f64 / total > 0.6,
        "RA0 share {}",
        t.ra[0] as f64 / total
    );
    assert!(
        t.aa[1] as f64 / total > 0.6,
        "AA1 share {}",
        t.aa[1] as f64 / total
    );
    assert_eq!(t.nonzero_rcode, 0, "all malicious responses claim NoError");
}

#[test]
fn countries_us_dominates() {
    let t = result().countries_measured();
    let us = t.get("US") as f64;
    let total = t.total() as f64;
    assert!(
        (0.7..0.92).contains(&(us / total)),
        "US share {}",
        us / total
    );
    assert!(t.get("IN") > t.get("HK"), "India second in 2018");
}

#[test]
fn empty_question_packets_survive() {
    // 494 / 1000 rounds to 0-1 per cell but the total cells sum to ~0.5k;
    // at this scale we expect approximately 0.494 * ... -> ~0-1 packets;
    // verify the dataset machinery handles whatever appeared.
    let report = result().empty_question_measured();
    let expected = (494.0_f64 / SCALE).round() as u64;
    assert!(
        report.total.abs_diff(expected) <= 1,
        "empty-question count {} vs ~{expected}",
        report.total
    );
}

#[test]
fn report_deviations_are_bounded() {
    for report in result().table_reports() {
        for comparison in &report.comparisons {
            // Fast mode reduces Q1 by design; unique-value counts are
            // sub-linear under scaling.
            if comparison.name == "Q1"
                || comparison.name.contains("unique")
                || comparison.name.contains("scale-sensitive")
            {
                continue;
            }
            // Rows the paper populates with >= 10,000 packets must
            // reproduce within 15% at this scale (smaller cells scale
            // to a handful of packets where rounding dominates).
            if comparison.paper >= 10_000.0 {
                assert!(comparison.within(0.15), "{}: {comparison}", report.title);
            }
        }
    }
}

#[test]
fn blind_spot_and_reuse_bookkeeping() {
    let stats = result().dataset().probe_stats;
    assert!(stats.done);
    assert_eq!(stats.off_port_dropped, 0, "no off-port hosts configured");
    assert!(stats.subdomains_reused > 0, "reuse engaged");
    assert!(
        stats.clusters_used <= 4,
        "reuse kept the scan within the paper's 4 clusters, got {}",
        stats.clusters_used
    );
}

/// Total variation distance between two count vectors after
/// normalization, `0.5 * sum_i |p_i - q_i|`: 0 for the same shape, 1 for
/// disjoint support.
fn total_variation(paper: &[u64], measured: &[u64]) -> f64 {
    assert_eq!(paper.len(), measured.len(), "length mismatch");
    let (sp, sm) = (
        paper.iter().sum::<u64>() as f64,
        measured.iter().sum::<u64>() as f64,
    );
    if sp == 0.0 || sm == 0.0 {
        return if sp == sm { 0.0 } else { 1.0 };
    }
    0.5 * paper
        .iter()
        .zip(measured)
        .map(|(&p, &m)| (p as f64 / sp - m as f64 / sm).abs())
        .sum::<f64>()
}

#[test]
fn distribution_fit_is_tight() {
    use orscope_analysis::tables::{Table6, Table9};
    use orscope_resolver::paper::YearSpec;
    let spec = YearSpec::get(Year::Y2018);

    // Table VI: the full rcode x answer-presence distribution.
    let (m6, p6) = (result().table6_measured(), Table6::paper(&spec));
    let flat = |t: &Table6| -> Vec<u64> { t.rows.iter().flat_map(|&(_, w, wo)| [w, wo]).collect() };
    let tvd6 = total_variation(&flat(&p6), &flat(&m6));
    assert!(tvd6 < 0.01, "Table VI TVD {tvd6}");

    // Table IX: the malicious category split.
    let (m9, p9) = (result().table9_measured(), Table9::paper(&spec));
    let cat = |t: &Table9| -> Vec<u64> { t.rows.iter().map(|r| r.r2).collect() };
    let tvd9 = total_variation(&cat(&p9), &cat(&m9));
    assert!(tvd9 < 0.05, "Table IX TVD {tvd9}");

    // Country distribution.
    let pc = orscope_analysis::tables::CountryTable::paper(&spec);
    let mc = result().countries_measured();
    let (mut ps, mut ms) = (Vec::new(), Vec::new());
    for (code, n) in &pc.rows {
        ps.push(*n);
        ms.push(mc.get(code));
    }
    let tvdc = total_variation(&ps, &ms);
    assert!(tvdc < 0.05, "country TVD {tvdc}");
}

/// One flow's timeline as the tap lane saw it.
#[derive(Default)]
struct Timeline {
    q1_r2: Option<(SimTime, SimTime)>,
    q2_at: Vec<SimTime>,
    r1_at: Vec<SimTime>,
}

/// The qname join of section III-B over the tap lane's records.
fn timelines() -> BTreeMap<ProbeLabel, Timeline> {
    let zone = &result().config().infra.zone;
    let mut flows: BTreeMap<ProbeLabel, Timeline> = BTreeMap::new();
    for record in &tapped().1 {
        match &record.captured {
            Captured::R2(capture) => {
                let label = capture
                    .label
                    .or_else(|| ProbeLabel::parse(&capture.qname, zone))
                    .expect("an R2 names its probe");
                let flow = flows.entry(label).or_default();
                assert!(flow.q1_r2.is_none(), "{label} captured twice");
                flow.q1_r2 = Some((capture.sent_at, capture.at));
            }
            Captured::Auth(packet) => {
                let query = Message::decode(&packet.payload).expect("the server logs DNS");
                let qname = query.first_question().expect("a question").qname();
                let label = ProbeLabel::parse(qname, zone).expect("no foreign traffic");
                let flow = flows.entry(label).or_default();
                match packet.direction {
                    Direction::Inbound => flow.q2_at.push(packet.at),
                    Direction::Outbound => flow.r1_at.push(packet.at),
                }
            }
        }
    }
    for flow in flows.values_mut() {
        flow.q2_at.sort_unstable();
        flow.r1_at.sort_unstable();
    }
    flows
}

#[test]
fn flow_matching_reconstructs_the_q2_fanout() {
    // The qname join of section III-B, end to end: every recursing
    // responder's flow must show the full Q1 -> Q2 -> R1 -> R2 timeline,
    // and the mean Q2 fan-out must equal the Table II calibration
    // (13,049,863 / 2,752,562 = 4.74).
    let flows = result().flows();
    assert_eq!(flows.foreign_auth_packets, 0);
    let fanout = flows.mean_q2_fanout();
    assert!(
        (fanout - 4.74).abs() < 0.05,
        "mean Q2 fan-out {fanout} vs 4.74"
    );
    // Recursing flows = the correct-answer population (all recursers
    // succeed without loss).
    let expected = (2_752_562.0_f64 / SCALE).round() as u64;
    assert_eq!(flows.recursed_count(), expected);
    // The same campaign's records, joined here, agree with the summary
    // and show ordered timelines: Q1 <= every Q2 <= matching R1 <= R2.
    let timelines = timelines();
    let recursed: Vec<&Timeline> = timelines.values().filter(|f| !f.q2_at.is_empty()).collect();
    assert_eq!(recursed.len() as u64, expected);
    let q2: usize = recursed.iter().map(|f| f.q2_at.len()).sum();
    assert_eq!(q2 as f64 / recursed.len() as f64, fanout);
    for flow in recursed {
        let (q1, r2) = flow.q1_r2.expect("a recursing flow was answered");
        for (&q2, &r1) in flow.q2_at.iter().zip(&flow.r1_at) {
            assert!(q1 <= q2 && q2 <= r1, "{:?} {:?}", flow.q2_at, flow.r1_at);
        }
        // The first authoritative answer precedes the prober's R2.
        assert!(flow.r1_at[0] <= r2);
        assert!(q1 < r2);
    }
    // The median is the joined flows' median Q1 -> R2, and sits in the
    // tens-of-ms band the latency model produces for a 3-leg recursion.
    let mut latencies: Vec<u64> = timelines
        .values()
        .filter_map(|f| f.q1_r2)
        .map(|(q1, r2)| r2.as_nanos() - q1.as_nanos())
        .collect();
    latencies.sort_unstable();
    let median = flows.latency_quantile(0.5).unwrap();
    let middle = latencies[((latencies.len() - 1) as f64 * 0.5).round() as usize];
    assert_eq!(median, std::time::Duration::from_nanos(middle));
    assert!(
        (std::time::Duration::from_millis(50)..std::time::Duration::from_millis(2_000))
            .contains(&median),
        "median {median:?}"
    );
}

#[test]
fn calibration_is_robust_across_seeds() {
    // The cells are deterministic data; the seed only moves addresses
    // and value synthesis. Any seed must reproduce the same totals and
    // the same flag shapes.
    for seed in [1u64, 0xFEED_BEEF, u64::MAX / 3] {
        let run = Campaign::new(CampaignConfig::new(Year::Y2018, 5_000.0).with_seed(seed))
            .run()
            .unwrap();
        assert_eq!(
            run.dataset().r2(),
            (6_506_258.0_f64 / 5_000.0).round() as u64
        );
        let t3 = run.table3_measured().0;
        assert!(
            (t3.err_pct() - 3.879).abs() < 0.6,
            "seed {seed}: Err% {}",
            t3.err_pct()
        );
        let t10 = run.table10_measured();
        if t10.total() > 0 {
            assert!(t10.aa[1] > t10.aa[0], "seed {seed}: AA inversion holds");
        }
    }
}
