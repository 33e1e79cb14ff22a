//! The paper's temporal findings, checked by replaying both scans: the
//! open-resolver population collapsed between 2013 and 2018, yet the
//! absolute volume of wrong answers held steady and malicious
//! redirections more than doubled.

use orscope_core::{Campaign, CampaignConfig, CampaignResult};
use orscope_resolver::paper::Year;
use std::sync::OnceLock;

const SCALE: f64 = 1000.0;

fn results() -> &'static (CampaignResult, CampaignResult) {
    static RESULTS: OnceLock<(CampaignResult, CampaignResult)> = OnceLock::new();
    RESULTS.get_or_init(|| {
        (
            Campaign::new(CampaignConfig::new(Year::Y2013, SCALE))
                .run()
                .unwrap(),
            Campaign::new(CampaignConfig::new(Year::Y2018, SCALE))
                .run()
                .unwrap(),
        )
    })
}

#[test]
fn r2_collapsed_to_two_fifths() {
    let (r13, r18) = results();
    let ratio = r18.dataset().r2() as f64 / r13.dataset().r2() as f64;
    // 6.5M / 16.7M = 0.39.
    assert!((0.34..0.45).contains(&ratio), "R2 ratio {ratio}");
}

#[test]
fn answers_with_dns_answer_dropped_four_fold() {
    let (r13, r18) = results();
    let (w13, w18) = (r13.table3_measured().0.w(), r18.table3_measured().0.w());
    let ratio = w18 as f64 / w13 as f64;
    // 2.9M / 11.8M = 0.24.
    assert!((0.2..0.3).contains(&ratio), "W ratio {ratio}");
}

#[test]
fn incorrect_answers_held_steady() {
    let (r13, r18) = results();
    let (i13, i18) = (
        r13.table3_measured().0.w_incorr,
        r18.table3_measured().0.w_incorr,
    );
    let ratio = i18 as f64 / i13 as f64;
    // ~110k both years.
    assert!((0.8..1.1).contains(&ratio), "incorrect ratio {ratio}");
}

#[test]
fn error_rate_quadrupled() {
    let (r13, r18) = results();
    let (e13, e18) = (
        r13.table3_measured().0.err_pct(),
        r18.table3_measured().0.err_pct(),
    );
    assert!((0.9..1.2).contains(&e13), "2013 Err% {e13}");
    assert!((3.5..4.3).contains(&e18), "2018 Err% {e18}");
    assert!(e18 / e13 > 3.0, "error-rate growth {}", e18 / e13);
}

#[test]
fn malicious_redirections_more_than_doubled() {
    let (r13, r18) = results();
    let (m13, m18) = (
        r13.table9_measured().total_r2(),
        r18.table9_measured().total_r2(),
    );
    // 12,874 -> 26,926 (x2.09).
    let ratio = m18 as f64 / m13 as f64;
    assert!((1.7..2.5).contains(&ratio), "malicious growth {ratio}");
}

#[test]
fn phishing_exploded_seven_fold_in_unique_addresses() {
    let (r13, r18) = results();
    let find = |r: &CampaignResult| {
        r.table9_measured()
            .rows
            .iter()
            .find(|row| row.category == orscope_lookup::threatintel::Category::Phishing)
            .map(|row| row.r2)
            .unwrap_or(0)
    };
    // Packet volumes: 1,092 -> 2,878 (x2.6). Unique addresses grew 19 ->
    // 125, but uniques are sub-linear at scale, so assert on packets.
    let (p13, p18) = (find(r13), find(r18));
    assert!(
        p18 as f64 / p13.max(1) as f64 > 1.8,
        "phishing growth {p13} -> {p18}"
    );
}

#[test]
fn us_share_fell_but_us_count_rose() {
    let (r13, r18) = results();
    let (c13, c18) = (r13.countries_measured(), r18.countries_measured());
    let (us13, us18) = (c13.get("US"), c18.get("US"));
    let (share13, share18) = (
        us13 as f64 / c13.total() as f64,
        us18 as f64 / c18.total() as f64,
    );
    assert!(share13 > 0.93, "2013 US share {share13}");
    assert!((0.7..0.9).contains(&share18), "2018 US share {share18}");
    assert!(
        us18 > us13,
        "US raw count must still rise: {us13} -> {us18}"
    );
}

#[test]
fn malformed_answers_only_in_2013() {
    let (r13, r18) = results();
    assert!(r13.table7_measured().na_r2 > 0, "2013 N/A packets present");
    assert_eq!(r18.table7_measured().na_r2, 0);
}

#[test]
fn scan_durations_scale_with_rate() {
    // 2013's C-based prober ran ~17x slower than 2018's ZMap. In fast
    // mode the probe count is proportional to each year's responder
    // population (2.56x more in 2013), so the expected duration ratio is
    // (targets13/rate13) / (targets18/rate18).
    let (r13, r18) = results();
    let expected = (r13.dataset().q1 as f64 / 5_903.0 * 1000.0)
        / (r18.dataset().q1 as f64 / 100_000.0 * 1000.0);
    let ratio = r13.dataset().duration_secs / r18.dataset().duration_secs;
    assert!(
        (ratio / expected - 1.0).abs() < 0.25,
        "duration ratio {ratio}, expected ~{expected}"
    );
}

/// One scan's abstract-level counts, de-scaled to paper scale:
/// responders, strict open resolvers (RA=1 with a correct answer, the
/// §IV-B1 estimate), incorrect answers and threat-reported answers.
fn headline(r: &CampaignResult) -> [u64; 4] {
    let ds = r.dataset();
    [
        ds.r2(),
        r.table4_measured().0.flag1.w_corr,
        r.table3_measured().0.w_incorr,
        r.table9_measured().total_r2(),
    ]
    .map(|measured| ds.descale(measured))
}

#[test]
fn abstract_claims_reproduce_end_to_end() {
    // The paper's abstract, recomputed from the two measured datasets.
    let (r13, r18) = results();
    let [responders13, strict13, incorrect13, malicious13] = headline(r13);
    let [responders18, strict18, incorrect18, malicious18] = headline(r18);
    // Millions of open resolvers still exist...
    assert!(
        strict18 >= 1_000_000,
        "2018 strict open resolvers {strict18}"
    );
    // ...though the population at least halved,
    assert!(
        responders18 * 2 <= responders13,
        "responders {responders13} -> {responders18}"
    );
    // incorrect answers held within a factor of two,
    assert!(
        incorrect13.max(incorrect18) <= 2 * incorrect13.min(incorrect18),
        "incorrect answers {incorrect13} -> {incorrect18}"
    );
    // and malicious answers grew.
    assert!(
        malicious18 > malicious13,
        "malicious answers {malicious13} -> {malicious18}"
    );
    // The strict open-resolver estimates land on §IV-B1's figures:
    // ~11.5M in 2013 and ~2.74M in 2018.
    assert!(
        (strict13 as f64 / 11_505_481.0 - 1.0).abs() < 0.02,
        "{strict13}"
    );
    assert!(
        (strict18 as f64 / 2_748_568.0 - 1.0).abs() < 0.02,
        "{strict18}"
    );
}
