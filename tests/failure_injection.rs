//! Failure injection across the whole pipeline: packet loss, the ZMap
//! port blind spot, undecodable packets, and empty-question responders
//! must degrade the measurement gracefully, never corrupt it.

use std::collections::HashSet;
use std::sync::Arc;

use orscope_authns::scheme::ProbeLabel;
use orscope_core::{Campaign, CampaignConfig, Captured, RecordBus};
use orscope_resolver::paper::Year;

fn config(scale: f64) -> CampaignConfig {
    CampaignConfig::new(Year::Y2018, scale)
}

#[test]
fn packet_loss_shrinks_r2_proportionally() {
    let baseline = Campaign::new(config(5_000.0)).run().unwrap();
    let lossy_config = config(5_000.0).with_loss(0.25);
    let lossy = Campaign::new(lossy_config).run().unwrap();
    let (b, l) = (baseline.dataset().r2() as f64, lossy.dataset().r2() as f64);
    // A probe-response pair survives two independent 25% drops for
    // immediate responders (~0.56 survival) and more legs for recursers;
    // overall survival should land well below 0.75 and above 0.2.
    let survival = l / b;
    assert!(
        (0.2..0.7).contains(&survival),
        "survival {survival} ({l}/{b})"
    );
}

#[test]
fn loss_makes_recursers_servfail_not_vanish() {
    // With loss only on the upstream side... we cannot scope loss, but
    // we can check that some recursing resolvers still answered
    // ServFail after retries timed out rather than leaving the prober
    // hanging forever: the scan must still drain.
    let cfg = config(5_000.0).with_loss(0.4);
    let result = Campaign::new(cfg).run().unwrap();
    assert!(result.dataset().probe_stats.done, "scan drained");
    // The *share* of ServFail among observed responses rises: failed
    // recursions convert would-be correct answers into ServFail. (The
    // absolute count drops because the R2 itself must survive the lossy
    // return path.)
    let t6 = result.table6_measured();
    let (_, servfail_wo) = t6.get(orscope_dns_wire::Rcode::ServFail);
    let lossy_share = servfail_wo as f64 / result.dataset().r2() as f64;
    let baseline = Campaign::new(config(5_000.0)).run().unwrap();
    let (_, base_servfail) = baseline
        .table6_measured()
        .get(orscope_dns_wire::Rcode::ServFail);
    let base_share = base_servfail as f64 / baseline.dataset().r2() as f64;
    assert!(
        lossy_share > 1.5 * base_share,
        "ServFail share {lossy_share} vs baseline {base_share}"
    );
    // And correct answers fell disproportionately.
    let corr_share = result.table3_measured().0.w_corr as f64 / result.dataset().r2() as f64;
    let base_corr = baseline.table3_measured().0.w_corr as f64 / baseline.dataset().r2() as f64;
    assert!(corr_share < base_corr, "{corr_share} !< {base_corr}");
}

#[test]
fn off_port_responders_hit_the_blind_spot() {
    let cfg = config(5_000.0).with_off_port_responders(40);
    let result = Campaign::new(cfg).run().unwrap();
    let stats = result.dataset().probe_stats;
    assert_eq!(stats.off_port_dropped, 40, "all off-port answers dropped");
    // And none of them contaminated the R2 stream.
    let baseline = Campaign::new(config(5_000.0)).run().unwrap();
    assert_eq!(result.dataset().r2(), baseline.dataset().r2());
}

#[test]
fn blind_spot_underestimates_responder_population() {
    // The §V discussion: a prober that accepted any source port would
    // have seen more responders. Quantify the undercount.
    let cfg = config(5_000.0).with_off_port_responders(100);
    let result = Campaign::new(cfg).run().unwrap();
    let seen = result.dataset().r2();
    let missed = result.dataset().probe_stats.off_port_dropped;
    let undercount = missed as f64 / (seen + missed) as f64;
    assert!(undercount > 0.05, "undercount {undercount}");
}

#[test]
fn malformed_2013_packets_join_analysis_via_header_salvage() {
    let result = Campaign::new(CampaignConfig::new(Year::Y2013, 2_000.0))
        .run()
        .unwrap();
    let t7 = result.table7_measured();
    let expected = (8_764.0_f64 / 2_000.0).round() as u64;
    assert!(
        t7.na_r2.abs_diff(expected) <= 1,
        "N/A {} vs ~{expected}",
        t7.na_r2
    );
    // Their header flags still reached Table IV: they are RA=1 cells.
    assert!(result.table4_measured().0.flag1.w_incorr >= t7.na_r2);
}

#[test]
fn empty_question_responses_are_excluded_from_matched_tables() {
    // At 1:200, the 494 empty-question packets scale to 2-3.
    let result = Campaign::new(config(200.0)).run().unwrap();
    let report = result.empty_question_measured();
    let expected = (494.0_f64 / 200.0).round() as u64;
    assert!(
        report.total.abs_diff(expected) <= 1,
        "empty-question {} vs ~{expected}",
        report.total
    );
    // Matched + empty-question == all R2 (Table III totals the matched
    // packets in both analysis modes).
    let t3 = result.table3_measured().0;
    let matched = t3.wo + t3.w_corr + t3.w_incorr;
    assert_eq!(matched + report.total, result.dataset().r2());
    // Their RA distribution leans RA=1 with answers, as in §IV-B4.
    if report.with_answer > 0 {
        assert!(report.ra1 > 0);
    }
}

#[test]
fn loss_does_not_break_determinism_or_double_count() {
    let cfg = config(10_000.0).with_loss(0.3);
    let a = Campaign::new(cfg.clone()).run().unwrap();
    let b = Campaign::new(cfg).run().unwrap();
    assert_eq!(a.dataset().r2(), b.dataset().r2());
    assert_eq!(a.dataset().q2, b.dataset().q2);
    // R2 never exceeds probes sent.
    assert!(a.dataset().r2() <= a.dataset().q1);
}

#[test]
fn forwarder_population_preserves_table_3() {
    // Replacing 10% of honest resolvers with CPE forwarders behind
    // shared upstreams must not change the classified tables: the
    // relayed answers are still correct, RA=1, NoError.
    let cfg = config(2_000.0).with_forwarder_fraction(0.10);
    let with_forwarders = Campaign::new(cfg).run().unwrap();
    let baseline = Campaign::new(config(2_000.0)).run().unwrap();
    let (m, b) = (
        with_forwarders.table3_measured().0,
        baseline.table3_measured().0,
    );
    assert_eq!(m.wo, b.wo);
    assert_eq!(m.w_corr, b.w_corr, "forwarded answers classify as correct");
    assert_eq!(m.w_incorr, b.w_incorr);
    // The forwarders really relayed: upstream hosts saw traffic.
    assert!(!with_forwarders.population().upstreams.is_empty());
}

#[test]
fn duplicated_packets_do_not_inflate_r2() {
    // UDP duplication: the prober's qname-keyed matching retires each
    // probe on its first response, so a duplicated R2 lands in
    // `unmatched` rather than double-counting a responder — and the
    // resolvers' pending tables likewise absorb duplicated upstream
    // answers. The classified tables must be identical to the baseline.
    let cfg = config(5_000.0).with_duplication(0.5);
    let duplicated = Campaign::new(cfg).run().unwrap();
    let baseline = Campaign::new(config(5_000.0)).run().unwrap();
    assert_eq!(duplicated.dataset().r2(), baseline.dataset().r2());
    assert_eq!(
        duplicated.table3_measured().0,
        baseline.table3_measured().0,
        "classification is immune to duplication"
    );
    let stats = duplicated.dataset().probe_stats;
    assert!(stats.unmatched > 0, "duplicate R2s were seen and discarded");
    assert!(duplicated.net_stats().duplicated > 0);
}

#[test]
fn no_label_is_captured_in_two_r2s() {
    // The flow summary keeps one Q1 -> R2 latency an R2, which is one a
    // flow only because a label is captured at most once a campaign.
    // Read every R2 off a tap lane that drops nothing, under loss,
    // duplication, retries, shard counts, both years and full Q1.
    orscope_check::cases(6, |rng| {
        let year = if rng.bool() { Year::Y2013 } else { Year::Y2018 };
        let percent = |n: u64| n as f64 / 100.0;
        let mut cfg = CampaignConfig::new(year, 40_000.0)
            .with_seed(rng.next_u64())
            .with_shards(rng.range(1..5))
            .with_loss(percent(rng.range(0..=30)))
            .with_duplication(percent(rng.range(0..=50)))
            .with_retries(rng.range(0..4));
        if rng.chance(30) {
            cfg = cfg.with_full_q1();
        }
        let zone = cfg.infra.zone.clone();
        let bus = Arc::new(RecordBus::new());
        let lane = bus.subscribe(1 << 15);
        let result = Campaign::new(cfg).with_bus(bus).run().unwrap();
        let mut labels = HashSet::new();
        while let Some(record) = lane.try_recv() {
            if let Captured::R2(capture) = record.captured {
                let label = capture
                    .label
                    .or_else(|| ProbeLabel::parse(&capture.qname, &zone))
                    .expect("a capture names its probe");
                assert!(labels.insert(label), "{label} captured twice");
            }
        }
        assert_eq!(lane.dropped(), 0, "the lane held every record");
        assert_eq!(labels.len() as u64, result.dataset().r2());
    });
}
