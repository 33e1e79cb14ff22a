//! Campaign results: tables, comparisons, and rendering.

use orscope_analysis::tables::{
    AmplificationTable, AsnTable, CountryTable, EmptyQuestionReport, Table10, Table2, Table3,
    Table4, Table5, Table6, Table7, Table8, Table9,
};
use orscope_analysis::{Comparison, Dataset, FlowSummary, StreamingAnalyzer, TableReport};
use orscope_authns::CapturedPacket;
use orscope_json::Wire;
use orscope_lookup::geo::GeoDb;
use orscope_lookup::threatintel::ThreatDb;
use orscope_netsim::NetStats;
use orscope_resolver::paper::YearSpec;
use orscope_resolver::population::Population;
use orscope_telemetry::TelemetrySnapshot;

use crate::campaign::{CampaignConfig, Materialized};
use crate::error::DegradedReport;

/// Everything a finished campaign produced.
#[derive(Debug)]
pub struct CampaignResult {
    config: CampaignConfig,
    spec: YearSpec,
    dataset: Dataset,
    threat: ThreatDb,
    geo: GeoDb,
    /// Shared with each shard's target plan while the scan runs.
    population: std::sync::Arc<Population>,
    net_stats: NetStats,
    materialized: Materialized,
    auth_packets: Vec<CapturedPacket>,
    telemetry: TelemetrySnapshot,
    degraded: Option<DegradedReport>,
    /// Streaming accumulators when the campaign ran in
    /// [`orscope_analysis::AnalysisMode::Streaming`]; `None` means every
    /// table computes from the buffered `dataset` (batch mode).
    stream: Option<StreamingAnalyzer>,
    /// The four-flow join, finished once at construction: drained out
    /// of the streaming accumulators, or folded from the classified
    /// records in batch mode.
    flows: FlowSummary,
}

impl CampaignResult {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        config: CampaignConfig,
        spec: YearSpec,
        dataset: Dataset,
        threat: ThreatDb,
        geo: GeoDb,
        population: std::sync::Arc<Population>,
        net_stats: NetStats,
        materialized: Materialized,
        auth_packets: Vec<CapturedPacket>,
        telemetry: TelemetrySnapshot,
        degraded: Option<DegradedReport>,
        mut stream: Option<StreamingAnalyzer>,
    ) -> Self {
        let flows = match stream.as_mut() {
            Some(stream) => stream.take_flows(),
            None => FlowSummary::from_records(&dataset.records, &auth_packets, &config.infra.zone),
        };
        Self {
            config,
            spec,
            dataset,
            threat,
            geo,
            population,
            net_stats,
            materialized,
            auth_packets,
            telemetry,
            degraded,
            stream,
            flows,
        }
    }

    /// Supervision report: present when any shard panicked (whether it
    /// recovered on retry or failed permanently). `None` for a clean
    /// run.
    pub fn degraded(&self) -> Option<&DegradedReport> {
        self.degraded.as_ref()
    }

    /// True when at least one shard failed permanently, so every count
    /// in this result undercounts the configured scan.
    pub fn is_partial(&self) -> bool {
        self.degraded
            .as_ref()
            .is_some_and(DegradedReport::is_partial)
    }

    /// The campaign configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The paper specification this campaign reproduces.
    pub fn spec(&self) -> &YearSpec {
        &self.spec
    }

    /// The classified dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The threat-intelligence database used for validation.
    pub fn threat_db(&self) -> &ThreatDb {
        &self.threat
    }

    /// The geolocation database.
    pub fn geo_db(&self) -> &GeoDb {
        &self.geo
    }

    /// The generated population.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// Simulator counters for the run.
    pub fn net_stats(&self) -> &NetStats {
        &self.net_stats
    }

    /// Peak live lazily-materialized hosts, summed over shards. At paper
    /// scale this stays orders of magnitude below the population size —
    /// the number that makes `scale == 1.0` fit in memory.
    pub fn materialized_hosts(&self) -> usize {
        self.materialized.peak
    }

    /// Lazy materializations, summed over shards. A fault-free run
    /// releases every host that goes quiescent and rebuilds one only
    /// for an event it would act on — a query; the late R1s and spent
    /// upstream timeouts that trail a finished resolution are settled
    /// without a host — so a scan, which asks each responder once,
    /// materializes each responder once. That is still many times
    /// [`CampaignResult::materialized_hosts`], the few live at a time.
    pub fn materializations(&self) -> u64 {
        self.materialized.total
    }

    /// The authoritative server's raw Q2/R1 capture.
    pub fn auth_packets(&self) -> &[CapturedPacket] {
        &self.auth_packets
    }

    /// The merged telemetry snapshot. Always `Some`: the `Option` is in
    /// the signature `orbench/` compiles against (ROADMAP item 1).
    /// Global-scope metrics in it are shard-invariant; shard-scope
    /// metrics and spans describe this particular execution.
    pub fn telemetry(&self) -> Option<&TelemetrySnapshot> {
        Some(&self.telemetry)
    }

    /// The qname-keyed Q1/Q2/R1/R2 join of section III-B, as the
    /// figures the report reads: recursing flows, Q2 fan-out and
    /// resolution latency. In streaming mode it was folded at capture
    /// time; in batch mode from the classified records when the result
    /// was assembled.
    pub fn flows(&self) -> &FlowSummary {
        &self.flows
    }

    /// Measured Table II.
    pub(crate) fn table2_measured(&self) -> Table2 {
        Table2::measured(&self.dataset)
    }

    /// Measured Table III.
    pub fn table3_measured(&self) -> Table3 {
        match &self.stream {
            Some(stream) => stream.table3(),
            None => Table3::measured(&self.dataset),
        }
    }

    /// Measured Table IV.
    pub fn table4_measured(&self) -> Table4 {
        match &self.stream {
            Some(stream) => stream.table4(),
            None => Table4::measured(&self.dataset),
        }
    }

    /// Measured Table V.
    pub fn table5_measured(&self) -> Table5 {
        match &self.stream {
            Some(stream) => stream.table5(),
            None => Table5::measured(&self.dataset),
        }
    }

    /// Measured Table VI.
    pub fn table6_measured(&self) -> Table6 {
        match &self.stream {
            Some(stream) => stream.table6(),
            None => Table6::measured(&self.dataset),
        }
    }

    /// Measured Table VII.
    pub fn table7_measured(&self) -> Table7 {
        match &self.stream {
            Some(stream) => stream.table7(),
            None => Table7::measured(&self.dataset),
        }
    }

    /// Measured Table VIII (top-10).
    pub fn table8_measured(&self) -> Table8 {
        match &self.stream {
            Some(stream) => stream.table8(&self.geo, &self.threat, 10),
            None => Table8::measured(&self.dataset, &self.geo, &self.threat, 10),
        }
    }

    /// Measured Table IX.
    pub fn table9_measured(&self) -> Table9 {
        match &self.stream {
            Some(stream) => stream.table9(&self.threat),
            None => Table9::measured(&self.dataset, &self.threat),
        }
    }

    /// Measured Table X.
    pub fn table10_measured(&self) -> Table10 {
        match &self.stream {
            Some(stream) => stream.table10(&self.threat),
            None => Table10::measured(&self.dataset, &self.threat),
        }
    }

    /// Measured country distribution.
    pub fn countries_measured(&self) -> CountryTable {
        match &self.stream {
            Some(stream) => stream.countries(&self.geo, &self.threat),
            None => CountryTable::measured(&self.dataset, &self.geo, &self.threat),
        }
    }

    /// Measured AS distribution of malicious resolvers.
    pub(crate) fn asns_measured(&self) -> AsnTable {
        match &self.stream {
            Some(stream) => stream.asns(&self.geo, &self.threat),
            None => AsnTable::measured(&self.dataset, &self.geo, &self.threat),
        }
    }

    /// Measured amplification exposure of the responding population.
    pub(crate) fn amplification_measured(&self) -> AmplificationTable {
        match &self.stream {
            Some(stream) => stream.amplification(),
            None => AmplificationTable::measured(&self.dataset),
        }
    }

    /// Measured empty-question report.
    pub fn empty_question_measured(&self) -> EmptyQuestionReport {
        match &self.stream {
            Some(stream) => stream.empty_question(),
            None => EmptyQuestionReport::measured(&self.dataset),
        }
    }

    /// De-scales a measured count to paper scale.
    fn up(&self, measured: u64) -> u64 {
        self.dataset.descale(measured)
    }

    /// Builds the full paper-vs-measured report, one block per table.
    ///
    /// Measured counts are de-scaled back to paper scale so the ratios
    /// are directly interpretable; in fast mode the Table II Q1/duration
    /// rows reflect the reduced probe space and are flagged in the
    /// title.
    pub fn table_reports(&self) -> Vec<TableReport> {
        let spec = &self.spec;
        let mut reports = Vec::new();

        // Table II.
        let mut t2 = TableReport::new(if self.config.full_q1 {
            "Table II (probe summary)".to_owned()
        } else {
            "Table II (probe summary; fast mode, Q1/duration reduced)".to_owned()
        });
        let m2 = self.table2_measured();
        let p2 = Table2::paper(spec);
        t2.push(Comparison::counts("Q1", p2.q1, self.up(m2.q1)));
        t2.push(Comparison::counts("Q2,R1", p2.q2_r1, self.up(m2.q2_r1)));
        t2.push(Comparison::counts("R2", p2.r2, self.up(m2.r2)));
        reports.push(t2);

        // Table III.
        let mut t3 = TableReport::new("Table III (answer presence and correctness)");
        let m3 = self.table3_measured().0;
        let p3 = Table3::paper(spec).0;
        t3.push(Comparison::counts("W/O", p3.wo, self.up(m3.wo)));
        t3.push(Comparison::counts("W_corr", p3.w_corr, self.up(m3.w_corr)));
        t3.push(Comparison::counts(
            "W_incorr",
            p3.w_incorr,
            self.up(m3.w_incorr),
        ));
        t3.push(Comparison::ratios("Err%", p3.err_pct(), m3.err_pct()));
        reports.push(t3);

        // Tables IV and V.
        for (name, measured, paper) in [
            (
                "Table IV (RA flag)",
                self.table4_measured().0,
                Table4::paper(spec).0,
            ),
            (
                "Table V (AA flag)",
                self.table5_measured().0,
                Table5::paper(spec).0,
            ),
        ] {
            let mut rep = TableReport::new(name);
            for (bit, m, p) in [
                (0, measured.flag0, paper.flag0),
                (1, measured.flag1, paper.flag1),
            ] {
                rep.push(Comparison::counts(
                    format!("bit{bit} W/O"),
                    p.wo,
                    self.up(m.wo),
                ));
                rep.push(Comparison::counts(
                    format!("bit{bit} W_corr"),
                    p.w_corr,
                    self.up(m.w_corr),
                ));
                rep.push(Comparison::counts(
                    format!("bit{bit} W_incorr"),
                    p.w_incorr,
                    self.up(m.w_incorr),
                ));
            }
            reports.push(rep);
        }

        // Table VI.
        let mut t6 = TableReport::new("Table VI (rcode distribution)");
        let m6 = self.table6_measured();
        let p6 = Table6::paper(spec);
        for (rcode, pw, pwo) in &p6.rows {
            let (mw, mwo) = m6.get(*rcode);
            t6.push(Comparison::counts(format!("{rcode} W"), *pw, self.up(mw)));
            t6.push(Comparison::counts(
                format!("{rcode} W/O"),
                *pwo,
                self.up(mwo),
            ));
        }
        reports.push(t6);

        // Table VII.
        let mut t7 = TableReport::new("Table VII (incorrect answer forms)");
        let m7 = self.table7_measured();
        let p7 = Table7::paper(spec);
        t7.push(Comparison::counts("IP #R2", p7.ip_r2, self.up(m7.ip_r2)));
        // Unique-value counts do not scale linearly (they are capped by
        // the number of draws); reported for information only.
        t7.push(Comparison::counts(
            "IP #unique (sub-linear)",
            p7.ip_unique,
            self.up(m7.ip_unique),
        ));
        t7.push(Comparison::counts("URL #R2", p7.url_r2, self.up(m7.url_r2)));
        t7.push(Comparison::counts(
            "string #R2",
            p7.string_r2,
            self.up(m7.string_r2),
        ));
        t7.push(Comparison::counts("N/A #R2", p7.na_r2, self.up(m7.na_r2)));
        reports.push(t7);

        // Table VIII.
        let mut t8 = TableReport::new("Table VIII (top-10 incorrect IPs)");
        let m8 = self.table8_measured();
        let p8 = Table8::paper(spec);
        // A top-k statistic is scale-sensitive: coarse scales concentrate
        // the long tail onto few addresses that then enter the top-10.
        t8.push(Comparison::counts(
            "top-10 total (scale-sensitive)",
            p8.total(),
            self.up(m8.total()),
        ));
        for (i, prow) in p8.rows.iter().enumerate() {
            let measured = m8
                .rows
                .iter()
                .find(|r| r.ip == prow.ip)
                .map(|r| r.count)
                .unwrap_or(0);
            t8.push(Comparison::counts(
                format!("rank{} {}", i + 1, prow.ip),
                prow.count,
                self.up(measured),
            ));
        }
        reports.push(t8);

        // Table IX.
        let mut t9 = TableReport::new("Table IX (malicious categories)");
        let m9 = self.table9_measured();
        let p9 = Table9::paper(spec);
        for (prow, mrow) in p9.rows.iter().zip(&m9.rows) {
            debug_assert_eq!(prow.category, mrow.category);
            t9.push(Comparison::counts(
                format!("{} #R2", prow.category),
                prow.r2,
                self.up(mrow.r2),
            ));
        }
        t9.push(Comparison::counts(
            "total #R2",
            p9.total_r2(),
            self.up(m9.total_r2()),
        ));
        reports.push(t9);

        // Table X.
        let mut t10 = TableReport::new("Table X (flags on malicious responses)");
        let m10 = self.table10_measured();
        let p10 = Table10::paper(spec);
        for (name, p, m) in [
            ("RA0", p10.ra[0], m10.ra[0]),
            ("RA1", p10.ra[1], m10.ra[1]),
            ("AA0", p10.aa[0], m10.aa[0]),
            ("AA1", p10.aa[1], m10.aa[1]),
        ] {
            t10.push(Comparison::counts(name, p, self.up(m)));
        }
        reports.push(t10);

        // Countries.
        let mut tc = TableReport::new("Section IV-C2 (malicious resolver countries)");
        let mc = self.countries_measured();
        let pc = CountryTable::paper(spec);
        for (code, pcount) in pc.rows.iter().take(6) {
            tc.push(Comparison::counts(
                format!("country {code}"),
                *pcount,
                self.up(mc.get(code)),
            ));
        }
        reports.push(tc);

        // Empty-question.
        let mut te = TableReport::new("Section IV-B4 (empty-question responses)");
        let me = self.empty_question_measured();
        let pe = EmptyQuestionReport::paper(spec);
        te.push(Comparison::counts("total", pe.total, self.up(me.total)));
        te.push(Comparison::counts(
            "with answer",
            pe.with_answer,
            self.up(me.with_answer),
        ));
        te.push(Comparison::counts("RA=1", pe.ra1, self.up(me.ra1)));
        reports.push(te);

        reports
    }

    /// Renders the full report as text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} campaign @ 1:{} (seed {:#x})",
            self.spec.year, self.config.scale, self.config.seed
        );
        if let Some(degraded) = &self.degraded {
            let _ = writeln!(out, "{degraded}");
        }
        let _ = writeln!(out, "Table II  : {}", self.table2_measured());
        let _ = writeln!(out, "Table III : {}", self.table3_measured());
        let _ = writeln!(out, "Table IV  :\n{}", self.table4_measured());
        let _ = writeln!(out, "Table V   :\n{}", self.table5_measured());
        let _ = writeln!(out, "Table VI  :\n{}", self.table6_measured());
        let _ = writeln!(out, "Table VII :\n{}", self.table7_measured());
        let _ = writeln!(out, "Table VIII:\n{}", self.table8_measured());
        let _ = writeln!(out, "Table IX  :\n{}", self.table9_measured());
        let _ = writeln!(out, "Table X   :\n{}", self.table10_measured());
        let _ = writeln!(out, "Countries :{}", self.countries_measured());
        let _ = writeln!(out, "Top ASes  :\n{}", self.asns_measured());
        let _ = writeln!(out, "Amplific. :\n{}", self.amplification_measured());
        let flows = self.flows();
        let _ = writeln!(
            out,
            "Flows     :  {} recursed, Q2 fan-out {:.2}, median resolution {:?}",
            flows.recursed_count(),
            flows.mean_q2_fanout(),
            flows.latency_quantile(0.5).unwrap_or_default()
        );
        let _ = writeln!(out, "Empty-q   :\n{}", self.empty_question_measured());
        for report in self.table_reports() {
            let _ = writeln!(out, "{report}");
        }
        out
    }

    /// The table blocks alone as compact JSON: the bytes the invariance
    /// suites compare across shard counts, analysis modes and taps.
    pub fn tables_json(&self) -> String {
        TableReport::all_to_wire(&self.table_reports()).encode()
    }

    /// The comparison report as a JSON value (sorted keys).
    pub fn to_json(&self) -> Wire {
        Wire::obj(vec![
            ("duration_secs", Wire::from(self.dataset.duration_secs)),
            ("partial", Wire::from(self.is_partial())),
            ("q1", Wire::from(self.dataset.q1)),
            ("q2", Wire::from(self.dataset.q2)),
            ("r1", Wire::from(self.dataset.r1)),
            ("r2", Wire::from(self.dataset.r2())),
            ("scale", Wire::from(self.config.scale)),
            ("seed", Wire::from(self.config.seed)),
            ("shards", Wire::from(self.config.shards)),
            ("tables", TableReport::all_to_wire(&self.table_reports())),
            ("year", Wire::from(self.spec.year.as_u16())),
        ])
    }
}
