//! Single-pass streaming analysis: classify at capture time, keep only
//! per-table accumulators.
//!
//! The batch pipeline buffers every `R2Capture` and `CapturedPacket`
//! payload until the campaign ends, then classifies and makes several
//! passes for the tables. [`StreamingAnalyzer`] inverts that: each
//! packet is decoded and folded into accumulator state the moment it is
//! captured, and its payload is dropped immediately (retained only when
//! pcap export asks for the raw stream). The state is exactly what the
//! tables need — answer breakdowns, flag tables, rcode tallies,
//! wrong-IP tallies, the flow summary, and an exact amplification
//! reservoir — and it merges across shards order-insensitively via
//! [`StreamingAnalyzer::absorb`], like `TelemetrySnapshot::absorb`.
//!
//! Equivalence with the batch oracle is structural: every finish-time
//! method routes through the same constructors the batch tables use
//! (`Table6::from_counts`, `Table8::from_counts`,
//! `Table9::from_ip_counts`, `AmplificationTable::from_factors`, …), so
//! both modes reduce the same record multiset through the same code.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use orscope_authns::{CapturedPacket, RecordSink};
use orscope_dns_wire::{Message, Name, Rcode};
use orscope_geo::GeoDb;
use orscope_netsim::fxhash::FxHashMap;
use orscope_prober::R2Capture;
use orscope_threatintel::ThreatDb;

use crate::classify::{classify_in, AnswerKind};
use crate::flows::FlowSummary;
use crate::tables::{
    amplification_factor, AmplificationTable, AnswerBreakdown, AsnTable, CountryTable,
    EmptyQuestionReport, FlagTable, Table10, Table3, Table4, Table5, Table6, Table7, Table8,
    Table9,
};

/// How a campaign turns captures into tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AnalysisMode {
    /// Classify at capture time and fold into accumulators; payloads
    /// are dropped immediately. The default.
    #[default]
    Streaming,
    /// Buffer every capture and classify after the scan — the original
    /// pipeline, kept alive as an oracle for the streaming path.
    Batch,
}

impl std::fmt::Display for AnalysisMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AnalysisMode::Streaming => "streaming",
            AnalysisMode::Batch => "batch",
        })
    }
}

/// Per-wrong-address tallies: everything Tables VII–X and the
/// country/AS views need about one incorrect answer address, without
/// the records that carried it.
#[derive(Debug, Clone, Default)]
struct WrongIpTally {
    /// Packets carrying this address.
    count: u64,
    /// RA flag distribution over those packets.
    ra: [u64; 2],
    /// AA flag distribution over those packets.
    aa: [u64; 2],
    /// Packets with a nonzero rcode.
    nonzero_rcode: u64,
    /// Packets per responding resolver (country/AS attribution).
    by_resolver: FxHashMap<Ipv4Addr, u64>,
}

impl WrongIpTally {
    fn absorb(&mut self, other: WrongIpTally) {
        self.count += other.count;
        self.ra[0] += other.ra[0];
        self.ra[1] += other.ra[1];
        self.aa[0] += other.aa[0];
        self.aa[1] += other.aa[1];
        self.nonzero_rcode += other.nonzero_rcode;
        for (resolver, n) in other.by_resolver {
            *self.by_resolver.entry(resolver).or_default() += n;
        }
    }
}

/// The single-pass analyzer: per-table accumulator state, nothing else.
///
/// Lookups against the geo/threat databases are deferred to the
/// finish-time table methods, so the analyzer itself stays plain data
/// that can live behind a capture-time sink and be merged across
/// shards.
#[derive(Debug, Clone, Default)]
pub struct StreamingAnalyzer {
    /// The measurement zone probe names live under.
    zone: Name,
    /// Whether to keep raw captures for pcap export.
    retain_raw: bool,
    /// Raw captures, only populated when `retain_raw` is set.
    raw: Vec<R2Capture>,
    /// Classified R2 packets seen (matched and empty-question alike).
    r2_classified: u64,
    /// Table III: breakdown over matched packets.
    matched: AnswerBreakdown,
    /// Table IV: breakdown per RA flag value.
    ra: FlagTable,
    /// Table V: breakdown per AA flag value.
    aa: FlagTable,
    /// Table VI: rcode tallies for packets with an answer.
    rcode_w: HashMap<Rcode, u64>,
    /// Table VI: rcode tallies for packets without an answer.
    rcode_wo: HashMap<Rcode, u64>,
    /// Table VII: URL-form incorrect packets and unique values.
    url_r2: u64,
    urls: HashSet<String>,
    /// Table VII: string-form incorrect packets and unique values.
    string_r2: u64,
    strings: HashSet<String>,
    /// Table VII: undecodable (N/A) incorrect packets.
    na_r2: u64,
    /// Tables VII–X and country/AS: tallies per wrong answer address.
    wrong_ips: FxHashMap<Ipv4Addr, WrongIpTally>,
    /// §IV-B4 empty-question accumulator.
    empty_question: EmptyQuestionReport,
    /// Exact amplification-factor reservoir (8 bytes per response vs
    /// the full payload; sorted at finish for order-independent output).
    amp_factors: Vec<f64>,
    /// The four-flow join, folded to the figures the report reads.
    flows: FlowSummary,
    /// Scratch every R2 is decoded into for classification; carries
    /// nothing from one packet to the next but its allocations.
    scratch: Message,
}

impl StreamingAnalyzer {
    /// A fresh analyzer for the given measurement zone. `retain_raw`
    /// keeps raw captures alongside the accumulators (pcap export).
    pub fn new(zone: Name, retain_raw: bool) -> Self {
        Self {
            zone,
            retain_raw,
            ..Self::default()
        }
    }

    /// Pre-sizes the per-response state for `expected` responders: an
    /// R2 comes from a probed responder, at most one a label, so the
    /// responder count bounds the latencies and amplification factors
    /// exactly; reserving it keeps them at their final footprint
    /// instead of growth-doubling past it. Capacity only — folds behave
    /// identically with or without the hint.
    pub fn reserve_flows(&mut self, expected: usize) {
        self.flows.reserve(expected);
        self.amp_factors.reserve(expected);
    }

    /// Classified R2 packets folded so far.
    pub fn r2_classified(&self) -> u64 {
        self.r2_classified
    }

    /// Extracts the retained raw captures (empty unless `retain_raw`).
    pub fn take_raw(&mut self) -> Vec<R2Capture> {
        std::mem::take(&mut self.raw)
    }

    /// Merges another analyzer's state in. Commutative and associative
    /// over disjoint shard streams, so shard completion order does not
    /// affect the merged tables.
    pub fn absorb(&mut self, other: StreamingAnalyzer) {
        self.r2_classified += other.r2_classified;
        self.matched.absorb(&other.matched);
        self.ra.absorb(&other.ra);
        self.aa.absorb(&other.aa);
        for (rcode, n) in other.rcode_w {
            *self.rcode_w.entry(rcode).or_default() += n;
        }
        for (rcode, n) in other.rcode_wo {
            *self.rcode_wo.entry(rcode).or_default() += n;
        }
        self.url_r2 += other.url_r2;
        self.urls.extend(other.urls);
        self.string_r2 += other.string_r2;
        self.strings.extend(other.strings);
        self.na_r2 += other.na_r2;
        for (ip, tally) in other.wrong_ips {
            self.wrong_ips.entry(ip).or_default().absorb(tally);
        }
        self.empty_question.absorb(&other.empty_question);
        self.amp_factors.extend(other.amp_factors);
        self.raw.extend(other.raw);
        self.flows.absorb(other.flows);
    }

    /// Table III from the matched-packet breakdown.
    pub fn table3(&self) -> Table3 {
        Table3(self.matched)
    }

    /// Table IV from the RA flag accumulator.
    pub fn table4(&self) -> Table4 {
        Table4(self.ra)
    }

    /// Table V from the AA flag accumulator.
    pub fn table5(&self) -> Table5 {
        Table5(self.aa)
    }

    /// Table VI from the rcode tallies.
    pub fn table6(&self) -> Table6 {
        Table6::from_counts(&self.rcode_w, &self.rcode_wo)
    }

    /// Table VII from the incorrect-answer tallies.
    pub fn table7(&self) -> Table7 {
        Table7 {
            ip_r2: self.wrong_ips.values().map(|t| t.count).sum(),
            ip_unique: self.wrong_ips.len() as u64,
            url_r2: self.url_r2,
            url_unique: self.urls.len() as u64,
            string_r2: self.string_r2,
            string_unique: self.strings.len() as u64,
            na_r2: self.na_r2,
        }
    }

    /// Table VIII: top-`k` wrong addresses, org/report lookups deferred
    /// to now.
    pub fn table8(&self, geo: &GeoDb, threat: &ThreatDb, k: usize) -> Table8 {
        let counts: HashMap<Ipv4Addr, u64> = self
            .wrong_ips
            .iter()
            .map(|(ip, tally)| (*ip, tally.count))
            .collect();
        Table8::from_counts(counts, geo, threat, k)
    }

    /// Table IX from the wrong-address tallies.
    pub fn table9(&self, threat: &ThreatDb) -> Table9 {
        Table9::from_ip_counts(
            self.wrong_ips.iter().map(|(ip, tally)| (*ip, tally.count)),
            threat,
        )
    }

    /// Table X by summing the flag tallies of threat-reported addresses.
    pub fn table10(&self, threat: &ThreatDb) -> Table10 {
        let mut out = Table10::default();
        for (ip, tally) in &self.wrong_ips {
            if threat.is_reported(*ip) {
                out.ra[0] += tally.ra[0];
                out.ra[1] += tally.ra[1];
                out.aa[0] += tally.aa[0];
                out.aa[1] += tally.aa[1];
                out.nonzero_rcode += tally.nonzero_rcode;
            }
        }
        out
    }

    /// Country distribution of malicious resolvers.
    pub fn countries(&self, geo: &GeoDb, threat: &ThreatDb) -> CountryTable {
        CountryTable::from_resolver_tallies(self.reported_resolver_tallies(threat), geo)
    }

    /// AS distribution of malicious resolvers.
    pub fn asns(&self, geo: &GeoDb, threat: &ThreatDb) -> AsnTable {
        AsnTable::from_resolver_tallies(self.reported_resolver_tallies(threat), geo)
    }

    /// The amplification summary from the factor reservoir.
    pub fn amplification(&self) -> AmplificationTable {
        AmplificationTable::from_factors(self.amp_factors.clone())
    }

    /// The §IV-B4 empty-question report.
    pub fn empty_question(&self) -> EmptyQuestionReport {
        self.empty_question
    }

    /// Drains the four-flow join, finished: the latencies move out
    /// sorted, without a copy.
    pub fn take_flows(&mut self) -> FlowSummary {
        std::mem::take(&mut self.flows).finish()
    }

    /// `(resolver, count)` tallies over threat-reported addresses —
    /// the streaming-side source for the country/AS tables.
    fn reported_resolver_tallies<'a>(
        &'a self,
        threat: &'a ThreatDb,
    ) -> impl Iterator<Item = (Ipv4Addr, u64)> + 'a {
        self.wrong_ips
            .iter()
            .filter(move |(ip, _)| threat.is_reported(**ip))
            .flat_map(|(_, tally)| tally.by_resolver.iter().map(|(r, n)| (*r, *n)))
    }
}

impl RecordSink for StreamingAnalyzer {
    fn on_r2(&mut self, capture: &R2Capture) {
        if self.retain_raw {
            self.raw.push(capture.clone());
        }
        // Header-unparseable garbage carries no analyzable state; the
        // batch pipeline drops it in `Dataset::from_captures` too.
        let Some(rec) = classify_in(capture, &mut self.scratch) else {
            return;
        };
        self.r2_classified += 1;
        self.amp_factors.push(amplification_factor(&rec));
        self.flows.fold_r2(&rec, &self.zone);
        if !rec.has_question {
            self.empty_question.add(&rec);
            return;
        }
        self.matched.add(&rec);
        self.ra.add(&rec, rec.ra);
        self.aa.add(&rec, rec.aa);
        let rcodes = if rec.has_answer() {
            &mut self.rcode_w
        } else {
            &mut self.rcode_wo
        };
        *rcodes.entry(rec.rcode).or_default() += 1;
        if rec.incorrect() {
            match &rec.answer {
                AnswerKind::Ip(ip) => {
                    let tally = self.wrong_ips.entry(*ip).or_default();
                    tally.count += 1;
                    tally.ra[usize::from(rec.ra)] += 1;
                    tally.aa[usize::from(rec.aa)] += 1;
                    if rec.rcode != Rcode::NoError {
                        tally.nonzero_rcode += 1;
                    }
                    *tally.by_resolver.entry(rec.resolver).or_default() += 1;
                }
                AnswerKind::Url(url) => {
                    self.url_r2 += 1;
                    self.urls.insert(url.clone());
                }
                AnswerKind::Str(s) => {
                    self.string_r2 += 1;
                    self.strings.insert(s.clone());
                }
                AnswerKind::Malformed => self.na_r2 += 1,
                AnswerKind::None => {}
            }
        }
    }

    fn on_auth(&mut self, packet: &CapturedPacket) {
        self.flows.fold_auth(packet, &self.zone);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_mode_defaults_and_displays() {
        assert_eq!(AnalysisMode::default(), AnalysisMode::Streaming);
        assert_eq!(AnalysisMode::Streaming.to_string(), "streaming");
        assert_eq!(AnalysisMode::Batch.to_string(), "batch");
    }
}
