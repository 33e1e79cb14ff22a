//! The shard's record pipeline.
//!
//! The paper's method is one join over four flows captured at exactly
//! two points — R2 at the prober, Q2/R1 at the authoritative server
//! (§III-B, Fig. 2). Each shard owns one [`ShardRecorder`] and both
//! capture points write into it: a record is folded into the shard's
//! analysis first, inline and lossless, and then offered to the
//! campaign's [`RecordBus`] — the only fan-out point.

use std::net::Ipv4Addr;
use std::sync::Arc;

use orscope_analysis::{AnalysisMode, RecordSink, StreamingAnalyzer};
use orscope_authns::{CapturedPacket, Direction};
use orscope_prober::R2Capture;
use orscope_resolver::population::Population;

use crate::bus::{Captured, Record, RecordBus};
use crate::campaign::CampaignConfig;

/// A shard's end of the campaign's record bus. Each record it offers
/// carries the generated class of its flow's resolver side, looked up in
/// the campaign's own population — on the shard thread, and only while
/// somebody is subscribed — so a tap judges `class=` against the round
/// that produced the record, however many rounds share the bus.
#[derive(Debug)]
pub(crate) struct Publisher {
    bus: Arc<RecordBus>,
    population: Arc<Population>,
}

impl Publisher {
    /// Publishes to `bus`, tagging against the probed hosts of
    /// `population`.
    pub(crate) fn new(bus: Arc<RecordBus>, population: Arc<Population>) -> Self {
        Self { bus, population }
    }

    fn offer(&self, captured: impl FnOnce() -> Captured, resolver: Ipv4Addr) {
        let population = &self.population;
        self.bus.offer(|| Record {
            captured: captured(),
            class: population
                .find(resolver)
                .map(|id| population.table().get(id).class()),
        });
    }
}

/// Everything one shard records, held by value.
#[derive(Debug, Default)]
pub(crate) struct ShardRecorder {
    /// The streaming accumulators every record folds into at capture
    /// time. `None` buffers the records instead, for batch analysis.
    pub(crate) analyzer: Option<StreamingAnalyzer>,
    /// Buffered R2 captures, in capture order.
    pub(crate) captures: Vec<R2Capture>,
    /// The buffered authoritative-server log, in capture order.
    pub(crate) auth_packets: Vec<CapturedPacket>,
    /// Q2 packets the authoritative server received.
    pub(crate) q2: u64,
    /// R1 packets the authoritative server sent.
    pub(crate) r1: u64,
    publisher: Option<Publisher>,
}

impl ShardRecorder {
    /// The recorder `config.analysis` asks for. `responders` is how
    /// many the shard holds: every R2 comes from a probed responder, so
    /// that count bounds the per-response state exactly, and sizing the
    /// analyzer up front keeps it at its final footprint instead of
    /// doubling past it.
    pub(crate) fn new(
        config: &CampaignConfig,
        responders: usize,
        publisher: Option<Publisher>,
    ) -> Self {
        let analyzer = (config.analysis == AnalysisMode::Streaming).then(|| {
            let mut analyzer = StreamingAnalyzer::new(config.infra.zone.clone(), config.retain_raw);
            analyzer.reserve_flows(responders);
            analyzer
        });
        Self {
            analyzer,
            publisher,
            ..Self::default()
        }
    }
}

impl RecordSink for ShardRecorder {
    fn on_r2(&mut self, capture: &R2Capture) {
        match &mut self.analyzer {
            Some(analyzer) => analyzer.on_r2(capture),
            None => self.captures.push(capture.clone()),
        }
        if let Some(publisher) = &self.publisher {
            publisher.offer(|| Captured::R2(capture.clone()), capture.target);
        }
    }

    fn on_auth(&mut self, packet: &CapturedPacket) {
        match packet.direction {
            Direction::Inbound => self.q2 += 1,
            Direction::Outbound => self.r1 += 1,
        }
        match &mut self.analyzer {
            Some(analyzer) => analyzer.on_auth(packet),
            None => self.auth_packets.push(packet.clone()),
        }
        if let Some(publisher) = &self.publisher {
            publisher.offer(|| Captured::Auth(packet.clone()), packet.peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    use orscope_authns::ProbeLabel;
    use orscope_dns_wire::{Message, Question};
    use orscope_netsim::SimTime;
    use orscope_resolver::paper::Year;

    use crate::campaign::Campaign;

    fn config(analysis: AnalysisMode) -> CampaignConfig {
        CampaignConfig::new(Year::Y2018, 20_000.0).with_analysis(analysis)
    }

    fn publisher(bus: &Arc<RecordBus>, population: &Population) -> Publisher {
        Publisher::new(bus.clone(), Arc::new(population.clone()))
    }

    /// One recorder per analysis mode, both publishing to `bus`.
    fn recorders(bus: &Arc<RecordBus>) -> [ShardRecorder; 2] {
        [AnalysisMode::Streaming, AnalysisMode::Batch].map(|analysis| {
            let campaign = Campaign::new(config(analysis));
            let population = campaign.build_population();
            let publisher = publisher(bus, &population);
            ShardRecorder::new(
                campaign.config(),
                population.responders().count(),
                Some(publisher),
            )
        })
    }

    fn wire(seq: u64) -> Vec<u8> {
        let zone = config(AnalysisMode::Streaming).infra.zone;
        let query = Message::query(7, Question::a(ProbeLabel::new(0, seq).qname(&zone)));
        query.encode().expect("a query encodes")
    }

    fn r2(seq: u64) -> R2Capture {
        R2Capture {
            target: Ipv4Addr::new(9, 9, 9, 9),
            label: Some(ProbeLabel::new(0, seq)),
            qname: ProbeLabel::new(0, seq).qname(&config(AnalysisMode::Streaming).infra.zone),
            at: SimTime::from_nanos(seq + 1),
            sent_at: SimTime::ZERO,
            payload: wire(seq).into(),
        }
    }

    fn auth(seq: u64, direction: Direction) -> CapturedPacket {
        CapturedPacket {
            at: SimTime::from_nanos(seq),
            direction,
            peer: Ipv4Addr::new(9, 9, 9, 9),
            peer_port: 33_000,
            label: None,
            payload: wire(seq).into(),
        }
    }

    /// `(R2s, server packets)` held by the recorder's own state: the
    /// analyzer folds R2s, and the server packets it reduces to figures
    /// are on the recorder's Q2/R1 books.
    fn held(recorder: &ShardRecorder) -> (u64, u64) {
        match &recorder.analyzer {
            Some(analyzer) => (analyzer.r2_classified(), recorder.q2 + recorder.r1),
            None => (
                recorder.captures.len() as u64,
                recorder.auth_packets.len() as u64,
            ),
        }
    }

    #[test]
    fn a_record_on_the_bus_is_already_in_the_recorder() {
        // The recorder neither defers nor batches: whenever a record
        // can be read off a tap lane, the shard's own state holds it.
        let bus = Arc::new(RecordBus::new());
        let lane = bus.subscribe(8);
        for mut recorder in recorders(&bus) {
            for seq in 0..3u64 {
                assert!(lane.try_recv().is_none());
                recorder.on_auth(&auth(seq, Direction::Inbound));
                assert_eq!(held(&recorder), (seq, 2 * seq + 1));
                assert!(matches!(
                    lane.try_recv().map(|record| record.captured),
                    Some(Captured::Auth(p)) if p.at.as_nanos() == seq
                ));
                recorder.on_auth(&auth(seq, Direction::Outbound));
                assert_eq!(held(&recorder), (seq, 2 * seq + 2));
                assert!(matches!(
                    lane.try_recv().map(|record| record.captured),
                    Some(Captured::Auth(_))
                ));
                recorder.on_r2(&r2(seq));
                assert_eq!(held(&recorder), (seq + 1, 2 * seq + 2));
                assert!(matches!(
                    lane.try_recv().map(|record| record.captured),
                    Some(Captured::R2(c)) if c.at.as_nanos() == seq + 1
                ));
            }
            assert_eq!((recorder.q2, recorder.r1), (3, 3));
        }
    }

    #[test]
    fn a_record_carries_the_class_its_round_generated() {
        let bus = Arc::new(RecordBus::new());
        let lane = bus.subscribe(8);
        let campaign = Campaign::new(config(AnalysisMode::Streaming));
        let population = campaign.build_population();
        let host = population.resolver(0);
        let mut recorder = ShardRecorder::new(
            campaign.config(),
            population.responders().count(),
            Some(publisher(&bus, &population)),
        );
        let mut probed = r2(0);
        probed.target = host.addr;
        recorder.on_r2(&probed);
        let mut peer = auth(1, Direction::Inbound);
        peer.peer = host.addr;
        recorder.on_auth(&peer);
        for _ in 0..2 {
            let record = lane.try_recv().expect("published");
            assert_eq!(record.class, Some(host.policy.class()));
        }
        // An address the round never probed has no class to carry.
        recorder.on_r2(&r2(2));
        assert_eq!(lane.try_recv().expect("published").class, None);
    }

    #[test]
    fn a_stalled_lane_drops_and_counts_while_the_recorder_stays_exact() {
        let bus = Arc::new(RecordBus::new());
        let stalled = bus.subscribe(1);
        for (round, mut recorder) in (1u64..).zip(recorders(&bus)) {
            for seq in 0..50 {
                recorder.on_auth(&auth(seq, Direction::Inbound));
                recorder.on_r2(&r2(seq));
            }
            assert_eq!(held(&recorder), (50, 50));
            assert_eq!(recorder.q2, 50);
            // Never drained: the lane holds the first record ever
            // published and every later one was dropped on it.
            assert_eq!(bus.stats().published, 100 * round);
            assert_eq!(stalled.dropped(), 100 * round - 1);
            assert_eq!(bus.stats().dropped, stalled.dropped());
        }
    }
}
