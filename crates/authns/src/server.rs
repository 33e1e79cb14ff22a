//! The authoritative name server endpoint.

use orscope_dns_wire::{Message, MessageBuilder, Rcode, RecordType};
use orscope_netsim::{Context, Datagram, Endpoint};

use crate::capture::CaptureHandle;
use crate::cluster::{ClusterAnswer, ClusterZone};
use crate::scheme::ProbeLabel;
use crate::zone::ZoneAnswer;

/// What the server answered, tallied by question type and by response
/// code: each answered query counts once in `queries`, once under a
/// `qtype_*` and once under an `rcode_*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuthStats {
    /// Queries answered (Q2 in the paper's notation).
    pub queries: u64,
    /// A-type questions.
    pub qtype_a: u64,
    /// ANY questions (the amplification vector).
    pub qtype_any: u64,
    /// TXT questions.
    pub qtype_txt: u64,
    /// Every other (or absent) question type.
    pub qtype_other: u64,
    /// Responses with rcode 0.
    pub rcode_noerror: u64,
    /// NXDomain responses.
    pub rcode_nxdomain: u64,
    /// Refused responses (out-of-zone queries).
    pub rcode_refused: u64,
    /// FormErr responses (broken queries).
    pub rcode_formerr: u64,
    /// Any other rcode.
    pub rcode_other: u64,
}

impl AuthStats {
    /// Tallies one answered query: the question type (`None` when the
    /// query carried no readable question) and the response rcode.
    fn record(&mut self, qtype: Option<RecordType>, rcode: Rcode) {
        self.queries += 1;
        *match qtype {
            Some(RecordType::A) => &mut self.qtype_a,
            Some(RecordType::Any) => &mut self.qtype_any,
            Some(RecordType::Txt) => &mut self.qtype_txt,
            _ => &mut self.qtype_other,
        } += 1;
        *match rcode {
            Rcode::NoError => &mut self.rcode_noerror,
            Rcode::NXDomain => &mut self.rcode_nxdomain,
            Rcode::Refused => &mut self.rcode_refused,
            Rcode::FormErr => &mut self.rcode_formerr,
            _ => &mut self.rcode_other,
        } += 1;
    }
}

/// The authoritative server for the measurement zone.
///
/// Mirrors the paper's BIND 9.9.4 instance on Vultr: it answers queries
/// for `ucfsealresearch.net` subdomains (R1) and captures every inbound
/// query (Q2) and outbound response through its [`CaptureHandle`] — the
/// tcpdump vantage point of Fig. 2.
#[derive(Debug)]
pub struct AuthoritativeServer {
    zone: ClusterZone,
    capture: CaptureHandle,
    stats: AuthStats,
    /// Subdomains a rolled-over cluster loads.
    cluster_size: u64,
    /// Scratch the query in hand is decoded into and the response is
    /// built in: each reuses the previous packet's section vectors.
    inbound: Message,
    outbound: Message,
    /// Reusable wire-encoding buffer; steady-state responses encode
    /// without allocating.
    scratch: Vec<u8>,
}

impl AuthoritativeServer {
    /// Creates a server over `zone` that logs through `capture` and
    /// rolls clusters over with `cluster_size` subdomains each: a query
    /// for the cluster after the active one loads it (the operator
    /// loading the next zone file as the prober advances), and with no
    /// cluster loaded yet the first probe query picks the starting one.
    pub fn new(zone: ClusterZone, capture: CaptureHandle, cluster_size: u64) -> Self {
        Self {
            zone,
            capture,
            stats: AuthStats::default(),
            cluster_size: cluster_size.max(1),
            inbound: Message::default(),
            outbound: Message::default(),
            scratch: Vec::with_capacity(512),
        }
    }

    /// The zone being served.
    pub fn zone(&self) -> &ClusterZone {
        &self.zone
    }

    /// What was answered so far.
    pub fn stats(&self) -> AuthStats {
        self.stats
    }

    /// Starts the next response in the previous one's storage.
    fn builder(&mut self) -> MessageBuilder {
        MessageBuilder::reusing(std::mem::take(&mut self.outbound))
    }

    /// The probe label `query` asks about, if its first question is a
    /// probe subdomain of the served zone.
    fn label_of(&self, query: &Message) -> Option<ProbeLabel> {
        let question = query.first_question()?;
        ProbeLabel::parse(question.qname(), self.zone.zone().origin())
    }

    /// Builds the authoritative response for a decoded query.
    pub fn respond(&mut self, query: &Message) -> Message {
        let label = self.label_of(query);
        self.respond_labelled(query, label)
    }

    /// [`AuthoritativeServer::respond`] for a query whose probe label
    /// (see [`AuthoritativeServer::label_of`]) is already in hand.
    fn respond_labelled(&mut self, query: &Message, label: Option<ProbeLabel>) -> Message {
        let Some(question) = query.first_question() else {
            self.stats.record(None, Rcode::FormErr);
            return self
                .builder()
                .response_to(query)
                .rcode(Rcode::FormErr)
                .build();
        };
        let qtype = question.qtype();
        if let Some(label) = label {
            // With no cluster loaded yet, the first query picks the
            // starting cluster (sharded probers start at a nonzero
            // base); afterwards only the immediately-next cluster
            // triggers a rollover.
            let advance = match self.zone.active_cluster() {
                None => true,
                Some(active) => label.cluster == active + 1,
            };
            if advance {
                self.zone.load_cluster(label.cluster, self.cluster_size);
            }
        }
        let mut builder = self.builder().response_to(query).authoritative(true);
        match self.zone.lookup(question.qname(), label, qtype) {
            ClusterAnswer::Probe(rec) => builder = builder.answer(rec),
            ClusterAnswer::Zone(ZoneAnswer::Answer(records)) => {
                for rec in records {
                    builder = builder.answer(rec);
                }
            }
            ClusterAnswer::Zone(ZoneAnswer::NoData(soa)) => {
                builder = builder.authority(soa);
            }
            ClusterAnswer::Zone(ZoneAnswer::NxDomain(soa)) => {
                builder = builder.rcode(Rcode::NXDomain).authority(soa);
            }
            ClusterAnswer::Zone(ZoneAnswer::OutOfZone) => {
                // A real authoritative-only server refuses queries for
                // zones it does not serve (and clears AA).
                builder = builder.authoritative(false).rcode(Rcode::Refused);
            }
        }
        let response = builder.build();
        self.stats.record(Some(qtype), response.header().rcode());
        response
    }
}

impl Endpoint for AuthoritativeServer {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        if dgram.dst_port != 53 {
            return; // the server only listens on the DNS port
        }
        // The packet is read once. The decoded query and the probe label
        // of its question then serve both capture records, the cluster
        // rollover and the zone lookup; a packet that does not decode
        // leaves the scratch message empty, and so has no label here.
        let mut query = std::mem::take(&mut self.inbound);
        let decoded = query.decode_into(&dgram.payload);
        let label = self.label_of(&query);
        // Captured before it is answered: the tcpdump sees the packet
        // whether or not a response follows.
        self.capture.record_inbound(ctx.now(), dgram, label);
        let answer = match decoded {
            Ok(()) if !query.header().is_response() => Some((
                self.respond_labelled(&query, label),
                query.response_size_limit(),
            )),
            Ok(()) => None, // stray response; a server ignores these
            Err(_) => {
                // BIND answers undecodable queries with FormErr when it
                // can at least read the ID; we echo a minimal FormErr.
                let id = match dgram.payload[..] {
                    [hi, lo, ..] => u16::from_be_bytes([hi, lo]),
                    _ => 0,
                };
                let mut m = self.builder().id(id).rcode(Rcode::FormErr).build();
                m.header_mut().set_response(true);
                self.stats.record(None, Rcode::FormErr);
                Some((m, Message::CLASSIC_UDP_LIMIT))
            }
        };
        self.inbound = query;
        let Some((response, size_limit)) = answer else {
            return;
        };
        // UDP responses are truncated to the client's advertised budget
        // (512 bytes for non-EDNS clients), with TC set — the size
        // behaviour §II-C's amplification discussion hinges on.
        let encoded = response.encode_truncated_into(size_limit, &mut self.scratch);
        self.outbound = response;
        if encoded.is_err() {
            return;
        }
        let reply = dgram.reply(self.scratch.as_slice());
        // Every response echoes the question section it was asked, so
        // the R1 carries the label of its Q2 (and none when that had
        // none: the FormErrs echo no question).
        self.capture.record_outbound(ctx.now(), &reply, label);
        ctx.send(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::tests::logged;
    use crate::capture::{CapturedPacket, Direction};
    use crate::scheme::{ground_truth, ProbeLabel, CLUSTER_CAPACITY};
    use crate::zone::Zone;
    use orscope_dns_wire::{Name, Question};
    use orscope_netsim::{SimNet, SimTime};
    use std::cell::RefCell;
    use std::net::Ipv4Addr;
    use std::rc::Rc;

    const SERVER: Ipv4Addr = Ipv4Addr::new(45, 77, 1, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(9, 9, 9, 9);

    fn zone_name() -> Name {
        "ucfsealresearch.net".parse().unwrap()
    }

    fn server(capture: CaptureHandle) -> AuthoritativeServer {
        let zone = Zone::new(zone_name(), "ns1.ucfsealresearch.net".parse().unwrap());
        let mut cz = ClusterZone::new(zone);
        cz.load_cluster(0, 1000);
        AuthoritativeServer::new(cz, capture, CLUSTER_CAPACITY)
    }

    fn roundtrip(query: Message) -> (Message, Rc<RefCell<Vec<CapturedPacket>>>) {
        let (capture, log) = logged();
        let mut net = SimNet::builder().seed(1).build();
        net.register(SERVER, server(capture.clone()));
        // A sink client to receive the response.
        struct Sink(std::rc::Rc<std::cell::RefCell<Option<Message>>>);
        impl Endpoint for Sink {
            fn handle_datagram(&mut self, dgram: &Datagram, _ctx: &mut Context<'_>) {
                *self.0.borrow_mut() = Some(Message::decode(&dgram.payload).unwrap());
            }
        }
        let slot = std::rc::Rc::new(std::cell::RefCell::new(None));
        net.register(CLIENT, Sink(slot.clone()));
        net.inject(Datagram::new(
            (CLIENT, 40_000),
            (SERVER, 53),
            query.encode().unwrap(),
        ));
        net.run_until_idle();
        let response = slot.borrow_mut().take().expect("no response received");
        (response, log)
    }

    #[test]
    fn answers_probe_subdomain_with_ground_truth() {
        let label = ProbeLabel::new(0, 42);
        let query = Message::query(7, Question::a(label.qname(&zone_name())));
        let (resp, log) = roundtrip(query);
        assert!(resp.header().authoritative());
        assert_eq!(resp.header().rcode(), Rcode::NoError);
        assert_eq!(resp.answers()[0].rdata().as_a(), Some(ground_truth(label)));
        // Q2 and R1 were captured.
        let directions: Vec<_> = log.borrow().iter().map(|p| p.direction).collect();
        assert_eq!(directions, [Direction::Inbound, Direction::Outbound]);
    }

    #[test]
    fn nxdomain_for_unloaded_cluster() {
        let label = ProbeLabel::new(5, 42);
        let query = Message::query(8, Question::a(label.qname(&zone_name())));
        let (resp, _) = roundtrip(query);
        assert_eq!(resp.header().rcode(), Rcode::NXDomain);
        assert!(resp.answers().is_empty());
        assert_eq!(resp.authorities().len(), 1, "SOA for negative caching");
    }

    #[test]
    fn refuses_out_of_zone() {
        let query = Message::query(9, Question::a("www.example.com".parse().unwrap()));
        let (resp, _) = roundtrip(query);
        assert_eq!(resp.header().rcode(), Rcode::Refused);
        assert!(!resp.header().authoritative());
    }

    #[test]
    fn formerr_for_garbage() {
        let mut net = SimNet::builder().seed(2).build();
        net.register(SERVER, server(logged().0));
        struct Sink(std::rc::Rc<std::cell::RefCell<Option<Message>>>);
        impl Endpoint for Sink {
            fn handle_datagram(&mut self, dgram: &Datagram, _ctx: &mut Context<'_>) {
                *self.0.borrow_mut() = Some(Message::decode(&dgram.payload).unwrap());
            }
        }
        let slot = std::rc::Rc::new(std::cell::RefCell::new(None));
        net.register(CLIENT, Sink(slot.clone()));
        net.inject(Datagram::new(
            (CLIENT, 40_000),
            (SERVER, 53),
            vec![0xAB, 0xCD, 0xFF],
        ));
        net.run_until_idle();
        let resp = slot.borrow_mut().take().unwrap();
        assert_eq!(resp.header().rcode(), Rcode::FormErr);
        assert_eq!(resp.header().id(), 0xABCD, "echoes the query id bytes");
    }

    #[test]
    fn stats_tally_each_answer_by_qtype_and_rcode() {
        let mut srv = server(logged().0);
        let probe = ProbeLabel::new(0, 42).qname(&zone_name());
        let unloaded = ProbeLabel::new(5, 42).qname(&zone_name());
        srv.respond(&Message::query(1, Question::a(probe)));
        srv.respond(&Message::query(2, Question::any(unloaded)));
        let mut empty = Message::query(3, Question::a(zone_name()));
        empty.clear_questions();
        srv.respond(&empty);
        // One that does not decode at all, through the packet path.
        let mut net = SimNet::builder().seed(2).build();
        net.insert(SERVER, srv);
        net.inject(Datagram::new((CLIENT, 40_000), (SERVER, 53), vec![0xAB]));
        net.run_until_idle();
        let stats = net.with_host(SERVER, |srv| srv.stats()).unwrap();
        let want = AuthStats {
            queries: 4,
            qtype_a: 1,
            qtype_any: 1,
            qtype_other: 2,
            rcode_noerror: 1,
            rcode_nxdomain: 1,
            rcode_formerr: 2,
            ..AuthStats::default()
        };
        assert_eq!(stats, want);
    }

    #[test]
    fn ignores_non_dns_port() {
        let (capture, log) = logged();
        let mut net = SimNet::builder().seed(3).build();
        net.register(SERVER, server(capture));
        net.inject(Datagram::new((CLIENT, 40_000), (SERVER, 8080), vec![0; 12]));
        net.run_until_idle();
        assert!(log.borrow().is_empty());
    }

    #[test]
    fn empty_question_query_gets_formerr() {
        let mut query = Message::query(3, Question::a("x.ucfsealresearch.net".parse().unwrap()));
        query.clear_questions();
        let (resp, _) = roundtrip(query);
        assert_eq!(resp.header().rcode(), Rcode::FormErr);
    }

    #[test]
    fn auto_advance_starts_at_first_seen_cluster() {
        // A sharded prober starts at a nonzero base cluster; the server
        // must load that cluster on first contact instead of cluster 0.
        let zone = Zone::new(zone_name(), "ns1.ucfsealresearch.net".parse().unwrap());
        let mut srv = AuthoritativeServer::new(ClusterZone::new(zone), logged().0, 1000);
        let label = ProbeLabel::new(250, 7);
        let query = Message::query(11, Question::a(label.qname(&zone_name())));
        let resp = srv.respond(&query);
        assert_eq!(resp.header().rcode(), Rcode::NoError);
        assert_eq!(resp.answers()[0].rdata().as_a(), Some(ground_truth(label)));
        assert_eq!(srv.zone().active_cluster(), Some(250));
        // The following cluster still rolls over normally.
        let next = ProbeLabel::new(251, 0);
        let resp = srv.respond(&Message::query(12, Question::a(next.qname(&zone_name()))));
        assert_eq!(resp.header().rcode(), Rcode::NoError);
        assert_eq!(srv.zone().active_cluster(), Some(251));
    }

    #[test]
    fn capture_timestamps_are_ordered() {
        let label = ProbeLabel::new(0, 1);
        let query = Message::query(7, Question::a(label.qname(&zone_name())));
        let (_, log) = roundtrip(query);
        let packets = log.borrow();
        assert_eq!(packets.len(), 2);
        assert!(packets[0].at <= packets[1].at);
        assert!(packets[0].at > SimTime::ZERO, "latency applied");
    }
}

/// The label on a capture record is the label in the packet, and the
/// records come in the order and at the instants they always did.
#[cfg(test)]
mod label_tests {
    use super::*;
    use crate::capture::tests::logged;
    use crate::capture::{CapturedPacket, Direction};
    use crate::scheme::CLUSTER_CAPACITY;
    use crate::zone::Zone;
    use orscope_dns_wire::wire::Reader;
    use orscope_dns_wire::{Header, Name, Question};
    use orscope_netsim::{FixedLatency, SimNet, SimTime};
    use std::net::Ipv4Addr;
    use std::time::Duration;

    const SERVER: Ipv4Addr = Ipv4Addr::new(45, 77, 1, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(9, 9, 9, 9);
    /// One-way latency: a query injected at zero arrives at 1 ms.
    const ARRIVAL: SimTime = SimTime::from_nanos(1_000_000);

    fn zone_name() -> Name {
        "ucfsealresearch.net".parse().unwrap()
    }

    /// What a consumer holding only the payload reads: the first
    /// question, even when the rest of the packet does not decode.
    fn read_label(payload: &[u8]) -> Option<ProbeLabel> {
        let mut reader = Reader::new(payload);
        let header = Header::decode(&mut reader).ok()?;
        if header.question_count() == 0 {
            return None;
        }
        let question = Question::decode(&mut reader).ok()?;
        ProbeLabel::parse(question.qname(), &zone_name())
    }

    /// Sends each payload to a server with cluster 0 loaded at time zero
    /// and returns what its capture point saw.
    fn capture_of(payloads: &[Vec<u8>]) -> Vec<CapturedPacket> {
        let (capture, log) = logged();
        let mut cz = ClusterZone::new(Zone::new(
            zone_name(),
            "ns1.ucfsealresearch.net".parse().unwrap(),
        ));
        cz.load_cluster(0, 1000);
        let server = AuthoritativeServer::new(cz, capture, CLUSTER_CAPACITY);
        let mut net = SimNet::builder()
            .seed(1)
            .latency(FixedLatency(Duration::from_millis(1)))
            .build();
        net.register(SERVER, server);
        for payload in payloads {
            net.inject(Datagram::new(
                (CLIENT, 40_000),
                (SERVER, 53),
                payload.clone(),
            ));
        }
        net.run_until_idle();
        let packets = log.take();
        for packet in &packets {
            assert_eq!(packet.at, ARRIVAL, "stamped on arrival, answer included");
            // A stamped label is a fact about the payload.
            if packet.label.is_some() {
                assert_eq!(packet.label, read_label(&packet.payload));
            }
        }
        packets
    }

    fn query_for(qname: &str) -> Vec<u8> {
        Message::query(7, Question::a(qname.parse().unwrap()))
            .encode()
            .unwrap()
    }

    /// Directions and labels, in capture order.
    fn shape(packets: &[CapturedPacket]) -> Vec<(Direction, Option<ProbeLabel>)> {
        packets.iter().map(|p| (p.direction, p.label)).collect()
    }

    #[test]
    fn a_probe_query_and_its_answer_carry_the_label() {
        use Direction::{Inbound, Outbound};
        let loaded = Some(ProbeLabel::new(0, 42));
        let unloaded = Some(ProbeLabel::new(5, 42));
        for (qname, label) in [
            ("or000.0000042.ucfsealresearch.net", loaded),
            // DNS 0x20: case is not part of the name.
            ("oR000.0000042.UcfSealResearch.NET", loaded),
            // NXDomain is still a probe's R1.
            ("or005.0000042.ucfsealresearch.net", unloaded),
        ] {
            let packets = capture_of(&[query_for(qname)]);
            assert_eq!(
                shape(&packets),
                [(Inbound, label), (Outbound, label)],
                "{qname}"
            );
            assert_eq!(read_label(&packets[0].payload), label, "{qname}");
            assert_eq!(read_label(&packets[1].payload), label, "{qname}");
        }
    }

    #[test]
    fn packets_without_a_probe_name_carry_none() {
        use Direction::{Inbound, Outbound};
        let mut no_question = Message::query(3, Question::a(zone_name()));
        no_question.clear_questions();
        for payload in [
            // Under the zone, out of it, and not quite a probe name.
            query_for("www.ucfsealresearch.net"),
            query_for("www.example.com"),
            query_for("or000.000042.ucfsealresearch.net"),
            query_for("x.or000.0000042.ucfsealresearch.net"),
            no_question.encode().unwrap(),
            // Undecodable: answered FormErr, which echoes no question.
            vec![0xAB, 0xCD, 0xFF],
        ] {
            let packets = capture_of(std::slice::from_ref(&payload));
            assert_eq!(
                shape(&packets),
                [(Inbound, None), (Outbound, None)],
                "{payload:02x?}"
            );
            assert_eq!(read_label(&packets[0].payload), None);
            assert_eq!(read_label(&packets[1].payload), None);
        }
    }

    #[test]
    fn a_query_whose_tail_does_not_decode_is_left_to_the_reader() {
        // Header and question are fine, the additional record the
        // header promises is missing: the message does not decode, the
        // server stamps nothing and answers FormErr, and a consumer
        // that reads the payload's first question still finds the name.
        let mut payload = query_for("or000.0000042.ucfsealresearch.net");
        payload[11] = 1; // ARCOUNT
        assert!(Message::decode(&payload).is_err());
        let packets = capture_of(&[payload]);
        assert_eq!(
            shape(&packets),
            [(Direction::Inbound, None), (Direction::Outbound, None)]
        );
        assert_eq!(
            read_label(&packets[0].payload),
            Some(ProbeLabel::new(0, 42))
        );
        assert_eq!(read_label(&packets[1].payload), None, "a bare FormErr");
    }

    #[test]
    fn a_stray_response_is_captured_with_its_label_and_not_answered() {
        let label = ProbeLabel::new(0, 9);
        let mut stray = Message::query(7, Question::a(label.qname(&zone_name())));
        stray.header_mut().set_response(true);
        let packets = capture_of(&[stray.encode().unwrap()]);
        assert_eq!(shape(&packets), [(Direction::Inbound, Some(label))]);
    }
}

#[cfg(test)]
mod truncation_tests {
    use super::*;
    use crate::capture::tests::logged;
    use crate::scheme::CLUSTER_CAPACITY;
    use crate::zone::Zone;
    use orscope_dns_wire::{Message, Name, Question};

    fn bulky_server() -> AuthoritativeServer {
        let origin: Name = "ucfsealresearch.net".parse().unwrap();
        let mut zone = Zone::new(origin.clone(), "ns1.ucfsealresearch.net".parse().unwrap());
        for i in 0..20 {
            zone.add_txt(origin.clone(), &format!("bulk-{i:02}: {}", "y".repeat(100)));
        }
        let mut cz = ClusterZone::new(zone);
        cz.load_cluster(0, 10);
        AuthoritativeServer::new(cz, logged().0, CLUSTER_CAPACITY)
    }

    #[test]
    fn non_edns_any_response_truncates_at_512() {
        let mut srv = bulky_server();
        let query = Message::query(1, Question::any("ucfsealresearch.net".parse().unwrap()));
        let resp = srv.respond(&query);
        let wire = resp.encode_truncated(query.response_size_limit()).unwrap();
        assert!(wire.len() <= 512, "{} bytes", wire.len());
        let decoded = Message::decode(&wire).unwrap();
        assert!(decoded.header().truncated());
    }

    #[test]
    fn edns_client_receives_the_full_answer() {
        let mut srv = bulky_server();
        let mut query = Message::query(2, Question::any("ucfsealresearch.net".parse().unwrap()));
        query.set_edns_udp_size(4096);
        let resp = srv.respond(&query);
        let wire = resp.encode_truncated(query.response_size_limit()).unwrap();
        assert!(wire.len() > 512, "{} bytes", wire.len());
        assert!(!Message::decode(&wire).unwrap().header().truncated());
    }
}
