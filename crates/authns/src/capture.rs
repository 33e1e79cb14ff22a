//! The capture layer: the records the paper's two vantage points
//! produce (R2 at the prober, Q2/R1 at the authoritative server — the
//! tcpdumps of Fig. 2), the one trait that consumes them, and the
//! server's capture point.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use orscope_dns_wire::Name;
use orscope_netsim::{Datagram, Payload, SimTime};

use crate::scheme::ProbeLabel;

/// One captured R2 packet, already joined to its probe by qname.
#[derive(Debug, Clone)]
pub struct R2Capture {
    /// The probed target that answered.
    pub target: Ipv4Addr,
    /// The probe label whose qname the response matched (`None` for the
    /// empty-question responses of §IV-B4, which are joined by source
    /// address instead).
    pub label: Option<ProbeLabel>,
    /// The full qname queried.
    pub qname: Name,
    /// Virtual receive time.
    pub at: SimTime,
    /// When the matching Q1 was sent.
    pub sent_at: SimTime,
    /// Raw response payload (kept raw: the analysis side re-decodes,
    /// including the malformed packets).
    pub payload: Payload,
}

/// Direction of a captured packet relative to the capturing host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Arrived at the host (Q2 at the authoritative server).
    Inbound,
    /// Sent by the host (R1 at the authoritative server).
    Outbound,
}

/// One captured packet with its virtual timestamp.
#[derive(Debug, Clone)]
pub struct CapturedPacket {
    /// When the packet crossed the capture point.
    pub at: SimTime,
    /// Inbound or outbound.
    pub direction: Direction,
    /// Remote address (source for inbound, destination for outbound).
    pub peer: Ipv4Addr,
    /// Remote port.
    pub peer_port: u16,
    /// The probe label of the payload's first question, when whoever
    /// captured the packet had already read it (the twin of
    /// [`R2Capture::label`]): the server parses each query once and
    /// stamps the result on both the Q2 and its R1. `Some` is a fact
    /// about `payload`; `None` says nothing — the payload may still
    /// carry a probe name (a query whose tail does not decode, a packet
    /// built by hand or replayed from a log) and a consumer that needs
    /// the label reads the payload itself. Never serialized.
    pub label: Option<ProbeLabel>,
    /// Raw UDP payload.
    pub payload: Payload,
}

/// A consumer of capture-time packets: the prober feeds R2 responses,
/// the authoritative server feeds its Q2/R1 log.
pub trait RecordSink: std::fmt::Debug {
    /// Accepts one R2 response the prober just captured.
    fn on_r2(&mut self, capture: &R2Capture);
    /// Accepts one packet the authoritative server just logged.
    fn on_auth(&mut self, packet: &CapturedPacket);
}

/// One sink shared by the capture points that write into it. Endpoints
/// are not `Send` and a simulated world never leaves the thread that
/// built it, so sharing is a reference count and a borrow flag, not a
/// lock.
pub type SharedSink = Rc<RefCell<dyn RecordSink>>;

/// The authoritative server's capture point: a cloneable handle that
/// turns datagrams into [`CapturedPacket`]s and hands each to one sink.
/// The `label` either recorder takes is [`CapturedPacket::label`]: what
/// the caller already knows about the datagram's question, if anything.
/// The handle keeps nothing itself: whoever reads the packets owns the
/// sink.
#[derive(Debug, Clone)]
pub struct CaptureHandle {
    sink: SharedSink,
}

impl CaptureHandle {
    /// Creates a capture point that hands every packet to `sink`.
    pub fn with_sink(sink: SharedSink) -> Self {
        Self { sink }
    }

    /// Records an inbound datagram at time `at`.
    pub(crate) fn record_inbound(&self, at: SimTime, dgram: &Datagram, label: Option<ProbeLabel>) {
        self.sink.borrow_mut().on_auth(&CapturedPacket {
            at,
            direction: Direction::Inbound,
            peer: dgram.src,
            peer_port: dgram.src_port,
            label,
            payload: dgram.payload.clone(),
        });
    }

    /// Records an outbound datagram at time `at`.
    pub(crate) fn record_outbound(&self, at: SimTime, dgram: &Datagram, label: Option<ProbeLabel>) {
        self.sink.borrow_mut().on_auth(&CapturedPacket {
            at,
            direction: Direction::Outbound,
            peer: dgram.dst,
            peer_port: dgram.dst_port,
            label,
            payload: dgram.payload.clone(),
        });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The server-side test sink: every packet, in capture order.
    impl RecordSink for Vec<CapturedPacket> {
        fn on_r2(&mut self, _capture: &R2Capture) {}

        fn on_auth(&mut self, packet: &CapturedPacket) {
            self.push(packet.clone());
        }
    }

    /// A capture point and the packets it has handed to its sink.
    pub(crate) fn logged() -> (CaptureHandle, Rc<RefCell<Vec<CapturedPacket>>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        (CaptureHandle::with_sink(log.clone()), log)
    }

    fn dgram() -> Datagram {
        Datagram::new(
            (Ipv4Addr::new(1, 1, 1, 1), 5353),
            (Ipv4Addr::new(2, 2, 2, 2), 53),
            b"payload".to_vec(),
        )
    }

    #[test]
    fn records_both_directions() {
        let (cap, log) = logged();
        cap.record_inbound(SimTime::from_secs(1), &dgram(), None);
        cap.record_outbound(SimTime::from_secs(2), &dgram(), None);
        let seen: Vec<_> = log.borrow().iter().map(|p| (p.direction, p.peer)).collect();
        assert_eq!(
            seen,
            [
                (Direction::Inbound, Ipv4Addr::new(1, 1, 1, 1)),
                (Direction::Outbound, Ipv4Addr::new(2, 2, 2, 2)),
            ]
        );
    }

    #[test]
    fn clones_share_state() {
        let (cap, log) = logged();
        cap.clone().record_inbound(SimTime::ZERO, &dgram(), None);
        assert_eq!(log.borrow().len(), 1);
    }

    #[test]
    fn a_given_sink_receives_every_packet_and_the_handle_logs_nothing() {
        // The handle holds only the sink: what it records is the
        // datagram's, stamped with the instant and the caller's label.
        let (cap, log) = logged();
        let label = Some(crate::scheme::ProbeLabel::new(0, 7));
        cap.record_outbound(SimTime::from_secs(3), &dgram(), label);
        let packet = &log.borrow()[0];
        assert_eq!((packet.at, packet.label), (SimTime::from_secs(3), label));
        assert_eq!(
            (packet.peer_port, &packet.payload[..]),
            (53, &b"payload"[..])
        );
    }
}
