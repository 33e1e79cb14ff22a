//! The capture layer: the records the paper's two vantage points
//! produce (R2 at the prober, Q2/R1 at the authoritative server — the
//! tcpdumps of Fig. 2), the one trait that consumes them, and the
//! server-side packet log.

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

/// The packet log a standalone [`CaptureHandle`] writes into.
#[derive(Debug, Default)]
struct PacketLog {
    packets: Vec<CapturedPacket>,
    inbound: u64,
    outbound: u64,
}

impl RecordSink for PacketLog {
    /// A server-side log has no R2 vantage point.
    fn on_r2(&mut self, _capture: &R2Capture) {}

    fn on_auth(&mut self, packet: &CapturedPacket) {
        match packet.direction {
            Direction::Inbound => self.inbound += 1,
            Direction::Outbound => self.outbound += 1,
        }
        self.packets.push(packet.clone());
    }
}

/// The authoritative server's capture point: a cloneable handle that
/// turns datagrams into [`CapturedPacket`]s and hands each to one sink.
/// The `label` either recorder takes is [`CapturedPacket::label`]: what
/// the caller already knows about the datagram's question, if anything.
///
/// [`CaptureHandle::new`] logs into the handle itself, to be read back
/// after the simulation drains; [`CaptureHandle::with_sink`] feeds a
/// caller's [`RecordSink`] instead and leaves the handle's log empty.
#[derive(Debug, Clone)]
pub struct CaptureHandle {
    sink: SharedSink,
    log: Rc<RefCell<PacketLog>>,
}

impl Default for CaptureHandle {
    fn default() -> Self {
        let log = Rc::<RefCell<PacketLog>>::default();
        Self {
            sink: log.clone(),
            log,
        }
    }
}

impl CaptureHandle {
    /// Creates a capture point that logs into itself.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a capture point that hands every packet to `sink`.
    pub fn with_sink(sink: SharedSink) -> Self {
        Self {
            sink,
            log: Rc::default(),
        }
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

    /// Number of logged packets.
    pub fn len(&self) -> usize {
        self.log.borrow().packets.len()
    }

    /// Whether nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.log.borrow().packets.is_empty()
    }

    /// Packets logged in `direction` since creation. O(1): maintained
    /// as a counter, unaffected by [`CaptureHandle::drain`].
    pub fn count(&self, direction: Direction) -> usize {
        let log = self.log.borrow();
        let n = match direction {
            Direction::Inbound => log.inbound,
            Direction::Outbound => log.outbound,
        };
        n as usize
    }

    /// Takes the logged packets, leaving the log empty.
    pub fn drain(&self) -> Vec<CapturedPacket> {
        std::mem::take(&mut self.log.borrow_mut().packets)
    }

    /// Clones the logged packets without draining.
    pub fn snapshot(&self) -> Vec<CapturedPacket> {
        self.log.borrow().packets.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dgram() -> Datagram {
        Datagram::new(
            (Ipv4Addr::new(1, 1, 1, 1), 5353),
            (Ipv4Addr::new(2, 2, 2, 2), 53),
            b"payload".to_vec(),
        )
    }

    #[test]
    fn records_both_directions() {
        let cap = CaptureHandle::new();
        cap.record_inbound(SimTime::from_secs(1), &dgram(), None);
        cap.record_outbound(SimTime::from_secs(2), &dgram(), None);
        assert_eq!(cap.len(), 2);
        assert_eq!(cap.count(Direction::Inbound), 1);
        assert_eq!(cap.count(Direction::Outbound), 1);
        let packets = cap.snapshot();
        assert_eq!(packets[0].peer, Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(packets[1].peer, Ipv4Addr::new(2, 2, 2, 2));
    }

    #[test]
    fn drain_empties_buffer() {
        let cap = CaptureHandle::new();
        cap.record_inbound(SimTime::ZERO, &dgram(), None);
        assert_eq!(cap.drain().len(), 1);
        assert!(cap.is_empty());
        assert_eq!(
            cap.count(Direction::Inbound),
            1,
            "direction counters survive drain"
        );
    }

    #[test]
    fn clones_share_state() {
        let cap = CaptureHandle::new();
        let clone = cap.clone();
        clone.record_inbound(SimTime::ZERO, &dgram(), None);
        assert_eq!(cap.len(), 1);
    }

    #[test]
    fn a_given_sink_receives_every_packet_and_the_handle_logs_nothing() {
        #[derive(Debug, Default)]
        struct Seen(Vec<(Direction, Ipv4Addr)>);
        impl RecordSink for Seen {
            fn on_r2(&mut self, _capture: &R2Capture) {}
            fn on_auth(&mut self, packet: &CapturedPacket) {
                self.0.push((packet.direction, packet.peer));
            }
        }
        let seen = Rc::new(RefCell::new(Seen::default()));
        let cap = CaptureHandle::with_sink(seen.clone());
        cap.record_inbound(SimTime::ZERO, &dgram(), None);
        cap.record_outbound(SimTime::from_secs(1), &dgram(), None);
        assert!(cap.is_empty());
        assert_eq!(
            seen.borrow().0,
            [
                (Direction::Inbound, Ipv4Addr::new(1, 1, 1, 1)),
                (Direction::Outbound, Ipv4Addr::new(2, 2, 2, 2)),
            ]
        );
    }
}
