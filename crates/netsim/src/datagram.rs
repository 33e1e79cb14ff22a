//! UDP datagrams on the simulated wire.

use std::fmt;
use std::net::Ipv4Addr;
use std::ops::Deref;
use std::sync::Arc;

/// A datagram's bytes: immutable, one allocation when built, none when
/// cloned, so a capture point keeps a packet by cloning it and a shard's
/// captures cross to the merging thread as they are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payload(Arc<[u8]>);

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Self(bytes.into())
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Self(bytes.into())
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// A UDP datagram: source and destination (address, port) plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Source address.
    pub src: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Destination port.
    pub dst_port: u16,
    /// UDP payload.
    pub payload: Payload,
}

impl Datagram {
    /// Creates a datagram from `(addr, port)` pairs and a payload.
    pub fn new(src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16), payload: impl Into<Payload>) -> Self {
        Self {
            src: src.0,
            src_port: src.1,
            dst: dst.0,
            dst_port: dst.1,
            payload: payload.into(),
        }
    }

    /// A reply datagram: source and destination swapped, new payload.
    pub fn reply(&self, payload: impl Into<Payload>) -> Datagram {
        Datagram {
            src: self.dst,
            src_port: self.dst_port,
            dst: self.src,
            dst_port: self.src_port,
            payload: payload.into(),
        }
    }

    /// A reply that lies about its source port (used to model resolvers
    /// that answer from an unexpected port, the ZMap blind spot of §V).
    pub fn reply_from_port(&self, src_port: u16, payload: impl Into<Payload>) -> Datagram {
        Datagram {
            src: self.dst,
            src_port,
            dst: self.src,
            dst_port: self.src_port,
            payload: payload.into(),
        }
    }

    /// Total simulated on-wire size: payload + 28 bytes of IPv4+UDP
    /// headers (the figure used for amplification-factor math).
    pub fn wire_len(&self) -> usize {
        self.payload.len() + 28
    }
}

impl fmt::Display for Datagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} ({} bytes)",
            self.src,
            self.src_port,
            self.dst,
            self.dst_port,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_swaps_endpoints() {
        let d = Datagram::new(
            (Ipv4Addr::new(1, 1, 1, 1), 4000),
            (Ipv4Addr::new(2, 2, 2, 2), 53),
            b"q".to_vec(),
        );
        let r = d.reply(b"a".to_vec());
        assert_eq!(r.src, Ipv4Addr::new(2, 2, 2, 2));
        assert_eq!(r.src_port, 53);
        assert_eq!(r.dst, Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(r.dst_port, 4000);
        assert_eq!(&r.payload[..], b"a");
    }

    #[test]
    fn reply_from_port_overrides_source_port() {
        let d = Datagram::new(
            (Ipv4Addr::new(1, 1, 1, 1), 4000),
            (Ipv4Addr::new(2, 2, 2, 2), 53),
            b"q".to_vec(),
        );
        let r = d.reply_from_port(1024, b"a".to_vec());
        assert_eq!(r.src_port, 1024);
        assert_eq!(r.dst_port, 4000);
    }

    #[test]
    fn wire_len_includes_headers() {
        let d = Datagram::new(
            (Ipv4Addr::UNSPECIFIED, 0),
            (Ipv4Addr::UNSPECIFIED, 0),
            vec![0u8; 100],
        );
        assert_eq!(d.wire_len(), 128);
    }

    #[test]
    fn display() {
        let d = Datagram::new(
            (Ipv4Addr::new(1, 2, 3, 4), 9),
            (Ipv4Addr::new(5, 6, 7, 8), 53),
            b"xy".to_vec(),
        );
        assert_eq!(d.to_string(), "1.2.3.4:9 -> 5.6.7.8:53 (2 bytes)");
    }
}
