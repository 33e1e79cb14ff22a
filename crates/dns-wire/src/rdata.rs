//! Typed rdata for the record types the measurement pipeline handles.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::error::WireError;
use crate::name::Name;
use crate::record::RecordType;
use crate::wire::{Reader, Writer};

/// The start-of-authority payload (RFC 1035 §3.3.13).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Soa {
    /// Primary name server for the zone.
    pub mname: Name,
    /// Mailbox of the person responsible for the zone.
    pub rname: Name,
    /// Zone serial number.
    pub serial: u32,
    /// Secondary refresh interval, seconds.
    pub refresh: u32,
    /// Retry interval, seconds.
    pub retry: u32,
    /// Expiry upper bound, seconds.
    pub expire: u32,
    /// Minimum / negative-caching TTL, seconds.
    pub minimum: u32,
}

/// Typed rdata. Unknown types are carried opaquely so that captures of
/// nonstandard responses survive a decode/encode roundtrip.
///
/// `Soa` is boxed: its two [`Name`]s and five counters (~150 bytes)
/// would otherwise set the size of every variant, twice the 72 it is,
/// and every record of every section vector is moved, cloned and
/// overwritten at that size. SOA-bearing
/// responses are the negative answers, rare on the scan's answered
/// path, and a reused slot ([`RData::decode_into`]) keeps its box.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// An IPv4 address.
    A(Ipv4Addr),
    /// An authoritative name server.
    Ns(Name),
    /// A canonical-name alias. Misbehaving resolvers in the wild answer A
    /// queries with CNAMEs pointing at ad/search portals; the paper's
    /// "URL"-form incorrect answers (Table VII) surface this way.
    Cname(Name),
    /// Start of authority.
    Soa(Box<Soa>),
    /// A reverse-mapping pointer.
    Ptr(Name),
    /// A mail exchange: preference and exchange host.
    Mx {
        /// Lower is preferred.
        preference: u16,
        /// The mail server name.
        exchange: Name,
    },
    /// Text segments (each at most 255 bytes). The paper's "string"-form
    /// incorrect answers (`wild`, `OK`, `ff`, ...) appear here.
    Txt(Vec<Vec<u8>>),
    /// An IPv6 address.
    Aaaa(Ipv6Addr),
    /// Opaque rdata for any type this crate does not model, including
    /// malformed rdata of known types preserved byte-for-byte.
    Unknown {
        /// The wire type code.
        rtype: u16,
        /// The raw rdata bytes.
        data: Vec<u8>,
    },
}

impl RData {
    /// The record type this rdata belongs to.
    pub fn rtype(&self) -> RecordType {
        match self {
            RData::A(_) => RecordType::A,
            RData::Ns(_) => RecordType::Ns,
            RData::Cname(_) => RecordType::Cname,
            RData::Soa(_) => RecordType::Soa,
            RData::Ptr(_) => RecordType::Ptr,
            RData::Mx { .. } => RecordType::Mx,
            RData::Txt(_) => RecordType::Txt,
            RData::Aaaa(_) => RecordType::Aaaa,
            RData::Unknown { rtype, .. } => RecordType::from_u16(*rtype),
        }
    }

    /// The IPv4 address if this is an A record.
    pub fn as_a(&self) -> Option<Ipv4Addr> {
        match self {
            RData::A(addr) => Some(*addr),
            _ => None,
        }
    }

    /// Encodes the rdata (without the RDLENGTH prefix, which the record
    /// encoder backpatches).
    pub fn encode(&self, w: &mut Writer) -> Result<(), WireError> {
        // Names inside rdata are written uncompressed: RFC 3597 forbids
        // compression in rdata of types unknown to the receiver, and
        // emitting uncompressed everywhere keeps RDLENGTH stable under
        // re-encoding.
        let was = w.compression_enabled();
        w.set_compression(false);
        let result = self.encode_inner(w);
        w.set_compression(was);
        result
    }

    fn encode_inner(&self, w: &mut Writer) -> Result<(), WireError> {
        match self {
            RData::A(addr) => w.write_slice(&addr.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => n.encode(w)?,
            RData::Soa(soa) => {
                soa.mname.encode(w)?;
                soa.rname.encode(w)?;
                w.write_u32(soa.serial);
                w.write_u32(soa.refresh);
                w.write_u32(soa.retry);
                w.write_u32(soa.expire);
                w.write_u32(soa.minimum);
            }
            RData::Mx {
                preference,
                exchange,
            } => {
                w.write_u16(*preference);
                exchange.encode(w)?;
            }
            RData::Txt(segments) => {
                for seg in segments {
                    if seg.len() > 255 {
                        return Err(WireError::CharacterStringTooLong { len: seg.len() });
                    }
                    w.write_u8(seg.len() as u8);
                    w.write_slice(seg);
                }
            }
            RData::Aaaa(addr) => w.write_slice(&addr.octets()),
            RData::Unknown { data, .. } => w.write_slice(data),
        }
        Ok(())
    }

    /// Decodes `rdlen` bytes of rdata of type `rtype`.
    ///
    /// # Errors
    ///
    /// Known types with malformed payloads produce
    /// [`WireError::BadRdataLength`]; unknown types never fail (opaque).
    pub fn decode(r: &mut Reader<'_>, rtype: RecordType, rdlen: usize) -> Result<Self, WireError> {
        let mut out = Self::empty(rtype);
        out.decode_into(r, rtype, rdlen)?;
        Ok(out)
    }

    /// The value of `rtype`'s variant that holds nothing yet.
    fn empty(rtype: RecordType) -> Self {
        match rtype {
            RecordType::A => RData::A(Ipv4Addr::UNSPECIFIED),
            RecordType::Ns => RData::Ns(Name::root()),
            RecordType::Cname => RData::Cname(Name::root()),
            RecordType::Soa => RData::Soa(Box::default()),
            RecordType::Ptr => RData::Ptr(Name::root()),
            RecordType::Mx => RData::Mx {
                preference: 0,
                exchange: Name::root(),
            },
            RecordType::Txt => RData::Txt(Vec::new()),
            RecordType::Aaaa => RData::Aaaa(Ipv6Addr::UNSPECIFIED),
            other => RData::Unknown {
                rtype: other.to_u16(),
                data: Vec::new(),
            },
        }
    }

    /// [`RData::decode`] over an existing value: when `self` already
    /// holds `rtype`'s variant its names, SOA box, TXT segments and
    /// opaque bytes are overwritten in place and keep their
    /// allocations; otherwise it first becomes that variant's empty
    /// value. On error the contents are unspecified.
    ///
    /// # Errors
    ///
    /// Same as [`RData::decode`].
    pub fn decode_into(
        &mut self,
        r: &mut Reader<'_>,
        rtype: RecordType,
        rdlen: usize,
    ) -> Result<(), WireError> {
        let bad_length = |actual: usize| WireError::BadRdataLength {
            rtype: rtype.to_u16(),
            declared: rdlen,
            actual,
        };
        match (rtype, &mut *self) {
            (RecordType::A, slot) => {
                if rdlen != 4 {
                    return Err(bad_length(4));
                }
                let b = r.read_slice(4, "A rdata")?;
                *slot = RData::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]));
            }
            (RecordType::Aaaa, slot) => {
                if rdlen != 16 {
                    return Err(bad_length(16));
                }
                let mut octets = [0u8; 16];
                octets.copy_from_slice(r.read_slice(16, "AAAA rdata")?);
                *slot = RData::Aaaa(Ipv6Addr::from(octets));
            }
            (RecordType::Ns, RData::Ns(name))
            | (RecordType::Cname, RData::Cname(name))
            | (RecordType::Ptr, RData::Ptr(name)) => name.decode_into(r)?,
            (RecordType::Soa, RData::Soa(soa)) => {
                soa.mname.decode_into(r)?;
                soa.rname.decode_into(r)?;
                soa.serial = r.read_u32("SOA serial")?;
                soa.refresh = r.read_u32("SOA refresh")?;
                soa.retry = r.read_u32("SOA retry")?;
                soa.expire = r.read_u32("SOA expire")?;
                soa.minimum = r.read_u32("SOA minimum")?;
            }
            (
                RecordType::Mx,
                RData::Mx {
                    preference,
                    exchange,
                },
            ) => {
                *preference = r.read_u16("MX preference")?;
                exchange.decode_into(r)?;
            }
            (RecordType::Txt, RData::Txt(segments)) => {
                let end = r.position() + rdlen;
                let mut used = 0;
                while r.position() < end {
                    let len = r.read_u8("TXT segment length")? as usize;
                    if r.position() + len > end {
                        return Err(bad_length(r.position() + len + rdlen - end));
                    }
                    let bytes = r.read_slice(len, "TXT segment")?;
                    if used == segments.len() {
                        segments.push(Vec::new());
                    }
                    segments[used].clear();
                    segments[used].extend_from_slice(bytes);
                    used += 1;
                }
                segments.truncate(used);
            }
            (
                RecordType::Opt | RecordType::Any | RecordType::Other(_),
                RData::Unknown { rtype: code, data },
            ) => {
                *code = rtype.to_u16();
                data.clear();
                data.extend_from_slice(r.read_slice(rdlen, "opaque rdata")?);
            }
            // The slot holds another type: start from this one's empty
            // value (the arms above then match).
            (_, slot) => {
                *slot = Self::empty(rtype);
                return slot.decode_into(r, rtype, rdlen);
            }
        }
        Ok(())
    }
}

impl From<Ipv4Addr> for RData {
    fn from(addr: Ipv4Addr) -> Self {
        RData::A(addr)
    }
}

impl From<Ipv6Addr> for RData {
    fn from(addr: Ipv6Addr) -> Self {
        RData::Aaaa(addr)
    }
}

impl fmt::Display for RData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RData::A(a) => write!(f, "{a}"),
            RData::Ns(n) => write!(f, "{n}"),
            RData::Cname(n) => write!(f, "{n}"),
            RData::Ptr(n) => write!(f, "{n}"),
            RData::Soa(s) => write!(
                f,
                "{} {} {} {} {} {} {}",
                s.mname, s.rname, s.serial, s.refresh, s.retry, s.expire, s.minimum
            ),
            RData::Mx {
                preference,
                exchange,
            } => write!(f, "{preference} {exchange}"),
            RData::Txt(segs) => {
                for (i, seg) in segs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "\"{}\"", String::from_utf8_lossy(seg))?;
                }
                Ok(())
            }
            RData::Aaaa(a) => write!(f, "{a}"),
            RData::Unknown { rtype, data } => {
                write!(f, "\\# {}", data.len())?;
                for b in data {
                    write!(f, " {b:02x}")?;
                }
                let _ = rtype;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn roundtrip(rdata: RData) -> RData {
        let mut w = Writer::new();
        rdata.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        let mut r = Reader::new(&buf);
        let back = RData::decode(&mut r, rdata.rtype(), buf.len()).unwrap();
        assert_eq!(r.remaining(), 0);
        back
    }

    #[test]
    fn roundtrip_every_type() {
        let cases = vec![
            RData::A(Ipv4Addr::new(208, 91, 197, 91)),
            RData::Ns(name("ns1.ucfsealresearch.net")),
            RData::Cname(name("u.dcoin.co")),
            RData::Ptr(name("1.0.0.10.in-addr.arpa")),
            RData::Soa(Box::new(Soa {
                mname: name("ns1.example.net"),
                rname: name("hostmaster.example.net"),
                serial: 20180426,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: 86_400,
            })),
            RData::Mx {
                preference: 10,
                exchange: name("mx.example.net"),
            },
            RData::Txt(vec![b"wild".to_vec(), b"OK".to_vec()]),
            RData::Aaaa("2001:db8::1".parse().unwrap()),
            RData::Unknown {
                rtype: 99,
                data: vec![0xDE, 0xAD],
            },
        ];
        for rdata in cases {
            assert_eq!(roundtrip(rdata.clone()), rdata);
        }
    }

    #[test]
    fn empty_txt_and_empty_unknown() {
        assert_eq!(roundtrip(RData::Txt(vec![])), RData::Txt(vec![]));
        let u = RData::Unknown {
            rtype: 31337,
            data: vec![],
        };
        assert_eq!(roundtrip(u.clone()), u);
    }

    #[test]
    fn a_with_wrong_length_rejected() {
        let buf = [1, 2, 3];
        let err = RData::decode(&mut Reader::new(&buf), RecordType::A, 3).unwrap_err();
        assert!(matches!(err, WireError::BadRdataLength { rtype: 1, .. }));
    }

    #[test]
    fn aaaa_with_wrong_length_rejected() {
        let buf = [0u8; 4];
        let err = RData::decode(&mut Reader::new(&buf), RecordType::Aaaa, 4).unwrap_err();
        assert!(matches!(err, WireError::BadRdataLength { rtype: 28, .. }));
    }

    #[test]
    fn txt_segment_overrunning_rdlen_rejected() {
        // Segment claims 10 bytes but rdlen is 5.
        let buf = [10, b'a', b'b', b'c', b'd'];
        let err = RData::decode(&mut Reader::new(&buf), RecordType::Txt, 5).unwrap_err();
        assert!(matches!(err, WireError::BadRdataLength { rtype: 16, .. }));
    }

    #[test]
    fn oversized_txt_segment_rejected_on_encode() {
        let rdata = RData::Txt(vec![vec![b'x'; 300]]);
        let mut w = Writer::new();
        assert!(matches!(
            rdata.encode(&mut w).unwrap_err(),
            WireError::CharacterStringTooLong { len: 300 }
        ));
    }

    #[test]
    fn as_a_accessor() {
        assert_eq!(
            RData::A(Ipv4Addr::LOCALHOST).as_a(),
            Some(Ipv4Addr::LOCALHOST)
        );
        assert_eq!(RData::Txt(vec![]).as_a(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(RData::A(Ipv4Addr::new(1, 2, 3, 4)).to_string(), "1.2.3.4");
        assert_eq!(RData::Txt(vec![b"OK".to_vec()]).to_string(), "\"OK\"");
        assert_eq!(
            RData::Unknown {
                rtype: 9,
                data: vec![0xab]
            }
            .to_string(),
            "\\# 1 ab"
        );
    }

    #[test]
    fn names_in_rdata_are_not_compressed() {
        // Encode a message-like buffer where the owner name could be a
        // compression target; rdata must still spell the name out.
        let mut w = Writer::new();
        name("example.com").encode(&mut w).unwrap();
        let before = w.len();
        RData::Cname(name("example.com")).encode(&mut w).unwrap();
        let after = w.len();
        // Uncompressed "example.com" is 13 bytes, a pointer would be 2.
        assert_eq!(after - before, 13);
    }
}
