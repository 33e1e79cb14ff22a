//! Resource records: types, classes, and the record container.

use std::fmt;

use crate::error::WireError;
use crate::name::Name;
use crate::rdata::RData;
use crate::wire::{Reader, Writer};

/// DNS record types (RFC 1035 §3.2.2 plus AAAA, OPT and the ANY qtype the
/// amplification analysis uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecordType {
    /// 1: IPv4 host address.
    A,
    /// 2: authoritative name server.
    Ns,
    /// 5: canonical name (alias).
    Cname,
    /// 6: start of authority.
    Soa,
    /// 12: domain name pointer (reverse lookups).
    Ptr,
    /// 15: mail exchange.
    Mx,
    /// 16: text strings.
    Txt,
    /// 28: IPv6 host address.
    Aaaa,
    /// 41: EDNS(0) pseudo-record (RFC 6891).
    Opt,
    /// 255: request for all records ("ANY"), the amplification vector.
    Any,
    /// Any other type code.
    Other(u16),
}

impl RecordType {
    /// The 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Opt => 41,
            RecordType::Any => 255,
            RecordType::Other(v) => v,
        }
    }

    /// Decodes a 16-bit wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            12 => RecordType::Ptr,
            15 => RecordType::Mx,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            41 => RecordType::Opt,
            255 => RecordType::Any,
            other => RecordType::Other(other),
        }
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordType::A => write!(f, "A"),
            RecordType::Ns => write!(f, "NS"),
            RecordType::Cname => write!(f, "CNAME"),
            RecordType::Soa => write!(f, "SOA"),
            RecordType::Ptr => write!(f, "PTR"),
            RecordType::Mx => write!(f, "MX"),
            RecordType::Txt => write!(f, "TXT"),
            RecordType::Aaaa => write!(f, "AAAA"),
            RecordType::Opt => write!(f, "OPT"),
            RecordType::Any => write!(f, "ANY"),
            RecordType::Other(v) => write!(f, "TYPE{v}"),
        }
    }
}

/// DNS record classes; effectively always `IN` on the Internet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RecordClass {
    /// 1: the Internet.
    #[default]
    In,
    /// 3: Chaos (used by version.bind queries).
    Ch,
    /// 4: Hesiod.
    Hs,
    /// 255: any class.
    Any,
    /// Any other class code (OPT records smuggle the UDP payload size
    /// through this field).
    Other(u16),
}

impl RecordClass {
    /// The 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordClass::In => 1,
            RecordClass::Ch => 3,
            RecordClass::Hs => 4,
            RecordClass::Any => 255,
            RecordClass::Other(v) => v,
        }
    }

    /// Decodes a 16-bit wire value.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordClass::In,
            3 => RecordClass::Ch,
            4 => RecordClass::Hs,
            255 => RecordClass::Any,
            other => RecordClass::Other(other),
        }
    }
}

impl fmt::Display for RecordClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordClass::In => write!(f, "IN"),
            RecordClass::Ch => write!(f, "CH"),
            RecordClass::Hs => write!(f, "HS"),
            RecordClass::Any => write!(f, "ANY"),
            RecordClass::Other(v) => write!(f, "CLASS{v}"),
        }
    }
}

/// One resource record: owner name, class, TTL and typed rdata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    name: Name,
    class: RecordClass,
    ttl: u32,
    rdata: RData,
}

impl Record {
    /// Creates a record.
    pub fn new(name: Name, class: RecordClass, ttl: u32, rdata: RData) -> Self {
        Self {
            name,
            class,
            ttl,
            rdata,
        }
    }

    /// Convenience constructor for `IN` records.
    pub fn in_class(name: Name, ttl: u32, rdata: RData) -> Self {
        Self::new(name, RecordClass::In, ttl, rdata)
    }

    /// Owner name.
    pub fn name(&self) -> &Name {
        &self.name
    }

    /// Record class.
    pub fn class(&self) -> RecordClass {
        self.class
    }

    /// Time to live, in seconds.
    pub fn ttl(&self) -> u32 {
        self.ttl
    }

    /// Replaces the TTL (used by caches counting down remaining life).
    pub fn set_ttl(&mut self, ttl: u32) -> &mut Self {
        self.ttl = ttl;
        self
    }

    /// The record type, derived from the rdata.
    pub fn rtype(&self) -> RecordType {
        self.rdata.rtype()
    }

    /// The typed rdata.
    pub fn rdata(&self) -> &RData {
        &self.rdata
    }

    /// Encodes the record with a backpatched RDLENGTH.
    pub fn encode(&self, w: &mut Writer) -> Result<(), WireError> {
        self.name.encode(w)?;
        w.write_u16(self.rtype().to_u16());
        w.write_u16(self.class.to_u16());
        w.write_u32(self.ttl);
        let len_at = w.len();
        w.write_u16(0); // placeholder RDLENGTH
        let start = w.len();
        self.rdata.encode(w)?;
        let rdlen = w.len() - start;
        if rdlen > u16::MAX as usize {
            return Err(WireError::BadRdataLength {
                rtype: self.rtype().to_u16(),
                declared: u16::MAX as usize,
                actual: rdlen,
            });
        }
        w.patch_u16(len_at, rdlen as u16);
        Ok(())
    }

    /// Decodes one record.
    ///
    /// # Errors
    ///
    /// Reports truncation and rdata-length mismatches; unknown record
    /// types are preserved as [`RData::Unknown`] rather than rejected.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = Self::blank();
        out.decode_into(r)?;
        Ok(out)
    }

    /// The slot [`Record::decode_into`] starts from when there is none
    /// to reuse.
    pub(crate) fn blank() -> Self {
        Self::in_class(Name::root(), 0, RData::A(std::net::Ipv4Addr::UNSPECIFIED))
    }

    /// [`Record::decode`] over an existing record: the owner name and,
    /// when the type repeats, the rdata are overwritten in place (see
    /// [`RData::decode_into`]). On error the contents are unspecified.
    ///
    /// # Errors
    ///
    /// Same as [`Record::decode`].
    pub fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        self.name.decode_into(r)?;
        let rtype = RecordType::from_u16(r.read_u16("record type")?);
        self.class = RecordClass::from_u16(r.read_u16("record class")?);
        self.ttl = r.read_u32("record ttl")?;
        let rdlen = r.read_u16("rdata length")? as usize;
        if r.remaining() < rdlen {
            return Err(WireError::Truncated {
                offset: r.position(),
                expected: "rdata",
            });
        }
        let rdata_end = r.position() + rdlen;
        self.rdata.decode_into(r, rtype, rdlen)?;
        if r.position() != rdata_end {
            return Err(WireError::BadRdataLength {
                rtype: rtype.to_u16(),
                declared: rdlen,
                actual: r.position() + rdlen - rdata_end,
            });
        }
        Ok(())
    }
}

// Every record of every section vector is moved, cloned and overwritten
// at this size; two 64-byte names (owner + the widest rdata) and the
// tags, TTL and class beside them are the floor.
const _: () = assert!(std::mem::size_of::<Record>() <= 144);

impl fmt::Display for Record {
    /// Zone-file-ish presentation: `name ttl class type rdata`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.name,
            self.ttl,
            self.class,
            self.rtype(),
            self.rdata
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn type_code_roundtrip() {
        for t in [1u16, 2, 5, 6, 12, 15, 16, 28, 41, 255, 99, 257] {
            assert_eq!(RecordType::from_u16(t).to_u16(), t);
        }
    }

    #[test]
    fn class_code_roundtrip() {
        for c in [1u16, 3, 4, 255, 4096] {
            assert_eq!(RecordClass::from_u16(c).to_u16(), c);
        }
    }

    #[test]
    fn a_record_roundtrip() {
        let rec = Record::in_class(
            name("www.example.com"),
            300,
            RData::A(Ipv4Addr::new(93, 184, 216, 34)),
        );
        let mut w = Writer::new();
        rec.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        let back = Record::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.rtype(), RecordType::A);
        assert_eq!(back.ttl(), 300);
    }

    #[test]
    fn display_is_zone_file_like() {
        let rec = Record::in_class(name("a.example"), 60, RData::A(Ipv4Addr::new(1, 2, 3, 4)));
        assert_eq!(rec.to_string(), "a.example 60 IN A 1.2.3.4");
    }

    #[test]
    fn rdata_length_mismatch_detected() {
        // A record declaring 5 rdata bytes but A rdata is 4.
        let mut w = Writer::new();
        name("x").encode(&mut w).unwrap();
        w.write_u16(1); // type A
        w.write_u16(1); // class IN
        w.write_u32(0); // ttl
        w.write_u16(5); // WRONG rdlength
        w.write_slice(&[1, 2, 3, 4, 9]);
        let buf = w.finish().unwrap();
        let err = Record::decode(&mut Reader::new(&buf)).unwrap_err();
        assert!(matches!(err, WireError::BadRdataLength { rtype: 1, .. }));
    }

    #[test]
    fn truncated_rdata_detected() {
        let mut w = Writer::new();
        name("x").encode(&mut w).unwrap();
        w.write_u16(1);
        w.write_u16(1);
        w.write_u32(0);
        w.write_u16(4);
        w.write_slice(&[1, 2]); // only 2 of 4 bytes
        let buf = w.finish().unwrap();
        assert!(matches!(
            Record::decode(&mut Reader::new(&buf)).unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    #[test]
    fn display_names() {
        assert_eq!(RecordType::Any.to_string(), "ANY");
        assert_eq!(RecordType::Other(99).to_string(), "TYPE99");
        assert_eq!(RecordClass::Other(512).to_string(), "CLASS512");
    }
}
