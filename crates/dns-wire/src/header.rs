//! The 12-byte DNS message header (RFC 1035 §4.1.1).

use std::fmt;

use crate::error::WireError;
use crate::wire::{Reader, Writer};

/// DNS operation codes (header `OPCODE` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) enum Opcode {
    /// Standard query (0).
    #[default]
    Query,
    /// Inverse query (1, obsolete).
    IQuery,
    /// Server status request (2).
    Status,
    /// Zone change notification (4).
    Notify,
    /// Dynamic update (5).
    Update,
    /// Any value not otherwise listed.
    Other(u8),
}

impl Opcode {
    /// The 4-bit wire value.
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Notify => 4,
            Opcode::Update => 5,
            Opcode::Other(v) => v & 0x0F,
        }
    }

    /// Decodes a 4-bit wire value.
    pub(crate) fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            4 => Opcode::Notify,
            5 => Opcode::Update,
            other => Opcode::Other(other),
        }
    }
}

/// DNS response codes (RFC 1035 §4.1.1 + RFC 6895), the `rcode` the paper
/// analyzes in Table VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Rcode {
    /// 0: no error.
    #[default]
    NoError,
    /// 1: the server could not interpret the query.
    FormErr,
    /// 2: internal server failure.
    ServFail,
    /// 3: the queried name does not exist.
    NXDomain,
    /// 4: query kind not implemented.
    NotImp,
    /// 5: the server refuses to answer for policy reasons.
    Refused,
    /// 6: a name exists when it should not (RFC 2136).
    YXDomain,
    /// 7: an RR set exists when it should not (RFC 2136).
    YXRRSet,
    /// 8: an RR set that should exist does not (RFC 2136).
    NXRRSet,
    /// 9: the server is not authoritative / not authorized (RFC 2136/2845).
    NotAuth,
    /// 10: a name is not contained in the zone (RFC 2136).
    NotZone,
    /// Any other 4-bit value (11-15 are unassigned).
    Other(u8),
}

impl Rcode {
    /// All rcodes the paper's Table VI tabulates, in column order.
    pub const TABLE_VI_ORDER: [Rcode; 9] = [
        Rcode::NoError,
        Rcode::FormErr,
        Rcode::ServFail,
        Rcode::NXDomain,
        Rcode::NotImp,
        Rcode::Refused,
        Rcode::YXDomain,
        Rcode::YXRRSet,
        Rcode::NotAuth,
    ];

    /// The 4-bit wire value.
    pub fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NXDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::YXDomain => 6,
            Rcode::YXRRSet => 7,
            Rcode::NXRRSet => 8,
            Rcode::NotAuth => 9,
            Rcode::NotZone => 10,
            Rcode::Other(v) => v & 0x0F,
        }
    }

    /// Decodes a 4-bit wire value.
    pub fn from_u8(v: u8) -> Self {
        match v & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NXDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            6 => Rcode::YXDomain,
            7 => Rcode::YXRRSet,
            8 => Rcode::NXRRSet,
            9 => Rcode::NotAuth,
            10 => Rcode::NotZone,
            other => Rcode::Other(other),
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rcode::NoError => "NoError",
            Rcode::FormErr => "FormErr",
            Rcode::ServFail => "ServFail",
            Rcode::NXDomain => "NXDomain",
            Rcode::NotImp => "NotImp",
            Rcode::Refused => "Refused",
            Rcode::YXDomain => "YXDomain",
            Rcode::YXRRSet => "YXRRSet",
            Rcode::NXRRSet => "NXRRSet",
            Rcode::NotAuth => "NotAuth",
            Rcode::NotZone => "NotZone",
            Rcode::Other(v) => return write!(f, "Rcode{v}"),
        };
        write!(f, "{s}")
    }
}

/// The DNS message header: ID, flag bits, and the four section counts.
///
/// The flag bits QR, AA, TC, RD, RA and the rcode are exactly the fields
/// whose (mis)use the paper's behavioral analysis is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    id: u16,
    response: bool,
    opcode: Opcode,
    authoritative: bool,
    truncated: bool,
    recursion_desired: bool,
    recursion_available: bool,
    /// The reserved Z bit (must be zero; some broken resolvers set it).
    z: bool,
    /// Authentic-data bit (DNSSEC, RFC 4035).
    authentic_data: bool,
    /// Checking-disabled bit (DNSSEC, RFC 4035).
    checking_disabled: bool,
    rcode: Rcode,
    question_count: u16,
    answer_count: u16,
    authority_count: u16,
    additional_count: u16,
}

impl Header {
    /// A query header with the given ID; RD is set (the prober always
    /// requests recursion).
    pub fn query(id: u16) -> Self {
        Self {
            id,
            recursion_desired: true,
            ..Self::default()
        }
    }

    /// A response header matching a query's ID.
    pub fn response_to(query: &Header) -> Self {
        Self {
            id: query.id,
            response: true,
            opcode: query.opcode,
            recursion_desired: query.recursion_desired,
            ..Self::default()
        }
    }

    /// Message ID.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Sets the message ID.
    pub fn set_id(&mut self, id: u16) -> &mut Self {
        self.id = id;
        self
    }

    /// QR bit: whether this is a response.
    pub fn is_response(&self) -> bool {
        self.response
    }

    /// Sets the QR bit.
    pub fn set_response(&mut self, response: bool) -> &mut Self {
        self.response = response;
        self
    }

    /// Operation code.
    pub(crate) fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// AA bit: authoritative answer.
    pub fn authoritative(&self) -> bool {
        self.authoritative
    }

    /// Sets the AA bit.
    pub(crate) fn set_authoritative(&mut self, aa: bool) -> &mut Self {
        self.authoritative = aa;
        self
    }

    /// TC bit: message was truncated.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Sets the TC bit.
    pub fn set_truncated(&mut self, tc: bool) -> &mut Self {
        self.truncated = tc;
        self
    }

    /// RD bit: recursion desired.
    pub fn recursion_desired(&self) -> bool {
        self.recursion_desired
    }

    /// Sets the RD bit.
    pub(crate) fn set_recursion_desired(&mut self, rd: bool) -> &mut Self {
        self.recursion_desired = rd;
        self
    }

    /// RA bit: recursion available.
    pub fn recursion_available(&self) -> bool {
        self.recursion_available
    }

    /// Sets the RA bit.
    pub fn set_recursion_available(&mut self, ra: bool) -> &mut Self {
        self.recursion_available = ra;
        self
    }

    /// Response code.
    pub fn rcode(&self) -> Rcode {
        self.rcode
    }

    /// Sets the response code.
    pub(crate) fn set_rcode(&mut self, rcode: Rcode) -> &mut Self {
        self.rcode = rcode;
        self
    }

    /// QDCOUNT: number of questions.
    pub fn question_count(&self) -> u16 {
        self.question_count
    }

    /// ANCOUNT: number of answer records.
    pub fn answer_count(&self) -> u16 {
        self.answer_count
    }

    /// NSCOUNT: number of authority records.
    pub(crate) fn authority_count(&self) -> u16 {
        self.authority_count
    }

    /// ARCOUNT: number of additional records.
    pub(crate) fn additional_count(&self) -> u16 {
        self.additional_count
    }

    /// Sets the four section counts (normally done by message encoding).
    pub(crate) fn set_counts(&mut self, qd: u16, an: u16, ns: u16, ar: u16) -> &mut Self {
        self.question_count = qd;
        self.answer_count = an;
        self.authority_count = ns;
        self.additional_count = ar;
        self
    }

    /// Encodes the 12 header bytes.
    pub fn encode(&self, w: &mut Writer) {
        w.write_u16(self.id);
        let mut flags: u16 = 0;
        if self.response {
            flags |= 1 << 15;
        }
        flags |= (self.opcode.to_u8() as u16) << 11;
        if self.authoritative {
            flags |= 1 << 10;
        }
        if self.truncated {
            flags |= 1 << 9;
        }
        if self.recursion_desired {
            flags |= 1 << 8;
        }
        if self.recursion_available {
            flags |= 1 << 7;
        }
        if self.z {
            flags |= 1 << 6;
        }
        if self.authentic_data {
            flags |= 1 << 5;
        }
        if self.checking_disabled {
            flags |= 1 << 4;
        }
        flags |= self.rcode.to_u8() as u16;
        w.write_u16(flags);
        w.write_u16(self.question_count);
        w.write_u16(self.answer_count);
        w.write_u16(self.authority_count);
        w.write_u16(self.additional_count);
    }

    /// Decodes the 12 header bytes.
    ///
    /// # Errors
    ///
    /// Fails only on truncation; every flag combination is representable.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let id = r.read_u16("header id")?;
        let flags = r.read_u16("header flags")?;
        let question_count = r.read_u16("QDCOUNT")?;
        let answer_count = r.read_u16("ANCOUNT")?;
        let authority_count = r.read_u16("NSCOUNT")?;
        let additional_count = r.read_u16("ARCOUNT")?;
        Ok(Self {
            id,
            response: flags & (1 << 15) != 0,
            opcode: Opcode::from_u8((flags >> 11) as u8),
            authoritative: flags & (1 << 10) != 0,
            truncated: flags & (1 << 9) != 0,
            recursion_desired: flags & (1 << 8) != 0,
            recursion_available: flags & (1 << 7) != 0,
            z: flags & (1 << 6) != 0,
            authentic_data: flags & (1 << 5) != 0,
            checking_disabled: flags & (1 << 4) != 0,
            rcode: Rcode::from_u8(flags as u8),
            question_count,
            answer_count,
            authority_count,
            additional_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_header_defaults() {
        let h = Header::query(0xBEEF);
        assert_eq!(h.id(), 0xBEEF);
        assert!(!h.is_response());
        assert!(h.recursion_desired());
        assert!(!h.recursion_available());
        assert!(!h.authoritative());
        assert_eq!(h.rcode(), Rcode::NoError);
    }

    #[test]
    fn response_mirrors_query() {
        let q = Header::query(7);
        let r = Header::response_to(&q);
        assert_eq!(r.id(), 7);
        assert!(r.is_response());
        assert!(r.recursion_desired());
    }

    impl Header {
        /// Sets the reserved Z bit (only broken implementations do).
        fn set_z_bit(&mut self, z: bool) -> &mut Self {
            self.z = z;
            self
        }

        /// Sets the AD bit (DNSSEC authentic data).
        fn set_authentic_data(&mut self, ad: bool) -> &mut Self {
            self.authentic_data = ad;
            self
        }

        /// Sets the CD bit (DNSSEC checking disabled).
        fn set_checking_disabled(&mut self, cd: bool) -> &mut Self {
            self.checking_disabled = cd;
            self
        }
    }

    #[test]
    fn roundtrip_all_flag_bits() {
        let mut h = Header::query(0x0102);
        h.set_response(true)
            .set_authoritative(true)
            .set_truncated(true)
            .set_recursion_available(true)
            .set_z_bit(true)
            .set_authentic_data(true)
            .set_checking_disabled(true)
            .set_rcode(Rcode::Refused)
            .set_counts(1, 2, 3, 4);
        let mut w = Writer::new();
        h.encode(&mut w);
        let buf = w.finish().unwrap();
        assert_eq!(buf.len(), 12);
        let back = Header::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn known_wire_vector() {
        // ID=0x1234, QR=1 RD=1 RA=1 rcode=NXDomain, counts 1/0/1/0.
        let buf = [
            0x12, 0x34, 0x81, 0x83, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
        ];
        let h = Header::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(h.id(), 0x1234);
        assert!(h.is_response());
        assert!(h.recursion_desired());
        assert!(h.recursion_available());
        assert_eq!(h.rcode(), Rcode::NXDomain);
        assert_eq!(h.question_count(), 1);
        assert_eq!(h.authority_count(), 1);
    }

    #[test]
    fn truncated_header_errors() {
        let buf = [0u8; 11];
        assert!(matches!(
            Header::decode(&mut Reader::new(&buf)).unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    #[test]
    fn rcode_u8_roundtrip() {
        for v in 0..16u8 {
            assert_eq!(Rcode::from_u8(v).to_u8(), v);
        }
        assert_eq!(Rcode::from_u8(3), Rcode::NXDomain);
        assert_eq!(Rcode::from_u8(9), Rcode::NotAuth);
        assert_eq!(Rcode::from_u8(13), Rcode::Other(13));
    }

    #[test]
    fn opcode_u8_roundtrip() {
        for v in 0..16u8 {
            assert_eq!(Opcode::from_u8(v).to_u8(), v);
        }
        assert_eq!(Opcode::from_u8(5), Opcode::Update);
    }

    #[test]
    fn rcode_display_matches_table_vi_names() {
        let names: Vec<String> = Rcode::TABLE_VI_ORDER
            .iter()
            .map(|r| r.to_string())
            .collect();
        assert_eq!(
            names,
            vec![
                "NoError", "FormErr", "ServFail", "NXDomain", "NotImp", "Refused", "YXDomain",
                "YXRRSet", "NotAuth"
            ]
        );
    }
}
