//! The question section entry (RFC 1035 §4.1.2).

use std::fmt;

use crate::error::WireError;
use crate::name::Name;
use crate::record::{RecordClass, RecordType};
use crate::wire::{Reader, Writer};

/// A question: qname, qtype, qclass.
///
/// The probing methodology keys the Q1/Q2/R1/R2 flow matching on the
/// qname (a unique per-target subdomain), so `Question` is the join key
/// of the entire analysis.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    qname: Name,
    qtype: RecordType,
    qclass: RecordClass,
}

impl Question {
    /// Creates a question.
    pub fn new(qname: Name, qtype: RecordType, qclass: RecordClass) -> Self {
        Self {
            qname,
            qtype,
            qclass,
        }
    }

    /// Convenience: an `IN A` question for `qname`.
    pub fn a(qname: Name) -> Self {
        Self::new(qname, RecordType::A, RecordClass::In)
    }

    /// Convenience: an `IN ANY` question (the amplification vector).
    pub fn any(qname: Name) -> Self {
        Self::new(qname, RecordType::Any, RecordClass::In)
    }

    /// The queried name.
    pub fn qname(&self) -> &Name {
        &self.qname
    }

    /// The queried type.
    pub fn qtype(&self) -> RecordType {
        self.qtype
    }

    /// The queried class.
    pub fn qclass(&self) -> RecordClass {
        self.qclass
    }

    /// Encodes the question.
    pub fn encode(&self, w: &mut Writer) -> Result<(), WireError> {
        self.qname.encode(w)?;
        w.write_u16(self.qtype.to_u16());
        w.write_u16(self.qclass.to_u16());
        Ok(())
    }

    /// Decodes one question.
    ///
    /// # Errors
    ///
    /// Fails on truncation or malformed qname encoding.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = Self::blank();
        out.decode_into(r)?;
        Ok(out)
    }

    /// The slot [`Question::decode_into`] starts from when there is none
    /// to reuse.
    pub(crate) fn blank() -> Self {
        Self::a(Name::root())
    }

    /// [`Question::decode`] over an existing question (see
    /// [`Name::decode_into`]). On error the contents are unspecified.
    ///
    /// # Errors
    ///
    /// Same as [`Question::decode`].
    pub fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        self.qname.decode_into(r)?;
        self.qtype = RecordType::from_u16(r.read_u16("question type")?);
        self.qclass = RecordClass::from_u16(r.read_u16("question class")?);
        Ok(())
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.qname, self.qclass, self.qtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let q = Question::a("or003.1234567.ucfsealresearch.net".parse().unwrap());
        let mut w = Writer::new();
        q.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        let back = Question::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn any_qtype() {
        let q = Question::any("example.net".parse().unwrap());
        assert_eq!(q.qtype(), RecordType::Any);
        assert_eq!(q.qclass(), RecordClass::In);
    }

    #[test]
    fn display() {
        let q = Question::a("example.com".parse().unwrap());
        assert_eq!(q.to_string(), "example.com IN A");
    }

    #[test]
    fn truncated_question_fails() {
        let q = Question::a("example.com".parse().unwrap());
        let mut w = Writer::new();
        q.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        for cut in [1, buf.len() - 1] {
            assert!(Question::decode(&mut Reader::new(&buf[..cut])).is_err());
        }
    }
}
