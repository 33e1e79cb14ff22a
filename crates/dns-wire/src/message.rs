//! Full DNS messages and the builder API.

use std::fmt;

use crate::error::WireError;
use crate::header::{Header, Rcode};
use crate::question::Question;
use crate::record::Record;
use crate::wire::{Reader, Writer};

/// A complete DNS message: header plus question/answer/authority/
/// additional sections.
///
/// # Example
///
/// ```
/// use orscope_dns_wire::{Message, Name, Question, RData, Record, Rcode};
/// use std::net::Ipv4Addr;
///
/// let qname: Name = "host.example.net".parse()?;
/// let query = Message::query(7, Question::a(qname.clone()));
/// let response = Message::builder()
///     .response_to(&query)
///     .recursion_available(true)
///     .answer(Record::in_class(qname, 60, RData::A(Ipv4Addr::new(1, 2, 3, 4))))
///     .build();
/// assert_eq!(response.header().rcode(), Rcode::NoError);
/// assert_eq!(response.answers().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Message {
    header: Header,
    questions: Vec<Question>,
    answers: Vec<Record>,
    authorities: Vec<Record>,
    additionals: Vec<Record>,
}

impl Message {
    /// A recursive query (RD=1) with a single question.
    pub fn query(id: u16, question: Question) -> Self {
        let mut header = Header::query(id);
        header.set_counts(1, 0, 0, 0);
        Self {
            header,
            questions: vec![question],
            ..Self::default()
        }
    }

    /// Starts building a message.
    pub fn builder() -> MessageBuilder {
        MessageBuilder::default()
    }

    /// The message header. Section counts are kept consistent with the
    /// section vectors by construction.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Mutable access to the header (used by misbehaving-resolver
    /// profiles to set nonstandard flag combinations).
    pub fn header_mut(&mut self) -> &mut Header {
        &mut self.header
    }

    /// The question section.
    pub fn questions(&self) -> &[Question] {
        &self.questions
    }

    /// The answer section.
    pub fn answers(&self) -> &[Record] {
        &self.answers
    }

    /// The authority section.
    pub fn authorities(&self) -> &[Record] {
        &self.authorities
    }

    /// The additional section.
    pub fn additionals(&self) -> &[Record] {
        &self.additionals
    }

    /// The first question, if any. R2 packets with an *empty* question
    /// section (494 of them in the 2018 capture) return `None` and are
    /// excluded from qname-keyed flow matching.
    pub fn first_question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// Removes all questions (models the broken responders of §IV-B4).
    pub fn clear_questions(&mut self) {
        self.questions.clear();
        let h = self.header;
        self.header.set_counts(
            0,
            h.answer_count(),
            h.authority_count(),
            h.additional_count(),
        );
    }

    /// Encodes the message to wire format with name compression.
    ///
    /// # Errors
    ///
    /// Fails if the message exceeds 65,535 bytes or contains invalid
    /// names/rdata.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::with_capacity(512);
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Encodes the message into `out`, reusing its allocation. `out` is
    /// cleared first; on success it holds exactly the wire encoding.
    /// Steady-state callers that keep a scratch buffer around encode
    /// without allocating at all.
    ///
    /// # Errors
    ///
    /// Same as [`Message::encode`]. The buffer's allocation survives the
    /// error path (its contents are unspecified).
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        let mut w = Writer::with_buf(std::mem::take(out));
        let result = self.encode_body(&mut w);
        let size = w.len();
        *out = w.into_buf();
        result?;
        if size > u16::MAX as usize {
            return Err(WireError::MessageTooLong { size });
        }
        Ok(())
    }

    /// Writes header and all sections through `w`.
    fn encode_body(&self, w: &mut Writer) -> Result<(), WireError> {
        let mut header = self.header;
        header.set_counts(
            self.questions.len() as u16,
            self.answers.len() as u16,
            self.authorities.len() as u16,
            self.additionals.len() as u16,
        );
        header.encode(w);
        for q in &self.questions {
            q.encode(w)?;
        }
        for rec in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            rec.encode(w)?;
        }
        Ok(())
    }

    /// Decodes a wire-format message.
    ///
    /// # Errors
    ///
    /// Reports the specific structural violation; trailing bytes after
    /// the final announced record are rejected ([`WireError::TrailingBytes`]),
    /// which is how malformed-capture counting works.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut out = Self::default();
        out.decode_into(buf)?;
        Ok(out)
    }

    /// [`Message::decode`] over an existing message, for callers that
    /// keep one inbound message per endpoint: the questions and records
    /// already in each section are overwritten in place (see
    /// [`Record::decode_into`]), slots are added only as records
    /// actually decode, and each section ends at its header count — so
    /// a steady stream of similar packets decodes without touching the
    /// heap, and nothing of a longer previous message survives into a
    /// shorter next one.
    ///
    /// # Errors
    ///
    /// Same as [`Message::decode`]; any error leaves the message empty
    /// (see [`Message::clear`]).
    pub fn decode_into(&mut self, buf: &[u8]) -> Result<(), WireError> {
        let result = self.decode_body(buf);
        if result.is_err() {
            self.clear();
        }
        result
    }

    fn decode_body(&mut self, buf: &[u8]) -> Result<(), WireError> {
        fn section<T>(
            slots: &mut Vec<T>,
            count: u16,
            r: &mut Reader<'_>,
            blank: fn() -> T,
            decode_into: fn(&mut T, &mut Reader<'_>) -> Result<(), WireError>,
        ) -> Result<(), WireError> {
            let count = count as usize;
            slots.truncate(count);
            for i in 0..count {
                if i == slots.len() {
                    push_slot(slots, blank());
                }
                decode_into(&mut slots[i], r)?;
            }
            Ok(())
        }
        let mut r = Reader::new(buf);
        self.header = Header::decode(&mut r)?;
        let h = self.header;
        section(
            &mut self.questions,
            h.question_count(),
            &mut r,
            Question::blank,
            Question::decode_into,
        )?;
        for (slots, count) in [
            (&mut self.answers, h.answer_count()),
            (&mut self.authorities, h.authority_count()),
            (&mut self.additionals, h.additional_count()),
        ] {
            section(slots, count, &mut r, Record::blank, Record::decode_into)?;
        }
        if r.remaining() > 0 {
            return Err(WireError::TrailingBytes {
                count: r.remaining(),
            });
        }
        Ok(())
    }

    /// Empties the message — default header, no questions, no records —
    /// keeping the section vectors' allocations for the next
    /// [`Message::decode_into`] or [`MessageBuilder::reusing`].
    pub fn clear(&mut self) {
        self.header = Header::default();
        self.questions.clear();
        self.answers.clear();
        self.authorities.clear();
        self.additionals.clear();
    }
}

/// `Vec::push`, except that an empty section grows to one slot where
/// `Vec` would reserve four. A section of one record is the common
/// case, a slot is up to 144 bytes, and every long-lived endpoint keeps
/// two messages: `Vec`'s minimum would pin ~4 KB of mostly unused
/// slots under each of them. Doubling from there on, like `Vec`.
fn push_slot<T>(slots: &mut Vec<T>, value: T) {
    if slots.len() == slots.capacity() {
        slots.reserve_exact(slots.len().max(1));
    }
    slots.push(value);
}

impl fmt::Display for Message {
    /// dig-style presentation for traces and examples.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let h = &self.header;
        writeln!(
            f,
            ";; id {} {} opcode={:?} rcode={} aa={} tc={} rd={} ra={}",
            h.id(),
            if h.is_response() { "response" } else { "query" },
            h.opcode(),
            h.rcode(),
            h.authoritative() as u8,
            h.truncated() as u8,
            h.recursion_desired() as u8,
            h.recursion_available() as u8,
        )?;
        writeln!(f, ";; QUESTION ({})", self.questions.len())?;
        for q in &self.questions {
            writeln!(f, ";{q}")?;
        }
        for (label, section) in [
            ("ANSWER", &self.answers),
            ("AUTHORITY", &self.authorities),
            ("ADDITIONAL", &self.additionals),
        ] {
            writeln!(f, ";; {label} ({})", section.len())?;
            for rec in section.iter() {
                writeln!(f, "{rec}")?;
            }
        }
        Ok(())
    }
}

/// Builder for [`Message`]; see [`Message::builder`].
#[derive(Debug, Default)]
pub struct MessageBuilder {
    message: Message,
}

impl MessageBuilder {
    /// Starts building in `message`'s storage: it is cleared first and
    /// its section vectors keep their allocations, so an endpoint that
    /// hands its previous outbound message back builds the next one
    /// without allocating. Otherwise identical to [`Message::builder`].
    pub fn reusing(mut message: Message) -> Self {
        message.clear();
        Self { message }
    }

    /// Sets the message ID.
    pub fn id(mut self, id: u16) -> Self {
        self.message.header.set_id(id);
        self
    }

    /// Makes this message a response to `query`: copies the ID, opcode
    /// and RD flag, sets QR, and echoes the question section.
    pub fn response_to(mut self, query: &Message) -> Self {
        self.message.header = Header::response_to(query.header());
        // Into the slots already there; a first use sizes them exactly.
        let questions = &mut self.message.questions;
        questions.clear();
        questions.reserve_exact(query.questions.len());
        questions.extend_from_slice(&query.questions);
        self
    }

    /// Adds a question.
    pub fn question(mut self, q: Question) -> Self {
        push_slot(&mut self.message.questions, q);
        self
    }

    /// Sets the RA flag.
    pub fn recursion_available(mut self, ra: bool) -> Self {
        self.message.header.set_recursion_available(ra);
        self
    }

    /// Sets the RD flag.
    pub fn recursion_desired(mut self, rd: bool) -> Self {
        self.message.header.set_recursion_desired(rd);
        self
    }

    /// Sets the AA flag.
    pub fn authoritative(mut self, aa: bool) -> Self {
        self.message.header.set_authoritative(aa);
        self
    }

    /// Sets the response code.
    pub fn rcode(mut self, rcode: Rcode) -> Self {
        self.message.header.set_rcode(rcode);
        self
    }

    /// Adds an answer record.
    pub fn answer(mut self, rec: Record) -> Self {
        push_slot(&mut self.message.answers, rec);
        self
    }

    /// Adds an authority record.
    pub fn authority(mut self, rec: Record) -> Self {
        push_slot(&mut self.message.authorities, rec);
        self
    }

    /// Adds an additional record.
    pub fn additional(mut self, rec: Record) -> Self {
        push_slot(&mut self.message.additionals, rec);
        self
    }

    /// Finishes the message, fixing up section counts.
    pub fn build(mut self) -> Message {
        let (qd, an, ns, ar) = (
            self.message.questions.len() as u16,
            self.message.answers.len() as u16,
            self.message.authorities.len() as u16,
            self.message.additionals.len() as u16,
        );
        self.message.header.set_counts(qd, an, ns, ar);
        self.message
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::Name;
    use crate::rdata::RData;
    use crate::record::{RecordClass, RecordType};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn sample_response() -> Message {
        let query = Message::query(
            0xCAFE,
            Question::a(name("or000.0000042.ucfsealresearch.net")),
        );
        Message::builder()
            .response_to(&query)
            .recursion_available(true)
            .answer(Record::in_class(
                name("or000.0000042.ucfsealresearch.net"),
                60,
                RData::A(Ipv4Addr::new(10, 42, 0, 1)),
            ))
            .authority(Record::in_class(
                name("ucfsealresearch.net"),
                3600,
                RData::Ns(name("ns1.ucfsealresearch.net")),
            ))
            .additional(Record::in_class(
                name("ns1.ucfsealresearch.net"),
                3600,
                RData::A(Ipv4Addr::new(45, 77, 1, 1)),
            ))
            .build()
    }

    #[test]
    fn query_constructor() {
        let q = Message::query(1, Question::a(name("x.example")));
        assert_eq!(q.header().question_count(), 1);
        assert!(q.header().recursion_desired());
        assert!(!q.header().is_response());
    }

    #[test]
    fn full_message_roundtrip() {
        let msg = sample_response();
        let wire = msg.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn counts_are_fixed_up() {
        let msg = sample_response();
        assert_eq!(msg.header().question_count(), 1);
        assert_eq!(msg.header().answer_count(), 1);
        assert_eq!(msg.header().authority_count(), 1);
        assert_eq!(msg.header().additional_count(), 1);
    }

    #[test]
    fn compression_shrinks_message() {
        let msg = sample_response();
        let wire = msg.encode().unwrap();
        // Uncompressed total of all names would be far larger; sanity
        // check against a generous bound to prove pointers are in use.
        let uncompressed: usize = 12
            + msg.questions()[0].qname().wire_len() + 4
            + msg.answers()[0].name().wire_len() + 10 + 4
            + msg.authorities()[0].name().wire_len() + 10
            + msg.authorities()[0].name().wire_len() + 4 // ns rdata approx
            + msg.additionals()[0].name().wire_len() + 10 + 4;
        assert!(
            wire.len() < uncompressed,
            "{} >= {}",
            wire.len(),
            uncompressed
        );
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let msg = Message::query(9, Question::a(name("x.example")));
        let mut wire = msg.encode().unwrap();
        wire.push(0xFF);
        assert_eq!(
            Message::decode(&wire).unwrap_err(),
            WireError::TrailingBytes { count: 1 }
        );
    }

    #[test]
    fn decode_rejects_count_overstatement() {
        let msg = Message::query(9, Question::a(name("x.example")));
        let mut wire = msg.encode().unwrap();
        wire[5] = 2; // QDCOUNT=2 but only one question present
        assert!(matches!(
            Message::decode(&wire).unwrap_err(),
            WireError::Truncated { .. }
        ));
    }

    #[test]
    fn empty_question_response_is_representable() {
        let query = Message::query(3, Question::a(name("q.example")));
        let mut resp = Message::builder()
            .response_to(&query)
            .rcode(Rcode::ServFail)
            .build();
        resp.clear_questions();
        let wire = resp.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        assert!(back.first_question().is_none());
        assert_eq!(back.header().rcode(), Rcode::ServFail);
    }

    #[test]
    fn response_echoes_question_and_id() {
        let query = Message::query(
            0x5555,
            Question::new(name("any.example"), RecordType::Any, RecordClass::In),
        );
        let resp = Message::builder().response_to(&query).build();
        assert_eq!(resp.header().id(), 0x5555);
        assert!(resp.header().is_response());
        assert_eq!(resp.questions(), query.questions());
    }

    #[test]
    fn display_contains_sections() {
        let text = sample_response().to_string();
        assert!(text.contains("ANSWER (1)"));
        assert!(text.contains("ucfsealresearch.net"));
        assert!(text.contains("ra=1"));
    }
}

/// EDNS(0) support (RFC 6891): the OPT pseudo-record advertising a
/// larger-than-512-byte UDP payload size, and response truncation for
/// clients without it.
impl Message {
    /// The classic UDP payload limit for non-EDNS clients (RFC 1035).
    pub const CLASSIC_UDP_LIMIT: usize = 512;

    /// Adds an OPT record advertising `udp_size` (client side of EDNS).
    pub fn set_edns_udp_size(&mut self, udp_size: u16) {
        // Remove any previous OPT first.
        self.additionals
            .retain(|r| r.rtype() != crate::record::RecordType::Opt);
        push_slot(
            &mut self.additionals,
            Record::new(
                crate::name::Name::root(),
                crate::record::RecordClass::Other(udp_size),
                0,
                crate::rdata::RData::Unknown {
                    rtype: crate::record::RecordType::Opt.to_u16(),
                    data: Vec::new(),
                },
            ),
        );
        let h = self.header;
        self.header.set_counts(
            h.question_count(),
            h.answer_count(),
            h.authority_count(),
            self.additionals.len() as u16,
        );
    }

    /// The UDP payload size advertised via EDNS, if an OPT is present.
    pub(crate) fn edns_udp_size(&self) -> Option<u16> {
        self.additionals
            .iter()
            .find(|r| r.rtype() == crate::record::RecordType::Opt)
            .map(|r| r.class().to_u16())
    }

    /// The response-size budget a server may use for this query:
    /// the advertised EDNS size (at least 512) or the classic 512.
    pub fn response_size_limit(&self) -> usize {
        self.edns_udp_size()
            .map(|s| (s as usize).max(Self::CLASSIC_UDP_LIMIT))
            .unwrap_or(Self::CLASSIC_UDP_LIMIT)
    }

    /// Truncates the message to fit `limit` encoded bytes by dropping
    /// additional, authority, then answer records (in that order) and
    /// setting the TC bit if anything was dropped (RFC 2181 §9 behaviour).
    ///
    /// Returns the final encoding.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors (malformed names/rdata).
    pub fn encode_truncated(&self, limit: usize) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::with_capacity(512);
        self.encode_truncated_into(limit, &mut out)?;
        Ok(out)
    }

    /// [`Message::encode_truncated`] into a reusable buffer, mirroring
    /// [`Message::encode_into`].
    ///
    /// # Errors
    ///
    /// Propagates encoding errors (malformed names/rdata).
    pub fn encode_truncated_into(&self, limit: usize, out: &mut Vec<u8>) -> Result<(), WireError> {
        self.encode_into(out)?;
        if out.len() <= limit {
            return Ok(());
        }
        let mut clipped = self.clone();
        clipped.header_mut().set_truncated(true);
        loop {
            if clipped.additionals.pop().is_none()
                && clipped.authorities.pop().is_none()
                && clipped.answers.pop().is_none()
            {
                break;
            }
            clipped.encode_into(out)?;
            if out.len() <= limit {
                return Ok(());
            }
        }
        clipped.encode_into(out)
    }
}

#[cfg(test)]
mod edns_tests {
    use super::*;
    use crate::name::Name;
    use crate::question::Question;
    use crate::rdata::RData;
    use crate::record::Record;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn opt_roundtrip() {
        let mut q = Message::query(1, Question::a(name("example.net")));
        assert_eq!(q.edns_udp_size(), None);
        assert_eq!(q.response_size_limit(), 512);
        q.set_edns_udp_size(4096);
        assert_eq!(q.edns_udp_size(), Some(4096));
        assert_eq!(q.response_size_limit(), 4096);
        let wire = q.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back.edns_udp_size(), Some(4096));
        // Setting again replaces rather than duplicates.
        q.set_edns_udp_size(1232);
        assert_eq!(q.additionals().len(), 1);
        assert_eq!(q.edns_udp_size(), Some(1232));
    }

    #[test]
    fn tiny_edns_size_clamps_to_classic() {
        let mut q = Message::query(1, Question::a(name("example.net")));
        q.set_edns_udp_size(100);
        assert_eq!(q.response_size_limit(), 512);
    }

    #[test]
    fn truncation_drops_records_and_sets_tc() {
        let query = Message::query(5, Question::any(name("big.example")));
        let mut builder = Message::builder().response_to(&query);
        for i in 0..40 {
            builder = builder.answer(Record::in_class(
                name("big.example"),
                60,
                RData::Txt(vec![
                    format!("payload-{i:02}-{}", "x".repeat(40)).into_bytes()
                ]),
            ));
        }
        let full = builder.build();
        let full_wire = full.encode().unwrap();
        assert!(full_wire.len() > 1500);
        let clipped_wire = full.encode_truncated(512).unwrap();
        assert!(clipped_wire.len() <= 512);
        let clipped = Message::decode(&clipped_wire).unwrap();
        assert!(clipped.header().truncated(), "TC set");
        assert!(clipped.header().answer_count() < 40);
        // A generous limit passes through untouched.
        let untouched = full.encode_truncated(65_000).unwrap();
        assert_eq!(untouched, full_wire);
        assert!(!Message::decode(&untouched).unwrap().header().truncated());
    }

    #[test]
    fn truncation_can_drop_everything_but_question() {
        let query = Message::query(5, Question::a(name("x.example")));
        let mut resp = Message::builder().response_to(&query).build();
        resp.header_mut().set_response(true);
        for _ in 0..3 {
            resp = {
                let mut b = Message::builder().response_to(&query);
                for i in 0..3 {
                    b = b.answer(Record::in_class(
                        name("x.example"),
                        60,
                        RData::Txt(vec![vec![b'a'; 200 + i]]),
                    ));
                }
                b.build()
            };
        }
        let wire = resp.encode_truncated(60).unwrap();
        let back = Message::decode(&wire).unwrap();
        assert!(back.header().truncated());
        assert_eq!(back.answers().len(), 0);
    }
}
