//! Per-packet classification of R2 responses.

use std::net::Ipv4Addr;

use orscope_authns::scheme::{ground_truth, ProbeLabel};
use orscope_dns_wire::wire::Reader;
use orscope_dns_wire::{Header, Message, Name, RData, Rcode};
use orscope_netsim::SimTime;
use orscope_prober::R2Capture;

/// The decoded answer content of an R2 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnswerKind {
    /// No answer records (the W/O column).
    None,
    /// An IPv4 address (possibly via a CNAME-less A record).
    Ip(Ipv4Addr),
    /// A redirect name (CNAME answer) — the paper's "URL" form.
    Url(String),
    /// A text answer — the paper's "string" form.
    Str(String),
    /// The answer section could not be decoded (2013 "N/A").
    Malformed,
}

impl AnswerKind {
    /// Whether an answer section is present (W vs W/O).
    pub(crate) fn is_present(&self) -> bool {
        !matches!(self, AnswerKind::None)
    }
}

/// A fully classified R2 packet: everything Tables III-X need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifiedR2 {
    /// The resolver that sent the response.
    pub resolver: Ipv4Addr,
    /// Receive time.
    pub at: SimTime,
    /// Send time of the probe this response answers.
    pub sent_at: SimTime,
    /// The qname the probe carried (joins R2 to Q2/R1 flows).
    pub qname: Name,
    /// Wire length of the response payload, for amplification factors.
    pub payload_len: u32,
    /// Whether the response carried a question section.
    pub(crate) has_question: bool,
    /// The probe label, when the response was matched by qname.
    pub label: Option<ProbeLabel>,
    /// Recursion Available flag.
    pub ra: bool,
    /// Authoritative Answer flag.
    pub aa: bool,
    /// Response code.
    pub rcode: Rcode,
    /// The answer content.
    pub answer: AnswerKind,
    /// Whether an IP answer matches the zone's ground truth. Always
    /// `false` for non-IP or missing answers.
    pub correct: bool,
}

impl ClassifiedR2 {
    /// Whether this packet has an answer section (W column).
    pub(crate) fn has_answer(&self) -> bool {
        self.answer.is_present()
    }

    /// Whether this packet has an answer that is wrong (including
    /// malformed answers, which the paper counts as incorrect).
    pub fn incorrect(&self) -> bool {
        self.has_answer() && !self.correct
    }
}

/// Classifies one captured response.
///
/// Returns `None` only if even the 12-byte header cannot be parsed — such
/// a packet carries no analyzable flags (none occur in the calibrated
/// populations, but arbitrary captures may contain them).
pub fn classify(capture: &R2Capture) -> Option<ClassifiedR2> {
    classify_in(capture, &mut Message::default())
}

/// [`classify`], decoding into the caller's scratch message
/// ([`Message::decode_into`]): a caller that classifies a stream keeps
/// one and stops allocating section vectors per response.
pub(crate) fn classify_in(capture: &R2Capture, msg: &mut Message) -> Option<ClassifiedR2> {
    match msg.decode_into(&capture.payload) {
        Ok(()) => {
            let header = *msg.header();
            let answer = extract_answer(msg);
            let correct = match (&answer, capture.label) {
                (AnswerKind::Ip(ip), Some(label)) => *ip == ground_truth(label),
                _ => false,
            };
            Some(ClassifiedR2 {
                resolver: capture.target,
                at: capture.at,
                sent_at: capture.sent_at,
                qname: capture.qname.clone(),
                payload_len: capture.payload.len() as u32,
                has_question: msg.first_question().is_some(),
                label: capture.label,
                ra: header.recursion_available(),
                aa: header.authoritative(),
                rcode: header.rcode(),
                answer,
                correct,
            })
        }
        Err(_) => {
            // Partial decode: header flags survive, the answer does not.
            let mut reader = Reader::new(&capture.payload);
            let header = Header::decode(&mut reader).ok()?;
            Some(ClassifiedR2 {
                resolver: capture.target,
                at: capture.at,
                sent_at: capture.sent_at,
                qname: capture.qname.clone(),
                payload_len: capture.payload.len() as u32,
                has_question: header.question_count() > 0,
                label: capture.label,
                ra: header.recursion_available(),
                aa: header.authoritative(),
                rcode: header.rcode(),
                answer: AnswerKind::Malformed,
                correct: false,
            })
        }
    }
}

/// Pulls the analyzable answer out of a decoded message: the first A
/// record wins; otherwise the first CNAME ("URL" form), then TXT
/// ("string" form).
fn extract_answer(msg: &Message) -> AnswerKind {
    if msg.answers().is_empty() {
        return AnswerKind::None;
    }
    for rec in msg.answers() {
        if let RData::A(addr) = rec.rdata() {
            return AnswerKind::Ip(*addr);
        }
    }
    for rec in msg.answers() {
        match rec.rdata() {
            RData::Cname(name) => return AnswerKind::Url(name.to_string()),
            RData::Txt(segments) => {
                let text = segments
                    .iter()
                    .map(|s| String::from_utf8_lossy(s).into_owned())
                    .collect::<Vec<_>>()
                    .join(" ");
                return AnswerKind::Str(text);
            }
            _ => {}
        }
    }
    // Answer records of other types: treat as a string form of their
    // presentation (rare; keeps the classifier total).
    AnswerKind::Str(msg.answers()[0].rdata().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orscope_dns_wire::{Name, Question, Record};
    use orscope_netsim::Payload;

    fn zone() -> Name {
        "ucfsealresearch.net".parse().unwrap()
    }

    fn capture_for(label: ProbeLabel, payload: Vec<u8>) -> R2Capture {
        R2Capture {
            target: Ipv4Addr::new(9, 9, 9, 9),
            label: Some(label),
            qname: label.qname(&zone()),
            at: SimTime::from_secs(1),
            sent_at: SimTime::ZERO,
            payload: Payload::from(payload),
        }
    }

    fn response(
        label: ProbeLabel,
        build: impl FnOnce(orscope_dns_wire::MessageBuilder) -> orscope_dns_wire::MessageBuilder,
    ) -> Vec<u8> {
        let query = Message::query(1, Question::a(label.qname(&zone())));
        let builder = Message::builder().response_to(&query);
        build(builder).build().encode().unwrap()
    }

    #[test]
    fn correct_answer_classified() {
        let label = ProbeLabel::new(0, 5);
        let wire = response(label, |b| {
            b.recursion_available(true).answer(Record::in_class(
                label.qname(&zone()),
                60,
                RData::A(ground_truth(label)),
            ))
        });
        let c = classify(&capture_for(label, wire)).unwrap();
        assert!(c.correct);
        assert!(c.has_answer());
        assert!(c.ra);
        assert!(!c.aa);
        assert_eq!(c.rcode, Rcode::NoError);
    }

    #[test]
    fn wrong_ip_classified_incorrect() {
        let label = ProbeLabel::new(0, 6);
        let wire = response(label, |b| {
            b.answer(Record::in_class(
                label.qname(&zone()),
                60,
                RData::A(Ipv4Addr::new(208, 91, 197, 91)),
            ))
        });
        let c = classify(&capture_for(label, wire)).unwrap();
        assert!(!c.correct);
        assert!(c.incorrect());
        assert_eq!(c.answer, AnswerKind::Ip(Ipv4Addr::new(208, 91, 197, 91)));
    }

    #[test]
    fn empty_answer_is_none() {
        let label = ProbeLabel::new(0, 7);
        let wire = response(label, |b| b.rcode(Rcode::Refused));
        let c = classify(&capture_for(label, wire)).unwrap();
        assert_eq!(c.answer, AnswerKind::None);
        assert!(!c.incorrect());
        assert_eq!(c.rcode, Rcode::Refused);
    }

    #[test]
    fn cname_is_url_form() {
        let label = ProbeLabel::new(0, 8);
        let wire = response(label, |b| {
            b.answer(Record::in_class(
                label.qname(&zone()),
                60,
                RData::Cname("u.dcoin.co".parse().unwrap()),
            ))
        });
        let c = classify(&capture_for(label, wire)).unwrap();
        assert_eq!(c.answer, AnswerKind::Url("u.dcoin.co".to_owned()));
        assert!(c.incorrect());
    }

    #[test]
    fn txt_is_string_form() {
        let label = ProbeLabel::new(0, 9);
        let wire = response(label, |b| {
            b.answer(Record::in_class(
                label.qname(&zone()),
                60,
                RData::Txt(vec![b"wild".to_vec()]),
            ))
        });
        let c = classify(&capture_for(label, wire)).unwrap();
        assert_eq!(c.answer, AnswerKind::Str("wild".to_owned()));
    }

    #[test]
    fn malformed_salvages_header() {
        let label = ProbeLabel::new(0, 10);
        let mut wire = response(label, |b| {
            b.recursion_available(true).answer(Record::in_class(
                label.qname(&zone()),
                60,
                RData::A(Ipv4Addr::new(1, 2, 3, 4)),
            ))
        });
        let len = wire.len();
        wire[len - 6] = 0xFF; // corrupt RDLENGTH
        wire[len - 5] = 0xFF;
        let c = classify(&capture_for(label, wire)).unwrap();
        assert_eq!(c.answer, AnswerKind::Malformed);
        assert!(c.ra, "flags salvaged");
        assert!(c.incorrect(), "N/A counts as incorrect");
    }

    #[test]
    fn hopeless_garbage_returns_none() {
        let cap = R2Capture {
            target: Ipv4Addr::new(1, 1, 1, 1),
            label: None,
            qname: "x".parse().unwrap(),
            at: SimTime::ZERO,
            sent_at: SimTime::ZERO,
            payload: Payload::from(vec![0xDE, 0xAD]),
        };
        assert!(classify(&cap).is_none());
    }

    #[test]
    fn a_record_takes_precedence_over_cname() {
        let label = ProbeLabel::new(0, 11);
        let wire = response(label, |b| {
            b.answer(Record::in_class(
                label.qname(&zone()),
                60,
                RData::Cname("cdn.example".parse().unwrap()),
            ))
            .answer(Record::in_class(
                "cdn.example".parse().unwrap(),
                60,
                RData::A(ground_truth(label)),
            ))
        });
        let c = classify(&capture_for(label, wire)).unwrap();
        assert!(matches!(c.answer, AnswerKind::Ip(_)));
        assert!(c.correct, "A behind CNAME still checked against truth");
    }
}
