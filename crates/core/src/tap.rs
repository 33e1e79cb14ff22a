//! Live flow tap: predicate-filtered streaming of bus records.
//!
//! A [`TapSubscriber`] attaches to a [`RecordBus`],
//! decodes each record on its own thread (classification and DNS
//! decoding never run on the event loop), evaluates a small
//! [`TapPredicate`] against it, and renders matches as one NDJSON line
//! each — the payload of `GET /tap?match=...` and `orscope tap`.
//!
//! The predicate language is a whitespace-separated conjunction of
//! `key=value` clauses (commas also separate):
//!
//! | clause | meaning |
//! |---|---|
//! | `qname=*.example` | qname glob (`*` wildcards, case-insensitive) |
//! | `rcode=NXDOMAIN` | rcode by name (case-insensitive) or 0-15 |
//! | `class=nxwall` | generated [`ProfileClass`] of the resolver |
//! | `src=198.51.` | source address: octet prefix or `a.b.c.d/len` |
//! | `dst=10.0.0.1` | destination address, same forms |
//!
//! An empty expression matches everything.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

use orscope_analysis::classify;
use orscope_authns::{CapturedPacket, Direction};
use orscope_dns_wire::header::Rcode;
use orscope_dns_wire::Message;
use orscope_netsim::SimTime;
use orscope_prober::R2Capture;
use orscope_resolver::profile::ProfileClass;

use crate::bus::{Captured, Record, RecordBus, TapReceiver};
use crate::infra::Infra;

/// A parse failure, with a human-readable reason (served as the body of
/// a `400` on `/tap`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateError(pub String);

impl std::fmt::Display for PredicateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad tap predicate: {}", self.0)
    }
}

impl std::error::Error for PredicateError {}

fn err<T>(reason: impl Into<String>) -> Result<T, PredicateError> {
    Err(PredicateError(reason.into()))
}

/// An address clause: either a CIDR block or a leading-octet prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
enum AddrPattern {
    /// `a.b.c.d/len`: match under the network mask.
    Cidr(Ipv4Addr, u8),
    /// `198.51.` or `198.51`: match the leading octets exactly.
    Prefix(Vec<u8>),
}

impl AddrPattern {
    fn parse(value: &str) -> Result<Self, PredicateError> {
        if let Some((addr, len)) = value.split_once('/') {
            let addr: Ipv4Addr = match addr.parse() {
                Ok(a) => a,
                Err(_) => return err(format!("bad CIDR address {addr:?}")),
            };
            let len: u8 = match len.parse() {
                Ok(l) if l <= 32 => l,
                _ => return err(format!("bad CIDR prefix length {len:?}")),
            };
            return Ok(AddrPattern::Cidr(addr, len));
        }
        let trimmed = value.strip_suffix('.').unwrap_or(value);
        if trimmed.is_empty() {
            return err("empty address pattern");
        }
        let mut octets = Vec::new();
        for part in trimmed.split('.') {
            if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
                return err(format!("bad address octet {part:?} in {value:?}"));
            }
            let octet: u32 = part.parse().expect("all-digit, <= 3 chars");
            if octet > 255 {
                return err(format!("address octet {octet} out of range in {value:?}"));
            }
            octets.push(octet as u8);
        }
        if octets.len() > 4 {
            return err(format!("more than four octets in {value:?}"));
        }
        Ok(AddrPattern::Prefix(octets))
    }

    fn matches(&self, addr: Ipv4Addr) -> bool {
        match self {
            AddrPattern::Cidr(net, len) => {
                let mask = if *len == 0 {
                    0
                } else {
                    u32::MAX << (32 - *len)
                };
                (u32::from(addr) & mask) == (u32::from(*net) & mask)
            }
            AddrPattern::Prefix(octets) => {
                addr.octets().iter().zip(octets.iter()).all(|(a, p)| a == p)
            }
        }
    }
}

impl std::fmt::Display for AddrPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AddrPattern::Cidr(addr, len) => write!(f, "{addr}/{len}"),
            AddrPattern::Prefix(octets) => {
                let parts: Vec<String> = octets.iter().map(|o| o.to_string()).collect();
                f.write_str(&parts.join("."))
            }
        }
    }
}

/// One `key=value` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Clause {
    /// `qname=` glob, stored lowercase.
    Qname(String),
    /// `rcode=` by name or numeric value.
    Rcode(Rcode),
    /// `class=` generated profile class.
    Class(ProfileClass),
    /// `src=` address pattern.
    Src(AddrPattern),
    /// `dst=` address pattern.
    Dst(AddrPattern),
}

impl Clause {
    fn parse(text: &str) -> Result<Self, PredicateError> {
        let Some((key, value)) = text.split_once('=') else {
            return err(format!("clause {text:?} is not key=value"));
        };
        let (key, value) = (key.trim(), value.trim());
        if value.is_empty() {
            return err(format!("clause {key:?} has an empty value"));
        }
        match key.to_ascii_lowercase().as_str() {
            "qname" => {
                let pattern = value.to_ascii_lowercase();
                if !pattern
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'*'))
                {
                    return err(format!("qname pattern {value:?} has invalid characters"));
                }
                Ok(Clause::Qname(pattern))
            }
            "rcode" => parse_rcode(value).map(Clause::Rcode),
            "class" => {
                let lower = value.to_ascii_lowercase();
                match ProfileClass::ALL.iter().find(|c| c.as_str() == lower) {
                    Some(class) => Ok(Clause::Class(*class)),
                    None => err(format!(
                        "unknown class {value:?} (expected one of {})",
                        ProfileClass::ALL.map(|c| c.as_str()).join(", ")
                    )),
                }
            }
            "src" => AddrPattern::parse(value).map(Clause::Src),
            "dst" => AddrPattern::parse(value).map(Clause::Dst),
            other => err(format!(
                "unknown key {other:?} (expected qname, rcode, class, src or dst)"
            )),
        }
    }

    fn matches(&self, event: &TapEvent) -> bool {
        match self {
            Clause::Qname(pattern) => match &event.qname {
                Some(qname) => glob_match(pattern.as_bytes(), qname.as_bytes()),
                None => false,
            },
            Clause::Rcode(rcode) => event.rcode == Some(*rcode),
            Clause::Class(class) => event.class == Some(*class),
            Clause::Src(pattern) => pattern.matches(event.src),
            Clause::Dst(pattern) => pattern.matches(event.dst),
        }
    }
}

impl std::fmt::Display for Clause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Clause::Qname(pattern) => write!(f, "qname={pattern}"),
            Clause::Rcode(Rcode::Other(v)) => write!(f, "rcode={v}"),
            Clause::Rcode(rcode) => write!(f, "rcode={rcode}"),
            Clause::Class(class) => write!(f, "class={}", class.as_str()),
            Clause::Src(pattern) => write!(f, "src={pattern}"),
            Clause::Dst(pattern) => write!(f, "dst={pattern}"),
        }
    }
}

fn parse_rcode(value: &str) -> Result<Rcode, PredicateError> {
    if value.bytes().all(|b| b.is_ascii_digit()) {
        return match value.parse::<u8>() {
            Ok(v) if v <= 15 => Ok(Rcode::from_u8(v)),
            _ => err(format!("rcode {value:?} out of range (0-15)")),
        };
    }
    let lower = value.to_ascii_lowercase();
    let named = [
        Rcode::NoError,
        Rcode::FormErr,
        Rcode::ServFail,
        Rcode::NXDomain,
        Rcode::NotImp,
        Rcode::Refused,
        Rcode::YXDomain,
        Rcode::YXRRSet,
        Rcode::NXRRSet,
        Rcode::NotAuth,
        Rcode::NotZone,
    ];
    match named
        .iter()
        .find(|r| r.to_string().to_ascii_lowercase() == lower)
    {
        Some(rcode) => Ok(*rcode),
        None => err(format!("unknown rcode {value:?}")),
    }
}

/// Iterative `*`-glob match (no allocation, no recursion depth limit to
/// hit: classic two-pointer with backtracking to the last star).
fn glob_match(pattern: &[u8], text: &[u8]) -> bool {
    let (mut p, mut t) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while t < text.len() {
        if p < pattern.len() && (pattern[p] == text[t]) {
            p += 1;
            t += 1;
        } else if p < pattern.len() && pattern[p] == b'*' {
            star = Some((p, t));
            p += 1;
        } else if let Some((sp, st)) = star {
            p = sp + 1;
            t = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while p < pattern.len() && pattern[p] == b'*' {
        p += 1;
    }
    p == pattern.len()
}

/// A conjunction of clauses; matches a [`TapEvent`] iff every clause
/// does. The empty predicate matches everything.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TapPredicate {
    clauses: Vec<Clause>,
}

impl TapPredicate {
    /// The match-everything predicate.
    pub fn match_all() -> Self {
        Self::default()
    }

    /// Parses a whitespace-separated clause list (commas are tolerated
    /// as separators too, so `rcode=3,class=honest` works on a shell
    /// line that forgot to quote). The empty (or all-whitespace) string
    /// parses to [`TapPredicate::match_all`]. Never panics: any
    /// malformed input is a [`PredicateError`].
    pub fn parse(text: &str) -> Result<Self, PredicateError> {
        let text = text.trim();
        if text.is_empty() {
            return Ok(Self::match_all());
        }
        let mut clauses = Vec::new();
        for token in text.split_whitespace() {
            for part in token.split(',') {
                if part.is_empty() {
                    return err("empty clause (stray comma?)");
                }
                clauses.push(Clause::parse(part)?);
            }
        }
        Ok(Self { clauses })
    }

    /// Whether `event` satisfies every clause.
    pub fn matches(&self, event: &TapEvent) -> bool {
        self.clauses.iter().all(|clause| clause.matches(event))
    }

    /// Number of clauses (0 for match-all).
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether this is the match-everything predicate.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }
}

impl std::fmt::Display for TapPredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, clause) in self.clauses.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{clause}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for TapPredicate {
    type Err = PredicateError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// Where in the Fig. 2 topology a tapped record was captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapKind {
    /// R2: the response the prober captured from the probed target.
    R2,
    /// Q2: a query arriving at the authoritative server.
    Q2,
    /// R1: the authoritative server's response going out.
    R1,
}

impl TapKind {
    /// Stable lowercase label used in the NDJSON `kind` field.
    pub fn as_str(self) -> &'static str {
        match self {
            TapKind::R2 => "r2",
            TapKind::Q2 => "q2",
            TapKind::R1 => "r1",
        }
    }
}

/// One decoded, taggable record: what a predicate sees and what one
/// NDJSON line serializes.
#[derive(Debug, Clone, PartialEq)]
pub struct TapEvent {
    /// Capture point.
    pub kind: TapKind,
    /// Virtual capture time.
    pub at: SimTime,
    /// Packet source (the probed resolver for R2, the querying resolver
    /// for Q2, the authoritative server for R1).
    pub src: Ipv4Addr,
    /// Packet destination.
    pub dst: Ipv4Addr,
    /// Decoded qname (lowercase); `None` when the payload has no
    /// parseable question.
    pub qname: Option<String>,
    /// Decoded rcode; `None` when the header is unparseable.
    pub rcode: Option<Rcode>,
    /// Generated profile class of the resolver side of the flow, as the
    /// round that captured the record generated it; `None` when that
    /// round does not probe the address.
    pub class: Option<ProfileClass>,
    /// Raw payload length in bytes.
    pub payload_len: usize,
}

impl TapEvent {
    /// Renders the event as one NDJSON object (no trailing newline),
    /// with fields in a stable order. The fixed fields are written
    /// directly — the only strings are addresses, enum labels and the
    /// qname, which goes through the shared escaper — so the tap drain
    /// thread's hot loop builds no value tree.
    pub fn to_ndjson(&self) -> String {
        let mut line = String::with_capacity(128);
        line.push_str("{\"at\":");
        line.push_str(&format!("{:.6}", self.at.as_secs_f64()));
        line.push_str(",\"kind\":\"");
        line.push_str(self.kind.as_str());
        line.push_str("\",\"src\":\"");
        line.push_str(&self.src.to_string());
        line.push_str("\",\"dst\":\"");
        line.push_str(&self.dst.to_string());
        line.push('"');
        if let Some(qname) = &self.qname {
            line.push_str(",\"qname\":\"");
            // Restricted ASCII in practice, but a hostile payload could
            // decode to anything.
            orscope_json::escape_into(&mut line, qname);
            line.push('"');
        }
        if let Some(rcode) = self.rcode {
            line.push_str(",\"rcode\":\"");
            line.push_str(&rcode.to_string());
            line.push('"');
        }
        if let Some(class) = self.class {
            line.push_str(",\"class\":\"");
            line.push_str(class.as_str());
            line.push('"');
        }
        line.push_str(",\"len\":");
        line.push_str(&self.payload_len.to_string());
        line.push('}');
        line
    }
}

/// A bus subscriber that decodes, filters and renders records.
///
/// All decoding happens on the caller's (consumer) thread — the
/// publisher only ever clones records, whose payloads are shared rather
/// than copied, into the bounded queue, beside the class it looked up
/// for them.
pub struct TapSubscriber {
    receiver: TapReceiver,
    predicate: TapPredicate,
    prober: Ipv4Addr,
    auth: Ipv4Addr,
}

impl std::fmt::Debug for TapSubscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TapSubscriber")
            .field("lane", &self.receiver.id())
            .field("predicate", &self.predicate.to_string())
            .finish()
    }
}

impl TapSubscriber {
    /// Subscribes a new lane of `capacity` records on `bus`, filtered
    /// by `predicate`. `infra` supplies the prober/auth addresses used
    /// to orient src/dst.
    pub fn attach(
        bus: &Arc<RecordBus>,
        predicate: TapPredicate,
        capacity: usize,
        infra: &Infra,
    ) -> Self {
        Self {
            receiver: bus.subscribe(capacity),
            predicate,
            prober: infra.prober,
            auth: infra.auth,
        }
    }

    /// Records the publisher dropped on this lane so far.
    pub fn dropped(&self) -> u64 {
        self.receiver.dropped()
    }

    /// Waits up to `timeout` for the next record that satisfies the
    /// predicate. Non-matching records are consumed and discarded;
    /// `None` means the timeout elapsed.
    pub fn poll(&self, timeout: Duration) -> Option<TapEvent> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            let record = self.receiver.recv_timeout(remaining)?;
            let event = self.decode(&record);
            if self.predicate.matches(&event) {
                return Some(event);
            }
            if remaining.is_zero() {
                return None;
            }
        }
    }

    /// Drains without waiting: the next already-queued matching record.
    pub fn poll_now(&self) -> Option<TapEvent> {
        loop {
            let record = self.receiver.try_recv()?;
            let event = self.decode(&record);
            if self.predicate.matches(&event) {
                return Some(event);
            }
        }
    }

    /// Decodes one raw record into a taggable event, with the class its
    /// publisher attached.
    fn decode(&self, record: &Record) -> TapEvent {
        match &record.captured {
            Captured::R2(capture) => self.decode_r2(capture, record.class),
            Captured::Auth(packet) => self.decode_auth(packet, record.class),
        }
    }

    fn decode_r2(&self, capture: &R2Capture, class: Option<ProfileClass>) -> TapEvent {
        let rcode = classify(capture).map(|c| c.rcode);
        TapEvent {
            kind: TapKind::R2,
            at: capture.at,
            src: capture.target,
            dst: self.prober,
            qname: Some(capture.qname.to_string().to_ascii_lowercase()),
            rcode,
            class,
            payload_len: capture.payload.len(),
        }
    }

    fn decode_auth(&self, packet: &CapturedPacket, class: Option<ProfileClass>) -> TapEvent {
        let (kind, src, dst) = match packet.direction {
            Direction::Inbound => (TapKind::Q2, packet.peer, self.auth),
            Direction::Outbound => (TapKind::R1, self.auth, packet.peer),
        };
        let message = Message::decode(&packet.payload).ok();
        let qname = message
            .as_ref()
            .and_then(|m| m.first_question())
            .map(|q| q.qname().to_string().to_ascii_lowercase());
        let rcode = message.as_ref().map(|m| m.header().rcode());
        TapEvent {
            kind,
            at: packet.at,
            src,
            dst,
            qname,
            rcode,
            class,
            payload_len: packet.payload.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: TapKind) -> TapEvent {
        TapEvent {
            kind,
            at: SimTime::from_secs(1),
            src: Ipv4Addr::new(198, 51, 100, 7),
            dst: Ipv4Addr::new(10, 0, 0, 1),
            qname: Some("a7.c3.ucfsealresearch.net".into()),
            rcode: Some(Rcode::NXDomain),
            class: Some(ProfileClass::NxWall),
            payload_len: 64,
        }
    }

    #[test]
    fn empty_predicate_matches_everything() {
        let p = TapPredicate::parse("").unwrap();
        assert!(p.is_empty());
        assert!(p.matches(&event(TapKind::R2)));
        assert_eq!(p.to_string(), "");
    }

    #[test]
    fn conjunction_requires_every_clause() {
        let p = TapPredicate::parse("rcode=NXDOMAIN class=nxwall").unwrap();
        assert!(p.matches(&event(TapKind::R2)));
        let p = TapPredicate::parse("rcode=NXDOMAIN class=honest").unwrap();
        assert!(!p.matches(&event(TapKind::R2)));
        // Comma separators are tolerated and mean the same conjunction.
        let p = TapPredicate::parse("rcode=NXDOMAIN,class=nxwall").unwrap();
        assert!(p.matches(&event(TapKind::R2)));
    }

    #[test]
    fn qname_glob_is_case_insensitive() {
        let p = TapPredicate::parse("qname=*.UCFSEALRESEARCH.net").unwrap();
        assert!(p.matches(&event(TapKind::R2)));
        let p = TapPredicate::parse("qname=*.example").unwrap();
        assert!(!p.matches(&event(TapKind::R2)));
    }

    #[test]
    fn glob_star_backtracks() {
        assert!(glob_match(b"a*b*c", b"axxbxbxc"));
        assert!(glob_match(b"*", b"anything"));
        assert!(glob_match(b"*", b""));
        assert!(!glob_match(b"a*b", b"a"));
        assert!(glob_match(b"a.b", b"a.b"));
        assert!(!glob_match(b"a.b", b"aXb"));
    }

    #[test]
    fn rcode_accepts_names_and_numbers() {
        assert_eq!(parse_rcode("nxdomain").unwrap(), Rcode::NXDomain);
        assert_eq!(parse_rcode("NXDOMAIN").unwrap(), Rcode::NXDomain);
        assert_eq!(parse_rcode("3").unwrap(), Rcode::NXDomain);
        assert_eq!(parse_rcode("12").unwrap(), Rcode::Other(12));
        assert!(parse_rcode("16").is_err());
        assert!(parse_rcode("banana").is_err());
    }

    #[test]
    fn addr_prefix_matches_octet_wise() {
        let p = TapPredicate::parse("src=198.51.").unwrap();
        assert!(p.matches(&event(TapKind::R2)));
        // "198.5" must NOT match 198.51.* — octets, not text prefixes.
        let p = TapPredicate::parse("src=198.5").unwrap();
        assert!(!p.matches(&event(TapKind::R2)));
        let p = TapPredicate::parse("dst=10.0.0.1").unwrap();
        assert!(p.matches(&event(TapKind::R2)));
    }

    #[test]
    fn addr_cidr_masks() {
        let p = TapPredicate::parse("src=198.51.100.0/24").unwrap();
        assert!(p.matches(&event(TapKind::R2)));
        let p = TapPredicate::parse("src=198.51.101.0/24").unwrap();
        assert!(!p.matches(&event(TapKind::R2)));
        let p = TapPredicate::parse("src=0.0.0.0/0").unwrap();
        assert!(p.matches(&event(TapKind::R2)));
    }

    #[test]
    fn malformed_inputs_err() {
        for bad in [
            "rcode",
            "rcode=",
            "=x",
            "qname=sp ace",
            "class=wizard",
            "src=1.2.3.4.5",
            "src=300.1",
            "src=1.2.3.4/33",
            "frobnicate=1",
            "rcode=NXDOMAIN,,class=honest",
        ] {
            assert!(
                TapPredicate::parse(bad).is_err(),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn display_round_trips() {
        for text in [
            "qname=*.example rcode=NXDomain class=nxwall src=198.51 dst=10.0.0.0/8",
            "qname=*.example,rcode=NXDomain,class=nxwall",
            "rcode=12",
            "src=1.2.3.4",
            "",
        ] {
            let p = TapPredicate::parse(text).unwrap();
            let shown = p.to_string();
            assert_eq!(TapPredicate::parse(&shown).unwrap(), p, "via {shown:?}");
        }
    }

    #[test]
    fn ndjson_has_stable_fields() {
        let line = event(TapKind::Q2).to_ndjson();
        assert_eq!(
            line,
            "{\"at\":1.000000,\"kind\":\"q2\",\"src\":\"198.51.100.7\",\
             \"dst\":\"10.0.0.1\",\"qname\":\"a7.c3.ucfsealresearch.net\",\
             \"rcode\":\"NXDomain\",\"class\":\"nxwall\",\"len\":64}"
        );
    }

    #[test]
    fn ndjson_escapes_hostile_qnames() {
        let mut e = event(TapKind::R2);
        e.qname = Some("a\"b\\c\nd".into());
        assert!(e.to_ndjson().contains("a\\\"b\\\\c\\nd"));
    }
}
