//! Behavior profiles: how a probed host answers a DNS query.
//!
//! Every behavioural category in the paper's Tables III-X corresponds to
//! a [`ResponsePolicy`]:
//!
//! | Paper observation | Policy |
//! |---|---|
//! | Honest open resolver (RA=1, correct answer) | `Recurse { ra: true, aa: false, .. }` |
//! | Correct answer but RA=0 (Table IV's 3,994) | `Recurse { ra: false, .. }` |
//! | Correct answer with AA=1 (Table V) | `Recurse { aa: true, .. }` |
//! | Answer + nonzero rcode (Table VI's 2,715) | `Recurse { rcode_override: Some(..) }` |
//! | Wrong/malicious IP answers (Tables VII-X) | `Immediate` with a fixed [`AnswerData`] |
//! | Refused/ServFail/... without answer | `Immediate` with `answer: None` and an rcode |
//! | Empty `dns_question` responders (§IV-B4) | `Immediate { empty_question: true, .. }` |
//! | Undecodable 2013 responses (Table VII N/A) | `Immediate { malformed_rdata: true, .. }` |
//! | Off-port responders (the ZMap blind spot, §V) | `Immediate { src_port: Some(p), .. }` |

use std::net::Ipv4Addr;

use orscope_dns_wire::Rcode;
use orscope_lookup::threatintel::Category;

/// The answer payload of a misbehaving responder.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AnswerData {
    /// An A record with a fixed (wrong) address — the dominant incorrect
    /// form (Table VII "IP").
    FixedIp(Ipv4Addr),
    /// A CNAME pointing at a redirect host (Table VII "URL", e.g.
    /// `u.dcoin.co`).
    Url(String),
    /// A TXT-style string answer (Table VII "string", e.g. `wild`, `OK`).
    Text(String),
}

/// A canned response: no recursion happens at all.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ImmediateResponse {
    /// Answer-section payload; `None` leaves the answer section empty.
    pub answer: Option<AnswerData>,
    /// Value of the Recursion Available bit.
    pub ra: bool,
    /// Value of the Authoritative Answer bit.
    pub aa: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Strip the question section (the 494 packets of §IV-B4).
    pub empty_question: bool,
    /// Answer from this source port instead of 53 (ZMap blind spot).
    pub src_port: Option<u16>,
    /// Corrupt the answer rdata length on the wire so the capture side
    /// cannot decode the answer (the 8,764 N/A packets of 2013).
    pub(crate) malformed_rdata: bool,
}

impl ImmediateResponse {
    /// A refusal: no answer, rcode `Refused`, RA=0 — the single most
    /// common R2 in both scans (2.9M packets in 2018).
    pub fn refused() -> Self {
        Self {
            answer: None,
            ra: false,
            aa: false,
            rcode: Rcode::Refused,
            empty_question: false,
            src_port: None,
            malformed_rdata: false,
        }
    }

    /// No answer with an arbitrary flag/rcode combination.
    pub fn empty(ra: bool, aa: bool, rcode: Rcode) -> Self {
        Self {
            answer: None,
            ra,
            aa,
            rcode,
            empty_question: false,
            src_port: None,
            malformed_rdata: false,
        }
    }

    /// A fixed wrong-answer response (rcode NoError).
    pub(crate) fn wrong_answer(answer: AnswerData, ra: bool, aa: bool) -> Self {
        Self {
            answer: Some(answer),
            ra,
            aa,
            rcode: Rcode::NoError,
            empty_question: false,
            src_port: None,
            malformed_rdata: false,
        }
    }
}

/// A policy that really recurses, then (possibly) lies in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecursePolicy {
    /// RA bit in the final response (standard behaviour: `true`).
    pub ra: bool,
    /// AA bit in the final response (standard behaviour: `false`).
    pub aa: bool,
    /// Replace the rcode in the final response (Table VI's nonzero-rcode-
    /// with-answer packets).
    pub(crate) rcode_override: Option<Rcode>,
    /// Total identical queries sent to the authoritative server per
    /// resolution (>= 1). Real resolver farms re-ask; this is what makes
    /// the paper's Q2 roughly 2-4x its R2.
    pub(crate) auth_duplicates: u16,
}

impl Default for RecursePolicy {
    /// Standard-conforming recursion.
    fn default() -> Self {
        Self {
            ra: true,
            aa: false,
            rcode_override: None,
            auth_duplicates: 1,
        }
    }
}

/// A DNS forwarder (proxy): the home-router pattern Schomp et al.
/// distinguish from true recursive resolvers. It performs no iteration
/// itself; it relays the query to a configured upstream resolver and
/// relays the answer back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForwardPolicy {
    /// The upstream recursive resolver queries are relayed to.
    pub upstream: std::net::Ipv4Addr,
    /// RA bit stamped on relayed responses. Many cheap CPE devices
    /// forward the upstream's answer but rewrite flags; `None` passes
    /// the upstream's RA through unchanged.
    pub(crate) ra_override: Option<bool>,
}

/// What a probed host does with an incoming query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ResponseAction {
    /// Accept the packet but never answer (port open, service mute).
    Silent,
    /// Answer from configuration without recursing.
    Immediate(ImmediateResponse),
    /// Perform real iterative resolution, then answer.
    Recurse(RecursePolicy),
    /// Relay to an upstream resolver (a DNS proxy / home router).
    Forward(ForwardPolicy),
}

/// Coarse behavioral classes over [`ResponsePolicy`] — the unit of the
/// observatory's profile-drift transition matrix.
///
/// Classification is total: every policy the population generator can
/// produce maps to exactly one class, so per-class counts always sum to
/// the population size. The classes mirror the paper's behavioral
/// buckets (honest forwarding, NXDOMAIN walls, ad redirection, outright
/// malice) at the granularity churn drifts between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProfileClass {
    /// Standards-conforming recursion with a correct answer.
    Honest,
    /// Recurses but rewrites the rcode (filtering middleboxes).
    Filtering,
    /// Relays to an upstream resolver (CPE proxy).
    Forwarder,
    /// Answers immediately with a wrong value (ad redirection et al.).
    Misdirecting,
    /// Reported in threat intelligence: a malicious redirector.
    Malicious,
    /// Answers Refused without an answer section.
    Refusing,
    /// Answers NXDOMAIN for every name (the NXDOMAIN wall).
    NxWall,
    /// Some other immediate answer-less response (ServFail, FormErr,
    /// empty NoError, malformed packets).
    OtherImmediate,
    /// Accepts the packet but never answers.
    Silent,
}

impl ProfileClass {
    /// Every class, in matrix row/column order.
    pub const ALL: [ProfileClass; 9] = [
        ProfileClass::Honest,
        ProfileClass::Filtering,
        ProfileClass::Forwarder,
        ProfileClass::Misdirecting,
        ProfileClass::Malicious,
        ProfileClass::Refusing,
        ProfileClass::NxWall,
        ProfileClass::OtherImmediate,
        ProfileClass::Silent,
    ];

    /// Stable label (used in served JSON and Prometheus labels).
    pub fn as_str(self) -> &'static str {
        match self {
            ProfileClass::Honest => "honest",
            ProfileClass::Filtering => "filtering",
            ProfileClass::Forwarder => "forwarder",
            ProfileClass::Misdirecting => "misdirecting",
            ProfileClass::Malicious => "malicious",
            ProfileClass::Refusing => "refusing",
            ProfileClass::NxWall => "nxwall",
            ProfileClass::OtherImmediate => "other",
            ProfileClass::Silent => "silent",
        }
    }

    /// Position in [`ProfileClass::ALL`].
    pub fn index(self) -> usize {
        ProfileClass::ALL
            .iter()
            .position(|c| *c == self)
            .expect("ALL is exhaustive")
    }
}

impl std::fmt::Display for ProfileClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The full behavior profile of one probed host.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResponsePolicy {
    /// How queries are answered.
    pub action: ResponseAction,
    /// For malicious redirectors: the threat category their answer
    /// address is reported under (drives Tables VIII-X).
    pub malicious_category: Option<Category>,
}

impl ResponsePolicy {
    /// An honest, standards-conforming open resolver.
    pub fn honest() -> Self {
        Self {
            action: ResponseAction::Recurse(RecursePolicy::default()),
            malicious_category: None,
        }
    }

    /// A refusing resolver (closed to the public).
    pub fn refusing() -> Self {
        Self {
            action: ResponseAction::Immediate(ImmediateResponse::refused()),
            malicious_category: None,
        }
    }

    /// A malicious redirector: answers every query with `target`,
    /// rcode NoError (the paper found *all* 26,926 malicious responses
    /// carried rcode 0), with the given flag bits.
    pub fn malicious(target: Ipv4Addr, ra: bool, aa: bool, category: Category) -> Self {
        Self {
            action: ResponseAction::Immediate(ImmediateResponse::wrong_answer(
                AnswerData::FixedIp(target),
                ra,
                aa,
            )),
            malicious_category: Some(category),
        }
    }

    /// A forwarder relaying to `upstream`.
    pub fn forwarder(upstream: std::net::Ipv4Addr) -> Self {
        Self {
            action: ResponseAction::Forward(ForwardPolicy {
                upstream,
                ra_override: None,
            }),
            malicious_category: None,
        }
    }

    /// Whether this profile recurses (and therefore produces Q2 traffic).
    pub fn recurses(&self) -> bool {
        matches!(self.action, ResponseAction::Recurse(_))
    }

    /// Whether this profile forwards to an upstream resolver.
    pub fn forwards(&self) -> bool {
        matches!(self.action, ResponseAction::Forward(_))
    }

    /// The coarse behavioral class of this policy (see
    /// [`ProfileClass`]).
    pub fn class(&self) -> ProfileClass {
        if self.malicious_category.is_some() {
            return ProfileClass::Malicious;
        }
        match &self.action {
            ResponseAction::Recurse(rp) => {
                if rp.rcode_override.is_some() {
                    ProfileClass::Filtering
                } else {
                    ProfileClass::Honest
                }
            }
            ResponseAction::Forward(_) => ProfileClass::Forwarder,
            ResponseAction::Silent => ProfileClass::Silent,
            ResponseAction::Immediate(ir) => {
                if ir.answer.is_some() {
                    ProfileClass::Misdirecting
                } else {
                    match ir.rcode {
                        Rcode::Refused => ProfileClass::Refusing,
                        Rcode::NXDomain => ProfileClass::NxWall,
                        _ => ProfileClass::OtherImmediate,
                    }
                }
            }
        }
    }

    /// The upstream address a forwarder relays to, if any. Sharded
    /// campaigns use this as the host's placement affinity: a forwarder
    /// must live in the same partition as its upstream or the relayed
    /// query would cross a shard boundary.
    pub(crate) fn upstream_addr(&self) -> Option<Ipv4Addr> {
        match &self.action {
            ResponseAction::Forward(fp) => Some(fp.upstream),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_profile_is_standard() {
        let p = ResponsePolicy::honest();
        assert!(p.recurses());
        match p.action {
            ResponseAction::Recurse(rp) => {
                assert!(rp.ra);
                assert!(!rp.aa);
                assert_eq!(rp.rcode_override, None);
                assert_eq!(rp.auth_duplicates, 1);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn refused_profile_matches_paper_shape() {
        let p = ResponsePolicy::refusing();
        assert!(!p.recurses());
        match p.action {
            ResponseAction::Immediate(imm) => {
                assert_eq!(imm.rcode, Rcode::Refused);
                assert!(imm.answer.is_none());
                assert!(!imm.ra);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn malicious_profile_always_noerror() {
        let p = ResponsePolicy::malicious(
            Ipv4Addr::new(208, 91, 197, 91),
            false,
            true,
            Category::Malware,
        );
        match p.action {
            ResponseAction::Immediate(imm) => {
                assert_eq!(imm.rcode, Rcode::NoError);
                assert!(imm.aa);
                assert!(!imm.ra);
                assert!(matches!(imm.answer, Some(AnswerData::FixedIp(_))));
            }
            _ => unreachable!(),
        }
        assert_eq!(p.malicious_category, Some(Category::Malware));
    }

    #[test]
    fn classification_is_total_and_stable() {
        assert_eq!(ResponsePolicy::honest().class(), ProfileClass::Honest);
        assert_eq!(ResponsePolicy::refusing().class(), ProfileClass::Refusing);
        assert_eq!(
            ResponsePolicy::forwarder(Ipv4Addr::new(9, 9, 9, 9)).class(),
            ProfileClass::Forwarder
        );
        assert_eq!(
            ResponsePolicy::malicious(Ipv4Addr::new(1, 2, 3, 4), true, false, Category::Malware)
                .class(),
            ProfileClass::Malicious
        );
        let nxwall = ResponsePolicy {
            action: ResponseAction::Immediate(ImmediateResponse::empty(
                true,
                false,
                Rcode::NXDomain,
            )),
            malicious_category: None,
        };
        assert_eq!(nxwall.class(), ProfileClass::NxWall);
        let silent = ResponsePolicy {
            action: ResponseAction::Silent,
            malicious_category: None,
        };
        assert_eq!(silent.class(), ProfileClass::Silent);
        // Indexing round-trips through ALL.
        for (i, class) in ProfileClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
        }
        // Labels are unique (Prometheus label safety).
        let labels: std::collections::HashSet<_> =
            ProfileClass::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(labels.len(), ProfileClass::ALL.len());
    }
}
