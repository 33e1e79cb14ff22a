//! Simulated root and TLD name servers (Fig. 1, steps 2-5).
//!
//! The paper could not build its own root or TLD servers and simply used
//! the real ones. Our resolvers recurse inside the simulation, so we
//! provide minimal but protocol-faithful delegation servers: they never
//! answer address queries themselves; they return referrals (empty answer
//! section, NS in authority, glue A in additional) toward the next zone
//! cut, which is exactly what an iterative resolver needs.

use std::cell::Cell;
use std::net::Ipv4Addr;

use orscope_dns_wire::{Message, MessageBuilder, Name, RData, Rcode, Record};
use orscope_netsim::{Context, Datagram, Endpoint};

/// A delegation entry: the child zone's name server and its glue address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delegation {
    /// The delegated zone (e.g. `net` at the root, `ucfsealresearch.net`
    /// at the TLD).
    pub zone: Name,
    /// The child zone's name server name.
    pub ns: Name,
    /// Glue: the name server's address.
    pub glue: Ipv4Addr,
}

/// A delegation-only name server: a root (delegating TLDs) or a TLD
/// (delegating second-level domains) — the two differ only in the
/// delegations they are given.
#[derive(Debug, Clone, Default)]
pub struct DelegationServer {
    /// One entry per delegated zone name. A server delegates a handful
    /// of zones (the campaign's root and TLD one each), so finding the
    /// deepest one that encloses a qname is a label-wise suffix
    /// comparison against each — no name is built or hashed per query.
    entries: Vec<Delegation>,
    queries_served: Cell<u64>,
    /// Scratch the query in hand is decoded into, the referral is built
    /// in, and it is encoded through: each reuses the previous packet's
    /// storage.
    inbound: Message,
    outbound: Message,
    scratch: Vec<u8>,
}

impl DelegationServer {
    /// Creates an empty server; add delegations before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a delegation for `zone` served by `ns` at `glue`, replacing
    /// an earlier one of the same zone.
    pub fn delegate(&mut self, zone: Name, ns: Name, glue: Ipv4Addr) -> &mut Self {
        let delegation = Delegation { zone, ns, glue };
        match self.entries.iter_mut().find(|d| d.zone == delegation.zone) {
            Some(entry) => *entry = delegation,
            None => self.entries.push(delegation),
        }
        self
    }

    /// Builds the referral response for a decoded query.
    pub fn respond(&self, query: &Message) -> Message {
        self.respond_with(query, Message::builder())
    }

    /// Builds a referral to the closest enclosing delegation (or an
    /// NXDomain) for a query with `builder`.
    fn respond_with(&self, query: &Message, builder: MessageBuilder) -> Message {
        self.queries_served.set(self.queries_served.get() + 1);
        let builder = builder.response_to(query);
        let Some(question) = query.first_question() else {
            return builder.rcode(Rcode::FormErr).build();
        };
        let enclosing = self
            .entries
            .iter()
            .filter(|d| question.qname().is_subdomain_of(&d.zone));
        match enclosing.max_by_key(|d| d.zone.label_count()) {
            Some(d) => builder
                .authority(Record::in_class(
                    d.zone.clone(),
                    172_800,
                    RData::Ns(d.ns.clone()),
                ))
                .additional(Record::in_class(d.ns.clone(), 172_800, RData::A(d.glue)))
                .build(),
            None => builder.rcode(Rcode::NXDomain).build(),
        }
    }
}

impl Endpoint for DelegationServer {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        if dgram.dst_port != 53 {
            return;
        }
        let mut query = std::mem::take(&mut self.inbound);
        if query.decode_into(&dgram.payload).is_ok() && !query.header().is_response() {
            let builder = MessageBuilder::reusing(std::mem::take(&mut self.outbound));
            let response = self.respond_with(&query, builder);
            if response
                .encode_truncated_into(query.response_size_limit(), &mut self.scratch)
                .is_ok()
            {
                ctx.send(dgram.reply(self.scratch.as_slice()));
            }
            self.outbound = response;
        }
        self.inbound = query;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orscope_dns_wire::Question;

    impl DelegationServer {
        /// Number of queries served (for Table II style accounting).
        fn queries_served(&self) -> u64 {
            self.queries_served.get()
        }
    }

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn root() -> DelegationServer {
        let mut r = DelegationServer::new();
        r.delegate(
            name("net"),
            name("a.gtld-servers.net"),
            Ipv4Addr::new(192, 5, 6, 30),
        );
        r
    }

    #[test]
    fn referral_for_known_tld() {
        let r = root();
        let q = Message::query(1, Question::a(name("or000.0000001.ucfsealresearch.net")));
        let resp = r.respond(&q);
        assert_eq!(resp.header().rcode(), Rcode::NoError);
        assert!(resp.answers().is_empty(), "referral has no answer");
        assert!(!resp.header().authoritative());
        assert_eq!(resp.authorities().len(), 1);
        assert_eq!(resp.authorities()[0].name(), &name("net"));
        assert_eq!(
            resp.additionals()[0].rdata().as_a(),
            Some(Ipv4Addr::new(192, 5, 6, 30))
        );
    }

    #[test]
    fn nxdomain_for_unknown_tld() {
        let r = root();
        let q = Message::query(2, Question::a(name("example.zz")));
        let resp = r.respond(&q);
        assert_eq!(resp.header().rcode(), Rcode::NXDomain);
    }

    #[test]
    fn tld_delegates_sld() {
        let mut tld = DelegationServer::new();
        tld.delegate(
            name("ucfsealresearch.net"),
            name("ns1.ucfsealresearch.net"),
            Ipv4Addr::new(45, 77, 1, 1),
        );
        let q = Message::query(3, Question::a(name("or001.0000002.ucfsealresearch.net")));
        let resp = tld.respond(&q);
        assert_eq!(resp.authorities()[0].name(), &name("ucfsealresearch.net"));
        assert_eq!(
            resp.additionals()[0].rdata().as_a(),
            Some(Ipv4Addr::new(45, 77, 1, 1))
        );
        assert_eq!(tld.queries_served(), 1);
    }

    #[test]
    fn closest_enclosing_delegation_wins() {
        let mut tld = DelegationServer::new();
        tld.delegate(name("net"), name("ns.net"), Ipv4Addr::new(1, 1, 1, 1));
        tld.delegate(
            name("example.net"),
            name("ns.example.net"),
            Ipv4Addr::new(2, 2, 2, 2),
        );
        let q = Message::query(4, Question::a(name("deep.www.example.net")));
        let resp = tld.respond(&q);
        assert_eq!(resp.authorities()[0].name(), &name("example.net"));
        // Whatever the order the zones were delegated in.
        let mut tld = DelegationServer::new();
        tld.delegate(
            name("example.net"),
            name("ns.example.net"),
            Ipv4Addr::new(2, 2, 2, 2),
        );
        tld.delegate(name("net"), name("ns.net"), Ipv4Addr::new(1, 1, 1, 1));
        let resp = tld.respond(&q);
        assert_eq!(resp.authorities()[0].name(), &name("example.net"));
        // A sibling falls back to the shallower cut; a name under no
        // delegated zone does not exist.
        let q = Message::query(4, Question::a(name("www.example2.net")));
        assert_eq!(tld.respond(&q).authorities()[0].name(), &name("net"));
        let q = Message::query(4, Question::a(name("net.example.org")));
        assert_eq!(tld.respond(&q).header().rcode(), Rcode::NXDomain);
    }

    #[test]
    fn delegating_a_zone_again_replaces_its_delegation() {
        let mut root = root();
        root.delegate(
            name("NET"),
            name("b.gtld-servers.net"),
            Ipv4Addr::new(192, 33, 14, 30),
        );
        let q = Message::query(6, Question::a(name("www.example.net")));
        let resp = root.respond(&q);
        assert_eq!(resp.authorities().len(), 1, "one delegation, the second");
        assert_eq!(resp.additionals().len(), 1);
        assert_eq!(
            resp.additionals()[0].rdata().as_a(),
            Some(Ipv4Addr::new(192, 33, 14, 30))
        );
    }

    #[test]
    fn a_case_mismatched_qname_finds_its_delegation() {
        let r = root();
        let q = Message::query(7, Question::a(name("oR000.0000001.UCFSealResearch.NeT")));
        let resp = r.respond(&q);
        assert_eq!(resp.header().rcode(), Rcode::NoError);
        assert_eq!(resp.authorities()[0].name(), &name("net"));
        assert_eq!(
            resp.additionals()[0].rdata().as_a(),
            Some(Ipv4Addr::new(192, 5, 6, 30))
        );
    }

    #[test]
    fn empty_question_gets_formerr() {
        let r = root();
        let mut q = Message::query(5, Question::a(name("x.net")));
        q.clear_questions();
        assert_eq!(r.respond(&q).header().rcode(), Rcode::FormErr);
    }
}
