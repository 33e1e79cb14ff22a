//! The resolver endpoint: policy dispatch plus a real iterative resolver.

use std::net::Ipv4Addr;
use std::time::Duration;

use orscope_dns_wire::{Message, MessageBuilder, Name, Question, RData, Rcode, Record};
use orscope_netsim::{Context, Datagram, Endpoint, FxHashMap, Payload, SimTime};
use orscope_telemetry::Histogram;

use crate::cache::DnsCache;
use crate::profile::{
    AnswerData, ForwardPolicy, ImmediateResponse, RecursePolicy, ResponseAction, ResponsePolicy,
};

/// Per-upstream-query timeout.
const TIMEOUT: Duration = Duration::from_secs(2);
/// Retransmissions per server before giving up.
const RETRIES: u8 = 2;
/// Maximum referral chain length.
const MAX_REFERRALS: u8 = 8;
/// Record-cache capacity.
const CACHE_CAPACITY: usize = 512;

/// One resolver's books; a shard's are the sum over its hosts
/// ([`ResolverStats::absorb`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Client queries received.
    pub client_queries: u64,
    /// Responses sent to clients.
    pub responses_sent: u64,
    /// Queries sent upstream (root/TLD/auth, including duplicates).
    pub upstream_queries: u64,
    /// Resolutions that ended in ServFail (timeout or referral overflow).
    pub failures: u64,
    /// Cache hits on client questions.
    pub cache_hits: u64,
    /// Negative-cache hits (RFC 2308) on client questions.
    pub negative_hits: u64,
    /// Queries relayed upstream by forwarder profiles.
    pub forwarded: u64,
    /// Referral-chain depth of every recursion at completion.
    pub recursion_depth: Histogram,
}

impl ResolverStats {
    /// Folds another resolver's books into this one.
    pub fn absorb(&mut self, other: &ResolverStats) {
        self.client_queries += other.client_queries;
        self.responses_sent += other.responses_sent;
        self.upstream_queries += other.upstream_queries;
        self.failures += other.failures;
        self.cache_hits += other.cache_hits;
        self.negative_hits += other.negative_hits;
        self.forwarded += other.forwarded;
        self.recursion_depth.absorb(&other.recursion_depth);
    }
}

/// Where and how to answer a client.
#[derive(Debug, Clone, Copy)]
struct ClientRef {
    addr: (Ipv4Addr, u16),
    /// The id of the client's query.
    id: u16,
    /// The client's advertised response-size budget (EDNS or 512).
    limit: usize,
}

/// One in-flight recursive resolution.
#[derive(Debug)]
struct Pending {
    client: ClientRef,
    /// The question asked by the client (echoed in the final response).
    /// The name being iterated is its qname until a CNAME is chased,
    /// and the last alias target of `cname_chain` from then on.
    question: Question,
    /// CNAME records collected so far, prepended to the final answer.
    cname_chain: Vec<Record>,
    server: Ipv4Addr,
    depth: u8,
    retries_left: u8,
}

impl Pending {
    /// The name currently being iterated.
    fn qname(&self) -> &Name {
        match self.cname_chain.last().map(Record::rdata) {
            Some(RData::Cname(target)) => target,
            _ => self.question.qname(),
        }
    }
}

/// Seed of the xorshift transaction-id generator.
const TXN_SEED: u32 = 0x9E37_79B9;

/// A probed host: applies its [`ResponsePolicy`] to incoming queries,
/// recursing for real through the simulated DNS hierarchy when the policy
/// calls for a genuine answer.
#[derive(Debug)]
pub struct ProfiledResolver {
    policy: std::sync::Arc<ResponsePolicy>,
    /// Address of a root name server (the resolver's "root hint").
    root: Ipv4Addr,
    cache: DnsCache,
    /// Zone apex -> (name-server address, expiry): the referral cache.
    zone_servers: FxHashMap<Name, (Ipv4Addr, SimTime)>,
    /// Negative cache (RFC 2308): question -> (rcode, expiry).
    negative: FxHashMap<(Name, u16), (Rcode, SimTime)>,
    pending: FxHashMap<u16, Pending>,
    /// In-flight forwarded queries: relay txn -> (client, client id).
    forward_pending: FxHashMap<u16, ((Ipv4Addr, u16), u16)>,
    /// xorshift state for randomized transaction IDs.
    txn_rng: u32,
    stats: ResolverStats,
    /// Scratch the datagram in hand is decoded into
    /// ([`Message::decode_into`]) and the next response or upstream
    /// query is built in ([`MessageBuilder::reusing`]): steady-state
    /// packets reuse the previous packet's section vectors.
    inbound: Message,
    outbound: Message,
    /// Reusable wire-encoding buffer; steady-state responses and
    /// upstream queries encode without allocating.
    scratch: Vec<u8>,
}

impl ProfiledResolver {
    /// Creates a resolver with `policy`, recursing from the root server
    /// at `root`.
    pub fn new(policy: ResponsePolicy, root: Ipv4Addr) -> Self {
        Self::new_shared(std::sync::Arc::new(policy), root)
    }

    /// Creates a resolver sharing an interned `policy`.
    ///
    /// Lazy materialization builds one resolver per first packet; taking
    /// the policy from the population's
    /// [`ProfileTable`](crate::intern::ProfileTable) makes that
    /// construction allocation-free on the policy side.
    pub fn new_shared(policy: std::sync::Arc<ResponsePolicy>, root: Ipv4Addr) -> Self {
        Self {
            policy,
            root,
            cache: DnsCache::new(CACHE_CAPACITY),
            zone_servers: FxHashMap::default(),
            negative: FxHashMap::default(),
            pending: FxHashMap::default(),
            forward_pending: FxHashMap::default(),
            txn_rng: TXN_SEED,
            stats: ResolverStats::default(),
            inbound: Message::default(),
            outbound: Message::default(),
            scratch: Vec::with_capacity(512),
        }
    }

    /// Re-arms a released resolver as the host behind `policy`: every
    /// piece of state goes back to exactly what
    /// [`ProfiledResolver::new_shared`] builds with the same root —
    /// caches, in-flight maps, the transaction-id generator, counters,
    /// scratch contents — and only allocations are kept. A registry that pools released resolvers hands this
    /// out in place of a fresh one, having read [`Self::stats`] first;
    /// no later packet can tell the two apart.
    pub fn reset(&mut self, policy: std::sync::Arc<ResponsePolicy>) {
        self.policy = policy;
        self.cache.clear();
        self.zone_servers.clear();
        self.negative.clear();
        self.pending.clear();
        self.forward_pending.clear();
        self.txn_rng = TXN_SEED;
        self.stats = ResolverStats::default();
        self.inbound.clear();
        self.outbound.clear();
        self.scratch.clear();
    }

    /// Starts the next outbound message in the previous one's storage.
    fn builder(&mut self) -> MessageBuilder {
        MessageBuilder::reusing(std::mem::take(&mut self.outbound))
    }

    /// Encodes `msg` through the scratch buffer into a sendable payload
    /// and keeps its storage for the next [`Self::builder`].
    fn finish(&mut self, msg: Message) -> Option<Payload> {
        let encoded = msg.encode_into(&mut self.scratch);
        self.outbound = msg;
        encoded.ok()?;
        Some(Payload::from(self.scratch.as_slice()))
    }

    /// The behaviour profile.
    pub fn policy(&self) -> &ResponsePolicy {
        &self.policy
    }

    /// Runtime counters.
    pub fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// The record cache (tests inspect hit counts).
    pub fn cache(&self) -> &DnsCache {
        &self.cache
    }

    fn alloc_txn(&mut self) -> u16 {
        loop {
            // xorshift32: deterministic per resolver, unpredictable to an
            // off-path attacker.
            self.txn_rng ^= self.txn_rng << 13;
            self.txn_rng ^= self.txn_rng >> 17;
            self.txn_rng ^= self.txn_rng << 5;
            let id = (self.txn_rng as u16).max(1);
            if !self.pending.contains_key(&id) && !self.forward_pending.contains_key(&id) {
                return id;
            }
        }
    }

    /// The ephemeral source port used for upstream transaction `txn`.
    fn ephemeral_port(txn: u16) -> u16 {
        32_768 + (txn & 0x3FFF)
    }

    /// Handles a client query according to the policy.
    fn on_client_query(&mut self, query: &Message, dgram: &Datagram, ctx: &mut Context<'_>) {
        self.stats.client_queries += 1;
        match &self.policy.action {
            ResponseAction::Silent => {}
            ResponseAction::Immediate(imm) => {
                if let Some(wire) =
                    build_immediate(query, imm, &mut self.outbound, &mut self.scratch)
                {
                    let reply = match imm.src_port {
                        Some(port) => dgram.reply_from_port(port, wire),
                        None => dgram.reply(wire),
                    };
                    self.stats.responses_sent += 1;
                    ctx.send(reply);
                }
            }
            &ResponseAction::Forward(fp) => self.forward_query(query, dgram, fp, ctx),
            &ResponseAction::Recurse(rp) => self.recurse(query, dgram, rp, ctx),
        }
    }

    /// Answers a client query from the caches or starts iterating for it.
    fn recurse(
        &mut self,
        query: &Message,
        dgram: &Datagram,
        rp: RecursePolicy,
        ctx: &mut Context<'_>,
    ) {
        let client = ClientRef {
            addr: (dgram.src, dgram.src_port),
            id: query.header().id(),
            limit: query.response_size_limit(),
        };
        let Some(question) = query.first_question() else {
            // No question to resolve: answer FormErr like BIND.
            let resp = self
                .builder()
                .response_to(query)
                .rcode(Rcode::FormErr)
                .build();
            if let Some(payload) = self.finish(resp) {
                self.stats.responses_sent += 1;
                ctx.send(dgram.reply(payload));
            }
            return;
        };
        // Negative cache (RFC 2308): a fresh NXDomain/NoData is
        // answered without re-asking the hierarchy.
        if !self.negative.is_empty() {
            let neg_key = (question.qname().clone(), question.qtype().to_u16());
            match self.negative.get(&neg_key) {
                Some(&(rcode, expiry)) if expiry > ctx.now() => {
                    self.stats.negative_hits += 1;
                    self.answer_client(client, question, &[], Err(rcode), rp, ctx);
                    return;
                }
                Some(_) => {
                    self.negative.remove(&neg_key);
                }
                None => {}
            }
        }
        // Cache check: unique probe names never hit, but repeat
        // clients of an open resolver would.
        if let Some(records) = self
            .cache
            .get(question.qname(), question.qtype(), ctx.now())
        {
            self.stats.cache_hits += 1;
            self.answer_client(client, question, &[], Ok(&records), rp, ctx);
            return;
        }
        let txn = self.alloc_txn();
        let pending = Pending {
            client,
            question: question.clone(),
            cname_chain: Vec::new(),
            server: self.closest_zone_server(question.qname(), ctx.now()),
            depth: 0,
            retries_left: RETRIES,
        };
        self.send_upstream(txn, &pending, ctx);
        self.pending.insert(txn, pending);
        ctx.set_timer(TIMEOUT, txn as u64);
    }

    /// The deepest cached zone server for `qname`, else the root.
    fn closest_zone_server(&mut self, qname: &Name, now: SimTime) -> Ipv4Addr {
        // A resolver's first resolution (the only one a scan asks of
        // it) has no referral cached: skip walking copies of the name.
        if self.zone_servers.is_empty() {
            return self.root;
        }
        let mut candidate = Some(qname.clone());
        while let Some(name) = candidate {
            if let Some(&(addr, expiry)) = self.zone_servers.get(&name) {
                if expiry > now {
                    return addr;
                }
                self.zone_servers.remove(&name);
            }
            candidate = name.parent();
        }
        self.root
    }

    /// Asks `pending.server` the question `pending` is iterating, as
    /// transaction `txn`.
    fn send_upstream(&mut self, txn: u16, pending: &Pending, ctx: &mut Context<'_>) {
        let mut query = self
            .builder()
            .id(txn)
            .recursion_desired(true)
            .question(Question::new(
                pending.qname().clone(),
                pending.question.qtype(),
                pending.question.qclass(),
            ))
            .build();
        // Recursive resolvers speak EDNS upstream (RFC 6891) so large
        // authoritative answers are not truncated at 512 bytes.
        query.set_edns_udp_size(4096);
        if let Some(payload) = self.finish(query) {
            self.stats.upstream_queries += 1;
            // Ephemeral source port derived from the transaction id.
            ctx.send(Datagram::new(
                (ctx.local_addr(), Self::ephemeral_port(txn)),
                (pending.server, 53),
                payload,
            ));
        }
    }

    /// Relays a client query to the forwarder's upstream resolver.
    fn forward_query(
        &mut self,
        query: &Message,
        dgram: &Datagram,
        fp: ForwardPolicy,
        ctx: &mut Context<'_>,
    ) {
        let Some(question) = query.first_question() else {
            return; // nothing to relay
        };
        let txn = self.alloc_txn();
        self.forward_pending
            .insert(txn, ((dgram.src, dgram.src_port), query.header().id()));
        let relay = self
            .builder()
            .id(txn)
            .recursion_desired(true)
            .question(question.clone())
            .build();
        if let Some(payload) = self.finish(relay) {
            self.stats.forwarded += 1;
            self.stats.upstream_queries += 1;
            ctx.send(Datagram::new(
                (ctx.local_addr(), Self::ephemeral_port(txn)),
                (fp.upstream, 53),
                payload,
            ));
            ctx.set_timer(TIMEOUT, txn as u64);
        }
    }

    /// Relays an upstream answer back to the forwarder's client,
    /// rewriting the header of the decoded message in place.
    fn relay_response(
        &mut self,
        response: &mut Message,
        client: (Ipv4Addr, u16),
        client_id: u16,
        ctx: &mut Context<'_>,
    ) {
        let ResponseAction::Forward(fp) = &self.policy.action else {
            return;
        };
        response.header_mut().set_id(client_id);
        if let Some(ra) = fp.ra_override {
            response.header_mut().set_recursion_available(ra);
        }
        if response.encode_into(&mut self.scratch).is_ok() {
            self.stats.responses_sent += 1;
            ctx.send(Datagram::new(
                (ctx.local_addr(), 53),
                client,
                Payload::from(self.scratch.as_slice()),
            ));
        }
    }

    /// The negative-cache TTL for a failed resolution: the SOA minimum
    /// from the authority section when present (RFC 2308), else 5 min.
    fn negative_ttl(response: &Message) -> Duration {
        response
            .authorities()
            .iter()
            .find_map(|rec| match rec.rdata() {
                RData::Soa(soa) => Some(Duration::from_secs(soa.minimum.min(rec.ttl()) as u64)),
                _ => None,
            })
            .unwrap_or(Duration::from_secs(300))
    }

    /// Handles a response from an upstream server.
    fn on_upstream_response(
        &mut self,
        response: &mut Message,
        dgram: &Datagram,
        ctx: &mut Context<'_>,
    ) {
        let txn = response.header().id();
        if let Some((client, client_id)) = self.forward_pending.remove(&txn) {
            self.relay_response(response, client, client_id, ctx);
            return;
        }
        let response = &*response;
        let Some(pending) = self.pending.get(&txn) else {
            return; // duplicate or late response
        };
        // Off-path hygiene: the response must come from the server we
        // asked AND land on the ephemeral port this transaction used.
        // (An injector spoofing the server address still has to guess
        // the txn id, which selects the port.)
        if dgram.src != pending.server || dgram.dst_port != Self::ephemeral_port(txn) {
            return;
        }
        let &ResponseAction::Recurse(rp) = &self.policy.action else {
            return;
        };
        // Accepted: the transaction is over, whatever comes next. Every
        // path below either answers the client or re-files the
        // resolution under a new transaction id.
        let mut pending = self.pending.remove(&txn).expect("looked up above");
        if !response.answers().is_empty() {
            // Records matching the question we are iterating.
            let records: Vec<Record> = response
                .answers()
                .iter()
                .filter(|r| r.name() == pending.qname())
                .cloned()
                .collect();
            // CNAME chasing: an alias answer to a non-CNAME question
            // restarts iteration at the canonical target (RFC 1034
            // section 3.6.2), carrying the chain into the final answer.
            let qtype = pending.question.qtype();
            let wants_alias_follow = !matches!(
                qtype,
                orscope_dns_wire::RecordType::Cname | orscope_dns_wire::RecordType::Any
            );
            let has_terminal = records.iter().any(|r| r.rtype() == qtype);
            if wants_alias_follow && !has_terminal {
                if let Some(cname_rec) = records
                    .iter()
                    .find(|r| matches!(r.rdata(), RData::Cname(_)))
                {
                    if pending.cname_chain.len() >= 8 {
                        self.fail(pending, rp, ctx);
                        return;
                    }
                    pending.cname_chain.push(cname_rec.clone());
                    pending.depth = 0;
                    pending.retries_left = RETRIES;
                    pending.server = self.closest_zone_server(pending.qname(), ctx.now());
                    self.reissue(pending, ctx);
                    return;
                }
            }
            self.stats.recursion_depth.record(pending.depth as u64);
            // Re-ask the answering server (resolver-farm duplication);
            // responses to these find no pending entry and are dropped.
            for _ in 1..rp.auth_duplicates {
                let dup_txn = self.alloc_txn();
                self.send_upstream(dup_txn, &pending, ctx);
            }
            self.answer_client(
                pending.client,
                &pending.question,
                &pending.cname_chain,
                Ok(&records),
                rp,
                ctx,
            );
            self.cache.insert(ctx.now(), records);
            return;
        }
        match response.header().rcode() {
            Rcode::NoError => {
                // Referral: find the NS in authority and its glue.
                let referral = response.authorities().iter().find_map(|auth| {
                    let RData::Ns(ns_name) = auth.rdata() else {
                        return None;
                    };
                    let glue = response.additionals().iter().find_map(|add| {
                        (add.name() == ns_name)
                            .then(|| add.rdata().as_a())
                            .flatten()
                    })?;
                    Some((auth.name(), auth.ttl(), glue))
                });
                match referral {
                    Some((zone, ttl, glue)) if pending.depth < MAX_REFERRALS => {
                        self.zone_servers.insert(
                            zone.clone(),
                            (glue, ctx.now() + Duration::from_secs(ttl as u64)),
                        );
                        pending.server = glue;
                        pending.depth += 1;
                        pending.retries_left = RETRIES;
                        self.reissue(pending, ctx);
                    }
                    // Referral overflow.
                    Some(_) => self.fail(pending, rp, ctx),
                    None => {
                        // NoData: negatively cacheable (RFC 2308), and
                        // answered as an empty NoError.
                        self.finish_negative(pending, Rcode::NoError, response, rp, ctx);
                    }
                }
            }
            Rcode::NXDomain => self.finish_negative(pending, Rcode::NXDomain, response, rp, ctx),
            _ => self.fail(pending, rp, ctx),
        }
    }

    /// Sends `pending`'s question to its (new) server under a fresh
    /// transaction id and files it there.
    fn reissue(&mut self, pending: Pending, ctx: &mut Context<'_>) {
        let txn = self.alloc_txn();
        self.send_upstream(txn, &pending, ctx);
        ctx.set_timer(TIMEOUT, txn as u64);
        self.pending.insert(txn, pending);
    }

    /// Ends `pending` in ServFail (timeout, referral or alias overflow,
    /// upstream error).
    fn fail(&mut self, pending: Pending, rp: RecursePolicy, ctx: &mut Context<'_>) {
        self.stats.recursion_depth.record(pending.depth as u64);
        self.stats.failures += 1;
        self.answer_client(
            pending.client,
            &pending.question,
            &[],
            Err(Rcode::ServFail),
            rp,
            ctx,
        );
    }

    /// Ends `pending` in the negative answer `rcode` (NXDomain, or
    /// NoError for NoData), caching it for the TTL `response` carries.
    fn finish_negative(
        &mut self,
        pending: Pending,
        rcode: Rcode,
        response: &Message,
        rp: RecursePolicy,
        ctx: &mut Context<'_>,
    ) {
        self.stats.recursion_depth.record(pending.depth as u64);
        self.negative.insert(
            (pending.qname().clone(), pending.question.qtype().to_u16()),
            (rcode, ctx.now() + Self::negative_ttl(response)),
        );
        self.answer_client(pending.client, &pending.question, &[], Err(rcode), rp, ctx);
    }

    /// Sends the final response to the client — `chain` then the
    /// outcome's records, or its rcode — applying the recursion
    /// policy's header overrides.
    fn answer_client(
        &mut self,
        client: ClientRef,
        question: &Question,
        chain: &[Record],
        outcome: Result<&[Record], Rcode>,
        rp: RecursePolicy,
        ctx: &mut Context<'_>,
    ) {
        let mut builder = self
            .builder()
            .id(client.id)
            .question(question.clone())
            .recursion_desired(true)
            .recursion_available(rp.ra)
            .authoritative(rp.aa);
        match outcome {
            Ok(records) => {
                for rec in chain.iter().chain(records) {
                    builder = builder.answer(rec.clone());
                }
            }
            Err(rcode) => {
                builder = builder.rcode(rcode);
            }
        }
        if let Some(rcode) = rp.rcode_override {
            builder = builder.rcode(rcode);
        }
        let mut response = builder.build();
        response.header_mut().set_response(true);
        let encoded = response.encode_truncated_into(client.limit, &mut self.scratch);
        self.outbound = response;
        if encoded.is_ok() {
            self.stats.responses_sent += 1;
            ctx.send(Datagram::new(
                (ctx.local_addr(), 53),
                client.addr,
                Payload::from(self.scratch.as_slice()),
            ));
        }
    }
}

impl Endpoint for ProfiledResolver {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        let mut message = std::mem::take(&mut self.inbound);
        if message.decode_into(&dgram.payload).is_ok() {
            if message.header().is_response() {
                self.on_upstream_response(&mut message, dgram, ctx);
            } else if dgram.dst_port == 53 {
                self.on_client_query(&message, dgram, ctx);
            }
        }
        self.inbound = message;
    }

    /// The upstream timeout of transaction `token`. Every completed
    /// resolution leaves its timers behind; one that finds nothing in
    /// flight changes nothing.
    fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let txn = token as u16;
        if let Some((client, client_id)) = self.forward_pending.remove(&txn) {
            // Upstream never answered the relay: ServFail, like dnsmasq.
            let mut out = self.builder().id(client_id).rcode(Rcode::ServFail).build();
            out.header_mut().set_response(true);
            if let Some(payload) = self.finish(out) {
                self.stats.failures += 1;
                self.stats.responses_sent += 1;
                ctx.send(Datagram::new((ctx.local_addr(), 53), client, payload));
            }
            return;
        }
        let Some(mut pending) = self.pending.remove(&txn) else {
            return; // resolution already completed
        };
        if pending.retries_left > 0 {
            pending.retries_left -= 1;
            self.send_upstream(txn, &pending, ctx);
            self.pending.insert(txn, pending);
            ctx.set_timer(TIMEOUT, txn as u64);
        } else if let &ResponseAction::Recurse(rp) = &self.policy.action {
            self.fail(pending, rp, ctx);
        }
    }

    fn is_quiescent(&self) -> bool {
        // No in-flight recursion or relay: rebuilding this resolver from
        // its (shared) policy and root hint later is indistinguishable on
        // the wire, because campaign probes carry unique qnames that
        // never hit the dropped caches. The simulator uses this to
        // release lazily materialized hosts after each event, and the
        // registry that takes them back re-arms them with
        // [`ProfiledResolver::reset`] under the same argument.
        //
        // Quiescent also means no timer matters any more: `handle_timer`
        // returns at once for a token that names nothing in flight, so
        // a fresh resolver ignores every one (the promise
        // `Endpoint::is_quiescent` asks for).
        self.pending.is_empty() && self.forward_pending.is_empty()
    }
}

impl ProfiledResolver {
    /// Whether a resolver with nothing in flight — fresh from
    /// [`ProfiledResolver::new_shared`] or [`ProfiledResolver::reset`],
    /// whatever its policy — ignores `payload`: sends nothing, arms
    /// nothing, counts nothing, and is still quiescent afterwards.
    ///
    /// True for anything carrying the DNS QR (response) bit. If such a
    /// payload decodes, `handle_datagram` routes it to
    /// `on_upstream_response`, which looks its id up in the empty
    /// `forward_pending` and `pending` maps and returns before touching
    /// a counter; if it does not decode it is dropped earlier still.
    /// Queries are never ignorable: even a silent policy counts one.
    /// The lazy registry asks this before rebuilding a released
    /// resolver for the duplicate R1s its re-asked Q2s bring back.
    pub fn fresh_ignores(payload: &[u8]) -> bool {
        payload.get(2).is_some_and(|flags| flags & 0x80 != 0)
    }
}

/// Builds the wire bytes of an immediate (non-recursed) response in the
/// caller's reusable `outbound` message and `scratch` buffer.
///
/// Returns `None` only if encoding fails (should not happen for the
/// policy-constructible shapes).
fn build_immediate(
    query: &Message,
    imm: &ImmediateResponse,
    outbound: &mut Message,
    scratch: &mut Vec<u8>,
) -> Option<Payload> {
    let qname = || {
        query
            .first_question()
            .map(|q| q.qname().clone())
            .unwrap_or_else(Name::root)
    };
    let mut builder = MessageBuilder::reusing(std::mem::take(outbound))
        .response_to(query)
        .recursion_available(imm.ra)
        .authoritative(imm.aa)
        .rcode(imm.rcode);
    let answer_is_a = matches!(imm.answer, Some(AnswerData::FixedIp(_)));
    match &imm.answer {
        Some(AnswerData::FixedIp(addr)) => {
            builder = builder.answer(Record::in_class(qname(), 299, RData::A(*addr)));
        }
        Some(AnswerData::Url(target)) => {
            let target_name: Name = target.parse().ok()?;
            builder = builder.answer(Record::in_class(qname(), 299, RData::Cname(target_name)));
        }
        Some(AnswerData::Text(text)) => {
            builder = builder.answer(Record::in_class(
                qname(),
                299,
                RData::Txt(vec![text.as_bytes().to_vec()]),
            ));
        }
        None => {}
    }
    let mut response = builder.build();
    if imm.empty_question {
        response.clear_questions();
    }
    let encoded = response.encode_into(scratch);
    *outbound = response;
    encoded.ok()?;
    if imm.malformed_rdata && answer_is_a {
        // The A answer is the final record; its RDLENGTH occupies the two
        // bytes before the four rdata bytes. Inflating it makes the
        // answer undecodable while the header and question still parse —
        // exactly the 2013 "N/A" capture artifact.
        let len = scratch.len();
        scratch[len - 6] = 0xFF;
        scratch[len - 5] = 0xFF;
    }
    Some(Payload::from(scratch.as_slice()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orscope_authns::scheme::CLUSTER_CAPACITY;
    use orscope_authns::{
        AuthoritativeServer, CaptureHandle, CapturedPacket, ClusterZone, DelegationServer,
        Direction, ProbeLabel, R2Capture, RecordSink, Zone,
    };
    use orscope_dns_wire::WireError;
    use orscope_lookup::threatintel::Category;
    use orscope_netsim::{FixedLatency, SimNet};
    use std::cell::RefCell;
    use std::rc::Rc;

    const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
    const TLD: Ipv4Addr = Ipv4Addr::new(192, 5, 6, 30);
    const AUTH: Ipv4Addr = Ipv4Addr::new(45, 77, 1, 1);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(74, 0, 0, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(131, 94, 0, 9);

    fn zone_name() -> Name {
        "ucfsealresearch.net".parse().unwrap()
    }

    /// The authoritative server's test sink: every packet it captured.
    #[derive(Debug, Default)]
    pub(super) struct Packets(Vec<CapturedPacket>);

    impl RecordSink for Packets {
        fn on_r2(&mut self, _capture: &R2Capture) {}

        fn on_auth(&mut self, packet: &CapturedPacket) {
            self.0.push(packet.clone());
        }
    }

    impl Packets {
        fn count(&self, direction: Direction) -> usize {
            self.0.iter().filter(|p| p.direction == direction).count()
        }
    }

    /// A capture point and the packets it has handed to its sink.
    pub(super) fn logged() -> (CaptureHandle, Rc<RefCell<Packets>>) {
        let log = Rc::new(RefCell::new(Packets::default()));
        (CaptureHandle::with_sink(log.clone()), log)
    }

    /// Builds a network with root/TLD/auth plus one profiled resolver.
    fn hierarchy(policy: ResponsePolicy) -> (SimNet, Rc<RefCell<Packets>>) {
        let mut net = SimNet::builder()
            .seed(11)
            .latency(FixedLatency(Duration::from_millis(5)))
            .build();
        let mut root = DelegationServer::new();
        root.delegate(
            "net".parse().unwrap(),
            "a.gtld-servers.net".parse().unwrap(),
            TLD,
        );
        net.register(ROOT, root);
        let mut tld = DelegationServer::new();
        tld.delegate(
            zone_name(),
            "ns1.ucfsealresearch.net".parse().unwrap(),
            AUTH,
        );
        net.register(TLD, tld);
        let (capture, log) = logged();
        let mut cz = ClusterZone::new(Zone::new(
            zone_name(),
            "ns1.ucfsealresearch.net".parse().unwrap(),
        ));
        cz.load_cluster(0, 100_000);
        net.register(
            AUTH,
            AuthoritativeServer::new(cz, capture, CLUSTER_CAPACITY),
        );
        net.register(RESOLVER, ProfiledResolver::new(policy, ROOT));
        (net, log)
    }

    /// A client endpoint collecting raw response datagrams.
    struct Collector(Rc<RefCell<Vec<Datagram>>>);
    impl Endpoint for Collector {
        fn handle_datagram(&mut self, dgram: &Datagram, _ctx: &mut Context<'_>) {
            self.0.borrow_mut().push(dgram.clone());
        }
    }

    fn probe(net: &mut SimNet, qname: Name) -> Vec<Datagram> {
        let got = Rc::new(RefCell::new(Vec::new()));
        net.register(CLIENT, Collector(got.clone()));
        let query = Message::query(0x4242, Question::a(qname));
        net.inject(Datagram::new(
            (CLIENT, 47_000),
            (RESOLVER, 53),
            query.encode().unwrap(),
        ));
        net.run_until_idle();
        let out = got.borrow().clone();
        out
    }

    #[test]
    fn honest_resolver_recurses_to_correct_answer() {
        let (mut net, capture) = hierarchy(ResponsePolicy::honest());
        let label = ProbeLabel::new(0, 77);
        let responses = probe(&mut net, label.qname(&zone_name()));
        assert_eq!(responses.len(), 1);
        let msg = Message::decode(&responses[0].payload).unwrap();
        assert_eq!(msg.header().id(), 0x4242);
        assert!(msg.header().recursion_available());
        assert!(!msg.header().authoritative());
        assert_eq!(msg.header().rcode(), Rcode::NoError);
        assert_eq!(
            msg.answers()[0].rdata().as_a(),
            Some(orscope_authns::ground_truth(label))
        );
        // The auth server saw exactly one Q2 and sent one R1.
        assert_eq!(capture.borrow().count(Direction::Inbound), 1);
        assert_eq!(capture.borrow().count(Direction::Outbound), 1);
    }

    #[test]
    fn ra_zero_liar_still_answers_correctly() {
        let policy = ResponsePolicy {
            action: ResponseAction::Recurse(RecursePolicy {
                ra: false,
                ..RecursePolicy::default()
            }),
            malicious_category: None,
        };
        let (mut net, _) = hierarchy(policy);
        let label = ProbeLabel::new(0, 5);
        let responses = probe(&mut net, label.qname(&zone_name()));
        let msg = Message::decode(&responses[0].payload).unwrap();
        assert!(!msg.header().recursion_available(), "RA lied to 0");
        assert_eq!(
            msg.answers()[0].rdata().as_a(),
            Some(orscope_authns::ground_truth(label))
        );
    }

    #[test]
    fn auth_duplicates_multiply_q2() {
        let policy = ResponsePolicy {
            action: ResponseAction::Recurse(RecursePolicy {
                auth_duplicates: 4,
                ..RecursePolicy::default()
            }),
            malicious_category: None,
        };
        let (mut net, capture) = hierarchy(policy);
        let responses = probe(&mut net, ProbeLabel::new(0, 9).qname(&zone_name()));
        assert_eq!(responses.len(), 1, "client still gets exactly one answer");
        assert_eq!(capture.borrow().count(Direction::Inbound), 4);
    }

    #[test]
    fn nxdomain_propagates() {
        let (mut net, _) = hierarchy(ResponsePolicy::honest());
        // Cluster 9 is not loaded -> authoritative NXDomain.
        let responses = probe(&mut net, ProbeLabel::new(9, 1).qname(&zone_name()));
        let msg = Message::decode(&responses[0].payload).unwrap();
        assert_eq!(msg.header().rcode(), Rcode::NXDomain);
        assert!(msg.answers().is_empty());
        assert!(msg.header().recursion_available());
    }

    #[test]
    fn unresolvable_times_out_to_servfail() {
        // No hierarchy at all: resolver's root queries go nowhere.
        let mut net = SimNet::builder()
            .seed(3)
            .latency(FixedLatency(Duration::from_millis(5)))
            .build();
        net.register(
            RESOLVER,
            ProfiledResolver::new(ResponsePolicy::honest(), ROOT),
        );
        let responses = probe(&mut net, ProbeLabel::new(0, 1).qname(&zone_name()));
        assert_eq!(responses.len(), 1);
        let msg = Message::decode(&responses[0].payload).unwrap();
        assert_eq!(msg.header().rcode(), Rcode::ServFail);
        assert!(msg.answers().is_empty());
    }

    #[test]
    fn refused_profile_answers_immediately() {
        let (mut net, capture) = hierarchy(ResponsePolicy::refusing());
        let responses = probe(&mut net, ProbeLabel::new(0, 2).qname(&zone_name()));
        let msg = Message::decode(&responses[0].payload).unwrap();
        assert_eq!(msg.header().rcode(), Rcode::Refused);
        assert!(msg.answers().is_empty());
        assert!(capture.borrow().0.is_empty(), "no recursion happened");
    }

    #[test]
    fn malicious_profile_redirects_with_lying_flags() {
        let bad = Ipv4Addr::new(208, 91, 197, 91);
        let (mut net, capture) = hierarchy(ResponsePolicy::malicious(
            bad,
            false,
            true,
            Category::Malware,
        ));
        let responses = probe(&mut net, ProbeLabel::new(0, 3).qname(&zone_name()));
        let msg = Message::decode(&responses[0].payload).unwrap();
        assert_eq!(msg.answers()[0].rdata().as_a(), Some(bad));
        assert!(msg.header().authoritative(), "fake AA=1");
        assert!(!msg.header().recursion_available());
        assert_eq!(msg.header().rcode(), Rcode::NoError);
        assert!(capture.borrow().0.is_empty());
    }

    #[test]
    fn url_and_text_answers() {
        type Check = fn(&Record) -> bool;
        let cases: Vec<(AnswerData, Check)> = vec![
            (
                AnswerData::Url("u.dcoin.co".to_owned()),
                |r: &Record| matches!(r.rdata(), RData::Cname(n) if n.to_string() == "u.dcoin.co"),
            ),
            (
                AnswerData::Text("wild".to_owned()),
                |r: &Record| matches!(r.rdata(), RData::Txt(segs) if segs[0] == b"wild"),
            ),
        ];
        for (answer, check) in cases {
            let policy = ResponsePolicy {
                action: ResponseAction::Immediate(ImmediateResponse::wrong_answer(
                    answer, true, false,
                )),
                malicious_category: None,
            };
            let (mut net, _) = hierarchy(policy);
            let responses = probe(&mut net, ProbeLabel::new(0, 4).qname(&zone_name()));
            let msg = Message::decode(&responses[0].payload).unwrap();
            assert!(check(&msg.answers()[0]), "{:?}", msg.answers()[0]);
        }
    }

    #[test]
    fn empty_question_response() {
        let policy = ResponsePolicy {
            action: ResponseAction::Immediate(ImmediateResponse {
                empty_question: true,
                ..ImmediateResponse::empty(true, false, Rcode::ServFail)
            }),
            malicious_category: None,
        };
        let (mut net, _) = hierarchy(policy);
        let responses = probe(&mut net, ProbeLabel::new(0, 6).qname(&zone_name()));
        let msg = Message::decode(&responses[0].payload).unwrap();
        assert!(msg.first_question().is_none());
        assert_eq!(msg.header().rcode(), Rcode::ServFail);
    }

    #[test]
    fn malformed_rdata_is_undecodable_but_header_survives() {
        let policy = ResponsePolicy {
            action: ResponseAction::Immediate(ImmediateResponse {
                malformed_rdata: true,
                ..ImmediateResponse::wrong_answer(
                    AnswerData::FixedIp(Ipv4Addr::new(1, 2, 3, 4)),
                    true,
                    false,
                )
            }),
            malicious_category: None,
        };
        let (mut net, _) = hierarchy(policy);
        let responses = probe(&mut net, ProbeLabel::new(0, 7).qname(&zone_name()));
        let err = Message::decode(&responses[0].payload).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }), "{err}");
        // Header (and question) still parse, as libpcap partially did.
        let mut reader = orscope_dns_wire::wire::Reader::new(&responses[0].payload);
        let header = orscope_dns_wire::Header::decode(&mut reader).unwrap();
        assert!(header.is_response());
        assert!(header.recursion_available());
    }

    #[test]
    fn off_port_responder_uses_configured_port() {
        let policy = ResponsePolicy {
            action: ResponseAction::Immediate(ImmediateResponse {
                src_port: Some(1024),
                ..ImmediateResponse::refused()
            }),
            malicious_category: None,
        };
        let (mut net, _) = hierarchy(policy);
        let responses = probe(&mut net, ProbeLabel::new(0, 8).qname(&zone_name()));
        assert_eq!(responses[0].src_port, 1024, "blind-spot port");
    }

    #[test]
    fn silent_profile_never_answers() {
        let policy = ResponsePolicy {
            action: ResponseAction::Silent,
            malicious_category: None,
        };
        let (mut net, _) = hierarchy(policy);
        let responses = probe(&mut net, ProbeLabel::new(0, 10).qname(&zone_name()));
        assert!(responses.is_empty());
    }

    #[test]
    fn repeat_query_hits_cache() {
        let (mut net, capture) = hierarchy(ResponsePolicy::honest());
        let qname = ProbeLabel::new(0, 11).qname(&zone_name());
        let first = probe(&mut net, qname.clone());
        assert_eq!(first.len(), 1);
        let second = probe(&mut net, qname);
        assert_eq!(second.len(), 1);
        // Only the first resolution reached the authoritative server.
        assert_eq!(capture.borrow().count(Direction::Inbound), 1);
        let a = Message::decode(&first[0].payload).unwrap();
        let b = Message::decode(&second[0].payload).unwrap();
        assert_eq!(a.answers()[0].rdata().as_a(), b.answers()[0].rdata().as_a());
    }

    #[test]
    fn referral_cache_skips_root_on_second_resolution() {
        let (mut net, _) = hierarchy(ResponsePolicy::honest());
        let _ = probe(&mut net, ProbeLabel::new(0, 12).qname(&zone_name()));
        // Count root traffic for a *different* qname afterwards.
        let root_before = net.stats().delivered;
        let _ = probe(&mut net, ProbeLabel::new(0, 13).qname(&zone_name()));
        let delivered_second = net.stats().delivered - root_before;
        // Second resolution: client->resolver, resolver->auth, auth->resolver,
        // resolver->client = 4 deliveries (no root, no TLD).
        assert_eq!(delivered_second, 4);
    }

    /// A name server that logs the id of every query the resolver sends
    /// it. With `forge` set, an off-path injector sits beside it: on the
    /// first query, it answers at once with two forged R1s that carry
    /// that id, and the server's genuine answer follows a millisecond
    /// later.
    struct Injector<E> {
        server: E,
        ids: Rc<RefCell<Vec<u16>>>,
        forge: bool,
        held: Option<Datagram>,
    }

    impl<E> Injector<E> {
        fn new(server: E, ids: &Rc<RefCell<Vec<u16>>>, forge: bool) -> Self {
            let ids = Rc::clone(ids);
            Self {
                server,
                ids,
                forge,
                held: None,
            }
        }
    }

    /// The address the injector spoofs: not one the resolver asked.
    const SPOOFED: Ipv4Addr = Ipv4Addr::new(6, 6, 6, 6);

    impl<E: Endpoint> Endpoint for Injector<E> {
        fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
            let query = Message::decode(&dgram.payload).unwrap();
            self.ids.borrow_mut().push(query.header().id());
            if !std::mem::take(&mut self.forge) {
                return self.server.handle_datagram(dgram, ctx);
            }
            let qname = query.first_question().unwrap().qname().clone();
            let forged = Message::builder()
                .response_to(&query)
                .answer(Record::in_class(qname, 60, RData::A(SPOOFED)))
                .build()
                .encode()
                .unwrap();
            // The live id and port from an address nobody asked, and the
            // live id and asked address to a port the query did not use.
            let (resolver, port) = (dgram.src, dgram.src_port);
            ctx.send(Datagram::new(
                (SPOOFED, 53),
                (resolver, port),
                forged.clone(),
            ));
            ctx.send(Datagram::new(
                (ctx.local_addr(), 53),
                (resolver, port ^ 1),
                forged,
            ));
            self.held = Some(dgram.clone());
            ctx.set_timer(Duration::from_millis(1), 0);
        }

        fn handle_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
            let query = self.held.take().expect("held above");
            self.server.handle_datagram(&query, ctx);
        }
    }

    #[test]
    fn off_path_responses_with_the_live_id_are_ignored() {
        let mut net = SimNet::builder()
            .seed(62)
            .latency(FixedLatency(Duration::from_millis(5)))
            .build();
        let ids = Rc::new(RefCell::new(Vec::new()));
        let mut root = DelegationServer::new();
        root.delegate(
            "net".parse().unwrap(),
            "a.gtld-servers.net".parse().unwrap(),
            TLD,
        );
        net.register(ROOT, Injector::new(root, &ids, true));
        let mut tld = DelegationServer::new();
        tld.delegate(
            zone_name(),
            "ns1.ucfsealresearch.net".parse().unwrap(),
            AUTH,
        );
        net.register(TLD, Injector::new(tld, &ids, false));
        let mut cz = ClusterZone::new(Zone::new(
            zone_name(),
            "ns1.ucfsealresearch.net".parse().unwrap(),
        ));
        cz.load_cluster(0, 1000);
        let auth = AuthoritativeServer::new(cz, logged().0, CLUSTER_CAPACITY);
        net.register(AUTH, Injector::new(auth, &ids, false));
        net.register(
            RESOLVER,
            ProfiledResolver::new(ResponsePolicy::honest(), ROOT),
        );
        let label = ProbeLabel::new(0, 14);
        let responses = probe(&mut net, label.qname(&zone_name()));

        // Both forgeries reached the resolver before the genuine
        // referral did (the client's query and answer, three upstream
        // exchanges, two forgeries), and neither ended the transaction:
        // the client gets the one true answer.
        assert_eq!(net.stats().delivered, 2 + 2 * 3 + 2, "{:?}", net.stats());
        assert_eq!(responses.len(), 1);
        let msg = Message::decode(&responses[0].payload).unwrap();
        assert_eq!(
            msg.answers()[0].rdata().as_a(),
            Some(orscope_authns::ground_truth(label))
        );
        // One upstream id per server, none the successor of the last.
        let ids = ids.borrow();
        assert_eq!(ids.len(), 3);
        assert!(
            ids.windows(2).all(|w| w[1] != w[0].wrapping_add(1)),
            "{ids:?}"
        );
    }
}

#[cfg(test)]
mod forwarder_tests {
    use super::tests::logged;
    use super::*;
    use orscope_authns::scheme::CLUSTER_CAPACITY;
    use orscope_authns::{AuthoritativeServer, ClusterZone, DelegationServer, ProbeLabel, Zone};
    use orscope_netsim::{FixedLatency, SimNet};
    use std::cell::RefCell;
    use std::rc::Rc;

    const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
    const TLD: Ipv4Addr = Ipv4Addr::new(192, 5, 6, 30);
    const AUTH: Ipv4Addr = Ipv4Addr::new(45, 77, 1, 1);
    const UPSTREAM: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
    const CPE: Ipv4Addr = Ipv4Addr::new(62, 0, 0, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(131, 94, 0, 9);

    fn zone_name() -> Name {
        "ucfsealresearch.net".parse().unwrap()
    }

    struct Collector(Rc<RefCell<Vec<Message>>>);
    impl Endpoint for Collector {
        fn handle_datagram(&mut self, dgram: &Datagram, _ctx: &mut Context<'_>) {
            self.0
                .borrow_mut()
                .push(Message::decode(&dgram.payload).unwrap());
        }
    }

    /// Full chain: client -> forwarder (CPE) -> upstream recursive ->
    /// root/TLD/auth -> back.
    fn forward_setup(policy: ResponsePolicy) -> (SimNet, Rc<RefCell<Vec<Message>>>) {
        let mut net = SimNet::builder()
            .seed(21)
            .latency(FixedLatency(Duration::from_millis(5)))
            .build();
        let mut root = DelegationServer::new();
        root.delegate(
            "net".parse().unwrap(),
            "a.gtld-servers.net".parse().unwrap(),
            TLD,
        );
        net.register(ROOT, root);
        let mut tld = DelegationServer::new();
        tld.delegate(
            zone_name(),
            "ns1.ucfsealresearch.net".parse().unwrap(),
            AUTH,
        );
        net.register(TLD, tld);
        let mut cz = ClusterZone::new(Zone::new(
            zone_name(),
            "ns1.ucfsealresearch.net".parse().unwrap(),
        ));
        cz.load_cluster(0, 1000);
        net.register(
            AUTH,
            AuthoritativeServer::new(cz, logged().0, CLUSTER_CAPACITY),
        );
        net.register(
            UPSTREAM,
            ProfiledResolver::new(ResponsePolicy::honest(), ROOT),
        );
        net.register(CPE, ProfiledResolver::new(policy, ROOT));
        let got = Rc::new(RefCell::new(Vec::new()));
        net.register(CLIENT, Collector(got.clone()));
        (net, got)
    }

    fn probe(net: &mut SimNet, label: ProbeLabel) {
        let query = Message::query(0x7777, Question::a(label.qname(&zone_name())));
        net.inject(Datagram::new(
            (CLIENT, 47_000),
            (CPE, 53),
            query.encode().unwrap(),
        ));
        net.run_until_idle();
    }

    #[test]
    fn forwarder_relays_correct_answer() {
        let (mut net, got) = forward_setup(ResponsePolicy::forwarder(UPSTREAM));
        let label = ProbeLabel::new(0, 7);
        probe(&mut net, label);
        let responses = got.borrow();
        assert_eq!(responses.len(), 1);
        let msg = &responses[0];
        assert_eq!(msg.header().id(), 0x7777, "client id restored");
        assert!(
            msg.header().recursion_available(),
            "upstream RA passed through"
        );
        assert_eq!(
            msg.answers()[0].rdata().as_a(),
            Some(orscope_authns::ground_truth(label))
        );
    }

    #[test]
    fn forwarder_ra_override_rewrites_flag() {
        let policy = ResponsePolicy {
            action: ResponseAction::Forward(ForwardPolicy {
                upstream: UPSTREAM,
                ra_override: Some(false),
            }),
            malicious_category: None,
        };
        let (mut net, got) = forward_setup(policy);
        probe(&mut net, ProbeLabel::new(0, 8));
        let responses = got.borrow();
        let msg = &responses[0];
        assert!(!msg.header().recursion_available(), "RA rewritten to 0");
        assert!(
            !msg.answers().is_empty(),
            "answer intact: the RA0-with-answer cell"
        );
    }

    #[test]
    fn forwarder_with_dead_upstream_servfails() {
        // No upstream registered at all.
        let mut net = SimNet::builder()
            .seed(22)
            .latency(FixedLatency(Duration::from_millis(5)))
            .build();
        net.register(
            CPE,
            ProfiledResolver::new(ResponsePolicy::forwarder(UPSTREAM), ROOT),
        );
        let got = Rc::new(RefCell::new(Vec::new()));
        net.register(CLIENT, Collector(got.clone()));
        probe(&mut net, ProbeLabel::new(0, 9));
        let responses = got.borrow();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].header().rcode(), Rcode::ServFail);
    }

    #[test]
    fn negative_cache_absorbs_repeat_nxdomain() {
        // Honest resolver; the probe name is in an unloaded cluster.
        let (mut net, got) = forward_setup(ResponsePolicy::honest());
        // Point the client at the upstream resolver directly.
        let label = ProbeLabel::new(7, 1); // cluster 7 not loaded -> NXDomain
        let send = |net: &mut SimNet| {
            let query = Message::query(0x1111, Question::a(label.qname(&zone_name())));
            net.inject(Datagram::new(
                (CLIENT, 47_001),
                (UPSTREAM, 53),
                query.encode().unwrap(),
            ));
            net.run_until_idle();
        };
        send(&mut net);
        let auth_traffic_after_first = net.stats().delivered;
        send(&mut net);
        let second_cost = net.stats().delivered - auth_traffic_after_first;
        // Second query: client->resolver + resolver->client only.
        assert_eq!(second_cost, 2, "negative cache served the repeat");
        let responses = got.borrow();
        assert_eq!(responses.len(), 2);
        assert!(responses
            .iter()
            .all(|m| m.header().rcode() == Rcode::NXDomain));
    }

    #[test]
    fn negative_cache_expires() {
        let (mut net, got) = forward_setup(ResponsePolicy::honest());
        let label = ProbeLabel::new(7, 2);
        let send = |net: &mut SimNet| {
            let query = Message::query(0x2222, Question::a(label.qname(&zone_name())));
            net.inject(Datagram::new(
                (CLIENT, 47_002),
                (UPSTREAM, 53),
                query.encode().unwrap(),
            ));
            net.run_until_idle();
        };
        send(&mut net);
        // The zone SOA minimum is 300s; advance past it.
        net.run_until(net.now() + Duration::from_secs(301));
        let before = net.stats().delivered;
        send(&mut net);
        let cost = net.stats().delivered - before;
        assert!(cost > 2, "expired entry forces a fresh walk, cost {cost}");
        assert_eq!(got.borrow().len(), 2);
    }
}

#[cfg(test)]
mod cname_tests {
    use super::tests::logged;
    use super::*;
    use orscope_authns::scheme::CLUSTER_CAPACITY;
    use orscope_authns::{AuthoritativeServer, ClusterZone, DelegationServer, ProbeLabel, Zone};
    use orscope_dns_wire::RecordType;
    use orscope_netsim::{FixedLatency, SimNet};
    use std::cell::RefCell;
    use std::rc::Rc;

    const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
    const TLD: Ipv4Addr = Ipv4Addr::new(192, 5, 6, 30);
    const AUTH: Ipv4Addr = Ipv4Addr::new(45, 77, 1, 1);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(74, 0, 0, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(131, 94, 0, 9);

    fn zone_name() -> Name {
        "ucfsealresearch.net".parse().unwrap()
    }

    struct Collector(Rc<RefCell<Vec<Message>>>);
    impl Endpoint for Collector {
        fn handle_datagram(&mut self, dgram: &Datagram, _ctx: &mut Context<'_>) {
            self.0
                .borrow_mut()
                .push(Message::decode(&dgram.payload).unwrap());
        }
    }

    fn chase_setup(extra_zone: impl FnOnce(&mut Zone)) -> (SimNet, Rc<RefCell<Vec<Message>>>) {
        let mut net = SimNet::builder()
            .seed(31)
            .latency(FixedLatency(Duration::from_millis(5)))
            .build();
        let mut root = DelegationServer::new();
        root.delegate(
            "net".parse().unwrap(),
            "a.gtld-servers.net".parse().unwrap(),
            TLD,
        );
        net.register(ROOT, root);
        let mut tld = DelegationServer::new();
        tld.delegate(
            zone_name(),
            "ns1.ucfsealresearch.net".parse().unwrap(),
            AUTH,
        );
        net.register(TLD, tld);
        let mut zone = Zone::new(zone_name(), "ns1.ucfsealresearch.net".parse().unwrap());
        extra_zone(&mut zone);
        let mut cz = ClusterZone::new(zone);
        cz.load_cluster(0, 1000);
        net.register(
            AUTH,
            AuthoritativeServer::new(cz, logged().0, CLUSTER_CAPACITY),
        );
        net.register(
            RESOLVER,
            ProfiledResolver::new(ResponsePolicy::honest(), ROOT),
        );
        let got = Rc::new(RefCell::new(Vec::new()));
        net.register(CLIENT, Collector(got.clone()));
        (net, got)
    }

    fn ask(net: &mut SimNet, qname: Name) {
        let query = Message::query(0x9999, Question::a(qname));
        net.inject(Datagram::new(
            (CLIENT, 48_000),
            (RESOLVER, 53),
            query.encode().unwrap(),
        ));
        net.run_until_idle();
    }

    #[test]
    fn follows_cname_to_the_canonical_a() {
        let target = ProbeLabel::new(0, 5);
        let (mut net, got) = chase_setup(|zone| {
            zone.add_record(Record::in_class(
                "alias.ucfsealresearch.net".parse().unwrap(),
                300,
                RData::Cname(target.qname(&"ucfsealresearch.net".parse().unwrap())),
            ));
        });
        ask(&mut net, "alias.ucfsealresearch.net".parse().unwrap());
        let responses = got.borrow();
        assert_eq!(responses.len(), 1);
        let msg = &responses[0];
        // The answer carries the chain: CNAME first, then the A record.
        assert_eq!(msg.answers().len(), 2);
        assert_eq!(msg.answers()[0].rtype(), RecordType::Cname);
        assert_eq!(
            msg.answers()[1].rdata().as_a(),
            Some(orscope_authns::ground_truth(target))
        );
        // The echoed question is the client's original alias.
        assert_eq!(
            msg.first_question().unwrap().qname().to_string(),
            "alias.ucfsealresearch.net"
        );
        assert_eq!(msg.header().rcode(), Rcode::NoError);
    }

    #[test]
    fn cname_loop_ends_in_servfail() {
        let (mut net, got) = chase_setup(|zone| {
            zone.add_record(Record::in_class(
                "a.ucfsealresearch.net".parse().unwrap(),
                300,
                RData::Cname("b.ucfsealresearch.net".parse().unwrap()),
            ));
            zone.add_record(Record::in_class(
                "b.ucfsealresearch.net".parse().unwrap(),
                300,
                RData::Cname("a.ucfsealresearch.net".parse().unwrap()),
            ));
        });
        ask(&mut net, "a.ucfsealresearch.net".parse().unwrap());
        let responses = got.borrow();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].header().rcode(), Rcode::ServFail);
    }

    #[test]
    fn dangling_cname_propagates_nxdomain() {
        let (mut net, got) = chase_setup(|zone| {
            zone.add_record(Record::in_class(
                "dangling.ucfsealresearch.net".parse().unwrap(),
                300,
                RData::Cname("or009.0000001.ucfsealresearch.net".parse().unwrap()),
            ));
        });
        // Cluster 9 is not loaded, so the target does not exist.
        ask(&mut net, "dangling.ucfsealresearch.net".parse().unwrap());
        let responses = got.borrow();
        assert_eq!(responses[0].header().rcode(), Rcode::NXDomain);
    }

    #[test]
    fn direct_cname_query_is_not_chased() {
        let target = ProbeLabel::new(0, 6);
        let (mut net, got) = chase_setup(|zone| {
            zone.add_record(Record::in_class(
                "alias2.ucfsealresearch.net".parse().unwrap(),
                300,
                RData::Cname(target.qname(&"ucfsealresearch.net".parse().unwrap())),
            ));
        });
        let query = Message::query(
            0x9998,
            Question::new(
                "alias2.ucfsealresearch.net".parse().unwrap(),
                RecordType::Cname,
                orscope_dns_wire::RecordClass::In,
            ),
        );
        net.inject(Datagram::new(
            (CLIENT, 48_001),
            (RESOLVER, 53),
            query.encode().unwrap(),
        ));
        net.run_until_idle();
        let responses = got.borrow();
        assert_eq!(
            responses[0].answers().len(),
            1,
            "CNAME itself is the answer"
        );
        assert_eq!(responses[0].answers()[0].rtype(), RecordType::Cname);
    }
}

#[cfg(test)]
mod reset_tests {
    use super::tests::logged;
    use super::*;
    use orscope_authns::scheme::CLUSTER_CAPACITY;
    use orscope_authns::{AuthoritativeServer, ClusterZone, DelegationServer, ProbeLabel, Zone};
    use orscope_netsim::{FixedLatency, SimNet};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
    const TLD: Ipv4Addr = Ipv4Addr::new(192, 5, 6, 30);
    const AUTH: Ipv4Addr = Ipv4Addr::new(45, 77, 1, 1);
    const UPSTREAM: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(74, 0, 0, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(131, 94, 0, 9);

    fn zone_name() -> Name {
        "ucfsealresearch.net".parse().unwrap()
    }

    /// Every datagram any host other than the resolver under test
    /// received, in delivery order: the resolver's side of the wire.
    type Wire = Rc<RefCell<Vec<Datagram>>>;

    /// Logs what the wrapped host receives, then lets it handle it.
    struct Tap<E>(E, Wire);
    impl<E: Endpoint> Endpoint for Tap<E> {
        fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
            self.1.borrow_mut().push(dgram.clone());
            self.0.handle_datagram(dgram, ctx);
        }
        fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
            self.0.handle_timer(token, ctx);
        }
    }

    struct Sink;
    impl Endpoint for Sink {
        fn handle_datagram(&mut self, _dgram: &Datagram, _ctx: &mut Context<'_>) {}
    }

    /// The resolver under test, which the test keeps a handle on.
    type Resolver = Rc<RefCell<ProfiledResolver>>;

    /// Root, TLD, a zone with one alias, a shared upstream and a client,
    /// all tapped, around `resolver`.
    fn world(resolver: ProfiledResolver) -> (SimNet, Wire, Resolver) {
        let wire = Wire::default();
        let mut net = SimNet::builder()
            .seed(41)
            .latency(FixedLatency(Duration::from_millis(5)))
            .build();
        let mut root = DelegationServer::new();
        root.delegate(
            "net".parse().unwrap(),
            "a.gtld-servers.net".parse().unwrap(),
            TLD,
        );
        net.register(ROOT, Tap(root, wire.clone()));
        let mut tld = DelegationServer::new();
        tld.delegate(
            zone_name(),
            "ns1.ucfsealresearch.net".parse().unwrap(),
            AUTH,
        );
        net.register(TLD, Tap(tld, wire.clone()));
        let mut zone = Zone::new(zone_name(), "ns1.ucfsealresearch.net".parse().unwrap());
        zone.add_record(Record::in_class(
            "alias.ucfsealresearch.net".parse().unwrap(),
            300,
            RData::Cname(ProbeLabel::new(0, 5).qname(&zone_name())),
        ));
        let mut cz = ClusterZone::new(zone);
        cz.load_cluster(0, 1000);
        let auth = AuthoritativeServer::new(cz, logged().0, CLUSTER_CAPACITY);
        net.register(AUTH, Tap(auth, wire.clone()));
        let upstream = ProfiledResolver::new(ResponsePolicy::honest(), ROOT);
        net.register(UPSTREAM, Tap(upstream, wire.clone()));
        net.register(CLIENT, Tap(Sink, wire.clone()));
        let resolver = Rc::new(RefCell::new(resolver));
        net.register(RESOLVER, Rc::clone(&resolver));
        (net, wire, resolver)
    }

    fn ask(net: &mut SimNet, id: u16, qname: Name) {
        let query = Message::query(id, Question::a(qname));
        net.inject(Datagram::new(
            (CLIENT, 47_000),
            (RESOLVER, 53),
            query.encode().unwrap(),
        ));
        net.run_until_idle();
    }

    #[test]
    fn a_reset_resolver_is_a_fresh_one() {
        let honest = Arc::new(ResponsePolicy::honest());
        let fresh = || ProfiledResolver::new_shared(honest.clone(), ROOT);

        // A life before the reset: a full recursion, a CNAME chase, a
        // negative answer and its cached repeat, a cache hit; then, as a
        // forwarder, a relayed query.
        let (mut used, used_wire, resolver) = world(fresh());
        let label = |seq| ProbeLabel::new(0, seq).qname(&zone_name());
        ask(&mut used, 1, label(1));
        ask(&mut used, 2, "alias.ucfsealresearch.net".parse().unwrap());
        ask(&mut used, 3, ProbeLabel::new(9, 1).qname(&zone_name()));
        ask(&mut used, 4, ProbeLabel::new(9, 1).qname(&zone_name()));
        ask(&mut used, 5, label(1));
        let stats = resolver.borrow().stats();
        assert_eq!(stats.responses_sent, 5);
        assert_eq!((stats.negative_hits, stats.cache_hits), (1, 1));
        assert_eq!(stats.upstream_queries, 3 + 2 + 1, "{stats:?}");
        // The three resolutions that went upstream, the deepest through
        // root and TLD.
        let depth = stats.recursion_depth;
        assert_eq!((depth.count, depth.max), (3, 2), "{depth:?}");
        let mut twice = stats;
        twice.absorb(&stats);
        assert_eq!((twice.responses_sent, twice.recursion_depth.count), (10, 6));
        let forwarder = Arc::new(ResponsePolicy::forwarder(UPSTREAM));
        resolver.borrow_mut().reset(forwarder);
        ask(&mut used, 6, label(2));
        let stats = resolver.borrow().stats();
        assert_eq!((stats.forwarded, stats.responses_sent), (1, 1));
        assert_eq!(
            used_wire
                .borrow()
                .iter()
                .filter(|d| d.dst == CLIENT)
                .count(),
            6
        );

        // Reset: state for state what `new_shared` builds. `Debug`
        // lists every map entry, counter and scratch byte (and no
        // allocator capacity).
        resolver.borrow_mut().reset(honest.clone());
        assert_eq!(format!("{:?}", resolver.borrow()), format!("{:?}", fresh()));

        // And the next conversation is, byte for byte, the one a fresh
        // resolver has: same transaction ids, ports, questions, answers.
        let (mut reference, reference_wire, reference_resolver) = world(fresh());
        used_wire.borrow_mut().clear();
        for net in [&mut used, &mut reference] {
            ask(net, 7, label(3));
            ask(net, 8, "alias.ucfsealresearch.net".parse().unwrap());
        }
        // Root, TLD, auth, client; then (referral cached) the alias and
        // its target at the auth, client.
        assert_eq!(reference_wire.borrow().len(), 4 + 3);
        assert_eq!(*used_wire.borrow(), *reference_wire.borrow());
        assert_eq!(
            resolver.borrow().stats(),
            reference_resolver.borrow().stats()
        );
    }
}

/// [`ProfiledResolver::fresh_ignores`] is exactly "a fresh resolver is
/// inert": the referee of the host the simulator no longer builds.
#[cfg(test)]
mod fresh_ignores_tests {
    use super::*;
    use orscope_authns::ProbeLabel;
    use orscope_check::Rng;
    use orscope_netsim::{FixedLatency, SimNet};
    use std::sync::Arc;

    const ROOT: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
    const UPSTREAM: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(74, 0, 0, 1);
    const PEER: Ipv4Addr = Ipv4Addr::new(131, 94, 0, 9);

    /// One resolver per action kind: recursive, forwarding, immediate
    /// (a refusal and a redirect) and silent.
    fn policies() -> Vec<ResponsePolicy> {
        vec![
            ResponsePolicy::honest(),
            ResponsePolicy::forwarder(UPSTREAM),
            ResponsePolicy::refusing(),
            ResponsePolicy::malicious(
                Ipv4Addr::new(208, 91, 197, 91),
                true,
                false,
                orscope_lookup::threatintel::Category::Malware,
            ),
            ResponsePolicy {
                action: ResponseAction::Silent,
                malicious_category: None,
            },
        ]
    }

    /// Arbitrary bytes, a valid query, a valid response, or either of
    /// the latter with a few bytes overwritten.
    fn payload(rng: &mut Rng) -> Vec<u8> {
        let zone: Name = "ucfsealresearch.net".parse().unwrap();
        let qname = ProbeLabel::new(rng.range(0..1000), rng.range(0..5_000_000)).qname(&zone);
        let query = Message::query(rng.next_u64() as u16, Question::a(qname.clone()));
        let response = Message::builder()
            .response_to(&query)
            .answer(Record::in_class(
                qname,
                60,
                RData::A(Ipv4Addr::from(rng.next_u64() as u32)),
            ))
            .build();
        let mut wire = match rng.range(0..5) {
            0 => return rng.bytes(0..40),
            1 | 2 => query.encode().unwrap(),
            _ => response.encode().unwrap(),
        };
        if rng.bool() {
            for _ in 0..rng.range(1..=3) {
                let at = rng.range(0..wire.len());
                wire[at] = rng.next_u64() as u8;
            }
        }
        wire
    }

    /// The one host: the resolver under test.
    type Net = SimNet<ProfiledResolver>;

    fn with_resolver<R>(net: &mut Net, f: impl FnOnce(&mut ProfiledResolver) -> R) -> R {
        net.with_host(RESOLVER, f).expect("registered")
    }

    /// The resolver has shown no sign of life: it sent nothing (every
    /// datagram on the books is one the test injected), armed nothing
    /// (every event is one the test queued), counted nothing — the
    /// recursion-depth histogram included — and holds nothing in flight.
    fn assert_inert(net: &mut Net, queued: u64, context: &str) {
        net.run_until_idle();
        let stats = *net.stats();
        assert_eq!(stats.events, queued, "armed a timer: {context}");
        assert_eq!(stats.sent, stats.delivered, "sent a datagram: {context}");
        let (resolver_stats, quiescent) = with_resolver(net, |r| (r.stats(), r.is_quiescent()));
        assert_eq!(resolver_stats, ResolverStats::default(), "{context}");
        assert!(quiescent, "{context}");
    }

    #[test]
    fn what_fresh_ignores_accepts_a_fresh_resolver_ignores() {
        let mut rng = Rng::new(0xEC40);
        for policy in policies() {
            let policy = Arc::new(policy);
            let fresh = || ProfiledResolver::new_shared(policy.clone(), ROOT);
            let mut net = Net::builder()
                .seed(3)
                .latency(FixedLatency(Duration::from_millis(1)))
                .build();
            net.insert(RESOLVER, fresh());
            let mut queued = 0u64;
            let (mut ignorable, mut decoded_responses) = (0, 0);
            for case in 0..1500u32 {
                let wire = payload(&mut rng);
                if !ProfiledResolver::fresh_ignores(&wire) {
                    continue;
                }
                ignorable += 1;
                decoded_responses += u32::from(Message::decode(&wire).is_ok());
                // Alternately a resolver built from nothing and a
                // recycled one re-armed in place.
                if case % 2 == 0 {
                    net.insert(RESOLVER, fresh());
                } else {
                    with_resolver(&mut net, |r| r.reset(policy.clone()));
                }
                for port in [53, 32_768 + (rng.next_u64() as u16 & 0x3FFF)] {
                    net.inject(Datagram::new((PEER, 53), (RESOLVER, port), wire.clone()));
                    queued += 1;
                    let context = format!("{:?} port {port} {wire:02x?}", policy.action);
                    assert_inert(&mut net, queued, &context);
                }
            }
            assert!(ignorable > 300 && decoded_responses > 100);
            assert!(ignorable - decoded_responses > 50, "undecodable ones too");
            // And no timer token wakes a resolver with nothing in flight.
            for _ in 0..200 {
                let token = match rng.range(0..3) {
                    0 => rng.range(0..70_000),
                    _ => rng.next_u64(),
                };
                let at = net.now();
                net.set_timer_for(RESOLVER, at, token);
                queued += 1;
                assert_inert(&mut net, queued, &format!("timer {token}"));
            }
            assert_eq!(net.stats().timers_fired, 200);
        }
    }

    #[test]
    fn fresh_ignores_is_the_qr_bit() {
        let query = Message::query(7, Question::a("x.example".parse().unwrap()));
        let mut response = query.clone();
        response.header_mut().set_response(true);
        assert!(!ProfiledResolver::fresh_ignores(&query.encode().unwrap()));
        assert!(ProfiledResolver::fresh_ignores(&response.encode().unwrap()));
        // Too short to carry the bit: not vouched for (and dropped as
        // undecodable by whoever is built to hear it).
        assert!(!ProfiledResolver::fresh_ignores(&[]));
        assert!(!ProfiledResolver::fresh_ignores(&[0xFF, 0xFF]));
        assert!(ProfiledResolver::fresh_ignores(&[0, 0, 0x80]));
    }
}
