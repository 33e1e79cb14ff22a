//! The discrete-event simulation engine.

use std::net::Ipv4Addr;

use crate::datagram::Datagram;
use crate::endpoint::{Context, Endpoint, Horizon, Routes};
use crate::fault::{DropKind, FaultInjector, FaultPlan, SendVerdict};
use crate::fxhash::FxHashMap;
use crate::latency::{HashLatency, LatencyModel};
use crate::scheduler::{Event, EventKind, HostId, TimingWheel, HOST_UNRESOLVED};
use crate::stats::NetStats;
use crate::time::SimTime;

/// One entry in the slab host table.
///
/// Slots for eagerly registered hosts are never reused for a different
/// address, so a [`HostId`] captured at enqueue time stays valid
/// forever. Slots for lazily materialized hosts (`lazy == true`) go on
/// a free list when the host quiesces and may be reassigned; dispatch
/// therefore validates the slot's address and falls back to the index
/// when a captured id has gone stale.
struct HostSlot<H> {
    addr: Ipv4Addr,
    ep: Option<H>,
    lazy: bool,
}

/// The addresses a [`LazyRegistry`] plans a host at: what routing asks,
/// so a [`Context`] names no host type.
pub trait Coverage {
    /// Whether `addr` is part of the planned population. The simulator
    /// asks when a datagram for an address it holds no host slot for is
    /// handed to the wire, and settles one that is not covered on the
    /// spot (see [`SimNet::inject`]), so the answer must not depend on
    /// when it is asked: `covers(addr)` holds exactly when
    /// [`LazyRegistry::materialize`] would return an endpoint.
    fn covers(&self, addr: Ipv4Addr) -> bool;
}

/// A source of on-demand hosts of type `H`, consulted when a datagram
/// or timer targets an address with no registered host.
///
/// This is the laziness half of the paper-scale population design: the
/// campaign hands the simulator a compact, profile-interned description
/// of millions of planned responders, and a full host exists only for
/// the ones that are actually mid-conversation. A
/// materialized host that reports [`Endpoint::is_quiescent`] after an
/// event is released again (fault-free plans only; see
/// [`SimNet::step`]), keeping the live host table proportional to the
/// number of concurrently active flows rather than the population.
///
/// Released means offered back: every endpoint the simulator releases
/// goes to [`LazyRegistry::recycle`] exactly once, so a registry can
/// re-arm it for the next address instead of building one from
/// nothing. An endpoint is never offered back while a fault rule pins
/// it, after an explicit [`SimNet::insert`] took its slot over, or
/// when the simulator itself is dropped.
///
/// Released also means nobody is built just to ignore an event. Where
/// releases happen, a timer due at a covered address with no live host
/// is counted fired and a datagram the registry declares ignorable
/// ([`LazyRegistry::fresh_ignores`]) is counted delivered, both
/// without a call to [`LazyRegistry::materialize`]: every counter reads
/// as if the host had been rebuilt, handed the event and released
/// again.
pub trait LazyRegistry<H = Box<dyn Endpoint>>: Coverage {
    /// Builds the endpoint planned at `addr`, or `None` if the address
    /// is not part of the planned population (a timer armed for it then
    /// fires into nothing).
    fn materialize(&self, addr: Ipv4Addr) -> Option<H>;

    /// Takes back a quiescent endpoint this registry materialized. What
    /// the registry later hands out in its place must be
    /// indistinguishable from a freshly built endpoint — the same
    /// contract [`Endpoint::is_quiescent`] states for dropping one.
    /// Default: drop it.
    fn recycle(&self, endpoint: H) {
        drop(endpoint);
    }

    /// Whether the endpoint [`LazyRegistry::materialize`] would build
    /// at `addr` ignores `dgram`: handed it as its first event, it
    /// sends nothing, arms nothing, draws nothing from the simulation's
    /// RNG, changes nothing a later packet, a capture point or a
    /// telemetry series could show, and is quiescent afterwards. The
    /// simulator asks only on the fault-free path, about a datagram
    /// arriving at a covered address with no live host, and on `true`
    /// counts it delivered without building anyone to hear it. Only the
    /// code that defines the endpoint's behaviour can promise this, so
    /// an implementation forwards the question there. Default: `false`
    /// (materialize and dispatch).
    fn fresh_ignores(&self, addr: Ipv4Addr, dgram: &Datagram) -> bool {
        let _ = (addr, dgram);
        false
    }
}

/// How far a duplicated datagram's second copy trails the first: a
/// small reorder gap.
const DUPLICATE_GAP: std::time::Duration = std::time::Duration::from_millis(3);

/// What a datagram handed to the wire meets: the run's counters, the
/// fault plan and the latency model. A [`Context`] borrows it for the
/// length of a handler call, so a datagram to nobody is settled where
/// it is sent.
pub(crate) struct Wire<'a> {
    pub(crate) stats: &'a mut NetStats,
    faults: &'a mut FaultInjector,
    latency: &'a dyn LatencyModel,
}

impl std::fmt::Debug for Wire<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wire")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Wire<'_> {
    /// Hands one datagram from `src` to `dst` to the wire at `now`:
    /// counts it sent and draws the plan's verdict on it, routed or not.
    /// `None` when a rule dropped it there and then.
    fn on_wire(&mut self, src: Ipv4Addr, dst: Ipv4Addr, now: SimTime) -> Option<SendVerdict> {
        self.stats.sent += 1;
        let verdict = self.faults.on_send(src, dst, now);
        self.stats.faults_injected += verdict.faults;
        match verdict.drop {
            Some(DropKind::Loss) => {
                self.stats.lost += 1;
                None
            }
            Some(DropKind::Blackhole) => {
                self.stats.blackhole_drops += 1;
                None
            }
            None => {
                self.stats.duplicated += u64::from(verdict.duplicate);
                Some(verdict)
            }
        }
    }

    /// When a datagram handed to the wire at `now` arrives.
    fn arrival(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        now: SimTime,
        verdict: &SendVerdict,
    ) -> SimTime {
        now + self.latency.latency(src, dst) + verdict.extra_delay
    }

    /// Sends a datagram to a destination with neither a slot nor a
    /// planned host. It has nobody to arrive at, now or later, so each
    /// copy is settled here as its delivery would have settled it and no
    /// event is built: a crash window open at the copy's arrival
    /// swallows it, otherwise it is unrouted. Only a crash rule can tell
    /// one arrival instant from another, so only then is one computed.
    pub(crate) fn settle_nobody(&mut self, src: Ipv4Addr, dst: Ipv4Addr, now: SimTime) {
        let Some(verdict) = self.on_wire(src, dst, now) else {
            return;
        };
        let copies = 1 + u32::from(verdict.duplicate);
        if !self.faults.has_crash() {
            self.stats.unrouted += u64::from(copies);
            return;
        }
        let at = self.arrival(src, dst, now, &verdict);
        for copy in 0..copies {
            if self.faults.crashed(dst, at + DUPLICATE_GAP * copy) {
                self.stats.crash_drops += 1;
                self.stats.faults_injected += 1;
            } else {
                self.stats.unrouted += 1;
            }
        }
    }
}

/// What decides whether a datagram travels: a simulator's address index
/// and registry. A [`Context`] borrows it for the length of a handler
/// call.
fn routes<'a, H>(
    index: &'a FxHashMap<Ipv4Addr, HostId>,
    lazy: &'a Option<Box<dyn LazyRegistry<H>>>,
) -> Routes<'a> {
    Routes {
        index,
        lazy: lazy.as_deref().map(|lazy| lazy as &dyn Coverage),
    }
}

/// What an event finds at the address it is due at.
enum Arrival<H> {
    /// A live host (just materialized, if need be), detached from its
    /// slot for dispatch.
    Host(H),
    /// A planned host that is not live and would ignore the event: it
    /// is counted as handled and nobody is built.
    Ignored,
    /// No host, live or planned.
    Nobody,
}

/// Builder for [`SimNet`]; see [`SimNet::builder`].
pub struct SimNetBuilder<H = Box<dyn Endpoint>> {
    seed: u64,
    latency: Box<dyn LatencyModel>,
    faults: Option<FaultPlan>,
    max_events: u64,
    lazy: Option<Box<dyn LazyRegistry<H>>>,
}

impl<H> Default for SimNetBuilder<H> {
    fn default() -> Self {
        Self {
            seed: 0,
            latency: Box::new(HashLatency::internet(0)),
            faults: None,
            max_events: u64::MAX,
            lazy: None,
        }
    }
}

impl<H> std::fmt::Debug for SimNetBuilder<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNetBuilder")
            .field("seed", &self.seed)
            .field("faults", &self.faults)
            .finish_non_exhaustive()
    }
}

impl<H: Endpoint> SimNetBuilder<H> {
    /// Seeds the default fault plan's per-flow draws (the only random
    /// choices the simulator makes; an explicit [`Self::faults`] plan
    /// carries its own seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the latency model (default: [`HashLatency::internet`]).
    pub fn latency(mut self, model: impl LatencyModel + 'static) -> Self {
        self.latency = Box::new(model);
        self
    }

    /// Installs a fault plan: scheduled, scoped impairments evaluated
    /// with hashed per-flow draws (see [`crate::fault`]). The plan's own
    /// seed drives the draws, so a campaign can keep fault decisions
    /// identical across differently-seeded shard simulators.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Caps total processed events (runaway-loop backstop in tests).
    pub fn max_events(mut self, n: u64) -> Self {
        self.max_events = n;
        self
    }

    /// Installs a [`LazyRegistry`]: endpoints for addresses it covers
    /// are built on first delivery instead of being registered up
    /// front, and released again once quiescent (when the fault plan
    /// permits). Eagerly registered hosts are unaffected.
    pub fn lazy_hosts(mut self, registry: impl LazyRegistry<H> + 'static) -> Self {
        self.lazy = Some(Box::new(registry));
        self
    }

    /// Builds the simulator.
    pub fn build(self) -> SimNet<H> {
        let plan = self.faults.unwrap_or_else(|| FaultPlan::seeded(self.seed));
        // Releasing a quiescent host is only indistinguishable from
        // keeping it when no fault rule can retransmit, duplicate, or
        // crash its way back into released state: a resolver rebuilt
        // after release answers a duplicated query with a cold cache
        // where the eager endpoint would have answered from a warm one.
        // Any configured rule therefore pins materialized hosts.
        let release_quiescent = plan.rules.is_empty();
        SimNet {
            hosts: Vec::new(),
            index: FxHashMap::default(),
            queue: TimingWheel::new(),
            queue_depth_hwm: 0,
            now: SimTime::ZERO,
            seq: 0,
            latency: self.latency,
            faults: FaultInjector::new(plan),
            stats: NetStats::default(),
            max_events: self.max_events,
            lazy: self.lazy,
            release_quiescent,
            free_slots: Vec::new(),
            lazy_live: 0,
            lazy_peak: 0,
            materialized_total: 0,
            scratch_out: Vec::new(),
            scratch_timers: Vec::new(),
        }
    }
}

/// The simulated internet: hosts of type `H`, an event queue, and a
/// virtual clock.
///
/// Hosts live in a slab: a dense `Vec` of slots plus an FxHash
/// address→index map consulted once per enqueued event. Delivery indexes
/// straight into the slot and detaches the endpoint with `Option::take`,
/// so the per-event cost is two array accesses instead of two hash-map
/// operations (the old remove/re-insert dance).
///
/// `H` is whatever the slab holds: a world that knows its hosts names
/// them in one enum and dispatches by `match`; the default, a boxed
/// [`Endpoint`], takes any host through [`SimNet::register`].
pub struct SimNet<H = Box<dyn Endpoint>> {
    hosts: Vec<HostSlot<H>>,
    /// The slot of every live host.
    index: FxHashMap<Ipv4Addr, HostId>,
    queue: TimingWheel,
    /// High-water mark of `queue.len()`.
    queue_depth_hwm: usize,
    now: SimTime,
    seq: u64,
    latency: Box<dyn LatencyModel>,
    faults: FaultInjector,
    stats: NetStats,
    max_events: u64,
    /// On-demand endpoint source for the planned population, if any.
    lazy: Option<Box<dyn LazyRegistry<H>>>,
    /// Whether quiescent lazy hosts may be released (fault-free plans).
    release_quiescent: bool,
    /// Recycled slab slots from released lazy hosts.
    free_slots: Vec<HostId>,
    /// Currently materialized lazy hosts.
    lazy_live: usize,
    /// High-water mark of `lazy_live`.
    lazy_peak: usize,
    /// Total materializations (re-materializations included).
    materialized_total: u64,
    /// Pooled dispatch buffers lent to [`Context`]; cleared by `apply`.
    scratch_out: Vec<(Datagram, HostId)>,
    scratch_timers: Vec<(SimTime, u64)>,
}

impl<H> std::fmt::Debug for SimNet<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNet")
            .field("hosts", &self.index.len())
            .field("queued_events", &self.queue.len())
            .field("now", &self.now)
            .field("stats", &self.stats)
            .finish()
    }
}

impl SimNet {
    /// Registers `endpoint` at `addr`, replacing any previous host there:
    /// [`SimNet::insert`] for a simulator of boxed endpoints.
    pub fn register(&mut self, addr: Ipv4Addr, endpoint: impl Endpoint + 'static) {
        self.insert(addr, Box::new(endpoint));
    }
}

impl<H: Endpoint> SimNet<H> {
    /// Starts building a simulator.
    pub fn builder() -> SimNetBuilder<H> {
        SimNetBuilder::default()
    }

    /// Adds `host` at `addr`, replacing any previous host there.
    pub fn insert(&mut self, addr: Ipv4Addr, host: H) {
        match self.index.get(&addr) {
            Some(&id) => {
                // An indexed slot is live: it is only detached while its
                // host handles an event.
                let slot = &mut self.hosts[id as usize];
                if slot.lazy {
                    self.lazy_live -= 1;
                }
                slot.ep = Some(host);
                // Explicit registration pins the slot: it is now owned
                // by the caller, not the registry, and never released.
                slot.lazy = false;
            }
            None => {
                let id = self.hosts.len() as HostId;
                assert!(id < HOST_UNRESOLVED, "host table full");
                self.index.insert(addr, id);
                self.hosts.push(HostSlot {
                    addr,
                    ep: Some(host),
                    lazy: false,
                });
            }
        }
    }

    /// Number of live hosts: the registered ones and whichever lazy
    /// hosts are materialized right now.
    pub fn host_count(&self) -> usize {
        self.index.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// High-water mark of concurrently materialized lazy hosts. Zero
    /// when no [`LazyRegistry`] is installed.
    pub fn materialized_peak(&self) -> usize {
        self.lazy_peak
    }

    /// Total lazy materializations, re-materializations of released
    /// hosts included.
    pub fn materialized_total(&self) -> u64 {
        self.materialized_total
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The most events ever pending at once.
    pub fn queue_depth_hwm(&self) -> usize {
        self.queue_depth_hwm
    }

    /// Mutable access to the live host at `addr`, e.g. to read back what
    /// the prober captured. A world of one host enum matches on it.
    pub fn with_host<R>(&mut self, addr: Ipv4Addr, f: impl FnOnce(&mut H) -> R) -> Option<R> {
        let id = *self.index.get(&addr)?;
        self.hosts[id as usize].ep.as_mut().map(f)
    }

    /// Visits every live host, in slot order: the eagerly registered
    /// ones and whichever lazy hosts are materialized right now. How a
    /// run's owner reads the books its endpoints kept.
    pub fn for_each_host(&mut self, mut f: impl FnMut(Ipv4Addr, &mut H)) {
        for slot in &mut self.hosts {
            if let Some(ep) = slot.ep.as_mut() {
                f(slot.addr, ep);
            }
        }
    }

    /// Injects a datagram into the network "from the outside" (e.g. a
    /// spoofed-source attack packet). Loss and latency apply normally.
    ///
    /// Like every datagram an endpoint sends, it is routed here, when
    /// it is handed to the wire: a destination that has never been
    /// registered and that no [`LazyRegistry`] covers is counted
    /// [`NetStats::unrouted`] at once (or as a crash drop, if a crash
    /// window would have swallowed it on arrival) and never travels. A
    /// host first registered at that address while the datagram would
    /// have been in flight therefore does not receive it.
    pub fn inject(&mut self, dgram: Datagram) {
        match routes(&self.index, &self.lazy).route(dgram.dst) {
            Some(host) => self.transmit(dgram, host),
            None => {
                let now = self.now;
                self.wire().settle_nobody(dgram.src, dgram.dst, now);
            }
        }
    }

    /// Arms a timer for the host at `addr` at absolute time `at`.
    pub fn set_timer_for(&mut self, addr: Ipv4Addr, at: SimTime, token: u64) {
        let at = at.max(self.now);
        let host = self.resolve(addr);
        self.push_event(at, EventKind::Timer { addr, host, token });
    }

    /// One FxHash lookup: address → slab slot (or the sentinel if the
    /// address has never been registered).
    fn resolve(&self, addr: Ipv4Addr) -> HostId {
        self.index.get(&addr).copied().unwrap_or(HOST_UNRESOLVED)
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { at, seq, kind });
        self.queue_depth_hwm = self.queue_depth_hwm.max(self.queue.len());
    }

    /// The wire a datagram sent from outside any handler goes onto.
    fn wire(&mut self) -> Wire<'_> {
        Wire {
            stats: &mut self.stats,
            faults: &mut self.faults,
            latency: &*self.latency,
        }
    }

    /// Sends a datagram routed to the slot `host`.
    fn transmit(&mut self, dgram: Datagram, host: HostId) {
        let now = self.now;
        let mut wire = self.wire();
        let Some(verdict) = wire.on_wire(dgram.src, dgram.dst, now) else {
            return;
        };
        let at = wire.arrival(dgram.src, dgram.dst, now, &verdict);
        if verdict.duplicate {
            let dgram = dgram.clone();
            self.push_event(at + DUPLICATE_GAP, EventKind::Deliver { dgram, host });
        }
        self.push_event(at, EventKind::Deliver { dgram, host });
    }

    /// Detaches the live endpoint at `addr`, if there is one. `host` is
    /// the slot captured at enqueue time; it is re-resolved through the
    /// index when the address had no slot then, or the slot has since
    /// been released or recycled for a different address. On return it
    /// names the slot `addr` is live in, or [`HOST_UNRESOLVED`] when
    /// there is none: an address never registered, or a lazy host since
    /// released.
    fn take_live(&mut self, host: &mut HostId, addr: Ipv4Addr) -> Option<H> {
        let current = self
            .hosts
            .get(*host as usize)
            .is_some_and(|slot| slot.addr == addr && slot.ep.is_some());
        if !current {
            // Stale or never-resolved id: one index lookup.
            *host = self.resolve(addr);
        }
        self.hosts.get_mut(*host as usize)?.ep.take()
    }

    /// Resolves the destination of an event due now at `addr`: a
    /// datagram (`dgram`) or, without one, a timer.
    ///
    /// A live host answers for its address. An address without one is
    /// the registry's. Where quiescent hosts are released, a host that
    /// is not live has nothing in flight — it said so when it was
    /// released, or was never built — so a timer due there is stale by
    /// construction, and a datagram the registry declares ignorable
    /// changes nothing either: both are [`Arrival::Ignored`]. Everything
    /// else addressed to a planned host materializes it.
    fn arrive(
        &mut self,
        host: &mut HostId,
        addr: Ipv4Addr,
        dgram: Option<&Datagram>,
    ) -> Arrival<H> {
        if let Some(ep) = self.take_live(host, addr) {
            return Arrival::Host(ep);
        }
        if self.release_quiescent {
            let ignored = self.lazy.as_ref().is_some_and(|lazy| match dgram {
                Some(dgram) => lazy.fresh_ignores(addr, dgram),
                None => lazy.covers(addr),
            });
            if ignored {
                return Arrival::Ignored;
            }
        }
        match self.materialize(addr, host) {
            Some(ep) => Arrival::Host(ep),
            None => Arrival::Nobody,
        }
    }

    /// Builds the endpoint planned at `addr` through the lazy registry,
    /// allocating (or recycling) a slab slot for it. `host` is updated
    /// to the new slot; the caller re-attaches the endpoint there after
    /// dispatch, exactly as for an eager host.
    fn materialize(&mut self, addr: Ipv4Addr, host: &mut HostId) -> Option<H> {
        let ep = self.lazy.as_ref()?.materialize(addr)?;
        let id = match self.free_slots.pop() {
            Some(id) => {
                let slot = &mut self.hosts[id as usize];
                debug_assert!(slot.ep.is_none() && slot.lazy);
                slot.addr = addr;
                id
            }
            None => {
                let id = self.hosts.len() as HostId;
                assert!(id < HOST_UNRESOLVED, "host table full");
                self.hosts.push(HostSlot {
                    addr,
                    ep: None,
                    lazy: true,
                });
                id
            }
        };
        self.index.insert(addr, id);
        self.lazy_live += 1;
        self.lazy_peak = self.lazy_peak.max(self.lazy_live);
        self.materialized_total += 1;
        *host = id;
        Some(ep)
    }

    /// Releases the host in slot `host` back to the registry if it is a
    /// quiescent lazy host and the fault plan permits releases.
    fn maybe_release(&mut self, host: HostId) {
        if !self.release_quiescent || host == HOST_UNRESOLVED {
            return;
        }
        let slot = &mut self.hosts[host as usize];
        if !slot.lazy || !slot.ep.as_ref().is_some_and(|ep| ep.is_quiescent()) {
            return;
        }
        let ep = slot.ep.take().expect("checked quiescent above");
        self.lazy
            .as_ref()
            .expect("lazy slots come from a registry")
            .recycle(ep);
        self.index.remove(&slot.addr);
        self.free_slots.push(host);
        self.lazy_live -= 1;
    }

    /// Processes the next event, and whatever timers its handler runs
    /// inside it ([`Context::advance_to`]); returns `false` when the
    /// queue is empty or the event cap is reached.
    pub fn step(&mut self) -> bool {
        self.step_until(SimTime::from_nanos(u64::MAX))
    }

    /// [`SimNet::step`] within a run that ends at `deadline`: no handler
    /// advances past it.
    fn step_until(&mut self, deadline: SimTime) -> bool {
        if self.stats.events >= self.max_events {
            return false;
        }
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.at >= self.now, "time went backwards");
        self.now = event.at;
        self.stats.events += 1;
        match event.kind {
            EventKind::Deliver { dgram, mut host } => {
                // A crashed host neither receives nor replies; the
                // datagram evaporates (state survives for the restart).
                if self.faults.crashed(dgram.dst, self.now) {
                    self.stats.crash_drops += 1;
                    self.stats.faults_injected += 1;
                    return true;
                }
                // Detach the endpoint so the handler can borrow the
                // context mutably without aliasing the host table.
                let arrival = self.arrive(&mut host, dgram.dst, Some(&dgram));
                if matches!(arrival, Arrival::Nobody) {
                    self.stats.unrouted += 1;
                    return true;
                }
                self.stats.delivered += 1;
                self.stats.bytes_delivered += dgram.payload.len() as u64;
                if let Arrival::Host(ep) = arrival {
                    self.dispatch(ep, dgram.dst, host, deadline, |ep, ctx| {
                        ep.handle_datagram(&dgram, ctx);
                    });
                }
            }
            EventKind::Timer {
                addr,
                mut host,
                token,
            } => {
                // Timers armed by a now-crashed host are swallowed too:
                // a down box runs no callbacks.
                if self.faults.crashed(addr, self.now) {
                    self.stats.crash_drops += 1;
                    self.stats.faults_injected += 1;
                    return true;
                }
                let arrival = self.arrive(&mut host, addr, None);
                if matches!(arrival, Arrival::Nobody) {
                    return true;
                }
                self.stats.timers_fired += 1;
                if let Arrival::Host(ep) = arrival {
                    self.dispatch(ep, addr, host, deadline, |ep, ctx| {
                        ep.handle_timer(token, ctx);
                    });
                }
            }
        }
        true
    }

    /// Hands one event to `ep`, the host of slot `host` at `addr`,
    /// through a [`Context`] on this simulator's wire; then re-attaches
    /// it, applies what it queued at the time its handler left the clock
    /// at, and releases it if it may be released.
    fn dispatch(
        &mut self,
        mut ep: H,
        addr: Ipv4Addr,
        host: HostId,
        deadline: SimTime,
        handle: impl FnOnce(&mut H, &mut Context<'_>),
    ) {
        let mut outgoing = std::mem::take(&mut self.scratch_out);
        let mut timers = std::mem::take(&mut self.scratch_timers);
        // Running ahead is indistinguishable only where nothing but the
        // queue could happen in between: no fault rule, and no release.
        let may_advance = self.release_quiescent && !self.hosts[host as usize].lazy;
        let SimNet {
            index,
            lazy,
            queue,
            now,
            latency,
            faults,
            stats,
            max_events,
            ..
        } = self;
        let routes = routes(index, lazy);
        let wire = Wire {
            stats,
            faults,
            latency: &**latency,
        };
        let horizon = may_advance.then_some(Horizon {
            queue,
            deadline,
            max_events: *max_events,
        });
        let mut ctx = Context::new(
            *now,
            addr,
            routes,
            wire,
            &mut outgoing,
            &mut timers,
            horizon,
        );
        handle(&mut ep, &mut ctx);
        *now = ctx.now();
        self.hosts[host as usize].ep = Some(ep);
        self.apply(&mut outgoing, &mut timers, addr, host);
        self.scratch_out = outgoing;
        self.scratch_timers = timers;
        self.maybe_release(host);
    }

    fn apply(
        &mut self,
        outgoing: &mut Vec<(Datagram, HostId)>,
        timers: &mut Vec<(SimTime, u64)>,
        addr: Ipv4Addr,
        host: HostId,
    ) {
        for (dgram, host) in outgoing.drain(..) {
            self.transmit(dgram, host);
        }
        for (at, token) in timers.drain(..) {
            let at = at.max(self.now);
            self.push_event(at, EventKind::Timer { addr, host, token });
        }
    }

    /// Runs until no events remain (or the event cap trips).
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Whether the event queue has drained (no work left to simulate).
    /// (`&mut` because peeking the timing wheel advances its cursor.)
    pub fn is_idle(&mut self) -> bool {
        self.queue.next_at().is_none()
    }

    /// Runs until virtual time reaches `deadline` or the queue drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(head_at) = self.queue.next_at() {
            if head_at > deadline {
                break;
            }
            if !self.step_until(deadline) {
                break;
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::FixedLatency;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Echoes every datagram back to its sender.
    struct Echo;
    impl Endpoint for Echo {
        fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
            ctx.send(dgram.reply(dgram.payload.clone()));
        }
    }

    /// Sends `count` pings on its timer and counts replies.
    struct Pinger {
        target: Ipv4Addr,
        count: u32,
        replies: Arc<AtomicU64>,
        reply_times: Rc<RefCell<Vec<SimTime>>>,
    }
    impl Endpoint for Pinger {
        fn handle_datagram(&mut self, _dgram: &Datagram, ctx: &mut Context<'_>) {
            self.replies.fetch_add(1, Ordering::Relaxed);
            self.reply_times.borrow_mut().push(ctx.now());
        }
        fn handle_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
            for i in 0..self.count {
                ctx.send(Datagram::new(
                    (ctx.local_addr(), 40_000 + i as u16),
                    (self.target, 53),
                    vec![i as u8],
                ));
            }
        }
    }

    const CLIENT: Ipv4Addr = Ipv4Addr::new(1, 0, 0, 1);
    const SERVER: Ipv4Addr = Ipv4Addr::new(2, 0, 0, 2);

    fn ping_setup(loss: f64, count: u32) -> (SimNet, Arc<AtomicU64>, Rc<RefCell<Vec<SimTime>>>) {
        let replies = Arc::new(AtomicU64::new(0));
        let times = Rc::new(RefCell::new(Vec::new()));
        let mut net = SimNet::builder()
            .seed(99)
            .latency(FixedLatency(Duration::from_millis(10)))
            .faults(FaultPlan::uniform_loss(99, loss))
            .build();
        net.register(SERVER, Echo);
        net.register(
            CLIENT,
            Pinger {
                target: SERVER,
                count,
                replies: replies.clone(),
                reply_times: times.clone(),
            },
        );
        net.set_timer_for(CLIENT, SimTime::ZERO, 0);
        (net, replies, times)
    }

    #[test]
    fn round_trip_delivery_and_timing() {
        let (mut net, replies, times) = ping_setup(0.0, 1);
        net.run_until_idle();
        assert_eq!(replies.load(Ordering::Relaxed), 1);
        // 10ms there + 10ms back.
        assert_eq!(times.borrow()[0], SimTime::from_nanos(20_000_000));
        assert_eq!(net.stats().sent, 2);
        assert_eq!(net.stats().delivered, 2);
        assert_eq!(net.stats().timers_fired, 1);
    }

    #[test]
    fn unrouted_datagrams_are_counted() {
        let mut net: SimNet = SimNet::builder().seed(1).build();
        net.inject(Datagram::new((CLIENT, 1), (SERVER, 53), b"x".to_vec()));
        net.run_until_idle();
        assert_eq!(net.stats().unrouted, 1);
        assert_eq!(net.stats().delivered, 0);
    }

    #[test]
    fn loss_model_drops_packets() {
        let (mut net, replies, _) = ping_setup(1.0, 10);
        net.run_until_idle();
        assert_eq!(replies.load(Ordering::Relaxed), 0);
        assert_eq!(net.stats().lost, 10);
    }

    #[test]
    fn partial_loss_is_deterministic() {
        let run = || {
            let (mut net, replies, _) = ping_setup(0.3, 100);
            net.run_until_idle();
            replies.load(Ordering::Relaxed)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must reproduce exactly");
        assert!(a > 20 && a < 80, "loss rate wildly off: {a}");
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut net, replies, _) = ping_setup(0.0, 1);
        // Ping fires at t=0, delivery at 10ms, reply at 20ms.
        net.run_until(SimTime::from_nanos(15_000_000));
        assert_eq!(replies.load(Ordering::Relaxed), 0);
        assert_eq!(net.now(), SimTime::from_nanos(15_000_000));
        net.run_until_idle();
        assert_eq!(replies.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn max_events_caps_runaway() {
        // Two echoes bouncing a packet forever.
        let mut net = SimNet::builder()
            .seed(3)
            .latency(FixedLatency(Duration::from_millis(1)))
            .max_events(50)
            .build();
        net.register(CLIENT, Echo);
        net.register(SERVER, Echo);
        net.inject(Datagram::new((CLIENT, 1), (SERVER, 53), b"loop".to_vec()));
        net.run_until_idle();
        assert_eq!(net.stats().events, 50);
    }

    #[test]
    fn a_never_registered_destination_is_settled_at_send_time() {
        // Routing is decided when the datagram is handed to the wire: an
        // address nobody has ever registered is unrouted on the spot, and
        // a host first registered while the packet would have been in
        // flight does not receive it. Once the address has a slot,
        // datagrams to it travel.
        let got = Arc::new(AtomicU64::new(0));
        struct Count(Arc<AtomicU64>);
        impl Endpoint for Count {
            fn handle_datagram(&mut self, _d: &Datagram, _c: &mut Context<'_>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut net = SimNet::builder()
            .seed(2)
            .latency(FixedLatency(Duration::from_millis(5)))
            .build();
        net.inject(Datagram::new((CLIENT, 1), (SERVER, 53), b"x".to_vec()));
        assert_eq!(net.stats().unrouted, 1, "counted before any event runs");
        assert!(net.is_idle(), "and never scheduled");
        net.register(SERVER, Count(got.clone()));
        net.inject(Datagram::new((CLIENT, 1), (SERVER, 53), b"y".to_vec()));
        net.run_until_idle();
        assert_eq!(got.load(Ordering::Relaxed), 1, "only the second arrives");
        assert_eq!(net.stats().unrouted, 1);
        assert_eq!(net.stats().delivered, 1);
        assert_eq!(net.stats().events, 1);
    }

    #[test]
    fn simultaneous_events_fire_in_submission_order() {
        struct Recorder {
            order: Rc<RefCell<Vec<u64>>>,
        }
        impl Endpoint for Recorder {
            fn handle_datagram(&mut self, _d: &Datagram, _c: &mut Context<'_>) {}
            fn handle_timer(&mut self, token: u64, _ctx: &mut Context<'_>) {
                self.order.borrow_mut().push(token);
            }
        }
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut net = SimNet::builder().seed(5).build();
        net.register(
            CLIENT,
            Recorder {
                order: order.clone(),
            },
        );
        for token in [3u64, 1, 4, 1, 5] {
            net.set_timer_for(CLIENT, SimTime::from_secs(1), token);
        }
        net.run_until_idle();
        assert_eq!(*order.borrow(), vec![3, 1, 4, 1, 5]);
    }

    #[test]
    fn bytes_delivered_accumulates() {
        let (mut net, _, _) = ping_setup(0.0, 3);
        net.run_until_idle();
        // 3 pings of 1 byte + 3 echoes of 1 byte.
        assert_eq!(net.stats().bytes_delivered, 6);
    }
}

#[cfg(test)]
mod lazy_tests {
    use super::*;
    use crate::fault::{FaultKind, FaultRule, FaultScope};
    use crate::latency::FixedLatency;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Stateless echo: quiescent after every event, so a lazy slot is
    /// released as soon as the reply is queued.
    struct QuiescentEcho;
    impl Endpoint for QuiescentEcho {
        fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
            ctx.send(dgram.reply(dgram.payload.clone()));
        }
        fn is_quiescent(&self) -> bool {
            true
        }
    }

    /// Materializes a [`QuiescentEcho`] for any address in `lo..=hi`.
    struct EchoRegistry {
        lo: u32,
        hi: u32,
        built: Arc<AtomicU64>,
    }
    impl Coverage for EchoRegistry {
        fn covers(&self, addr: Ipv4Addr) -> bool {
            (self.lo..=self.hi).contains(&u32::from(addr))
        }
    }
    impl LazyRegistry for EchoRegistry {
        fn materialize(&self, addr: Ipv4Addr) -> Option<Box<dyn Endpoint>> {
            if !self.covers(addr) {
                return None;
            }
            self.built.fetch_add(1, Ordering::Relaxed);
            Some(Box::new(QuiescentEcho))
        }
    }

    const BASE: u32 = 0x0A00_0001; // 10.0.0.1

    fn lazy_net(span: u32) -> (SimNet, Arc<AtomicU64>) {
        let built = Arc::new(AtomicU64::new(0));
        let net = SimNet::builder()
            .seed(7)
            .latency(FixedLatency(Duration::from_millis(1)))
            .lazy_hosts(EchoRegistry {
                lo: BASE,
                hi: BASE + span - 1,
                built: built.clone(),
            })
            .build();
        (net, built)
    }

    #[test]
    fn lazy_hosts_materialize_on_delivery_and_release_when_quiescent() {
        let (mut net, built) = lazy_net(50);
        for i in 0..50u32 {
            net.inject(Datagram::new(
                (Ipv4Addr::new(1, 0, 0, 1), i as u16),
                (Ipv4Addr::from(BASE + i), 53),
                vec![1],
            ));
        }
        net.run_until_idle();
        assert_eq!(built.load(Ordering::Relaxed), 50);
        assert_eq!(net.stats().delivered, 50);
        // Each echo quiesces immediately, so at most one host is ever
        // live and the table is empty at the end.
        assert_eq!(net.materialized_peak(), 1);
        assert_eq!(net.materialized_total(), 50);
        assert_eq!(net.host_count(), 0);
        net.for_each_host(|addr, _| panic!("{addr} was released"));
        // The echoed replies target an unregistered client.
        assert_eq!(net.stats().unrouted, 50);
    }

    #[test]
    fn addresses_outside_the_registry_stay_unrouted() {
        let (mut net, built) = lazy_net(1);
        net.inject(Datagram::new(
            (Ipv4Addr::new(1, 0, 0, 1), 9),
            (Ipv4Addr::from(BASE + 1000), 53),
            vec![1],
        ));
        net.run_until_idle();
        assert_eq!(built.load(Ordering::Relaxed), 0);
        assert_eq!(net.stats().unrouted, 1);
        assert_eq!(net.stats().delivered, 0);
    }

    #[test]
    fn eager_registration_shadows_the_registry() {
        struct Count(Arc<AtomicU64>);
        impl Endpoint for Count {
            fn handle_datagram(&mut self, _d: &Datagram, _c: &mut Context<'_>) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (mut net, built) = lazy_net(50);
        let got = Arc::new(AtomicU64::new(0));
        net.register(Ipv4Addr::from(BASE), Count(got.clone()));
        net.inject(Datagram::new(
            (Ipv4Addr::new(1, 0, 0, 1), 9),
            (Ipv4Addr::from(BASE), 53),
            vec![1],
        ));
        net.run_until_idle();
        assert_eq!(got.load(Ordering::Relaxed), 1);
        assert_eq!(built.load(Ordering::Relaxed), 0);
        // Eager hosts are pinned: never released on quiescence.
        assert_eq!(net.host_count(), 1);
    }

    #[test]
    fn any_fault_rule_pins_materialized_hosts() {
        // Even a zero-probability rule disables releases: the plan
        // could retransmit or duplicate into a released host, so the
        // simulator only releases under a provably fault-free plan.
        let built = Arc::new(AtomicU64::new(0));
        let plan = FaultPlan::seeded(7).with_rule(FaultRule::always(
            FaultScope::All,
            FaultKind::Loss { probability: 0.0 },
        ));
        let mut net = SimNet::builder()
            .seed(7)
            .latency(FixedLatency(Duration::from_millis(1)))
            .faults(plan)
            .lazy_hosts(EchoRegistry {
                lo: BASE,
                hi: BASE + 49,
                built: built.clone(),
            })
            .build();
        for i in 0..50u32 {
            net.inject(Datagram::new(
                (Ipv4Addr::new(1, 0, 0, 1), i as u16),
                (Ipv4Addr::from(BASE + i), 53),
                vec![1],
            ));
        }
        net.run_until_idle();
        assert_eq!(net.materialized_peak(), 50);
        assert_eq!(net.host_count(), 50);
        // Pinned hosts are still there to be visited, each once.
        let mut visited = Vec::new();
        net.for_each_host(|addr, _| visited.push(u32::from(addr)));
        visited.sort_unstable();
        assert_eq!(visited, (BASE..BASE + 50).collect::<Vec<_>>());
    }

    #[test]
    fn a_stale_timer_is_counted_and_builds_nobody() {
        // A timer due at a registry-covered address with no live host
        // is stale by construction: it is counted fired, exactly as the
        // eager no-op would be, and no host is built to ignore it.
        let (mut net, built) = lazy_net(1);
        net.set_timer_for(Ipv4Addr::from(BASE), SimTime::from_secs(1), 42);
        net.run_until_idle();
        assert_eq!(built.load(Ordering::Relaxed), 0);
        assert_eq!(net.stats().timers_fired, 1);
        assert_eq!(net.stats().events, 1);
        assert_eq!(net.host_count(), 0);
        assert_eq!(net.materialized_total(), 0);
        // An address the registry does not plan has nobody to fire at.
        net.set_timer_for(Ipv4Addr::from(BASE + 1000), SimTime::from_secs(2), 42);
        net.run_until_idle();
        assert_eq!(net.stats().timers_fired, 1);
        assert_eq!(net.stats().events, 2);
    }

    /// Echoes like [`QuiescentEcho`] and remembers which
    /// materialization it is.
    struct Tagged(u64);
    impl Endpoint for Tagged {
        fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
            ctx.send(dgram.reply(dgram.payload.clone()));
        }
        fn is_quiescent(&self) -> bool {
            true
        }
    }

    /// Tags each endpoint it builds and logs every tag offered back.
    #[derive(Default, Clone)]
    struct CountingRegistry {
        built: std::rc::Rc<std::cell::Cell<u64>>,
        returned: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
    }
    impl Coverage for CountingRegistry {
        fn covers(&self, addr: Ipv4Addr) -> bool {
            // The probed block only: the echoes' replies stay unrouted.
            (BASE..BASE + 50).contains(&u32::from(addr))
        }
    }
    impl LazyRegistry<Tagged> for CountingRegistry {
        fn materialize(&self, addr: Ipv4Addr) -> Option<Tagged> {
            if !self.covers(addr) {
                return None;
            }
            let tag = self.built.get();
            self.built.set(tag + 1);
            Some(Tagged(tag))
        }
        fn recycle(&self, endpoint: Tagged) {
            self.returned.borrow_mut().push(endpoint.0);
        }
    }

    fn probe_fifty(net: &mut SimNet<Tagged>) {
        for i in 0..50u32 {
            net.inject(Datagram::new(
                (Ipv4Addr::new(1, 0, 0, 1), i as u16),
                (Ipv4Addr::from(BASE + i), 53),
                vec![1],
            ));
        }
        // A timer that outlives its host's release.
        net.set_timer_for(Ipv4Addr::from(BASE), SimTime::from_secs(1), 42);
        net.run_until_idle();
        assert_eq!(net.stats().timers_fired, 1);
    }

    #[test]
    fn every_released_endpoint_is_offered_back_exactly_once() {
        let registry = CountingRegistry::default();
        let mut net = SimNet::builder()
            .seed(7)
            .latency(FixedLatency(Duration::from_millis(1)))
            .lazy_hosts(registry.clone())
            .build();
        probe_fifty(&mut net);
        // One per probe; the stale timer is settled without a host.
        assert_eq!(registry.built.get(), 50);
        assert_eq!(*registry.returned.borrow(), (0..50).collect::<Vec<u64>>());
        // The books read as they did when a release was a drop.
        assert_eq!(net.materialized_total(), 50);
        assert_eq!(net.materialized_peak(), 1);
        assert_eq!(net.host_count(), 0);
    }

    #[test]
    fn pinned_hosts_are_never_offered_back() {
        let registry = CountingRegistry::default();
        let plan = FaultPlan::seeded(7).with_rule(FaultRule::always(
            FaultScope::All,
            FaultKind::Loss { probability: 0.0 },
        ));
        let mut net = SimNet::builder()
            .seed(7)
            .latency(FixedLatency(Duration::from_millis(1)))
            .faults(plan)
            .lazy_hosts(registry.clone())
            .build();
        probe_fifty(&mut net);
        assert_eq!(registry.built.get(), 50, "the timer finds its host live");
        assert!(registry.returned.borrow().is_empty());
        assert_eq!(net.materialized_total(), 50);
        assert_eq!(net.materialized_peak(), 50);
        assert_eq!(net.host_count(), 50);
    }

    #[test]
    fn a_host_the_registry_may_release_never_runs_ahead() {
        // Released between two events, it would find its next timer
        // settled without it; so it is never told to run that timer
        // itself, while the same endpoint registered eagerly is.
        struct Ahead(Rc<Cell<Option<bool>>>);
        impl Endpoint for Ahead {
            fn handle_datagram(&mut self, _d: &Datagram, ctx: &mut Context<'_>) {
                self.0
                    .set(Some(ctx.advance_to(ctx.now() + Duration::from_secs(1))));
            }
            fn is_quiescent(&self) -> bool {
                true
            }
        }
        struct Plans(Rc<Cell<Option<bool>>>);
        impl Coverage for Plans {
            fn covers(&self, addr: Ipv4Addr) -> bool {
                addr == Ipv4Addr::from(BASE)
            }
        }
        impl LazyRegistry for Plans {
            fn materialize(&self, addr: Ipv4Addr) -> Option<Box<dyn Endpoint>> {
                self.covers(addr)
                    .then(|| Box::new(Ahead(self.0.clone())) as Box<dyn Endpoint>)
            }
        }
        let probe = Datagram::new(
            (Ipv4Addr::new(1, 0, 0, 1), 9),
            (Ipv4Addr::from(BASE), 53),
            vec![1],
        );
        for eager in [false, true] {
            let told = Rc::new(Cell::new(None));
            let mut net: SimNet = SimNet::builder().lazy_hosts(Plans(told.clone())).build();
            if eager {
                net.register(Ipv4Addr::from(BASE), Ahead(told.clone()));
            }
            net.inject(probe.clone());
            net.run_until_idle();
            assert_eq!(told.get(), Some(eager));
            assert_eq!(net.stats().timers_fired, u64::from(eager));
        }
    }

    #[test]
    fn released_slots_are_recycled() {
        let (mut net, _) = lazy_net(1000);
        for round in 0..4u32 {
            for i in 0..250u32 {
                net.inject(Datagram::new(
                    (Ipv4Addr::new(1, 0, 0, 1), i as u16),
                    (Ipv4Addr::from(BASE + round * 250 + i), 53),
                    vec![1],
                ));
            }
            net.run_until_idle();
        }
        assert_eq!(net.materialized_total(), 1000);
        // Releases recycle slab slots, so the table never grows past
        // the concurrent working set (plus the infra that isn't lazy).
        assert!(net.materialized_peak() <= 2, "{}", net.materialized_peak());
    }
}

/// What is settled without a host, and what still builds one: only an
/// event at a covered address with no slot, on a fault-free plan, that
/// the registry vouches a fresh host would ignore.
#[cfg(test)]
mod settle_tests {
    use super::*;
    use crate::fault::{FaultKind, FaultRule, FaultScope};
    use crate::latency::FixedLatency;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::time::Duration;

    const SRC: Ipv4Addr = Ipv4Addr::new(1, 0, 0, 1);
    /// The one planned address.
    const HOST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    /// What the registry and its hosts did, shared with the test.
    #[derive(Default)]
    struct Books {
        built: Cell<u64>,
        recycled: Cell<u64>,
        /// Datagrams handled + 100 x timers handled, by any host.
        handled: Cell<u64>,
    }

    fn bump(cell: &Cell<u64>, by: u64) {
        cell.set(cell.get() + by);
    }

    /// Sends nothing and arms nothing; `quiescent` is fixed at build.
    struct Listener {
        books: Rc<Books>,
        quiescent: bool,
    }
    impl Endpoint for Listener {
        fn handle_datagram(&mut self, _dgram: &Datagram, _ctx: &mut Context<'_>) {
            bump(&self.books.handled, 1);
        }
        fn handle_timer(&mut self, _token: u64, _ctx: &mut Context<'_>) {
            bump(&self.books.handled, 100);
        }
        fn is_quiescent(&self) -> bool {
            self.quiescent
        }
    }

    /// Plans a [`Listener`] at [`HOST`]. With `vouch`, a fresh one is
    /// declared to ignore payloads carrying the DNS QR bit.
    struct OneListener {
        books: Rc<Books>,
        quiescent: bool,
        vouch: bool,
    }
    impl Coverage for OneListener {
        fn covers(&self, addr: Ipv4Addr) -> bool {
            addr == HOST
        }
    }
    impl LazyRegistry for OneListener {
        fn materialize(&self, addr: Ipv4Addr) -> Option<Box<dyn Endpoint>> {
            self.covers(addr).then(|| {
                bump(&self.books.built, 1);
                Box::new(Listener {
                    books: self.books.clone(),
                    quiescent: self.quiescent,
                }) as Box<dyn Endpoint>
            })
        }
        fn recycle(&self, _endpoint: Box<dyn Endpoint>) {
            bump(&self.books.recycled, 1);
        }
        fn fresh_ignores(&self, _addr: Ipv4Addr, dgram: &Datagram) -> bool {
            self.vouch && dgram.payload[2] & 0x80 != 0
        }
    }

    fn net_with(quiescent: bool, vouch: bool, plan: FaultPlan) -> (SimNet, Rc<Books>) {
        let books = Rc::new(Books::default());
        let net = SimNet::builder()
            .seed(7)
            .latency(FixedLatency(Duration::from_millis(1)))
            .faults(plan)
            .lazy_hosts(OneListener {
                books: books.clone(),
                quiescent,
                vouch,
            })
            .build();
        (net, books)
    }

    fn query() -> Datagram {
        Datagram::new((SRC, 9), (HOST, 53), vec![0, 0, 0x01])
    }

    fn response() -> Datagram {
        Datagram::new((SRC, 53), (HOST, 40_000), vec![0, 0, 0x81, 0])
    }

    /// Runs the queue dry and checks that every event was counted as
    /// exactly one thing. Nothing here is sent to an unplanned address
    /// and no crash window opens, so every `unrouted` was counted on
    /// arrival.
    fn drain(net: &mut SimNet) -> NetStats {
        net.run_until_idle();
        let stats = *net.stats();
        assert_eq!(
            stats.events,
            stats.timers_fired + stats.delivered + stats.unrouted
        );
        stats
    }

    #[test]
    fn a_vouched_for_datagram_to_a_released_host_is_delivered_to_nobody() {
        let (mut net, books) = net_with(true, true, FaultPlan::seeded(7));
        net.inject(query());
        drain(&mut net);
        assert_eq!((books.built.get(), books.recycled.get()), (1, 1));
        net.inject(response());
        let stats = drain(&mut net);
        assert_eq!((stats.delivered, stats.bytes_delivered), (2, 3 + 4));
        assert_eq!(stats.events, 2);
        assert_eq!(books.handled.get(), 1, "nobody heard the response");
        assert_eq!((books.built.get(), books.recycled.get()), (1, 1));
        assert_eq!(net.materialized_total(), 1);
        assert_eq!(net.host_count(), 0);
        // The same holds for a host that was never built at all.
        let (mut net, books) = net_with(true, true, FaultPlan::seeded(7));
        net.inject(response());
        let stats = drain(&mut net);
        assert_eq!((stats.delivered, stats.bytes_delivered), (1, 4));
        assert_eq!((books.built.get(), books.handled.get()), (0, 0));
    }

    #[test]
    fn without_the_registrys_word_the_host_is_rebuilt_to_hear_it() {
        let (mut net, books) = net_with(true, false, FaultPlan::seeded(7));
        net.inject(query());
        net.inject(response());
        let stats = drain(&mut net);
        assert_eq!((stats.delivered, stats.bytes_delivered), (2, 3 + 4));
        assert_eq!(books.handled.get(), 2);
        assert_eq!((books.built.get(), books.recycled.get()), (2, 2));
        assert_eq!(net.materialized_total(), 2);
        assert_eq!(net.host_count(), 0);
    }

    #[test]
    fn a_query_to_a_released_host_rebuilds_it_whatever_the_registry_vouches() {
        let (mut net, books) = net_with(true, true, FaultPlan::seeded(7));
        net.inject(query());
        drain(&mut net);
        net.inject(query());
        let stats = drain(&mut net);
        assert_eq!(stats.delivered, 2);
        assert_eq!(books.handled.get(), 2);
        assert_eq!((books.built.get(), books.recycled.get()), (2, 2));
    }

    #[test]
    fn a_live_host_hears_its_timers_and_every_datagram() {
        // Never quiescent, so never released: nothing is stale.
        let (mut net, books) = net_with(false, true, FaultPlan::seeded(7));
        net.inject(query());
        drain(&mut net);
        assert_eq!(net.host_count(), 1);
        net.inject(response());
        net.set_timer_for(HOST, SimTime::from_secs(1), 42);
        let stats = drain(&mut net);
        assert_eq!((stats.delivered, stats.timers_fired), (2, 1));
        assert_eq!(books.handled.get(), 102);
        assert_eq!((books.built.get(), books.recycled.get()), (1, 0));
    }

    #[test]
    fn an_eager_host_at_a_planned_address_hears_everything() {
        let (mut net, books) = net_with(true, true, FaultPlan::seeded(7));
        net.register(
            HOST,
            Listener {
                books: books.clone(),
                quiescent: true,
            },
        );
        net.inject(response());
        net.set_timer_for(HOST, SimTime::from_secs(1), 42);
        let stats = drain(&mut net);
        assert_eq!((stats.delivered, stats.timers_fired), (1, 1));
        assert_eq!(books.handled.get(), 101);
        assert_eq!(books.built.get(), 0, "eager shadows the registry");
        assert_eq!(net.host_count(), 1);
    }

    #[test]
    fn under_any_fault_rule_nothing_is_settled_without_its_host() {
        // Hosts are pinned, so "not live" means "never built" — and a
        // first event builds its host, as it always did.
        let plan = FaultPlan::seeded(7).with_rule(FaultRule::always(
            FaultScope::All,
            FaultKind::Loss { probability: 0.0 },
        ));
        let (mut net, books) = net_with(true, true, plan.clone());
        net.inject(response());
        let stats = drain(&mut net);
        assert_eq!(stats.delivered, 1);
        assert_eq!((books.built.get(), books.handled.get()), (1, 1));
        assert_eq!((books.recycled.get(), net.host_count()), (0, 1));
        let (mut net, books) = net_with(true, true, plan);
        net.set_timer_for(HOST, SimTime::from_secs(1), 42);
        let stats = drain(&mut net);
        assert_eq!(stats.timers_fired, 1);
        assert_eq!((books.built.get(), books.handled.get()), (1, 100));
        assert_eq!((books.recycled.get(), net.host_count()), (0, 1));
    }
}

#[cfg(test)]
mod duplication_tests {
    use super::*;
    use crate::fault::{FaultKind, FaultRule, FaultScope};
    use crate::latency::FixedLatency;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    struct Count(Arc<AtomicU64>);
    impl Endpoint for Count {
        fn handle_datagram(&mut self, _d: &Datagram, _c: &mut Context<'_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn duplicating(seed: u64, probability: f64) -> FaultPlan {
        FaultPlan::seeded(seed).with_rule(FaultRule::always(
            FaultScope::All,
            FaultKind::Duplicate { probability },
        ))
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut net = SimNet::builder()
            .seed(8)
            .latency(FixedLatency(Duration::from_millis(1)))
            .faults(duplicating(8, 1.0))
            .build();
        let got = Arc::new(AtomicU64::new(0));
        let dst = Ipv4Addr::new(2, 0, 0, 2);
        net.register(dst, Count(got.clone()));
        for i in 0..10u16 {
            net.inject(Datagram::new(
                (Ipv4Addr::new(1, 0, 0, 1), i),
                (dst, 53),
                vec![1],
            ));
        }
        net.run_until_idle();
        assert_eq!(got.load(Ordering::Relaxed), 20);
        assert_eq!(net.stats().duplicated, 10);
    }

    #[test]
    fn partial_duplication_is_deterministic() {
        let run = || {
            let mut net = SimNet::builder()
                .seed(9)
                .latency(FixedLatency(Duration::from_millis(1)))
                .faults(duplicating(9, 0.4))
                .build();
            let got = Arc::new(AtomicU64::new(0));
            let dst = Ipv4Addr::new(2, 0, 0, 2);
            net.register(dst, Count(got.clone()));
            for i in 0..100u16 {
                net.inject(Datagram::new(
                    (Ipv4Addr::new(1, 0, 0, 1), i),
                    (dst, 53),
                    vec![1],
                ));
            }
            net.run_until_idle();
            got.load(Ordering::Relaxed)
        };
        let a = run();
        assert_eq!(a, run());
        assert!((120..170).contains(&a), "{a}");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{FaultKind, FaultRule, FaultScope};
    use crate::latency::FixedLatency;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const SRC: Ipv4Addr = Ipv4Addr::new(1, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(2, 0, 0, 2);

    struct Count(Arc<AtomicU64>);
    impl Endpoint for Count {
        fn handle_datagram(&mut self, _d: &Datagram, _c: &mut Context<'_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn handle_timer(&mut self, _token: u64, _ctx: &mut Context<'_>) {
            self.0.fetch_add(100, Ordering::Relaxed);
        }
    }

    fn faulted_net(plan: FaultPlan) -> (SimNet, Arc<AtomicU64>) {
        let mut net = SimNet::builder()
            .seed(5)
            .latency(FixedLatency(Duration::from_millis(10)))
            .faults(plan)
            .build();
        let got = Arc::new(AtomicU64::new(0));
        net.register(DST, Count(got.clone()));
        (net, got)
    }

    fn inject_at(net: &mut SimNet, secs: u64, port: u16) {
        // Drive virtual time forward, then send: faults are evaluated
        // at send time for drops and at delivery time for crashes.
        net.run_until(SimTime::from_secs(secs));
        net.inject(Datagram::new((SRC, port), (DST, 53), vec![1]));
    }

    #[test]
    fn blackhole_window_swallows_traffic_only_inside_the_window() {
        let plan = FaultPlan::seeded(5).with_rule(FaultRule::window(
            Duration::from_secs(10),
            Duration::from_secs(20),
            FaultScope::Host(DST),
            FaultKind::Blackhole,
        ));
        let (mut net, got) = faulted_net(plan);
        inject_at(&mut net, 1, 1); // before window: delivered
        inject_at(&mut net, 15, 2); // inside window: dropped
        inject_at(&mut net, 25, 3); // after window: delivered
        net.run_until_idle();
        assert_eq!(got.load(Ordering::Relaxed), 2);
        assert_eq!(net.stats().blackhole_drops, 1);
        assert_eq!(net.stats().faults_injected, 1);
        assert_eq!(net.stats().delivered, 2);
    }

    #[test]
    fn crash_window_drops_deliveries_and_timers_but_host_recovers() {
        let plan = FaultPlan::seeded(5).with_rule(FaultRule::window(
            Duration::from_secs(10),
            Duration::from_secs(20),
            FaultScope::Host(DST),
            FaultKind::Crash,
        ));
        let (mut net, got) = faulted_net(plan);
        net.set_timer_for(DST, SimTime::from_secs(15), 7); // swallowed
        net.set_timer_for(DST, SimTime::from_secs(30), 8); // fires
        inject_at(&mut net, 15, 1); // delivery lands in crash window
        inject_at(&mut net, 25, 2); // host is back up
        net.run_until_idle();
        // One delivery (after restart) + one timer fire (100).
        assert_eq!(got.load(Ordering::Relaxed), 101);
        assert_eq!(net.stats().crash_drops, 2);
        assert_eq!(net.stats().faults_injected, 2);
    }

    #[test]
    fn delay_rule_shifts_delivery_without_dropping() {
        let plan = FaultPlan::seeded(5).with_rule(FaultRule::always(
            FaultScope::Link { src: SRC, dst: DST },
            FaultKind::Delay {
                extra: Duration::from_millis(500),
                jitter: Duration::ZERO,
            },
        ));
        let times = Rc::new(RefCell::new(Vec::new()));
        struct ArrivalLog(Rc<RefCell<Vec<SimTime>>>);
        impl Endpoint for ArrivalLog {
            fn handle_datagram(&mut self, _d: &Datagram, ctx: &mut Context<'_>) {
                self.0.borrow_mut().push(ctx.now());
            }
        }
        let mut net = SimNet::builder()
            .seed(5)
            .latency(FixedLatency(Duration::from_millis(10)))
            .faults(plan)
            .build();
        net.register(DST, ArrivalLog(times.clone()));
        net.inject(Datagram::new((SRC, 1), (DST, 53), vec![1]));
        net.run_until_idle();
        assert_eq!(times.borrow()[0], SimTime::from_nanos(510_000_000));
        assert_eq!(net.stats().faults_injected, 1);
        assert_eq!(net.stats().lost, 0);
    }

    #[test]
    fn explicit_plan_reproduces_exactly_across_runs() {
        let run = || {
            let plan = FaultPlan::seeded(11).with_rule(FaultRule::always(
                FaultScope::All,
                FaultKind::Loss { probability: 0.4 },
            ));
            let (mut net, got) = faulted_net(plan);
            for i in 0..200u16 {
                net.inject(Datagram::new((SRC, i), (DST, 53), vec![1]));
            }
            net.run_until_idle();
            (got.load(Ordering::Relaxed), net.stats().lost)
        };
        let (a_got, a_lost) = run();
        let (b_got, b_lost) = run();
        assert_eq!((a_got, a_lost), (b_got, b_lost));
        assert_eq!(a_got + a_lost, 200);
        assert!(
            a_lost > 40 && a_lost < 120,
            "loss rate wildly off: {a_lost}"
        );
    }
}

/// Routing at send time moves *when* a datagram to nobody is counted,
/// never *what* it is counted as: every counter but `events` reads as it
/// did when such a datagram travelled first.
#[cfg(test)]
mod routing_tests {
    use super::*;
    use crate::fault::{FaultKind, FaultRule, FaultScope};
    use crate::latency::FixedLatency;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const SRC: Ipv4Addr = Ipv4Addr::new(1, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(2, 0, 0, 2);
    /// Never registered, never planned.
    const GHOST: Ipv4Addr = Ipv4Addr::new(3, 0, 0, 3);

    struct Count(Arc<AtomicU64>);
    impl Endpoint for Count {
        fn handle_datagram(&mut self, _d: &Datagram, _c: &mut Context<'_>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
        fn handle_timer(&mut self, _token: u64, _ctx: &mut Context<'_>) {
            self.0.fetch_add(100, Ordering::Relaxed);
        }
        fn is_quiescent(&self) -> bool {
            true
        }
    }

    /// Plans a [`Count`] at `DST` and nowhere else; without a counter,
    /// reneges on the plan and builds nobody there.
    struct OneHost(Option<Arc<AtomicU64>>);
    impl Coverage for OneHost {
        fn covers(&self, addr: Ipv4Addr) -> bool {
            addr == DST
        }
    }
    impl LazyRegistry for OneHost {
        fn materialize(&self, addr: Ipv4Addr) -> Option<Box<dyn Endpoint>> {
            let got = self.0.clone().filter(|_| self.covers(addr))?;
            Some(Box::new(Count(got)))
        }
    }

    /// 10 ms one-way, the given plan, nothing registered.
    fn net_with(plan: FaultPlan) -> SimNet {
        SimNet::builder()
            .seed(5)
            .latency(FixedLatency(Duration::from_millis(10)))
            .faults(plan)
            .build()
    }

    fn send_at(net: &mut SimNet, millis: u64, dst: Ipv4Addr) {
        net.run_until(SimTime::from_nanos(millis * 1_000_000));
        net.inject(Datagram::new((SRC, 9), (dst, 53), vec![1]));
    }

    fn crash(host: Ipv4Addr) -> FaultRule {
        FaultRule::window(
            Duration::from_secs(10),
            Duration::from_secs(20),
            FaultScope::Host(host),
            FaultKind::Crash,
        )
    }

    #[test]
    fn a_crash_window_open_on_arrival_swallows_an_unplanned_address() {
        let mut net = net_with(FaultPlan::seeded(5).with_rule(crash(GHOST)));
        send_at(&mut net, 9_985, GHOST); // arrives 9.995 s: before the window
        send_at(&mut net, 9_995, GHOST); // sent before, arrives 10.005 s: inside
        send_at(&mut net, 15_000, GHOST); // inside
        send_at(&mut net, 19_995, GHOST); // sent inside, arrives 20.005 s: after
        assert!(net.is_idle(), "none of the four was scheduled");
        let stats = *net.stats();
        assert_eq!(stats.sent, 4);
        assert_eq!(stats.crash_drops, 2);
        assert_eq!(stats.faults_injected, 2);
        assert_eq!(stats.unrouted, 2);
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn each_copy_of_a_duplicated_datagram_to_nobody_is_unrouted() {
        let plan = FaultPlan::seeded(5).with_rule(FaultRule::always(
            FaultScope::All,
            FaultKind::Duplicate { probability: 1.0 },
        ));
        let mut net = net_with(plan);
        send_at(&mut net, 0, GHOST);
        assert!(net.is_idle());
        let stats = *net.stats();
        assert_eq!(stats.duplicated, 1);
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(stats.unrouted, 2);
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn the_duplicate_of_a_datagram_to_nobody_meets_the_crash_window_alone() {
        // The original arrives 1 ms before the window opens, its
        // duplicate (3 ms behind) 2 ms after.
        let plan = FaultPlan::seeded(5)
            .with_rule(FaultRule::always(
                FaultScope::All,
                FaultKind::Duplicate { probability: 1.0 },
            ))
            .with_rule(crash(GHOST));
        let mut net = net_with(plan);
        send_at(&mut net, 9_989, GHOST);
        let stats = *net.stats();
        assert_eq!(stats.duplicated, 1);
        assert_eq!(stats.unrouted, 1);
        assert_eq!(stats.crash_drops, 1);
        assert_eq!(stats.faults_injected, 2);
    }

    #[test]
    fn a_lost_datagram_never_reaches_routing() {
        let plan = FaultPlan::seeded(5).with_rule(FaultRule::always(
            FaultScope::All,
            FaultKind::Loss { probability: 1.0 },
        ));
        let mut net = net_with(plan);
        send_at(&mut net, 0, GHOST);
        let stats = *net.stats();
        assert_eq!(stats.lost, 1);
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(stats.unrouted, 0);
        assert_eq!(stats.events, 0);
    }

    #[test]
    fn both_send_entries_are_one_rule() {
        use std::cell::RefCell;
        use std::rc::Rc;

        const TICKS: u64 = 120;

        /// Every 250 ms sends to nobody, to a live host and to nobody
        /// again — the same pair twice in one handler — either built
        /// and passed to `send` or as bytes to `send_bytes`.
        struct Sender {
            built: bool,
        }
        impl Endpoint for Sender {
            fn handle_datagram(&mut self, _d: &Datagram, _c: &mut Context<'_>) {}
            fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
                let from = (ctx.local_addr(), 9);
                for (i, dst) in [GHOST, DST, GHOST].into_iter().enumerate() {
                    let payload = [token as u8, i as u8];
                    if self.built {
                        ctx.send(Datagram::new(from, (dst, 53), &payload[..]));
                    } else {
                        ctx.send_bytes(from, (dst, 53), &payload);
                    }
                }
                if token + 1 < TICKS {
                    ctx.set_timer(Duration::from_millis(250), token + 1);
                }
            }
        }

        /// When each datagram arrived and what it carried.
        type Arrivals = Rc<RefCell<Vec<(SimTime, Vec<u8>)>>>;
        struct ArrivalLog(Arrivals);
        impl Endpoint for ArrivalLog {
            fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
                self.0
                    .borrow_mut()
                    .push((ctx.now(), dgram.payload.to_vec()));
            }
        }

        // Thirty seconds of ticks: before, inside and after the window
        // in which the address nobody holds is also crashed.
        let run = |built: bool| {
            let plan = FaultPlan::seeded(5)
                .with_rule(FaultRule::always(
                    FaultScope::All,
                    FaultKind::Loss { probability: 0.5 },
                ))
                .with_rule(FaultRule::always(
                    FaultScope::All,
                    FaultKind::Duplicate { probability: 0.5 },
                ))
                .with_rule(crash(GHOST));
            let arrivals = Arrivals::default();
            let mut net = net_with(plan);
            net.register(SRC, Sender { built });
            net.register(DST, ArrivalLog(arrivals.clone()));
            net.set_timer_for(SRC, SimTime::ZERO, 0);
            net.run_until_idle();
            let arrivals = arrivals.borrow().clone();
            (*net.stats(), arrivals)
        };
        let (stats, arrivals) = run(false);
        assert_eq!((stats, arrivals.clone()), run(true));
        // Every fate was met, so every branch was compared.
        assert_eq!(stats.sent, 3 * TICKS);
        assert_eq!(stats.delivered, arrivals.len() as u64);
        assert_eq!(stats.events, TICKS + stats.delivered);
        for met in [
            stats.lost,
            stats.duplicated,
            stats.unrouted,
            stats.crash_drops,
        ] {
            assert!(met > 10, "{stats:?}");
        }
        assert_eq!(
            stats.sent + stats.duplicated,
            stats.lost + stats.delivered + stats.unrouted + stats.crash_drops
        );
    }

    #[test]
    fn a_covered_address_travels_and_materializes_on_arrival() {
        let got = Arc::new(AtomicU64::new(0));
        let mut net = SimNet::builder()
            .seed(5)
            .latency(FixedLatency(Duration::from_millis(10)))
            .lazy_hosts(OneHost(Some(got.clone())))
            .build();
        send_at(&mut net, 0, DST);
        send_at(&mut net, 0, GHOST);
        assert_eq!(net.stats().unrouted, 1, "the uncovered one, at once");
        assert!(!net.is_idle(), "the covered one is on the wire");
        assert_eq!(net.materialized_total(), 0, "and builds nothing yet");
        net.run_until_idle();
        assert_eq!(got.load(Ordering::Relaxed), 1);
        assert_eq!(net.materialized_total(), 1);
        // Released since: no slot again, still covered, still travels.
        assert_eq!(net.host_count(), 0);
        send_at(&mut net, 100, DST);
        net.run_until_idle();
        assert_eq!(got.load(Ordering::Relaxed), 2);
        let stats = *net.stats();
        assert_eq!((stats.sent, stats.delivered, stats.unrouted), (3, 2, 1));
        assert_eq!(stats.events, 2);
    }

    #[test]
    fn a_datagram_nobody_is_built_for_on_arrival_is_unrouted_then() {
        let mut net = SimNet::builder()
            .seed(5)
            .latency(FixedLatency(Duration::from_millis(10)))
            .lazy_hosts(OneHost(None))
            .build();
        send_at(&mut net, 0, DST);
        assert_eq!(net.stats().unrouted, 0, "covered, so not decided yet");
        assert!(!net.is_idle());
        net.run_until_idle();
        let stats = *net.stats();
        assert_eq!((stats.sent, stats.delivered, stats.unrouted), (1, 0, 1));
        assert_eq!(stats.events, 1);
    }

    #[test]
    fn events_count_timers_and_datagrams_that_travelled() {
        let got = Arc::new(AtomicU64::new(0));
        let plan = FaultPlan::seeded(5)
            .with_rule(crash(DST))
            .with_rule(crash(GHOST));
        let mut net = net_with(plan);
        net.register(DST, Count(got.clone()));
        net.set_timer_for(DST, SimTime::from_secs(15), 7); // swallowed
        net.set_timer_for(DST, SimTime::from_secs(30), 8); // fires
        send_at(&mut net, 15_000, DST); // travels, swallowed on arrival
        send_at(&mut net, 15_000, GHOST); // swallowed at send time
        send_at(&mut net, 25_000, DST); // delivered
        send_at(&mut net, 25_000, GHOST); // unrouted at send time
        net.run_until_idle();
        assert_eq!(got.load(Ordering::Relaxed), 101);
        let stats = *net.stats();
        assert_eq!(stats.sent, 4);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.timers_fired, 1);
        assert_eq!(stats.unrouted, 1);
        assert_eq!(stats.crash_drops, 3);
        assert_eq!(stats.faults_injected, 3);
        // One timer fired, one delivery, and the two crash swallows
        // that happened on arrival; GHOST's two never became events.
        assert_eq!(stats.events, stats.timers_fired + stats.delivered + 2);
    }
}
