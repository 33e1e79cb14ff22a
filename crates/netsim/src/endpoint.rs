//! The endpoint trait and the dispatch context.

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::time::Duration;

use crate::datagram::{Datagram, Payload};
use crate::fxhash::FxHashMap;
use crate::scheduler::{HostId, TimingWheel, HOST_UNRESOLVED};
use crate::sim::{Coverage, Wire};
use crate::time::SimTime;

/// A host on the simulated internet.
///
/// Implementations receive datagrams addressed to their registered IP (any
/// port) and timer callbacks they armed through [`Context::set_timer`].
/// All interaction with the world goes through the [`Context`].
pub trait Endpoint {
    /// Called when a datagram arrives at this host.
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>);

    /// Called when a timer armed with `token` fires. Default: ignore.
    fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        let _ = (token, ctx);
    }

    /// Whether the endpoint holds no in-flight state, i.e. dropping it
    /// now and rebuilding it from its configuration later would be
    /// indistinguishable to the rest of the network. Lazily
    /// materialized hosts that report `true` after an event are
    /// released — offered back to the registry through
    /// [`crate::LazyRegistry::recycle`], which may re-arm them for another
    /// address under the same contract — which is how a full-scale
    /// population runs in a bounded-size host table.
    ///
    /// "Nothing in flight" covers the timers the endpoint armed: one
    /// that fires after the release finds no host, and the simulator
    /// counts it fired without rebuilding anyone to hand it to. An
    /// endpoint that reports `true` therefore promises that a freshly
    /// built instance ignores every timer token — which holds for any
    /// endpoint whose timers only ever refer to state it would have
    /// reported as in flight. Default: `false` (never released).
    fn is_quiescent(&self) -> bool {
        false
    }
}

/// Any host, one vtable call away: what a [`crate::SimNet`] holds by default.
impl Endpoint for Box<dyn Endpoint> {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        (**self).handle_datagram(dgram, ctx);
    }

    fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        (**self).handle_timer(token, ctx);
    }

    fn is_quiescent(&self) -> bool {
        (**self).is_quiescent()
    }
}

/// A host whoever registered it keeps a handle on, to read between events.
impl<E: Endpoint> Endpoint for Rc<RefCell<E>> {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        self.borrow_mut().handle_datagram(dgram, ctx);
    }

    fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        self.borrow_mut().handle_timer(token, ctx);
    }

    fn is_quiescent(&self) -> bool {
        self.borrow().is_quiescent()
    }
}

/// Who a datagram can reach: the simulator's address index and the
/// planned population. Neither changes while a handler runs, so what
/// they say when a send is made is what holds when it is applied.
#[derive(Clone, Copy)]
pub(crate) struct Routes<'a> {
    pub(crate) index: &'a FxHashMap<Ipv4Addr, HostId>,
    pub(crate) lazy: Option<&'a dyn Coverage>,
}

impl Routes<'_> {
    /// The routing rule, asked once per datagram, when it is sent: the
    /// slot reserved for `dst` ([`HOST_UNRESOLVED`] for a planned host
    /// that holds none), or `None` when nobody has ever been registered
    /// there and the registry plans nobody — a datagram with nowhere to
    /// arrive, now or later. A destination the registry already knows
    /// holds nobody ([`Coverage::holds_nobody`]) is settled before
    /// anything is looked up.
    pub(crate) fn route(&self, dst: Ipv4Addr) -> Option<HostId> {
        if self.lazy.is_some_and(|lazy| lazy.holds_nobody(dst)) {
            return None;
        }
        match self.index.get(&dst) {
            Some(&host) => Some(host),
            None => self
                .lazy
                .is_some_and(|lazy| lazy.covers(dst))
                .then_some(HOST_UNRESOLVED),
        }
    }
}

impl std::fmt::Debug for Routes<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Routes")
            .field("slots", &self.index.len())
            .field("lazy", &self.lazy.is_some())
            .finish()
    }
}

/// What [`Context::advance_to`] reads: the rest of the simulation, as
/// far as the dispatch in progress may run ahead of it. A dispatch gets
/// one only where no fault rule is configured and its host is not one
/// the registry may release between two events.
#[derive(Debug)]
pub(crate) struct Horizon<'a> {
    /// Every other pending event; only its head is looked at.
    pub(crate) queue: &'a mut TimingWheel,
    /// When that head is due (`None`: nothing is pending), once looked
    /// at: nothing is queued while a handler runs, so one look holds for
    /// the whole dispatch.
    pub(crate) head: Option<Option<SimTime>>,
    /// The deadline of the run in progress.
    pub(crate) deadline: SimTime,
    /// The simulator's event cap.
    pub(crate) max_events: u64,
}

/// Operations an endpoint may perform while handling an event.
///
/// A datagram to nobody is settled where it is sent, on the wire the
/// context borrows. Datagrams that travel and timers are buffered and
/// applied by the simulator after the handler returns, preserving
/// deterministic event ordering. The send/timer buffers are borrowed
/// from simulator-owned scratch vectors, so steady-state dispatch
/// performs no allocations once the buffers have grown to the
/// working-set size; a send to nobody is never buffered and allocates
/// nothing at all.
#[derive(Debug)]
pub struct Context<'a> {
    now: SimTime,
    local_addr: Ipv4Addr,
    routes: Routes<'a>,
    wire: Wire<'a>,
    outgoing: &'a mut Vec<(Datagram, HostId)>,
    timers: &'a mut Vec<(SimTime, u64)>,
    horizon: Option<Horizon<'a>>,
}

impl<'a> Context<'a> {
    pub(crate) fn new(
        now: SimTime,
        local_addr: Ipv4Addr,
        routes: Routes<'a>,
        wire: Wire<'a>,
        outgoing: &'a mut Vec<(Datagram, HostId)>,
        timers: &'a mut Vec<(SimTime, u64)>,
        horizon: Option<Horizon<'a>>,
    ) -> Self {
        debug_assert!(outgoing.is_empty() && timers.is_empty());
        Self {
            now,
            local_addr,
            routes,
            wire,
            outgoing,
            timers,
            horizon,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The address this endpoint is registered at.
    pub fn local_addr(&self) -> Ipv4Addr {
        self.local_addr
    }

    /// Queues a datagram for transmission.
    pub fn send(&mut self, dgram: Datagram) {
        let (src, dst) = (dgram.src, dgram.dst);
        self.queue(src, dst, || dgram);
    }

    /// Queues a datagram from `src` to `dst`, each an `(addr, port)`
    /// pair, whose payload `payload` builds: [`Context::send`] for a
    /// sender that writes its bytes on demand. The payload is built only
    /// if the datagram will travel, so a sender whose datagrams mostly go
    /// to nobody — a scanner — builds and allocates for the few that do
    /// not.
    pub fn send_with(
        &mut self,
        src: (Ipv4Addr, u16),
        dst: (Ipv4Addr, u16),
        payload: impl FnOnce() -> Payload,
    ) {
        self.queue(src.0, dst.0, || Datagram::new(src, dst, payload()));
    }

    /// Routes a send: queues a datagram that will travel, and settles
    /// one to nobody on the spot.
    fn queue(&mut self, src: Ipv4Addr, dst: Ipv4Addr, dgram: impl FnOnce() -> Datagram) {
        match self.routes.route(dst) {
            Some(host) => self.outgoing.push((dgram(), host)),
            None => self.wire.settle_nobody(src, dst, self.now),
        }
    }

    /// Arms a timer to fire after `delay`; `token` is handed back to
    /// [`Endpoint::handle_timer`].
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.timers.push((self.now + delay, token));
    }

    /// Arms a timer at an absolute virtual time.
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) {
        self.timers.push((at, token));
    }

    /// Runs, inside this dispatch, the timer this endpoint would
    /// otherwise arm for `at`: on `true` the clock reads `at` (never
    /// earlier than now) and the simulator has booked the event and the
    /// timer fired, as it would have had the timer been armed and
    /// popped. The caller then does what its timer handler would do.
    ///
    /// `true` only where a real firing could not have turned out
    /// differently: no fault rule is configured and the host is not one
    /// a registry may release; every event still queued is due strictly
    /// after `at` (one due at `at` was queued first and would fire
    /// first); this dispatch has queued no datagram that travels and
    /// armed no timer; `at` is within the deadline of the run in
    /// progress; and the event cap has room. On `false`, arm the timer.
    ///
    /// Nothing else could have run between the two firings, and the
    /// timer never pushed only shifts the sequence numbers of later
    /// events alike, so no two other events change order.
    pub fn advance_to(&mut self, at: SimTime) -> bool {
        let Some(horizon) = &mut self.horizon else {
            return false;
        };
        let at = at.max(self.now);
        if !self.outgoing.is_empty()
            || !self.timers.is_empty()
            || at > horizon.deadline
            || self.wire.stats.events >= horizon.max_events
            || horizon
                .head
                .get_or_insert_with(|| horizon.queue.next_at())
                .is_some_and(|head| head <= at)
        {
            return false;
        }
        self.now = at;
        self.wire.stats.events += 1;
        self.wire.stats.timers_fired += 1;
        // Armed, the timer would have made the queue as long as it was
        // before this dispatch's event was popped, which the high-water
        // mark has seen; popped from an empty queue, it would have moved
        // the wheel's cursor.
        horizon.queue.catch_up(at);
        true
    }
}
