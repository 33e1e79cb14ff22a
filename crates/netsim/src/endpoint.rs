//! The endpoint trait and the dispatch context.

use std::net::Ipv4Addr;
use std::time::Duration;

use crate::datagram::Datagram;
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

    /// Opt-in downcasting: endpoints that want their concrete type
    /// recoverable through [`crate::SimNet::with_host`] return
    /// `Some(self)`. Default: not downcastable.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }

    /// Whether the endpoint holds no in-flight state, i.e. dropping it
    /// now and rebuilding it from its configuration later would be
    /// indistinguishable to the rest of the network. Lazily
    /// materialized hosts that report `true` after an event are
    /// released — offered back to the registry through
    /// [`LazyRegistry::recycle`](crate::LazyRegistry::recycle), which
    /// may re-arm them for another address under the same contract —
    /// which is how a full-scale population runs in a bounded-size host
    /// table.
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

/// Operations an endpoint may perform while handling an event.
///
/// Sends and timers are buffered and applied by the simulator after the
/// handler returns, preserving deterministic event ordering.
/// The send/timer buffers are borrowed from simulator-owned scratch
/// vectors, so steady-state dispatch performs no allocations once the
/// buffers have grown to the working-set size.
#[derive(Debug)]
pub struct Context<'a> {
    now: SimTime,
    local_addr: Ipv4Addr,
    pub(crate) outgoing: &'a mut Vec<Datagram>,
    pub(crate) timers: &'a mut Vec<(SimTime, u64)>,
}

impl<'a> Context<'a> {
    pub(crate) fn new(
        now: SimTime,
        local_addr: Ipv4Addr,
        outgoing: &'a mut Vec<Datagram>,
        timers: &'a mut Vec<(SimTime, u64)>,
    ) -> Self {
        debug_assert!(outgoing.is_empty() && timers.is_empty());
        Self {
            now,
            local_addr,
            outgoing,
            timers,
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
        self.outgoing.push(dgram);
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
}
