#![warn(missing_docs)]
//! A deterministic, discrete-event simulated IPv4 internet.
//!
//! The measurement pipeline from the paper probes 3.7 billion addresses on
//! the real Internet. We cannot (and must not, without authorization) do
//! that, so this crate provides the transport the rest of the workspace
//! runs on: a single-threaded, virtual-time network simulator in which
//! every host is an [`Endpoint`] registered at an IPv4 address, datagrams
//! are delivered with configurable latency and loss, and the entire run is
//! exactly reproducible from a seed.
//!
//! Design points, in the spirit of deterministic-simulation testing used
//! by distributed-systems projects:
//!
//! - **Virtual time** ([`SimTime`]) advances only when events fire; a
//!   10-hour scan executes in however long the event processing takes.
//! - **Determinism**: ties in the event queue break on a monotonically
//!   increasing sequence number, and every random choice (latency jitter,
//!   fault verdicts) is a hash of the flow and a seed — there is no
//!   stream whose draw order could depend on event order.
//! - **Ownership**: hosts are owned by the simulator, a [`SimNet<H>`]
//!   holding one host type: a caller's own enum of the kinds it
//!   simulates, read back by `match`, or by default any [`Endpoint`],
//!   boxed. During event dispatch a host is temporarily detached so it
//!   can freely send datagrams and set timers through a [`Context`]
//!   without aliasing.
//!
//! # Example
//!
//! ```
//! use orscope_netsim::{Context, Datagram, Endpoint, SimNet, SimTime};
//! use std::net::Ipv4Addr;
//!
//! struct Echo;
//! impl Endpoint for Echo {
//!     fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
//!         ctx.send(dgram.reply(dgram.payload.clone()));
//!     }
//! }
//!
//! struct Client { got: bool }
//! impl Endpoint for Client {
//!     fn handle_datagram(&mut self, _dgram: &Datagram, _ctx: &mut Context<'_>) {
//!         self.got = true;
//!     }
//!     fn handle_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
//!         ctx.send(Datagram::new(
//!             (ctx.local_addr(), 5000),
//!             (Ipv4Addr::new(9, 9, 9, 9), 53),
//!             b"ping".to_vec(),
//!         ));
//!     }
//! }
//!
//! let mut net = SimNet::builder().seed(7).build();
//! net.register(Ipv4Addr::new(9, 9, 9, 9), Echo);
//! net.register(Ipv4Addr::new(1, 2, 3, 4), Client { got: false });
//! net.set_timer_for(Ipv4Addr::new(1, 2, 3, 4), SimTime::ZERO, 0);
//! net.run_until_idle();
//! assert!(net.stats().delivered >= 2);
//! ```

pub mod datagram;
pub mod endpoint;
pub mod fault;
pub mod fxhash;
pub mod latency;
mod scheduler;
pub(crate) mod sim;
pub mod stats;
pub mod time;

pub use datagram::{Datagram, Payload};
pub use endpoint::{Context, Endpoint};
pub use fault::{FaultKind, FaultPlan, FaultRule, FaultScope};
pub use fxhash::{fx_map_with_capacity, fx_set_with_capacity, FxHashMap, FxHashSet};
pub use latency::{FixedLatency, HashLatency, LatencyModel};
pub use sim::{Coverage, LazyRegistry, SimNet, SimNetBuilder};
pub use stats::NetStats;
pub use time::{EpochClock, SimTime};
