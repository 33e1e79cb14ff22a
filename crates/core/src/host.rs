//! The closed set of hosts a campaign shard simulates.

use orscope_authns::{AuthoritativeServer, DelegationServer};
use orscope_netsim::{Context, Datagram, Endpoint};
use orscope_prober::Prober;
use orscope_resolver::ProfiledResolver;

/// Every host of Fig. 1: the open resolvers, the authoritative server,
/// the root and TLD servers, and the prober. A shard's simulator holds
/// these, so dispatch and reading a host's books back are a `match`.
/// Each variant is boxed, so a slab slot stays the two words a boxed
/// endpoint took, and dispatch moves those, not a resolver.
pub(crate) enum Host {
    Resolver(Box<ProfiledResolver>),
    Auth(Box<AuthoritativeServer>),
    Delegation(Box<DelegationServer>),
    Prober(Box<Prober>),
}

const _: () = assert!(std::mem::size_of::<Option<Host>>() == 16);

/// Evaluates `$call` on whichever host `$host` holds, bound as `$each`.
macro_rules! each {
    ($host:expr, $each:ident => $call:expr) => {
        match $host {
            Host::Resolver($each) => $call,
            Host::Auth($each) => $call,
            Host::Delegation($each) => $call,
            Host::Prober($each) => $call,
        }
    };
}

impl Endpoint for Host {
    fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
        each!(self, host => host.handle_datagram(dgram, ctx))
    }

    fn handle_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        each!(self, host => host.handle_timer(token, ctx))
    }

    fn is_quiescent(&self) -> bool {
        each!(self, host => host.is_quiescent())
    }
}
