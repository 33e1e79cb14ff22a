//! Population discovery as a stream of membership updates.
//!
//! A batch [`Campaign`](orscope_core::Campaign) takes its population as
//! a construction-time value; a long-running observatory cannot,
//! because the open-resolver population *churns* — endpoints join,
//! leave, and drift across behavior profiles over virtual days. This
//! module models membership the way service-discovery layers do
//! (linkerd2-proxy's `proxy/resolve.rs` `Resolve`/`Update {Stack,
//! Remove}` pair is the blueprint): a [`Resolve`] implementation turns
//! a population description into a [`Resolution`], and the resolution
//! yields a batch of [`Update`]s per epoch that the epoch scheduler
//! applies to its membership table before each campaign round.
//!
//! The stream is *pull-based and epoch-granular* rather than
//! future-based: the simulator owns time, so "when does the next update
//! arrive" is a property of the virtual calendar, not of an executor.

use std::net::Ipv4Addr;

use orscope_resolver::population::{Population, PopulationConfig};

/// One membership event in the scanned population, in ids into the
/// table of [`Resolution::seed_population`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// A new endpoint joined (port 53 opened, device deployed).
    Add {
        /// The endpoint's address.
        addr: Ipv4Addr,
        /// Its profile id.
        profile: u32,
        /// Its country id, mostly [`orscope_resolver::COUNTRY_NONE`].
        country: u16,
    },
    /// An endpoint left (port closed, host gone, address reassigned).
    Remove(Ipv4Addr),
    /// An existing endpoint changed behavior profile in place — the
    /// 2013→2018 story (honest forwarding collapsing into NXDOMAIN
    /// walls and redirection) happening one device at a time.
    Drift {
        /// The endpoint whose behavior changed.
        addr: Ipv4Addr,
        /// Its new profile id.
        to: u32,
    },
}

impl Update {
    /// The endpoint this update is about.
    pub fn addr(&self) -> Ipv4Addr {
        match *self {
            Update::Add { addr, .. } | Update::Remove(addr) | Update::Drift { addr, .. } => addr,
        }
    }
}

/// An in-progress discovery: a stream of per-epoch membership updates.
pub trait Resolution {
    /// Pulls the next update of `epoch`'s batch; `None` once the batch
    /// is drained (repeat calls for the same epoch keep returning
    /// `None`). Epochs must be polled in order, each drained before the
    /// next begins; epoch 0 delivers the initial population as `Add`s.
    fn poll_update(&mut self, epoch: u64) -> Option<Update>;

    /// The static, membership-independent skeleton of the population
    /// this stream describes — threat/geo seed lists, off-port
    /// responders, shared forwarder upstreams — with `resolvers` empty.
    /// The profile and country ids in every [`Update`] index its
    /// `table`. The epoch scheduler grafts the current membership into a
    /// clone of this, which shares that table, to build each round's
    /// concrete [`Population`].
    fn seed_population(&self) -> Population;
}

/// Population discovery: turns a population description into an update
/// stream the epoch scheduler consumes.
pub trait Resolve {
    /// The stream type this resolver produces.
    type Resolution: Resolution;

    /// Begins discovery for the population `target` describes.
    fn resolve(&self, target: &PopulationConfig) -> Self::Resolution;
}

#[cfg(test)]
mod tests {
    use super::*;
    use orscope_resolver::paper::Year;

    /// A scripted resolution: fixed batches, for scheduler tests.
    struct Scripted {
        batches: Vec<Vec<Update>>,
    }

    impl Resolution for Scripted {
        fn poll_update(&mut self, epoch: u64) -> Option<Update> {
            self.batches.get_mut(epoch as usize).and_then(|batch| {
                if batch.is_empty() {
                    None
                } else {
                    Some(batch.remove(0))
                }
            })
        }

        fn seed_population(&self) -> Population {
            use orscope_resolver::population::HostList;
            use orscope_resolver::ProfileTable;
            Population {
                year: Year::Y2018,
                scale: 1_000.0,
                resolvers: HostList::default(),
                malicious_answers: Vec::new(),
                answer_orgs: Vec::new(),
                off_port: HostList::default(),
                upstreams: HostList::default(),
                table: std::sync::Arc::new(ProfileTable::new()),
            }
        }
    }

    struct ScriptedResolve;

    impl Resolve for ScriptedResolve {
        type Resolution = Scripted;

        fn resolve(&self, _target: &PopulationConfig) -> Scripted {
            Scripted {
                batches: vec![vec![Update::Remove(Ipv4Addr::new(1, 2, 3, 4))], Vec::new()],
            }
        }
    }

    #[test]
    fn scripted_resolution_drains_per_epoch() {
        let mut res = ScriptedResolve.resolve(&PopulationConfig::new(Year::Y2018, 1_000.0));
        assert!(matches!(res.poll_update(0), Some(Update::Remove(_))));
        assert_eq!(res.poll_update(0), None);
        assert_eq!(res.poll_update(1), None);
        assert_eq!(res.poll_update(7), None, "past the script: drained");
    }
}
