//! Profile interning: the compact half of paper-scale populations.
//!
//! `Population::generate` draws every host's behavior from a small
//! number of calibrated year-spec cells, so a full-scale population of
//! millions of responders contains only a few hundred *distinct*
//! [`ResponsePolicy`] values. A [`ProfileTable`] stores each distinct
//! policy exactly once behind an `Arc` and hands out dense `u32` ids; a planned responder is then a
//! packed IPv4 address plus a profile id plus a country id — a few
//! bytes of struct-of-arrays storage instead of an owned policy with
//! its heap-allocated URLs and strings (see
//! [`crate::population::HostList`]).
//!
//! The `Arc` is deliberate: lazily materialized resolver endpoints
//! share the interned policy instead of cloning it, so materializing a
//! host on first packet delivery allocates no policy state at all.

use std::sync::Arc;

use orscope_netsim::fxhash::FxHashMap;

use crate::profile::ResponsePolicy;

/// Dense index of a policy in a [`ProfileTable`].
pub(crate) type ProfileId = u32;

/// Country id marking "no country assigned".
pub const COUNTRY_NONE: u16 = u16::MAX;

/// An interning table over [`ResponsePolicy`] values (and the static
/// country labels that ride along with them).
///
/// Ids are assigned in first-intern order, so identically generated
/// populations produce identical tables. The sharding and observatory
/// layers exchange bare ids into one shared table: every shard reads
/// its campaign's, and the observatory's churn updates, membership and
/// rounds all index its pool's.
#[derive(Debug, Clone, Default)]
pub struct ProfileTable {
    profiles: Vec<Arc<ResponsePolicy>>,
    index: FxHashMap<Arc<ResponsePolicy>, ProfileId>,
    countries: Vec<&'static str>,
    country_index: FxHashMap<&'static str, u16>,
}

impl ProfileTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id of `policy`, interning it on first sight.
    pub fn intern(&mut self, policy: ResponsePolicy) -> ProfileId {
        // `Arc<T>: Borrow<T>` lets the owned-key map answer a
        // borrowed-key lookup, so the hit path clones nothing.
        if let Some(&id) = self.index.get(&policy) {
            return id;
        }
        let id = ProfileId::try_from(self.profiles.len()).expect("profile table full");
        let shared = Arc::new(policy);
        self.profiles.push(Arc::clone(&shared));
        self.index.insert(shared, id);
        id
    }

    /// The id of `policy` if it is already interned.
    pub fn lookup(&self, policy: &ResponsePolicy) -> Option<ProfileId> {
        self.index.get(policy).copied()
    }

    /// The interned policy for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn get(&self, id: ProfileId) -> &Arc<ResponsePolicy> {
        &self.profiles[id as usize]
    }

    /// Number of distinct interned policies.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether no policy has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Interns a country label, mapping `None` to [`COUNTRY_NONE`].
    pub fn intern_country(&mut self, country: Option<&'static str>) -> u16 {
        let Some(country) = country else {
            return COUNTRY_NONE;
        };
        if let Some(&id) = self.country_index.get(country) {
            return id;
        }
        let id = u16::try_from(self.countries.len()).expect("country table full");
        assert!(id != COUNTRY_NONE, "country table full");
        self.countries.push(country);
        self.country_index.insert(country, id);
        id
    }

    /// The country label for `id` ([`COUNTRY_NONE`] maps back to
    /// `None`).
    pub fn country(&self, id: u16) -> Option<&'static str> {
        if id == COUNTRY_NONE {
            None
        } else {
            Some(self.countries[id as usize])
        }
    }
}
