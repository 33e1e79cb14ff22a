//! The resolver's TTL-aware record cache.

use std::collections::VecDeque;

use orscope_dns_wire::{Name, Record, RecordType};
use orscope_netsim::{FxHashMap, SimTime};

/// Cache key: owner name + record type.
type Key = (Name, u16);

#[derive(Debug, Clone)]
struct Entry {
    records: Vec<Record>,
    /// Absolute expiry (insertion time + minimum TTL of the set).
    expires: SimTime,
}

/// A capacity-bounded, TTL-aware DNS record cache with FIFO eviction.
///
/// The probing methodology generates a *unique* qname per target exactly
/// so that this cache can never satisfy a probe query — a property the
/// integration tests verify. The cache still matters: honest resolvers
/// cache referral infrastructure (root/TLD/auth NS addresses), which is
/// what keeps a 3.7-billion-probe scan from melting the upper hierarchy.
///
/// # Example
///
/// ```
/// use orscope_resolver::DnsCache;
/// use orscope_dns_wire::{Name, RData, Record, RecordType};
/// use orscope_netsim::SimTime;
/// use std::net::Ipv4Addr;
///
/// let mut cache = DnsCache::new(128);
/// let name: Name = "ns1.example.net".parse()?;
/// let rec = Record::in_class(name.clone(), 60, RData::A(Ipv4Addr::new(1, 2, 3, 4)));
/// cache.insert(SimTime::ZERO, vec![rec]);
/// assert!(cache.get(&name, RecordType::A, SimTime::from_secs(59)).is_some());
/// assert!(cache.get(&name, RecordType::A, SimTime::from_secs(61)).is_none());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DnsCache {
    entries: FxHashMap<Key, Entry>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<Key>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl DnsCache {
    /// Creates a cache holding at most `capacity` record sets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            entries: FxHashMap::default(),
            order: VecDeque::new(),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Inserts a record set observed at `now`; all records must share an
    /// owner/type (the caller groups them). Empty sets are ignored.
    pub fn insert(&mut self, now: SimTime, records: Vec<Record>) {
        let Some(first) = records.first() else {
            return;
        };
        let ttl = records.iter().map(Record::ttl).min().unwrap_or(0);
        let key = (first.name().clone(), first.rtype().to_u16());
        let expires = now + std::time::Duration::from_secs(ttl as u64);
        if self
            .entries
            .insert(key.clone(), Entry { records, expires })
            .is_none()
        {
            self.order.push_back(key);
            while self.entries.len() > self.capacity {
                if let Some(oldest) = self.order.pop_front() {
                    self.entries.remove(&oldest);
                }
            }
        }
    }

    /// Returns unexpired records for `name`/`rtype`, with TTLs counted
    /// down to the remaining lifetime.
    pub fn get(&mut self, name: &Name, rtype: RecordType, now: SimTime) -> Option<Vec<Record>> {
        // The scan's unique qnames meet an empty cache on every Q1:
        // miss without building a 72-byte key to hash.
        if self.entries.is_empty() {
            self.misses += 1;
            return None;
        }
        let key = (name.clone(), rtype.to_u16());
        match self.entries.get(&key) {
            Some(entry) if entry.expires > now => {
                self.hits += 1;
                let remaining = (entry.expires - now).as_secs() as u32;
                let records = entry
                    .records
                    .iter()
                    .map(|r| {
                        let mut r = r.clone();
                        r.set_ttl(remaining.min(r.ttl()));
                        r
                    })
                    .collect();
                Some(records)
            }
            Some(_) => {
                // Expired: drop lazily.
                self.entries.remove(&key);
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Forgets every record set and zeroes the hit/miss counters,
    /// keeping the tables' allocations: the cache [`DnsCache::new`]
    /// would build, for a resolver being re-armed.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.hits = 0;
        self.misses = 0;
    }

    /// Number of live (possibly expired-but-unswept) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cache hits served.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses (including expired evictions).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orscope_dns_wire::RData;
    use std::net::Ipv4Addr;

    fn rec(name: &str, ttl: u32, last_octet: u8) -> Record {
        Record::in_class(
            name.parse().unwrap(),
            ttl,
            RData::A(Ipv4Addr::new(10, 0, 0, last_octet)),
        )
    }

    #[test]
    fn hit_before_expiry_miss_after() {
        let mut cache = DnsCache::new(4);
        cache.insert(SimTime::ZERO, vec![rec("a.example", 30, 1)]);
        let name: Name = "a.example".parse().unwrap();
        assert!(cache
            .get(&name, RecordType::A, SimTime::from_secs(29))
            .is_some());
        assert!(cache
            .get(&name, RecordType::A, SimTime::from_secs(30))
            .is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn ttl_counts_down() {
        let mut cache = DnsCache::new(4);
        cache.insert(SimTime::ZERO, vec![rec("a.example", 100, 1)]);
        let name: Name = "a.example".parse().unwrap();
        let got = cache
            .get(&name, RecordType::A, SimTime::from_secs(40))
            .unwrap();
        assert_eq!(got[0].ttl(), 60);
    }

    #[test]
    fn min_ttl_of_set_governs_expiry() {
        let mut cache = DnsCache::new(4);
        cache.insert(
            SimTime::ZERO,
            vec![rec("a.example", 10, 1), rec("a.example", 100, 2)],
        );
        let name: Name = "a.example".parse().unwrap();
        assert!(cache
            .get(&name, RecordType::A, SimTime::from_secs(11))
            .is_none());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut cache = DnsCache::new(2);
        cache.insert(SimTime::ZERO, vec![rec("a.example", 60, 1)]);
        cache.insert(SimTime::ZERO, vec![rec("b.example", 60, 2)]);
        cache.insert(SimTime::ZERO, vec![rec("c.example", 60, 3)]);
        assert_eq!(cache.len(), 2);
        let a: Name = "a.example".parse().unwrap();
        let c: Name = "c.example".parse().unwrap();
        assert!(cache.get(&a, RecordType::A, SimTime::ZERO).is_none());
        assert!(cache.get(&c, RecordType::A, SimTime::ZERO).is_some());
    }

    #[test]
    fn type_is_part_of_the_key() {
        let mut cache = DnsCache::new(4);
        cache.insert(SimTime::ZERO, vec![rec("a.example", 60, 1)]);
        let name: Name = "a.example".parse().unwrap();
        assert!(cache.get(&name, RecordType::Mx, SimTime::ZERO).is_none());
        assert!(cache.get(&name, RecordType::A, SimTime::ZERO).is_some());
    }

    #[test]
    fn reinsert_refreshes_without_duplicating_order() {
        let mut cache = DnsCache::new(2);
        cache.insert(SimTime::ZERO, vec![rec("a.example", 10, 1)]);
        cache.insert(SimTime::from_secs(5), vec![rec("a.example", 10, 1)]);
        let name: Name = "a.example".parse().unwrap();
        // Refreshed at t=5 with ttl 10 -> expires t=15.
        assert!(cache
            .get(&name, RecordType::A, SimTime::from_secs(14))
            .is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn empty_insert_is_noop() {
        let mut cache = DnsCache::new(2);
        cache.insert(SimTime::ZERO, vec![]);
        assert!(cache.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = DnsCache::new(0);
    }
}
