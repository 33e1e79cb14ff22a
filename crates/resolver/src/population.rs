//! Turning the paper specification into a concrete, scaled population.
//!
//! [`Population::generate`] produces the full list of probed hosts that
//! will respond during a campaign: each gets an address scattered over
//! the probeable IPv4 space and a [`ResponsePolicy`] drawn from the
//! year's calibrated cells. At `scale == 1.0` the population reproduces
//! the paper's tables exactly; at larger scales every cell is reduced by
//! the largest-remainder method so marginals stay consistent.
//!
//! Hosts are stored struct-of-arrays in a [`HostList`] — packed address
//! and interned profile id in address order, a generation-order
//! permutation over them, the rare country in a side table — so the
//! full-scale population of ~6.5M responders costs ~13.5 bytes a host,
//! its address index included, instead of an owned [`ResponsePolicy`]
//! each. Consumers iterate [`HostRef`]s, which borrow
//! the shared [`ProfileTable`]. Code that tracks individual hosts
//! (churn, the observatory's membership) holds the same ids a
//! [`HostList`] does — [`HostList::profile_id`] and
//! [`HostList::country_id`] — against the table they index.

use std::net::Ipv4Addr;
use std::sync::Arc;

use orscope_dns_wire::Rcode;
use orscope_ipspace::AllowedSpace;
use orscope_ipspace::ScanPermutation;
use orscope_lookup::threatintel::Category;
use orscope_netsim::fxhash::{fx_set_with_capacity, FxHashMap, FxHashSet};

use crate::intern::{ProfileId, ProfileTable, COUNTRY_NONE};
use crate::paper::{AnswerClass, IncorrectPool, Year, YearSpec};
use crate::profile::{
    AnswerData, ImmediateResponse, RecursePolicy, ResponseAction, ResponsePolicy,
};
use crate::scaling::{apportion, scale_counts};

/// Configuration for population generation.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationConfig {
    /// Which scan to reproduce.
    pub year: Year,
    /// Down-scaling factor (1.0 = full paper scale, 1000.0 = 1:1000).
    pub scale: f64,
    /// Seed for address scattering and value synthesis.
    pub seed: u64,
    /// Addresses that must never be assigned to a responder (the
    /// prober, root, TLD and authoritative servers).
    pub reserved_hosts: Vec<Ipv4Addr>,
    /// Extra responders that answer from a non-53 source port and are
    /// therefore invisible to the ZMap-style prober (§V blind spot).
    pub off_port_responders: u64,
    /// Fraction of the standard-conforming correct resolvers that are
    /// actually CPE forwarders relaying to shared upstream resolvers
    /// (the proxy population Schomp et al. distinguish). The upstreams
    /// are extra, unprobed hosts returned in [`Population::upstreams`].
    pub forwarder_fraction: f64,
}

impl PopulationConfig {
    /// A config for `year` at `scale` with the default seed.
    pub fn new(year: Year, scale: f64) -> Self {
        Self {
            year,
            scale,
            seed: 0x0525_2019, // DSN'19
            reserved_hosts: Vec::new(),
            off_port_responders: 0,
            forwarder_fraction: 0.0,
        }
    }
}

/// Storage for planned hosts, each held once: its packed IPv4 address
/// and interned profile id as two columns in address order, and a
/// generation-order permutation over them — 12 bytes a host. The few
/// hosts that carry a country (malicious responders, under half a
/// percent of a population) keep it in a side table.
///
/// A host is named by its generation index `i`, the order it was
/// planned in: [`HostList::addr`], [`HostList::profile_id`] and every
/// other index-based accessor read through the permutation, so the
/// numbering the scan plan, shard placement and churn use is the
/// generation order whatever the storage order is. The address column
/// is what [`HostList::find`] searches: a directory over its high bits
/// behind a one-bit-a-slot filter, one to two bytes a host more. An
/// address planned twice is held twice, in generation order, and `find`
/// answers with the first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostList {
    /// Packed addresses, ascending.
    addrs: Vec<u32>,
    /// `profiles[k]` is the profile of the host at `addrs[k]`.
    profiles: Vec<ProfileId>,
    /// `order[i]` is where generation index `i` sits in the columns.
    order: Vec<u32>,
    /// `(generation index, country id)` of every host with a country,
    /// by index.
    countries: Vec<(u32, u16)>,
    /// Membership over `addrs`.
    index: AddrIndex,
}

impl Default for HostList {
    fn default() -> Self {
        Self::from_parts(Vec::new(), Vec::new(), Vec::new())
    }
}

impl FromIterator<(Ipv4Addr, ProfileId, u16)> for HostList {
    /// Stores `(address, profile, country id)` hosts given in generation
    /// order; a country of [`COUNTRY_NONE`] takes no room.
    fn from_iter<I: IntoIterator<Item = (Ipv4Addr, ProfileId, u16)>>(hosts: I) -> Self {
        let hosts = hosts.into_iter();
        let mut keys = Vec::with_capacity(hosts.size_hint().0);
        let mut profiles = Vec::with_capacity(hosts.size_hint().0);
        let mut countries = Vec::new();
        for (i, (addr, profile, country)) in hosts.enumerate() {
            let i = u32::try_from(i).expect("a host list holds fewer than 2^32 hosts");
            keys.push(sort_key(addr, i));
            profiles.push(profile);
            if country != COUNTRY_NONE {
                countries.push((i, country));
            }
        }
        Self::from_parts(keys, profiles, countries)
    }
}

/// A host's place in address order: its address, then its generation
/// index `i`, which is what the low half keeps.
fn sort_key(addr: Ipv4Addr, i: u32) -> u64 {
    u64::from(u32::from(addr)) << 32 | u64::from(i)
}

impl HostList {
    /// Sorts hosts into storage. Host `i` is at `keys[i]` (see
    /// [`sort_key`]) with profile `profiles[i]`; `countries` is by
    /// index. The columns are built one at a time and each input is
    /// dropped once read, so the most held at once is 20 bytes a host.
    fn from_parts(
        mut keys: Vec<u64>,
        profiles: Vec<ProfileId>,
        countries: Vec<(u32, u16)>,
    ) -> Self {
        debug_assert_eq!(keys.len(), profiles.len());
        keys.sort_unstable();
        let mut order = vec![0u32; keys.len()];
        let addrs: Vec<u32> = (0u32..)
            .zip(&keys)
            .map(|(k, &key)| {
                order[key as u32 as usize] = k;
                (key >> 32) as u32
            })
            .collect();
        drop(keys);
        let mut sorted = vec![0; profiles.len()];
        for (&k, profile) in order.iter().zip(profiles) {
            sorted[k as usize] = profile;
        }
        Self {
            index: AddrIndex::new(&addrs),
            addrs,
            profiles: sorted,
            order,
            countries,
        }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Where host `i` sits in the columns.
    fn slot(&self, i: usize) -> usize {
        self.order[i] as usize
    }

    /// The address of host `i`.
    pub fn addr(&self, i: usize) -> Ipv4Addr {
        Ipv4Addr::from(self.addrs[self.slot(i)])
    }

    /// The profile id of host `i`.
    pub fn profile_id(&self, i: usize) -> ProfileId {
        self.profiles[self.slot(i)]
    }

    /// The country id of host `i` ([`COUNTRY_NONE`] for most hosts).
    pub fn country_id(&self, i: usize) -> u16 {
        let i = i as u32;
        self.countries
            .binary_search_by_key(&i, |&(index, _)| index)
            .map_or(COUNTRY_NONE, |at| self.countries[at].1)
    }

    /// Replaces the profile id of host `i`.
    pub fn set_profile(&mut self, i: usize, profile: ProfileId) {
        let slot = self.slot(i);
        self.profiles[slot] = profile;
    }

    /// Iterates addresses in generation order without touching the
    /// profile table (the shard planner and target builder need
    /// nothing else).
    pub fn addrs(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        (0..self.len()).map(|i| self.addr(i))
    }

    /// Every address held, ascending and each once.
    pub fn distinct_addrs(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.addrs
            .chunk_by(|a, b| a == b)
            .map(|run| Ipv4Addr::from(run[0]))
    }

    /// The profile of the host at `addr` (of the first planned, if two
    /// share it), or `None` where no host is.
    pub fn find(&self, addr: Ipv4Addr) -> Option<ProfileId> {
        let addr = u32::from(addr);
        let range = self.index.bucket(addr)?;
        let start = range.start;
        let bucket = &self.addrs[range];
        let at = bucket.partition_point(|&a| a < addr);
        (bucket.get(at) == Some(&addr)).then(|| self.profiles[start + at])
    }

    /// Whether a host is at `addr`.
    pub(crate) fn contains(&self, addr: Ipv4Addr) -> bool {
        self.find(addr).is_some()
    }

    /// The host at `i`, resolved against `table`.
    pub fn get<'a>(&self, i: usize, table: &'a ProfileTable) -> HostRef<'a> {
        HostRef {
            addr: self.addr(i),
            policy: table.get(self.profile_id(i)),
            country: table.country(self.country_id(i)),
        }
    }

    /// Iterates `(address, profile id, country id)` in generation
    /// order: what collecting builds a list from.
    pub fn iter_ids(&self) -> impl Iterator<Item = (Ipv4Addr, ProfileId, u16)> + '_ {
        let mut countries = self.countries.iter().peekable();
        self.order.iter().enumerate().map(move |(i, &slot)| {
            let country = countries
                .next_if(|&&(index, _)| index as usize == i)
                .map_or(COUNTRY_NONE, |&(_, country)| country);
            let slot = slot as usize;
            (
                Ipv4Addr::from(self.addrs[slot]),
                self.profiles[slot],
                country,
            )
        })
    }

    /// Iterates hosts in generation order, resolved against `table`.
    pub fn iter<'a>(&'a self, table: &'a ProfileTable) -> impl Iterator<Item = HostRef<'a>> + 'a {
        self.iter_ids().map(|(addr, profile, country)| HostRef {
            addr,
            policy: table.get(profile),
            country: table.country(country),
        })
    }
}

/// A first-level directory over the high bits of a sorted address
/// column, behind a one-bit-a-slot filter.
///
/// Every datagram to an unmaterialised address looks its destination up
/// here, silent targets included, and so does every silent slot of the
/// plan's walk; nearly all of them find nothing. The filter (one to two
/// bytes a host: a power of two of at least eight bits a host) has the
/// bit a Fibonacci hash of each host's address picks set, so a clear bit
/// answers "no host here" from one load, and only real hosts and the
/// one miss in eight to sixteen whose bit a host set go on. For those,
/// the directory (at most one byte a host) narrows the search to the
/// handful of hosts sharing the address's top bits: one line of the
/// directory, one or two of the column. A plain binary search over the
/// whole column is ~16 dependent loads spread across it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AddrIndex {
    /// Bit `h` is set when a host's address hashes to `h`.
    filter: Vec<u64>,
    /// `64 - log2(filter bits)`: what the hash drops.
    filter_shift: u32,
    /// `directory[b]..directory[b + 1]` bounds the hosts whose address
    /// starts with the bits `b`.
    directory: Vec<u32>,
    /// Address bits below the directory's.
    shift: u32,
}

impl AddrIndex {
    /// Indexes `addrs`, which are ascending.
    fn new(addrs: &[u32]) -> Self {
        // Four hosts a bucket on average: 4 B of directory for them.
        let bits = (addrs.len() / 4).max(1).ilog2().min(24);
        let shift = 32 - bits;
        let mut directory = vec![0u32; (1usize << bits) + 1];
        for &addr in addrs {
            directory[Self::bucket_of(addr, shift) + 1] += 1;
        }
        for bucket in 1..directory.len() {
            directory[bucket] += directory[bucket - 1];
        }
        let filter_bits = (8 * addrs.len()).next_power_of_two().max(64);
        let filter_shift = 64 - filter_bits.ilog2();
        let mut filter = vec![0u64; filter_bits / 64];
        for &addr in addrs {
            let bit = Self::filter_bit(addr, filter_shift);
            filter[bit / 64] |= 1 << (bit % 64);
        }
        Self {
            filter,
            filter_shift,
            directory,
            shift,
        }
    }

    /// Fibonacci hashing: the top bits of the address times 2^64 / φ.
    fn filter_bit(addr: u32, filter_shift: u32) -> usize {
        (u64::from(addr).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> filter_shift) as usize
    }

    /// False only where no host is.
    fn may_hold(&self, addr: u32) -> bool {
        let bit = Self::filter_bit(addr, self.filter_shift);
        self.filter[bit / 64] >> (bit % 64) & 1 == 1
    }

    /// Widened first: with a one-bucket directory the shift is all 32 bits.
    fn bucket_of(addr: u32, shift: u32) -> usize {
        (u64::from(addr) >> shift) as usize
    }

    /// The slots of the column that hold `addr` if any host does, or
    /// `None` where the filter rules it out.
    fn bucket(&self, addr: u32) -> Option<std::ops::Range<usize>> {
        if !self.may_hold(addr) {
            return None;
        }
        let bucket = Self::bucket_of(addr, self.shift);
        Some(self.directory[bucket] as usize..self.directory[bucket + 1] as usize)
    }
}

/// A borrowed view of one planned host: the compact record resolved
/// against its [`ProfileTable`].
#[derive(Debug, Clone, Copy)]
pub struct HostRef<'a> {
    /// The host's address in the probeable space.
    pub addr: Ipv4Addr,
    /// Its behaviour, shared with every other host of the same profile.
    pub policy: &'a Arc<ResponsePolicy>,
    /// Country tag for malicious responders (drives the geolocation
    /// analysis of §IV-C2); `None` for everything else.
    pub country: Option<&'static str>,
}

/// A unique malicious answer address with its category and packet count,
/// used to seed the threat-intelligence database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaliciousAnswer {
    /// The reported address.
    pub ip: Ipv4Addr,
    /// Its dominant category.
    pub category: Category,
    /// R2 packets that will carry it.
    pub r2: u64,
}

/// The generated population.
#[derive(Debug, Clone)]
pub struct Population {
    /// Which scan this models.
    pub year: Year,
    /// The scale it was generated at.
    pub scale: f64,
    /// Every responding host (compact; iterate via
    /// [`Population::resolvers`]).
    pub resolvers: HostList,
    /// Unique malicious answer addresses (seed data for the threat DB).
    pub malicious_answers: Vec<MaliciousAnswer>,
    /// Org-name seed data for the geolocation DB (Table VIII orgs).
    pub answer_orgs: Vec<(Ipv4Addr, &'static str)>,
    /// Off-port (blind-spot) responders, not counted in R2.
    pub off_port: HostList,
    /// Shared upstream recursive resolvers serving the forwarder
    /// population; registered on the network but never probed.
    pub upstreams: HostList,
    /// The interned profile/country table all three lists resolve
    /// against; every shard's host registry shares it (not a copy).
    pub table: Arc<ProfileTable>,
}

/// One host of a [`Population`]: a list and an index into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Member {
    /// The `i`-th planned resolver.
    Resolver(usize),
    /// The `i`-th off-port responder.
    OffPort(usize),
    /// The `i`-th forwarder upstream.
    Upstream(usize),
}

impl Population {
    /// Generates the population for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.scale <= 0`.
    pub fn generate(config: &PopulationConfig) -> Population {
        assert!(config.scale > 0.0, "scale must be positive");
        let spec = YearSpec::get(config.year);
        // The addresses the rank walk of step 4 must step over: the
        // reserved hosts and the synthesized answer values. The walk
        // never repeats a rank, so the hosts it places need no entry.
        let mut used: FxHashSet<Ipv4Addr> = fx_set_with_capacity(config.reserved_hosts.len() + 64);
        used.extend(config.reserved_hosts.iter().copied());

        // ---- 1. Scale every atom with one largest-remainder pass ----
        let scaled = scale_counts(&atoms(&spec), config.scale);
        let expected_hosts = scaled.iter().sum::<u64>() as usize;
        let (cell_counts, rest) = scaled.split_at(spec.flag_cells.len());
        let (slice_counts, eq_counts) = rest.split_at(spec.incorrect.slices.len());

        // ---- 2. Build the answer-value pools ----
        let mut synth = ValueSynth::new(config.seed, &spec, &mut used);
        let mal_total: u64 = spec
            .incorrect
            .slices
            .iter()
            .zip(slice_counts)
            .filter(|(s, _)| s.pool == IncorrectPool::Malicious)
            .map(|(_, &n)| n)
            .sum();
        let benign_total: u64 = spec
            .incorrect
            .slices
            .iter()
            .zip(slice_counts)
            .filter(|(s, _)| s.pool == IncorrectPool::BenignIp)
            .map(|(_, &n)| n)
            .sum();
        let url_total: u64 = spec
            .incorrect
            .slices
            .iter()
            .zip(slice_counts)
            .filter(|(s, _)| s.pool == IncorrectPool::Url)
            .map(|(_, &n)| n)
            .sum();
        let str_total: u64 = spec
            .incorrect
            .slices
            .iter()
            .zip(slice_counts)
            .filter(|(s, _)| s.pool == IncorrectPool::Str)
            .map(|(_, &n)| n)
            .sum();
        let (mut mal_values, malicious_answers) = synth.malicious_pool(mal_total, config.scale);
        let mut benign_values = synth.benign_pool(benign_total, config.scale);
        let mut url_values = synth.url_pool(url_total, config.scale);
        let mut str_values = synth.str_pool(str_total, config.scale);

        // ---- 3. Expand cells into interned policies ----
        // Each planned host is a profile id, the few malicious ones also
        // a country id by index; owned policy values live once in the
        // working table. Ids are compacted to first-use order in step 5.
        let mut table = ProfileTable::new();
        let mut planned: Vec<ProfileId> = Vec::with_capacity(expected_hosts);
        let mut countries: Vec<(u32, u16)> = Vec::new();
        // Correct/None cells.
        let n_correct_scaled: u64 = spec
            .flag_cells
            .iter()
            .zip(cell_counts)
            .filter(|(c, _)| c.answer == AnswerClass::Correct)
            .map(|(_, &n)| n)
            .sum();
        let extra_budget = (spec.auth_dup_extra_fraction * n_correct_scaled as f64).round() as u64;
        let mut correct_seen = 0u64;
        let mut extras_given = 0u64;
        for (cell, &n) in spec.flag_cells.iter().zip(cell_counts) {
            for _ in 0..n {
                let policy = match cell.answer {
                    AnswerClass::Correct => {
                        // Spread the +1 duplicates evenly over the
                        // correct population.
                        correct_seen += 1;
                        let due =
                            (spec.auth_dup_extra_fraction * correct_seen as f64).round() as u64;
                        let dup = if extras_given < due && extras_given < extra_budget {
                            extras_given += 1;
                            spec.auth_dup_base + 1
                        } else {
                            spec.auth_dup_base
                        };
                        ResponsePolicy {
                            action: ResponseAction::Recurse(RecursePolicy {
                                ra: cell.ra,
                                aa: cell.aa,
                                rcode_override: (cell.rcode != Rcode::NoError)
                                    .then_some(cell.rcode),
                                auth_duplicates: dup,
                            }),
                            malicious_category: None,
                        }
                    }
                    _ => ResponsePolicy {
                        action: ResponseAction::Immediate(ImmediateResponse::empty(
                            cell.ra, cell.aa, cell.rcode,
                        )),
                        malicious_category: None,
                    },
                };
                planned.push(table.intern(policy));
            }
        }
        // Incorrect slices, drawing answer values from the pools.
        let mut assigner = CountryAssigner::new(&spec, mal_total);
        for (slice, &n) in spec.incorrect.slices.iter().zip(slice_counts) {
            for _ in 0..n {
                let (answer, category, malformed) = match slice.pool {
                    IncorrectPool::Malicious => {
                        let (ip, cat) = mal_values.pop().expect("malicious pool exhausted");
                        (AnswerData::FixedIp(ip), Some(cat), false)
                    }
                    IncorrectPool::BenignIp => (
                        AnswerData::FixedIp(benign_values.pop().expect("benign pool")),
                        None,
                        false,
                    ),
                    IncorrectPool::Url => (
                        AnswerData::Url(url_values.pop().expect("url pool")),
                        None,
                        false,
                    ),
                    IncorrectPool::Str => (
                        AnswerData::Text(str_values.pop().expect("str pool")),
                        None,
                        false,
                    ),
                    IncorrectPool::Malformed => {
                        (AnswerData::FixedIp(Ipv4Addr::new(0, 0, 0, 0)), None, true)
                    }
                };
                let policy = ResponsePolicy {
                    action: ResponseAction::Immediate(ImmediateResponse {
                        answer: Some(answer),
                        ra: slice.ra,
                        aa: slice.aa,
                        rcode: Rcode::NoError,
                        empty_question: false,
                        src_port: None,
                        malformed_rdata: malformed,
                    }),
                    malicious_category: category,
                };
                let country = category.is_some().then(|| assigner.next()).flatten();
                if country.is_some() {
                    countries.push((planned.len() as u32, table.intern_country(country)));
                }
                planned.push(table.intern(policy));
            }
        }
        // Empty-question responders.
        for (cell, &n) in spec.empty_question.iter().zip(eq_counts) {
            for _ in 0..n {
                let policy = ResponsePolicy {
                    action: ResponseAction::Immediate(ImmediateResponse {
                        answer: cell.answer.clone(),
                        ra: cell.ra,
                        aa: cell.aa,
                        rcode: cell.rcode,
                        empty_question: true,
                        src_port: None,
                        malformed_rdata: false,
                    }),
                    malicious_category: None,
                };
                planned.push(table.intern(policy));
            }
        }

        let mut forwarder_upstream_index: Vec<(usize, usize)> = Vec::new();
        // ---- 3a. Demote a fraction of plain honest resolvers to CPE
        // forwarders behind shared upstream resolvers ----
        // The forwarder policy embeds its upstream's address, which is
        // assigned only in step 4; demoted hosts carry a sentinel id
        // until the patch loop below interns the real Forward policies.
        const FORWARDER_PENDING: ProfileId = ProfileId::MAX;
        let mut n_upstreams = 0usize;
        let mut upstream_profile: Option<ProfileId> = None;
        if config.forwarder_fraction > 0.0 {
            let plain_honest: Vec<usize> = planned
                .iter()
                .enumerate()
                .filter(|&(_, &profile)| {
                    matches!(&table.get(profile).action, ResponseAction::Recurse(rp)
                        if rp.ra && !rp.aa && rp.rcode_override.is_none())
                })
                .map(|(i, _)| i)
                .collect();
            let n_forwarders =
                (plain_honest.len() as f64 * config.forwarder_fraction.clamp(0.0, 1.0)) as usize;
            // One shared upstream per ~500 forwarders, at least one.
            n_upstreams = (n_forwarders.div_ceil(500)).max(usize::from(n_forwarders > 0));
            if n_upstreams > 0 {
                let mut policy = ResponsePolicy::honest();
                if let ResponseAction::Recurse(rp) = &mut policy.action {
                    rp.auth_duplicates = spec.auth_dup_base;
                }
                upstream_profile = Some(table.intern(policy));
            }
            for (k, &idx) in plain_honest.iter().take(n_forwarders).enumerate() {
                planned[idx] = FORWARDER_PENDING;
                forwarder_upstream_index.push((idx, k % n_upstreams));
            }
        }

        // ---- 4. Scatter addresses over the probeable space ----
        let space = AllowedSpace::probeable();
        let mut ranks = ScanPermutation::new(space.len(), config.seed ^ 0xADD2).iter();
        let mut next_addr = || -> Ipv4Addr {
            loop {
                // The probeable space (3.7e9 addresses) fits u32 ranks.
                let rank = ranks.next().expect("address space exhausted") as u64;
                let addr = space.nth(rank).expect("rank in range");
                if !used.contains(&addr) {
                    return addr;
                }
            }
        };
        let hosts = u32::try_from(planned.len()).expect("a population holds fewer than 2^32 hosts");
        let keys = (0..hosts).map(|i| sort_key(next_addr(), i)).collect();
        let mut resolvers = HostList::from_parts(keys, planned, countries);
        let off_port_profile = (config.off_port_responders > 0).then(|| {
            table.intern(ResponsePolicy {
                action: ResponseAction::Immediate(ImmediateResponse {
                    src_port: Some(1024),
                    ..ImmediateResponse::refused()
                }),
                malicious_category: None,
            })
        });
        let mut off_port: HostList = (0..config.off_port_responders)
            .map(|_| {
                let profile = off_port_profile.expect("interned above");
                (next_addr(), profile, COUNTRY_NONE)
            })
            .collect();

        // Upstream hosts get addresses outside the probe population.
        let mut upstreams: HostList = (0..n_upstreams)
            .map(|_| {
                let profile = upstream_profile.expect("interned above");
                (next_addr(), profile, COUNTRY_NONE)
            })
            .collect();
        // Patch the demoted hosts now that upstream addresses exist:
        // one interned Forward policy per upstream.
        let mut forward_profiles: FxHashMap<usize, ProfileId> = FxHashMap::default();
        for (idx, upstream_idx) in forwarder_upstream_index {
            let profile = *forward_profiles.entry(upstream_idx).or_insert_with(|| {
                table.intern(ResponsePolicy::forwarder(upstreams.addr(upstream_idx)))
            });
            resolvers.set_profile(idx, profile);
        }

        // ---- 5. Compact the table to first-use order ----
        // Forwarder demotion orphans intermediate entries (the demoted
        // honest variants), so rebuild the table over the ids actually
        // referenced: the shipped table is then exactly
        // the population's set of distinct policies.
        let mut compact = ProfileTable::new();
        let mut profile_map: Vec<Option<ProfileId>> = vec![None; table.len()];
        remap_hosts(&mut resolvers, &table, &mut compact, &mut profile_map);
        remap_hosts(&mut off_port, &table, &mut compact, &mut profile_map);
        remap_hosts(&mut upstreams, &table, &mut compact, &mut profile_map);

        // Org-name seeds for the geolocation DB.
        let answer_orgs = spec
            .incorrect
            .top_ips
            .iter()
            .map(|t| (t.ip, t.org))
            .collect();

        Population {
            year: config.year,
            scale: config.scale,
            resolvers,
            malicious_answers,
            answer_orgs,
            off_port,
            upstreams,
            table: Arc::new(compact),
        }
    }

    /// Number of planned responders (== expected R2 at this scale).
    pub fn len(&self) -> usize {
        self.resolvers.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.resolvers.is_empty()
    }

    /// The shared profile table all three host lists index into.
    pub fn table(&self) -> &Arc<ProfileTable> {
        &self.table
    }

    /// Iterates the probed resolver population.
    pub fn resolvers(&self) -> impl Iterator<Item = HostRef<'_>> + '_ {
        self.resolvers.iter(&self.table)
    }

    /// Iterates the off-port responders.
    pub fn off_port(&self) -> impl Iterator<Item = HostRef<'_>> + '_ {
        self.off_port.iter(&self.table)
    }

    /// Iterates the forwarder upstream hosts.
    pub fn upstreams(&self) -> impl Iterator<Item = HostRef<'_>> + '_ {
        self.upstreams.iter(&self.table)
    }

    /// The `i`-th planned resolver, resolved against the table.
    pub fn resolver(&self, i: usize) -> HostRef<'_> {
        self.resolvers.get(i, &self.table)
    }

    /// The placement affinity of the `i`-th planned resolver: its own
    /// address, except for forwarders, which follow their upstream so
    /// the forwarder -> upstream relay never crosses a shard boundary.
    pub fn affinity(&self, i: usize) -> Ipv4Addr {
        self.table
            .get(self.resolvers.profile_id(i))
            .upstream_addr()
            .unwrap_or_else(|| self.resolvers.addr(i))
    }

    /// The shard of `shards` that holds `member`: the [`shard_index`] of
    /// a resolver's [`Population::affinity`], and of an off-port
    /// responder's or an upstream's own address. Every shard of a
    /// campaign reads the one population, and this is how each picks
    /// out its own hosts: the probes it sends, the upstreams it
    /// registers and the responders its analysis is sized for.
    pub fn home(&self, member: Member, shards: usize) -> usize {
        if shards == 1 {
            return 0;
        }
        let addr = match member {
            Member::Resolver(i) => self.affinity(i),
            Member::OffPort(i) => self.off_port.addr(i),
            Member::Upstream(i) => self.upstreams.addr(i),
        };
        shard_index(addr, shards)
    }

    /// The probed hosts, in the order the scan plan numbers them:
    /// resolvers, then off-port responders.
    pub fn responders(&self) -> impl Iterator<Item = Member> {
        (0..self.resolvers.len())
            .map(Member::Resolver)
            .chain((0..self.off_port.len()).map(Member::OffPort))
    }

    /// The profile of the probed host at `addr`: a resolver's, else an
    /// off-port responder's. This is how a shard's registry
    /// materializes a host, how the scan plan's silent walk steps over
    /// the hosts, and how a published record learns its class.
    pub fn find(&self, addr: Ipv4Addr) -> Option<ProfileId> {
        self.resolvers
            .find(addr)
            .or_else(|| self.off_port.find(addr))
    }

    /// Every address a probed host is at, once: the resolvers'
    /// ascending, then the off-port responders' that no resolver holds.
    pub fn probed_addrs(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        let off_port = self.off_port.distinct_addrs();
        self.resolvers
            .distinct_addrs()
            .chain(off_port.filter(|&addr| !self.resolvers.contains(addr)))
    }

    /// How many resolvers [`Population::generate`] plans for `year` at
    /// `scale`: the year's responders over the scale, rounded, so none
    /// once the scale leaves less than half of one.
    pub fn planned_resolvers(year: Year, scale: f64) -> u64 {
        let responders: u64 = atoms(&YearSpec::get(year)).iter().sum();
        (responders as f64 / scale).round() as u64
    }
}

/// The year's cells as the one list of counts that scaling divides:
/// flag cells, incorrect-answer slices, empty-question cells.
fn atoms(spec: &YearSpec) -> Vec<u64> {
    let flags = spec.flag_cells.iter().map(|c| c.count);
    let slices = spec.incorrect.slices.iter().map(|s| s.count);
    let empty = spec.empty_question.iter().map(|c| c.count);
    flags.chain(slices).chain(empty).collect()
}

/// The shard that owns `addr` in an `shards`-way partition.
///
/// A multiplicative mix of the address decides ownership, so assignment
/// is uniform, independent of generation or scan order, and identical
/// for every component that needs to agree on placement (population
/// registration, target partitioning, silent fill).
pub fn shard_index(addr: Ipv4Addr, shards: usize) -> usize {
    let mixed = u64::from(u32::from(addr)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((mixed >> 32) % shards as u64) as usize
}

/// Rewrites `hosts` to index into `compact`, interning each profile and
/// country on first use. `profile_map` memoizes old-id -> new-id so the
/// remap touches each distinct profile once, not once per host.
fn remap_hosts(
    hosts: &mut HostList,
    table: &ProfileTable,
    compact: &mut ProfileTable,
    profile_map: &mut [Option<ProfileId>],
) {
    // In generation order, so that first use numbers the compact table
    // as it did when the columns were in that order.
    for &slot in &hosts.order {
        let profile = &mut hosts.profiles[slot as usize];
        let old = *profile as usize;
        *profile = match profile_map[old] {
            Some(new) => new,
            None => {
                let new = compact.intern(ResponsePolicy::clone(table.get(*profile)));
                profile_map[old] = Some(new);
                new
            }
        };
    }
    for (_, country) in &mut hosts.countries {
        *country = compact.intern_country(table.country(*country));
    }
}

/// Deterministic synthesis of answer-value pools.
struct ValueSynth<'a> {
    seed: u64,
    spec: &'a YearSpec,
    used: &'a mut FxHashSet<Ipv4Addr>,
    counter: u64,
}

impl<'a> ValueSynth<'a> {
    fn new(seed: u64, spec: &'a YearSpec, used: &'a mut FxHashSet<Ipv4Addr>) -> Self {
        Self {
            seed,
            spec,
            used,
            counter: 0,
        }
    }

    /// A fresh public unicast address outside the ground-truth range and
    /// all previously issued values.
    fn fresh_public_ip(&mut self) -> Ipv4Addr {
        loop {
            self.counter += 1;
            let mut x = self.counter ^ self.seed.rotate_left(23);
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^= x >> 29;
            let raw = (x as u32) & 0x7FFF_FFFF; // keep below 128/8 for simplicity
            let addr = Ipv4Addr::from(raw | 0x0100_0000); // skip 0/8
            if orscope_ipspace::reserved::is_reserved(u32::from(addr)) {
                continue;
            }
            if orscope_authns::scheme::in_ground_truth_range(addr) {
                continue;
            }
            if self.used.insert(addr) {
                return addr;
            }
        }
    }

    /// Builds the malicious pool: `total` draws (already scaled), as a
    /// stack (callers pop), plus the unique-answer seed list.
    ///
    /// Value order follows Table IX category order; within a category the
    /// explicit top addresses come first, then synthesized tail
    /// addresses.
    fn malicious_pool(
        &mut self,
        total: u64,
        scale: f64,
    ) -> (Vec<(Ipv4Addr, Category)>, Vec<MaliciousAnswer>) {
        let spec = self.spec;
        let per_category = apportion(
            &spec
                .incorrect
                .malicious
                .iter()
                .map(|m| m.r2)
                .collect::<Vec<_>>(),
            total,
        );
        let mut values = Vec::with_capacity(total as usize);
        let mut answers = Vec::new();
        for (cat_spec, &cat_total) in spec.incorrect.malicious.iter().zip(&per_category) {
            if cat_total == 0 {
                continue;
            }
            // Explicit top addresses in this category.
            let tops: Vec<_> = spec
                .incorrect
                .top_ips
                .iter()
                .filter(|t| t.category == Some(cat_spec.category))
                .collect();
            let top_r2: u64 = tops.iter().map(|t| t.count).sum();
            let tail_r2 = cat_spec.r2.saturating_sub(top_r2);
            let tail_unique = cat_spec.unique_ips.saturating_sub(tops.len() as u64);
            // Apportion the scaled category total over [tops..., tail].
            let mut weights: Vec<u64> = tops.iter().map(|t| t.count).collect();
            weights.push(tail_r2);
            let alloc = apportion(&weights, cat_total);
            for (top, &n) in tops.iter().zip(&alloc) {
                if n > 0 {
                    answers.push(MaliciousAnswer {
                        ip: top.ip,
                        category: cat_spec.category,
                        r2: n,
                    });
                    values.extend(std::iter::repeat_n((top.ip, cat_spec.category), n as usize));
                }
            }
            let tail_alloc = alloc[tops.len()];
            if tail_alloc > 0 {
                let uniques = scaled_unique(tail_unique, tail_r2, tail_alloc, scale);
                let per_ip = spread(tail_alloc, uniques);
                for &n in &per_ip {
                    let ip = self.fresh_public_ip();
                    answers.push(MaliciousAnswer {
                        ip,
                        category: cat_spec.category,
                        r2: n,
                    });
                    values.extend(std::iter::repeat_n((ip, cat_spec.category), n as usize));
                }
            }
        }
        debug_assert_eq!(values.len() as u64, total);
        values.reverse(); // stack: first value drawn = first pushed
        (values, answers)
    }

    /// Builds the benign wrong-IP pool: top benign addresses (rank
    /// order), then the long tail.
    fn benign_pool(&mut self, total: u64, scale: f64) -> Vec<Ipv4Addr> {
        let spec = self.spec;
        let tops: Vec<_> = spec
            .incorrect
            .top_ips
            .iter()
            .filter(|t| t.category.is_none())
            .collect();
        let mut weights: Vec<u64> = tops.iter().map(|t| t.count).collect();
        weights.push(spec.incorrect.tail_ip_r2);
        let alloc = apportion(&weights, total);
        let mut values = Vec::with_capacity(total as usize);
        for (top, &n) in tops.iter().zip(&alloc) {
            values.extend(std::iter::repeat_n(top.ip, n as usize));
        }
        let tail_alloc = alloc[tops.len()];
        if tail_alloc > 0 {
            let uniques = scaled_unique(
                spec.incorrect.tail_ip_unique,
                spec.incorrect.tail_ip_r2,
                tail_alloc,
                scale,
            );
            for &n in &spread(tail_alloc, uniques) {
                let ip = self.fresh_public_ip();
                values.extend(std::iter::repeat_n(ip, n as usize));
            }
        }
        debug_assert_eq!(values.len() as u64, total);
        values.reverse();
        values
    }

    /// Builds the URL pool (e.g. `u.dcoin.co`-style redirect hosts).
    fn url_pool(&mut self, total: u64, scale: f64) -> Vec<String> {
        let spec = self.spec;
        let uniques = scaled_unique(
            spec.incorrect.url_unique,
            spec.incorrect.url_r2,
            total,
            scale,
        );
        let mut values = Vec::with_capacity(total as usize);
        for (i, &n) in spread(total, uniques).iter().enumerate() {
            let host = format!("u{i}.dcoin{}.co", i % 7);
            values.extend(std::iter::repeat_n(host, n as usize));
        }
        values.reverse();
        values
    }

    /// Builds the string pool (`wild`, `OK`, `ff`, ...).
    fn str_pool(&mut self, total: u64, scale: f64) -> Vec<String> {
        const SAMPLES: [&str; 6] = ["wild", "ff", "OK", "04b400000000", "null", "localhost"];
        let spec = self.spec;
        let uniques = scaled_unique(
            spec.incorrect.string_unique,
            spec.incorrect.string_r2,
            total,
            scale,
        );
        let mut values = Vec::with_capacity(total as usize);
        for (i, &n) in spread(total, uniques).iter().enumerate() {
            let s = if i < SAMPLES.len() {
                SAMPLES[i].to_owned()
            } else {
                format!("str{i:04x}")
            };
            values.extend(std::iter::repeat_n(s, n as usize));
        }
        values.reverse();
        values
    }
}

/// How many unique values a scaled pool should contain: proportional to
/// the unscaled uniques, at least 1 when any draws remain, and never more
/// than the number of draws.
fn scaled_unique(unique: u64, r2: u64, scaled_total: u64, scale: f64) -> u64 {
    if scaled_total == 0 || unique == 0 || r2 == 0 {
        return 0;
    }
    ((unique as f64 / scale).round() as u64).clamp(1, scaled_total)
}

/// Distributes `total` draws over `uniques` values, first values heavier.
fn spread(total: u64, uniques: u64) -> Vec<u64> {
    if uniques == 0 {
        return Vec::new();
    }
    let base = total / uniques;
    let extra = (total % uniques) as usize;
    (0..uniques as usize)
        .map(|i| base + u64::from(i < extra))
        .collect()
}

/// Assigns countries to malicious resolvers per the §IV-C2 distribution.
struct CountryAssigner {
    /// Remaining `(country, count)` pairs, consumed front to back.
    queue: std::collections::VecDeque<(&'static str, u64)>,
}

impl CountryAssigner {
    fn new(spec: &YearSpec, scaled_malicious_total: u64) -> Self {
        let counts: Vec<u64> = spec.countries.iter().map(|c| c.1).collect();
        let scaled = apportion(&counts, scaled_malicious_total);
        let queue = spec
            .countries
            .iter()
            .zip(scaled)
            .filter(|(_, n)| *n > 0)
            .map(|(&(code, _), n)| (code, n))
            .collect();
        Self { queue }
    }

    fn next(&mut self) -> Option<&'static str> {
        let front = self.queue.front_mut()?;
        let code = front.0;
        front.1 -= 1;
        if front.1 == 0 {
            self.queue.pop_front();
        }
        Some(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::Year;
    use std::collections::HashSet;

    impl Population {
        /// Counts resolvers matching a predicate.
        pub(crate) fn count_by(&self, pred: impl Fn(HostRef<'_>) -> bool) -> u64 {
            self.resolvers
                .iter(&self.table)
                .filter(|r| pred(*r))
                .count() as u64
        }
    }

    fn population(year: Year, scale: f64) -> Population {
        Population::generate(&PopulationConfig::new(year, scale))
    }

    #[test]
    fn scaled_totals_match_r2() {
        for year in Year::ALL {
            for scale in [500.0, 1000.0] {
                let pop = population(year, scale);
                let spec = YearSpec::get(year);
                let expected = (spec.r2 as f64 / scale).round() as u64;
                assert_eq!(pop.len() as u64, expected, "{year} scale {scale}");
            }
        }
    }

    #[test]
    fn addresses_are_unique_and_probeable() {
        let pop = population(Year::Y2018, 1000.0);
        let mut seen = HashSet::new();
        for addr in pop.resolvers.addrs() {
            assert!(seen.insert(addr), "duplicate {addr}");
            assert!(
                !orscope_ipspace::reserved::is_reserved(u32::from(addr)),
                "{addr} is reserved"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = population(Year::Y2018, 1000.0);
        let b = population(Year::Y2018, 1000.0);
        assert_eq!(a.resolvers, b.resolvers);
        let mut cfg = PopulationConfig::new(Year::Y2018, 1000.0);
        cfg.seed = 99;
        let c = Population::generate(&cfg);
        assert_ne!(a.resolver(0).addr, c.resolver(0).addr);
    }

    #[test]
    fn respects_reserved_hosts() {
        let mut cfg = PopulationConfig::new(Year::Y2018, 2000.0);
        let probe = population(Year::Y2018, 2000.0).resolver(0).addr;
        cfg.reserved_hosts = vec![probe];
        let pop = Population::generate(&cfg);
        assert!(pop.resolvers.addrs().all(|a| a != probe));
    }

    #[test]
    fn malicious_resolvers_have_countries_and_categories() {
        let pop = population(Year::Y2018, 500.0);
        let malicious: Vec<_> = pop
            .resolvers()
            .filter(|r| r.policy.malicious_category.is_some())
            .collect();
        let expected = (26_926.0_f64 / 500.0).round() as usize;
        assert!(
            (malicious.len() as i64 - expected as i64).abs() <= 1,
            "{} vs {expected}",
            malicious.len()
        );
        assert!(malicious.iter().all(|r| r.country.is_some()));
        // US dominates (81% in 2018).
        let us = malicious.iter().filter(|r| r.country == Some("US")).count();
        assert!(us * 10 > malicious.len() * 7, "US {us}/{}", malicious.len());
    }

    #[test]
    fn malicious_answer_seeds_cover_all_malicious_resolvers() {
        let pop = population(Year::Y2018, 500.0);
        let seeded: HashSet<Ipv4Addr> = pop.malicious_answers.iter().map(|m| m.ip).collect();
        for r in pop.resolvers() {
            if r.policy.malicious_category.is_some() {
                let ResponseAction::Immediate(imm) = &r.policy.action else {
                    panic!("malicious must be immediate");
                };
                let Some(AnswerData::FixedIp(ip)) = &imm.answer else {
                    panic!("malicious must answer an IP");
                };
                assert!(seeded.contains(ip), "{ip} not seeded");
            }
        }
        // Seed counts equal the malicious population.
        let seeded_r2: u64 = pop.malicious_answers.iter().map(|m| m.r2).sum();
        assert_eq!(
            seeded_r2,
            pop.count_by(|r| r.policy.malicious_category.is_some())
        );
    }

    #[test]
    fn top_answer_dominates_wrong_answers_2018() {
        // 216.194.64.193 is the most frequent wrong answer.
        let pop = population(Year::Y2018, 500.0);
        let top = Ipv4Addr::new(216, 194, 64, 193);
        let n = pop.count_by(|r| {
            matches!(&r.policy.action, ResponseAction::Immediate(imm)
                if imm.answer == Some(AnswerData::FixedIp(top)))
        });
        let expected = (23_692.0_f64 / 500.0).round() as i64;
        assert!((n as i64 - expected).abs() <= 2, "{n} vs {expected}");
    }

    #[test]
    fn off_port_responders_generated_on_request() {
        let mut cfg = PopulationConfig::new(Year::Y2018, 5000.0);
        cfg.off_port_responders = 25;
        let pop = Population::generate(&cfg);
        assert_eq!(pop.off_port.len(), 25);
        for r in pop.off_port() {
            let ResponseAction::Immediate(imm) = &r.policy.action else {
                panic!();
            };
            assert_eq!(imm.src_port, Some(1024));
        }
    }

    #[test]
    fn full_scale_plan_matches_exact_cells() {
        // Scale 1.0 would materialize 6.5M resolvers; verify the pure
        // arithmetic path instead on a moderate scale and check the
        // recursing share: correct answers / total.
        let pop = population(Year::Y2018, 1000.0);
        let recursing = pop.count_by(|r| r.policy.recurses());
        let expected = (2_752_562.0_f64 / 1000.0).round();
        assert!(
            (recursing as f64 - expected).abs() <= 2.0,
            "{recursing} vs {expected}"
        );
    }

    #[test]
    fn year_2013_has_malformed_responders() {
        let pop = population(Year::Y2013, 1000.0);
        let malformed = pop.count_by(
            |r| matches!(&r.policy.action, ResponseAction::Immediate(imm) if imm.malformed_rdata),
        );
        let expected = (8_764.0_f64 / 1000.0).round() as i64;
        assert!((malformed as i64 - expected).abs() <= 1, "{malformed}");
    }

    #[test]
    fn spread_and_scaled_unique_helpers() {
        assert_eq!(spread(10, 3), vec![4, 3, 3]);
        assert_eq!(spread(2, 5), vec![1, 1, 0, 0, 0]);
        assert_eq!(spread(0, 0), Vec::<u64>::new());
        assert_eq!(scaled_unique(100, 1000, 10, 100.0), 1);
        assert_eq!(scaled_unique(0, 0, 10, 1.0), 0);
        assert_eq!(scaled_unique(1000, 1000, 5, 1.0), 5, "capped at draws");
    }
}

#[cfg(test)]
mod forwarder_population_tests {
    use super::*;
    use crate::paper::Year;

    #[test]
    fn forwarder_fraction_demotes_honest_resolvers() {
        let mut cfg = PopulationConfig::new(Year::Y2018, 1000.0);
        cfg.forwarder_fraction = 0.1;
        let pop = Population::generate(&cfg);
        let forwarders = pop.count_by(|r| r.policy.forwards());
        let honest = pop.count_by(|r| r.policy.recurses());
        assert!(forwarders > 100, "forwarders {forwarders}");
        // Total correct-answer population unchanged: honest + forwarders
        // equals the no-forwarder honest count.
        let plain = Population::generate(&PopulationConfig::new(Year::Y2018, 1000.0));
        assert_eq!(honest + forwarders, plain.count_by(|r| r.policy.recurses()));
        // Upstreams exist and are distinct from probed hosts.
        assert!(!pop.upstreams.is_empty());
        let probed: std::collections::HashSet<_> = pop.resolvers.addrs().collect();
        for up in pop.upstreams() {
            assert!(!probed.contains(&up.addr));
            assert!(up.policy.recurses());
        }
        // Every forwarder points at a real upstream.
        let upstream_addrs: std::collections::HashSet<_> = pop.upstreams.addrs().collect();
        for r in pop.resolvers() {
            if let crate::profile::ResponseAction::Forward(fp) = &r.policy.action {
                assert!(upstream_addrs.contains(&fp.upstream));
            }
        }
    }

    #[test]
    fn zero_fraction_means_no_forwarders() {
        let pop = Population::generate(&PopulationConfig::new(Year::Y2018, 2000.0));
        assert_eq!(pop.count_by(|r| r.policy.forwards()), 0);
        assert!(pop.upstreams.is_empty());
    }
}

#[cfg(test)]
mod extreme_scale_tests {
    use super::*;
    use crate::paper::Year;

    #[test]
    fn extreme_scales_do_not_panic() {
        // Scale so coarse that almost every cell rounds away.
        for scale in [1e6, 1e7, 6_506_258.0] {
            let pop = Population::generate(&PopulationConfig::new(Year::Y2018, scale));
            let expected = (6_506_258.0_f64 / scale).round() as usize;
            assert_eq!(pop.resolvers.len(), expected, "scale {scale}");
        }
    }

    #[test]
    fn single_resolver_population_is_the_dominant_cell() {
        // At 1:6.5M exactly one responder survives; largest-remainder
        // puts it in the largest cell (the Refused responders).
        let pop = Population::generate(&PopulationConfig::new(Year::Y2018, 6_506_258.0));
        assert_eq!(pop.resolvers.len(), 1);
        let policy = pop.resolver(0).policy;
        match &policy.action {
            ResponseAction::Immediate(imm) => {
                assert_eq!(imm.rcode, orscope_dns_wire::Rcode::Refused);
                assert!(imm.answer.is_none());
            }
            other => panic!("unexpected dominant cell {other:?}"),
        }
    }

    #[test]
    fn tiny_population_has_no_malicious_answers() {
        let pop = Population::generate(&PopulationConfig::new(Year::Y2018, 1e6));
        // 26,926 / 1e6 rounds to 0: no malicious cells, no seeds.
        assert_eq!(
            pop.count_by(|r| r.policy.malicious_category.is_some()),
            pop.malicious_answers.iter().map(|m| m.r2).sum::<u64>()
        );
    }
}

#[cfg(test)]
mod shard_tests {
    use super::*;
    use crate::paper::Year;

    const SHARDS: [usize; 5] = [1, 2, 3, 4, 8];

    fn forwarder_pops() -> impl Iterator<Item = Population> {
        [0xD5A1_2019, 1, 2, 77].into_iter().map(|seed| {
            let mut config = PopulationConfig::new(Year::Y2018, 5_000.0);
            config.seed = seed;
            config.forwarder_fraction = 0.25;
            config.off_port_responders = 10;
            Population::generate(&config)
        })
    }

    fn members(pop: &Population) -> impl Iterator<Item = (Member, Ipv4Addr)> + '_ {
        pop.responders()
            .chain((0..pop.upstreams.len()).map(Member::Upstream))
            .map(|member| {
                let addr = match member {
                    Member::Resolver(i) => pop.resolvers.addr(i),
                    Member::OffPort(i) => pop.off_port.addr(i),
                    Member::Upstream(i) => pop.upstreams.addr(i),
                };
                (member, addr)
            })
    }

    #[test]
    fn shards_partition_without_loss_or_overlap() {
        for pop in forwarder_pops() {
            assert!(!pop.upstreams.is_empty(), "fixture needs forwarders");
            assert!(
                !pop.off_port.is_empty(),
                "fixture needs off-port responders"
            );
            let hosts = pop.resolvers.len() + pop.off_port.len() + pop.upstreams.len();
            for n in SHARDS {
                let mut home: FxHashMap<Ipv4Addr, usize> = FxHashMap::default();
                let mut held = vec![0usize; n];
                for (member, addr) in members(&pop) {
                    let shard = pop.home(member, n);
                    assert!(shard < n, "{member:?} placed on shard {shard} of {n}");
                    assert_eq!(shard, pop.home(member, n), "{member:?} moved");
                    assert!(home.insert(addr, shard).is_none(), "{addr} placed twice");
                    held[shard] += 1;
                }
                assert_eq!(held.iter().sum::<usize>(), hosts, "{n} shards");
                assert!(held.iter().all(|&h| h > 0), "{n} shards: {held:?}");
            }
        }
    }

    #[test]
    fn shard_of_one_is_identity() {
        for pop in forwarder_pops() {
            for (member, addr) in members(&pop) {
                assert_eq!(pop.home(member, 1), 0, "{member:?} ({addr}) off shard 0");
            }
        }
    }

    #[test]
    fn forwarders_are_colocated_with_their_upstream() {
        for pop in forwarder_pops() {
            let upstream: FxHashMap<Ipv4Addr, usize> = pop
                .upstreams
                .addrs()
                .enumerate()
                .map(|(j, a)| (a, j))
                .collect();
            let mut forwarders = 0;
            for n in SHARDS {
                for (i, host) in pop.resolvers().enumerate() {
                    let Some(up) = host.policy.upstream_addr() else {
                        continue;
                    };
                    forwarders += 1;
                    assert_eq!(
                        pop.home(Member::Resolver(i), n),
                        pop.home(Member::Upstream(upstream[&up]), n),
                        "forwarder {} split from upstream {up} at {n} shards",
                        host.addr
                    );
                }
            }
            assert!(forwarders > 0, "fixture needs forwarders");
        }
    }

    #[test]
    fn shard_assignment_is_order_free() {
        // The owner of an address depends on nothing but the address and
        // the shard count.
        let addr = Ipv4Addr::new(93, 184, 216, 34);
        for n in [1usize, 2, 4, 8, 16] {
            assert!(shard_index(addr, n) < n);
            assert_eq!(shard_index(addr, n), shard_index(addr, n));
        }
    }
}

#[cfg(test)]
mod host_list_tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A host list as it was stored before it was sorted: three columns
    /// in generation order, the country one for every host.
    #[derive(Debug, Default)]
    struct Reference {
        addrs: Vec<u32>,
        profiles: Vec<ProfileId>,
        countries: Vec<u16>,
    }

    impl Reference {
        fn push(&mut self, addr: Ipv4Addr, profile: ProfileId, country: u16) {
            self.addrs.push(u32::from(addr));
            self.profiles.push(profile);
            self.countries.push(country);
        }

        /// Every index of `list` reads what the reference holds there.
        fn assert_read_by(&self, list: &HostList, context: &str) {
            assert_eq!(list.len(), self.addrs.len(), "{context}");
            for i in 0..list.len() {
                let expected = (
                    Ipv4Addr::from(self.addrs[i]),
                    self.profiles[i],
                    self.countries[i],
                );
                let read = (list.addr(i), list.profile_id(i), list.country_id(i));
                assert_eq!(read, expected, "index {i}: {context}");
            }
            let streamed: Vec<_> = list.iter_ids().collect();
            let held: Vec<_> = (0..self.addrs.len())
                .map(|i| {
                    let addr = Ipv4Addr::from(self.addrs[i]);
                    (addr, self.profiles[i], self.countries[i])
                })
                .collect();
            assert_eq!(streamed, held, "{context}");
            assert!(list.addrs().eq(held.iter().map(|h| h.0)), "{context}");
            let mut distinct = self.addrs.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(
                list.distinct_addrs()
                    .eq(distinct.into_iter().map(Ipv4Addr::from)),
                "{context}"
            );
        }
    }

    /// Hosts spread over the space, under a few /16s or packed into one
    /// /24, with both extreme addresses and some addresses planned twice.
    fn hosts(rng: &mut orscope_check::Rng) -> Vec<(u32, ProfileId)> {
        let size = *rng.choice(&[0usize, 1, 3, 4, 7, 8, 9, 100, 4_095, 4_096, 70_000]);
        let (quarter, slash24) = (rng.range(0..4u32) << 30, rng.next_u64() as u32 & !0xFF);
        let (spread, base) = *rng.choice(&[(u32::MAX, 0), (0x0003_FFFF, quarter), (0xFF, slash24)]);
        let mut hosts: Vec<(u32, ProfileId)> = (0..size as u32)
            .map(|i| (base | rng.next_u64() as u32 & spread, i))
            .collect();
        for _ in 0..size.min(rng.range(0..3)) {
            hosts.push((*rng.choice(&[0, u32::MAX]), rng.range(0..9)));
        }
        for _ in 0..size / 50 {
            let (addr, _) = *rng.choice(&hosts);
            hosts.push((addr, rng.range(0..9)));
        }
        hosts
    }

    /// `find` is a map lookup, for every host and for misses next to
    /// hosts, at the edges and anywhere: host sets of every directory
    /// width from one bucket up. An address held twice answers with the
    /// profile of the host planned first.
    #[test]
    fn host_list_find_matches_a_btree_map() {
        orscope_check::cases(96, |rng| {
            let hosts = hosts(rng);
            let mut map: BTreeMap<u32, Vec<ProfileId>> = BTreeMap::new();
            for &(addr, profile) in &hosts {
                map.entry(addr).or_default().push(profile);
            }
            let list: HostList = hosts
                .iter()
                .map(|&(addr, profile)| (Ipv4Addr::from(addr), profile, COUNTRY_NONE))
                .collect();
            let index = &list.index;
            // At most a byte a host of directory (two entries when nearly
            // empty) and two of filter (one word when nearly empty).
            assert!(4 * index.directory.len() <= hosts.len() + 8);
            assert!(8 * index.filter.len() <= (2 * hosts.len()).max(8));
            assert!(hosts.iter().all(|&(addr, _)| index.may_hold(addr)));
            let near: Vec<u32> = hosts
                .iter()
                .flat_map(|&(a, _)| [a.wrapping_sub(1), a, a.wrapping_add(1), a ^ 0x8000_0000])
                .collect();
            let random: Vec<u32> = (0..1_000).map(|_| rng.next_u64() as u32).collect();
            let edges = [0, 1, u32::MAX - 1, u32::MAX];
            for &addr in near.iter().chain(&edges).chain(&random) {
                let found = list.find(Ipv4Addr::from(addr));
                let first = map.get(&addr).map(|profiles| profiles[0]);
                assert_eq!(found, first, "{addr:#x} of {}", hosts.len());
                assert_eq!(list.contains(Ipv4Addr::from(addr)), first.is_some());
            }
            // Misses mostly stop at the filter: one in eight to sixteen
            // hits a set bit.
            let passed = random
                .iter()
                .filter(|&&addr| !map.contains_key(&addr) && index.may_hold(addr))
                .count();
            assert!(passed <= 200, "{passed} of 1,000 misses passed the filter");
        });
    }

    /// Whatever order the hosts come in, duplicates and sparse countries
    /// included, each generation index reads what a generation-order
    /// list reads, before and after its profile is replaced.
    #[test]
    fn a_host_list_reads_what_a_generation_order_list_reads() {
        orscope_check::cases(64, |rng| {
            let mut reference = Reference::default();
            for (addr, profile) in hosts(rng) {
                let country = if rng.chance(2) {
                    rng.range(0..40u16)
                } else {
                    COUNTRY_NONE
                };
                reference.push(Ipv4Addr::from(addr), profile, country);
            }
            let mut list: HostList = (0..reference.addrs.len())
                .map(|i| {
                    let addr = Ipv4Addr::from(reference.addrs[i]);
                    (addr, reference.profiles[i], reference.countries[i])
                })
                .collect();
            reference.assert_read_by(&list, "as built");
            for _ in 0..reference.addrs.len().min(20) {
                let i = rng.range(0..reference.addrs.len());
                let profile = rng.range(100..200);
                reference.profiles[i] = profile;
                list.set_profile(i, profile);
            }
            reference.assert_read_by(&list, "after set_profile");
        });
    }

    /// Generation and its table compaction keep every index where a
    /// generation-order list built from the same stream keeps it: each
    /// list read back through a second, unsorted path.
    #[test]
    fn generated_lists_read_what_their_streams_held() {
        let config = |year, seed, scale| {
            let mut config = PopulationConfig::new(year, scale);
            config.seed = seed;
            config.forwarder_fraction = 0.25;
            config.off_port_responders = 7;
            config
        };
        for seed in [0xD5A1_2019, 1, 77] {
            for population in [
                Population::generate(&config(Year::Y2013, seed, 20_000.0)),
                Population::generate(&config(Year::Y2018, seed ^ 1, 9_000.0)),
            ] {
                for list in [
                    &population.resolvers,
                    &population.off_port,
                    &population.upstreams,
                ] {
                    let mut reference = Reference::default();
                    for (addr, profile, country) in list.iter_ids() {
                        reference.push(addr, profile, country);
                    }
                    reference.assert_read_by(list, "generated");
                }
                for (i, host) in population.resolvers().enumerate() {
                    assert_eq!(
                        population.find(host.addr),
                        Some(population.resolvers.profile_id(i))
                    );
                }
            }
        }
    }
}
