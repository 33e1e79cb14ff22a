//! The scan plan: which address is probed in which campaign-wide slot.
//!
//! ZMap's defining trick is that the target list is never stored — it is
//! the walk of a cyclic group. A [`TargetPlan`] is two such walks and
//! nothing per target: the scan order, a [`ScanPermutation`] of the
//! target count, says which slots go to which responder and which to
//! silence (addresses that are probed but never answer), and each
//! silent slot takes the next free address of a second walk, over the
//! ranks of the probeable space. Every shard runs both walks itself and
//! keeps the `(slot, address)` pairs whose host [`Population::home`]
//! places on it. Every shard reads the campaign's one population, so
//! nothing is ordered, partitioned or copied per shard before the
//! fan-out, and a supervised retry just starts the walks again.

use std::cell::Cell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::Arc;

use orscope_ipspace::{AllowedSpace, ScanPermutation, ScanPermutationIter};
use orscope_prober::{TargetSource, TargetWalk};
use orscope_resolver::paper::YearSpec;
use orscope_resolver::population::{shard_index, Member, Population};

use crate::campaign::CampaignConfig;

/// Silent targets probed per responder when the campaign is not in
/// `full_q1` mode: enough that responders are interleaved with dead
/// addresses as in a real scan, few enough that tests stay fast.
const FAST_MODE_SILENT_PER_RESPONDER: u64 = 2;

/// A campaign's targets in scan order, derived on the fly.
///
/// The scan visits `order[0], order[1], ...` and the position in that
/// walk is the target's send slot. An index below the responder count
/// is that responder of the population (resolvers, then off-port
/// responders); a slot with any other index is silent and probes the
/// next address of the rank walk that is neither a responder nor
/// infrastructure. The silent addresses are thus the first
/// `len - responders` free addresses of that walk, whatever the seed of
/// the scan order does to which slot each lands in.
#[derive(Debug)]
pub(crate) struct TargetPlan {
    /// The responders the scan order's low indices stand for, and, by
    /// address, the hosts the silent walk steps over.
    population: Arc<Population>,
    /// The other addresses the silent walk steps over.
    infra: Vec<Ipv4Addr>,
    /// The addresses silence is drawn from.
    space: Arc<AllowedSpace>,
    /// The walk of `space`'s ranks that the silent fill is read off.
    ranks: ScanPermutation,
    /// Scan order: permuted so responders are interleaved with silents
    /// the way a real pseudorandom scan interleaves live hosts.
    order: ScanPermutation,
}

impl TargetPlan {
    /// Plans the scan of `population`: all responders embedded in either
    /// the full scaled space or a fast-mode sample of silents, drawn
    /// from `space`. A scan that asks for more silence than `space` has
    /// free addresses probes all of them and no more, so [`Self::len`]
    /// is what the shards will send.
    pub(crate) fn new(
        config: &CampaignConfig,
        spec: &YearSpec,
        population: Arc<Population>,
        space: AllowedSpace,
    ) -> Self {
        let responders = (population.resolvers.len() + population.off_port.len()) as u64;
        let total = if config.full_q1 {
            ((spec.q1 as f64 / config.scale).round() as u64).max(responders)
        } else {
            responders + responders * FAST_MODE_SILENT_PER_RESPONDER
        };
        let mut infra = config.infra.addresses();
        infra.sort_unstable();
        infra.dedup();
        // Decided here, once, so that no shard's walk can run dry.
        let taken = population
            .probed_addrs()
            .chain(
                infra
                    .iter()
                    .copied()
                    .filter(|&addr| population.find(addr).is_none()),
            )
            .filter(|&addr| space.contains(addr))
            .count() as u64;
        let silent = (total - responders).min(space.len() - taken);
        Self {
            population,
            infra,
            ranks: ScanPermutation::new(space.len(), config.seed ^ 0x51E7),
            space: Arc::new(space),
            order: ScanPermutation::new(responders + silent, config.seed ^ 0x0DE2),
        }
    }

    /// Number of targets the whole campaign probes.
    pub(crate) fn len(&self) -> u64 {
        self.order.space_len()
    }

    /// The `(slot, address)` pairs shard `shard` of `shards` probes, in
    /// scan order, as a walk that fills a [`TargetSource`]'s runs. Every
    /// shard count scans the same addresses in the same slots: the slot
    /// is the position in the campaign-wide walk, so send times (and
    /// time-windowed fault exposure) are shard-layout-invariant. The walk
    /// holds no state a second call does not rebuild, so a supervised
    /// retry starts it again.
    ///
    /// [`TargetSource`]: orscope_prober::TargetSource
    pub(crate) fn shard(&self, shard: usize, shards: usize) -> ShardWalk {
        ShardWalk {
            population: Arc::clone(&self.population),
            infra: self.infra.clone(),
            space: Arc::clone(&self.space),
            order: self.order.iter(),
            ranks: self.ranks.iter(),
            slot: 0,
            shard,
            shards,
            silent: Rc::default(),
        }
    }
}

/// `population.find(addr)`: what the silent walk and a shard's registry
/// ask of the population. Unit tests count the calls per address.
pub(crate) fn find(population: &Population, addr: Ipv4Addr) -> Option<u32> {
    #[cfg(test)]
    tests::count_find(addr);
    population.find(addr)
}

/// The silent addresses of the run a shard's walk filled last, in scan
/// order, which its registry settles sends against
/// ([`orscope_netsim::Coverage::holds_nobody`]). The walk proved each is
/// neither a probed host nor infrastructure, and the prober sends a run
/// in order before the walk fills the next, so a send is compared with
/// the next address recorded alone. Any other send — a responder's, a
/// retransmission, one past the record's room — takes the full route.
#[derive(Debug, Default)]
pub(crate) struct SilentRun {
    addrs: [Cell<u32>; TargetSource::RUN],
    /// How many of `addrs` the last run recorded.
    len: Cell<usize>,
    /// How many of them sends have matched.
    next: Cell<usize>,
}

impl SilentRun {
    /// Forgets the last run.
    fn clear(&self) {
        self.len.set(0);
        self.next.set(0);
    }

    /// Records `addr`, if there is room.
    fn push(&self, addr: Ipv4Addr) {
        let len = self.len.get();
        if let Some(slot) = self.addrs.get(len) {
            slot.set(u32::from(addr));
            self.len.set(len + 1);
        }
    }

    /// Whether `addr` is the next address recorded, which it spends.
    pub(crate) fn take(&self, addr: Ipv4Addr) -> bool {
        let next = self.next.get();
        let hit = next < self.len.get() && self.addrs[next].get() == u32::from(addr);
        self.next.set(next + usize::from(hit));
        hit
    }
}

/// One shard's walk of a [`TargetPlan`]: the scan order, and the rank
/// walk that the silent slots read their addresses off.
///
/// A responder goes where [`Population::home`] places it, so a shard
/// probes exactly the hosts it holds; a silent slot goes to the
/// [`shard_index`] of its address. Every shard steps through every slot,
/// and through the rank walk for every silent one, whichever shard keeps
/// it.
#[derive(Debug)]
pub(crate) struct ShardWalk {
    /// The responders the scan order's low indices stand for, and, by
    /// address, the hosts the silent walk steps over.
    population: Arc<Population>,
    /// The other addresses the silent walk steps over, ascending.
    infra: Vec<Ipv4Addr>,
    /// The addresses silence is drawn from.
    space: Arc<AllowedSpace>,
    order: ScanPermutationIter,
    ranks: ScanPermutationIter,
    /// The slot `order` hands out next.
    slot: u64,
    shard: usize,
    shards: usize,
    /// The silent addresses of the last run this shard keeps.
    silent: Rc<SilentRun>,
}

impl ShardWalk {
    /// The next free address of the rank walk: neither a probed host nor
    /// infrastructure.
    fn next_silent(&mut self) -> Ipv4Addr {
        loop {
            let rank = self
                .ranks
                .next()
                .expect("the plan has a free address for every silent slot");
            let addr = self.space.nth(u64::from(rank)).expect("rank in range");
            if find(&self.population, addr).is_none() && !self.infra.contains(&addr) {
                return addr;
            }
        }
    }

    /// The record of the silent addresses each run holds, which the
    /// walk rewrites at every fill.
    pub(crate) fn silent(&self) -> Rc<SilentRun> {
        Rc::clone(&self.silent)
    }
}

impl TargetWalk for ShardWalk {
    fn fill(&mut self, run: &mut Vec<(u64, Ipv4Addr)>, room: usize) {
        let population = Arc::clone(&self.population);
        let resolvers = population.resolvers.len();
        let responders = resolvers + population.off_port.len();
        let end = run.len().saturating_add(room);
        self.silent.clear();
        while run.len() < end {
            let Some(index) = self.order.next() else {
                return;
            };
            let slot = self.slot;
            self.slot += 1;
            let index = index as usize;
            let (addr, member) = if index < resolvers {
                (
                    population.resolvers.addr(index),
                    Some(Member::Resolver(index)),
                )
            } else if index < responders {
                let i = index - resolvers;
                (population.off_port.addr(i), Some(Member::OffPort(i)))
            } else {
                (self.next_silent(), None)
            };
            let home = || match member {
                Some(member) => population.home(member, self.shards),
                None => shard_index(addr, self.shards),
            };
            if self.shards == 1 || home() == self.shard {
                if member.is_none() {
                    self.silent.push(addr);
                }
                run.push((slot, addr));
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::campaign::{Campaign, ShardPlan};
    use orscope_authns::capture::{RecordSink, SharedSink};
    use orscope_ipspace::{Blocklist, Cidr};
    use orscope_netsim::{
        fx_map_with_capacity, Context, Coverage, Datagram, Endpoint, FixedLatency, FxHashMap,
        FxHashSet, LazyRegistry, SimNet, SimTime,
    };
    use orscope_prober::{Prober, ProberConfig, TargetSource};
    use orscope_resolver::paper::Year;
    use orscope_resolver::COUNTRY_NONE;
    use std::cell::RefCell;
    use std::iter::Peekable;
    use std::rc::Rc;

    thread_local! {
        /// How often this thread asked [`find`] about each address, while
        /// a test counts.
        static FINDS: RefCell<Option<FxHashMap<Ipv4Addr, u32>>> = const { RefCell::new(None) };
    }

    /// Counts a [`find`] of `addr`, if this thread is counting.
    pub(super) fn count_find(addr: Ipv4Addr) {
        FINDS.with_borrow_mut(|finds| {
            if let Some(finds) = finds {
                *finds.entry(addr).or_default() += 1;
            }
        });
    }

    /// Runs `f` and returns how often it asked [`find`] about each
    /// address, on this thread.
    pub(crate) fn counting_finds<T>(f: impl FnOnce() -> T) -> (T, FxHashMap<Ipv4Addr, u32>) {
        FINDS.set(Some(FxHashMap::default()));
        let out = f();
        (out, FINDS.take().expect("counting"))
    }

    /// The responders in index order, how many targets the scan asks
    /// for, and every address silence may not fall on.
    fn inputs(
        config: &CampaignConfig,
        spec: &YearSpec,
        population: &Population,
    ) -> (Vec<Ipv4Addr>, u64, FxHashSet<Ipv4Addr>) {
        let responders: Vec<Ipv4Addr> = population
            .resolvers
            .addrs()
            .chain(population.off_port.addrs())
            .collect();
        let total = if config.full_q1 {
            ((spec.q1 as f64 / config.scale).round() as u64).max(responders.len() as u64)
        } else {
            responders.len() as u64 * (1 + FAST_MODE_SILENT_PER_RESPONDER)
        };
        let used = responders
            .iter()
            .copied()
            .chain(config.infra.addresses())
            .collect();
        (responders, total, used)
    }

    /// The free addresses of the rank walk, as a stored set would filter
    /// them.
    fn free_walk<'a>(
        config: &CampaignConfig,
        space: &'a AllowedSpace,
        used: &'a FxHashSet<Ipv4Addr>,
    ) -> impl Iterator<Item = Ipv4Addr> + 'a {
        ScanPermutation::new(space.len(), config.seed ^ 0x51E7)
            .iter()
            .map(|rank| space.nth(u64::from(rank)).expect("rank in range"))
            .filter(|addr| !used.contains(addr))
    }

    /// The scan in slot order as it was stored until the fill became a
    /// walk: responders, then the silent fill in walk order, as one list
    /// that the scan order indexes — silent index `i` probed the `i`-th
    /// free address. Kept to show what the derived fill did not change.
    fn stored_fill_scan(
        config: &CampaignConfig,
        spec: &YearSpec,
        population: &Population,
    ) -> Vec<Ipv4Addr> {
        let (mut targets, total, used) = inputs(config, spec, population);
        let space = AllowedSpace::probeable();
        let silent = total as usize - targets.len();
        targets.extend(free_walk(config, &space, &used).take(silent));
        ScanPermutation::new(total, config.seed ^ 0x0DE2)
            .iter()
            .map(|index| targets[index as usize])
            .collect()
    }

    /// The plan materialised on the master thread: the whole ordered
    /// target list — a silent slot takes the next free address of the
    /// rank walk — then a partition through an owner map that places a
    /// resolver by the [`shard_index`] of its affinity and every other
    /// address by its own.
    fn eager_plan(
        config: &CampaignConfig,
        spec: &YearSpec,
        population: &Population,
    ) -> (Vec<Vec<u64>>, Vec<Vec<Ipv4Addr>>) {
        let (responders, total, used) = inputs(config, spec, population);
        let space = AllowedSpace::probeable();
        let mut free = free_walk(config, &space, &used);
        let ordered: Vec<Ipv4Addr> = ScanPermutation::new(total, config.seed ^ 0x0DE2)
            .iter()
            .map(|index| match responders.get(index as usize) {
                Some(&responder) => responder,
                None => free.next().expect("space exhausted"),
            })
            .collect();

        let shards = config.shards;
        let mut shard_targets: Vec<Vec<Ipv4Addr>> = vec![Vec::new(); shards];
        let mut shard_slots: Vec<Vec<u64>> = vec![Vec::new(); shards];
        if shards == 1 {
            shard_slots[0] = (0..ordered.len() as u64).collect();
            shard_targets[0] = ordered;
            return (shard_slots, shard_targets);
        }
        let mut owner: FxHashMap<Ipv4Addr, usize> = fx_map_with_capacity(population.len());
        for (i, addr) in population.resolvers.addrs().enumerate() {
            owner.insert(addr, shard_index(population.affinity(i), shards));
        }
        for (global_index, addr) in ordered.into_iter().enumerate() {
            let index = owner
                .get(&addr)
                .copied()
                .unwrap_or_else(|| shard_index(addr, shards));
            shard_targets[index].push(addr);
            shard_slots[index].push(global_index as u64);
        }
        (shard_slots, shard_targets)
    }

    /// Every pair shard `shard` of `shards` probes, from one fill.
    pub(crate) fn pairs(plan: &TargetPlan, shard: usize, shards: usize) -> Vec<(u64, Ipv4Addr)> {
        let mut run = Vec::new();
        plan.shard(shard, shards).fill(&mut run, usize::MAX);
        run
    }

    /// The stream the prober pulled its targets from, one pair at a time
    /// through two virtual calls, until the walk filled runs of owned
    /// pairs: the same two permutations, read through adapters. Kept as
    /// the oracle the walk is checked against.
    fn boxed_stream(
        plan: &TargetPlan,
        shard: usize,
        shards: usize,
    ) -> Peekable<Box<dyn Iterator<Item = (u64, Ipv4Addr)>>> {
        let population = Arc::clone(&plan.population);
        let infra = plan.infra.clone();
        let space = Arc::clone(&plan.space);
        let silent_population = Arc::clone(&population);
        let mut silent = plan
            .ranks
            .iter()
            .map(move |rank| space.nth(u64::from(rank)).expect("rank in range"))
            .filter(move |&addr| !infra.contains(&addr) && silent_population.find(addr).is_none());
        let resolvers = population.resolvers.len();
        let responders = resolvers + population.off_port.len();
        let stream = (0u64..)
            .zip(plan.order.iter())
            .filter_map(move |(slot, index)| {
                let index = index as usize;
                let (addr, member) = if index < resolvers {
                    (
                        population.resolvers.addr(index),
                        Some(Member::Resolver(index)),
                    )
                } else if index < responders {
                    let i = index - resolvers;
                    (population.off_port.addr(i), Some(Member::OffPort(i)))
                } else {
                    let addr = silent
                        .next()
                        .expect("the plan has a free address for every silent slot");
                    (addr, None)
                };
                let home = || match member {
                    Some(member) => population.home(member, shards),
                    None => shard_index(addr, shards),
                };
                (shards == 1 || home() == shard).then_some((slot, addr))
            });
        let stream: Box<dyn Iterator<Item = (u64, Ipv4Addr)>> = Box::new(stream);
        stream.peekable()
    }

    /// The boxed stream as a walk that hands the prober single-pair runs.
    struct OneAtATime(Peekable<Box<dyn Iterator<Item = (u64, Ipv4Addr)>>>);

    impl std::fmt::Debug for OneAtATime {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("OneAtATime")
        }
    }

    impl TargetWalk for OneAtATime {
        fn fill(&mut self, run: &mut Vec<(u64, Ipv4Addr)>, room: usize) {
            if room > 0 {
                run.extend(self.0.next());
            }
        }
    }

    /// Logs when each datagram arrives and where; a fresh one is built
    /// for every address and released after its one datagram.
    struct Arrivals(Rc<RefCell<Vec<(SimTime, Ipv4Addr)>>>);

    impl Endpoint for Arrivals {
        fn handle_datagram(&mut self, dgram: &Datagram, ctx: &mut Context<'_>) {
            self.0.borrow_mut().push((ctx.now(), dgram.dst));
        }

        fn is_quiescent(&self) -> bool {
            true
        }
    }

    impl Coverage for Arrivals {
        fn covers(&self, _addr: Ipv4Addr) -> bool {
            true
        }
    }

    impl LazyRegistry for Arrivals {
        fn materialize(&self, _addr: Ipv4Addr) -> Option<Box<dyn Endpoint>> {
            Some(Box::new(Arrivals(Rc::clone(&self.0))))
        }
    }

    /// Drops every R2.
    #[derive(Debug)]
    struct NoSink;

    impl RecordSink for NoSink {
        fn on_r2(&mut self, _capture: &orscope_prober::R2Capture) {}
        fn on_auth(&mut self, _packet: &orscope_authns::CapturedPacket) {}
    }

    /// When the prober sends each of `targets`' Q1s and where, at the
    /// campaign's rate: every address is planned and answers nothing,
    /// and the wire takes no time, so an arrival is a send.
    fn send_times(config: &CampaignConfig, targets: TargetSource) -> Vec<(SimTime, Ipv4Addr)> {
        let log = Rc::default();
        let mut net = SimNet::builder()
            .latency(FixedLatency(std::time::Duration::ZERO))
            .lazy_hosts(Arrivals(Rc::clone(&log)))
            .build();
        let mut prober_config = ProberConfig::new(config.infra.zone.clone(), targets);
        prober_config.rate_pps = Campaign::new(config.clone())
            .shard_knobs(&YearSpec::get(config.year))
            .total_rate;
        let sink: SharedSink = Rc::new(RefCell::new(NoSink));
        let prober = Prober::new(prober_config, sink).expect("a positive rate");
        net.register(config.infra.prober, prober);
        net.set_timer_for(config.infra.prober, SimTime::ZERO, 0);
        net.run_until_idle();
        log.take()
    }

    #[test]
    fn the_walks_runs_are_the_boxed_streams_pairs_sent_at_its_times() {
        // Runs of every length the prober can meet: one pair, runs that
        // end mid-tick, the source's own length, and the whole walk. The
        // prober's send times are compared where every send travels, so
        // each is seen; full-Q1 scans are sent at a coarser scale.
        for seed in [0xD5A1_2019, 1, 2, 77] {
            for shards in [1, 2, 3, 4, 8] {
                for config in configs(seed, shards) {
                    let population = Arc::new(Campaign::new(config.clone()).build_population());
                    let plan = plan_of(&config, &population);
                    for shard in 0..shards {
                        let context = format!(
                            "seed {seed:#x}, full_q1 {}, shard {shard}/{shards}",
                            config.full_q1
                        );
                        let oracle: Vec<_> = boxed_stream(&plan, shard, shards).collect();
                        for room in [1, 3, 7, TargetSource::RUN, usize::MAX] {
                            let mut walk = plan.shard(shard, shards);
                            let mut walked = Vec::new();
                            let mut run = Vec::new();
                            loop {
                                walk.fill(&mut run, room);
                                assert!(run.len() <= room, "{context}");
                                if run.is_empty() {
                                    break;
                                }
                                walked.append(&mut run);
                            }
                            assert_eq!(walked, oracle, "room {room}: {context}");
                        }
                    }
                }
                let [fast, full] = configs(seed, shards);
                let full = CampaignConfig {
                    scale: 400_000.0,
                    ..full
                };
                for config in [fast, full] {
                    let population = Arc::new(Campaign::new(config.clone()).build_population());
                    let plan = plan_of(&config, &population);
                    for shard in 0..shards {
                        let context = format!(
                            "seed {seed:#x}, full_q1 {}, shard {shard}/{shards}",
                            config.full_q1
                        );
                        let oracle =
                            TargetSource::new(OneAtATime(boxed_stream(&plan, shard, shards)));
                        let expected = send_times(&config, oracle);
                        assert!(!expected.is_empty() || shards > 1, "{context}");
                        let walked =
                            send_times(&config, TargetSource::new(plan.shard(shard, shards)));
                        assert_eq!(walked, expected, "{context}");
                    }
                }
            }
        }
    }

    fn plan_of(config: &CampaignConfig, population: &Arc<Population>) -> TargetPlan {
        Campaign::new(config.clone()).plan_targets(&YearSpec::get(config.year), population)
    }

    /// Fast and full-Q1 configurations over a population with forwarders
    /// (affinity placement) and off-port responders.
    fn configs(seed: u64, shards: usize) -> [CampaignConfig; 2] {
        let base = CampaignConfig::new(Year::Y2018, 20_000.0)
            .with_seed(seed)
            .with_shards(shards)
            .with_forwarder_fraction(0.25)
            .with_off_port_responders(10);
        [base.clone(), base.with_full_q1()]
    }

    #[test]
    fn lazy_shard_walks_equal_the_eager_partition() {
        for seed in [0xD5A1_2019, 1, 2, 77] {
            for shards in [1, 2, 3, 4, 8] {
                for config in configs(seed, shards) {
                    let spec = YearSpec::get(config.year);
                    let population = Arc::new(Campaign::new(config.clone()).build_population());
                    assert!(!population.upstreams.is_empty(), "forwarders present");
                    let (slots, targets) = eager_plan(&config, &spec, &population);
                    let plan = plan_of(&config, &population);
                    for shard in 0..shards {
                        let (lazy_slots, lazy_targets): (Vec<u64>, Vec<Ipv4Addr>) =
                            pairs(&plan, shard, shards).into_iter().unzip();
                        let context = format!(
                            "seed {seed:#x}, full_q1 {}, shard {shard}/{shards}",
                            config.full_q1
                        );
                        assert_eq!(lazy_slots, slots[shard], "{context}");
                        assert_eq!(lazy_targets, targets[shard], "{context}");
                    }
                }
            }
        }
    }

    /// The population's hosts as a generation-order list stores them:
    /// `(address, profile, country)` of the resolvers, off-port
    /// responders and upstreams, each list in the order generation
    /// placed them. The addresses are read off generation's own rank
    /// walk, independently of the sorted columns: a host is the next
    /// walk address that no earlier host took, and an address the walk
    /// steps over is one no host holds.
    fn generation_order(
        config: &CampaignConfig,
        population: &Population,
    ) -> [Vec<(Ipv4Addr, u32, u16)>; 3] {
        let space = AllowedSpace::probeable();
        let mut walk = ScanPermutation::new(space.len(), config.seed ^ 0xADD2)
            .iter()
            .map(|rank| space.nth(u64::from(rank)).expect("rank in range"));
        let lists = [
            &population.resolvers,
            &population.off_port,
            &population.upstreams,
        ];
        let held: FxHashSet<Ipv4Addr> = lists.iter().flat_map(|list| list.addrs()).collect();
        lists.map(|list| {
            list.iter_ids()
                .map(|(addr, profile, country)| {
                    let placed = walk
                        .by_ref()
                        .find(|addr| held.contains(addr))
                        .expect("the walk places every host");
                    assert_eq!(addr, placed, "a host left its place in the walk");
                    (placed, profile, country)
                })
                .collect()
        })
    }

    #[test]
    fn every_generation_index_reads_the_generation_order_list() {
        for seed in [0xD5A1_2019, 1, 2, 77] {
            for shards in [1, 2, 3, 8] {
                for config in configs(seed, shards) {
                    let context = format!("seed {seed:#x}, full_q1 {}, {shards}", config.full_q1);
                    let population = Arc::new(Campaign::new(config.clone()).build_population());
                    let reference = generation_order(&config, &population);
                    let lists = [
                        &population.resolvers,
                        &population.off_port,
                        &population.upstreams,
                    ];
                    for (list, expected) in lists.into_iter().zip(&reference) {
                        for (i, &(addr, profile, country)) in expected.iter().enumerate() {
                            let read = (list.addr(i), list.profile_id(i), list.country_id(i));
                            assert_eq!(read, (addr, profile, country), "{i}: {context}");
                        }
                    }
                    assert!(reference[0].iter().any(|host| host.2 != COUNTRY_NONE));
                    // Every shard probes each responder slot at the
                    // address its index holds and materializes the
                    // profile that index holds there.
                    let responders: Vec<_> = reference[0].iter().chain(&reference[1]).collect();
                    let plan = plan_of(&config, &population);
                    let order: Vec<u32> = plan.order.iter().collect();
                    for shard in 0..shards {
                        for (slot, addr) in pairs(&plan, shard, shards) {
                            let Some(&&(placed, profile, _)) =
                                responders.get(order[slot as usize] as usize)
                            else {
                                assert!(population.find(addr).is_none(), "{addr}: {context}");
                                continue;
                            };
                            assert_eq!(addr, placed, "slot {slot}: {context}");
                            assert_eq!(population.find(addr), Some(profile), "{context}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn each_shard_reserves_for_the_responders_its_walk_hands_it() {
        for seed in [0xD5A1_2019, 1, 2, 77] {
            for shards in [1, 2, 3, 4, 8] {
                let [config, _] = configs(seed, shards);
                let campaign = Campaign::new(config.clone());
                let knobs = campaign.shard_knobs(&YearSpec::get(config.year));
                let population = Arc::new(campaign.build_population());
                let plan = plan_of(&config, &population);
                let mut total = 0;
                for shard in 0..shards {
                    let handed = pairs(&plan, shard, shards)
                        .into_iter()
                        .filter(|&(_, addr)| population.find(addr).is_some())
                        .count();
                    let shard_plan = ShardPlan::new(
                        &config,
                        &knobs,
                        shard,
                        0,
                        plan.shard(shard, shards),
                        &population,
                    );
                    assert_eq!(
                        shard_plan.responders(),
                        handed,
                        "seed {seed:#x}, shard {shard}/{shards}"
                    );
                    total += handed;
                }
                assert_eq!(total, population.responders().count(), "seed {seed:#x}");
            }
        }
    }

    #[test]
    fn shard_slot_sets_partition_the_scan() {
        // Property, swept over seeds: whatever the shard count, the
        // shards' slots are disjoint and together cover `0..len`, each
        // shard's in increasing order.
        for seed in 0..12u64 {
            let shards = 1 + (seed as usize * 5) % 8;
            let [config, _] = configs(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), shards);
            let population = Arc::new(Campaign::new(config.clone()).build_population());
            let plan = plan_of(&config, &population);
            let mut seen = vec![false; plan.len() as usize];
            for shard in 0..shards {
                let mut previous = None;
                for (slot, _) in pairs(&plan, shard, shards) {
                    assert!(previous < Some(slot), "slots increase within a shard");
                    previous = Some(slot);
                    assert!(
                        !std::mem::replace(&mut seen[slot as usize], true),
                        "slot {slot} owned twice ({shards} shards)"
                    );
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "every slot owned ({shards} shards)"
            );
        }
    }

    #[test]
    fn the_derived_fill_probes_the_stored_fills_addresses() {
        // What moved is which silent address sits in which silent slot.
        // The addresses probed — the responders and the first
        // `total - responders` free addresses of the rank walk — and
        // every responder's slot, hence its send time, did not.
        //
        // The population depends on neither the shard count nor the
        // mode, and the stored scan not on the shard count, so each is
        // built once for all the cases that share it.
        let sorted = |mut addrs: Vec<Ipv4Addr>| {
            addrs.sort_unstable();
            addrs
        };
        for seed in [0xD5A1_2019, 1, 2, 77] {
            let [fast, _] = configs(seed, 1);
            let population = Arc::new(Campaign::new(fast).build_population());
            for mode in 0..2 {
                let config = &configs(seed, 1)[mode];
                let spec = YearSpec::get(config.year);
                let stored = stored_fill_scan(config, &spec, &population);
                let stored_sorted = sorted(stored.clone());
                let context = format!("seed {seed:#x}, full_q1 {}", config.full_q1);
                for shards in [1, 2, 3, 4, 8] {
                    let config = &configs(seed, shards)[mode];
                    let plan = plan_of(config, &population);
                    assert_eq!(plan.len(), stored.len() as u64);
                    let mut derived = vec![None; stored.len()];
                    for shard in 0..shards {
                        for (slot, addr) in pairs(&plan, shard, shards) {
                            derived[slot as usize] = Some(addr);
                        }
                    }
                    let derived: Vec<Ipv4Addr> = derived.into_iter().flatten().collect();
                    let context = format!("{context}, {shards} shards");
                    assert_eq!(derived.len(), stored.len(), "{context}");
                    for (slot, (new, old)) in derived.iter().zip(&stored).enumerate() {
                        if population.find(*old).is_some() {
                            assert_eq!(new, old, "responder moved from slot {slot}: {context}");
                        }
                    }
                    assert_eq!(sorted(derived), stored_sorted, "{context}");
                }
            }
        }
    }

    #[test]
    fn a_fresh_walk_skipped_to_a_cursor_is_the_walks_tail() {
        // What a supervised retry relies on: the stream holds no state a
        // second call does not rebuild, so a rebuilt walk skipped past
        // any prefix is the first walk's tail.
        for (config, shards) in configs(77, 1).into_iter().zip([1, 3]) {
            let population = Arc::new(Campaign::new(config.clone()).build_population());
            let plan = plan_of(&config, &population);
            let whole = pairs(&plan, 0, shards);
            for k in [0, 1, whole.len() / 2, whole.len()] {
                let mut walk = plan.shard(0, shards);
                let mut head = Vec::new();
                walk.fill(&mut head, k);
                let mut tail = Vec::new();
                walk.fill(&mut tail, usize::MAX);
                assert_eq!(head, whole[..k], "cursor {k} of {}", whole.len());
                assert_eq!(tail, whole[k..], "cursor {k} of {}", whole.len());
            }
        }
    }

    #[test]
    fn silence_never_falls_on_a_host_or_on_infrastructure() {
        orscope_check::cases(12, |rng| {
            let [_, config] = configs(rng.next_u64(), 1);
            let population = Arc::new(Campaign::new(config.clone()).build_population());
            let responders: FxHashSet<Ipv4Addr> = population
                .resolvers
                .addrs()
                .chain(population.off_port.addrs())
                .collect();
            assert!(!population.off_port.is_empty());
            let space = AllowedSpace::probeable();
            let mut silent = FxHashSet::default();
            let mut found = 0;
            for (_, addr) in pairs(&plan_of(&config, &population), 0, 1) {
                if responders.contains(&addr) {
                    found += 1;
                    continue;
                }
                assert!(!config.infra.addresses().contains(&addr), "{addr}");
                assert!(space.contains(addr), "{addr} is reserved");
                assert!(silent.insert(addr), "{addr} probed twice");
            }
            assert_eq!(found, responders.len(), "every responder is probed");
        });
    }

    /// Everything but the /24s of `keep`.
    pub(crate) fn all_but(keep: &[Ipv4Addr]) -> AllowedSpace {
        let mut blocked = Blocklist::new();
        for first in 0..=255u8 {
            for second in 0..=255u8 {
                let kept = |a: &Ipv4Addr| a.octets()[..2] == [first, second];
                if !keep.iter().any(kept) {
                    blocked.insert(Cidr::new(Ipv4Addr::new(first, second, 0, 0), 16));
                    continue;
                }
                for third in 0..=255u8 {
                    let kept = |a: &Ipv4Addr| a.octets()[..3] == [first, second, third];
                    if !keep.iter().any(kept) {
                        blocked.insert(Cidr::new(Ipv4Addr::new(first, second, third, 0), 24));
                    }
                }
            }
        }
        AllowedSpace::new(&blocked)
    }

    #[test]
    fn a_scan_asking_for_more_silence_than_exists_is_capped_up_front() {
        // Two /24s, one holding a responder and one an infrastructure
        // address: 510 free addresses for a scan that asks for 185,000.
        let [_, config] = configs(5, 2);
        let spec = YearSpec::get(config.year);
        let population = Arc::new(Campaign::new(config.clone()).build_population());
        let responder = population.resolvers.addr(0);
        let space = all_but(&[responder, config.infra.auth]);
        let taken = population
            .resolvers
            .addrs()
            .chain(population.off_port.addrs())
            .chain(config.infra.addresses())
            .filter(|&addr| space.contains(addr))
            .collect::<FxHashSet<_>>();
        assert!(taken.len() >= 2 && space.len() == 512, "{taken:?}");
        let free = space.len() - taken.len() as u64;
        let responders = (population.resolvers.len() + population.off_port.len()) as u64;
        assert!((spec.q1 as f64 / config.scale) as u64 - responders > free);

        let plan = TargetPlan::new(&config, &spec, Arc::clone(&population), space.clone());
        assert_eq!(plan.len(), responders + free, "the fill is capped");
        // Every shard's walk ends, and together they send `len` probes:
        // each responder, and each free address of the space once.
        let mut silent = FxHashSet::default();
        let mut sent = 0;
        for shard in 0..config.shards {
            for (_, addr) in pairs(&plan, shard, config.shards) {
                sent += 1;
                if population.find(addr).is_none() {
                    assert!(space.contains(addr) && !taken.contains(&addr), "{addr}");
                    assert!(silent.insert(addr), "{addr} probed twice");
                }
            }
        }
        assert_eq!(sent, plan.len());
        assert_eq!(silent.len() as u64, free);
    }
}
