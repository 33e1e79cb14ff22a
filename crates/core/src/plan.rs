//! The scan plan: which address is probed in which campaign-wide slot.
//!
//! ZMap's defining trick is that the target list is never stored — it is
//! the walk of a cyclic group. A [`TargetPlan`] keeps that property
//! through sharding: it holds the silent fill (addresses that are probed
//! but never answer) and shares the population's responder addresses,
//! and every shard walks the same [`ScanPermutation`] itself, keeping the
//! `(slot, address)` pairs it owns. Nothing is ordered, partitioned or
//! copied per shard before the fan-out, and a supervised retry just
//! starts the walk again.

use std::net::Ipv4Addr;
use std::sync::Arc;

use orscope_ipspace::{AllowedSpace, ScanPermutation};
use orscope_netsim::FxHashSet;
use orscope_resolver::paper::YearSpec;
use orscope_resolver::population::{shard_index, Population};

use crate::campaign::CampaignConfig;

/// Silent targets probed per responder when the campaign is not in
/// `full_q1` mode: enough that responders are interleaved with dead
/// addresses as in a real scan, few enough that tests stay fast.
const FAST_MODE_SILENT_PER_RESPONDER: u64 = 2;

/// A campaign's targets in scan order, derived on the fly.
///
/// Target `i` of the unpermuted list is responder `i` of the population
/// (resolvers, then off-port responders) or, past those, silent address
/// `i - responders`; the scan visits `order[0], order[1], ...` and the
/// position in that walk is the target's send slot.
#[derive(Debug)]
pub(crate) struct TargetPlan {
    population: Arc<Population>,
    /// Probeable addresses that are neither responders nor
    /// infrastructure, in allowed-space rank order: 4 bytes per silent
    /// target, the only per-target state a campaign keeps.
    silent: Arc<Vec<Ipv4Addr>>,
    order: ScanPermutation,
}

impl TargetPlan {
    /// Plans the scan of `population`: all responders embedded in either
    /// the full scaled space or a fast-mode sample of silents.
    pub(crate) fn new(
        config: &CampaignConfig,
        spec: &YearSpec,
        population: Arc<Population>,
    ) -> Self {
        let responders = (population.resolvers.len() + population.off_port.len()) as u64;
        let total = if config.full_q1 {
            ((spec.q1 as f64 / config.scale).round() as u64).max(responders)
        } else {
            responders + responders * FAST_MODE_SILENT_PER_RESPONDER
        };
        // Silent fill: fresh probeable addresses not already used.
        let used: FxHashSet<Ipv4Addr> = population
            .resolvers
            .addrs()
            .chain(population.off_port.addrs())
            .chain(config.infra.addresses())
            .collect();
        let space = AllowedSpace::probeable();
        let mut ranks = ScanPermutation::new(space.len(), config.seed ^ 0x51E7).iter();
        let mut silent = Vec::with_capacity((total - responders) as usize);
        while (silent.len() as u64) < total - responders {
            let rank = ranks.next().expect("space exhausted") as u64;
            let addr = space.nth(rank).expect("rank in range");
            if !used.contains(&addr) {
                silent.push(addr);
            }
        }
        Self {
            population,
            silent: Arc::new(silent),
            // Scan order: permute so responders are interleaved with
            // silents the way a real pseudorandom scan interleaves live
            // hosts.
            order: ScanPermutation::new(total, config.seed ^ 0x0DE2),
        }
    }

    /// Number of targets the whole campaign probes.
    pub(crate) fn len(&self) -> u64 {
        self.order.space_len()
    }

    /// The `(slot, address)` pairs shard `shard` of `shards` probes, in
    /// scan order. Every shard count scans the same addresses in the same
    /// slots: the slot is the position in the campaign-wide walk, so send
    /// times (and time-windowed fault exposure) are shard-layout-invariant.
    ///
    /// Placement is [`shard_index`] of the target's affinity address —
    /// where [`Population::shard`] registered a responder, and the
    /// address itself for silent fill — so a shard probes exactly the
    /// hosts it holds.
    pub(crate) fn shard(
        &self,
        shard: usize,
        shards: usize,
    ) -> impl Iterator<Item = (u64, Ipv4Addr)> + 'static {
        let population = Arc::clone(&self.population);
        let silent = Arc::clone(&self.silent);
        let resolvers = population.resolvers.len();
        let responders = resolvers + population.off_port.len();
        (0u64..)
            .zip(self.order.iter())
            .filter_map(move |(slot, index)| {
                let index = index as usize;
                let addr = if index < resolvers {
                    population.resolvers.addr(index)
                } else if index < responders {
                    population.off_port.addr(index - resolvers)
                } else {
                    silent[index - responders]
                };
                let affinity = || {
                    if index < resolvers {
                        population.affinity(index)
                    } else {
                        addr
                    }
                };
                (shards == 1 || shard_index(affinity(), shards) == shard).then_some((slot, addr))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use orscope_netsim::{fx_map_with_capacity, FxHashMap};
    use orscope_resolver::paper::Year;

    /// The plan as it used to be materialised on the master thread: the
    /// whole ordered target list, then a partition through an owner map
    /// filled from `Population::shard`'s parts.
    fn eager_plan(
        config: &CampaignConfig,
        spec: &YearSpec,
        population: &Population,
    ) -> (Vec<Vec<u64>>, Vec<Vec<Ipv4Addr>>) {
        let mut targets: Vec<Ipv4Addr> = population
            .resolvers
            .addrs()
            .chain(population.off_port.addrs())
            .collect();
        let responders = targets.len() as u64;
        let total = if config.full_q1 {
            ((spec.q1 as f64 / config.scale).round() as u64).max(responders)
        } else {
            responders + responders * FAST_MODE_SILENT_PER_RESPONDER
        };
        let used: FxHashSet<Ipv4Addr> = targets
            .iter()
            .copied()
            .chain(config.infra.addresses())
            .collect();
        let space = AllowedSpace::probeable();
        let mut ranks = ScanPermutation::new(space.len(), config.seed ^ 0x51E7).iter();
        while (targets.len() as u64) < total {
            let rank = ranks.next().expect("space exhausted") as u64;
            let addr = space.nth(rank).expect("rank in range");
            if !used.contains(&addr) {
                targets.push(addr);
            }
        }
        let order = ScanPermutation::new(targets.len() as u64, config.seed ^ 0x0DE2);
        let ordered: Vec<Ipv4Addr> = order.iter().map(|idx| targets[idx as usize]).collect();

        let shards = config.shards;
        let mut shard_targets: Vec<Vec<Ipv4Addr>> = vec![Vec::new(); shards];
        let mut shard_slots: Vec<Vec<u64>> = vec![Vec::new(); shards];
        if shards == 1 {
            shard_slots[0] = (0..ordered.len() as u64).collect();
            shard_targets[0] = ordered;
            return (shard_slots, shard_targets);
        }
        let parts = population.shard(shards);
        let mut owner: FxHashMap<Ipv4Addr, usize> = fx_map_with_capacity(population.len());
        for (index, part) in parts.iter().enumerate() {
            for addr in part
                .resolvers
                .addrs()
                .chain(part.off_port.addrs())
                .chain(part.upstreams.addrs())
            {
                owner.insert(addr, index);
            }
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
                    let plan = TargetPlan::new(&config, &spec, Arc::clone(&population));
                    for shard in 0..shards {
                        let (lazy_slots, lazy_targets): (Vec<u64>, Vec<Ipv4Addr>) =
                            plan.shard(shard, shards).unzip();
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

    #[test]
    fn shard_slot_sets_partition_the_scan() {
        // Property, swept over seeds: whatever the shard count, the
        // shards' slots are disjoint and together cover `0..len`, each
        // shard's in increasing order.
        for seed in 0..12u64 {
            let shards = 1 + (seed as usize * 5) % 8;
            let [config, _] = configs(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), shards);
            let spec = YearSpec::get(config.year);
            let population = Arc::new(Campaign::new(config.clone()).build_population());
            let plan = TargetPlan::new(&config, &spec, population);
            let mut seen = vec![false; plan.len() as usize];
            for shard in 0..shards {
                let mut previous = None;
                for (slot, _) in plan.shard(shard, shards) {
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
}
