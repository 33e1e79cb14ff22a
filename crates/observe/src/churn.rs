//! Deterministic, seeded population churn.
//!
//! [`ChurnModel`] is the built-in [`Resolve`] implementation: it
//! generates a *pool* population larger than the target size (the
//! calibrated paper mix, with headroom), activates a seeded random
//! subset as epoch 0's membership, and then, every epoch, retires a
//! slice of the active set, activates spares in their place, and drifts
//! a slice of survivors onto new behavior profiles drawn from the pool
//! mix. Every draw comes from a SplitMix64 stream keyed on `(seed,
//! epoch)`, so the entire membership history is a pure function of the
//! seed: two observatories with the same seed see byte-identical churn
//! regardless of shard count, wall-clock pacing, or restarts (resume
//! replays the early epochs' updates without re-running their scans).
//!
//! Churn is modeled after what the measurement literature actually
//! observed: the open-resolver population is dominated by embedded CPE
//! devices with high address turnover (Nawrocki et al.'s transparent-
//! forwarder study), and its behavioral mix shifted dramatically
//! between the paper's 2013 and 2018 snapshots — drift here is a
//! device being re-provisioned, so a departing endpoint that later
//! re-joins comes back with its factory profile.

use std::collections::VecDeque;
use std::sync::Arc;

use orscope_resolver::population::{HostList, Population, PopulationConfig};

use crate::resolve::{Resolution, Resolve, Update};

/// Per-epoch churn intensities, as fractions of the current population.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Fraction of the population that joins each epoch (drawn from the
    /// spare pool; clamped when the pool runs dry).
    pub join_rate: f64,
    /// Fraction of the population that leaves each epoch.
    pub leave_rate: f64,
    /// Fraction of the population whose profile drifts each epoch.
    pub drift_rate: f64,
    /// Pool headroom: the generated pool is `(1 + headroom)` times the
    /// target population, the excess forming the spare reservoir joins
    /// draw from.
    pub pool_headroom: f64,
    /// Seed of the churn draw stream (mixed per epoch).
    pub seed: u64,
}

impl Default for ChurnConfig {
    /// Gentle defaults: ~5% monthly-scale turnover compressed into
    /// virtual days, with a drift rate high enough that a short serve
    /// run already shows profile-mix movement.
    fn default() -> Self {
        Self {
            join_rate: 0.04,
            leave_rate: 0.05,
            drift_rate: 0.06,
            pool_headroom: 1.0,
            seed: 0x0B5E_0019,
        }
    }
}

impl ChurnConfig {
    /// Checks the knobs for operator errors.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range knob.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("join_rate", self.join_rate),
            ("leave_rate", self.leave_rate),
            ("drift_rate", self.drift_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} {rate} not in [0, 1]"));
            }
        }
        if !(self.pool_headroom.is_finite() && (0.0..=8.0).contains(&self.pool_headroom)) {
            return Err(format!(
                "pool_headroom {} not in [0, 8]",
                self.pool_headroom
            ));
        }
        Ok(())
    }
}

/// Sebastiano Vigna's SplitMix64: the weakest generator that is still
/// statistically fine for membership draws, chosen because its state is
/// a single `u64` — reseeding per epoch makes every epoch's batch
/// independently reproducible, which is what lets resume fast-forward
/// churn without replaying scans.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`0` when `n == 0`). Modulo bias is irrelevant
    /// at population sizes ≪ 2^64.
    pub(crate) fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// In-place Fisher–Yates shuffle.
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// The built-in churn-driven population discovery.
#[derive(Debug, Clone, Default)]
pub struct ChurnModel {
    config: ChurnConfig,
}

impl ChurnModel {
    /// A model with the given intensities.
    pub fn new(config: ChurnConfig) -> Self {
        Self { config }
    }

    /// The configured intensities.
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }
}

impl Resolve for ChurnModel {
    type Resolution = ChurnResolution;

    fn resolve(&self, target: &PopulationConfig) -> ChurnResolution {
        let headroom = 1.0 + self.config.pool_headroom;
        let mut pool_config = target.clone();
        // PopulationConfig.scale is a divisor (1:scale), so dividing it
        // by the headroom factor generates proportionally more hosts.
        pool_config.scale = target.scale / headroom;
        let mut pool = Population::generate(&pool_config);
        // The pool is bookkeeping for the *target* scale; keep the label
        // honest for downstream consumers.
        pool.scale = target.scale;
        let mut indices: Vec<usize> = (0..pool.resolvers.len()).collect();
        SplitMix64::new(self.config.seed ^ 0xC0FF_EE00).shuffle(&mut indices);
        let target_size = ((pool.resolvers.len() as f64 / headroom).round() as usize)
            .clamp(1, pool.resolvers.len().max(1));
        let spares = indices.split_off(target_size.min(indices.len()));
        ChurnResolution {
            config: self.config.clone(),
            pool,
            active: indices,
            spares,
            pending: VecDeque::new(),
            next_epoch: 0,
        }
    }
}

/// The update stream a [`ChurnModel`] produces.
#[derive(Debug, Clone)]
pub struct ChurnResolution {
    config: ChurnConfig,
    /// The full generated pool (active ∪ spares), plus the static seed
    /// lists every epoch population shares.
    pool: Population,
    /// Pool indices currently in the population.
    active: Vec<usize>,
    /// Pool indices currently dormant.
    spares: Vec<usize>,
    /// The undrained remainder of the current epoch's batch.
    pending: VecDeque<Update>,
    /// First epoch whose batch has not been generated yet.
    next_epoch: u64,
}

impl ChurnResolution {
    /// The `Add` that brings pool host `index` into the population.
    fn add(&self, index: usize) -> Update {
        let hosts = &self.pool.resolvers;
        Update::Add {
            addr: hosts.addr(index),
            profile: hosts.profile_id(index),
            country: hosts.country_id(index),
        }
    }

    /// Appends epoch `epoch`'s batch to `pending` and updates the
    /// active/spare split to match.
    fn generate_batch(&mut self, epoch: u64) {
        if epoch == 0 {
            // Initial discovery: the whole starting membership arrives
            // as `Add`s, exactly like a discovery stream warming up.
            for &i in &self.active {
                self.pending.push_back(self.add(i));
            }
            return;
        }
        let mut rng = SplitMix64::new(
            self.config
                .seed
                .wrapping_add(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let base = self.active.len() as f64;
        let leaves = (base * self.config.leave_rate) as usize;
        let joins = (base * self.config.join_rate) as usize;
        let drifts = (base * self.config.drift_rate) as usize;
        for _ in 0..leaves {
            if self.active.len() <= 1 {
                break; // never churn the population out of existence
            }
            let slot = rng.below(self.active.len());
            let index = self.active.swap_remove(slot);
            self.spares.push(index);
            self.pending
                .push_back(Update::Remove(self.pool.resolvers.addr(index)));
        }
        for _ in 0..joins {
            if self.spares.is_empty() {
                break; // pool exhausted: joins clamp, documented above
            }
            let slot = rng.below(self.spares.len());
            let index = self.spares.swap_remove(slot);
            self.active.push(index);
            self.pending.push_back(self.add(index));
        }
        for _ in 0..drifts {
            if self.active.is_empty() {
                break;
            }
            let member = self.active[rng.below(self.active.len())];
            // The new profile is drawn from the whole pool mix, so drift
            // pressure pushes the live mix toward the calibrated year
            // distribution rather than toward any single class.
            let donor = rng.below(self.pool.resolvers.len());
            self.pending.push_back(Update::Drift {
                addr: self.pool.resolvers.addr(member),
                to: self.pool.resolvers.profile_id(donor),
            });
        }
    }
}

impl Resolution for ChurnResolution {
    fn poll_update(&mut self, epoch: u64) -> Option<Update> {
        while self.next_epoch <= epoch {
            let generate = self.next_epoch;
            self.generate_batch(generate);
            self.next_epoch += 1;
        }
        self.pending.pop_front()
    }

    fn seed_population(&self) -> Population {
        Population {
            year: self.pool.year,
            scale: self.pool.scale,
            resolvers: HostList::default(),
            malicious_answers: self.pool.malicious_answers.clone(),
            answer_orgs: self.pool.answer_orgs.clone(),
            off_port: self.pool.off_port.clone(),
            upstreams: self.pool.upstreams.clone(),
            table: Arc::clone(&self.pool.table),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orscope_resolver::paper::Year;

    impl ChurnResolution {
        /// Hosts currently active (after the last generated epoch).
        fn active_size(&self) -> usize {
            self.active.len()
        }

        /// Total hosts in the generated pool.
        fn pool_size(&self) -> usize {
            self.pool.resolvers.len()
        }
    }

    fn drain(res: &mut ChurnResolution, epoch: u64) -> Vec<Update> {
        let mut out = Vec::new();
        while let Some(update) = res.poll_update(epoch) {
            out.push(update);
        }
        out
    }

    fn model() -> ChurnModel {
        ChurnModel::new(ChurnConfig {
            join_rate: 0.10,
            leave_rate: 0.10,
            drift_rate: 0.10,
            pool_headroom: 1.0,
            seed: 42,
        })
    }

    #[test]
    fn epoch_zero_delivers_the_initial_population() {
        let target = PopulationConfig::new(Year::Y2018, 50_000.0);
        let mut res = model().resolve(&target);
        let batch = drain(&mut res, 0);
        assert_eq!(batch.len(), res.active_size());
        assert!(batch.iter().all(|u| matches!(u, Update::Add { .. })));
        // Headroom 1.0: about half the pool starts active.
        let active = res.active_size() as f64;
        let pool = res.pool_size() as f64;
        assert!((active / pool - 0.5).abs() < 0.05, "{active}/{pool}");
    }

    #[test]
    fn churn_is_a_pure_function_of_the_seed() {
        let target = PopulationConfig::new(Year::Y2018, 50_000.0);
        let run = || {
            let mut res = model().resolve(&target);
            (0..4).map(|e| drain(&mut res, e)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_churn_differently() {
        let target = PopulationConfig::new(Year::Y2018, 50_000.0);
        let mut a = model().resolve(&target);
        let mut b = ChurnModel::new(ChurnConfig {
            seed: 43,
            ..model().config().clone()
        })
        .resolve(&target);
        let _ = (drain(&mut a, 0), drain(&mut b, 0));
        assert_ne!(drain(&mut a, 1), drain(&mut b, 1));
    }

    #[test]
    fn batches_move_members_between_active_and_spares() {
        let target = PopulationConfig::new(Year::Y2018, 50_000.0);
        let mut res = model().resolve(&target);
        let _ = drain(&mut res, 0);
        let before = res.active_size();
        let batch = drain(&mut res, 1);
        let adds = batch
            .iter()
            .filter(|u| matches!(u, Update::Add { .. }))
            .count();
        let removes = batch
            .iter()
            .filter(|u| matches!(u, Update::Remove(_)))
            .count();
        let drifts = batch
            .iter()
            .filter(|u| matches!(u, Update::Drift { .. }))
            .count();
        assert!(removes > 0 && adds > 0 && drifts > 0, "{batch:?}");
        assert_eq!(res.active_size(), before - removes + adds);
    }

    #[test]
    fn joins_clamp_when_the_pool_runs_dry() {
        let target = PopulationConfig::new(Year::Y2018, 50_000.0);
        let mut res = ChurnModel::new(ChurnConfig {
            join_rate: 1.0,
            leave_rate: 0.0,
            drift_rate: 0.0,
            pool_headroom: 0.2,
            seed: 7,
        })
        .resolve(&target);
        let _ = drain(&mut res, 0);
        for epoch in 1..6 {
            let _ = drain(&mut res, epoch);
            assert!(res.active_size() <= res.pool_size());
        }
        assert_eq!(res.active_size(), res.pool_size(), "pool fully drained");
        assert!(drain(&mut res, 6).is_empty(), "no spares left to join");
    }

    #[test]
    fn seed_population_carries_statics_but_no_members() {
        let target = PopulationConfig::new(Year::Y2018, 50_000.0);
        let res = model().resolve(&target);
        let seeded = res.seed_population();
        assert!(seeded.resolvers.is_empty());
        assert!(!seeded.malicious_answers.is_empty());
        assert_eq!(seeded.scale, 50_000.0, "labeled at target scale");
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let bad_rate = ChurnConfig {
            join_rate: 1.5,
            ..ChurnConfig::default()
        };
        assert!(bad_rate.validate().is_err());
        let bad_headroom = ChurnConfig {
            pool_headroom: -1.0,
            ..ChurnConfig::default()
        };
        assert!(bad_headroom.validate().is_err());
        assert!(ChurnConfig::default().validate().is_ok());
    }

    #[test]
    fn splitmix_shuffle_is_deterministic() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b: Vec<u32> = (0..100).collect();
        SplitMix64::new(9).shuffle(&mut a);
        SplitMix64::new(9).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..100).collect();
        SplitMix64::new(10).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
