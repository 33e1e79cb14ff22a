//! The four workloads and their frozen sizes.
//!
//! Sizes are calibrated once (see `AA.md`) and never adapted at run
//! time: an operation is the same work on both sides of any comparison,
//! and `--seconds` only decides how many fresh processes a run starts.

use orscope_core::CampaignConfig;
use orscope_observe::ServeConfig;
use orscope_resolver::paper::Year;

/// One benchmark workload. The names are fixed; later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One in three targets answers: the full Q1→Q2→R1→R2 chain does
    /// most of the work, planning little.
    ScanDense,
    /// The same input on two shard threads: what is left of the wall
    /// time is serial planning, merge and shard imbalance.
    ScanDense2sh,
    /// The paper's true 0.18 % hit rate: target planning, pacing and the
    /// scheduler dominate; resolver, authns and analysis nearly idle.
    ScanSparse,
    /// Hundreds of tiny campaign rounds under an HTTP reader: per-round
    /// set-up, table absorb, checkpoint rewrite and render dominate.
    ServeEpochs,
}

impl Workload {
    /// Every workload, in the order a full run executes them.
    pub const ALL: [Workload; 4] = [
        Workload::ScanDense,
        Workload::ScanDense2sh,
        Workload::ScanSparse,
        Workload::ServeEpochs,
    ];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanDense => "scan-dense",
            Workload::ScanDense2sh => "scan-dense-2sh",
            Workload::ScanSparse => "scan-sparse",
            Workload::ServeEpochs => "serve-epochs",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|workload| workload.name() == name)
    }
}

/// Everything that sizes a run. [`Params::frozen`] is the benchmark;
/// [`Params::smoke`] is the same code path shrunk for the harness tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// `scan-dense` / `scan-dense-2sh` scale (fast mode, one in three
    /// targets answers).
    pub dense_scale: f64,
    /// `scan-sparse` scale (full Q1).
    pub sparse_scale: f64,
    /// `serve-epochs` scale (the CLI default).
    pub serve_scale: f64,
    /// Epochs in one `Observatory::run()`.
    pub serve_epochs: u64,
    /// Checkpoint cadence of the serve workload.
    pub serve_checkpoint_every: u64,
    /// Fewest child processes of a timed run, however short `--seconds`
    /// is.
    pub min_children: usize,
    /// Untraced in-process reps (after one warm-up) a traced run takes
    /// `wall_s`, `cpu_s` and `events_per_s` from.
    pub reference_reps: usize,
    /// Sizes of the isolated layer timings of the traced run.
    pub layers: LayerParams,
}

/// Input sizes of the isolated layer timings.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerParams {
    /// Scale of the campaigns whose captures are replayed.
    pub capture_scale: f64,
    /// Timers drained through a bare `SimNet`.
    pub timers: u64,
    /// Datagram deliveries of the echo ping-pong.
    pub hops: u64,
    /// Ranks pushed through the scan permutation.
    pub ranks: u64,
    /// Epochs of real history the rolling-table timings start from.
    pub seed_epochs: u64,
    /// Epochs of history the rolling-table timings are taken at.
    pub history_epochs: u64,
    /// Epochs of history the checkpoint timings are taken at (shorter:
    /// recovery is quadratic in the history, see README).
    pub checkpoint_epochs: u64,
    /// Tiny campaign rounds summed when the serve workload attributes
    /// its per-round cost.
    pub proxy_rounds: u64,
}

impl Params {
    /// The benchmark's sizes (reference host: 2 CPUs, ~1 s per
    /// operation).
    pub fn frozen() -> Self {
        Self {
            dense_scale: 100.0,
            sparse_scale: 3_000.0,
            serve_scale: 20_000.0,
            serve_epochs: 400,
            serve_checkpoint_every: 50,
            min_children: 5,
            reference_reps: 5,
            layers: LayerParams {
                capture_scale: 200.0,
                timers: 400_000,
                hops: 200_000,
                ranks: 1_000_000,
                seed_epochs: 300,
                history_epochs: 3_000,
                checkpoint_epochs: 1_000,
                proxy_rounds: 200,
            },
        }
    }

    /// Every code path at a size the test suite can afford.
    pub fn smoke() -> Self {
        Self {
            dense_scale: 2_000.0,
            sparse_scale: 60_000.0,
            serve_scale: 20_000.0,
            serve_epochs: 20,
            serve_checkpoint_every: 5,
            min_children: 2,
            reference_reps: 2,
            layers: LayerParams {
                capture_scale: 20_000.0,
                timers: 5_000,
                hops: 5_000,
                ranks: 20_000,
                seed_epochs: 10,
                history_epochs: 40,
                checkpoint_epochs: 20,
                proxy_rounds: 3,
            },
        }
    }

    /// The campaign a scan workload repeats (`None` for the serve
    /// workload). Library defaults otherwise: streaming analysis, lazy
    /// materialization, wheel scheduler, telemetry on.
    pub fn campaign(&self, workload: Workload, seed: u64) -> Option<CampaignConfig> {
        let config = match workload {
            Workload::ScanDense => CampaignConfig::new(Year::Y2018, self.dense_scale),
            Workload::ScanDense2sh => {
                CampaignConfig::new(Year::Y2018, self.dense_scale).with_shards(2)
            }
            Workload::ScanSparse => {
                CampaignConfig::new(Year::Y2018, self.sparse_scale).with_full_q1()
            }
            Workload::ServeEpochs => return None,
        };
        Some(config.with_seed(seed))
    }

    /// The tiny campaign one serve epoch runs, for attributing a
    /// round's cost to planning, probing and merging.
    pub fn serve_round(&self, seed: u64) -> CampaignConfig {
        CampaignConfig::new(Year::Y2018, self.serve_scale).with_seed(seed)
    }

    /// The serve workload's configuration for `epochs` epochs in
    /// `state_dir` (everything else is the library default).
    pub fn serve(&self, seed: u64, epochs: u64, state_dir: std::path::PathBuf) -> ServeConfig {
        let mut config = ServeConfig::new(Year::Y2018, self.serve_scale);
        config.seed = seed;
        config.epochs = Some(epochs);
        config.checkpoint_every = self.serve_checkpoint_every;
        config.keep_generations = 3;
        config.state_dir = state_dir;
        config
    }

    /// The sizes as JSON, stamped on every output.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "dense_scale": self.dense_scale,
            "sparse_scale": self.sparse_scale,
            "serve_scale": self.serve_scale,
            "serve_epochs": self.serve_epochs,
            "serve_checkpoint_every": self.serve_checkpoint_every,
            "min_children": self.min_children,
            "reference_reps": self.reference_reps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("scan"), None);
    }

    #[test]
    fn dense_workloads_differ_only_in_shards() {
        let params = Params::frozen();
        let one = params.campaign(Workload::ScanDense, 9).unwrap();
        let two = params.campaign(Workload::ScanDense2sh, 9).unwrap();
        assert_eq!(one.clone().with_shards(2), two);
        assert_eq!(one.seed, 9);
        assert!(params.campaign(Workload::ScanSparse, 9).unwrap().full_q1);
        assert!(params.campaign(Workload::ServeEpochs, 9).is_none());
    }
}
