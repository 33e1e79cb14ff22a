//! The eager reference for lazy host materialization.
//!
//! Production materializes every probed resolver on its first packet,
//! releases it once it is quiescent, and re-arms released resolvers for
//! the next address (`PopulationRegistry`'s pool). The reference is the
//! same world with every probed host `register`ed before the scan
//! starts, as the pipeline originally did: a registered slot is pinned,
//! so the lazy registry is never consulted, nothing is ever released or
//! recycled, and every host is handed every late R1 and spent upstream
//! timeout that the lazy world settles without building anyone — which
//! makes this the referee that the skipped work was a no-op. Reports
//! must not tell the two apart — at any shard count, in either analysis
//! mode, with or without faults (which pin materialized hosts and so
//! exercise the other half of the lazy path).

use orscope_analysis::AnalysisMode;
use orscope_resolver::paper::Year;
use orscope_resolver::population::{Member, Population};
use orscope_resolver::ProfiledResolver;

use crate::campaign::{Campaign, CampaignConfig, ShardWorld};
use crate::host::Host;
use crate::result::CampaignResult;

impl ShardWorld {
    /// Registers every resolver and off-port responder of `population`
    /// that shard `shard` of `shards` holds up front, wired exactly as the
    /// lazy registry would build them.
    pub(crate) fn preregister_hosts(
        &mut self,
        population: &Population,
        shard: usize,
        shards: usize,
        config: &CampaignConfig,
    ) {
        let holds = |member| population.home(member, shards) == shard;
        let resolvers = population.resolvers().enumerate();
        let off_port = population.off_port().enumerate();
        let held = (resolvers.filter(|&(i, _)| holds(Member::Resolver(i))))
            .chain(off_port.filter(|&(i, _)| holds(Member::OffPort(i))));
        for (_, host) in held {
            let resolver =
                ProfiledResolver::new_shared(std::sync::Arc::clone(host.policy), config.infra.root);
            self.net
                .insert(host.addr, Host::Resolver(Box::new(resolver)));
        }
    }
}

fn run(config: CampaignConfig, eager: bool) -> CampaignResult {
    let mut campaign = Campaign::new(config);
    campaign.preregister_hosts = eager;
    campaign.run().unwrap()
}

#[test]
fn lazy_and_eager_render_byte_identical_reports() {
    let config = |shards: usize, analysis: AnalysisMode| {
        CampaignConfig::new(Year::Y2018, 20_000.0)
            .with_shards(shards)
            .with_analysis(analysis)
    };
    let baseline = run(config(1, AnalysisMode::Batch), true);
    assert_eq!(
        baseline.materialized_hosts(),
        0,
        "the reference registers every host up front"
    );
    let baseline_tables = baseline.tables_json();
    let baseline_render = baseline.render();
    for eager in [false, true] {
        for analysis in [AnalysisMode::Streaming, AnalysisMode::Batch] {
            for shards in [1, 2, 4] {
                let result = run(config(shards, analysis), eager);
                let context = format!("eager {eager} x {analysis} x {shards} shards");
                assert_eq!(
                    result.materialized_hosts() > 0,
                    !eager,
                    "only the lazy world materializes on demand: {context}"
                );
                if !eager {
                    // One materialization per responder (the late R1s
                    // and spent timers that trail a resolution are
                    // settled without a host, while the eager world
                    // hands its hosts every one of them) and only a few
                    // hosts live at once: nearly all of them came out
                    // of the pool.
                    assert!(
                        result.materializations() > 10 * result.materialized_hosts() as u64,
                        "the lazy world released and recycled: {context}"
                    );
                }
                assert_eq!(result.dataset().r2(), baseline.dataset().r2(), "{context}");
                assert_eq!(result.tables_json(), baseline_tables, "{context}");
                assert_eq!(result.render(), baseline_render, "{context}");
            }
        }
    }
}

#[test]
fn lazy_matches_the_reference_under_fault_injection() {
    // Loss and duplication reshape delivery (dropped R2s, duplicate
    // deliveries) and also disable quiescence release — fault rules hash
    // per-flow ordinals, so slots must pin. The lazy world still has to
    // classify exactly as the eager one.
    let config = |shards: usize, analysis: AnalysisMode| {
        CampaignConfig::new(Year::Y2018, 40_000.0)
            .with_loss(0.1)
            .with_duplication(0.05)
            .with_shards(shards)
            .with_analysis(analysis)
    };
    for analysis in [AnalysisMode::Streaming, AnalysisMode::Batch] {
        for shards in [1, 2, 4] {
            let lazy = run(config(shards, analysis), false);
            let eager = run(config(shards, analysis), true);
            let context = format!("{analysis} x {shards} shards");
            assert!(lazy.materialized_hosts() > 0, "{context}");
            // Pinned: each host is materialized once and stays.
            assert_eq!(
                lazy.materializations(),
                lazy.materialized_hosts() as u64,
                "{context}"
            );
            assert_eq!(eager.materialized_hosts(), 0, "{context}");
            assert_eq!(lazy.tables_json(), eager.tables_json(), "{context}");
            assert_eq!(lazy.render(), eager.render(), "{context}");
        }
    }
}
