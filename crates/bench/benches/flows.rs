//! The qname-keyed four-flow join of section III-B.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use orscope_analysis::FlowSet;
use orscope_bench::campaign_2018;

fn bench(c: &mut Criterion) {
    let result = campaign_2018();
    let mut g = c.benchmark_group("flows");
    g.bench_function("match_q1_q2_r1_r2", |b| {
        b.iter(|| {
            let flows = FlowSet::match_records(
                &result.dataset().records,
                result.auth_packets(),
                &result.config().infra.zone,
            );
            black_box(flows.len())
        })
    });
    let flows = result.flows();
    g.bench_function("latency_quantiles", |b| {
        b.iter(|| black_box(flows.latency_quantile(0.5)))
    });
    g.bench_function("fanout", |b| b.iter(|| black_box(flows.mean_q2_fanout())));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
