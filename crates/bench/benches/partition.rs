//! Criterion bench for the multilevel partitioner.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgcl_bench::RunContext;
use dgcl_graph::Dataset;
use dgcl_partition::hierarchical::hierarchical;
use dgcl_partition::multilevel::kway;

fn bench_partition(c: &mut Criterion) {
    let mut ctx = RunContext::new(false);
    let mut group = c.benchmark_group("partition");
    group.sample_size(10);
    for dataset in [Dataset::WebGoogle, Dataset::WikiTalk] {
        let graph = ctx.graph(dataset);
        for k in [4usize, 8] {
            group.bench_with_input(BenchmarkId::new(dataset.name(), k), &k, |b, &k| {
                b.iter(|| kway(&graph, k, 42))
            });
        }
    }
    // The `e2e` full-batch graphs: Reddit's dense edges make coarsening
    // dominate, and Wiki-Talk's machine-level split falls back to the next
    // free vertex tens of thousands of times while growing its parts.
    let reddit = Dataset::Reddit.generate(0.04, 7);
    group.bench_function("Reddit x0.04 kway k=2", |b| b.iter(|| kway(&reddit, 2, 42)));
    let wikitalk = Dataset::WikiTalk.generate(0.05, 7);
    group.bench_function("Wiki-Talk x0.05 hierarchical [8, 8]", |b| {
        b.iter(|| hierarchical(&wikitalk, &[8, 8], 42))
    });
    group.finish();
}

criterion_group!(benches, bench_partition);
criterion_main!(benches);
