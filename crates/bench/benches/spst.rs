//! Criterion bench for the SPST planner (Table 8's measurement).
//!
//! Benchmarks the exact sequential planner against the batched fast
//! path (`SpstConfig::batched`) at one and several threads, so the
//! demand-class-reuse win and the thread-scaling win are visible
//! separately. One more cell runs the exact planner on the `e2e`
//! `fullbatch-halo` inputs (Wiki-Talk ×0.05 on two IB-joined DGX-1s,
//! hierarchical partition): at 16 GPUs the search may use fifteen
//! stages, most of them still empty, which 4 and 8 GPUs never show.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgcl_bench::RunContext;
use dgcl_graph::Dataset;
use dgcl_plan::{spst_plan, spst_plan_with_config, SpstConfig};
use dgcl_sim::epoch::partition_for;
use dgcl_topology::Topology;

fn bench_spst(c: &mut Criterion) {
    let mut ctx = RunContext::new(false);
    let mut group = c.benchmark_group("spst");
    group.sample_size(10);
    for dataset in [Dataset::WebGoogle, Dataset::WikiTalk] {
        let graph = ctx.graph(dataset);
        for gpus in [4usize, 8] {
            let topo = Topology::for_gpu_count(gpus);
            let pg = partition_for(&graph, &topo, ctx.seed);
            group.bench_with_input(
                BenchmarkId::new(format!("{}-seq", dataset.name()), gpus),
                &gpus,
                |b, _| b.iter(|| spst_plan(&pg, &topo, 1024, 42)),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{}-batched1", dataset.name()), gpus),
                &gpus,
                |b, _| {
                    b.iter(|| spst_plan_with_config(&pg, &topo, 1024, 42, SpstConfig::batched(1)))
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{}-batched4", dataset.name()), gpus),
                &gpus,
                |b, _| {
                    b.iter(|| spst_plan_with_config(&pg, &topo, 1024, 42, SpstConfig::batched(4)))
                },
            );
        }
    }
    let graph = Dataset::WikiTalk.generate(0.05, 7);
    let topo = Topology::dgx1_pair_ib();
    let pg = partition_for(&graph, &topo, 42);
    group.bench_function("Wiki-Talk-x0.05-seq/16", |b| {
        b.iter(|| spst_plan(&pg, &topo, 1024, 42))
    });
    group.finish();
}

criterion_group!(benches, bench_spst);
criterion_main!(benches);
