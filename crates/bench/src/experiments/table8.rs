//! Table 8: wall-clock running time of the SPST planner.
//!
//! This is a *real* measurement of this reproduction's planner, not a
//! simulation: the exact planner against the demand-class cache
//! (`SpstConfig::cached()`, `dgcl_plan::spst_plan_with_config`). Shape:
//! time grows with graph size/density and roughly linearly with the GPU
//! count. The cached planner, which `build_comm_info` plans with by
//! default, is held to a modelled plan cost at most 1.10 times the exact
//! planner's on every cell: CI runs this table at seeds 7, 13 and 42 and
//! checks each artifact's `cost_ratio`. The worst cell read 1.029
//! (Reddit at 4 GPUs, seed 13) when that gate was set.
//!
//! Besides the text table, the run emits `BENCH_spst.json` next to the
//! working directory so CI can track planning speedups machine-readably,
//! with each planner's deterministic search counters (states expanded,
//! weights priced) beside the wall-clock times.

use dgcl_graph::Dataset;
use dgcl_plan::plan::validate_plan;
use dgcl_plan::{spst_plan, spst_plan_with_config, SpstConfig};
use dgcl_sim::epoch::partition_for;
use dgcl_topology::Topology;

use crate::harness::{obj, print_table, write_artifact, Json, RunContext};

pub fn run(ctx: &mut RunContext) {
    let mut rows = Vec::new();
    let mut records: Vec<Json> = Vec::new();
    for gpus in [2usize, 4, 8, 16] {
        let topo = Topology::for_gpu_count(gpus);
        for dataset in [
            Dataset::Reddit,
            Dataset::ComOrkut,
            Dataset::WebGoogle,
            Dataset::WikiTalk,
        ] {
            let graph = ctx.graph(dataset);
            let pg = partition_for(&graph, &topo, ctx.seed);
            let seq = spst_plan(&pg, &topo, 1024, ctx.seed);
            let cached = spst_plan_with_config(&pg, &topo, 1024, ctx.seed, SpstConfig::cached());
            validate_plan(&seq.plan, &pg).expect("exact plan invalid");
            validate_plan(&cached.plan, &pg).expect("cached plan invalid");
            let speedup = seq.planning_seconds / cached.planning_seconds.max(1e-9);
            let cost_ratio = cached.cost.total_time() / seq.cost.total_time().max(1e-18);
            rows.push(vec![
                gpus.to_string(),
                dataset.name().to_string(),
                format!("{:.3}", seq.planning_seconds),
                format!("{:.3}", cached.planning_seconds),
                format!("{speedup:.2}x"),
                format!("{cost_ratio:.3}"),
                format!(
                    "{}/{}",
                    cached.stats.cache_commits, cached.stats.full_searches
                ),
            ]);
            records.push(obj! {
                "gpus": gpus,
                "dataset": dataset.name(),
                "seq_seconds": seq.planning_seconds,
                "cached_seconds": cached.planning_seconds,
                "speedup": speedup,
                "cost_ratio": cost_ratio,
                "cache_commits": cached.stats.cache_commits,
                "full_searches": cached.stats.full_searches,
                "demands": cached.stats.demands,
                "seq_states_expanded": seq.stats.states_expanded,
                "seq_weight_evals": seq.stats.weight_evals,
                "cached_states_expanded": cached.stats.states_expanded,
                "cached_weight_evals": cached.stats.weight_evals,
            });
        }
    }
    print_table(
        "Table 8: SPST planning time (s), exact vs class-cached, measured on this machine",
        &[
            "GPUs",
            "Dataset",
            "Exact (s)",
            "Cached (s)",
            "Speedup",
            "Cost ratio",
            "cache/full",
        ],
        &rows,
    );
    println!(
        "  (paper, full-scale C++: 0.74-9.91 Reddit, 4.61-110 Com-Orkut, 0.78-6.76\n   Web-Google, 0.37-3.14 Wiki-Talk for 2-16 GPUs; shape: grows with size,\n   density and GPU count. Default runs use scaled graphs — compare shape.\n   Cost ratio is cached/exact modelled plan time; CI holds it at or\n   below 1.10 at seeds 7, 13 and 42.)"
    );
    write_artifact(
        "spst",
        "spst_planning",
        obj! { "tolerance": SpstConfig::cached().tolerance, "results": records },
    );
}
