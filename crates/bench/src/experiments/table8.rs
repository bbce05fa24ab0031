//! Table 8: wall-clock running time of the SPST planner.
//!
//! This is a *real* measurement of this reproduction's planner, not a
//! simulation: the exact sequential planner against the batched parallel
//! fast path (demand-class reuse + speculative batches,
//! `dgcl_plan::spst_plan_with_config`). Shape: time grows with graph
//! size/density and roughly linearly with the GPU count; the batched
//! planner's modelled plan cost stays within its 5% tolerance of the
//! sequential planner's.
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

use crate::harness::{cpus, obj, print_table, write_artifact, Json, RunContext};

fn planner_threads() -> usize {
    cpus().clamp(1, 8)
}

pub fn run(ctx: &mut RunContext) {
    let threads = planner_threads();
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
            let par =
                spst_plan_with_config(&pg, &topo, 1024, ctx.seed, SpstConfig::batched(threads));
            validate_plan(&seq.plan, &pg).expect("sequential plan invalid");
            validate_plan(&par.plan, &pg).expect("batched plan invalid");
            let speedup = seq.planning_seconds / par.planning_seconds.max(1e-9);
            let cost_ratio = par.cost.total_time() / seq.cost.total_time().max(1e-18);
            rows.push(vec![
                gpus.to_string(),
                dataset.name().to_string(),
                format!("{:.3}", seq.planning_seconds),
                format!("{:.3}", par.planning_seconds),
                format!("{speedup:.2}x"),
                format!("{cost_ratio:.3}"),
                format!(
                    "{}/{}/{}",
                    par.stats.cache_commits, par.stats.speculative_commits, par.stats.full_searches
                ),
            ]);
            records.push(obj! {
                "gpus": gpus,
                "dataset": dataset.name(),
                "seq_seconds": seq.planning_seconds,
                "par_seconds": par.planning_seconds,
                "speedup": speedup,
                "cost_ratio": cost_ratio,
                "cache_commits": par.stats.cache_commits,
                "speculative_commits": par.stats.speculative_commits,
                "full_searches": par.stats.full_searches,
                "demands": par.stats.demands,
                "seq_states_expanded": seq.stats.states_expanded,
                "seq_weight_evals": seq.stats.weight_evals,
                "par_states_expanded": par.stats.states_expanded,
                "par_weight_evals": par.stats.weight_evals,
            });
        }
    }
    print_table(
        &format!("Table 8: SPST planning time (s), sequential vs batched ({threads} threads), measured on this machine"),
        &[
            "GPUs",
            "Dataset",
            "Seq (s)",
            "Batched (s)",
            "Speedup",
            "Cost ratio",
            "cache/spec/full",
        ],
        &rows,
    );
    println!(
        "  (paper, full-scale C++: 0.74-9.91 Reddit, 4.61-110 Com-Orkut, 0.78-6.76\n   Web-Google, 0.37-3.14 Wiki-Talk for 2-16 GPUs; shape: grows with size,\n   density and GPU count. Default runs use scaled graphs — compare shape.\n   Cost ratio is batched/sequential modelled plan time; the batched\n   planner's tolerance bounds it near 1.)"
    );
    write_artifact(
        "spst",
        "spst_planning",
        obj! { "threads": threads, "tolerance": 0.05, "results": records },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_threads_is_positive_and_bounded() {
        let t = planner_threads();
        assert!((1..=8).contains(&t));
    }
}
