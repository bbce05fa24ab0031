//! Recovery benchmark: warm replan vs cold plan, and end-to-end
//! elastic recovery.
//!
//! Two questions, straight from the elastic-recovery design:
//!
//! * **Replan cost** — after an eviction the survivors' demands fall
//!   into few demand classes, so replanning with the demand-class
//!   cache (`SpstConfig::cached()`) should resolve most demands from cache
//!   where the exact cold planner runs a full spanning-tree search per
//!   demand. Measured per graph on the 3-GPU survivor topology:
//!   wall-clock (best of N) plus the planner's own demand-resolution
//!   counters.
//! * **Recovery cost** — one full `train_elastic` run per (graph,
//!   crash mode) with an injected crash: epochs lost to the crash,
//!   the epoch resumed from, the replan share and the end-to-end wall
//!   clock including the recovery round.
//!
//! Results go to `BENCH_recovery.json`. Set `DGCL_BENCH_SMOKE=1` to
//! shrink sizes and repetitions for CI smoke runs.

use std::time::Instant;

use dgcl::trainer::TrainConfig;
use dgcl::{train_elastic, FabricConfig, FaultPlan, RecoveryConfig};
use dgcl_gnn::Architecture;
use dgcl_graph::Dataset;
use dgcl_plan::{spst_plan_with_config, SpstConfig};
use dgcl_sim::epoch::partition_for;
use dgcl_tensor::XavierInit;
use dgcl_topology::Topology;

use crate::harness::{ms, obj, print_table, smoke, write_artifact, Json, RunContext};

/// Best-of-`reps` of a body returning its own wall time in seconds
/// (planning is minimum-meaningful: noise only ever adds).
fn best_of<F: FnMut() -> f64>(reps: usize, mut body: F) -> f64 {
    (0..reps.max(1))
        .map(|_| body())
        .fold(f64::INFINITY, f64::min)
}

pub fn run(ctx: &mut RunContext) {
    let smoke = smoke();
    let reps = if smoke { 2 } else { 5 };

    // Replan comparison: the topology recovery actually replans on —
    // fig6 with one GPU evicted. Timed at the planner (the partition
    // and table compilation around it are identical either way). The
    // warm planner is the one `train_elastic` replans with.
    let survivors = Topology::fig6().evict_gpus(&[2]);
    let warm_config = SpstConfig::cached();
    let mut replans: Vec<Json> = Vec::new();
    let mut rows = Vec::new();
    for dataset in [Dataset::WikiTalk, Dataset::WebGoogle] {
        let graph = ctx.graph(dataset);
        let pg = partition_for(&graph, &survivors, ctx.seed);
        let cold = spst_plan_with_config(&pg, &survivors, 1024, ctx.seed, SpstConfig::default());
        let warm = spst_plan_with_config(&pg, &survivors, 1024, ctx.seed, warm_config);
        let cold_seconds = best_of(reps, || {
            spst_plan_with_config(&pg, &survivors, 1024, ctx.seed, SpstConfig::default())
                .planning_seconds
        });
        let warm_seconds = best_of(reps, || {
            spst_plan_with_config(&pg, &survivors, 1024, ctx.seed, warm_config).planning_seconds
        });
        let cold_stats = cold.stats;
        let warm_stats = warm.stats;
        assert!(
            warm_stats.full_searches < cold_stats.full_searches,
            "{}: warm replan must search less than cold ({warm_stats:?} vs {cold_stats:?})",
            dataset.name()
        );
        let speedup = cold_seconds / warm_seconds.max(1e-12);
        rows.push(vec![
            dataset.name().to_string(),
            ms(cold_seconds),
            ms(warm_seconds),
            format!("{speedup:.2}x"),
            cold_stats.full_searches.to_string(),
            format!(
                "{} ({} cached)",
                warm_stats.full_searches, warm_stats.cache_commits
            ),
        ]);
        replans.push(obj! {
            "dataset": dataset.name(),
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": speedup,
            "demands": cold_stats.demands,
            "cold_full_searches": cold_stats.full_searches,
            "warm_full_searches": warm_stats.full_searches,
            "warm_cache_commits": warm_stats.cache_commits,
            "warm_beats_cold": warm_seconds < cold_seconds,
        });
    }
    print_table(
        "Recovery: survivor replan, cold exact vs warm class-cached (3 GPUs)",
        &[
            "Dataset",
            "Cold (ms)",
            "Warm (ms)",
            "Speedup",
            "Cold searches",
            "Warm searches",
        ],
        &rows,
    );
    println!(
        "  (cold = exact sequential planner, one spanning-tree search per demand;\n   warm = demand-class cache resolving repeat classes.)"
    );

    // End-to-end: inject one crash per mode and run the elastic driver.
    let epochs = if smoke { 3 } else { 6 };
    let mut recoveries: Vec<Json> = Vec::new();
    let mut rec_rows = Vec::new();
    let mut init = XavierInit::new(ctx.seed);
    for dataset in [Dataset::WikiTalk, Dataset::WebGoogle] {
        let graph = ctx.graph(dataset);
        let nv = graph.num_vertices();
        let features = init.features(nv, 8);
        let targets = init.features(nv, 4);
        let cfg = TrainConfig::new(Architecture::Gcn, &[8, 4], epochs);
        for (crash, faults) in [
            ("at-epoch", FaultPlan::crash_at_epoch(1, epochs / 2)),
            ("mid-op", FaultPlan::seeded_crash(9, 4, epochs)),
        ] {
            let rcfg = RecoveryConfig {
                fabrics: vec![FabricConfig {
                    faults,
                    ..FabricConfig::default()
                }],
                ..RecoveryConfig::default()
            };
            let t = Instant::now();
            let elastic = train_elastic(&graph, Topology::fig6(), &features, &targets, &cfg, &rcfg)
                .expect("one crash fits the eviction budget");
            let run_seconds = t.elapsed().as_secs_f64();
            assert_eq!(elastic.events.len(), 1, "exactly one recovery round");
            assert_eq!(
                elastic.report.epoch_losses.len(),
                epochs,
                "training reached the epoch target"
            );
            let ev = &elastic.events[0];
            rec_rows.push(vec![
                dataset.name().to_string(),
                crash.to_string(),
                format!("{}/{epochs}", ev.resumed_epoch),
                ev.epochs_lost.to_string(),
                ms(ev.replan_seconds),
                ms(run_seconds),
                elastic.final_devices.to_string(),
            ]);
            recoveries.push(obj! {
                "dataset": dataset.name(),
                "crash": crash,
                "epochs": epochs,
                "resumed_epoch": ev.resumed_epoch,
                "epochs_lost": ev.epochs_lost,
                "replan_seconds": ev.replan_seconds,
                "run_seconds": run_seconds,
                "survivors": elastic.final_devices,
            });
        }
    }
    print_table(
        "Recovery: end-to-end elastic run with one injected crash (4 GPUs)",
        &[
            "Dataset",
            "Crash",
            "Resumed at",
            "Epochs lost",
            "Replan (ms)",
            "Run (ms)",
            "Survivors",
        ],
        &rec_rows,
    );
    println!(
        "  (per-epoch in-memory checkpoints: completed epochs are never lost;\n   `epochs lost` counts full epochs discarded, the in-flight one aside.)"
    );

    write_artifact(
        "recovery",
        "recovery",
        obj! { "smoke": smoke, "replan": replans, "recovery": recoveries },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_picks_the_minimum() {
        let mut sample = [0.4, 0.2, 0.3].into_iter();
        let s = best_of(3, || sample.next().unwrap());
        assert_eq!(s, 0.2);
    }
}
