//! Feature-cache benchmark: steady-state gather volume vs cache capacity.
//!
//! Sampled training re-fetches the same hub rows every batch; the
//! hot-vertex cache ([`dgcl::featcache`]) holds the top-scored remote
//! rows locally and serves them out of the gather path. This experiment
//! sweeps cache capacity on the fig6 4-GPU topology over a hub graph
//! (WikiTalk) and an R-MAT community graph (Reddit) and reads the
//! **deterministic per-run byte counters** — not wall-clock — so the
//! curve is exactly reproducible:
//!
//! * volume is monotone nonincreasing in capacity (cache sets are nested
//!   top-k prefixes of one ranking) — asserted;
//! * the model-chosen `Auto` capacity cuts layer-0 gather volume by at
//!   least 30% on both graphs — asserted;
//! * every capacity is bitwise identical to the uncached run — asserted.
//!
//! Results go to `BENCH_cache.json`; `DGCL_BENCH_SMOKE=1` shrinks epochs
//! for CI.

use std::time::Instant;

use dgcl::featcache::CachePolicy;
use dgcl::sampling::SamplingConfig;
use dgcl::trainer::{train_distributed, TrainConfig};
use dgcl::{build_comm_info, BuildOptions};
use dgcl_gnn::Architecture;
use dgcl_graph::Dataset;
use dgcl_tensor::XavierInit;
use dgcl_topology::Topology;

use crate::harness::{ms, obj, print_table, smoke, write_artifact, Json, RunContext};

fn policy_name(policy: CachePolicy) -> String {
    match policy {
        CachePolicy::Off => "off".to_string(),
        CachePolicy::Fixed(0) => "uncached".to_string(),
        CachePolicy::Fixed(c) if c >= 1 << 20 => "fixed-all".to_string(),
        CachePolicy::Fixed(c) => format!("fixed-{c}"),
        CachePolicy::Auto => "auto".to_string(),
    }
}

pub fn run(ctx: &mut RunContext) {
    let smoke = smoke();
    let epochs = if smoke { 2 } else { 4 };
    let batch_size = 128usize;

    let mut records: Vec<Json> = Vec::new();
    let mut rows = Vec::new();
    for dataset in [Dataset::WikiTalk, Dataset::Reddit] {
        let graph = ctx.graph(dataset);
        let nv = graph.num_vertices();
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        let mut init = XavierInit::new(ctx.seed);
        let features = init.features(nv, 8);
        let targets = init.features(nv, 4);

        let mut cfg = TrainConfig::new(Architecture::Gcn, &[8, 6, 4], epochs);
        cfg.lr = 5e-4;
        cfg.sampling = Some(SamplingConfig::new(batch_size, vec![Some(4), Some(4)]));

        // Cache-off reference for the bitwise-parity column.
        cfg.feature_cache = Some(CachePolicy::Off);
        let off =
            train_distributed(&info, &graph, &features, &targets, &cfg).expect("healthy cluster");

        let sweep = [
            CachePolicy::Fixed(0),
            CachePolicy::Fixed(32),
            CachePolicy::Fixed(256),
            CachePolicy::Auto,
            CachePolicy::Fixed(1 << 20),
        ];
        let mut baseline: Option<u64> = None;
        let mut fixed_curve: Vec<(String, u64)> = Vec::new();
        for policy in sweep {
            cfg.feature_cache = Some(policy);
            let t = Instant::now();
            let report = train_distributed(&info, &graph, &features, &targets, &cfg)
                .expect("healthy cluster");
            let epoch_seconds = t.elapsed().as_secs_f64() / epochs as f64;
            let stats = report.cache.expect("active policy reports stats");
            let bitwise = report.outputs.max_abs_diff(&off.outputs) == 0.0
                && report.epoch_losses == off.epoch_losses;
            assert!(
                bitwise,
                "{} {}: cache run diverged from cache-off",
                dataset.name(),
                policy_name(policy)
            );
            let base = *baseline.get_or_insert(stats.bytes_fetched);
            let reduction = if base == 0 {
                0.0
            } else {
                1.0 - stats.bytes_fetched as f64 / base as f64
            };
            if matches!(policy, CachePolicy::Fixed(_)) {
                fixed_curve.push((policy_name(policy), stats.bytes_fetched));
            }
            if policy == CachePolicy::Auto {
                assert!(
                    reduction >= 0.30,
                    "{}: Auto cut only {:.1}% of layer-0 gather volume",
                    dataset.name(),
                    reduction * 100.0
                );
            }
            rows.push(vec![
                dataset.name().to_string(),
                policy_name(policy),
                stats.capacity_rows.to_string(),
                stats.bytes_fetched.to_string(),
                stats.bytes_saved.to_string(),
                format!("{:.3}", stats.hit_rate()),
                format!("{:.1}%", reduction * 100.0),
                ms(epoch_seconds),
            ]);
            records.push(obj! {
                "dataset": dataset.name(),
                "policy": policy_name(policy),
                "capacity_rows": stats.capacity_rows,
                "bytes_fetched": stats.bytes_fetched,
                "bytes_saved": stats.bytes_saved,
                "hit_rate": stats.hit_rate(),
                "reduction_vs_uncached": reduction,
                "epoch_seconds": epoch_seconds,
                "bitwise_matches_off": bitwise,
            });
        }
        // Nested top-k prefixes: growing fixed capacity never fetches more.
        for pair in fixed_curve.windows(2) {
            if let [(pa, a), (pb, b)] = pair {
                assert!(
                    b <= a,
                    "{}: {pb} fetched {b} > {pa} fetched {a}",
                    dataset.name()
                );
            }
        }
    }
    print_table(
        "Feature cache: layer-0 gather volume vs capacity (4 GPUs, GCN 8-6-4, fanout 4)",
        &[
            "Dataset",
            "Policy",
            "Cap rows",
            "Fetched B",
            "Saved B",
            "Hit rate",
            "Cut",
            "Epoch (ms)",
        ],
        &rows,
    );
    println!(
        "  (byte counters are deterministic; `auto` is the CacheModel-sized capacity.\n   Every row is bitwise identical to the cache-off run — caching only moves bytes.)"
    );

    write_artifact("cache", "cache", obj! { "smoke": smoke, "runs": records });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(policy_name(CachePolicy::Fixed(0)), "uncached");
        assert_eq!(policy_name(CachePolicy::Fixed(32)), "fixed-32");
        assert_eq!(policy_name(CachePolicy::Fixed(1 << 20)), "fixed-all");
        assert_eq!(policy_name(CachePolicy::Auto), "auto");
        assert_eq!(policy_name(CachePolicy::Off), "off");
    }
}
