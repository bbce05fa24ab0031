//! Sampling benchmark: mini-batch sampled training vs full-batch, plus
//! the offline volume model's verdicts.
//!
//! Three readings per graph on the fig6 4-GPU topology:
//!
//! * **Full-batch epoch** — the baseline every sampled configuration is
//!   priced against.
//! * **Sampled epochs** — the block path at a tight and a loose fanout,
//!   with prefetch on: wall-clock per epoch plus the per-update count
//!   (batches per epoch), since sampling's win is update frequency at
//!   bounded per-update cost, not per-epoch volume.
//! * **Model verdicts** — [`dgcl_sim::SamplingModel`] per-update and
//!   per-epoch volume ratios for the measured fanouts, so the measured
//!   ordering can be checked against the model offline.
//!
//! Sampled training must also *train*: final loss below the first
//! (asserted per configuration). And the model must bound the traffic
//! the runtime moves: it prices one trainer's fetch under a uniform
//! random partition — the worst placement — so a sampled epoch's
//! measured `bytes_fetched` may not exceed its uncached bytes per epoch
//! (asserted per configuration; both are recorded, and how far below the
//! bound a locality-aware partition lands is EXPERIMENTS.md's to say).
//! Runs use a zero-capacity cache, whose counters see every fetched byte
//! and which moves no bit. Results go to `BENCH_sampling.json`;
//! `DGCL_BENCH_SMOKE=1` shrinks epochs for CI.

use std::time::Instant;

use dgcl::featcache::CachePolicy;
use dgcl::sampling::SamplingConfig;
use dgcl::trainer::{train_distributed, TrainConfig};
use dgcl::{build_comm_info, BuildOptions};
use dgcl_gnn::Architecture;
use dgcl_graph::Dataset;
use dgcl_sim::SamplingModel;
use dgcl_tensor::XavierInit;
use dgcl_topology::Topology;

use crate::harness::{ms, obj, print_table, smoke, write_artifact, Json, RunContext};

pub fn run(ctx: &mut RunContext) {
    let smoke = smoke();
    let epochs = if smoke { 2 } else { 4 };
    let batch_size = 128usize;
    let num_parts = 4usize;

    let mut records: Vec<Json> = Vec::new();
    let mut rows = Vec::new();
    for dataset in [Dataset::WikiTalk, Dataset::WebGoogle] {
        let graph = ctx.graph(dataset);
        let nv = graph.num_vertices();
        let avg_degree = graph.num_edges() as f64 / nv as f64;
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        let mut init = XavierInit::new(ctx.seed);
        let features = init.features(nv, 8);
        let targets = init.features(nv, 4);
        let model = SamplingModel {
            num_vertices: nv,
            avg_degree,
            width: 8,
            remote_fraction: 1.0 - 1.0 / num_parts as f64,
        };

        let configs: [(&'static str, Option<Vec<Option<usize>>>); 3] = [
            ("full-batch", None),
            ("fanout-2", Some(vec![Some(2), Some(2)])),
            ("fanout-8", Some(vec![Some(8), Some(8)])),
        ];
        for (name, fanouts) in configs {
            let mut cfg = TrainConfig::new(Architecture::Gcn, &[8, 6, 4], epochs);
            cfg.lr = 5e-4;
            // Capacity 0: counts every fetched byte, saves none.
            cfg.feature_cache = Some(CachePolicy::Fixed(0));
            let (batches, step_ratio, epoch_ratio, model_bytes) = match &fanouts {
                Some(f) => {
                    cfg.sampling = Some(SamplingConfig::new(batch_size, f.clone()));
                    (
                        nv.div_ceil(batch_size),
                        model.batch_exchange_bytes(batch_size, f)
                            / model.full_batch_epoch_bytes(f.len()),
                        model.epoch_volume_ratio(batch_size, f),
                        model.epoch_exchange_bytes(batch_size, f),
                    )
                }
                None => (1, 1.0, 1.0, 0.0),
            };
            let t = Instant::now();
            let report = train_distributed(&info, &graph, &features, &targets, &cfg)
                .expect("healthy cluster");
            let epoch_seconds = t.elapsed().as_secs_f64() / epochs as f64;
            let first = report.epoch_losses[0];
            let last = *report.epoch_losses.last().expect("ran epochs");
            assert!(
                last < first,
                "{} {name}: loss did not decrease ({first} -> {last})",
                dataset.name()
            );
            let fetched =
                report.cache.expect("an active policy").bytes_fetched as f64 / epochs as f64;
            // Full-batch fetches its halo once per run, off the cache's
            // books: 0 ≤ 0.
            assert!(
                fetched <= model_bytes,
                "{} {name}: the run fetched {fetched:.0} B per epoch, above the model's \
                 random-placement price of {model_bytes:.0}",
                dataset.name()
            );
            rows.push(vec![
                dataset.name().to_string(),
                name.to_string(),
                batches.to_string(),
                ms(epoch_seconds),
                format!("{first:.1}"),
                format!("{last:.1}"),
                format!("{step_ratio:.4}"),
                format!("{epoch_ratio:.2}"),
                format!("{:.2}", fetched / 1e6),
                format!("{:.2}", model_bytes / 1e6),
            ]);
            records.push(obj! {
                "dataset": dataset.name(),
                "config": name,
                "epochs": epochs,
                "batches_per_epoch": batches,
                "epoch_seconds": epoch_seconds,
                "first_loss": first,
                "last_loss": last,
                "loss_decreased": last < first,
                "model_step_ratio": step_ratio,
                "model_epoch_ratio": epoch_ratio,
                "bytes_fetched_per_epoch": fetched,
                "model_bytes_per_epoch": model_bytes,
            });
        }
    }
    print_table(
        "Sampling: mini-batch vs full-batch training (4 GPUs, GCN 8-6-4)",
        &[
            "Dataset",
            "Config",
            "Batches/ep",
            "Epoch (ms)",
            "Loss[0]",
            "Loss[-1]",
            "Step vol",
            "Epoch vol",
            "Fetched MB/ep",
            "Model MB/ep",
        ],
        &rows,
    );
    println!(
        "  (step/epoch vol: modelled exchange volume relative to one full-batch epoch —\n   sampling buys small per-update transfers, paying halo redundancy per epoch.)"
    );

    write_artifact(
        "sampling",
        "sampling",
        obj! { "smoke": smoke, "runs": records },
    );
}
