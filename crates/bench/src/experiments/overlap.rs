//! Overlap benchmark: pipelined chunked collectives vs the barriered
//! schedule.
//!
//! Two views of the same optimisation:
//!
//! * **Simulated** — [`simulate_overlap`] runs the fluid network model
//!   twice per (dataset, device-count) cell: once with PR 2's barriered
//!   stage schedule, once with fixed-chunk pipelining plus the trainer's
//!   bucketed-allreduce overlap (gradient-apply hidden behind backward
//!   compute). This is the hardware projection — it models V100-class
//!   links, so the pipelined column must come out strictly below the
//!   barriered one.
//! * **Measured** — one real threaded training run per dataset with
//!   `TrainConfig::overlap` off (`inline_seconds`: one inline gradient
//!   allreduce per step) then on (per-layer buckets on a background
//!   worker); gather / scatter run the same executor in both. Both paths
//!   are bitwise-deterministic and produce identical losses; the wall-clock
//!   delta is only meaningful with spare cores (the JSON records `cpus`
//!   so a 1-CPU runner documents its ceiling instead of faking a win).
//!
//! Results go to `BENCH_overlap.json`. Set `DGCL_BENCH_SMOKE=1` to
//! shrink sizes and repetitions for CI smoke runs.

use dgcl::trainer::{train_distributed, TrainConfig};
use dgcl::{build_comm_info, BuildOptions};
use dgcl_gnn::Architecture;
use dgcl_graph::Dataset;
use dgcl_sim::{simulate_overlap, GnnModel};
use dgcl_tensor::XavierInit;
use dgcl_topology::Topology;

use crate::harness::{
    cpus, median_seconds, ms, obj, print_table, smoke, write_artifact, Json, RunContext,
};

/// Chunk size (rows) used for every pipelined cell; matches
/// `BuildOptions::default().chunk_rows`.
const CHUNK_ROWS: usize = 64;

/// Device counts for the simulated sweep.
const DEVICES: [usize; 3] = [2, 4, 8];

pub fn run(ctx: &mut RunContext) {
    let smoke = smoke();

    // Simulated sweep: both datasets the acceptance gate names, at every
    // device count, pipelined vs barriered on the fluid-flow model.
    let mut sims: Vec<Json> = Vec::new();
    let mut rows = Vec::new();
    for dataset in [Dataset::WikiTalk, Dataset::WebGoogle] {
        let graph = ctx.graph(dataset);
        let cfg = ctx.epoch_config(dataset, GnnModel::Gcn);
        for devices in DEVICES {
            let topo = Topology::dgx1_subset(devices);
            let b = simulate_overlap(&graph, &topo, &cfg, CHUNK_ROWS);
            let barriered = b.barriered_epoch_seconds();
            let pipelined = b.pipelined_epoch_seconds();
            let speedup = barriered / pipelined.max(1e-12);
            rows.push(vec![
                dataset.name().to_string(),
                devices.to_string(),
                ms(barriered),
                ms(pipelined),
                ms(b.hidden_apply_seconds),
                format!("{speedup:.2}x"),
            ]);
            sims.push(obj! {
                "dataset": dataset.name(),
                "devices": devices,
                "barriered_seconds": barriered,
                "pipelined_seconds": pipelined,
                "hidden_apply_seconds": b.hidden_apply_seconds,
                "speedup": speedup,
            });
        }
    }
    print_table(
        "Overlap: simulated epoch, barriered vs chunk-pipelined (V100 model)",
        &[
            "Dataset",
            "GPUs",
            "Barriered (ms)",
            "Pipelined (ms)",
            "Hidden (ms)",
            "Speedup",
        ],
        &rows,
    );
    println!(
        "  (fluid-flow network model; pipelined = fixed-chunk relay forwarding\n   plus gradient-apply hidden behind backward compute. chunk_rows = {CHUNK_ROWS}.)"
    );

    // Measured: the real threaded trainer, overlap off vs on. Identical
    // losses by construction; only the schedule differs.
    let mut measured: Vec<Json> = Vec::new();
    let mut measured_rows = Vec::new();
    let reps = if smoke { 1 } else { 3 };
    let epochs = if smoke { 1 } else { 2 };
    let mut init = XavierInit::new(ctx.seed);
    for dataset in [Dataset::WikiTalk, Dataset::WebGoogle] {
        let graph = ctx.graph(dataset);
        let nv = graph.num_vertices();
        let feats = if smoke { 16 } else { 32 };
        let features = init.features(nv, feats);
        let targets = init.features(nv, 8);
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        let mut cfg = TrainConfig::new(Architecture::Gcn, &[feats, 8], epochs);
        cfg.overlap = false;
        let inline = median_seconds(reps, || {
            std::hint::black_box(
                train_distributed(&info, &graph, &features, &targets, &cfg)
                    .expect("healthy cluster"),
            );
        });
        cfg.overlap = true;
        let overlapped = median_seconds(reps, || {
            std::hint::black_box(
                train_distributed(&info, &graph, &features, &targets, &cfg)
                    .expect("healthy cluster"),
            );
        });
        let speedup = inline / overlapped.max(1e-12);
        measured_rows.push(vec![
            dataset.name().to_string(),
            ms(inline),
            ms(overlapped),
            format!("{speedup:.2}x"),
        ]);
        measured.push(obj! {
            "dataset": dataset.name(),
            "inline_seconds": inline,
            "overlapped_seconds": overlapped,
            "speedup": speedup,
        });
    }
    print_table(
        "Overlap: measured training wall clock (4 simulated GPUs, threads)",
        &["Dataset", "Inline (ms)", "Overlapped (ms)", "Speedup"],
        &measured_rows,
    );
    println!(
        "  (threaded shared-memory fabric; overlap needs spare cores to show a\n   wall-clock win — the JSON records `cpus` so CI can tell a regression\n   from a 1-CPU ceiling. Losses are bitwise identical either way.)"
    );

    let note = if cpus() == 1 {
        "single-cpu machine: measured wall-clock overlap is ceiling-limited at ~1x; \
         the simulated columns model V100-class links and hold regardless"
    } else {
        "simulated columns use the fluid-flow V100 model; measured columns are \
         real threaded wall clock and need spare cores to show overlap"
    };
    write_artifact(
        "overlap",
        "overlap",
        obj! {
            "smoke": smoke,
            "chunk_rows": CHUNK_ROWS,
            "note": note,
            "simulated": sims,
            "measured": measured,
        },
    );
}
