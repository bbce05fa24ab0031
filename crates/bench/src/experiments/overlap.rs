//! Overlap benchmark: pipelined chunked collectives vs the barriered
//! schedule.
//!
//! [`simulate_overlap`] runs the fluid network model twice per (dataset,
//! device-count) cell: once with the barriered stage schedule, once with
//! fixed-chunk pipelining. This is the hardware projection — it
//! models V100-class links, so the pipelined column must come out
//! strictly below the barriered one wherever a plan has relays to
//! pipeline through.
//!
//! Results go to `BENCH_overlap.json`. Set `DGCL_BENCH_SMOKE=1` to
//! mark the artifact as a CI smoke run.

use dgcl_graph::Dataset;
use dgcl_sim::{simulate_overlap, GnnModel};
use dgcl_topology::Topology;

use crate::harness::{ms, obj, print_table, smoke, write_artifact, Json, RunContext};

/// Chunk size (rows) used for every pipelined cell; matches
/// `BuildOptions::default().chunk_rows`.
const CHUNK_ROWS: usize = 64;

/// Device counts for the simulated sweep.
const DEVICES: [usize; 3] = [2, 4, 8];

pub fn run(ctx: &mut RunContext) {
    // Both datasets the acceptance gate names, at every device count,
    // pipelined vs barriered on the fluid-flow model.
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
                format!("{speedup:.4}x"),
            ]);
            sims.push(obj! {
                "dataset": dataset.name(),
                "devices": devices,
                "barriered_seconds": barriered,
                "pipelined_seconds": pipelined,
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
            "Speedup",
        ],
        &rows,
    );
    println!(
        "  (fluid-flow network model; pipelined = fixed-chunk relay forwarding.\n   chunk_rows = {CHUNK_ROWS}.)"
    );

    write_artifact(
        "overlap",
        "overlap",
        obj! {
            "smoke": smoke(),
            "chunk_rows": CHUNK_ROWS,
            "note": "simulated on the fluid-flow V100 model",
            "simulated": sims,
        },
    );
}
