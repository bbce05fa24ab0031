//! Compute-engine benchmark: the training hot path measured directly.
//!
//! Three kernel families, each timed sequentially and on the threaded
//! compute pool at 1/2/4/8 workers:
//!
//! * `matmul` — the threaded dense kernel of `dgcl-tensor` (forward
//!   projection shape);
//! * `matmul_tn` — the weight-gradient kernel (`h^T · grad`, the
//!   largest backward kernel of a wide-input layer) against its generic
//!   `matmul_tn_reference` loop, so the speedup is the width-dispatched
//!   blocked kernel's: `matmul_tn` at the `fullbatch-halo` benchmark's
//!   layer-0 shape (128 × 8 output), `matmul_tn_dense` at
//!   `fullbatch-dense`'s (64 × 32);
//! * `matmul_nt` — the input-gradient kernel (`grad · W^T`) against its
//!   generic dot-product loop `matmul_nt_reference`, at the layer-1
//!   backward shapes of `fullbatch-halo` (`matmul_nt`, 8 × 8 weight) and
//!   `fullbatch-dense` (`matmul_nt_dense`, 32 × 8);
//! * `gcn_update` — the dense half of a GCN layer, `relu(agg · W + b)`,
//!   with bias and activation fused into the product's store against the
//!   unfused composition `matmul` → `add_row_broadcast` →
//!   `Activation::forward` on one thread, at `fullbatch-dense`'s layer-0
//!   shape (a rank's 4 600 rows, 64 → 32);
//! * `aggregate` — row-parallel CSR neighbour aggregation plus the
//!   gather-form (reverse-CSR) backward against the scatter-form
//!   reference;
//! * `allgather` — the compiled-schedule `graph_allgather` /
//!   `scatter_backward` against the uncompiled table-walking reference.
//!
//! A kernel's worker count is the calling thread's budget
//! (`set_thread_budget`), set before each timed series and cleared after.
//! All parallel kernels are bitwise-deterministic, so speedups come with
//! no numeric drift; thread-scaling numbers are only meaningful when the
//! machine has spare cores (the JSON records `cpus` so CI can tell a
//! genuine regression from a 1-CPU ceiling). The run also times one
//! distributed training epoch per dataset and emits everything as
//! `BENCH_compute.json` in the style of `BENCH_spst.json`.
//!
//! Set `DGCL_BENCH_SMOKE=1` to shrink problem sizes and repetitions for
//! CI smoke runs.

use dgcl::trainer::{train_distributed, TrainConfig};
use dgcl::{build_comm_info, BuildOptions};
use dgcl_gnn::aggregate::{aggregate_sum, aggregate_sum_backward, aggregate_sum_backward_scatter};
use dgcl_gnn::Architecture;
use dgcl_graph::Dataset;
use dgcl_tensor::{set_thread_budget, Activation, XavierInit};
use dgcl_topology::Topology;

use crate::harness::{
    cpus, median_seconds, ms, obj, print_table, smoke, write_artifact, Json, RunContext,
};

/// Thread counts every kernel is measured at.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The median of `reps` runs of `f` with this thread's kernel budget at
/// `threads`; the budget is cleared after.
fn median_at(threads: usize, reps: usize, f: impl FnMut()) -> f64 {
    set_thread_budget(threads);
    let seconds = median_seconds(reps, f);
    set_thread_budget(0);
    seconds
}

pub fn run(ctx: &mut RunContext) {
    let smoke = smoke();
    let reps = if smoke { 3 } else { 7 };
    let mut records: Vec<Json> = Vec::new();
    let mut rows = Vec::new();
    let push = |records: &mut Vec<Json>,
                rows: &mut Vec<Vec<String>>,
                kernel: &'static str,
                threads: usize,
                seconds: f64,
                baseline: f64| {
        let speedup = baseline / seconds.max(1e-12);
        rows.push(vec![
            kernel.to_string(),
            threads.to_string(),
            ms(seconds),
            format!("{speedup:.2}x"),
        ]);
        records.push(obj! {
            "kernel": kernel,
            "threads": threads,
            "seconds": seconds,
            "baseline_seconds": baseline,
            "speedup": speedup,
        });
    };

    // Dense matmul, forward-projection shape (visible rows × feature ×
    // hidden).
    let (m, k, n) = if smoke {
        (192, 64, 64)
    } else {
        (1024, 256, 128)
    };
    let mut init = XavierInit::new(ctx.seed);
    let a = init.features(m, k);
    let b = init.features(k, n);
    std::hint::black_box(a.matmul(&b)); // Warm caches/pages.
    let times: Vec<f64> = THREADS
        .iter()
        .map(|&t| {
            median_at(t, reps, || {
                std::hint::black_box(a.matmul(&b));
            })
        })
        .collect();
    for (&t, &s) in THREADS.iter().zip(&times) {
        push(&mut records, &mut rows, "matmul", t, s, times[0]);
    }

    // Weight gradient of a wide-input layer: `h^T · grad` with `h` the
    // local rows × input features and `grad` the layer's output width,
    // against the generic loop every width falls back to. The layer-0
    // shapes of `fullbatch-halo` (7 500 rows, about a rank's, 128 → 8)
    // and of `fullbatch-dense` (9 000 rows, 64 → 32).
    let shapes = if smoke {
        [
            ("matmul_tn", 1024, 64, 8),
            ("matmul_tn_dense", 1024, 32, 32),
        ]
    } else {
        [
            ("matmul_tn", 7500, 128, 8),
            ("matmul_tn_dense", 9000, 64, 32),
        ]
    };
    for (kernel, visible, fin, fout) in shapes {
        let h_in = init.features(visible, fin);
        let grad = init.features(visible, fout);
        std::hint::black_box(h_in.matmul_tn_reference(&grad)); // Warm-up.
        let reference = median_seconds(reps, || {
            std::hint::black_box(h_in.matmul_tn_reference(&grad));
        });
        for t in THREADS {
            let s = median_at(t, reps, || {
                std::hint::black_box(h_in.matmul_tn(&grad));
            });
            push(&mut records, &mut rows, kernel, t, s, reference);
        }
    }

    // Input gradient of a layer: `grad · W^T` with `grad` a rank's rows ×
    // the layer's output width and `W` its `fin × fout` weight, against
    // the generic dot-product loop. The layer-1 backward shapes of
    // `fullbatch-halo` (7 500 rows, 8 → 8) and `fullbatch-dense` (4 600
    // rows, 32 → 8).
    let shapes = if smoke {
        [("matmul_nt", 1024, 8, 8), ("matmul_nt_dense", 1024, 32, 8)]
    } else {
        [("matmul_nt", 7500, 8, 8), ("matmul_nt_dense", 4600, 32, 8)]
    };
    for (kernel, local, fin, fout) in shapes {
        let grad = init.features(local, fout);
        let w = init.features(fin, fout);
        std::hint::black_box(grad.matmul_nt_reference(&w)); // Warm-up.
        let reference = median_seconds(reps, || {
            std::hint::black_box(grad.matmul_nt_reference(&w));
        });
        for t in THREADS {
            let s = median_at(t, reps, || {
                std::hint::black_box(grad.matmul_nt(&w));
            });
            push(&mut records, &mut rows, kernel, t, s, reference);
        }
    }

    // The dense half of a GCN layer, fused against the unfused
    // composition on one thread (fresh output matrices on both sides).
    let (local, fin, fout) = if smoke {
        (1024, 64, 32)
    } else {
        (4600, 64, 32)
    };
    let agg = init.features(local, fin);
    let w = init.features(fin, fout);
    let bias = init.features(1, fout);
    let unfused = || {
        let z = agg.matmul(&w).add_row_broadcast(&bias);
        std::hint::black_box(Activation::Relu.forward(&z));
    };
    unfused(); // Warm-up.
    let composition = median_at(1, reps, unfused);
    for t in THREADS {
        let s = median_at(t, reps, || {
            std::hint::black_box(agg.matmul_fused(&w, None, &bias, Activation::Relu));
        });
        push(&mut records, &mut rows, "gcn_update", t, s, composition);
    }

    // CSR aggregation forward on a generated power-law graph.
    let graph = ctx.graph(Dataset::WikiTalk);
    let nv = graph.num_vertices();
    let cols = if smoke { 32 } else { 128 };
    let h = init.features(nv, cols);
    std::hint::black_box(aggregate_sum(&graph, &h, nv)); // Warm-up.
    let times: Vec<f64> = THREADS
        .iter()
        .map(|&t| {
            median_at(t, reps, || {
                std::hint::black_box(aggregate_sum(&graph, &h, nv));
            })
        })
        .collect();
    for (&t, &s) in THREADS.iter().zip(&times) {
        push(&mut records, &mut rows, "aggregate_fwd", t, s, times[0]);
    }

    // Aggregation backward: reverse-CSR gather vs the scatter-form
    // reference (which cannot row-partition without atomics; it is the
    // baseline at every row).
    graph.reversed(); // Warm the cache so timings exclude the one-off build.
    std::hint::black_box(aggregate_sum_backward_scatter(&graph, &h, nv)); // Warm-up.
    let scatter = median_seconds(reps, || {
        std::hint::black_box(aggregate_sum_backward_scatter(&graph, &h, nv));
    });
    for t in THREADS {
        let s = median_at(t, reps, || {
            std::hint::black_box(aggregate_sum_backward(&graph, &h, nv));
        });
        push(&mut records, &mut rows, "aggregate_bwd", t, s, scatter);
    }

    // Graph allgather + backward: compiled schedules vs the table-walking
    // reference (also thread-count independent — the win is the removal
    // of per-op filtering, id resolution and heap churn).
    let ag_graph = ctx.graph(Dataset::WebGoogle);
    let info = build_comm_info(&ag_graph, Topology::fig6(), BuildOptions::default());
    let feat = init.features(ag_graph.num_vertices(), cols);
    let per_device = info.dispatch_features(&feat);
    let ops = if smoke { 2 } else { 5 };
    dgcl::run_cluster(&info, |hdl| {
        // Warm the fabric pool and per-thread state before timing.
        let full = hdl.graph_allgather(&per_device[hdl.rank])?;
        std::hint::black_box(hdl.scatter_backward(&full)?);
        Ok(())
    })
    .expect("healthy cluster");
    let reference = median_seconds(reps, || {
        dgcl::run_cluster(&info, |hdl| {
            for _ in 0..ops {
                let full = hdl.graph_allgather_reference(&per_device[hdl.rank])?;
                std::hint::black_box(hdl.scatter_backward_reference(&full)?);
            }
            Ok(())
        })
        .expect("healthy cluster");
    });
    let compiled = median_seconds(reps, || {
        dgcl::run_cluster(&info, |hdl| {
            for _ in 0..ops {
                let full = hdl.graph_allgather(&per_device[hdl.rank])?;
                std::hint::black_box(hdl.scatter_backward(&full)?);
            }
            Ok(())
        })
        .expect("healthy cluster");
    });
    push(&mut records, &mut rows, "allgather", 1, compiled, reference);

    print_table(
        &format!(
            "Compute engine: hot-path kernels, median of {reps} ({} cpus{})",
            cpus(),
            if smoke { ", smoke" } else { "" }
        ),
        &["Kernel", "Threads", "Median (ms)", "Speedup"],
        &rows,
    );
    println!(
        "  (baselines: matmul/aggregate_fwd at 1 thread; matmul_tn(_dense) and\n   matmul_nt(_dense) vs their generic loops; gcn_update vs the unfused product,\n   bias add and ReLU at 1 thread; aggregate_bwd vs the scatter form; allgather\n   vs the uncompiled table walk. Thread speedups need spare cores — the JSON records `cpus`\n   so a 1-CPU box documents its ceiling instead of faking scaling.)"
    );

    // One distributed training epoch per dataset: the end-to-end number
    // the kernel wins roll up into.
    let mut epoch_rows = Vec::new();
    let mut epochs: Vec<Json> = Vec::new();
    for dataset in [Dataset::WikiTalk, Dataset::WebGoogle] {
        let g = ctx.graph(dataset);
        let nv = g.num_vertices();
        let stats = dataset.stats();
        let feats = if smoke { 16 } else { stats.hidden_size.min(64) };
        let features = init.features(nv, feats);
        let targets = init.features(nv, 8);
        let info = build_comm_info(&g, Topology::fig6(), BuildOptions::default());
        let cfg = TrainConfig::new(Architecture::Gcn, &[feats, 8], 1);
        let secs = median_seconds(if smoke { 1 } else { 3 }, || {
            std::hint::black_box(
                train_distributed(&info, &g, &features, &targets, &cfg).expect("healthy cluster"),
            );
        });
        epoch_rows.push(vec![
            dataset.name().to_string(),
            "gcn".to_string(),
            ms(secs),
        ]);
        epochs.push(obj! { "dataset": dataset.name(), "arch": "gcn", "epoch_seconds": secs });
    }
    print_table(
        "Compute engine: distributed GCN epoch (4 simulated GPUs)",
        &["Dataset", "Model", "Epoch (ms)"],
        &epoch_rows,
    );

    let note = if cpus() == 1 {
        "single-cpu machine: thread-scaling speedups are ceiling-limited at ~1x; \
         matmul_tn, matmul_nt, gcn_update, aggregate_bwd and allgather speedups are \
         algorithmic and hold regardless"
    } else {
        "thread columns measure pool scaling; matmul_tn, matmul_nt, gcn_update, \
         aggregate_bwd and allgather speedups are algorithmic"
    };
    write_artifact(
        "compute",
        "compute_engine",
        obj! { "smoke": smoke, "note": note, "kernels": records, "epochs": epochs },
    );
}
