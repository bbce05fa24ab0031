//! Pins full-batch training bit for bit.
//!
//! Each cell trains a full-neighbourhood configuration through the
//! library's distributed trainer and hashes the epoch losses and the
//! output embeddings. Where a rank's feature rows are copied, where the
//! layer-0 aggregate is kept between forwards and how a kernel walks its
//! operands are bookkeeping: every product, fold and message must stay as
//! it is, so a change there must leave every hash as it is. A change that
//! reorders one reduction or drops one gradient fails here.
//!
//! The partition is an input: the Wiki-Talk cells were re-pinned when
//! coarsening gained two-hop matching; the Reddit cell kept its
//! constants.
//!
//! The small cells run in tier-1; CommNet at widths 7/12/5 takes only the
//! kernels' generic loops. The `#[ignore]` cells are the `e2e` benchmark's
//! full-batch configurations; run them with
//! `cargo test --release -p dgcl --test training_fingerprints -- --ignored`.

use dgcl::checkpoint::CheckpointConfig;
use dgcl::fabric::FabricConfig;
use dgcl::trainer::{train_distributed, train_distributed_resumable, TrainConfig, TrainReport};
use dgcl::{build_comm_info, BackendKind, BuildOptions};
use dgcl_gnn::Architecture;
use dgcl_graph::{CsrGraph, Dataset};
use dgcl_tensor::{Matrix, XavierInit};
use dgcl_topology::Topology;

/// FNV-1a 64 over the little-endian bits of every value.
fn fnv(xs: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One full-batch training configuration.
struct Cell {
    dataset: Dataset,
    scale: f64,
    topology: Topology,
    arch: Architecture,
    dims: &'static [usize],
    epochs: usize,
    lr: f32,
    backend: Option<BackendKind>,
}

/// A GCN cell on Wiki-Talk at a tier-1 size.
fn small(topology: Topology, arch: Architecture, dims: &'static [usize]) -> Cell {
    Cell {
        dataset: Dataset::WikiTalk,
        scale: 0.0008,
        topology,
        arch,
        dims,
        epochs: 3,
        lr: 1e-3,
        backend: None,
    }
}

/// `cell`'s graph, features and targets (all from seed 7) and config.
fn setup(cell: &Cell) -> (CsrGraph, Matrix, Matrix, TrainConfig) {
    let graph = cell.dataset.generate(cell.scale, 7);
    let n = graph.num_vertices();
    let mut init = XavierInit::new(7);
    let features = init.features(n, cell.dims[0]);
    let targets = init.features(n, *cell.dims.last().expect("≥ 1 layer"));
    let mut cfg = TrainConfig::new(cell.arch, cell.dims, cell.epochs);
    cfg.lr = cell.lr;
    cfg.backend = cell.backend;
    (graph, features, targets, cfg)
}

fn check(cell: &Cell, report: &TrainReport, expected: (u64, u64)) {
    assert!(
        report.epoch_losses.iter().all(|l| l.is_finite()) && report.outputs.all_finite(),
        "a NaN's sign bit is not portable: every hashed value must be finite"
    );
    let got = (fnv(&report.epoch_losses), fnv(report.outputs.as_slice()));
    let hex = |h: (u64, u64)| (format!("{:016x}", h.0), format!("{:016x}", h.1));
    assert_eq!(
        hex(got),
        hex(expected),
        "{} x{} {:?} {:?} on {} GPUs: (losses, outputs) hashes moved",
        cell.dataset.name(),
        cell.scale,
        cell.arch,
        cell.dims,
        cell.topology.num_gpus(),
    );
}

/// Trains `cell` with `train_distributed` and checks its hashes.
fn run(cell: &Cell, expected: (u64, u64)) {
    let (graph, features, targets, cfg) = setup(cell);
    let info = build_comm_info(&graph, cell.topology.clone(), BuildOptions::default());
    let report =
        train_distributed(&info, &graph, &features, &targets, &cfg).expect("healthy cluster");
    check(cell, &report, expected);
}

#[test]
fn gcn_two_gpus() {
    run(
        &small(Topology::dgx1_subset(2), Architecture::Gcn, &[16, 8, 8]),
        (0x4243_2b16_5e66_2dc2, 0x905d_035c_7f6a_39fa),
    );
}

/// Two DGX-1s over InfiniBand: relayed halo rows on every layer.
#[test]
fn gcn_sixteen_gpus() {
    run(
        &small(Topology::dgx1_pair_ib(), Architecture::Gcn, &[32, 8, 8]),
        (0x4e32_0ac6_7cef_93bf, 0x4fb0_7be7_c4b7_f069),
    );
}

#[test]
fn sage_four_gpus() {
    run(
        &small(Topology::dgx1_subset(4), Architecture::Sage, &[16, 16, 8]),
        (0x1840_2b0a_383e_a6d2, 0x11dd_f166_c77b_86df),
    );
}

/// Three layers; GIN's stacked sum aggregations over Wiki-Talk's hubs
/// need a tiny rate for the run to stay finite.
#[test]
fn gin_eight_gpus() {
    run(
        &Cell {
            lr: 1e-12,
            ..small(Topology::dgx1(), Architecture::Gin, &[8, 16, 8, 8])
        },
        (0x6c2d_6cb8_dfdb_250e, 0xe400_d587_a31c_8a1f),
    );
}

/// Widths no kernel dispatches on: every product takes a generic loop.
#[test]
fn commnet_generic_widths() {
    run(
        &small(Topology::fig6(), Architecture::CommNet, &[7, 12, 5]),
        (0x6cfe_4b35_b4de_0102, 0x2202_7ab1_b7eb_b73f),
    );
}

/// CAGNET's replicated broadcast backend in place of the planned one.
#[test]
fn gcn_cagnet() {
    run(
        &Cell {
            backend: Some(BackendKind::Cagnet { replication: 2 }),
            ..small(Topology::dgx1_subset(4), Architecture::Gcn, &[16, 8, 8])
        },
        (0x89c5_171e_ba6a_398f, 0x2465_0a90_c601_4e97),
    );
}

/// A run resumed from the checkpoint its first attempt published after
/// epoch 2 hashes as the uninterrupted run: the attempt recomputes its
/// own layer-0 aggregate.
#[test]
fn gcn_resumed() {
    let cell = Cell {
        epochs: 4,
        ..small(Topology::fig6(), Architecture::Gcn, &[16, 8, 8])
    };
    let expected = (0xa08f_a1be_d732_ccdb, 0x20ce_4652_5081_2e9a);
    let (graph, features, targets, mut cfg) = setup(&cell);
    let info = build_comm_info(&graph, cell.topology.clone(), BuildOptions::default());
    let ck = CheckpointConfig::default();
    cfg.epochs = 2;
    let first = train_distributed_resumable(
        &info,
        &graph,
        &features,
        &targets,
        &cfg,
        FabricConfig::default(),
        None,
        Some(&ck),
    )
    .expect("healthy cluster");
    let ckpt = ck.store.latest().expect("epoch checkpoints published");
    assert_eq!(ckpt.epochs_done, 2);
    assert_eq!(ckpt.losses, first.epoch_losses);
    cfg.epochs = cell.epochs;
    let resumed = train_distributed_resumable(
        &info,
        &graph,
        &features,
        &targets,
        &cfg,
        FabricConfig::default(),
        Some(&ckpt),
        None,
    )
    .expect("healthy cluster");
    check(&cell, &resumed, expected);
    run(&cell, expected);
}

/// The `e2e` benchmark's `fullbatch-dense` workload: Reddit ×0.04 on 2
/// GPUs, GCN 64-32-8.
#[test]
#[ignore = "benchmark scale; run in release with --ignored"]
fn fullbatch_dense_benchmark_scale() {
    run(
        &Cell {
            dataset: Dataset::Reddit,
            scale: 0.04,
            epochs: 2,
            ..small(Topology::dgx1_subset(2), Architecture::Gcn, &[64, 32, 8])
        },
        (0x4d0b_d6b9_686e_026d, 0xdae3_adf5_bb98_fb25),
    );
}

/// The `e2e` benchmark's `fullbatch-halo` workload: Wiki-Talk ×0.05 on two
/// DGX-1s over InfiniBand, GCN 128-8-8.
#[test]
#[ignore = "benchmark scale; run in release with --ignored"]
fn fullbatch_halo_benchmark_scale() {
    run(
        &Cell {
            scale: 0.05,
            epochs: 2,
            ..small(Topology::dgx1_pair_ib(), Architecture::Gcn, &[128, 8, 8])
        },
        (0x51c9_baf7_07fb_a324, 0x2102_ab93_9341_6125),
    );
}
