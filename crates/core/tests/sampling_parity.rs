//! Property suite for mini-batch sampled training.
//!
//! The anchor invariant (ISSUE 9's acceptance criterion): **fanout = ∞
//! sampled training with one batch covering every vertex is bitwise
//! identical to full-batch training** — same epoch losses, same output
//! embeddings, across 2..=8 devices and both aggregation backends. The
//! exact path's masked loss zeroes diff rows outside the batch before
//! the same single-accumulator norm `mse_loss` uses, so a full mask is
//! instruction-for-instruction the inline full-batch epoch.
//!
//! Around the anchor:
//!
//! * Finite-fanout runs are deterministic (run-to-run bitwise equal) and
//!   independent of `TrainConfig::overlap`, which moves the next batch's
//!   feature fetch to the overlap worker.
//! * Finite-fanout runs have a numerical anchor too: every rank trains on
//!   the chain of its own seeds, and the draws are keyed per vertex, so a
//!   `P`-device run is the 1-device run of the same config up to the order
//!   the gradient sums fold in — epoch losses within 1e-4 relative.
//! * A rank that owns none of a batch's seeds still serves its rows and
//!   joins the allreduce: seeds confined to one part, batches of 1 and 7.
//! * Sampled training still trains: losses decrease over epochs.
//! * An out-of-range training vertex surfaces as a typed
//!   [`ClusterError`] through `run_cluster` — never a rank-thread abort.

use dgcl::sampling::SamplingConfig;
use dgcl::trainer::{train_distributed, train_single, TrainConfig};
use dgcl::{build_comm_info, BackendKind, BuildOptions};
use dgcl_gnn::Architecture;
use dgcl_graph::Dataset;
use dgcl_tensor::{Matrix, XavierInit};
use dgcl_topology::Topology;
use proptest::prelude::*;

const BACKENDS: [BackendKind; 2] = [BackendKind::Planned, BackendKind::Cagnet { replication: 1 }];

const ARCHS: [Architecture; 4] = [
    Architecture::Gcn,
    Architecture::CommNet,
    Architecture::Gin,
    Architecture::Sage,
];

struct Case {
    graph: dgcl_graph::CsrGraph,
    features: Matrix,
    targets: Matrix,
}

fn case(seed: u64) -> Case {
    let graph = Dataset::WikiTalk.generate(0.0005, seed);
    let n = graph.num_vertices();
    let mut init = XavierInit::new(seed);
    let features = init.features(n, 6);
    let targets = init.features(n, 3);
    Case {
        graph,
        features,
        targets,
    }
}

fn base_cfg(arch: Architecture, epochs: usize) -> TrainConfig {
    let mut cfg = TrainConfig::new(arch, &[6, 5, 3], epochs);
    if arch == Architecture::Gin {
        cfg.lr = 1e-6;
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The anchor: one all-covering batch at fanout ∞ reproduces the
    /// full-batch run bit for bit, per backend, per device count.
    #[test]
    fn infinite_fanout_single_batch_is_bitwise_full_batch(
        devices in 2usize..=8,
        arch_idx in 0usize..ARCHS.len(),
        backend_idx in 0usize..BACKENDS.len(),
        graph_seed in 1u64..4,
    ) {
        let c = case(graph_seed);
        let info = build_comm_info(
            &c.graph,
            Topology::dgx1_subset(devices),
            BuildOptions::default(),
        );
        let mut cfg = base_cfg(ARCHS[arch_idx], 3);
        cfg.backend = Some(BACKENDS[backend_idx]);
        let full = train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg)
            .expect("healthy cluster");
        // batch_size 0 = one batch of the whole seed set.
        cfg.sampling = Some(SamplingConfig::exact(0, 2));
        let sampled = train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg)
            .expect("healthy cluster");
        prop_assert_eq!(
            &full.epoch_losses, &sampled.epoch_losses,
            "losses diverge on {} devices, backend {:?}", devices, BACKENDS[backend_idx]
        );
        prop_assert_eq!(
            full.outputs.max_abs_diff(&sampled.outputs), 0.0,
            "outputs diverge on {} devices, backend {:?}", devices, BACKENDS[backend_idx]
        );
    }

    /// Finite fanouts: the block path is run-to-run deterministic and
    /// numerically independent of the prefetch worker.
    #[test]
    fn block_path_is_deterministic_and_prefetch_neutral(
        devices in 2usize..=6,
        backend_idx in 0usize..BACKENDS.len(),
        fanout in 2usize..5,
        batch_size in 16usize..64,
    ) {
        let c = case(5);
        let info = build_comm_info(
            &c.graph,
            Topology::dgx1_subset(devices),
            BuildOptions::default(),
        );
        let mut cfg = base_cfg(Architecture::Gcn, 2);
        cfg.backend = Some(BACKENDS[backend_idx]);
        cfg.overlap = false;
        cfg.sampling = Some(SamplingConfig::new(batch_size, vec![Some(fanout), Some(fanout)]));
        let a = train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg)
            .expect("healthy cluster");
        let b = train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg)
            .expect("healthy cluster");
        prop_assert_eq!(&a.epoch_losses, &b.epoch_losses, "rerun diverged");
        prop_assert_eq!(a.outputs.max_abs_diff(&b.outputs), 0.0, "rerun diverged");
        cfg.overlap = true;
        let p = train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg)
            .expect("healthy cluster");
        prop_assert_eq!(&a.epoch_losses, &p.epoch_losses, "prefetch changed losses");
        prop_assert_eq!(a.outputs.max_abs_diff(&p.outputs), 0.0, "prefetch changed outputs");
    }
}

#[test]
fn exact_multi_batch_matches_single_device_masked_sgd() {
    // Mini-batched SGD visits vertices in a shuffled batch order, so it
    // is *not* the full-batch trajectory — but it must match a
    // single-device replay of the same masked-batch schedule closely
    // (same batches, same order; only reduction order differs).
    let c = case(9);
    let n = c.graph.num_vertices();
    let info = build_comm_info(&c.graph, Topology::fig6(), BuildOptions::default());
    let mut cfg = base_cfg(Architecture::Gcn, 3);
    let scfg = SamplingConfig::exact(n / 3, 2);
    cfg.sampling = Some(scfg.clone());
    let dist =
        train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg).expect("healthy cluster");

    // Single-device replay of the identical batch schedule.
    let mut net = dgcl_gnn::GnnNetwork::new(cfg.arch, &cfg.dims, cfg.weight_seed);
    let seeds: Vec<u32> = (0..n as u32).collect();
    let mut losses = Vec::new();
    for epoch in 0..cfg.epochs {
        let batches = dgcl_graph::seed_batches(&seeds, scfg.batch_size, scfg.seed, epoch);
        let mut epoch_loss = 0.0f32;
        for batch in &batches {
            let out = net.forward(&c.graph, &c.features);
            let mut sorted = batch.clone();
            sorted.sort_unstable();
            let mut diff = out.sub(&c.targets);
            for v in 0..n {
                if sorted.binary_search(&(v as u32)).is_err() {
                    for x in diff.row_mut(v) {
                        *x = 0.0;
                    }
                }
            }
            epoch_loss += 0.5 * diff.norm_sq();
            net.backward(&c.graph, &diff);
            net.step(cfg.lr);
        }
        losses.push(epoch_loss);
    }
    for (e, (a, b)) in losses.iter().zip(&dist.epoch_losses).enumerate() {
        assert!(
            (a - b).abs() < 1e-2 * a.abs().max(1.0),
            "epoch {e}: single-device masked loss {a} vs distributed {b}"
        );
    }
}

#[test]
fn finite_fanout_training_reduces_loss() {
    let c = case(3);
    let info = build_comm_info(&c.graph, Topology::fig6(), BuildOptions::default());
    let mut cfg = base_cfg(Architecture::Gcn, 4);
    cfg.lr = 5e-4;
    cfg.sampling = Some(SamplingConfig::new(64, vec![Some(4), Some(4)]));
    let report =
        train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg).expect("healthy cluster");
    assert!(
        report.epoch_losses.last() < report.epoch_losses.first(),
        "sampled losses did not decrease: {:?}",
        report.epoch_losses
    );
}

#[test]
fn finite_fanout_tracks_the_one_device_run_of_the_same_config() {
    // One device samples the whole batch's chain; P devices each sample
    // the chain of the seeds they own. Same seeds, same per-vertex draws,
    // so the same per-seed outputs and the same loss terms — only the
    // folds differ: the loss and the parameter gradients sum per rank and
    // then across ranks in ascending rank order.
    let c = case(4);
    for (dims, fanouts) in [
        (&[6, 5, 3][..], vec![Some(4), Some(4)]),
        (&[6, 5, 4, 3], vec![Some(3), Some(3), Some(3)]),
    ] {
        let mut cfg = base_cfg(Architecture::Gcn, 3);
        cfg.dims = dims.to_vec();
        cfg.lr = 5e-4;
        cfg.sampling = Some(SamplingConfig::new(96, fanouts.clone()));
        let run = |devices: usize| {
            let topo = Topology::dgx1_subset(devices);
            let info = build_comm_info(&c.graph, topo, BuildOptions::default());
            train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg)
                .expect("healthy cluster")
                .epoch_losses
        };
        let one = run(1);
        for devices in [2, 4, 8] {
            for (e, (a, b)) in one.iter().zip(run(devices)).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-4 * a.abs(),
                    "{fanouts:?}, {devices} devices, epoch {e}: {b} vs one device's {a}"
                );
            }
        }
    }
}

#[test]
fn a_rank_without_seeds_serves_its_rows_and_joins_the_allreduce() {
    // Hostile seed sets: every training vertex on rank 0, so every other
    // rank owns no seed of any batch (and with batch size 1 so do all but
    // one). They sample empty chains, still answer the feature exchange
    // and contribute zero gradients and zero loss.
    let c = case(6);
    for devices in 2..=4 {
        let info = build_comm_info(
            &c.graph,
            Topology::dgx1_subset(devices),
            BuildOptions::default(),
        );
        let seeds: Vec<u32> = info.pg.local[0].iter().copied().take(42).collect();
        for batch_size in [1, 7] {
            let mut cfg = base_cfg(Architecture::Sage, 3);
            cfg.lr = 5e-3;
            let mut scfg = SamplingConfig::new(batch_size, vec![Some(3), Some(3)]);
            scfg.train_vertices = Some(seeds.clone());
            cfg.sampling = Some(scfg);
            let mut reports = Vec::new();
            for overlap in [false, true, true] {
                cfg.overlap = overlap;
                reports.push(
                    train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg)
                        .expect("healthy cluster"),
                );
            }
            let what = format!("{devices} devices, batch {batch_size}");
            let losses = &reports[0].epoch_losses;
            assert!(losses.last() < losses.first(), "{what}: {losses:?}");
            for r in &reports[1..] {
                assert_eq!(
                    &r.epoch_losses, losses,
                    "{what}: rerun or prefetch diverged"
                );
                assert_eq!(r.outputs.max_abs_diff(&reports[0].outputs), 0.0, "{what}");
            }
        }
    }
}

#[test]
fn full_fanout_block_path_tracks_single_device() {
    // The block path at ∞ fanout computes on compact per-batch blocks
    // (different reduction layout than the masked path) but one batch of
    // everything is the same math as full-batch training — so it must
    // track the single-device trajectory within reduction-order noise.
    let c = case(7);
    let info = build_comm_info(&c.graph, Topology::fig6(), BuildOptions::default());
    let mut cfg = base_cfg(Architecture::Gcn, 3);
    // Mixed fanouts (one finite) force the block path even though the
    // finite fanout exceeds every degree in the graph... use a large
    // finite fanout so no edge is actually dropped.
    let huge = c.graph.num_vertices();
    cfg.sampling = Some(SamplingConfig::new(0, vec![Some(huge), Some(huge)]));
    let dist =
        train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg).expect("healthy cluster");
    let single = train_single(&c.graph, &c.features, &c.targets, &cfg);
    for (e, (a, b)) in single
        .epoch_losses
        .iter()
        .zip(&dist.epoch_losses)
        .enumerate()
    {
        assert!(
            (a - b).abs() < 1e-2 * a.abs().max(1.0),
            "epoch {e}: single loss {a} vs block-path {b}"
        );
    }
    let diff = single.outputs.max_abs_diff(&dist.outputs);
    assert!(diff < 5e-3, "block-path output divergence {diff}");
}

#[test]
fn out_of_range_train_vertex_is_a_typed_cluster_error() {
    let c = case(2);
    let n = c.graph.num_vertices();
    let info = build_comm_info(&c.graph, Topology::fig6(), BuildOptions::default());
    for fanouts in [vec![None, None], vec![Some(3), Some(3)]] {
        let mut cfg = base_cfg(Architecture::Gcn, 2);
        let mut scfg = SamplingConfig::new(8, fanouts.clone());
        scfg.train_vertices = Some(vec![0, 1, n as u32 + 5]);
        cfg.sampling = Some(scfg);
        let err = train_distributed(&info, &c.graph, &c.features, &c.targets, &cfg)
            .expect_err("bad seed must fail the cluster");
        assert!(
            err.to_string().contains("out of range"),
            "fanouts {fanouts:?}: error does not name the bad seed: {err}"
        );
    }
}
