//! A diverged run stops with a typed error instead of training on.
//!
//! GIN's sum aggregation on Reddit's dense rows overflows an `f32` loss
//! within three epochs even at a learning rate of 1e-6. Every rank holds
//! the same allreduced loss bits, so every rank must stop at the same step
//! with [`RuntimeError::Diverged`], none waiting on a peer, and elastic
//! recovery must hand the error back rather than evict and retrain.

use std::time::Duration;

use dgcl::trainer::{train_distributed, TrainConfig};
use dgcl::{build_comm_info, train_elastic, BuildOptions, ClusterError, ClusterFailure};
use dgcl::{RecoveryConfig, RuntimeError};
use dgcl_gnn::Architecture;
use dgcl_graph::{CsrGraph, Dataset};
use dgcl_tensor::{Matrix, XavierInit};
use dgcl_topology::Topology;

mod common;
use common::with_watchdog;

/// GIN 8-16-8-8 on Reddit ×0.002, 3 epochs at lr 1e-6.
fn diverging_case() -> (CsrGraph, Matrix, Matrix, TrainConfig) {
    let graph = Dataset::Reddit.generate(0.002, 7);
    let n = graph.num_vertices();
    let mut init = XavierInit::new(7);
    let features = init.features(n, 8);
    let targets = init.features(n, 8);
    let mut cfg = TrainConfig::new(Architecture::Gin, &[8, 16, 8, 8], 3);
    cfg.lr = 1e-6;
    (graph, features, targets, cfg)
}

/// The divergence `err` reports, checked to be the same on every rank.
fn divergence(err: &ClusterError) -> (usize, f32) {
    let ClusterFailure::Error(RuntimeError::Diverged { epoch, loss }) = err.cause else {
        panic!("expected a divergence, got {err}");
    };
    assert!(!loss.is_finite(), "a finite loss {loss} is no divergence");
    for (rank, failure) in err.per_rank.iter().enumerate() {
        match failure {
            Some(ClusterFailure::Error(RuntimeError::Diverged { epoch: e, loss: l }))
                if *e == epoch && l.to_bits() == loss.to_bits() => {}
            other => panic!("rank {rank} reported {other:?}, not epoch {epoch}'s {loss}"),
        }
    }
    (epoch, loss)
}

#[test]
fn every_rank_stops_at_the_first_non_finite_loss() {
    let (epoch, _) = with_watchdog(Duration::from_secs(120), || {
        let (graph, features, targets, cfg) = diverging_case();
        let info = build_comm_info(&graph, Topology::dgx1(), BuildOptions::default());
        let err = train_distributed(&info, &graph, &features, &targets, &cfg)
            .expect_err("a diverged run must not return a report");
        divergence(&err)
    });
    // Epoch 0 sums to about 1.9e11; epoch 1 overflows.
    assert_eq!(epoch, 1);
}

#[test]
fn elastic_training_returns_a_divergence_without_recovering() {
    with_watchdog(Duration::from_secs(120), || {
        let (graph, features, targets, cfg) = diverging_case();
        let err = train_elastic(
            &graph,
            Topology::dgx1(),
            &features,
            &targets,
            &cfg,
            &RecoveryConfig::default(),
        )
        .expect_err("a diverged run must not return a report");
        divergence(&err);
    });
}
