//! Property suite for the chunk-pipelined collectives.
//!
//! Two invariants:
//!
//! 1. **Chunking never changes bits.** For every chunk size — one row per
//!    message, the default-ish 16, and `usize::MAX` (one chunk per
//!    payload, the granularity of a stage-barriered walk) — and every
//!    device count 2..=8, the pipelined `graph_allgather` /
//!    `scatter_backward` return exactly what the uncompiled reference
//!    returns, on every rank.
//! 2. **A crash mid-chunk fails fast.** A rank that dies with some
//!    chunks of an operation already delivered ([`FaultEvent::CrashMidOp`])
//!    poisons every survivor within the collective deadline — never a
//!    hang, never a partial result.

use std::time::{Duration, Instant};

use dgcl::trainer::{train_distributed_with, TrainConfig};
use dgcl::{
    build_comm_info, run_cluster, BuildOptions, ClusterFailure, FabricConfig, FaultEvent,
    FaultPlan, RuntimeError,
};
use dgcl_gnn::Architecture;
use dgcl_graph::Dataset;
use dgcl_tensor::{Matrix, XavierInit};
use dgcl_topology::Topology;
use proptest::prelude::*;

mod common;
use common::with_watchdog;

/// The chunk sizes the parity property sweeps: per-row streaming, a
/// mid-size chunk, and the degenerate one-chunk-per-payload case.
const CHUNK_SIZES: [usize; 3] = [1, 16, usize::MAX];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Invariant 1: pipelined == reference, bitwise, per rank, across
    /// chunk sizes and device counts. A late rank (`late == devices`
    /// means none) sleeps before each of its four ops, so its peers
    /// post messages to it before it has entered the op.
    #[test]
    fn pipelined_collectives_match_reference(
        devices in 2usize..=8,
        chunk_idx in 0usize..CHUNK_SIZES.len(),
        graph_seed in 1u64..5,
        late_pick in 0usize..=8,
    ) {
        let chunk_rows = CHUNK_SIZES[chunk_idx];
        let late = late_pick % (devices + 1);
        let arrive = |rank: usize| {
            if rank == late {
                std::thread::sleep(Duration::from_millis(3));
            }
        };
        let graph = Dataset::WikiTalk.generate(0.0004, graph_seed);
        let options = BuildOptions {
            chunk_rows,
            ..BuildOptions::default()
        };
        let info = build_comm_info(&graph, Topology::dgx1_subset(devices), options);
        let n = graph.num_vertices();
        let mut features = Matrix::zeros(n, 5);
        for v in 0..n {
            features.row_mut(v)[v % 5] = v as f32 + 0.25;
        }
        let per_device = info.dispatch_features(&features);
        let results = run_cluster(&info, |handle| {
            let local = &per_device[handle.rank];
            arrive(handle.rank);
            let fwd_pipe = handle.graph_allgather(local)?;
            arrive(handle.rank);
            let fwd_ref = handle.graph_allgather_reference(local)?;
            arrive(handle.rank);
            let bwd_pipe = handle.scatter_backward(&fwd_pipe)?;
            arrive(handle.rank);
            let bwd_ref = handle.scatter_backward_reference(&fwd_pipe)?;
            Ok((fwd_pipe, fwd_ref, bwd_pipe, bwd_ref))
        })
        .expect("healthy cluster");
        for (rank, (fwd_pipe, fwd_ref, bwd_pipe, bwd_ref)) in results.into_iter().enumerate() {
            prop_assert_eq!(
                &fwd_pipe, &fwd_ref,
                "rank {} forward pipelined != reference (chunk_rows {}, late {})",
                rank, chunk_rows, late
            );
            prop_assert_eq!(
                &bwd_pipe, &bwd_ref,
                "rank {} backward pipelined != reference (chunk_rows {}, late {})",
                rank, chunk_rows, late
            );
        }
    }
}

/// Invariant 2: a rank dying mid-operation — after some chunks of the
/// op already shipped — fails every survivor with a poison naming it,
/// within the collective deadline. Op 1 is the layer-0 gather.
#[test]
fn crash_mid_chunk_fails_every_survivor_within_deadline() {
    with_watchdog(Duration::from_secs(120), || {
        let graph = Dataset::WikiTalk.generate(0.0005, 3);
        let n = graph.num_vertices();
        let mut init = XavierInit::new(8);
        let features = init.features(n, 6);
        let targets = init.features(n, 3);
        // One row per chunk maximises in-flight chunks at the moment of
        // death — the worst case for partially-delivered state.
        let options = BuildOptions {
            chunk_rows: 1,
            ..BuildOptions::default()
        };
        let info = build_comm_info(&graph, Topology::fig6(), options);
        let cfg = TrainConfig::new(Architecture::Gcn, &[6, 3], 2);
        let deadline = Duration::from_secs(20);
        let config = FabricConfig {
            collective_deadline: deadline,
            faults: FaultPlan {
                // Rank 1 dies during op 1 after one pipeline action.
                events: vec![FaultEvent::CrashMidOp {
                    rank: 1,
                    at_op: 1,
                    after_actions: 1,
                }],
            },
            ..FabricConfig::default()
        };
        let start = Instant::now();
        let err = train_distributed_with(&info, &graph, &features, &targets, &cfg, config)
            .expect_err("a rank crashing mid-chunk must fail training");
        assert!(
            start.elapsed() < deadline,
            "unwind took {:?}, deadline was {deadline:?}",
            start.elapsed()
        );
        assert_eq!(err.rank, 1, "{err}");
        assert!(
            matches!(
                err.cause,
                ClusterFailure::Error(RuntimeError::InjectedCrash { rank: 1, at_op: 1 })
            ),
            "{err}"
        );
        let survivors: Vec<_> = err.surviving_errors().collect();
        assert_eq!(survivors.len(), info.num_devices() - 1);
        for (rank, failure) in survivors {
            match failure {
                ClusterFailure::Error(RuntimeError::Poisoned { origin, reason }) => {
                    assert_eq!(*origin, 1, "rank {rank} blames the crashed rank");
                    assert!(reason.contains("injected crash"), "{reason}");
                }
                other => panic!("rank {rank}: expected poison, got {other}"),
            }
        }
    });
}
