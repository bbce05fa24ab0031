//! Regression: a non-rank-0 device dying mid-collective used to wedge
//! every peer forever (the §6.1 flag protocol has no failure story — a
//! peer that never sends blocks every neighbour waiting to receive from
//! it, and `run_cluster`'s in-order join then blocked the whole process
//! on rank 0's thread). The abortable fabric must instead return a
//! [`dgcl::ClusterError`] naming the dead rank, on every rank, well
//! within the collective deadline.

use std::time::{Duration, Instant};

use dgcl::{build_comm_info, run_cluster_with, BuildOptions, ClusterFailure, FabricConfig};
use dgcl_graph::Dataset;
use dgcl_tensor::Matrix;
use dgcl_topology::Topology;

// A watchdog timeout is the regression signal; the assertions inside the
// watched closure cover the rest.
mod common;
use common::with_watchdog;

#[test]
fn non_rank0_panic_mid_collective_returns_err_within_deadline() {
    with_watchdog(Duration::from_secs(120), || {
        let graph = Dataset::WikiTalk.generate(0.0005, 5);
        let info = build_comm_info(&graph, Topology::fig6(), BuildOptions::default());
        let n = graph.num_vertices();
        let mut features = Matrix::zeros(n, 2);
        for v in 0..n {
            features.set_row(v, &[v as f32, 1.0]);
        }
        let per_device = info.dispatch_features(&features);
        let deadline = Duration::from_secs(10);
        let config = FabricConfig {
            collective_deadline: deadline,
            ..FabricConfig::default()
        };
        let start = Instant::now();
        let err = run_cluster_with(&info, config, |handle| {
            // Every device completes one allgather; rank 2 then dies while
            // its peers are already entering the next one.
            let full = handle.graph_allgather(&per_device[handle.rank])?;
            assert_eq!(full.rows(), handle.local_graph().num_total());
            if handle.rank == 2 {
                panic!("injected device failure on rank 2");
            }
            let full = handle.graph_allgather(&per_device[handle.rank])?;
            Ok(full.rows())
        })
        .expect_err("a dead device must fail the cluster, not hang it");
        let elapsed = start.elapsed();
        // The poison broadcast must beat the deadline by a wide margin —
        // peers unwind when woken, not by timing out.
        assert!(
            elapsed < deadline,
            "unwind took {elapsed:?}, deadline was {deadline:?}"
        );
        assert_eq!(err.rank, 2, "the originating rank is identified: {err}");
        match &err.cause {
            ClusterFailure::Panic(msg) => {
                assert!(msg.contains("injected device failure"), "{msg}")
            }
            other => panic!("expected the panic as the cause, got {other}"),
        }
        assert!(err.per_rank[2].is_some(), "rank 2 recorded as failed");
        // Every peer that was still communicating observed the poison
        // with the correct origin.
        for (rank, failure) in err.surviving_errors() {
            match failure {
                ClusterFailure::Error(dgcl::RuntimeError::Poisoned { origin, .. }) => {
                    assert_eq!(*origin, 2, "rank {rank} blames the right origin")
                }
                other => panic!("rank {rank}: expected poison, got {other}"),
            }
        }
    });
}
