//! Property tests for the parallel aggregation kernels: thread-count
//! invariance, scatter/gather backward equivalence and container
//! independence (a fanout-∞ block row is the whole-graph row; a
//! `CsrBlock` is the equal `CsrGraph`), all bitwise.
//!
//! The gather-form backward walks the cached edge-reversed CSR; because
//! reversed adjacency lists are sorted ascending, it accumulates each
//! output element in exactly the order the original scatter delivered
//! contributions — so the two formulations must agree to the bit, not
//! just within a tolerance.

use dgcl_gnn::aggregate::{
    aggregate_mean_backward_scatter, aggregate_mean_backward_threads, aggregate_mean_threads,
    aggregate_sum_backward_scatter, aggregate_sum_backward_threads, aggregate_sum_threads,
    block_aggregate, block_aggregate_backward,
};
use dgcl_gnn::AggKind;
use dgcl_graph::sample::build_block;
use dgcl_graph::{CsrGraph, GraphBuilder, LayerBlock, VertexId};
use dgcl_tensor::{spmm_csr_dense_into, spmm_pattern_into, CsrBlock, Matrix};
use proptest::prelude::*;

const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

/// `m`'s rows for the global ids `set`.
fn vertex_rows(m: &Matrix, set: &[VertexId]) -> Matrix {
    let idx: Vec<usize> = set.iter().map(|&v| v as usize).collect();
    m.gather_rows(&idx)
}

/// A random directed graph on `n` vertices plus matching features and
/// the fanout-∞ [`LayerBlock`] of a vertex subset: edge list drawn as
/// (src, dst) pairs, self-loops dropped by the builder. Widths 8 and 32
/// are drawn often, so the kernels' width-dispatched row loops run as
/// well as the generic one.
fn arb_graph_and_features() -> impl Strategy<Value = (CsrGraph, Matrix, LayerBlock)> {
    let cols = (0usize..15).prop_map(|i| match i {
        0..=10 => i + 1,
        11 | 12 => 8,
        _ => 32,
    });
    (2usize..60, cols, 0usize..240).prop_map(|(n, cols, edges)| {
        let mut b = GraphBuilder::new(n);
        let mut h = 0x5DEE_CE66u64;
        for _ in 0..edges {
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((h >> 33) as usize % n) as u32;
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((h >> 33) as usize % n) as u32;
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build_directed();
        let data: Vec<f32> = (0..n * cols)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                if x.is_multiple_of(4) {
                    0.0
                } else {
                    (x % 500) as f32 / 125.0 - 2.0
                }
            })
            .collect();
        let subset: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| (h >> (v % 48)) & 1 == 1)
            .collect();
        let block = build_block(&g, &subset, None, 0, 0).expect("subset in range");
        (g, Matrix::from_vec(n, cols, data), block)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn forward_aggregation_is_thread_count_invariant(
        (g, h, block) in arb_graph_and_features()
    ) {
        let n = g.num_vertices();
        let sum_ref = aggregate_sum_threads(&g, &h, n, 1);
        let mean_ref = aggregate_mean_threads(&g, &h, n, 1);
        // The raw kernel over the same pattern held as a `CsrBlock`.
        let as_block = CsrBlock::from_parts(n, n, g.offsets().to_vec(), g.targets().to_vec());
        for t in THREADS {
            prop_assert_eq!(&aggregate_sum_threads(&g, &h, n, t), &sum_ref, "sum t={}", t);
            prop_assert_eq!(&aggregate_mean_threads(&g, &h, n, t), &mean_ref, "mean t={}", t);
            let (mut of_graph, mut of_block) = (Matrix::zeros(n, h.cols()), Matrix::zeros(n, h.cols()));
            let (dense, cols) = (h.as_slice(), h.cols());
            spmm_pattern_into(g.offsets(), g.targets(), None, dense, cols, of_graph.as_mut_slice(), t);
            spmm_csr_dense_into(&as_block, dense, cols, of_block.as_mut_slice(), t);
            prop_assert_eq!(&of_graph, &sum_ref, "raw kernel t={}", t);
            prop_assert_eq!(&of_block, &sum_ref, "CsrBlock t={}", t);
        }
        // A fanout-∞ block aggregates, from its compact source rows, the
        // whole-graph rows of its destination vertices.
        let h_src = vertex_rows(&h, &block.src);
        prop_assert_eq!(
            block_aggregate(AggKind::Sum, &block, &h_src),
            vertex_rows(&sum_ref, &block.dst)
        );
        prop_assert_eq!(
            block_aggregate(AggKind::Mean, &block, &h_src),
            vertex_rows(&mean_ref, &block.dst)
        );
        // Partial output rows (the distributed layout aggregates only
        // the locally-owned prefix) stay invariant too.
        let partial = n / 2;
        let p_ref = aggregate_sum_threads(&g, &h, partial, 1);
        for t in THREADS {
            prop_assert_eq!(&aggregate_sum_threads(&g, &h, partial, t), &p_ref, "partial t={}", t);
        }
    }

    #[test]
    fn gather_backward_matches_scatter_bitwise(
        (g, grad, block) in arb_graph_and_features()
    ) {
        let n = g.num_vertices();
        // A block's adjoint is the scatter reference of the gradient
        // zero-padded to every vertex, read at the block's source rows;
        // no other row receives anything.
        let mut padded = Matrix::zeros(n, grad.cols());
        for &v in &block.dst {
            padded.set_row(v as usize, grad.row(v as usize));
        }
        let outside: Vec<VertexId> = (0..n as VertexId)
            .filter(|v| block.src.binary_search(v).is_err())
            .collect();
        for (kind, reference) in [
            (AggKind::Sum, aggregate_sum_backward_scatter(&g, &padded, n)),
            (AggKind::Mean, aggregate_mean_backward_scatter(&g, &padded, n)),
        ] {
            let got = block_aggregate_backward(kind, &block, vertex_rows(&grad, &block.dst));
            prop_assert_eq!(got, vertex_rows(&reference, &block.src), "{:?}", kind);
            prop_assert_eq!(vertex_rows(&reference, &outside).norm_sq(), 0.0, "{:?}", kind);
        }
        // num_total >= grad rows: the distributed backward produces
        // gradients for all visible rows, including never-referenced ones.
        for num_total in [n, n + 3] {
            let sum_ref = aggregate_sum_backward_scatter(&g, &grad, num_total);
            let mean_ref = aggregate_mean_backward_scatter(&g, &grad, num_total);
            for t in THREADS {
                prop_assert_eq!(
                    &aggregate_sum_backward_threads(&g, &grad, num_total, t),
                    &sum_ref,
                    "sum bwd t={} total={}", t, num_total
                );
                prop_assert_eq!(
                    &aggregate_mean_backward_threads(&g, &grad, num_total, t),
                    &mean_ref,
                    "mean bwd t={} total={}", t, num_total
                );
            }
        }
    }

    #[test]
    fn gather_backward_handles_truncated_gradient(
        (g, grad, _) in arb_graph_and_features()
    ) {
        // grad rows < num_vertices: only a prefix of vertices carries
        // gradient (mirrors partial consumption); the reversed-CSR early
        // break must not skip valid sources or read invalid ones.
        let n = g.num_vertices();
        let rows = (n / 2).max(1);
        let head = grad.head_rows(rows);
        let reference = aggregate_sum_backward_scatter(&g, &head, n);
        for t in THREADS {
            prop_assert_eq!(
                &aggregate_sum_backward_threads(&g, &head, n, t),
                &reference,
                "truncated t={}", t
            );
        }
    }
}
