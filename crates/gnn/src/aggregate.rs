//! AGGREGATE: neighbour aggregation and its adjoint, for every container
//! the reproduction aggregates over.
//!
//! Aggregation is one kernel — the pattern-CSR row loop
//! [`spmm_pattern_into`] — over a [`CsrGraph`]'s row prefix, a sampled
//! [`LayerBlock`] or (for the adjoint) the edge-reversed CSR; a mean is
//! that sum scaled once per row by [`mean_scale`], the one statement of
//! the mean rule (the CAGNET backend scales its SpMM output with it
//! too). Output rows are disjoint, so any thread count gives
//! bitwise-identical results, and a row aggregates the same bits from
//! whichever container stores its neighbours in the same order — a
//! fanout-∞ block row *is* the whole-graph row.
//!
//! The adjoint `grad_h[u] = Σ_{v : u ∈ N(v)} grad_out[v]` (for a mean,
//! of the gradient scaled by the same rule first: `g · (1/deg)` is one
//! product per element whether formed per edge or per row) runs in
//! *gather* form over the cached edge-reversed CSR
//! ([`CsrGraph::reversed`]) for whole graphs: each output row is written
//! once — no atomics, no per-vertex scratch — and, because reversed
//! adjacency lists ascend, accumulates in the order the *scatter* form
//! delivers, so the two agree bitwise (property-tested). The scatter form
//! is the reference for that test and the adjoint of a block, which is
//! small, rectangular and has no reverse index.

use dgcl_graph::{CsrGraph, LayerBlock};
use dgcl_tensor::spmm::{spmm_pattern_into, PAR_WORK_MIN};
use dgcl_tensor::{pool, Matrix};

use crate::layers::AggKind;

/// Worker count for a kernel over `nnz` stored entries of `cols`-wide
/// rows: the pool's, once the work is worth a scoped spawn.
fn par_threads(nnz: usize, cols: usize) -> usize {
    if nnz * cols.max(1) < PAR_WORK_MIN {
        1
    } else {
        pool::compute_threads()
    }
}

/// The mean rule: scales row `i` of `m` by `1 / degree(i)` where that
/// degree exceeds 1. Rows of degree 1 stay bit for bit (as `x · 1.0`
/// would leave them) and rows of degree 0 aggregate nothing, so forward
/// post-scale and backward pre-scale are both this.
pub fn mean_scale(m: &mut Matrix, threads: usize, degree: impl Fn(usize) -> usize + Sync) {
    let cols = m.cols();
    pool::par_row_chunks(threads, m.as_mut_slice(), cols, |r0, chunk| {
        for (i, row) in chunk.chunks_mut(cols).enumerate() {
            let deg = degree(r0 + i);
            if deg > 1 {
                let inv = 1.0 / deg as f32;
                for o in row {
                    *o *= inv;
                }
            }
        }
    });
}

/// `AGGREGATE` over the full neighbourhood, the one dispatch on
/// [`AggKind`]: [`aggregate_sum`] or [`aggregate_mean`].
pub fn aggregate(kind: AggKind, adj: &CsrGraph, h: &Matrix, num_out: usize) -> Matrix {
    match kind {
        AggKind::Sum => aggregate_sum(adj, h, num_out),
        AggKind::Mean => aggregate_mean(adj, h, num_out),
    }
}

/// The adjoint of [`aggregate`]: [`aggregate_sum_backward`] or
/// [`aggregate_mean_backward`].
pub fn aggregate_backward(
    kind: AggKind,
    adj: &CsrGraph,
    grad_out: &Matrix,
    num_total: usize,
) -> Matrix {
    match kind {
        AggKind::Sum => aggregate_sum_backward(adj, grad_out, num_total),
        AggKind::Mean => aggregate_mean_backward(adj, grad_out, num_total),
    }
}

/// Sum-aggregates neighbour embeddings: `out[v] = Σ_{u ∈ N(v)} h[u]` for
/// the first `num_out` vertices, on the pool's worker count.
///
/// # Panics
///
/// Panics if `num_out` exceeds the adjacency's vertex count or a
/// neighbour id exceeds `h`'s rows.
pub fn aggregate_sum(adj: &CsrGraph, h: &Matrix, num_out: usize) -> Matrix {
    aggregate_sum_threads(adj, h, num_out, par_threads(adj.num_edges(), h.cols()))
}

/// [`aggregate_sum`] with an explicit worker count. Results are bitwise
/// identical for every `threads` value.
///
/// # Panics
///
/// See [`aggregate_sum`].
pub fn aggregate_sum_threads(adj: &CsrGraph, h: &Matrix, num_out: usize, threads: usize) -> Matrix {
    assert!(
        num_out <= adj.num_vertices(),
        "num_out {} exceeds {} vertices",
        num_out,
        adj.num_vertices()
    );
    let mut out = Matrix::zeros(num_out, h.cols());
    spmm_pattern_into(
        &adj.offsets()[..=num_out],
        adj.targets(),
        None,
        h.as_slice(),
        h.cols(),
        out.as_mut_slice(),
        threads,
    );
    out
}

/// Mean-aggregates neighbour embeddings; vertices without neighbours get
/// zeros.
pub fn aggregate_mean(adj: &CsrGraph, h: &Matrix, num_out: usize) -> Matrix {
    aggregate_mean_threads(adj, h, num_out, par_threads(adj.num_edges(), h.cols()))
}

/// [`aggregate_mean`] with an explicit worker count.
pub fn aggregate_mean_threads(
    adj: &CsrGraph,
    h: &Matrix,
    num_out: usize,
    threads: usize,
) -> Matrix {
    let mut out = aggregate_sum_threads(adj, h, num_out, threads);
    mean_scale(&mut out, threads, |v| adj.out_degree(v as u32));
    out
}

/// Backward of [`aggregate_sum`] in gather form over the cached reversed
/// CSR: produces gradients for all `num_total` visible rows without
/// atomics or per-vertex allocation. Bitwise-identical to
/// [`aggregate_sum_backward_scatter`].
pub fn aggregate_sum_backward(adj: &CsrGraph, grad_out: &Matrix, num_total: usize) -> Matrix {
    let threads = par_threads(adj.num_edges(), grad_out.cols());
    aggregate_sum_backward_threads(adj, grad_out, num_total, threads)
}

/// [`aggregate_sum_backward`] with an explicit worker count.
pub fn aggregate_sum_backward_threads(
    adj: &CsrGraph,
    grad_out: &Matrix,
    num_total: usize,
    threads: usize,
) -> Matrix {
    let rev = adj.reversed();
    let cols = grad_out.cols();
    let mut grad_h = Matrix::zeros(num_total, cols);
    // Rows past the reversed graph's vertices have no list and stay zero.
    // Reversed lists ascend, so the sources beyond the gradient rows form
    // a suffix the bound cuts off.
    let rows = num_total.min(rev.num_vertices());
    spmm_pattern_into(
        &rev.offsets()[..=rows],
        rev.targets(),
        Some(grad_out.rows() as u32),
        grad_out.as_slice(),
        cols,
        &mut grad_h.as_mut_slice()[..rows * cols],
        threads,
    );
    grad_h
}

/// Backward of [`aggregate_mean`], gather form (see
/// [`aggregate_sum_backward`]).
///
/// # Panics
///
/// Panics if `grad_out` has more rows than `adj` has vertices.
pub fn aggregate_mean_backward(adj: &CsrGraph, grad_out: &Matrix, num_total: usize) -> Matrix {
    let threads = par_threads(adj.num_edges(), grad_out.cols());
    aggregate_mean_backward_threads(adj, grad_out, num_total, threads)
}

/// [`aggregate_mean_backward`] with an explicit worker count: the
/// gradient rows scaled once by the mean rule, then the sum's adjoint.
pub fn aggregate_mean_backward_threads(
    adj: &CsrGraph,
    grad_out: &Matrix,
    num_total: usize,
    threads: usize,
) -> Matrix {
    let scaled = mean_scaled(adj, grad_out, threads);
    aggregate_sum_backward_threads(adj, &scaled, num_total, threads)
}

/// `grad_out` with row `v` scaled by the mean rule for `adj`'s vertex `v`.
fn mean_scaled(adj: &CsrGraph, grad_out: &Matrix, threads: usize) -> Matrix {
    let mut scaled = grad_out.clone();
    mean_scale(&mut scaled, threads, |v| adj.out_degree(v as u32));
    scaled
}

/// The scatter form of the adjoint, for the pattern-CSR `(offsets,
/// indices)`: row `r` of `grad` lands on every row of `out` its entries
/// name, rows ascending, entries in stored order.
fn scatter_rows(offsets: &[usize], indices: &[u32], grad: &Matrix, out: &mut Matrix) {
    for r in 0..grad.rows() {
        for &c in &indices[offsets[r]..offsets[r + 1]] {
            for (o, &x) in out.row_mut(c as usize).iter_mut().zip(grad.row(r)) {
                *o += x;
            }
        }
    }
}

/// The scatter formulation of [`aggregate_sum_backward`], kept as the
/// reference the gather kernel is property-tested against (and as the
/// baseline `BENCH_compute.json` measures the reverse-CSR win over).
pub fn aggregate_sum_backward_scatter(
    adj: &CsrGraph,
    grad_out: &Matrix,
    num_total: usize,
) -> Matrix {
    let mut grad_h = Matrix::zeros(num_total, grad_out.cols());
    scatter_rows(adj.offsets(), adj.targets(), grad_out, &mut grad_h);
    grad_h
}

/// The scatter formulation of [`aggregate_mean_backward`] (reference,
/// see [`aggregate_sum_backward_scatter`]).
pub fn aggregate_mean_backward_scatter(
    adj: &CsrGraph,
    grad_out: &Matrix,
    num_total: usize,
) -> Matrix {
    aggregate_sum_backward_scatter(adj, &mean_scaled(adj, grad_out, 1), num_total)
}

/// [`aggregate`] over a sampled block: row `i` aggregates the rows of
/// `h_src` (one per `block.src` vertex) that `block.row(i)` names, with
/// the *sampled* degree as the mean divisor. On the caller's thread: a
/// block is one step's (or one served batch's) work on a rank whose
/// peers and load already fill the cores — a scoped spawn per block
/// doubled `serving-hotkey`'s latency when tried.
pub fn block_aggregate(kind: AggKind, block: &LayerBlock, h_src: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(block.num_dst(), h_src.cols());
    spmm_pattern_into(
        &block.offsets,
        &block.targets,
        None,
        h_src.as_slice(),
        h_src.cols(),
        out.as_mut_slice(),
        1,
    );
    if kind == AggKind::Mean {
        mean_scale(&mut out, 1, |i| block.row(i).len());
    }
    out
}

/// The adjoint of [`block_aggregate`]: scatters the block rows' aggregate
/// gradients (consumed: a mean scales them in place) back over the block
/// edges into a gradient over the block's source rows, zeros where no
/// edge lands.
pub fn block_aggregate_backward(kind: AggKind, block: &LayerBlock, mut grad_agg: Matrix) -> Matrix {
    if kind == AggKind::Mean {
        mean_scale(&mut grad_agg, 1, |i| block.row(i).len());
    }
    let mut out = Matrix::zeros(block.num_src(), grad_agg.cols());
    scatter_rows(&block.offsets, &block.targets, &grad_agg, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgcl_graph::GraphBuilder;

    fn path3() -> CsrGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.build_symmetric()
    }

    #[test]
    fn sum_aggregation() {
        let g = path3();
        let h = Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]);
        let a = aggregate_sum(&g, &h, 3);
        // N(0)={1}, N(1)={0,2}, N(2)={1}.
        assert_eq!(a.as_slice(), &[2.0, 5.0, 2.0]);
    }

    #[test]
    fn mean_aggregation_divides_by_degree() {
        let g = path3();
        let h = Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]);
        let a = aggregate_mean(&g, &h, 3);
        assert_eq!(a.as_slice(), &[2.0, 2.5, 2.0]);
    }

    #[test]
    fn partial_output_rows() {
        let g = path3();
        let h = Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]);
        let a = aggregate_sum(&g, &h, 2);
        assert_eq!(a.shape(), (2, 1));
        assert_eq!(a.as_slice(), &[2.0, 5.0]);
    }

    #[test]
    fn sum_backward_is_transpose() {
        // For a symmetric graph, aggregate and its backward use the same
        // adjacency; check the adjoint property <Agg(h), g> = <h, Agg^T(g)>.
        let g = path3();
        let h = Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]);
        let grad = Matrix::from_rows(&[&[0.5], &[1.0], &[0.25]]);
        let fwd = aggregate_sum(&g, &h, 3);
        let bwd = aggregate_sum_backward(&g, &grad, 3);
        let lhs: f32 = fwd.hadamard(&grad).sum();
        let rhs: f32 = h.hadamard(&bwd).sum();
        assert!((lhs - rhs).abs() < 1e-5);
    }

    #[test]
    fn mean_backward_is_adjoint() {
        let g = path3();
        let h = Matrix::from_rows(&[&[1.0, 3.0], &[2.0, -1.0], &[4.0, 0.5]]);
        let grad = Matrix::from_rows(&[&[0.5, 1.0], &[1.0, 2.0], &[0.25, -1.0]]);
        let fwd = aggregate_mean(&g, &h, 3);
        let bwd = aggregate_mean_backward(&g, &grad, 3);
        let lhs: f32 = fwd.hadamard(&grad).sum();
        let rhs: f32 = h.hadamard(&bwd).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn isolated_vertex_gets_zeros() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build_directed(); // 1 has no out-neighbours.
        let h = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let a = aggregate_mean(&g, &h, 2);
        assert_eq!(a.row(1), &[0.0]);
    }
}
