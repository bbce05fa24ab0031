//! Pattern-CSR × dense multiply: the one sparse row loop of the
//! reproduction.
//!
//! GNN aggregation is an SpMM of a 0/1 pattern with a dense matrix
//! (CAGNET, PAPERS.md). [`spmm_pattern_into`] is that product over raw
//! `(offsets, indices)` slices, and every container is a caller: the
//! whole-graph `CsrGraph` and the sampler's rectangular `LayerBlock`s
//! (through `dgcl_gnn::aggregate`), and the CAGNET backend's
//! block-partitioned adjacency ([`CsrBlock`] through
//! [`spmm_csr_dense_into`]). The whole-graph adjoint walks the
//! edge-reversed CSR through it too, with an index bound.
//!
//! Patterns carry no values: GNN adjacency is unweighted, so every
//! stored entry is an implicit `1.0` and a multiply is a plain
//! gather-and-add. Mean normalisation is the caller's
//! (`dgcl_gnn::aggregate::mean_scale`): it depends on a degree the
//! pattern alone may not know (a CAGNET block sees a slice of a row).
//!
//! # Determinism contract
//!
//! The kernel accumulates each output row sequentially, in stored index
//! order, split over threads with [`pool::par_row_chunks`] — so results
//! are bitwise identical at every thread count, and two containers that
//! store a row's entries in the same order produce the same bits for it.
//! Whether a row is accumulated in a stack array (the dispatched widths)
//! or in place ([`spmm_pattern_reference`]) changes where the partial
//! sums live, never which adds run or their order.
//! The CAGNET backend stays bitwise equal to the single-device fold by
//! presenting blocks whose columns ascend in global order and
//! accumulating blocks in ascending global column-range order.

use crate::pool;

/// A pattern-only CSR block: `rows × cols`, entries implicitly `1.0`.
///
/// Column indices are local to the block (in `0..cols`). Within each row
/// they are stored in whatever order the builder supplied — the CAGNET
/// builders keep them ascending so accumulation order matches the
/// single-device reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrBlock {
    rows: usize,
    cols: usize,
    offsets: Vec<usize>,
    indices: Vec<u32>,
}

impl CsrBlock {
    /// Builds a block from raw CSR parts.
    ///
    /// # Panics
    ///
    /// Panics if the offsets are not a valid monotone CSR index of
    /// `indices`, or if any column index is out of range.
    pub fn from_parts(rows: usize, cols: usize, offsets: Vec<usize>, indices: Vec<u32>) -> Self {
        assert_eq!(offsets.len(), rows + 1, "offsets must have rows+1 entries");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().expect("non-empty offsets"),
            indices.len(),
            "offsets must end at indices.len()"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        assert!(
            indices.iter().all(|&c| (c as usize) < cols),
            "column index out of range"
        );
        CsrBlock {
            rows,
            cols,
            offsets,
            indices,
        }
    }

    /// An all-zero block.
    pub fn empty(rows: usize, cols: usize) -> Self {
        CsrBlock {
            rows,
            cols,
            offsets: vec![0; rows + 1],
            indices: Vec::new(),
        }
    }

    /// Builds a block from per-row column lists (kept in given order).
    pub fn from_rows(cols: usize, rows: &[Vec<u32>]) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0usize);
        let mut indices = Vec::new();
        for row in rows {
            indices.extend_from_slice(row);
            offsets.push(indices.len());
        }
        Self::from_parts(rows.len(), cols, offsets, indices)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The column indices of row `r`, in stored order.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.indices[self.offsets[r]..self.offsets[r + 1]]
    }
}

/// Work (stored entries × feature width) below which a sparse kernel is
/// not worth a scoped spawn and stays on the caller's thread.
pub const PAR_WORK_MIN: usize = 1 << 15;

/// `out += pattern · dense` for the pattern-CSR `(offsets, indices)`,
/// threaded and bitwise-deterministic.
///
/// The pattern has `offsets.len() - 1` rows; row `r` stores
/// `indices[offsets[r]..offsets[r + 1]]` (so `offsets` may be a window of
/// a longer array, as long as it indexes `indices` absolutely). `dense`
/// and `out` are row-major, `cols` wide. Output row `r` accumulates the
/// dense rows its entries name, in stored order, after whatever `out`
/// already holds, on exactly `threads` workers — callers apply
/// [`PAR_WORK_MIN`].
///
/// With a `bound`, a row stops at its first entry `>= bound`: for rows
/// whose entries ascend (an edge-reversed CSR), that skips the suffix a
/// `dense` of only `bound` rows does not cover. `None` walks every entry.
///
/// At the row widths `dgcl_tensor` dispatches on (8, 16, 32, 64, 128)
/// each output row is accumulated in a stack array and stored once; other
/// widths run [`spmm_pattern_reference`]'s loop. Both add the same values
/// to each element in the same order, so they agree bit for bit.
///
/// # Panics
///
/// Panics if `out` is not `offsets.len() - 1` rows of `cols`, or if an
/// entry walked names a row `dense` does not have.
pub fn spmm_pattern_into(
    offsets: &[usize],
    indices: &[u32],
    bound: Option<u32>,
    dense: &[f32],
    cols: usize,
    out: &mut [f32],
    threads: usize,
) {
    let rows = offsets.len().saturating_sub(1);
    assert_eq!(out.len(), rows * cols, "output is not {rows} x {cols}");
    let bound = bound.map_or(usize::MAX, |b| b as usize);
    pool::par_row_chunks(threads, out, cols, |first_row, chunk| {
        by_width!(
            cols,
            spmm_rows(offsets, indices, bound, dense, first_row, chunk),
            spmm_rows_reference(offsets, indices, bound, dense, cols, first_row, chunk)
        )
    });
}

/// [`spmm_pattern_into`] on the caller's thread through the generic row
/// loop at every width: the reference the width-dispatched kernel is
/// tested against bit for bit.
///
/// # Panics
///
/// See [`spmm_pattern_into`].
pub fn spmm_pattern_reference(
    offsets: &[usize],
    indices: &[u32],
    bound: Option<u32>,
    dense: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    let rows = offsets.len().saturating_sub(1);
    assert_eq!(out.len(), rows * cols, "output is not {rows} x {cols}");
    if cols > 0 {
        let bound = bound.map_or(usize::MAX, |b| b as usize);
        spmm_rows_reference(offsets, indices, bound, dense, cols, 0, out);
    }
}

/// The `W`-wide row loop: output rows `first_row..` of `chunk`, each
/// seeded from `chunk` into a stack accumulator and stored once.
fn spmm_rows<const W: usize>(
    offsets: &[usize],
    indices: &[u32],
    bound: usize,
    dense: &[f32],
    first_row: usize,
    chunk: &mut [f32],
) {
    let (dense_rows, _) = dense.as_chunks::<W>();
    for (i, out_row) in chunk.as_chunks_mut::<W>().0.iter_mut().enumerate() {
        let r = first_row + i;
        let mut acc = *out_row;
        for &c in &indices[offsets[r]..offsets[r + 1]] {
            let c = c as usize;
            if c >= bound {
                break;
            }
            for (o, &x) in acc.iter_mut().zip(&dense_rows[c]) {
                *o += x;
            }
        }
        *out_row = acc;
    }
}

/// The generic row loop, accumulating in `chunk` itself.
fn spmm_rows_reference(
    offsets: &[usize],
    indices: &[u32],
    bound: usize,
    dense: &[f32],
    cols: usize,
    first_row: usize,
    chunk: &mut [f32],
) {
    for (i, out_row) in chunk.chunks_mut(cols).enumerate() {
        let r = first_row + i;
        for &c in &indices[offsets[r]..offsets[r + 1]] {
            let c = c as usize;
            if c >= bound {
                break;
            }
            for (o, &x) in out_row.iter_mut().zip(&dense[c * cols..(c + 1) * cols]) {
                *o += x;
            }
        }
    }
}

/// `out += block · dense` ([`spmm_pattern_into`] over a [`CsrBlock`]):
/// `dense` is row-major `block.cols() × cols`, `out` is row-major
/// `block.rows() × cols`; callers chain calls over several blocks to
/// extend the fold. Stays sequential below [`PAR_WORK_MIN`].
///
/// # Panics
///
/// Panics if the buffer shapes do not match the block.
pub fn spmm_csr_dense_into(
    block: &CsrBlock,
    dense: &[f32],
    cols: usize,
    out: &mut [f32],
    threads: usize,
) {
    assert_eq!(
        dense.len(),
        block.cols() * cols,
        "dense shape mismatch: {} != {} x {cols}",
        dense.len(),
        block.cols(),
    );
    assert_eq!(
        out.len(),
        block.rows() * cols,
        "output shape mismatch: {} != {} x {cols}",
        out.len(),
        block.rows(),
    );
    let threads = if block.nnz().saturating_mul(cols) < PAR_WORK_MIN {
        1
    } else {
        threads
    };
    spmm_pattern_into(
        &block.offsets,
        &block.indices,
        None,
        dense,
        cols,
        out,
        threads,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(block: &CsrBlock, dense: &[f32], cols: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; block.rows() * cols];
        for r in 0..block.rows() {
            for &c in block.row(r) {
                for k in 0..cols {
                    out[r * cols + k] += dense[c as usize * cols + k];
                }
            }
        }
        out
    }

    fn arbitrary_block(rows: usize, cols: usize, seed: u64) -> (CsrBlock, Vec<f32>) {
        // Tiny deterministic LCG so the test needs no RNG dependency.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut row_lists = Vec::with_capacity(rows);
        for _ in 0..rows {
            let deg = next() % (cols + 1);
            let mut row: Vec<u32> = (0..deg).map(|_| (next() % cols) as u32).collect();
            row.sort_unstable();
            row.dedup();
            row_lists.push(row);
        }
        let block = CsrBlock::from_rows(cols, &row_lists);
        let feat = 5;
        let dense: Vec<f32> = (0..cols * feat)
            .map(|i| (next() % 97) as f32 - 48.0 + i as f32 * 0.25)
            .collect();
        (block, dense)
    }

    #[test]
    fn matches_reference_fold() {
        for seed in 0..8u64 {
            let (block, dense) = arbitrary_block(23, 11, seed);
            let cols = 5;
            let want = reference(&block, &dense, cols);
            let mut got = vec![0.0f32; block.rows() * cols];
            spmm_csr_dense_into(&block, &dense, cols, &mut got, 1);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn bitwise_identical_at_every_thread_count() {
        let (block, dense) = arbitrary_block(70, 40, 3);
        let cols = 5;
        let mut base = vec![0.0f32; block.rows() * cols];
        spmm_csr_dense_into(&block, &dense, cols, &mut base, 1);
        for &threads in &[2usize, 3, 4, 8] {
            let mut got = vec![0.0f32; block.rows() * cols];
            spmm_csr_dense_into(&block, &dense, cols, &mut got, threads);
            assert_eq!(got, base, "threads {threads}");
        }
    }

    #[test]
    fn accumulates_into_existing_output() {
        let block = CsrBlock::from_rows(2, &[vec![0, 1], vec![1]]);
        let dense = vec![1.0, 2.0, 10.0, 20.0];
        let mut out = vec![100.0, 200.0, 300.0, 400.0];
        spmm_csr_dense_into(&block, &dense, 2, &mut out, 1);
        assert_eq!(out, vec![111.0, 222.0, 310.0, 420.0]);
    }

    #[test]
    fn empty_block_is_identity() {
        let block = CsrBlock::empty(3, 4);
        let dense = vec![1.0f32; 8];
        let mut out = vec![7.0f32; 6];
        spmm_csr_dense_into(&block, &dense, 2, &mut out, 4);
        assert_eq!(out, vec![7.0f32; 6]);
        assert_eq!(block.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "column index out of range")]
    fn out_of_range_column_is_rejected() {
        CsrBlock::from_parts(1, 2, vec![0, 1], vec![2]);
    }
}
