//! Linear-algebra kernels on [`Matrix`].
//!
//! The three matmul variants run on the compute worker pool
//! ([`crate::pool`]): output rows are split into fixed chunks processed
//! by scoped workers. Per output element the reduction over the shared
//! dimension always runs in ascending index order, so results are
//! bitwise identical at every thread count *and* to the original
//! unblocked sequential kernels.
//!
//! All three dispatch on the output width: at 8, 16, 32, 64 and 128
//! columns output rows are accumulated in stack arrays (`matmul` and
//! `matmul_nt` a row at a time over a chunk, `matmul_nt` over its `rhs`
//! transposed once; `matmul_tn` a register group of rows at a time over
//! one block of the reduction, see [`matmul_tn_run`]); every other width
//! runs the generic loop that [`Matrix::matmul_reference`],
//! [`Matrix::matmul_tn_reference`] and [`Matrix::matmul_nt_reference`]
//! expose. Both forms start each element from `0.0`, skip the same zero
//! `lhs` entries (`matmul_nt` skips none) and add the same products in
//! the same order, so they agree bit for bit.
//!
//! [`Matrix::matmul_fused`] is `matmul` with an epilogue: the dense half
//! of a GNN layer, `act(addend + x·W + b)`, applied to each output row
//! once before its one store. Every element sees the operations of the
//! unfused composition in their order, so fusing keeps the bits.

use crate::pool;
use crate::{Activation, Matrix};

/// Cache block over the shared (reduction) dimension: a `BLOCK_K x cols`
/// window of the streamed operand stays hot across the rows of a chunk.
const BLOCK_K: usize = 128;

/// Reduction rows per block of the width-dispatched `matmul_tn`: the
/// block's `lhs` rows stay in cache while every output row of a worker's
/// run walks them. Measured at every dispatched width (8–128) on output
/// rows 8–128 wide and 3 000–9 000 reduction rows: blocks of 16–32 rows
/// were the fastest or within noise of it everywhere, and at `m = 128`
/// with widths 64 and 128 larger blocks were slower (EXPERIMENTS.md).
const TN_BLOCK_P: usize = 32;

/// Minimum multiply-add count before a kernel spawns workers; below this
/// the spawn overhead dominates. Gating only changes scheduling, never
/// results.
const PAR_FLOPS_MIN: usize = 1 << 16;

impl Matrix {
    /// Matrix product `self * rhs`, on the pool's worker count
    /// ([`pool::compute_threads`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.matmul_threads(rhs, pool::compute_threads())
    }

    /// [`Matrix::matmul`] with an explicit worker count. Results are
    /// bitwise identical for every `threads` value, and to
    /// [`Matrix::matmul_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_threads(&self, rhs: &Matrix, threads: usize) -> Matrix {
        self.matmul_with(rhs, None, threads)
    }

    /// The dense half of a GNN layer in one pass: `act(addend + self * rhs
    /// + bias)`, on the pool's worker count. See
    /// [`Matrix::matmul_fused_threads`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`, `bias` is not a `1 x
    /// rhs.cols()` row or `addend` is not `self.rows() x rhs.cols()`.
    pub fn matmul_fused(
        &self,
        rhs: &Matrix,
        addend: Option<&Matrix>,
        bias: &Matrix,
        act: Activation,
    ) -> Matrix {
        self.matmul_fused_threads(rhs, addend, bias, act, pool::compute_threads())
    }

    /// [`Matrix::matmul_threads`] with an epilogue applied to each output
    /// row `z` before its one store (in the stack array at the dispatched
    /// widths, a second pass over the row at every other): `z = a + z`
    /// with `a` the row of `addend` when one is given, then `z += b` with
    /// `bias`, then [`Activation::forward`]'s rule. Those are the
    /// element operations of `addend.add(&self.matmul(rhs))
    /// .add_row_broadcast(bias)` then `act.forward`, in that order, so the
    /// result is that composition's bits at every `threads` value.
    ///
    /// # Panics
    ///
    /// See [`Matrix::matmul_fused`].
    pub fn matmul_fused_threads(
        &self,
        rhs: &Matrix,
        addend: Option<&Matrix>,
        bias: &Matrix,
        act: Activation,
        threads: usize,
    ) -> Matrix {
        let n = rhs.cols();
        assert_eq!(bias.shape(), (1, n), "bias must be a 1 x {n} row");
        if let Some(addend) = addend {
            assert_eq!(addend.shape(), (self.rows(), n), "addend shape mismatch");
        }
        let epilogue = Epilogue {
            addend: addend.map(Matrix::as_slice),
            bias: bias.as_slice(),
            act,
        };
        self.matmul_with(rhs, Some(&epilogue), threads)
    }

    /// `self * rhs` with an optional epilogue per output row.
    fn matmul_with(&self, rhs: &Matrix, epilogue: Option<&Epilogue>, threads: usize) -> Matrix {
        self.check_matmul(rhs);
        let (m, k) = self.shape();
        let n = rhs.cols();
        let mut out = Matrix::zeros(m, n);
        let threads = if m * k * n < PAR_FLOPS_MIN {
            1
        } else {
            threads
        };
        let (lhs, rhs) = (self.as_slice(), rhs.as_slice());
        pool::par_row_chunks(threads, out.as_mut_slice(), n.max(1), |row0, chunk| {
            by_width!(n, matmul_rows(lhs, rhs, k, epilogue, row0, chunk), {
                matmul_rows_reference(lhs, rhs, k, n, row0, chunk);
                if let Some(epilogue) = epilogue {
                    for (i, row) in chunk.chunks_exact_mut(n).enumerate() {
                        epilogue.apply(row0 + i, row);
                    }
                }
            })
        });
        out
    }

    /// `self * rhs` on the caller's thread through the generic loop at
    /// every width: the reference [`Matrix::matmul_threads`] is tested
    /// against bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_reference(&self, rhs: &Matrix) -> Matrix {
        self.check_matmul(rhs);
        let k = self.cols();
        let n = rhs.cols();
        let mut out = Matrix::zeros(self.rows(), n);
        if n > 0 {
            matmul_rows_reference(self.as_slice(), rhs.as_slice(), k, n, 0, out.as_mut_slice());
        }
        out
    }

    fn check_matmul(&self, rhs: &Matrix) {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
    }

    /// `self^T * rhs` without materialising the transpose, on the global
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        self.matmul_tn_threads(rhs, pool::compute_threads())
    }

    /// [`Matrix::matmul_tn`] with an explicit worker count. Results are
    /// bitwise identical for every `threads` value, and to
    /// [`Matrix::matmul_tn_reference`].
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn_threads(&self, rhs: &Matrix, threads: usize) -> Matrix {
        self.check_matmul_tn(rhs);
        let rows = self.rows();
        let m = self.cols();
        let n = rhs.cols();
        let mut out = Matrix::zeros(m, n);
        let threads = if rows * m * n < PAR_FLOPS_MIN {
            1
        } else {
            threads
        };
        let (lhs, rhs) = (self.as_slice(), rhs.as_slice());
        pool::par_row_runs(threads, out.as_mut_slice(), n.max(1), |row0, run| {
            by_width!(
                n,
                matmul_tn_run(lhs, rhs, m, row0, run),
                matmul_tn_rows_reference(lhs, rhs, rows, m, n, row0, run)
            )
        });
        out
    }

    /// `self^T * rhs` on the caller's thread through the generic loop at
    /// every width: the reference [`Matrix::matmul_tn_threads`] is tested
    /// against bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn_reference(&self, rhs: &Matrix) -> Matrix {
        self.check_matmul_tn(rhs);
        let (rows, m) = self.shape();
        let n = rhs.cols();
        let mut out = Matrix::zeros(m, n);
        if n > 0 {
            let (lhs, rhs) = (self.as_slice(), rhs.as_slice());
            matmul_tn_rows_reference(lhs, rhs, rows, m, n, 0, out.as_mut_slice());
        }
        out
    }

    fn check_matmul_tn(&self, rhs: &Matrix) {
        assert_eq!(
            self.rows(),
            rhs.rows(),
            "matmul_tn shape mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
    }

    /// `self * rhs^T` without materialising the transpose, on the global
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        self.matmul_nt_threads(rhs, pool::compute_threads())
    }

    /// [`Matrix::matmul_nt`] with an explicit worker count. Results are
    /// bitwise identical for every `threads` value, and to
    /// [`Matrix::matmul_nt_reference`]: at the dispatched widths the `rhs`
    /// (a layer's weight, at most 128 x 128) is transposed once and the
    /// product runs `matmul`'s row loop without its zero skip, so each
    /// element is `0.0 + a0 * b0 + a1 * b1 + ...` in ascending order, the
    /// dot product's exact sequence.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt_threads(&self, rhs: &Matrix, threads: usize) -> Matrix {
        self.check_matmul_nt(rhs);
        let m = self.rows();
        let k = self.cols();
        let n = rhs.rows();
        let threads = if m * k * n < PAR_FLOPS_MIN {
            1
        } else {
            threads
        };
        by_width!(n, matmul_nt_fixed(self, rhs, threads), {
            let mut out = Matrix::zeros(m, n);
            let (lhs, rhs) = (self.as_slice(), rhs.as_slice());
            pool::par_row_chunks(threads, out.as_mut_slice(), n.max(1), |row0, chunk| {
                matmul_nt_rows_reference(lhs, rhs, k, n, row0, chunk)
            });
            out
        })
    }

    /// `self * rhs^T` on the caller's thread through the generic dot
    /// product loop at every width: the reference
    /// [`Matrix::matmul_nt_threads`] is tested against bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_nt_reference(&self, rhs: &Matrix) -> Matrix {
        self.check_matmul_nt(rhs);
        let n = rhs.rows();
        let mut out = Matrix::zeros(self.rows(), n);
        if n > 0 {
            let (lhs, rhs) = (self.as_slice(), rhs.as_slice());
            matmul_nt_rows_reference(lhs, rhs, self.cols(), n, 0, out.as_mut_slice());
        }
        out
    }

    fn check_matmul_nt(&self, rhs: &Matrix) {
        assert_eq!(
            self.cols(),
            rhs.cols(),
            "matmul_nt shape mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_assign(rhs);
        out
    }

    /// In-place element-wise `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += b;
        }
    }

    /// In-place `self += alpha * rhs` (axpy).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += alpha * b;
        }
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let mut out = self.clone();
        for (a, &b) in out.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a -= b;
        }
        out
    }

    /// Scalar product `alpha * self`.
    pub fn scale(&self, alpha: f32) -> Matrix {
        let mut out = self.clone();
        out.scale_assign(alpha);
        out
    }

    /// In-place scalar product `self *= alpha`.
    pub fn scale_assign(&mut self, alpha: f32) {
        for a in self.as_mut_slice() {
            *a *= alpha;
        }
    }

    /// Element-wise (Hadamard) product `self .* rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "hadamard shape mismatch");
        let mut out = self.clone();
        for (a, &b) in out.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a *= b;
        }
        out
    }

    /// Adds `bias` (a `1 x cols` row vector) to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not a single row of matching width.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), self.cols(), "bias width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows() {
            for (o, &b) in out.row_mut(r).iter_mut().zip(bias.row(0)) {
                *o += b;
            }
        }
        out
    }
}

/// What [`Matrix::matmul_fused`] does to each output row `z` of the
/// product before storing it.
struct Epilogue<'a> {
    /// Row-major, as wide as `z`: `z = a + z` first, when present.
    addend: Option<&'a [f32]>,
    /// Added to every row: `z += b`.
    bias: &'a [f32],
    /// Applied last.
    act: Activation,
}

impl Epilogue<'_> {
    /// Applies the epilogue to `z`, output row `row`.
    fn apply(&self, row: usize, z: &mut [f32]) {
        let n = z.len();
        if let Some(addend) = self.addend {
            for (o, &a) in z.iter_mut().zip(&addend[row * n..(row + 1) * n]) {
                // `addend + product`, the operand order of the unfused
                // `add`; the lint's `*o += a` would swap it.
                #[allow(clippy::assign_op_pattern)]
                {
                    *o = a + *o;
                }
            }
        }
        for (o, &b) in z.iter_mut().zip(self.bias) {
            *o += b;
        }
        self.act.apply(z);
    }
}

/// Rows `row0..` of `lhs (· x k) * rhs (k x W)` into `chunk`, each
/// accumulated from `0.0` in a stack array over ascending `k`, passed
/// through `epilogue` when one is given and stored once; a zero `lhs`
/// entry adds nothing and is skipped, as in [`matmul_rows_reference`].
fn matmul_rows<const W: usize>(
    lhs: &[f32],
    rhs: &[f32],
    k: usize,
    epilogue: Option<&Epilogue>,
    row0: usize,
    chunk: &mut [f32],
) {
    match epilogue {
        None => row_loop::<W, true>(lhs, rhs, k, row0, chunk, |_, z| z),
        Some(epilogue) => row_loop::<W, true>(lhs, rhs, k, row0, chunk, |row, mut z| {
            epilogue.apply(row, &mut z);
            z
        }),
    }
}

/// The register row loop of [`matmul_rows`] and [`matmul_nt_fixed`]:
/// each row of `chunk` accumulated from `0.0` in a stack array over
/// ascending `k`, passed through `epilogue` with its row index and
/// stored once. The epilogue takes and returns the row by value: lending
/// it the accumulator would keep the accumulator in memory for the whole
/// reduction. With `SKIP_ZEROS` a zero `lhs` entry adds nothing and is
/// skipped; without it every product is added, as in the dot products of
/// [`matmul_nt_rows_reference`].
fn row_loop<const W: usize, const SKIP_ZEROS: bool>(
    lhs: &[f32],
    rhs: &[f32],
    k: usize,
    row0: usize,
    chunk: &mut [f32],
    epilogue: impl Fn(usize, [f32; W]) -> [f32; W],
) {
    let (b_rows, _) = rhs.as_chunks::<W>();
    for (i, out_row) in chunk.as_chunks_mut::<W>().0.iter_mut().enumerate() {
        let a_row = &lhs[(row0 + i) * k..(row0 + i + 1) * k];
        let mut acc = [0.0f32; W];
        for (&a, b_row) in a_row.iter().zip(b_rows) {
            if SKIP_ZEROS && a == 0.0 {
                continue;
            }
            for (o, &b) in acc.iter_mut().zip(b_row) {
                *o += a * b;
            }
        }
        *out_row = epilogue(row0 + i, acc);
    }
}

/// `lhs * rhs^T` at output width `W`: `rhs` (`W x k`) is transposed once
/// and every row runs [`row_loop`] without the zero skip.
fn matmul_nt_fixed<const W: usize>(lhs: &Matrix, rhs: &Matrix, threads: usize) -> Matrix {
    let k = lhs.cols();
    let rhs_t = rhs.transpose_threads(1);
    let mut out = Matrix::zeros(lhs.rows(), W);
    let (lhs, rhs_t) = (lhs.as_slice(), rhs_t.as_slice());
    pool::par_row_chunks(threads, out.as_mut_slice(), W, |row0, chunk| {
        row_loop::<W, false>(lhs, rhs_t, k, row0, chunk, |_, z| z)
    });
    out
}

/// The generic `matmul_nt` loop: output element `(i, j)` is the dot
/// product of `lhs` row `i` and `rhs` row `j`, from `0.0` over ascending
/// `p`, with no zero skip.
fn matmul_nt_rows_reference(
    lhs: &[f32],
    rhs: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    chunk: &mut [f32],
) {
    for (i, out_row) in chunk.chunks_mut(n).enumerate() {
        let a_row = &lhs[(row0 + i) * k..(row0 + i + 1) * k];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &rhs[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&a, &b) in a_row.iter().zip(b_row) {
                acc += a * b;
            }
            *o = acc;
        }
    }
}

/// The generic `matmul` loop, accumulating in the zeroed `chunk` itself.
/// Blocked i-k-j: for each k block, stream the block's rhs rows over
/// every row of the chunk. Per output element the adds run in ascending
/// k order (blocks ascending, k within a block ascending) — the
/// unblocked kernel's exact order, and [`matmul_rows`]'.
fn matmul_rows_reference(
    lhs: &[f32],
    rhs: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    chunk: &mut [f32],
) {
    for kb in (0..k).step_by(BLOCK_K) {
        let kend = (kb + BLOCK_K).min(k);
        for (i, out_row) in chunk.chunks_mut(n).enumerate() {
            let a_row = &lhs[(row0 + i) * k..(row0 + i + 1) * k];
            for (p, &a) in a_row[kb..kend].iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs[(kb + p) * n..(kb + p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }
}

/// Output rows `row0..` of `lhs^T (m x ·) * rhs (· x W)` into the zeroed
/// `run` (a worker's rows): row `i` is the fold over ascending `p` of
/// `lhs[p][i] * rhs[p]`. The reduction is cut into [`TN_BLOCK_P`]-row
/// blocks, and each block is walked once for every output row of the run,
/// `R = max(1, 32 / W)` rows at a time: a group's rows live in a stack
/// accumulator for the whole block and go back to `run` at its end, so
/// the block's `lhs` rows are read from memory once and reused from
/// cache by every group, and the accumulator fits the registers. Each
/// element starts from `0.0` (the zeroed `run`), skips the same zero
/// `lhs` entries and adds in ascending `p` across and within blocks;
/// storing and reloading a partial sum between blocks does not change
/// it, so the bits are [`matmul_tn_rows_reference`]'s.
fn matmul_tn_run<const W: usize>(lhs: &[f32], rhs: &[f32], m: usize, row0: usize, run: &mut [f32]) {
    match W {
        8 => matmul_tn_blocked::<W, 4>(lhs, rhs, m, row0, run),
        16 => matmul_tn_blocked::<W, 2>(lhs, rhs, m, row0, run),
        _ => matmul_tn_blocked::<W, 1>(lhs, rhs, m, row0, run),
    }
}

/// [`matmul_tn_run`] with register groups of `R` output rows; the run's
/// last `rows % R` rows go one at a time.
fn matmul_tn_blocked<const W: usize, const R: usize>(
    lhs: &[f32],
    rhs: &[f32],
    m: usize,
    row0: usize,
    run: &mut [f32],
) {
    let (out_rows, _) = run.as_chunks_mut::<W>();
    let (groups, tail) = out_rows.as_chunks_mut::<R>();
    let tail_row0 = row0 + groups.len() * R;
    let (b_rows, _) = rhs.as_chunks::<W>();
    for (pb, b_block) in b_rows.chunks(TN_BLOCK_P).enumerate() {
        let p0 = pb * TN_BLOCK_P;
        let a_block = &lhs[p0 * m..(p0 + b_block.len()) * m];
        for (g, group) in groups.iter_mut().enumerate() {
            matmul_tn_group(a_block, b_block, m, row0 + g * R, group);
        }
        for (i, row) in tail.iter_mut().enumerate() {
            matmul_tn_group(
                a_block,
                b_block,
                m,
                tail_row0 + i,
                std::array::from_mut(row),
            );
        }
    }
}

/// Adds one reduction block to output rows `col0..col0 + R`: row `r`
/// gains `a_block[p][col0 + r] * b_block[p]` for ascending `p`, skipping
/// zero `lhs` entries, in a stack accumulator loaded from and stored back
/// to `group`.
fn matmul_tn_group<const W: usize, const R: usize>(
    a_block: &[f32],
    b_block: &[[f32; W]],
    m: usize,
    col0: usize,
    group: &mut [[f32; W]; R],
) {
    let mut acc = *group;
    for (a_row, b_row) in a_block.chunks_exact(m).zip(b_block) {
        for (acc_row, &a) in acc.iter_mut().zip(&a_row[col0..col0 + R]) {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in acc_row.iter_mut().zip(b_row) {
                *o += a * b;
            }
        }
    }
    *group = acc;
}

/// The generic `matmul_tn` loop, accumulating in the zeroed `chunk`
/// itself. Blocking over p keeps a `BLOCK_K x n` window of rhs hot across
/// the chunk's rows; per element the adds stay in ascending p order — the
/// sequential p-i-j kernel's exact order, and [`matmul_tn_run`]'s.
fn matmul_tn_rows_reference(
    lhs: &[f32],
    rhs: &[f32],
    rows: usize,
    m: usize,
    n: usize,
    row0: usize,
    chunk: &mut [f32],
) {
    for pb in (0..rows).step_by(BLOCK_K) {
        let pend = (pb + BLOCK_K).min(rows);
        for (i, out_row) in chunk.chunks_mut(n).enumerate() {
            let col = row0 + i;
            for p in pb..pend {
                let a = lhs[p * m + col];
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs[p * n..(p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])
    }

    fn b() -> Matrix {
        Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]])
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let c = a().matmul(&b());
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let lhs = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let rhs = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(lhs.matmul_tn(&rhs), lhs.transpose().matmul(&rhs));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let lhs = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let rhs = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 10.0]]);
        assert_eq!(lhs.matmul_nt(&rhs), lhs.matmul(&rhs.transpose()));
    }

    #[test]
    fn add_and_sub_are_inverse() {
        let s = a().add(&b()).sub(&b());
        assert_eq!(s, a());
    }

    #[test]
    fn axpy_accumulates_scaled() {
        let mut m = a();
        m.axpy(2.0, &b());
        assert_eq!(m.as_slice(), &[11.0, 14.0, 17.0, 20.0]);
    }

    #[test]
    fn hadamard_multiplies_elementwise() {
        let h = a().hadamard(&b());
        assert_eq!(h.as_slice(), &[5.0, 12.0, 21.0, 32.0]);
    }

    #[test]
    fn row_broadcast_adds_bias_to_each_row() {
        let bias = Matrix::from_rows(&[&[10.0, 20.0]]);
        let out = a().add_row_broadcast(&bias);
        assert_eq!(out.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn scale_by_zero_gives_zeros() {
        assert_eq!(a().scale(0.0), Matrix::zeros(2, 2));
    }
}
