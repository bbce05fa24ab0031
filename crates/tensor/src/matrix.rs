//! Row-major dense matrix storage.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f32` matrix.
///
/// Rows typically index vertices and columns index feature dimensions.
/// The storage is a single contiguous `Vec<f32>` of length `rows * cols`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all share the same length.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows are not allowed");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` shape tuple.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies `src` into row `r`.
    ///
    /// # Panics
    ///
    /// Panics if the row index or row length mismatch.
    pub fn set_row(&mut self, r: usize, src: &[f32]) {
        self.row_mut(r).copy_from_slice(src);
    }

    /// Returns a new matrix containing the rows selected by `indices`,
    /// in order (a gather along the row axis).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.set_row(dst, self.row(src));
        }
        out
    }

    /// Returns the first `n` rows as a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n > rows`.
    pub fn head_rows(&self, n: usize) -> Matrix {
        assert!(n <= self.rows, "cannot take {} of {} rows", n, self.rows);
        Matrix::from_vec(n, self.cols, self.data[..n * self.cols].to_vec())
    }

    /// Stacks `self` on top of `other` along the row axis.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "column mismatch in vstack");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Concatenates `self` and `other` along the column axis.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row mismatch in hstack");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            let row = out.row_mut(r);
            row[..self.cols].copy_from_slice(&self.data[r * self.cols..(r + 1) * self.cols]);
            row[self.cols..].copy_from_slice(&other.data[r * other.cols..(r + 1) * other.cols]);
        }
        out
    }

    /// Splits the matrix at column `at` into `(left, right)`.
    ///
    /// # Panics
    ///
    /// Panics if `at > cols`.
    pub fn split_cols(&self, at: usize) -> (Matrix, Matrix) {
        assert!(
            at <= self.cols,
            "split point {} beyond {} cols",
            at,
            self.cols
        );
        let mut left = Matrix::zeros(self.rows, at);
        let mut right = Matrix::zeros(self.rows, self.cols - at);
        for r in 0..self.rows {
            let row = self.row(r);
            left.row_mut(r).copy_from_slice(&row[..at]);
            right.row_mut(r).copy_from_slice(&row[at..]);
        }
        (left, right)
    }

    /// The transpose of the matrix, on the pool's worker count
    /// ([`crate::pool::compute_threads`]). A pure permutation: results are
    /// identical at every worker count.
    pub fn transpose(&self) -> Matrix {
        self.transpose_with(crate::pool::compute_threads())
    }

    /// [`Matrix::transpose`] on at most `threads` workers (`matmul_nt`
    /// transposes its weight on one).
    pub(crate) fn transpose_with(&self, threads: usize) -> Matrix {
        // Blocked: each output chunk (a band of source columns) walks the
        // source rows in 64-row tiles so the strided reads of one tile
        // share cache lines before they are evicted.
        const TILE_ROWS: usize = 64;
        let (rows, cols) = (self.rows, self.cols);
        let mut out = Matrix::zeros(cols, rows);
        let threads = crate::pool::workers_for(rows * cols, crate::pool::SPARSE_WORK_MIN, threads);
        let src = &self.data;
        crate::pool::par_row_chunks(threads, &mut out.data, rows.max(1), |c0, chunk| {
            for rb in (0..rows).step_by(TILE_ROWS) {
                let rend = (rb + TILE_ROWS).min(rows);
                for (i, out_row) in chunk.chunks_mut(rows).enumerate() {
                    let c = c0 + i;
                    for r in rb..rend {
                        out_row[r] = src[r * cols + c];
                    }
                }
            }
        });
        out
    }

    /// Maximum absolute difference to `other`, used by parity checks.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f32, f32::max)
    }

    /// Whether every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            write!(f, "  [")?;
            let cols = self.cols.min(8);
            for c in 0..cols {
                write!(f, "{:8.4}", self[(r, c)])?;
                if c + 1 < cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_shape_and_zero_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn eye_is_identity() {
        let m = Matrix::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_round_trips() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn gather_rows_selects_in_order() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[3.0, 1.0, 3.0]);
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let s = a.vstack(&b);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn hstack_and_split_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
        let joined = a.hstack(&b);
        assert_eq!(joined.shape(), (2, 3));
        assert_eq!(joined.row(1), &[3.0, 4.0, 6.0]);
        let (left, right) = joined.split_cols(2);
        assert_eq!(left, a);
        assert_eq!(right, b);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn head_rows_truncates() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(m.head_rows(2).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn max_abs_diff_detects_divergence() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.5, 2.0]]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-6);
    }
}
