//! Dense row-major matrix of `f64`.
//!
//! This is the numeric workhorse for every model in the workspace. Shapes are
//! validated with assertions: a shape mismatch is a programming error, not a
//! recoverable condition, so the contract is panic-with-message (the same
//! contract `ndarray` uses for `dot`).

use crate::rng::Rng;

mod kernel;

/// A dense `rows x cols` matrix stored in row-major order. The default is
/// the empty `0 x 0` matrix, which allocates nothing.
#[derive(PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into `self`'s allocation.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// Creates a matrix where every element equals `v`.
    pub fn full(rows: usize, cols: usize, v: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Reshapes `self` to `rows x cols` with every entry `+0.0`, reusing its
    /// allocation: the buffer form of [`Matrix::zeros`].
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.refill(rows, cols, 0.0);
    }

    /// Reshapes `self` to `rows x cols` with every entry `v`, reusing its
    /// allocation: the buffer form of [`Matrix::full`].
    pub fn refill(&mut self, rows: usize, cols: usize, v: f64) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, v);
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a generator function over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "from_rows: empty input");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A 1 x n row vector.
    pub fn row_vector(v: &[f64]) -> Self {
        Self {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// An n x 1 column vector.
    pub fn col_vector(v: &[f64]) -> Self {
        Self {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Matrix with i.i.d. uniform entries in `[lo, hi)`.
    pub fn random_uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut Rng) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.uniform(lo, hi))
    }

    /// Matrix with i.i.d. normal entries.
    pub fn random_normal(rows: usize, cols: usize, mean: f64, std: f64, rng: &mut Rng) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.normal(mean, std))
    }

    /// Glorot/Xavier uniform initialization for a `fan_in x fan_out` weight.
    pub fn glorot(fan_in: usize, fan_out: usize, rng: &mut Rng) -> Self {
        let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
        Self::random_uniform(fan_in, fan_out, -limit, limit, rng)
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(
            r < self.rows,
            "row {} out of bounds ({} rows)",
            r,
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(
            c < self.cols,
            "col {} out of bounds ({} cols)",
            c,
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Matrix product `self * rhs`. Each entry is the IEEE sum, from `+0.0`,
    /// of its terms in ascending `k`, so a NaN or ±∞ in either factor
    /// reaches the entries it touches (`0 · ∞` is NaN); the result is the
    /// same on every CPU (see the `kernel` module).
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul`] written into `out`, whatever its shape and
    /// contents were.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.product(self.rows, self.cols, 1, rhs, out);
    }

    /// `selfᵀ · rhs` without forming the transpose: the kernel reads `self`
    /// down its columns, so the result is bit-identical to
    /// `self.transpose().matmul(rhs)`.
    ///
    /// # Panics
    /// Panics if the row counts disagree.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// [`Matrix::matmul_tn`] written into `out`, whatever its shape and
    /// contents were.
    ///
    /// # Panics
    /// Panics if the row counts disagree.
    pub fn matmul_tn_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        self.product(self.cols, 1, self.cols, rhs, out);
    }

    /// Writes `L · rhs` into `out`, where `L` has `rows` rows and entry
    /// `(i, k)` of `L` is `self.data[i * row_stride + k * k_stride]`, on the
    /// widest kernel tier. `out` is zero-filled first: the kernel leaves it
    /// untouched when the inner dimension is empty.
    fn product(
        &self,
        rows: usize,
        row_stride: usize,
        k_stride: usize,
        rhs: &Matrix,
        out: &mut Matrix,
    ) {
        out.reset(rows, rhs.cols);
        let lhs = kernel::Lhs {
            data: &self.data,
            row_stride,
            k_stride,
        };
        kernel::Tier::widest().product(lhs, &rhs.data, rhs.cols, &mut out.data);
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] written into `out`, whatever its shape and
    /// contents were.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reset(self.cols, self.rows);
        if self.rows > 0 {
            for (c, orow) in out.data.chunks_exact_mut(self.rows).enumerate() {
                for (o, row) in orow.iter_mut().zip(self.data.chunks_exact(self.cols)) {
                    *o = row[c];
                }
            }
        }
    }

    /// Capacity of the buffer, in entries.
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Elementwise application of `f`.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let mut out = Matrix::default();
        self.map_into(&mut out, f);
        out
    }

    /// [`Matrix::map`] written into `out`, whatever its shape and contents
    /// were.
    pub fn map_into(&self, out: &mut Matrix, f: impl Fn(f64) -> f64) {
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data.extend(self.data.iter().map(|&v| f(v)));
    }

    /// Combines two equal-shaped matrices elementwise.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        let mut out = Matrix::default();
        self.zip_into(rhs, &mut out, f);
        out
    }

    /// [`Matrix::zip`] written into `out`, whatever its shape and contents
    /// were.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn zip_into(&self, rhs: &Matrix, out: &mut Matrix, f: impl Fn(f64, f64) -> f64) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "zip: shape mismatch {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data
            .extend(self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)));
    }

    /// `self + rhs` elementwise.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }

    /// `self - rhs` elementwise.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }

    /// Hadamard (elementwise) product.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a * b)
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// [`Matrix::scale`] written into `out`, whatever its shape and
    /// contents were.
    pub fn scale_into(&self, s: f64, out: &mut Matrix) {
        self.map_into(out, |v| v * s);
    }

    /// In-place `self += alpha * rhs`.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Column means as a `1 x cols` row vector.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = Matrix::default();
        self.mean_rows_into(&mut out);
        out
    }

    /// [`Matrix::mean_rows`] written into `out`, whatever its shape and
    /// contents were.
    pub fn mean_rows_into(&self, out: &mut Matrix) {
        out.reset(1, self.cols);
        if self.rows == 0 {
            return;
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self[(r, c)];
            }
        }
        let inv = 1.0 / self.rows as f64;
        for v in &mut out.data {
            *v *= inv;
        }
    }

    /// Writes `self + row` into `out`, the `1 x cols` `row` added to every
    /// row of `self`.
    ///
    /// # Panics
    /// Panics if `row` is not one row as wide as `self`.
    pub fn add_row_broadcast_into(&self, row: &Matrix, out: &mut Matrix) {
        assert_eq!(row.rows, 1, "add_row_broadcast: rhs must be a row vector");
        assert_eq!(self.cols, row.cols, "add_row_broadcast: width mismatch");
        out.rows = self.rows;
        out.cols = self.cols;
        out.data.clear();
        out.data.extend_from_slice(&self.data);
        if self.cols > 0 {
            for r in out.data.chunks_exact_mut(self.cols) {
                for (o, &b) in r.iter_mut().zip(&row.data) {
                    *o += b;
                }
            }
        }
    }

    /// Writes into `out` a `rows x d` matrix of `+0.0` into whose row
    /// `idx[r]` row `r` of each part's matrix is added, part after part,
    /// every part `d` wide. This is `Σ_p S_p · parts[p]` for the 0/1 scatter
    /// matrices `S_p`, entry for entry, without their products: a row placed
    /// once holds `0.0 + v`.
    ///
    /// # Panics
    /// Panics if there is no part, the widths differ, a part's row count is
    /// not its index count, or an index is not below `rows`.
    pub fn place_rows_into<'a>(
        rows: usize,
        mut parts: impl Iterator<Item = (&'a Matrix, &'a [usize])>,
        out: &mut Matrix,
    ) {
        let first = parts.next().expect("place_rows: no parts");
        out.reset(rows, first.0.cols);
        for (v, idx) in std::iter::once(first).chain(parts) {
            assert_eq!(v.cols, out.cols, "place_rows: part widths differ");
            assert_eq!(v.rows, idx.len(), "place_rows: part rows != indices");
            for (r, &dst) in idx.iter().enumerate() {
                assert!(dst < rows, "place_rows: row {dst} out of {rows}");
                for (o, &x) in out.row_mut(dst).iter_mut().zip(v.row(r)) {
                    *o += x;
                }
            }
        }
    }

    /// Writes the column sums into `out`, whatever its shape and contents
    /// were, as a `1 x cols` row vector.
    pub fn sum_rows_into(&self, out: &mut Matrix) {
        out.reset(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self[(r, c)];
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Squared Euclidean distance between two equal-shaped matrices.
    pub fn sq_distance(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.shape(), rhs.shape(), "sq_distance: shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum()
    }

    /// Index of the largest element in row `r` (first index on ties).
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate().skip(1) {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Vertically stacks matrices with equal column counts.
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vstack: empty input");
        let cols = parts[0].cols;
        let rows = parts.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in parts {
            assert_eq!(m.cols, cols, "vstack: column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Horizontally concatenates matrices with equal row counts.
    pub fn hstack(parts: &[&Matrix]) -> Matrix {
        let mut out = Matrix::default();
        Matrix::hstack_into(parts, &mut out);
        out
    }

    /// [`Matrix::hstack`] written into `out`, whatever its shape and
    /// contents were.
    pub fn hstack_into(parts: &[&Matrix], out: &mut Matrix) {
        assert!(!parts.is_empty(), "hstack: empty input");
        let rows = parts[0].rows;
        let cols = parts.iter().map(|m| m.cols).sum();
        out.reset(rows, cols);
        for r in 0..rows {
            let mut at = 0;
            for m in parts {
                assert_eq!(m.rows, rows, "hstack: row mismatch");
                out.data[r * cols + at..r * cols + at + m.cols].copy_from_slice(m.row(r));
                at += m.cols;
            }
        }
    }

    /// Copies the selected rows into a new matrix, in the given order.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Returns `true` if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute elementwise difference; useful for approximate equality in tests.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.shape(), rhs.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn matmul_identity() {
        let mut rng = Rng::seed_from_u64(1);
        let a = Matrix::random_uniform(4, 4, -1.0, 1.0, &mut rng);
        let i = Matrix::eye(4);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-12);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::seed_from_u64(2);
        let a = Matrix::random_normal(3, 5, 0.0, 1.0, &mut rng);
        assert!(a.transpose().transpose().max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn mean_rows_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let m = a.mean_rows();
        assert_eq!(m.as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn hstack_vstack_shapes() {
        let a = Matrix::ones(2, 3);
        let b = Matrix::zeros(2, 2);
        let h = Matrix::hstack(&[&a, &b]);
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h[(0, 2)], 1.0);
        assert_eq!(h[(0, 3)], 0.0);
        let v = Matrix::vstack(&[&a, &Matrix::zeros(1, 3)]);
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v[(2, 0)], 0.0);
    }

    #[test]
    fn select_rows_reorders() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.as_slice(), &[3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn glorot_within_limit() {
        let mut rng = Rng::seed_from_u64(3);
        let w = Matrix::glorot(10, 20, &mut rng);
        let limit = (6.0 / 30.0f64).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= limit));
    }

    #[test]
    fn transpose_handles_empty_shapes() {
        for (r, c) in [(0, 3), (3, 0), (0, 0)] {
            let t = Matrix::zeros(r, c).transpose();
            assert_eq!(t.shape(), (c, r));
            assert!(t.is_empty());
        }
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn buffer_forms_handle_empty_shapes() {
        // Each writes into a buffer that held a 2 x 3 matrix.
        let stale = || Matrix::full(2, 3, 7.0);
        for (r, c) in [(0, 3), (3, 0), (0, 0)] {
            let m = Matrix::zeros(r, c);
            let mut t = stale();
            m.transpose_into(&mut t);
            assert_eq!(t.shape(), (c, r));
            assert!(t.is_empty());
            // `mᵀ · rhs` for an `r x 2` rhs: `c x 2`, every entry an empty
            // sum, `+0.0`.
            let mut p = stale();
            m.matmul_tn_into(&Matrix::full(r, 2, f64::NAN), &mut p);
            assert_eq!(p.shape(), (c, 2));
            assert!(p.as_slice().iter().all(|x| x.to_bits() == 0));
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::ones(2, 2);
        let b = Matrix::full(2, 2, 3.0);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.5, 2.5, 2.5, 2.5]);
    }

    // ---- the product kernel, tier by tier ----

    use super::kernel::{Lhs, Tier};
    use proptest::prelude::*;

    /// Seeded entries from the special-value zoo: NaN, ±∞ (unless `finite`),
    /// −0.0, subnormals, a third zeros (as in relu outputs), and the rest
    /// spread over ±1e12.
    fn special_matrix(rows: usize, cols: usize, seed: u64, finite: bool) -> Matrix {
        let mut rng = Rng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| match rng.usize(15) {
            0 if !finite => f64::NAN,
            1 if !finite => f64::INFINITY,
            2 if !finite => f64::NEG_INFINITY,
            3 => -0.0,
            4 => f64::MIN_POSITIVE / 2.0,
            5..=9 => 0.0,
            _ => rng.uniform(-1e12, 1e12),
        })
    }

    /// `aᵀ·b` (if `transposed`, reading `a` down its columns) or `a·b` on
    /// one tier.
    fn on_tier(tier: Tier, a: &Matrix, transposed: bool, b: &Matrix) -> Matrix {
        let (rows, row_stride, k_stride) = if transposed {
            (a.cols, 1, a.cols)
        } else {
            (a.rows, a.cols, 1)
        };
        let mut out = Matrix::zeros(rows, b.cols);
        let lhs = Lhs {
            data: &a.data,
            row_stride,
            k_stride,
        };
        tier.product(lhs, &b.data, b.cols, &mut out.data);
        out
    }

    /// The IEEE definition: `acc += a * b` from `+0.0` over ascending `k`.
    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows, b.cols, |i, j| {
            let mut acc = 0.0;
            for k in 0..a.cols {
                acc += a[(i, k)] * b[(k, j)];
            }
            acc
        })
    }

    /// The zero-skipping fold the kernels used before they were IEEE.
    fn zero_skip(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows, b.cols, |i, j| {
            let mut acc = 0.0;
            for k in 0..a.cols {
                if a[(i, k)] != 0.0 {
                    acc += a[(i, k)] * b[(k, j)];
                }
            }
            acc
        })
    }

    /// Equal bit for bit, except that any NaN equals any NaN.
    fn same_bits(x: &Matrix, y: &Matrix) -> bool {
        x.shape() == y.shape()
            && x.data
                .iter()
                .zip(&y.data)
                .all(|(p, q)| (p.is_nan() && q.is_nan()) || p.to_bits() == q.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Every tier this CPU offers is the IEEE product, `a·b` and `aᵀ·b`
        // alike. Shapes up to 40 run every block width's tail.
        #[test]
        fn every_tier_is_the_ieee_product(
            n in 0usize..41,
            m in 0usize..41,
            p in 0usize..41,
            seed in 0u64..10_000,
        ) {
            let a = special_matrix(n, m, seed, false);
            let b = special_matrix(m, p, seed.wrapping_add(1), false);
            let at = a.transpose();
            let expect = naive(&a, &b);
            for tier in Tier::offered() {
                prop_assert!(same_bits(&on_tier(tier, &a, false, &b), &expect), "{tier:?} a·b");
                prop_assert!(same_bits(&on_tier(tier, &at, true, &b), &expect), "{tier:?} aᵀ·b");
            }
        }

        // On finite inputs every tier equals the old zero-skipping fold bit
        // for bit: a skipped term is ±0, and adding ±0 to a sum that starts
        // at +0.0 changes nothing. So no golden moved.
        #[test]
        fn on_finite_inputs_every_tier_equals_the_zero_skip(
            n in 0usize..41,
            m in 0usize..41,
            p in 0usize..41,
            seed in 0u64..10_000,
        ) {
            let a = special_matrix(n, m, seed, true);
            let b = special_matrix(m, p, seed.wrapping_add(1), true);
            let at = a.transpose();
            let expect = zero_skip(&a, &b);
            prop_assert!(expect.data.iter().all(|x| !x.is_nan()));
            for tier in Tier::offered() {
                prop_assert!(same_bits(&on_tier(tier, &a, false, &b), &expect), "{tier:?} a·b");
                prop_assert!(same_bits(&on_tier(tier, &at, true, &b), &expect), "{tier:?} aᵀ·b");
            }
        }
    }

    #[test]
    fn zero_times_infinity_is_nan() {
        let zero = Matrix::zeros(1, 1);
        let inf = Matrix::full(1, 1, f64::INFINITY);
        assert_eq!(
            zero_skip(&zero, &inf)[(0, 0)],
            0.0,
            "the old fold dropped the term"
        );
        for tier in Tier::offered() {
            assert!(
                on_tier(tier, &zero, false, &inf)[(0, 0)].is_nan(),
                "{tier:?}"
            );
        }
        assert!(zero.matmul(&inf)[(0, 0)].is_nan());
        assert!(zero.matmul_tn(&inf)[(0, 0)].is_nan());
    }
}
