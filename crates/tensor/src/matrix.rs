//! Dense row-major matrix of `f64`.
//!
//! This is the numeric workhorse for every model in the workspace. Shapes are
//! validated with assertions: a shape mismatch is a programming error, not a
//! recoverable condition, so the contract is panic-with-message (the same
//! contract `ndarray` uses for `dot`).

use crate::rng::Rng;

/// A dense `rows x cols` matrix stored in row-major order.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
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

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner loop contiguous for both operands.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · rhsᵀ` without forming the transpose: bit-identical to
    /// `self.matmul(&rhs.transpose())`. Each output entry sums its terms from
    /// `0.0` in the same `k` order and skips the same zero entries of `self`.
    /// Four output columns share one pass over a row of `self`, so four
    /// independent sums are in flight instead of one latency-bound chain.
    ///
    /// # Panics
    /// Panics if the column counts disagree.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, p) = (self.cols, rhs.rows);
        let mut out = Matrix::zeros(self.rows, p);
        if m == 0 {
            return out;
        }
        for (arow, orow) in self
            .data
            .chunks_exact(m)
            .zip(out.data.chunks_exact_mut(p.max(1)))
        {
            let mut quads = orow.chunks_exact_mut(4);
            let mut brows = rhs.data.chunks_exact(4 * m);
            for (o, b) in (&mut quads).zip(&mut brows) {
                let (b0, rest) = b.split_at(m);
                let (b1, rest) = rest.split_at(m);
                let (b2, b3) = rest.split_at(m);
                let mut acc = [0.0f64; 4];
                for (k, &a) in arow.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    acc[0] += a * b0[k];
                    acc[1] += a * b1[k];
                    acc[2] += a * b2[k];
                    acc[3] += a * b3[k];
                }
                o.copy_from_slice(&acc);
            }
            let tail = quads.into_remainder();
            for (o, brow) in tail.iter_mut().zip(brows.remainder().chunks_exact(m)) {
                for (&a, &b) in arow.iter().zip(brow) {
                    if a != 0.0 {
                        *o += a * b;
                    }
                }
            }
        }
        out
    }

    /// `selfᵀ · rhs` without forming the transpose: bit-identical to
    /// `self.transpose().matmul(rhs)`. Walking `k` (a row of both factors) in
    /// the outer loop gives every output entry its terms in the same `k`
    /// order, skips the same zero entries of `self`, and keeps the inner
    /// loop contiguous.
    ///
    /// # Panics
    /// Panics if the row counts disagree.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (n, p) = (self.cols, rhs.cols);
        let mut out = Matrix::zeros(n, p);
        if n == 0 || p == 0 {
            return out;
        }
        for (arow, rrow) in self.data.chunks_exact(n).zip(rhs.data.chunks_exact(p)) {
            for (&a, orow) in arow.iter().zip(out.data.chunks_exact_mut(p)) {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Elementwise application of `f`.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Combines two equal-shaped matrices elementwise.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "zip: shape mismatch {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
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
        let mut out = Matrix::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
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
        out
    }

    /// Column sums as a `1 x cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self[(r, c)];
            }
        }
        out
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
        assert!(!parts.is_empty(), "hstack: empty input");
        let rows = parts[0].rows;
        let cols = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut at = 0;
            for m in parts {
                assert_eq!(m.rows, rows, "hstack: row mismatch");
                out.data[r * cols + at..r * cols + at + m.cols].copy_from_slice(m.row(r));
                at += m.cols;
            }
        }
        out
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
    fn axpy_accumulates() {
        let mut a = Matrix::ones(2, 2);
        let b = Matrix::full(2, 2, 3.0);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[2.5, 2.5, 2.5, 2.5]);
    }
}
