//! Small dense linear-algebra routines: linear solves and (weighted) least
//! squares. These back the kernel-SHAP weighted regression (paper Eq. 6) and
//! classic-ML fitting.
//!
//! Every routine runs on row-major slices in a [`WlsWorkspace`]: a caller
//! that solves many small systems (kernel SHAP solves one per reward) keeps
//! one workspace and allocates nothing after its first solve, while the
//! `Matrix` forms build a fresh workspace and allocate only their result.
//!
//! No term is skipped. A zero weight, a zero design entry and a zero
//! elimination factor still multiply their row, so a NaN or ±∞ there
//! reaches the result as IEEE 754 requires. On finite inputs with no `−0.0`
//! entry that moves no bit against skipping them: every accumulator starts
//! at `+0.0` or an input entry, a sum is `−0.0` only when both terms are, so
//! none ever holds `−0.0`, and adding or subtracting a ±0 term leaves it as
//! it is.

use crate::matrix::Matrix;

/// Error type for linear solves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The system matrix is singular (or numerically so).
    Singular,
    /// Input dimensions are inconsistent.
    DimensionMismatch,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::DimensionMismatch => write!(f, "dimension mismatch"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Reusable buffers for the solves of this module.
#[derive(Debug, Default)]
pub struct WlsWorkspace {
    /// Design and target after substituting the sum constraint.
    xr: Vec<f64>,
    yr: Vec<f64>,
    /// The normal equations `XᵀWX` (`d × d`) and `XᵀWy` (`d × m`).
    xtwx: Vec<f64>,
    xtwy: Vec<f64>,
    /// `[A | B]` under elimination.
    aug: Vec<f64>,
    /// The last solution.
    sol: Vec<f64>,
}

impl WlsWorkspace {
    /// [`sum_constrained_wls`] on slices: `x` is `y.len() × d`, row-major,
    /// with one weight per row (`None`: every row weighs 1). The `d`
    /// coefficients are borrowed from the workspace until its next solve.
    pub fn sum_constrained_wls(
        &mut self,
        x: &[f64],
        d: usize,
        y: &[f64],
        weights: Option<&[f64]>,
        total: f64,
    ) -> Result<&[f64], LinalgError> {
        let rows = y.len();
        if d == 0 {
            return Err(LinalgError::DimensionMismatch);
        }
        self.sol.clear();
        if d == 1 {
            self.sol.push(total);
            return Ok(&self.sol);
        }
        if x.len() != rows * d || weights.is_some_and(|w| w.len() != rows) {
            return Err(LinalgError::DimensionMismatch);
        }
        // Substitute: y' = y - total * x_last; x'_j = x_j - x_last.
        let (mut xr, mut yr) = (std::mem::take(&mut self.xr), std::mem::take(&mut self.yr));
        xr.clear();
        yr.clear();
        for (row, &target) in x.chunks_exact(d).zip(y) {
            let last = row[d - 1];
            xr.extend(row[..d - 1].iter().map(|&v| v - last));
            yr.push(target - total * last);
        }
        let solved = self.weighted_least_squares(&xr, &yr, rows, d - 1, 1, weights, 1e-10);
        (self.xr, self.yr) = (xr, yr);
        solved?;
        let mut rest = 0.0;
        for &beta in &self.sol {
            rest += beta;
        }
        self.sol.push(total - rest);
        Ok(&self.sol)
    }

    /// Weighted least squares of `x` (`rows × d`) against `y` (`rows × m`)
    /// with ridge `lambda`, into `self.sol` (`d × m`). Shapes are the
    /// caller's to check.
    #[allow(clippy::too_many_arguments)]
    fn weighted_least_squares(
        &mut self,
        x: &[f64],
        y: &[f64],
        rows: usize,
        d: usize,
        m: usize,
        weights: Option<&[f64]>,
        lambda: f64,
    ) -> Result<(), LinalgError> {
        // Form X^T W X and X^T W y directly (d is small for SHAP: one row per player).
        self.xtwx.clear();
        self.xtwx.resize(d * d, 0.0);
        self.xtwy.clear();
        self.xtwy.resize(d * m, 0.0);
        for r in 0..rows {
            let w = weights.map_or(1.0, |w| w[r]);
            let (xr, yr) = (&x[r * d..][..d], &y[r * m..][..m]);
            for (i, &xi) in xr.iter().enumerate() {
                let wxi = w * xi;
                for (acc, &xj) in self.xtwx[i * d..][..d].iter_mut().zip(xr) {
                    *acc += wxi * xj;
                }
                for (acc, &yj) in self.xtwy[i * m..][..m].iter_mut().zip(yr) {
                    *acc += wxi * yj;
                }
            }
        }
        for i in 0..d {
            self.xtwx[i * d + i] += lambda;
        }
        match solve_into(&self.xtwx, &self.xtwy, d, m, &mut self.aug, &mut self.sol) {
            Err(LinalgError::Singular) if lambda == 0.0 => {
                // Retry with a small ridge: sampled-coalition designs are often rank-deficient.
                for i in 0..d {
                    self.xtwx[i * d + i] += 1e-8;
                }
                solve_into(&self.xtwx, &self.xtwy, d, m, &mut self.aug, &mut self.sol)
            }
            solved => solved,
        }
    }
}

/// Gaussian elimination with partial pivoting: solves `A X = B` for `A`
/// (`n × n`) and `B` (`n × m`), both row-major, through `aug` into `x`.
fn solve_into(
    a: &[f64],
    b: &[f64],
    n: usize,
    m: usize,
    aug: &mut Vec<f64>,
    x: &mut Vec<f64>,
) -> Result<(), LinalgError> {
    let w = n + m;
    // Augmented matrix [A | b].
    aug.clear();
    for r in 0..n {
        aug.extend_from_slice(&a[r * n..][..n]);
        aug.extend_from_slice(&b[r * m..][..m]);
    }

    for col in 0..n {
        // Partial pivot: the largest magnitude on or below the diagonal,
        // the last of equals (as `Iterator::max_by` picks).
        let mut pivot_row = col;
        let mut pivot_val = aug[col * w + col].abs();
        for r in col + 1..n {
            let v = aug[r * w + col].abs();
            if pivot_val.partial_cmp(&v) != Some(std::cmp::Ordering::Greater) {
                (pivot_row, pivot_val) = (r, v);
            }
        }
        if pivot_val < 1e-12 {
            return Err(LinalgError::Singular);
        }
        if pivot_row != col {
            for c in 0..w {
                aug.swap(pivot_row * w + c, col * w + c);
            }
        }
        let inv = 1.0 / aug[col * w + col];
        let (upper, lower) = aug.split_at_mut((col + 1) * w);
        let pivot = &upper[col * w + col..];
        for row in lower.chunks_exact_mut(w) {
            let factor = row[col] * inv;
            for (v, &p) in row[col..].iter_mut().zip(pivot) {
                *v -= factor * p;
            }
        }
    }

    // Back substitution.
    x.clear();
    x.resize(n * m, 0.0);
    for r in (0..n).rev() {
        let row = &aug[r * w..][..w];
        for c in 0..m {
            let mut v = row[n + c];
            for k in r + 1..n {
                v -= row[k] * x[k * m + c];
            }
            x[r * m + c] = v / row[r];
        }
    }
    Ok(())
}

/// Solves `A x = b` for square `A` using Gaussian elimination with partial
/// pivoting. `b` may have multiple right-hand-side columns.
pub fn solve(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    let n = a.rows();
    if a.cols() != n || b.rows() != n {
        return Err(LinalgError::DimensionMismatch);
    }
    let (m, mut x) = (b.cols(), Vec::new());
    solve_into(a.as_slice(), b.as_slice(), n, m, &mut Vec::new(), &mut x)?;
    Ok(Matrix::from_vec(n, m, x))
}

/// Ordinary least squares: `argmin_beta ||X beta - y||^2` with ridge
/// stabilization `lambda` (pass 0 for plain OLS; a tiny ridge is added
/// automatically if the normal equations are singular).
pub fn least_squares(x: &Matrix, y: &Matrix, lambda: f64) -> Result<Matrix, LinalgError> {
    weighted_least_squares(x, y, None, lambda)
}

/// Weighted least squares: `argmin_beta sum_i w_i (x_i beta - y_i)^2`.
///
/// This is the solver behind kernel SHAP (paper Eq. 6): rows are sampled
/// coalitions, weights are the Shapley kernel weights.
pub fn weighted_least_squares(
    x: &Matrix,
    y: &Matrix,
    weights: Option<&[f64]>,
    lambda: f64,
) -> Result<Matrix, LinalgError> {
    if y.rows() != x.rows() || weights.is_some_and(|w| w.len() != x.rows()) {
        return Err(LinalgError::DimensionMismatch);
    }
    let (d, m) = (x.cols(), y.cols());
    let mut ws = WlsWorkspace::default();
    ws.weighted_least_squares(x.as_slice(), y.as_slice(), x.rows(), d, m, weights, lambda)?;
    Ok(Matrix::from_vec(d, m, ws.sol))
}

/// Constrained weighted least squares where the coefficients must sum to a
/// fixed `total` (the SHAP efficiency constraint). Implemented by
/// substituting the last coefficient: `beta_last = total - sum(beta_rest)`.
/// Only `y`'s first column is fitted.
pub fn sum_constrained_wls(
    x: &Matrix,
    y: &Matrix,
    weights: &[f64],
    total: f64,
) -> Result<Matrix, LinalgError> {
    let d = x.cols();
    if d > 1 && y.rows() != x.rows() {
        return Err(LinalgError::DimensionMismatch);
    }
    let first = if y.cols() == 1 || d <= 1 {
        std::borrow::Cow::Borrowed(y.as_slice())
    } else {
        std::borrow::Cow::Owned(y.col(0))
    };
    let mut ws = WlsWorkspace::default();
    let beta = ws.sum_constrained_wls(x.as_slice(), d, &first, Some(weights), total)?;
    Ok(Matrix::from_vec(d, 1, beta.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use proptest::prelude::*;

    #[test]
    fn solve_recovers_known_solution() {
        let mut rng = Rng::seed_from_u64(5);
        let a = Matrix::random_normal(5, 5, 0.0, 1.0, &mut rng);
        let x_true = Matrix::random_normal(5, 2, 0.0, 1.0, &mut rng);
        let b = a.matmul(&x_true);
        let x = solve(&a, &b).unwrap();
        assert!(x.max_abs_diff(&x_true) < 1e-8);
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        let b = Matrix::col_vector(&[1.0, 2.0]);
        assert_eq!(solve(&a, &b), Err(LinalgError::Singular));
    }

    #[test]
    fn least_squares_recovers_linear_model() {
        let mut rng = Rng::seed_from_u64(7);
        let x = Matrix::random_normal(50, 3, 0.0, 1.0, &mut rng);
        let beta_true = Matrix::col_vector(&[2.0, -1.0, 0.5]);
        let y = x.matmul(&beta_true);
        let beta = least_squares(&x, &y, 0.0).unwrap();
        assert!(beta.max_abs_diff(&beta_true) < 1e-8);
    }

    #[test]
    fn weighted_least_squares_ignores_zero_weight_rows() {
        // Two clean rows determine the line; a third contaminated row has w=0.
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let y = Matrix::col_vector(&[1.0, 2.0, 100.0]);
        let beta = weighted_least_squares(&x, &y, Some(&[1.0, 1.0, 0.0]), 0.0).unwrap();
        assert!((beta[(0, 0)] - 1.0).abs() < 1e-8);
        assert!((beta[(1, 0)] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn sum_constrained_wls_respects_constraint() {
        let mut rng = Rng::seed_from_u64(11);
        let x = Matrix::from_fn(40, 4, |_, _| if rng.bool(0.5) { 1.0 } else { 0.0 });
        let y = Matrix::from_fn(40, 1, |r, _| {
            x.row(r).iter().sum::<f64>() + rng.normal(0.0, 0.01)
        });
        let w = vec![1.0; 40];
        let beta = sum_constrained_wls(&x, &y, &w, 4.0).unwrap();
        let total: f64 = beta.col(0).iter().sum();
        assert!((total - 4.0).abs() < 1e-9, "sum {total}");
    }

    #[test]
    fn singular_design_falls_back_to_ridge() {
        // Duplicate column -> singular normal equations; ridge fallback must solve.
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let y = Matrix::col_vector(&[2.0, 4.0, 6.0]);
        let beta = least_squares(&x, &y, 0.0).unwrap();
        // Prediction should still be accurate even though coefficients are not unique.
        let pred = x.matmul(&beta);
        assert!(pred.max_abs_diff(&y) < 1e-3);
    }

    #[test]
    fn one_workspace_solves_many_systems_like_fresh_ones() {
        let mut rng = Rng::seed_from_u64(13);
        let mut ws = WlsWorkspace::default();
        for (rows, d) in [(32, 8), (5, 3), (40, 12), (32, 8), (1, 2)] {
            let x = design(&mut rng, rows, d, Entries::Binary);
            let y = Matrix::from_fn(rows, 1, |_, _| rng.normal(0.0, 1.0));
            let w = vec![1.0; rows];
            let fresh = sum_constrained_wls(&x, &y, &w, 0.25);
            let reused = ws
                .sum_constrained_wls(x.as_slice(), d, y.as_slice(), Some(&w), 0.25)
                .map(|b| Matrix::from_vec(d, 1, b.to_vec()));
            assert_eq!(bits(&reused), bits(&fresh), "{rows} x {d}");
        }
    }

    /// The solves as they were when they skipped zero terms: `solve` a zero
    /// factor, `weighted_least_squares` a zero weight and a zero
    /// weighted design entry. On finite inputs the IEEE routines above must
    /// give their bits.
    mod skipping {
        use super::*;

        pub fn solve(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
            let n = a.rows();
            if a.cols() != n || b.rows() != n {
                return Err(LinalgError::DimensionMismatch);
            }
            let m = b.cols();
            // Augmented matrix [A | b].
            let mut aug = Matrix::zeros(n, n + m);
            for r in 0..n {
                aug.row_mut(r)[..n].copy_from_slice(a.row(r));
                aug.row_mut(r)[n..].copy_from_slice(b.row(r));
            }

            for col in 0..n {
                // Partial pivot.
                let (pivot_row, pivot_val) = (col..n)
                    .map(|r| (r, aug[(r, col)].abs()))
                    .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(std::cmp::Ordering::Equal))
                    .expect("non-empty range");
                if pivot_val < 1e-12 {
                    return Err(LinalgError::Singular);
                }
                if pivot_row != col {
                    // Swap rows in place.
                    for c in 0..n + m {
                        let tmp = aug[(pivot_row, c)];
                        aug[(pivot_row, c)] = aug[(col, c)];
                        aug[(col, c)] = tmp;
                    }
                }
                let inv = 1.0 / aug[(col, col)];
                for r in col + 1..n {
                    let factor = aug[(r, col)] * inv;
                    if factor == 0.0 {
                        continue;
                    }
                    for c in col..n + m {
                        let v = aug[(col, c)];
                        aug[(r, c)] -= factor * v;
                    }
                }
            }

            // Back substitution.
            let mut x = Matrix::zeros(n, m);
            for r in (0..n).rev() {
                for c in 0..m {
                    let mut v = aug[(r, n + c)];
                    for k in r + 1..n {
                        v -= aug[(r, k)] * x[(k, c)];
                    }
                    x[(r, c)] = v / aug[(r, r)];
                }
            }
            Ok(x)
        }

        pub fn weighted_least_squares(
            x: &Matrix,
            y: &Matrix,
            weights: Option<&[f64]>,
            lambda: f64,
        ) -> Result<Matrix, LinalgError> {
            if y.rows() != x.rows() {
                return Err(LinalgError::DimensionMismatch);
            }
            if let Some(w) = weights {
                if w.len() != x.rows() {
                    return Err(LinalgError::DimensionMismatch);
                }
            }
            let d = x.cols();
            // Form X^T W X and X^T W y directly (d is small for SHAP: one row per player).
            let mut xtwx = Matrix::zeros(d, d);
            let mut xtwy = Matrix::zeros(d, y.cols());
            for r in 0..x.rows() {
                let w = weights.map_or(1.0, |w| w[r]);
                if w == 0.0 {
                    continue;
                }
                let xr = x.row(r);
                for i in 0..d {
                    let wxi = w * xr[i];
                    if wxi == 0.0 {
                        continue;
                    }
                    for j in 0..d {
                        xtwx[(i, j)] += wxi * xr[j];
                    }
                    for j in 0..y.cols() {
                        xtwy[(i, j)] += wxi * y[(r, j)];
                    }
                }
            }
            for i in 0..d {
                xtwx[(i, i)] += lambda;
            }
            match solve(&xtwx, &xtwy) {
                Ok(beta) => Ok(beta),
                Err(LinalgError::Singular) if lambda == 0.0 => {
                    // Retry with a small ridge: sampled-coalition designs are often rank-deficient.
                    for i in 0..d {
                        xtwx[(i, i)] += 1e-8;
                    }
                    solve(&xtwx, &xtwy)
                }
                Err(e) => Err(e),
            }
        }

        pub fn sum_constrained_wls(
            x: &Matrix,
            y: &Matrix,
            weights: &[f64],
            total: f64,
        ) -> Result<Matrix, LinalgError> {
            let d = x.cols();
            if d == 0 {
                return Err(LinalgError::DimensionMismatch);
            }
            if d == 1 {
                return Ok(Matrix::from_vec(1, 1, vec![total]));
            }
            // Substitute: y' = y - total * x_last; x'_j = x_j - x_last.
            let mut xr = Matrix::zeros(x.rows(), d - 1);
            let mut yr = Matrix::zeros(y.rows(), 1);
            for r in 0..x.rows() {
                let last = x[(r, d - 1)];
                for c in 0..d - 1 {
                    xr[(r, c)] = x[(r, c)] - last;
                }
                yr[(r, 0)] = y[(r, 0)] - total * last;
            }
            let beta = weighted_least_squares(&xr, &yr, Some(weights), 1e-10)?;
            let mut out = Matrix::zeros(d, 1);
            let mut rest = 0.0;
            for c in 0..d - 1 {
                out[(c, 0)] = beta[(c, 0)];
                rest += beta[(c, 0)];
            }
            out[(d - 1, 0)] = total - rest;
            Ok(out)
        }
    }

    /// A solve's outcome as exactly comparable integers.
    fn bits(r: &Result<Matrix, LinalgError>) -> Result<(usize, usize, Vec<u64>), LinalgError> {
        r.clone().map(|m| {
            let data = m.as_slice().iter().map(|v| v.to_bits()).collect();
            (m.rows(), m.cols(), data)
        })
    }

    #[derive(Clone, Copy)]
    enum Entries {
        /// Kernel SHAP's coalition indicators.
        Binary,
        /// 0 and ±1, as after the sum constraint's substitution.
        Signed,
        /// Arbitrary values, one in four an exact zero.
        Real,
    }

    /// A `rows × d` design; a column may copy another, so the normal
    /// equations can be singular even with rows to spare.
    fn design(rng: &mut Rng, rows: usize, d: usize, entries: Entries) -> Matrix {
        let mut x = Matrix::from_fn(rows, d, |_, _| match entries {
            Entries::Binary => f64::from(u8::from(rng.bool(0.5))),
            Entries::Signed => [0.0, 1.0, -1.0][rng.usize(3)],
            Entries::Real if rng.bool(0.25) => 0.0,
            Entries::Real => rng.uniform(-3.0, 3.0),
        });
        if d > 1 && rng.bool(0.3) {
            let (from, to) = (rng.usize(d), rng.usize(d));
            for r in 0..rows {
                x[(r, to)] = x[(r, from)];
            }
        }
        x
    }

    /// Weights with exact zeros among them, or none at all.
    fn weights(rng: &mut Rng, rows: usize) -> Vec<f64> {
        (0..rows)
            .map(|_| match rng.usize(3) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.uniform(0.01, 4.0),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // On finite designs (0/1, 0/±1 and arbitrary entries, zero weights,
        // rank-deficient and singular systems, with and without the ridge
        // retry) every solve gives the skipping oracle's bits and errors.
        #[test]
        fn finite_inputs_give_the_skipping_solves_bits(seed in 0u64..1_000_000) {
            let mut rng = Rng::seed_from_u64(seed);
            let entries = [Entries::Binary, Entries::Signed, Entries::Real][rng.usize(3)];
            let d = rng.range(1, 10);
            // Fewer rows than columns is rank-deficient.
            let rows = rng.range(1, 3 * d + 2);
            let x = design(&mut rng, rows, d, entries);
            let y = Matrix::from_fn(rows, rng.range(1, 3), |_, _| rng.normal(0.0, 1.0));
            let w = weights(&mut rng, rows);
            let total = rng.normal(0.0, 1.0);
            for lambda in [0.0, 1e-10, 0.5] {
                prop_assert_eq!(
                    bits(&weighted_least_squares(&x, &y, Some(&w), lambda)),
                    bits(&skipping::weighted_least_squares(&x, &y, Some(&w), lambda))
                );
                prop_assert_eq!(
                    bits(&weighted_least_squares(&x, &y, None, lambda)),
                    bits(&skipping::weighted_least_squares(&x, &y, None, lambda))
                );
            }
            prop_assert_eq!(
                bits(&sum_constrained_wls(&x, &y, &w, total)),
                bits(&skipping::sum_constrained_wls(&x, &y, &w, total))
            );
            // A square system straight from the design: zero factors and
            // singular pivots both occur.
            let n = d;
            let a = design(&mut rng, n, n, entries);
            let b = Matrix::from_fn(n, rng.range(1, 3), |_, _| rng.normal(0.0, 1.0));
            prop_assert_eq!(bits(&solve(&a, &b)), bits(&skipping::solve(&a, &b)));
        }

        // A NaN or ±∞ in a row the old solve skipped (zero weight, or a
        // zero design row's target) now reaches the result: it is non-finite
        // or the system is singular.
        #[test]
        fn non_finite_entries_in_skipped_rows_reach_the_result(seed in 0u64..1_000_000) {
            let mut rng = Rng::seed_from_u64(seed);
            let d = rng.range(2, 8);
            let rows = rng.range(d + 1, 4 * d);
            let mut x = design(&mut rng, rows, d, Entries::Binary);
            let mut y = Matrix::from_fn(rows, 1, |_, _| rng.normal(0.0, 1.0));
            let mut w = vec![1.0; rows];
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.usize(3)];
            let r = rng.usize(rows);
            if rng.bool(0.5) {
                // A zero-weight row, poisoned in its design or its target.
                w[r] = 0.0;
                let c = rng.usize(d + 1);
                if c < d {
                    x[(r, c)] = bad;
                } else {
                    y[(r, 0)] = bad;
                }
            } else {
                // A zero design row, poisoned in its target.
                x.row_mut(r).fill(0.0);
                y[(r, 0)] = bad;
            }
            let reached = |got: Result<Matrix, LinalgError>| match got {
                Ok(m) => !m.is_finite(),
                Err(e) => e == LinalgError::Singular,
            };
            let old = skipping::weighted_least_squares(&x, &y, Some(&w), 0.0);
            prop_assert!(old.as_ref().map_or(true, Matrix::is_finite));
            prop_assert!(reached(weighted_least_squares(&x, &y, Some(&w), 0.0)));
            prop_assert!(reached(sum_constrained_wls(&x, &y, &w, 0.5)));
        }
    }
}
