//! First-order optimizers over flat parameter lists.
//!
//! Models in this workspace expose their weights as an ordered `Vec<Matrix>`
//! (see [`ParamVec`]); the optimizers consume gradients aligned by index.

use crate::matrix::Matrix;

/// An ordered set of parameter matrices with helpers used by the federated
/// layer (flattening, distances, layer counts).
pub type ParamVec = Vec<Matrix>;

/// Total number of scalar parameters.
pub fn param_count(params: &ParamVec) -> usize {
    params.iter().map(Matrix::len).sum()
}

/// Serialized size in bytes assuming `f64` wire encoding; used by the
/// federated communication accounting.
pub fn param_bytes(params: &ParamVec) -> usize {
    param_count(params) * std::mem::size_of::<f64>()
}

/// Euclidean norm of the full parameter vector.
pub fn param_norm(params: &ParamVec) -> f64 {
    params
        .iter()
        .map(|m| m.frobenius_norm().powi(2))
        .sum::<f64>()
        .sqrt()
}

/// True when every entry of every matrix is finite (no NaN/±Inf). The
/// federated server runs this over each received update before it can reach
/// [`param_weighted_average`] or the trust scorer.
pub fn param_is_finite(params: &ParamVec) -> bool {
    params.iter().all(Matrix::is_finite)
}

/// Elementwise difference `a - b` of two aligned parameter vectors.
pub fn param_sub(a: &ParamVec, b: &ParamVec) -> ParamVec {
    assert_eq!(a.len(), b.len(), "param_sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x.sub(y)).collect()
}

/// Flattens a parameter vector into one contiguous slice (for cosine similarity).
pub fn param_flatten(params: &ParamVec) -> Vec<f64> {
    let mut out = Vec::with_capacity(param_count(params));
    for m in params {
        out.extend_from_slice(m.as_slice());
    }
    out
}

/// Weighted average of aligned parameter vectors. Weights are normalized
/// internally; used by every FedAvg-style aggregator.
///
/// # Panics
/// Panics if `sets` is empty, lengths are misaligned, or all weights are zero.
pub fn param_weighted_average(sets: &[&ParamVec], weights: &[f64]) -> ParamVec {
    assert!(!sets.is_empty(), "param_weighted_average: empty input");
    assert_eq!(
        sets.len(),
        weights.len(),
        "param_weighted_average: weight count"
    );
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "param_weighted_average: zero total weight");
    let mut out: ParamVec = sets[0]
        .iter()
        .map(|m| Matrix::zeros(m.rows(), m.cols()))
        .collect();
    for (set, &w) in sets.iter().zip(weights) {
        assert_eq!(
            set.len(),
            out.len(),
            "param_weighted_average: layer count mismatch"
        );
        for (acc, m) in out.iter_mut().zip(set.iter()) {
            acc.axpy(w / total, m);
        }
    }
    out
}

/// Plain SGD with optional L2 weight decay.
#[derive(Clone, Debug)]
pub struct Sgd {
    pub lr: f64,
    pub weight_decay: f64,
}

impl Sgd {
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            weight_decay: 0.0,
        }
    }

    /// Applies one step: `p -= lr * (g + wd * p)`.
    pub fn step(&self, params: &mut ParamVec, grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len(), "sgd: grad count mismatch");
        for (p, g) in params.iter_mut().zip(grads) {
            if self.weight_decay != 0.0 {
                let decay = p.scale(self.weight_decay);
                p.axpy(-self.lr, &decay);
            }
            p.axpy(-self.lr, g);
        }
    }
}

/// Adam optimizer (Kingma & Ba, 2015) with bias correction.
#[derive(Clone, Debug)]
pub struct Adam {
    pub lr: f64,
    pub beta1: f64,
    pub beta2: f64,
    pub eps: f64,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates an Adam optimizer for parameters shaped like `template`.
    pub fn new(lr: f64, template: &ParamVec) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: template
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect(),
            v: template
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect(),
        }
    }

    /// Applies one Adam update.
    ///
    /// Once `1 - β₁ᵗ` rounds to exactly 1.0 (from t = 356 at β₁ = 0.9),
    /// the first moment is used as it stands: `m / 1.0` is `m` for every
    /// f64, and the loop, bound by its divider, makes one division fewer.
    ///
    /// # Panics
    /// Panics if `grads` is not aligned with the parameters this optimizer was
    /// created for.
    pub fn step(&mut self, params: &mut ParamVec, grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len(), "adam: grad count mismatch");
        assert_eq!(params.len(), self.m.len(), "adam: state mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        if bc1 == 1.0 {
            self.update(params, grads, |m| m, bc2);
        } else {
            self.update(params, grads, |m| m / bc1, bc2);
        }
    }

    /// The update of [`Adam::step`], with `mhat` the bias-corrected first
    /// moment.
    fn update(
        &mut self,
        params: &mut ParamVec,
        grads: &[Matrix],
        mhat: impl Fn(f64) -> f64,
        bc2: f64,
    ) {
        for i in 0..params.len() {
            assert_eq!(
                params[i].shape(),
                grads[i].shape(),
                "adam: shape mismatch at layer {i}"
            );
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            for ((pm, pv), (&g, p)) in m
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice())
                .zip(grads[i].as_slice().iter().zip(params[i].as_mut_slice()))
            {
                *pm = self.beta1 * *pm + (1.0 - self.beta1) * g;
                *pv = self.beta2 * *pv + (1.0 - self.beta2) * g * g;
                let vhat = *pv / bc2;
                *p -= self.lr * mhat(*pm) / (vhat.sqrt() + self.eps);
            }
        }
    }

    /// Resets optimizer state (used when a client receives fresh global weights).
    pub fn reset(&mut self) {
        self.t = 0;
        for m in &mut self.m {
            *m = Matrix::zeros(m.rows(), m.cols());
        }
        for v in &mut self.v {
            *v = Matrix::zeros(v.rows(), v.cols());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::{Forward, Tape};
    use crate::rng::Rng;

    /// Both optimizers should drive a convex quadratic toward its minimum.
    fn quadratic_loss(p: &Matrix) -> (f64, Matrix) {
        // loss = sum((p - 3)^2)
        let mut tape = Tape::new();
        let v = tape.param(p.clone());
        let shifted = tape.add_scalar(v, -3.0);
        let sq = tape.hadamard(shifted, shifted);
        let loss = tape.sum_all(sq);
        let g = tape.backward(loss).get(v, p);
        (tape.value(loss)[(0, 0)], g)
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut rng = Rng::seed_from_u64(1);
        let mut params = vec![Matrix::random_normal(2, 2, 0.0, 1.0, &mut rng)];
        let opt = Sgd::new(0.1);
        for _ in 0..200 {
            let (_, g) = quadratic_loss(&params[0]);
            opt.step(&mut params, &[g]);
        }
        assert!(params[0].max_abs_diff(&Matrix::full(2, 2, 3.0)) < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut rng = Rng::seed_from_u64(2);
        let mut params = vec![Matrix::random_normal(2, 2, 0.0, 1.0, &mut rng)];
        let mut opt = Adam::new(0.1, &params);
        for _ in 0..500 {
            let (_, g) = quadratic_loss(&params[0]);
            opt.step(&mut params, &[g]);
        }
        assert!(params[0].max_abs_diff(&Matrix::full(2, 2, 3.0)) < 1e-3);
    }

    #[test]
    fn skipping_the_exact_bias_correction_moves_no_bit() {
        // 400 steps cross t = 356, the first at which `1 - 0.9^t` rounds to
        // 1.0. The reference is the update before the skip: it divides by
        // the correction at every step.
        let mut rng = Rng::seed_from_u64(3);
        let shapes = [(3, 4), (1, 4), (4, 2)];
        let mut params: ParamVec = shapes
            .iter()
            .map(|&(r, c)| Matrix::random_normal(r, c, 0.0, 1.0, &mut rng))
            .collect();
        let mut opt = Adam::new(0.01, &params);
        let mut want = params.clone();
        let zeros = || -> ParamVec { shapes.iter().map(|&(r, c)| Matrix::zeros(r, c)).collect() };
        let (mut m, mut v) = (zeros(), zeros());
        let mut corrected_to_one = 0;
        for t in 1..=400 {
            // Layer 0 also meets NaN and ±∞; the others keep finite
            // moments, so every step of theirs is compared on real bits.
            let grads: Vec<Matrix> = (shapes.iter().enumerate())
                .map(|(i, &(r, c))| {
                    Matrix::from_fn(r, c, |_, _| match rng.usize(60) {
                        0 if i == 0 => f64::NAN,
                        1 if i == 0 => f64::INFINITY,
                        2 if i == 0 => f64::NEG_INFINITY,
                        3 => -0.0,
                        4 => f64::MIN_POSITIVE / 4.0,
                        _ => rng.normal(0.0, 1.0),
                    })
                })
                .collect();
            opt.step(&mut params, &grads);
            let bc1 = 1.0 - opt.beta1.powi(t);
            let bc2 = 1.0 - opt.beta2.powi(t);
            corrected_to_one += usize::from(bc1 == 1.0);
            for i in 0..shapes.len() {
                let entries = (m[i].as_mut_slice().iter_mut())
                    .zip(v[i].as_mut_slice())
                    .zip(grads[i].as_slice().iter().zip(want[i].as_mut_slice()));
                for ((pm, pv), (&g, p)) in entries {
                    *pm = opt.beta1 * *pm + (1.0 - opt.beta1) * g;
                    *pv = opt.beta2 * *pv + (1.0 - opt.beta2) * g * g;
                    let mhat = *pm / bc1;
                    let vhat = *pv / bc2;
                    *p -= opt.lr * mhat / (vhat.sqrt() + opt.eps);
                }
            }
            let same = |x: &[Matrix], y: &[Matrix]| {
                x.iter().zip(y).all(|(a, b)| {
                    (a.as_slice().iter().zip(b.as_slice()))
                        .all(|(p, q)| (p.is_nan() && q.is_nan()) || p.to_bits() == q.to_bits())
                })
            };
            assert!(same(&params, &want), "parameters differ at t = {t}");
            assert!(
                same(&opt.m, &m) && same(&opt.v, &v),
                "moments differ at t = {t}"
            );
        }
        assert_eq!(corrected_to_one, 400 - 355, "the skip runs from t = 356");
        assert!(params[1..].iter().all(Matrix::is_finite));
        assert!(!params[0].is_finite(), "layer 0 met NaN and ±∞");
    }

    #[test]
    fn weighted_average_matches_manual() {
        let a = vec![Matrix::full(1, 2, 1.0)];
        let b = vec![Matrix::full(1, 2, 4.0)];
        let avg = param_weighted_average(&[&a, &b], &[3.0, 1.0]);
        assert!((avg[0][(0, 0)] - 1.75).abs() < 1e-12);
    }

    #[test]
    fn param_bytes_counts_f64() {
        let p = vec![Matrix::zeros(3, 4), Matrix::zeros(1, 5)];
        assert_eq!(param_count(&p), 17);
        assert_eq!(param_bytes(&p), 17 * 8);
    }

    #[test]
    fn sgd_weight_decay_shrinks() {
        let mut params = vec![Matrix::full(1, 1, 10.0)];
        let opt = Sgd {
            lr: 0.1,
            weight_decay: 1.0,
        };
        let zero_grad = vec![Matrix::zeros(1, 1)];
        for _ in 0..10 {
            opt.step(&mut params, &zero_grad);
        }
        assert!(params[0][(0, 0)] < 10.0);
        assert!(params[0][(0, 0)] > 0.0);
    }
}
