//! Multi-layer perceptron classifier (the Scikit-learn `MLPClassifier`
//! stand-in used for correlation discovery, paper Fig. 3).

use crate::metrics::Metrics;
use fexiot_tensor::autograd::{Forward, Tape};
use fexiot_tensor::matrix::Matrix;
use fexiot_tensor::optim::Adam;
use fexiot_tensor::rng::Rng;

/// MLP hyperparameters.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    pub hidden: Vec<usize>,
    pub classes: usize,
    pub lr: f64,
    pub epochs: usize,
    pub batch_size: usize,
    /// Per-class loss weights (uniform if empty).
    pub class_weights: Vec<f64>,
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: vec![32, 16],
            classes: 2,
            lr: 5e-3,
            epochs: 60,
            batch_size: 32,
            class_weights: Vec::new(),
            seed: 0,
        }
    }
}

/// A trained multi-layer perceptron.
pub struct Mlp {
    config: MlpConfig,
    /// Interleaved weights and biases: `[w0, b0, w1, b1, ...]`.
    params: Vec<Matrix>,
}

impl Mlp {
    /// Fits the MLP to feature rows `x` and integer labels `y`.
    ///
    /// # Panics
    /// Panics if `x` is empty or labels exceed `config.classes`.
    pub fn fit(x: &Matrix, y: &[usize], config: MlpConfig) -> Self {
        assert!(x.rows() > 0, "mlp: empty training set");
        assert_eq!(x.rows(), y.len(), "mlp: label count mismatch");
        assert!(
            y.iter().all(|&l| l < config.classes),
            "mlp: label out of range"
        );
        let mut rng = Rng::seed_from_u64(config.seed);

        let mut dims = vec![x.cols()];
        dims.extend(&config.hidden);
        dims.push(config.classes);
        let mut params = Vec::new();
        for w in dims.windows(2) {
            params.push(Matrix::glorot(w[0], w[1], &mut rng));
            params.push(Matrix::zeros(1, w[1]));
        }

        let weights = if config.class_weights.len() == config.classes {
            config.class_weights.clone()
        } else {
            vec![1.0; config.classes]
        };

        let mut model = Self { config, params };
        let mut adam = Adam::new(model.config.lr, &model.params);
        let n = x.rows();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..model.config.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(model.config.batch_size.max(1)) {
                let xb = x.select_rows(chunk);
                let yb: Vec<usize> = chunk.iter().map(|&i| y[i]).collect();
                let mut tape = Tape::new();
                let (logits, vars) = model.forward(&mut tape, xb);
                let loss = tape.softmax_cross_entropy(logits, &yb, &weights);
                let grads = tape.backward(loss);
                let gs: Vec<Matrix> = vars
                    .iter()
                    .zip(&model.params)
                    .map(|(&v, p)| grads.get(v, p))
                    .collect();
                adam.step(&mut model.params, &gs);
            }
        }
        model
    }

    fn forward(
        &self,
        tape: &mut Tape,
        x: Matrix,
    ) -> (
        fexiot_tensor::autograd::Var,
        Vec<fexiot_tensor::autograd::Var>,
    ) {
        let mut vars = Vec::with_capacity(self.params.len());
        let mut h = tape.constant(x);
        let layer_count = self.params.len() / 2;
        for l in 0..layer_count {
            let w = tape.param(self.params[2 * l].clone());
            let b = tape.param(self.params[2 * l + 1].clone());
            vars.push(w);
            vars.push(b);
            let z = tape.matmul(h, w);
            let z = tape.add_row_broadcast(z, b);
            h = if l + 1 < layer_count { tape.relu(z) } else { z };
        }
        (h, vars)
    }

    /// Class-probability rows for `x`.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut tape = Tape::new();
        let (logits, _) = self.forward(&mut tape, x.clone());
        let probs = tape.softmax_row(logits);
        tape.value(probs).clone()
    }

    /// Hard class predictions for `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let p = self.predict_proba(x);
        (0..p.rows()).map(|r| p.argmax_row(r)).collect()
    }

    /// Convenience: fit on train, evaluate binary metrics on test.
    pub fn evaluate(&self, x: &Matrix, y: &[usize]) -> Metrics {
        Metrics::from_predictions(&self.predict(x), y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two interleaving half-moons are linearly inseparable; an MLP must
    /// solve them while a linear model cannot.
    fn moons(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let t = rng.uniform(0.0, std::f64::consts::PI);
            let (x, y, label) = if i % 2 == 0 {
                (t.cos(), t.sin(), 0)
            } else {
                (1.0 - t.cos(), 0.5 - t.sin(), 1)
            };
            rows.push(vec![x + rng.normal(0.0, 0.05), y + rng.normal(0.0, 0.05)]);
            labels.push(label);
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn learns_nonlinear_boundary() {
        let (x, y) = moons(300, 1);
        let (xt, yt) = moons(100, 2);
        let model = Mlp::fit(
            &x,
            &y,
            MlpConfig {
                epochs: 80,
                ..Default::default()
            },
        );
        let m = model.evaluate(&xt, &yt);
        assert!(m.accuracy > 0.9, "moons accuracy {}", m.accuracy);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (x, y) = moons(100, 3);
        let model = Mlp::fit(
            &x,
            &y,
            MlpConfig {
                epochs: 10,
                ..Default::default()
            },
        );
        let p = model.predict_proba(&x);
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn class_weights_shift_decisions() {
        // Heavily weight class 1: an ambiguous point should tip toward it.
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![0.5]]);
        let y = vec![0usize, 1, 0];
        let heavy = Mlp::fit(
            &x,
            &y,
            MlpConfig {
                hidden: vec![4],
                class_weights: vec![0.1, 10.0],
                epochs: 200,
                seed: 4,
                ..Default::default()
            },
        );
        let preds = heavy.predict(&Matrix::from_rows(&[vec![0.5]]));
        assert_eq!(
            preds[0], 1,
            "heavy class-1 weighting should claim the boundary point"
        );
    }

    #[test]
    fn multiclass_support() {
        let mut rng = Rng::seed_from_u64(5);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3usize {
            for _ in 0..50 {
                rows.push(vec![
                    c as f64 * 2.0 + rng.normal(0.0, 0.2),
                    -(c as f64) + rng.normal(0.0, 0.2),
                ]);
                labels.push(c);
            }
        }
        let x = Matrix::from_rows(&rows);
        let model = Mlp::fit(
            &x,
            &labels,
            MlpConfig {
                classes: 3,
                epochs: 60,
                ..Default::default()
            },
        );
        let preds = model.predict(&x);
        let correct = preds.iter().zip(&labels).filter(|(p, t)| p == t).count();
        assert!(correct as f64 / labels.len() as f64 > 0.95);
    }
}
