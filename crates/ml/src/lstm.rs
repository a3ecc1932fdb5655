//! A single-layer LSTM sequence model over the autograd tape — the substrate
//! for the DeepLog baseline (paper Table II).

use fexiot_tensor::autograd::{Forward, Tape, Var};
use fexiot_tensor::matrix::Matrix;
use fexiot_tensor::optim::Adam;
use fexiot_tensor::rng::Rng;

/// LSTM with an output projection head for next-token prediction.
pub struct Lstm {
    pub input_dim: usize,
    pub hidden_dim: usize,
    pub output_dim: usize,
    /// Parameter order: `[Wxi, Whi, bi, Wxf, Whf, bf, Wxo, Who, bo, Wxg, Whg, bg, Wy, by]`.
    pub params: Vec<Matrix>,
}

/// Handle to the parameters registered on a tape for one forward pass.
struct TapeParams {
    vars: Vec<Var>,
}

impl Lstm {
    pub fn new(input_dim: usize, hidden_dim: usize, output_dim: usize, rng: &mut Rng) -> Self {
        let mut params = Vec::with_capacity(14);
        for _ in 0..4 {
            params.push(Matrix::glorot(input_dim, hidden_dim, rng));
            params.push(Matrix::glorot(hidden_dim, hidden_dim, rng));
            params.push(Matrix::zeros(1, hidden_dim));
        }
        params.push(Matrix::glorot(hidden_dim, output_dim, rng));
        params.push(Matrix::zeros(1, output_dim));
        Self {
            input_dim,
            hidden_dim,
            output_dim,
            params,
        }
    }

    fn register(&self, tape: &mut Tape) -> TapeParams {
        TapeParams {
            vars: self.params.iter().map(|p| tape.param(p.clone())).collect(),
        }
    }

    /// One LSTM step; returns `(h', c')`.
    fn step(&self, tape: &mut Tape, tp: &TapeParams, x: Var, h: Var, c: Var) -> (Var, Var) {
        let gate = |tape: &mut Tape, base: usize, x: Var, h: Var| -> Var {
            let xz = tape.matmul(x, tp.vars[base]);
            let hz = tape.matmul(h, tp.vars[base + 1]);
            let s = tape.add(xz, hz);
            tape.add_row_broadcast(s, tp.vars[base + 2])
        };
        let i_raw = gate(tape, 0, x, h);
        let i = tape.sigmoid(i_raw);
        let f_raw = gate(tape, 3, x, h);
        let f = tape.sigmoid(f_raw);
        let o_raw = gate(tape, 6, x, h);
        let o = tape.sigmoid(o_raw);
        let g_raw = gate(tape, 9, x, h);
        let g = tape.tanh(g_raw);
        let fc = tape.hadamard(f, c);
        let ig = tape.hadamard(i, g);
        let c_new = tape.add(fc, ig);
        let c_act = tape.tanh(c_new);
        let h_new = tape.hadamard(o, c_act);
        (h_new, c_new)
    }

    /// Runs the sequence of one-hot/feature rows and returns per-step logits
    /// (the prediction *after* consuming each input) plus the registered
    /// parameter vars (for training).
    fn forward(&self, tape: &mut Tape, inputs: &[Vec<f64>]) -> (Vec<Var>, TapeParams) {
        let tp = self.register(tape);
        let mut h = tape.constant(Matrix::zeros(1, self.hidden_dim));
        let mut c = tape.constant(Matrix::zeros(1, self.hidden_dim));
        let mut logits = Vec::with_capacity(inputs.len());
        let wy = tp.vars[12];
        let by = tp.vars[13];
        for row in inputs {
            let x = tape.constant(Matrix::row_vector(row));
            let (h2, c2) = self.step(tape, &tp, x, h, c);
            h = h2;
            c = c2;
            let y = tape.matmul(h, wy);
            let y = tape.add_row_broadcast(y, by);
            logits.push(y);
        }
        (logits, tp)
    }

    /// Trains next-step prediction on `sequences` of token rows with integer
    /// targets (`targets[s][t]` is the token that follows `inputs[s][t]`).
    /// Returns the mean loss of the final epoch.
    pub fn fit_next_step(
        &mut self,
        sequences: &[Vec<Vec<f64>>],
        targets: &[Vec<usize>],
        epochs: usize,
        lr: f64,
    ) -> f64 {
        assert_eq!(
            sequences.len(),
            targets.len(),
            "lstm: sequence/target mismatch"
        );
        let mut adam = Adam::new(lr, &self.params);
        let weights = vec![1.0; self.output_dim];
        let mut last_loss = 0.0;
        for _ in 0..epochs {
            let mut epoch_loss = 0.0;
            let mut count = 0usize;
            for (seq, tgt) in sequences.iter().zip(targets) {
                if seq.is_empty() {
                    continue;
                }
                assert_eq!(seq.len(), tgt.len(), "lstm: per-step target mismatch");
                let mut tape = Tape::new();
                let (logits, tp) = self.forward(&mut tape, seq);
                // Stack per-step losses by summing scalars.
                let mut total: Option<Var> = None;
                for (l, &t) in logits.iter().zip(tgt) {
                    let step_loss = tape.softmax_cross_entropy(*l, &[t], &weights);
                    total = Some(match total {
                        Some(acc) => tape.add(acc, step_loss),
                        None => step_loss,
                    });
                }
                let total = total.expect("non-empty sequence");
                let loss = tape.scale(total, 1.0 / seq.len() as f64);
                let grads = tape.backward(loss);
                let gs: Vec<Matrix> = tp
                    .vars
                    .iter()
                    .zip(&self.params)
                    .map(|(&v, p)| grads.get(v, p))
                    .collect();
                adam.step(&mut self.params, &gs);
                epoch_loss += tape.value(loss)[(0, 0)];
                count += 1;
            }
            last_loss = epoch_loss / count.max(1) as f64;
        }
        last_loss
    }

    /// Per-step next-token probability rows for a sequence.
    pub fn predict_next_probs(&self, seq: &[Vec<f64>]) -> Vec<Vec<f64>> {
        if seq.is_empty() {
            return Vec::new();
        }
        let mut tape = Tape::new();
        let (logits, _) = self.forward(&mut tape, seq);
        logits
            .into_iter()
            .map(|l| {
                let s = tape.softmax_row(l);
                tape.value(s).row(0).to_vec()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_hot(i: usize, n: usize) -> Vec<f64> {
        let mut v = vec![0.0; n];
        v[i] = 1.0;
        v
    }

    #[test]
    fn learns_deterministic_cycle() {
        // Sequence 0 -> 1 -> 2 -> 0 -> ... is perfectly predictable.
        let vocab = 3;
        let mut rng = Rng::seed_from_u64(1);
        let mut lstm = Lstm::new(vocab, 12, vocab, &mut rng);
        let seq: Vec<usize> = (0..30).map(|i| i % vocab).collect();
        let inputs: Vec<Vec<f64>> = seq[..seq.len() - 1]
            .iter()
            .map(|&t| one_hot(t, vocab))
            .collect();
        let targets: Vec<usize> = seq[1..].to_vec();
        let loss = lstm.fit_next_step(
            std::slice::from_ref(&inputs),
            std::slice::from_ref(&targets),
            120,
            0.02,
        );
        assert!(loss < 0.2, "final loss {loss}");
        let probs = lstm.predict_next_probs(&inputs);
        let correct = probs
            .iter()
            .zip(&targets)
            .filter(|(p, &t)| {
                p.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0
                    == t
            })
            .count();
        assert!(
            correct as f64 / targets.len() as f64 > 0.9,
            "{correct}/{}",
            targets.len()
        );
    }

    #[test]
    fn probability_rows_normalized() {
        let mut rng = Rng::seed_from_u64(2);
        let lstm = Lstm::new(4, 8, 4, &mut rng);
        let probs = lstm.predict_next_probs(&[one_hot(0, 4), one_hot(2, 4)]);
        assert_eq!(probs.len(), 2);
        for p in probs {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_sequence_yields_no_predictions() {
        let mut rng = Rng::seed_from_u64(3);
        let lstm = Lstm::new(4, 8, 4, &mut rng);
        assert!(lstm.predict_next_probs(&[]).is_empty());
    }
}
