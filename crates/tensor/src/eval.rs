//! Recording-free forward passes in reused buffers.
//!
//! Inference needs an op's value, not the record [`Tape::backward`] would
//! read. An [`Eval`] runs the [`Forward`] ops without recording them: the
//! op at position `k` of a forward writes its value into buffer `k` of its
//! [`Evaluator`], whatever that buffer held before, so once the buffers
//! have grown to a forward's shapes, the next forward of that size
//! allocates no matrix. Both executors compute each op through the trait's
//! one definition of it, so an `Eval` gives the tape's bits.
//!
//! [`Tape::backward`]: crate::autograd::Tape::backward

use crate::autograd::{Forward, Record, Var};
use crate::matrix::Matrix;

/// Buffers of recording-free forwards, one per op position, kept from one
/// forward to the next; each holds the largest value its position has
/// had.
#[derive(Default)]
pub struct Evaluator {
    slots: Vec<Matrix>,
    params: Vec<Var>,
}

impl Evaluator {
    pub const fn new() -> Self {
        Self {
            slots: Vec::new(),
            params: Vec::new(),
        }
    }

    /// Starts a forward that reads `params` in place. Returns the executor
    /// and one var per parameter, in order: the vars registering `params`
    /// on a fresh [`Tape`](crate::autograd::Tape) would give.
    pub fn start<'a>(&'a mut self, params: &'a [Matrix]) -> (Eval<'a>, &'a [Var]) {
        while self.params.len() < params.len() {
            self.params.push(Var(self.params.len()));
        }
        let eval = Eval {
            params,
            slots: &mut self.slots,
            next: 0,
        };
        (eval, &self.params[..params.len()])
    }
}

/// One recording-free forward over borrowed parameters and an
/// [`Evaluator`]'s buffers. Var `i` is parameter `i` below the parameter
/// count and the value of op `i - params.len()` above it.
pub struct Eval<'a> {
    params: &'a [Matrix],
    slots: &'a mut Vec<Matrix>,
    /// Ops run so far in this forward.
    next: usize,
}

impl Forward for Eval<'_> {
    fn value(&self, v: Var) -> &Matrix {
        match v.0.checked_sub(self.params.len()) {
            None => &self.params[v.0],
            Some(pos) => {
                assert!(pos < self.next, "eval: var {} is not of this forward", v.0);
                &self.slots[pos]
            }
        }
    }

    fn apply(
        &mut self,
        _record: impl FnOnce() -> Record,
        compute: impl FnOnce(&Self, &mut Matrix),
    ) -> Var {
        let pos = self.next;
        if pos == self.slots.len() {
            self.slots.push(Matrix::default());
        }
        // The buffer leaves its slot while `compute` reads earlier ones.
        let mut out = std::mem::take(&mut self.slots[pos]);
        compute(self, &mut out);
        self.slots[pos] = out;
        self.next += 1;
        Var(self.params.len() + pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::Tape;
    use crate::rng::Rng;

    /// Equal bit for bit, except that any NaN equals any NaN.
    fn same_bits(x: &Matrix, y: &Matrix) -> bool {
        x.shape() == y.shape()
            && x.as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(p, q)| (p.is_nan() && q.is_nan()) || p.to_bits() == q.to_bits())
    }

    /// Every trait op once, on `n` rows: the shapes a GNN layer makes.
    fn forward<F: Forward>(f: &mut F, p: &[Var], x: &Matrix, n: usize) -> Var {
        let a = f.constant_with(|m| *m = x.clone());
        let h = f.matmul(a, p[0]);
        let h = f.add_row_broadcast(h, p[1]);
        let r = f.relu(h);
        let t = f.tanh(h);
        let e = f.exp(t);
        let s = f.add(r, e);
        let q = f.div(s, e);
        let m = f.mean_rows(q);
        let w = f.matmul(m, p[2]);
        let g = f.mul_scalar_var(q, w);
        let rows: Vec<usize> = (0..n).rev().collect();
        f.place_rows(n + 1, &[(g, rows.as_slice()), (r, &rows[..])])
    }

    #[test]
    fn eval_equals_a_fresh_tape_and_leaks_no_stale_value() {
        let mut rng = Rng::seed_from_u64(1);
        let params = vec![
            Matrix::random_normal(3, 4, 0.0, 1.0, &mut rng),
            Matrix::random_normal(1, 4, 0.0, 1.0, &mut rng),
            Matrix::random_normal(4, 1, 0.0, 1.0, &mut rng),
        ];
        let mut ev = Evaluator::new();
        // Large, small, empty inner dimension, then large again: every
        // reused buffer must be rewritten in full.
        for (n, d) in [(9, 3), (1, 3), (4, 0), (9, 3)] {
            let params: Vec<Matrix> = if d == 0 {
                let mut p = params.clone();
                p[0] = Matrix::zeros(0, 4);
                p
            } else {
                params.clone()
            };
            let x = Matrix::from_fn(n, d, |i, j| match (i + j) % 5 {
                0 => f64::NAN,
                1 => -0.0,
                2 => f64::MIN_POSITIVE / 4.0,
                _ => rng.normal(0.0, 2.0),
            });
            let mut tape = Tape::new();
            let vars: Vec<Var> = params.iter().map(|p| tape.param(p)).collect();
            let want = forward(&mut tape, &vars, &x, n);
            let (mut f, vars) = ev.start(&params);
            let got = forward(&mut f, vars, &x, n);
            assert!(same_bits(f.value(got), tape.value(want)), "n={n} d={d}");
        }
    }

    #[test]
    #[should_panic(expected = "is not of this forward")]
    fn a_var_of_an_earlier_forward_is_refused() {
        let params = vec![Matrix::ones(1, 1)];
        let mut ev = Evaluator::new();
        let (mut f, p) = ev.start(&params);
        let stale = f.relu(p[0]);
        let (f, _) = ev.start(&params);
        f.value(stale);
    }
}
