//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] records the forward computation as a flat list of nodes; calling
//! [`Tape::backward`] walks the list in reverse and accumulates gradients,
//! which the optimizers then read back for the parameter nodes. Gradients are
//! formed only for nodes that a parameter feeds: a constant, and an op whose
//! inputs are all constants (a graph's adjacency times its feature matrix),
//! cannot pass a gradient on to a parameter, so backward skips them and
//! [`Grads::get`] on one returns zeros.
//!
//! The op set is deliberately small — exactly what the GCN/GIN/MAGNN encoders,
//! the MLP, and the DeepLog LSTM need — and every rule is pinned down by a
//! finite-difference test in this module.
//!
//! The ops the GNN encoders use form the [`Forward`] trait, so one forward
//! body runs on either executor: the tape, which records for training, or
//! the recording-free [`Eval`](crate::eval::Eval), which infers in reused
//! buffers. Each of those ops is one `Matrix` function writing into a given
//! buffer, called from the trait's one definition of the op, so the two
//! executors give the same bits.
//!
//! Parameters may be owned or borrowed: a tape over `&'p Matrix`
//! parameters reads a model's weights in place, so a forward pass copies no
//! weight matrix.

use crate::matrix::Matrix;
use std::borrow::Cow;

/// Handle to a node on a [`Tape`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

#[derive(Clone, Debug)]
enum Op {
    /// Constant input; no gradient is accumulated for it.
    Const,
    /// Trainable parameter; gradient is accumulated and read back.
    Param,
    MatMul(usize, usize),
    Add(usize, usize),
    Sub(usize, usize),
    Hadamard(usize, usize),
    Scale(usize, f64),
    AddScalar(usize),
    Relu(usize),
    Sigmoid(usize),
    Tanh(usize),
    Exp(usize),
    /// (n,d) -> (1,d) column means.
    MeanRows(usize),
    /// (n,d) -> (1,1) sum of all entries.
    SumAll(usize),
    /// (n,d) -> (1,1) mean of all entries.
    MeanAll(usize),
    /// (n,d) + broadcast (1,d).
    AddRowBroadcast(usize, usize),
    /// Horizontal concatenation of two equal-row matrices.
    ConcatCols(usize, usize),
    /// Matrix times a (1,1) scalar node.
    MulScalarVar(usize, usize),
    /// Elementwise division of equal-shaped nodes.
    Div(usize, usize),
    /// Row-wise softmax.
    SoftmaxRow(usize),
    /// Weighted softmax cross-entropy against integer targets; produces (1,1).
    ///
    /// Loss = sum_i w[y_i] * CE_i / sum_i w[y_i]  (weighted mean).
    SoftmaxCrossEntropy {
        logits: usize,
        targets: Vec<usize>,
        class_weights: Vec<f64>,
    },
    /// `(source, rows)` parts: row `r` of each source is added into row
    /// `rows[r]` of a zero matrix.
    PlaceRows(Vec<(usize, Vec<usize>)>),
}

impl Op {
    /// Whether this op reads a node marked in `fed`.
    fn reads_marked(&self, fed: &[bool]) -> bool {
        match self {
            Op::Const | Op::Param => false,
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Hadamard(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::ConcatCols(a, b)
            | Op::MulScalarVar(a, b)
            | Op::Div(a, b) => fed[*a] || fed[*b],
            Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::Relu(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Exp(a)
            | Op::MeanRows(a)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::SoftmaxRow(a)
            | Op::SoftmaxCrossEntropy { logits: a, .. } => fed[*a],
            Op::PlaceRows(parts) => parts.iter().any(|(src, _)| fed[*src]),
        }
    }
}

/// An op as a recording executor stores it for its backward pass. Only
/// this crate makes one; an executor that does not record never asks for
/// it.
pub struct Record(Op);

/// The ops a forward pass is written in, run by either executor: [`Tape`]
/// records each op for [`Tape::backward`], and
/// [`Eval`](crate::eval::Eval) only computes, into buffers it reuses. Each
/// op below is defined once, as a call to one `Matrix` function that writes
/// into the buffer [`Forward::apply`] hands it, so both executors compute
/// every op with the same arithmetic, term for term.
pub trait Forward {
    /// Value of a var.
    fn value(&self, v: Var) -> &Matrix;

    /// Runs one op: `compute` writes the op's value into a buffer of any
    /// shape and contents, reading its inputs through [`Forward::value`].
    /// A recording executor stores `record()` with the value.
    fn apply(
        &mut self,
        record: impl FnOnce() -> Record,
        compute: impl FnOnce(&Self, &mut Matrix),
    ) -> Var;

    /// A constant (no gradient tracked) that `fill` writes, shape and every
    /// entry, into a buffer of any shape and contents.
    fn constant_with(&mut self, fill: impl FnOnce(&mut Matrix)) -> Var {
        self.apply(|| Record(Op::Const), |_, out| fill(out))
    }

    fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.apply(
            || Record(Op::MatMul(a.0, b.0)),
            |x, out| x.value(a).matmul_into(x.value(b), out),
        )
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        self.apply(
            || Record(Op::Add(a.0, b.0)),
            |x, out| x.value(a).zip_into(x.value(b), out, |p, q| p + q),
        )
    }

    /// Elementwise `a / b` (equal shapes). The caller must keep `b` away
    /// from zero (e.g. softmax denominators are strictly positive).
    fn div(&mut self, a: Var, b: Var) -> Var {
        self.apply(
            || Record(Op::Div(a.0, b.0)),
            |x, out| x.value(a).zip_into(x.value(b), out, |p, q| p / q),
        )
    }

    fn relu(&mut self, a: Var) -> Var {
        self.apply(
            || Record(Op::Relu(a.0)),
            |x, out| x.value(a).map_into(out, |v| v.max(0.0)),
        )
    }

    fn tanh(&mut self, a: Var) -> Var {
        self.apply(
            || Record(Op::Tanh(a.0)),
            |x, out| x.value(a).map_into(out, f64::tanh),
        )
    }

    fn exp(&mut self, a: Var) -> Var {
        self.apply(
            || Record(Op::Exp(a.0)),
            |x, out| x.value(a).map_into(out, f64::exp),
        )
    }

    fn mean_rows(&mut self, a: Var) -> Var {
        self.apply(
            || Record(Op::MeanRows(a.0)),
            |x, out| x.value(a).mean_rows_into(out),
        )
    }

    /// `(n,d) + (1,d)` with the row vector broadcast to every row.
    fn add_row_broadcast(&mut self, a: Var, row: Var) -> Var {
        self.apply(
            || Record(Op::AddRowBroadcast(a.0, row.0)),
            |x, out| x.value(a).add_row_broadcast_into(x.value(row), out),
        )
    }

    /// `a * s` where `s` is a `(1,1)` node (scalar gate / attention weight).
    fn mul_scalar_var(&mut self, a: Var, s: Var) -> Var {
        self.apply(
            || Record(Op::MulScalarVar(a.0, s.0)),
            |x, out| {
                let sv = x.value(s);
                assert_eq!(sv.shape(), (1, 1), "mul_scalar_var: scalar must be 1x1");
                let sv = sv[(0, 0)];
                x.value(a).map_into(out, |v| v * sv);
            },
        )
    }

    /// Places rows: a `rows × d` matrix of `+0.0` into whose row
    /// `parts[p].1[r]` row `r` of `parts[p].0` is added, every part `d` wide
    /// ([`Matrix::place_rows_into`]). The backward pass gathers the rows of
    /// the gradient back to each part.
    ///
    /// # Panics
    /// Panics if `parts` is empty, the widths differ, a part's row count is
    /// not its index count, or an index is not below `rows`.
    fn place_rows<I: AsRef<[usize]>>(&mut self, rows: usize, parts: &[(Var, I)]) -> Var {
        self.apply(
            || {
                let parts = parts
                    .iter()
                    .map(|(src, idx)| (src.0, idx.as_ref().to_vec()))
                    .collect();
                Record(Op::PlaceRows(parts))
            },
            |x, out| {
                let parts = parts.iter().map(|(src, idx)| (x.value(*src), idx.as_ref()));
                Matrix::place_rows_into(rows, parts, out);
            },
        )
    }
}

struct Node<'p> {
    op: Op,
    value: Cow<'p, Matrix>,
}

impl From<Matrix> for Cow<'_, Matrix> {
    fn from(m: Matrix) -> Self {
        Cow::Owned(m)
    }
}

impl<'p> From<&'p Matrix> for Cow<'p, Matrix> {
    fn from(m: &'p Matrix) -> Self {
        Cow::Borrowed(m)
    }
}

/// Gradients produced by [`Tape::backward`].
pub struct Grads {
    grads: Vec<Option<Matrix>>,
}

impl Grads {
    /// Gradient of the loss with respect to `var`. Zero matrix if the var did
    /// not influence the loss, or is not fed by a parameter (a constant).
    pub fn get(&self, var: Var, shape_like: &Matrix) -> Matrix {
        match &self.grads[var.0] {
            Some(g) => g.clone(),
            None => Matrix::zeros(shape_like.rows(), shape_like.cols()),
        }
    }

    /// Borrowing accessor; `None` means the var did not influence the loss
    /// or is not fed by a parameter.
    pub fn try_get(&self, var: Var) -> Option<&Matrix> {
        self.grads[var.0].as_ref()
    }

    /// Moves the gradient out, leaving `None` behind; `None` under the same
    /// conditions as [`Grads::try_get`].
    pub fn take(&mut self, var: Var) -> Option<Matrix> {
        self.grads[var.0].take()
    }
}

/// Records a forward computation for later differentiation. `'p` is the
/// lifetime of borrowed parameters (see [`Tape::param`]).
#[derive(Default)]
pub struct Tape<'p> {
    nodes: Vec<Node<'p>>,
}

impl<'p> Tape<'p> {
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, op: Op, value: impl Into<Cow<'p, Matrix>>) -> Var {
        self.nodes.push(Node {
            op,
            value: value.into(),
        });
        Var(self.nodes.len() - 1)
    }

    /// Registers a constant (no gradient tracked).
    pub fn constant(&mut self, m: Matrix) -> Var {
        self.push(Op::Const, m)
    }

    /// Registers a trainable parameter (gradient tracked). A borrowed
    /// `&'p Matrix` is read in place for the tape's lifetime, not copied.
    pub fn param(&mut self, m: impl Into<Cow<'p, Matrix>>) -> Var {
        self.push(Op::Param, m)
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push(Op::Sub(a.0, b.0), v)
    }

    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).hadamard(self.value(b));
        self.push(Op::Hadamard(a.0, b.0), v)
    }

    pub fn scale(&mut self, a: Var, s: f64) -> Var {
        let v = self.value(a).scale(s);
        self.push(Op::Scale(a.0, s), v)
    }

    pub fn add_scalar(&mut self, a: Var, s: f64) -> Var {
        let v = self.value(a).map(|x| x + s);
        self.push(Op::AddScalar(a.0), v)
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(Op::Sigmoid(a.0), v)
    }

    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Matrix::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push(Op::SumAll(a.0), v)
    }

    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Matrix::from_vec(1, 1, vec![self.value(a).mean()]);
        self.push(Op::MeanAll(a.0), v)
    }

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = Matrix::hstack(&[self.value(a), self.value(b)]);
        self.push(Op::ConcatCols(a.0, b.0), v)
    }

    /// Numerically stable row-wise softmax.
    pub fn softmax_row(&mut self, a: Var) -> Var {
        let m = self.value(a);
        let mut out = m.clone();
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        self.push(Op::SoftmaxRow(a.0), out)
    }

    /// Weighted-mean softmax cross-entropy. `logits` is `(n, C)`, `targets`
    /// has length `n`, `class_weights` has length `C`.
    pub fn softmax_cross_entropy(
        &mut self,
        logits: Var,
        targets: &[usize],
        class_weights: &[f64],
    ) -> Var {
        let lm = self.value(logits);
        assert_eq!(
            lm.rows(),
            targets.len(),
            "softmax_ce: target count mismatch"
        );
        assert_eq!(
            lm.cols(),
            class_weights.len(),
            "softmax_ce: class weight count mismatch"
        );
        let mut total = 0.0;
        let mut wsum = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            let row = lm.row(r);
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let lse = max + row.iter().map(|&v| (v - max).exp()).sum::<f64>().ln();
            let w = class_weights[t];
            total += w * (lse - row[t]);
            wsum += w;
        }
        let loss = if wsum > 0.0 { total / wsum } else { 0.0 };
        self.push(
            Op::SoftmaxCrossEntropy {
                logits: logits.0,
                targets: targets.to_vec(),
                class_weights: class_weights.to_vec(),
            },
            Matrix::from_vec(1, 1, vec![loss]),
        )
    }

    /// Convenience: squared Frobenius norm of the difference of two vars, as (1,1).
    pub fn sq_distance(&mut self, a: Var, b: Var) -> Var {
        let d = self.sub(a, b);
        let sq = self.hadamard(d, d);
        self.sum_all(sq)
    }

    /// Runs reverse-mode differentiation from the scalar node `loss`.
    ///
    /// # Panics
    /// Panics if `loss` is not a `1x1` node.
    pub fn backward(&self, loss: Var) -> Grads {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be scalar"
        );
        self.backward_seeded(loss, Matrix::ones(1, 1))
    }

    /// Reverse-mode differentiation from `node` with an explicit upstream
    /// gradient `seed` (same shape as the node's value); `backward(loss)` is
    /// `backward_seeded(loss, ones(1,1))`.
    ///
    /// One forward pass over the ops up to `node` first marks the nodes a
    /// parameter feeds; the reverse walk forms gradients for marked nodes
    /// only. A constant therefore gets no gradient ([`Grads::get`] returns
    /// zeros), and a parameter's gradient is the same f64 sequence it would
    /// be with every node differentiated: skipped terms never reach it.
    ///
    /// # Panics
    /// Panics if `seed`'s shape differs from the node's value.
    fn backward_seeded(&self, node: Var, seed: Matrix) -> Grads {
        assert_eq!(
            self.value(node).shape(),
            seed.shape(),
            "backward_seeded: seed shape must match the node"
        );
        let fed = self.param_fed(node.0);
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        if fed[node.0] {
            grads[node.0] = Some(seed);
        }

        // Only marked nodes ever hold a gradient. A one-input op is marked
        // iff its input is, so only ops with several inputs test them.
        for idx in (0..=node.0).rev() {
            let g = match grads[idx].take() {
                Some(g) => g,
                None => continue,
            };
            let value = &self.nodes[idx].value;
            match &self.nodes[idx].op {
                Op::Const | Op::Param => {
                    grads[idx] = Some(g);
                    continue;
                }
                Op::MatMul(a, b) => {
                    let (av, bv) = (&self.nodes[*a].value, &self.nodes[*b].value);
                    if fed[*a] {
                        accumulate(&mut grads, *a, g.matmul_nt(bv));
                    }
                    if fed[*b] {
                        accumulate(&mut grads, *b, av.matmul_tn(&g));
                    }
                }
                Op::Add(a, b) => {
                    if fed[*a] && fed[*b] {
                        accumulate(&mut grads, *a, g.clone());
                        accumulate(&mut grads, *b, g);
                    } else {
                        accumulate(&mut grads, if fed[*a] { *a } else { *b }, g);
                    }
                }
                Op::Sub(a, b) => {
                    let neg = fed[*b].then(|| g.scale(-1.0));
                    if fed[*a] {
                        accumulate(&mut grads, *a, g);
                    }
                    if let Some(neg) = neg {
                        accumulate(&mut grads, *b, neg);
                    }
                }
                Op::Hadamard(a, b) => {
                    let (av, bv) = (&self.nodes[*a].value, &self.nodes[*b].value);
                    if fed[*a] {
                        accumulate(&mut grads, *a, g.hadamard(bv));
                    }
                    if fed[*b] {
                        accumulate(&mut grads, *b, g.hadamard(av));
                    }
                }
                Op::Scale(a, s) => accumulate(&mut grads, *a, g.scale(*s)),
                Op::AddScalar(a) => accumulate(&mut grads, *a, g),
                // Activations: `g * f'(x)` in one pass over `g`, the same two
                // roundings as forming `f'(x)` and then the Hadamard product.
                Op::Relu(a) => {
                    let x = &self.nodes[*a].value;
                    accumulate(
                        &mut grads,
                        *a,
                        scaled_by(g, x, |x| if x > 0.0 { 1.0 } else { 0.0 }),
                    );
                }
                Op::Sigmoid(a) => {
                    accumulate(&mut grads, *a, scaled_by(g, value, |s| s * (1.0 - s)));
                }
                Op::Tanh(a) => accumulate(&mut grads, *a, scaled_by(g, value, |t| 1.0 - t * t)),
                Op::Exp(a) => accumulate(&mut grads, *a, scaled_by(g, value, |e| e)),
                Op::MeanRows(a) => {
                    let n = self.nodes[*a].value.rows();
                    let inv = 1.0 / n.max(1) as f64;
                    let ga = Matrix::from_fn(n, g.cols(), |_, c| g[(0, c)] * inv);
                    accumulate(&mut grads, *a, ga);
                }
                Op::SumAll(a) => {
                    let (r, c) = self.nodes[*a].value.shape();
                    accumulate(&mut grads, *a, Matrix::full(r, c, g[(0, 0)]));
                }
                Op::MeanAll(a) => {
                    let (r, c) = self.nodes[*a].value.shape();
                    let inv = 1.0 / (r * c).max(1) as f64;
                    accumulate(&mut grads, *a, Matrix::full(r, c, g[(0, 0)] * inv));
                }
                Op::AddRowBroadcast(a, row) => {
                    // `a` before `row`, so a var used as both sums in order.
                    let g_row = fed[*row].then(|| g.sum_rows());
                    if fed[*a] {
                        accumulate(&mut grads, *a, g);
                    }
                    if let Some(g_row) = g_row {
                        accumulate(&mut grads, *row, g_row);
                    }
                }
                Op::ConcatCols(a, b) => {
                    let ac = self.nodes[*a].value.cols();
                    let cols = |lo: usize, hi: usize| {
                        Matrix::from_fn(g.rows(), hi - lo, |r, c| g[(r, lo + c)])
                    };
                    if fed[*a] {
                        accumulate(&mut grads, *a, cols(0, ac));
                    }
                    if fed[*b] {
                        accumulate(&mut grads, *b, cols(ac, g.cols()));
                    }
                }
                Op::Div(a, b) => {
                    let (av, bv) = (&self.nodes[*a].value, &self.nodes[*b].value);
                    if fed[*a] {
                        accumulate(&mut grads, *a, g.zip(bv, |gi, bi| gi / bi));
                    }
                    if fed[*b] {
                        accumulate(
                            &mut grads,
                            *b,
                            g.zip(av, |gi, ai| gi * ai).zip(bv, |t, bi| -t / (bi * bi)),
                        );
                    }
                }
                Op::MulScalarVar(a, s) => {
                    let sv = self.nodes[*s].value[(0, 0)];
                    let av = &self.nodes[*a].value;
                    if fed[*a] {
                        accumulate(&mut grads, *a, g.scale(sv));
                    }
                    if fed[*s] {
                        let gs = g.hadamard(av).sum();
                        accumulate(&mut grads, *s, Matrix::from_vec(1, 1, vec![gs]));
                    }
                }
                Op::SoftmaxRow(a) => {
                    // For each row: g_in = s .* (g - (g . s)).
                    let s = value;
                    let mut ga = Matrix::zeros(g.rows(), g.cols());
                    for r in 0..g.rows() {
                        let dot: f64 = g.row(r).iter().zip(s.row(r)).map(|(&x, &y)| x * y).sum();
                        for c in 0..g.cols() {
                            ga[(r, c)] = s[(r, c)] * (g[(r, c)] - dot);
                        }
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::SoftmaxCrossEntropy {
                    logits,
                    targets,
                    class_weights,
                } => {
                    let lm = &self.nodes[*logits].value;
                    let wsum: f64 = targets.iter().map(|&t| class_weights[t]).sum();
                    let scale = if wsum > 0.0 { g[(0, 0)] / wsum } else { 0.0 };
                    let mut ga = Matrix::zeros(lm.rows(), lm.cols());
                    for (r, &t) in targets.iter().enumerate() {
                        let row = lm.row(r);
                        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                        let exps: Vec<f64> = row.iter().map(|&v| (v - max).exp()).collect();
                        let z: f64 = exps.iter().sum();
                        let w = class_weights[t];
                        for c in 0..lm.cols() {
                            let p = exps[c] / z;
                            let onehot = if c == t { 1.0 } else { 0.0 };
                            ga[(r, c)] = scale * w * (p - onehot);
                        }
                    }
                    accumulate(&mut grads, *logits, ga);
                }
                Op::PlaceRows(parts) => {
                    // `0.0 + g`, the value `S_pᵀ · g` gave for a 0/1 `S_p`.
                    for (src, idx) in parts.iter().filter(|(src, _)| fed[*src]) {
                        let mut gs = Matrix::zeros(idx.len(), g.cols());
                        for (r, &dst) in idx.iter().enumerate() {
                            for (o, &x) in gs.row_mut(r).iter_mut().zip(g.row(dst)) {
                                *o += x;
                            }
                        }
                        accumulate(&mut grads, *src, gs);
                    }
                }
            }
        }
        Grads { grads }
    }

    /// Marks the nodes up to `last` that a parameter feeds: every param, and
    /// every op with a marked input. Only a marked node can pass a gradient
    /// on to a parameter.
    fn param_fed(&self, last: usize) -> Vec<bool> {
        let mut fed = Vec::with_capacity(last + 1);
        for node in &self.nodes[..=last] {
            let marked = match node.op {
                Op::Param => true,
                ref op => op.reads_marked(&fed),
            };
            fed.push(marked);
        }
        fed
    }
}

impl Forward for Tape<'_> {
    fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    fn apply(
        &mut self,
        record: impl FnOnce() -> Record,
        compute: impl FnOnce(&Self, &mut Matrix),
    ) -> Var {
        let mut value = Matrix::default();
        compute(self, &mut value);
        self.push(record().0, value)
    }
}

/// `g[i] * f(x[i])` for every entry, written into `g`.
fn scaled_by(mut g: Matrix, x: &Matrix, f: impl Fn(f64) -> f64) -> Matrix {
    assert_eq!(g.shape(), x.shape(), "backward: gradient shape mismatch");
    for (gi, &xi) in g.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *gi *= f(xi);
    }
    g
}

fn accumulate(grads: &mut [Option<Matrix>], idx: usize, g: Matrix) {
    match &mut grads[idx] {
        Some(existing) => existing.axpy(1.0, &g),
        slot @ None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Central finite-difference check of d(loss)/d(param) for a scalar-loss builder.
    fn check_grad(param: &Matrix, build: impl Fn(&mut Tape, Var) -> Var, tol: f64) {
        let mut tape = Tape::new();
        let p = tape.param(param.clone());
        let loss = build(&mut tape, p);
        let grads = tape.backward(loss);
        let analytic = grads.get(p, param);

        let eps = 1e-5;
        for r in 0..param.rows() {
            for c in 0..param.cols() {
                let mut plus = param.clone();
                plus[(r, c)] += eps;
                let mut minus = param.clone();
                minus[(r, c)] -= eps;
                let f = |m: Matrix| {
                    let mut t = Tape::new();
                    let v = t.param(m);
                    let l = build(&mut t, v);
                    t.value(l)[(0, 0)]
                };
                let numeric = (f(plus) - f(minus)) / (2.0 * eps);
                let a = analytic[(r, c)];
                assert!(
                    (a - numeric).abs() < tol * (1.0 + numeric.abs()),
                    "grad mismatch at ({r},{c}): analytic {a}, numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn grad_matmul_chain() {
        let mut rng = Rng::seed_from_u64(101);
        let w = Matrix::random_normal(3, 4, 0.0, 1.0, &mut rng);
        let x = Matrix::random_normal(2, 3, 0.0, 1.0, &mut rng);
        check_grad(
            &w,
            move |t, p| {
                let xv = t.constant(x.clone());
                let y = t.matmul(xv, p);
                t.sum_all(y)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_relu_sigmoid_tanh_exp() {
        let mut rng = Rng::seed_from_u64(103);
        let w = Matrix::random_normal(2, 3, 0.0, 1.0, &mut rng);
        for act in 0..4 {
            check_grad(
                &w,
                move |t, p| {
                    let a = match act {
                        0 => t.relu(p),
                        1 => t.sigmoid(p),
                        2 => t.tanh(p),
                        _ => t.exp(p),
                    };
                    t.mean_all(a)
                },
                2e-4,
            );
        }
    }

    #[test]
    fn grad_mean_rows_and_broadcast() {
        let mut rng = Rng::seed_from_u64(107);
        let b = Matrix::random_normal(1, 4, 0.0, 1.0, &mut rng);
        let x = Matrix::random_normal(3, 4, 0.0, 1.0, &mut rng);
        check_grad(
            &b,
            move |t, p| {
                let xv = t.constant(x.clone());
                let y = t.add_row_broadcast(xv, p);
                let m = t.mean_rows(y);
                let s = t.hadamard(m, m);
                t.sum_all(s)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_softmax_row() {
        let mut rng = Rng::seed_from_u64(109);
        let w = Matrix::random_normal(2, 5, 0.0, 1.0, &mut rng);
        let coef = Matrix::random_normal(2, 5, 0.0, 1.0, &mut rng);
        check_grad(
            &w,
            move |t, p| {
                let s = t.softmax_row(p);
                let c = t.constant(coef.clone());
                let weighted = t.hadamard(s, c);
                t.sum_all(weighted)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_softmax_cross_entropy() {
        let mut rng = Rng::seed_from_u64(113);
        let logits = Matrix::random_normal(4, 3, 0.0, 1.0, &mut rng);
        let targets = vec![0usize, 2, 1, 2];
        let weights = vec![1.0, 2.0, 0.5];
        check_grad(
            &logits,
            move |t, p| t.softmax_cross_entropy(p, &targets, &weights),
            1e-5,
        );
    }

    #[test]
    fn grad_contrastive_shape() {
        // Contrastive loss composition: d2*(1-y) + relu(k - d2)*y, both branches.
        let mut rng = Rng::seed_from_u64(127);
        let w = Matrix::random_normal(3, 2, 0.0, 0.5, &mut rng);
        let xa = Matrix::random_normal(2, 3, 0.0, 1.0, &mut rng);
        let xb = Matrix::random_normal(2, 3, 0.0, 1.0, &mut rng);
        for &y in &[0.0, 1.0] {
            let (xa, xb) = (xa.clone(), xb.clone());
            check_grad(
                &w,
                move |t, p| {
                    let a = t.constant(xa.clone());
                    let b = t.constant(xb.clone());
                    let za0 = t.matmul(a, p);
                    let za = t.mean_rows(za0);
                    let zb0 = t.matmul(b, p);
                    let zb = t.mean_rows(zb0);
                    let d2 = t.sq_distance(za, zb);
                    let same = t.scale(d2, 1.0 - y);
                    let neg = t.scale(d2, -1.0);
                    let marg = t.add_scalar(neg, 1.0);
                    let hinge0 = t.relu(marg);
                    let hinge = t.scale(hinge0, y);
                    t.add(same, hinge)
                },
                2e-4,
            );
        }
    }

    #[test]
    fn grad_concat_cols() {
        let mut rng = Rng::seed_from_u64(131);
        let w = Matrix::random_normal(2, 3, 0.0, 1.0, &mut rng);
        let other = Matrix::random_normal(2, 2, 0.0, 1.0, &mut rng);
        let coef = Matrix::random_normal(2, 5, 0.0, 1.0, &mut rng);
        check_grad(
            &w,
            move |t, p| {
                let o = t.constant(other.clone());
                let cat = t.concat_cols(p, o);
                let c = t.constant(coef.clone());
                let h = t.hadamard(cat, c);
                t.sum_all(h)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_div() {
        let mut rng = Rng::seed_from_u64(139);
        let w = Matrix::random_normal(2, 2, 0.0, 1.0, &mut rng);
        let denom = Matrix::random_uniform(2, 2, 0.5, 2.0, &mut rng);
        let (d1, d2) = (denom.clone(), denom);
        check_grad(
            &w,
            move |t, p| {
                let d = t.constant(d1.clone());
                let q = t.div(p, d);
                t.sum_all(q)
            },
            1e-4,
        );
        // Gradient w.r.t. the denominator.
        let numer = Matrix::random_normal(2, 2, 0.0, 1.0, &mut rng);
        let w2 = Matrix::random_uniform(2, 2, 0.5, 2.0, &mut rng);
        check_grad(
            &w2,
            move |t, p| {
                let n = t.constant(numer.clone());
                let q = t.div(n, p);
                let _ = &d2;
                t.sum_all(q)
            },
            1e-4,
        );
    }

    #[test]
    fn grad_mul_scalar_var() {
        let mut rng = Rng::seed_from_u64(137);
        let w = Matrix::random_normal(1, 1, 0.5, 0.2, &mut rng);
        let m = Matrix::random_normal(2, 3, 0.0, 1.0, &mut rng);
        let coef = Matrix::random_normal(2, 3, 0.0, 1.0, &mut rng);
        check_grad(
            &w,
            move |t, p| {
                let mv = t.constant(m.clone());
                let scaled = t.mul_scalar_var(mv, p);
                let c = t.constant(coef.clone());
                let h = t.hadamard(scaled, c);
                t.sum_all(h)
            },
            1e-5,
        );
        // And the gradient w.r.t. the matrix side.
        let mat = Matrix::random_normal(2, 2, 0.0, 1.0, &mut rng);
        check_grad(
            &mat,
            move |t, p| {
                let s = t.constant(Matrix::from_vec(1, 1, vec![1.7]));
                let scaled = t.mul_scalar_var(p, s);
                t.sum_all(scaled)
            },
            1e-5,
        );
    }

    #[test]
    fn grad_place_rows() {
        let mut rng = Rng::seed_from_u64(151);
        let w = Matrix::random_normal(2, 3, 0.0, 1.0, &mut rng);
        let other = Matrix::random_normal(3, 3, 0.0, 1.0, &mut rng);
        let coef = Matrix::random_normal(6, 3, 0.0, 1.0, &mut rng);
        check_grad(
            &w,
            move |t, p| {
                let o = t.constant(other.clone());
                // Row 5 receives nothing; row 1 receives a row of each part.
                let placed = t.place_rows(6, &[(p, vec![4, 1]), (o, vec![0, 1, 3])]);
                let c = t.constant(coef.clone());
                let h = t.hadamard(placed, c);
                let sq = t.hadamard(h, h);
                t.sum_all(sq)
            },
            1e-5,
        );
    }

    #[test]
    fn place_rows_equals_the_scatter_product() {
        // Forward and backward hold the bits of the 0/1 scatter products
        // `S · v` and `Sᵀ · g` the op replaces: a placed entry is `0.0 + v`,
        // so `-0.0` turns into `+0.0`.
        let v0 = Matrix::from_rows(&[vec![-0.0, 1.5, -2.0], vec![3.0, -0.0, 0.25]]);
        let idx = vec![2, 0];
        let mut scatter = Matrix::zeros(4, 2);
        for (r, &dst) in idx.iter().enumerate() {
            scatter[(dst, r)] = 1.0;
        }
        let mut tape = Tape::new();
        let v = tape.param(v0.clone());
        let placed = tape.place_rows(4, &[(v, idx)]);
        let expect = Matrix::from_fn(4, 3, |i, j| match i {
            2 => 0.0 + v0[(0, j)],
            0 => 0.0 + v0[(1, j)],
            _ => 0.0,
        });
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(tape.value(placed)), bits(&expect));
        assert_eq!(bits(tape.value(placed)), bits(&scatter.matmul(&v0)));
        let g0 = Matrix::from_rows(&[
            vec![1.0, -0.0, 2.0],
            vec![4.0, 5.0, 6.0],
            vec![-0.0, 7.0, -1.0],
            vec![8.0, 9.0, 10.0],
        ]);
        let grads = tape.backward_seeded(placed, g0.clone());
        let g = grads.try_get(v).expect("the param feeds the placement");
        assert_eq!(bits(g), bits(&scatter.matmul_tn(&g0)));
        assert_eq!(
            bits(g),
            bits(&Matrix::from_rows(&[
                vec![0.0, 7.0, -1.0],
                vec![1.0, 0.0, 2.0]
            ]))
        );
    }

    #[test]
    fn reused_var_accumulates_gradient() {
        // loss = sum(p ∘ p); d/dp = 2p.
        let p0 = Matrix::from_rows(&[vec![1.0, -2.0], vec![3.0, 0.5]]);
        let mut tape = Tape::new();
        let p = tape.param(p0.clone());
        let sq = tape.hadamard(p, p);
        let loss = tape.sum_all(sq);
        let g = tape.backward(loss).get(p, &p0);
        assert!(g.max_abs_diff(&p0.scale(2.0)) < 1e-12);
    }

    #[test]
    fn unused_param_gets_zero_grad() {
        let mut tape = Tape::new();
        let used = tape.param(Matrix::ones(1, 1));
        let unused = tape.param(Matrix::ones(2, 2));
        let loss = tape.sum_all(used);
        let grads = tape.backward(loss);
        assert!(grads.try_get(unused).is_none());
        assert_eq!(grads.get(unused, &Matrix::ones(2, 2)).sum(), 0.0);
    }

    #[test]
    fn constants_and_constant_fed_nodes_get_no_gradient() {
        // loss = sum((A X) W): `A X` is fed only by constants.
        let mut rng = Rng::seed_from_u64(149);
        let w0 = Matrix::random_normal(3, 2, 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let a = tape.constant(Matrix::random_normal(4, 4, 0.0, 1.0, &mut rng));
        let x = tape.constant(Matrix::random_normal(4, 3, 0.0, 1.0, &mut rng));
        let ax = tape.matmul(a, x);
        let w = tape.param(w0.clone());
        let y = tape.matmul(ax, w);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        for v in [a, x, ax] {
            assert!(grads.try_get(v).is_none(), "{v:?} got a gradient");
        }
        assert_eq!(grads.get(x, tape.value(x)).sum(), 0.0);
        // The parameter's gradient is unchanged: (A X)ᵀ · ones.
        let expected = tape.value(ax).transpose().matmul(&Matrix::ones(4, 2));
        let g = grads.try_get(w).expect("the param feeds the loss");
        assert_eq!(g.as_slice(), expected.as_slice());
        assert_eq!(grads.get(w, &w0).as_slice(), expected.as_slice());
    }

    #[test]
    fn take_moves_the_gradient_out() {
        let mut tape = Tape::new();
        let p = tape.param(Matrix::ones(2, 2));
        let loss = tape.sum_all(p);
        let mut grads = tape.backward(loss);
        assert_eq!(grads.take(p).map(|g| g.sum()), Some(4.0));
        assert!(grads.take(p).is_none());
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let p = tape.param(Matrix::ones(2, 2));
        tape.backward(p);
    }
}
