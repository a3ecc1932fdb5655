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
//! Training reuses buffers too. A tape forms every op value and every
//! gradient in a [`TapeBuffers`] set that a training run hands from one
//! tape to the next ([`Tape::with_buffers`], [`Tape::into_buffers`]), so a
//! step whose shapes the run has seen allocates no matrix. Backward forms
//! each gradient in place, term for term as a fresh tape would, and
//! transposes each right factor of `g · bᵀ` once per pass, however many
//! nodes read it. [`Tape::new`] starts from an empty set.
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
    /// The value the caller gave ([`Tape::constant`], [`Tape::param`]);
    /// `None` for a value the tape formed, which is its
    /// [`TapeBuffers`] value buffer.
    given: Option<Cow<'p, Matrix>>,
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

/// Buffers a training run carries from one tape to the next: the training
/// twin of [`Evaluator`](crate::eval::Evaluator). Each buffer has the same
/// role on every tape: the value of op `k`; the gradient slot of node `k`,
/// which also holds the gradients op `k` passes on unchanged, all of its
/// shape; the `t`-th transpose a backward pass forms; or the scratch a
/// contribution to an existing gradient is formed in. Each keeps the
/// largest matrix its role has held, so a step whose shapes a run has seen
/// allocates no matrix, and a run that repeats its steps never grows the
/// set.
#[derive(Default)]
pub struct TapeBuffers {
    /// Value of op node `k`; a caller-given node leaves its buffer unused.
    values: Vec<Matrix>,
    /// Gradient slots, and the slot each node's gradient is in
    /// ([`Grads`] holds both while the caller reads them).
    slots: Vec<Matrix>,
    home: Vec<Option<usize>>,
    /// Right factors' transposes, in the order a backward pass first
    /// needs them, and the address of each factor.
    transposes: Vec<Matrix>,
    transposed: Vec<usize>,
    scratch: Matrix,
    /// The nodes a parameter feeds, in one backward pass.
    fed: Vec<bool>,
}

impl TapeBuffers {
    /// The number of buffers holding memory, and their total capacity in
    /// entries.
    pub fn footprint(&self) -> (usize, usize) {
        let all = (self.values.iter())
            .chain(&self.slots)
            .chain(&self.transposes)
            .chain(std::iter::once(&self.scratch));
        all.filter(|m| m.capacity() > 0)
            .fold((0, 0), |(n, cap), m| (n + 1, cap + m.capacity()))
    }
}

/// Gradients produced by [`Tape::backward`]: node `k`'s gradient is slot
/// `home[k]`, its own slot or, when an op passed its upstream gradient on
/// unchanged, the slot of the op it came from.
pub struct Grads {
    slots: Vec<Matrix>,
    home: Vec<Option<usize>>,
}

impl Grads {
    /// Gradient of the loss with respect to `var`. Zero matrix if the var did
    /// not influence the loss, or is not fed by a parameter (a constant).
    pub fn get(&self, var: Var, shape_like: &Matrix) -> Matrix {
        match self.try_get(var) {
            Some(g) => g.clone(),
            None => Matrix::zeros(shape_like.rows(), shape_like.cols()),
        }
    }

    /// Borrowing accessor; `None` means the var did not influence the loss
    /// or is not fed by a parameter.
    pub fn try_get(&self, var: Var) -> Option<&Matrix> {
        self.home[var.0].map(|h| &self.slots[h])
    }

    /// Moves the gradient out, leaving `None` behind; `None` under the same
    /// conditions as [`Grads::try_get`].
    pub fn take(&mut self, var: Var) -> Option<Matrix> {
        self.home[var.0]
            .take()
            .map(|h| std::mem::take(&mut self.slots[h]))
    }

    /// Adds to node `a`'s gradient what `form` writes from the upstream
    /// gradient in slot `up`: straight into `a`'s own slot while `a` has no
    /// gradient, else into `scratch`, which is then added to it.
    fn add(
        &mut self,
        up: usize,
        a: usize,
        scratch: &mut Matrix,
        form: impl FnOnce(&Matrix, &mut Matrix),
    ) {
        match self.home[a] {
            None => {
                // `up` is the slot of a later node, never `a`'s own.
                let (g, out) = read_write(&mut self.slots, up, a);
                form(g, out);
                self.home[a] = Some(a);
            }
            Some(h) => {
                form(&self.slots[up], scratch);
                self.slots[h].axpy(1.0, scratch);
            }
        }
    }

    /// Passes the upstream gradient in slot `up` on to node `a` unchanged:
    /// `a` takes the slot over while it has no gradient.
    fn pass(&mut self, up: usize, a: usize) {
        match self.home[a] {
            None => self.home[a] = Some(up),
            Some(h) => {
                let (g, out) = read_write(&mut self.slots, up, h);
                out.axpy(1.0, g);
            }
        }
    }
}

/// `(&slots[read], &mut slots[write])` for two different slots.
fn read_write(slots: &mut [Matrix], read: usize, write: usize) -> (&Matrix, &mut Matrix) {
    if read < write {
        let (lo, hi) = slots.split_at_mut(write);
        (&lo[read], &mut hi[0])
    } else {
        let (lo, hi) = slots.split_at_mut(read);
        (&hi[0], &mut lo[write])
    }
}

/// The transpose of `b` that `g · bᵀ` reads, formed once per backward
/// pass: the contrastive trainer registers each weight once per branch,
/// and MAGNN reads its attention weights once per metapath, so several
/// nodes may hold one matrix. It is found by its address, which no other
/// matrix alive in the pass shares.
fn transpose_of<'t>(bufs: &'t mut Vec<Matrix>, keys: &mut Vec<usize>, b: &Matrix) -> &'t Matrix {
    let key = b as *const Matrix as usize;
    let t = match keys.iter().position(|&k| k == key) {
        Some(t) => t,
        None => {
            let t = keys.len();
            keys.push(key);
            if bufs.len() == t {
                bufs.push(Matrix::default());
            }
            b.transpose_into(&mut bufs[t]);
            t
        }
    };
    &bufs[t]
}

/// Records a forward computation for later differentiation. `'p` is the
/// lifetime of borrowed parameters (see [`Tape::param`]).
#[derive(Default)]
pub struct Tape<'p> {
    nodes: Vec<Node<'p>>,
    buffers: TapeBuffers,
}

impl<'p> Tape<'p> {
    /// A tape starting from an empty buffer set.
    pub fn new() -> Self {
        Self::with_buffers(TapeBuffers::default())
    }

    /// A tape that forms every op value and gradient in `buffers`;
    /// [`Tape::into_buffers`] hands them on to the next tape.
    pub fn with_buffers(buffers: TapeBuffers) -> Self {
        Self {
            nodes: Vec::new(),
            buffers,
        }
    }

    /// Ends the tape: its buffers, and those of the `grads` its backward
    /// pass formed.
    pub fn into_buffers(self, grads: Grads) -> TapeBuffers {
        TapeBuffers {
            slots: grads.slots,
            home: grads.home,
            ..self.buffers
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn given(&mut self, op: Op, value: Cow<'p, Matrix>) -> Var {
        self.nodes.push(Node {
            op,
            given: Some(value),
        });
        Var(self.nodes.len() - 1)
    }

    fn val(&self, k: usize) -> &Matrix {
        match &self.nodes[k].given {
            Some(m) => m,
            None => &self.buffers.values[k],
        }
    }

    /// Registers a constant (no gradient tracked).
    pub fn constant(&mut self, m: Matrix) -> Var {
        self.given(Op::Const, m.into())
    }

    /// Registers a trainable parameter (gradient tracked). A borrowed
    /// `&'p Matrix` is read in place for the tape's lifetime, not copied.
    pub fn param(&mut self, m: impl Into<Cow<'p, Matrix>>) -> Var {
        self.given(Op::Param, m.into())
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.apply(
            || Record(Op::Sub(a.0, b.0)),
            |t, out| t.value(a).zip_into(t.value(b), out, |p, q| p - q),
        )
    }

    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        self.apply(
            || Record(Op::Hadamard(a.0, b.0)),
            |t, out| t.value(a).zip_into(t.value(b), out, |p, q| p * q),
        )
    }

    pub fn scale(&mut self, a: Var, s: f64) -> Var {
        self.apply(
            || Record(Op::Scale(a.0, s)),
            |t, out| t.value(a).scale_into(s, out),
        )
    }

    pub fn add_scalar(&mut self, a: Var, s: f64) -> Var {
        self.apply(
            || Record(Op::AddScalar(a.0)),
            |t, out| t.value(a).map_into(out, |x| x + s),
        )
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.apply(
            || Record(Op::Sigmoid(a.0)),
            |t, out| t.value(a).map_into(out, |x| 1.0 / (1.0 + (-x).exp())),
        )
    }

    pub fn sum_all(&mut self, a: Var) -> Var {
        self.apply(
            || Record(Op::SumAll(a.0)),
            |t, out| out.refill(1, 1, t.value(a).sum()),
        )
    }

    pub fn mean_all(&mut self, a: Var) -> Var {
        self.apply(
            || Record(Op::MeanAll(a.0)),
            |t, out| out.refill(1, 1, t.value(a).mean()),
        )
    }

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        self.apply(
            || Record(Op::ConcatCols(a.0, b.0)),
            |t, out| Matrix::hstack_into(&[t.value(a), t.value(b)], out),
        )
    }

    /// Numerically stable row-wise softmax.
    pub fn softmax_row(&mut self, a: Var) -> Var {
        self.apply(
            || Record(Op::SoftmaxRow(a.0)),
            |t, out| {
                out.clone_from(t.value(a));
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
            },
        )
    }

    /// Weighted-mean softmax cross-entropy. `logits` is `(n, C)`, `targets`
    /// has length `n`, `class_weights` has length `C`.
    pub fn softmax_cross_entropy(
        &mut self,
        logits: Var,
        targets: &[usize],
        class_weights: &[f64],
    ) -> Var {
        self.apply(
            || {
                Record(Op::SoftmaxCrossEntropy {
                    logits: logits.0,
                    targets: targets.to_vec(),
                    class_weights: class_weights.to_vec(),
                })
            },
            |t, out| {
                let lm = t.value(logits);
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
                out.refill(1, 1, if wsum > 0.0 { total / wsum } else { 0.0 });
            },
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
    pub fn backward(&mut self, loss: Var) -> Grads {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be scalar"
        );
        self.backward_seeded(loss, &[1.0])
    }

    /// Reverse-mode differentiation from `node` with an explicit upstream
    /// gradient `seed`, the node's shape in row-major order;
    /// `backward(loss)` is `backward_seeded(loss, &[1.0])`.
    ///
    /// One forward pass over the ops up to `node` first marks the nodes a
    /// parameter feeds; the reverse walk forms gradients for marked nodes
    /// only. A constant therefore gets no gradient ([`Grads::get`] returns
    /// zeros), and a parameter's gradient is the same f64 sequence it would
    /// be with every node differentiated: skipped terms never reach it.
    ///
    /// Every gradient is formed in the tape's buffers: a node's first
    /// gradient in its own slot, a later contribution in the scratch
    /// buffer before it is added, and an upstream gradient an op passes on
    /// unchanged stays in its slot, which the input takes over.
    ///
    /// # Panics
    /// Panics if `seed` does not hold one entry per entry of the node.
    fn backward_seeded(&mut self, node: Var, seed: &[f64]) -> Grads {
        let last = node.0;
        let mut fed = std::mem::take(&mut self.buffers.fed);
        self.mark_param_fed(last, &mut fed);
        let mut grads = Grads {
            slots: std::mem::take(&mut self.buffers.slots),
            home: std::mem::take(&mut self.buffers.home),
        };
        if grads.slots.len() < self.nodes.len() {
            grads.slots.resize_with(self.nodes.len(), Matrix::default);
        }
        grads.home.clear();
        grads.home.resize(self.nodes.len(), None);
        let mut scratch = std::mem::take(&mut self.buffers.scratch);
        let mut transposes = std::mem::take(&mut self.buffers.transposes);
        let mut transposed = std::mem::take(&mut self.buffers.transposed);
        transposed.clear();

        let (rows, cols) = self.value(node).shape();
        assert_eq!(
            seed.len(),
            rows * cols,
            "backward_seeded: seed shape must match the node"
        );
        if fed[last] {
            let g = &mut grads.slots[last];
            g.reset(rows, cols);
            g.as_mut_slice().copy_from_slice(seed);
            grads.home[last] = Some(last);
        }

        // Only marked nodes ever hold a gradient. A one-input op is marked
        // iff its input is, so only ops with several inputs test them.
        for idx in (0..=last).rev() {
            let Some(up) = grads.home[idx] else {
                continue;
            };
            let scratch = &mut scratch;
            match &self.nodes[idx].op {
                Op::Const | Op::Param => continue,
                Op::MatMul(a, b) => {
                    let (av, bv) = (self.val(*a), self.val(*b));
                    if fed[*a] {
                        let bt = transpose_of(&mut transposes, &mut transposed, bv);
                        grads.add(up, *a, scratch, |g, out| g.matmul_into(bt, out));
                    }
                    if fed[*b] {
                        grads.add(up, *b, scratch, |g, out| av.matmul_tn_into(g, out));
                    }
                }
                Op::Add(a, b) => {
                    if fed[*a] && fed[*b] {
                        grads.add(up, *a, scratch, |g, out| out.clone_from(g));
                        grads.pass(up, *b);
                    } else {
                        grads.pass(up, if fed[*a] { *a } else { *b });
                    }
                }
                Op::Sub(a, b) => {
                    if fed[*a] {
                        grads.pass(up, *a);
                    }
                    if fed[*b] {
                        grads.add(up, *b, scratch, |g, out| g.scale_into(-1.0, out));
                    }
                }
                Op::Hadamard(a, b) => {
                    let (av, bv) = (self.val(*a), self.val(*b));
                    if fed[*a] {
                        grads.add(up, *a, scratch, |g, out| g.zip_into(bv, out, |x, y| x * y));
                    }
                    if fed[*b] {
                        grads.add(up, *b, scratch, |g, out| g.zip_into(av, out, |x, y| x * y));
                    }
                }
                Op::Scale(a, s) => {
                    grads.slots[up]
                        .as_mut_slice()
                        .iter_mut()
                        .for_each(|v| *v *= s);
                    grads.pass(up, *a);
                }
                Op::AddScalar(a) => grads.pass(up, *a),
                // Activations: `g * f'(x)` in one pass over `g`, the same two
                // roundings as forming `f'(x)` and then the Hadamard product.
                Op::Relu(a) => {
                    let x = self.val(*a);
                    scaled_by(&mut grads.slots[up], x, |x| if x > 0.0 { 1.0 } else { 0.0 });
                    grads.pass(up, *a);
                }
                Op::Sigmoid(a) => {
                    scaled_by(&mut grads.slots[up], self.val(idx), |s| s * (1.0 - s));
                    grads.pass(up, *a);
                }
                Op::Tanh(a) => {
                    scaled_by(&mut grads.slots[up], self.val(idx), |t| 1.0 - t * t);
                    grads.pass(up, *a);
                }
                Op::Exp(a) => {
                    scaled_by(&mut grads.slots[up], self.val(idx), |e| e);
                    grads.pass(up, *a);
                }
                Op::MeanRows(a) => {
                    let n = self.val(*a).rows();
                    let inv = 1.0 / n.max(1) as f64;
                    grads.add(up, *a, scratch, |g, out| {
                        out.reset(n, g.cols());
                        for r in 0..n {
                            for (o, &x) in out.row_mut(r).iter_mut().zip(g.row(0)) {
                                *o = x * inv;
                            }
                        }
                    });
                }
                Op::SumAll(a) => {
                    let (r, c) = self.val(*a).shape();
                    grads.add(up, *a, scratch, |g, out| out.refill(r, c, g[(0, 0)]));
                }
                Op::MeanAll(a) => {
                    let (r, c) = self.val(*a).shape();
                    let inv = 1.0 / (r * c).max(1) as f64;
                    grads.add(up, *a, scratch, |g, out| out.refill(r, c, g[(0, 0)] * inv));
                }
                Op::AddRowBroadcast(a, row) => {
                    // `a` before `row`, so a var used as both sums in order.
                    if fed[*a] {
                        grads.pass(up, *a);
                    }
                    if fed[*row] {
                        grads.add(up, *row, scratch, |g, out| g.sum_rows_into(out));
                    }
                }
                Op::ConcatCols(a, b) => {
                    let ac = self.val(*a).cols();
                    let cols = |lo: usize, hi: usize| {
                        move |g: &Matrix, out: &mut Matrix| {
                            out.reset(g.rows(), hi - lo);
                            for r in 0..g.rows() {
                                out.row_mut(r).copy_from_slice(&g.row(r)[lo..hi]);
                            }
                        }
                    };
                    if fed[*a] {
                        grads.add(up, *a, scratch, cols(0, ac));
                    }
                    if fed[*b] {
                        let gc = grads.slots[up].cols();
                        grads.add(up, *b, scratch, cols(ac, gc));
                    }
                }
                Op::Div(a, b) => {
                    let (av, bv) = (self.val(*a), self.val(*b));
                    if fed[*a] {
                        grads.add(up, *a, scratch, |g, out| {
                            g.zip_into(bv, out, |gi, bi| gi / bi)
                        });
                    }
                    if fed[*b] {
                        grads.add(up, *b, scratch, |g, out| {
                            assert_eq!(g.shape(), av.shape(), "zip: shape mismatch");
                            assert_eq!(g.shape(), bv.shape(), "zip: shape mismatch");
                            out.reset(g.rows(), g.cols());
                            let terms = g.as_slice().iter().zip(av.as_slice()).zip(bv.as_slice());
                            for (o, ((&gi, &ai), &bi)) in out.as_mut_slice().iter_mut().zip(terms) {
                                *o = -(gi * ai) / (bi * bi);
                            }
                        });
                    }
                }
                Op::MulScalarVar(a, s) => {
                    let sv = self.val(*s)[(0, 0)];
                    let av = self.val(*a);
                    if fed[*a] {
                        grads.add(up, *a, scratch, |g, out| g.scale_into(sv, out));
                    }
                    if fed[*s] {
                        grads.add(up, *s, scratch, |g, out| {
                            assert_eq!(g.shape(), av.shape(), "zip: shape mismatch");
                            let gs: f64 = g
                                .as_slice()
                                .iter()
                                .zip(av.as_slice())
                                .map(|(x, y)| x * y)
                                .sum();
                            out.refill(1, 1, gs);
                        });
                    }
                }
                Op::SoftmaxRow(a) => {
                    // For each row: g_in = s .* (g - (g . s)).
                    let s = self.val(idx);
                    grads.add(up, *a, scratch, |g, out| {
                        out.reset(g.rows(), g.cols());
                        for r in 0..g.rows() {
                            let dot: f64 =
                                g.row(r).iter().zip(s.row(r)).map(|(&x, &y)| x * y).sum();
                            for c in 0..g.cols() {
                                out[(r, c)] = s[(r, c)] * (g[(r, c)] - dot);
                            }
                        }
                    });
                }
                Op::SoftmaxCrossEntropy {
                    logits,
                    targets,
                    class_weights,
                } => {
                    let lm = self.val(*logits);
                    let wsum: f64 = targets.iter().map(|&t| class_weights[t]).sum();
                    grads.add(up, *logits, scratch, |g, out| {
                        let scale = if wsum > 0.0 { g[(0, 0)] / wsum } else { 0.0 };
                        out.reset(lm.rows(), lm.cols());
                        for (r, &t) in targets.iter().enumerate() {
                            let row = lm.row(r);
                            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                            let exps: Vec<f64> = row.iter().map(|&v| (v - max).exp()).collect();
                            let z: f64 = exps.iter().sum();
                            let w = class_weights[t];
                            for c in 0..lm.cols() {
                                let p = exps[c] / z;
                                let onehot = if c == t { 1.0 } else { 0.0 };
                                out[(r, c)] = scale * w * (p - onehot);
                            }
                        }
                    });
                }
                Op::PlaceRows(parts) => {
                    // `0.0 + g`, the value `S_pᵀ · g` gave for a 0/1 `S_p`.
                    for (src, idx) in parts.iter().filter(|(src, _)| fed[*src]) {
                        grads.add(up, *src, scratch, |g, out| {
                            out.reset(idx.len(), g.cols());
                            for (r, &dst) in idx.iter().enumerate() {
                                for (o, &x) in out.row_mut(r).iter_mut().zip(g.row(dst)) {
                                    *o += x;
                                }
                            }
                        });
                    }
                }
            }
            grads.home[idx] = None;
        }
        self.buffers.fed = fed;
        self.buffers.scratch = scratch;
        self.buffers.transposes = transposes;
        self.buffers.transposed = transposed;
        grads
    }

    /// Marks in `fed` the nodes up to `last` that a parameter feeds: every
    /// param, and every op with a marked input. Only a marked node can pass
    /// a gradient on to a parameter.
    fn mark_param_fed(&self, last: usize, fed: &mut Vec<bool>) {
        fed.clear();
        for node in &self.nodes[..=last] {
            let marked = match node.op {
                Op::Param => true,
                ref op => op.reads_marked(fed),
            };
            fed.push(marked);
        }
    }
}

impl Forward for Tape<'_> {
    fn value(&self, v: Var) -> &Matrix {
        self.val(v.0)
    }

    fn apply(
        &mut self,
        record: impl FnOnce() -> Record,
        compute: impl FnOnce(&Self, &mut Matrix),
    ) -> Var {
        let k = self.nodes.len();
        if self.buffers.values.len() <= k {
            self.buffers.values.resize_with(k + 1, Matrix::default);
        }
        // The buffer leaves its slot while `compute` reads earlier values.
        let mut out = std::mem::take(&mut self.buffers.values[k]);
        compute(self, &mut out);
        self.buffers.values[k] = out;
        self.nodes.push(Node {
            op: record().0,
            given: None,
        });
        Var(k)
    }
}

/// `g[i] * f(x[i])` for every entry, written into `g`.
fn scaled_by(g: &mut Matrix, x: &Matrix, f: impl Fn(f64) -> f64) {
    assert_eq!(g.shape(), x.shape(), "backward: gradient shape mismatch");
    for (gi, &xi) in g.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *gi *= f(xi);
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
        let grads = tape.backward_seeded(placed, g0.as_slice());
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

    /// Equal bit for bit, except that any NaN equals any NaN.
    fn same_bits(x: &Matrix, y: &Matrix) -> bool {
        x.shape() == y.shape()
            && x.as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(p, q)| (p.is_nan() && q.is_nan()) || p.to_bits() == q.to_bits())
    }

    /// Every op on `n` rows, down to one scalar. `p[5]` registers `p[3]`'s
    /// matrix again, so one transpose serves three products; `p[0]` meets
    /// only a constant, which needs no transpose.
    fn every_op(t: &mut Tape, p: &[Var], x: &Matrix, n: usize) -> Var {
        let a = t.constant(x.clone());
        let h = t.matmul(a, p[0]);
        let h = t.add_row_broadcast(h, p[1]);
        let r = t.relu(h);
        let th = t.tanh(h);
        let e = t.exp(th);
        let s = t.add(r, e);
        let q = t.div(s, e);
        let m = t.mean_rows(q);
        let w = t.matmul(m, p[2]);
        let g = t.mul_scalar_var(q, w);
        let rows: Vec<usize> = (0..n).rev().collect();
        let placed = t.place_rows(n + 1, &[(g, rows.as_slice()), (r, &rows[..])]);
        let twice = [p[3], p[4], p[5], p[3]].into_iter().fold(placed, |z, w| {
            let z = t.matmul(z, w);
            t.sigmoid(z)
        });
        let cat = t.concat_cols(placed, twice);
        let soft = t.softmax_row(cat);
        let d = t.sub(soft, cat);
        let sq = t.hadamard(d, d);
        let sq = t.scale(sq, 0.5);
        let sq = t.add_scalar(sq, 1.0);
        let targets: Vec<usize> = (0..=n).map(|i| i % 8).collect();
        let ce = t.softmax_cross_entropy(cat, &targets, &[1.0, 2.0, 0.5, 1.0, 1.0, 3.0, 1.0, 1.0]);
        let mean = t.mean_all(sq);
        let total = t.add(mean, ce);
        let sum = t.sum_all(sq);
        let dist = t.sq_distance(m, m);
        let rest = t.add(sum, dist);
        t.add(total, rest)
    }

    /// The value and parameter gradients of [`every_op`] on `tape`, and
    /// the tape's buffers.
    fn run_every_op<'p>(
        mut tape: Tape<'p>,
        params: &'p [Matrix],
        x: &Matrix,
        n: usize,
    ) -> (Matrix, Vec<Option<Matrix>>, TapeBuffers) {
        let mut vars: Vec<Var> = params.iter().map(|p| tape.param(p)).collect();
        vars.push(tape.param(&params[3]));
        let loss = every_op(&mut tape, &vars, x, n);
        let value = tape.value(loss).clone();
        let grads = tape.backward(loss);
        let g = vars.iter().map(|&v| grads.try_get(v).cloned()).collect();
        (value, g, tape.into_buffers(grads))
    }

    #[test]
    fn reused_buffers_give_a_fresh_tapes_bits_and_stop_growing() {
        let mut rng = Rng::seed_from_u64(5);
        let params = vec![
            Matrix::random_normal(3, 4, 0.0, 1.0, &mut rng),
            Matrix::random_normal(1, 4, 0.0, 1.0, &mut rng),
            Matrix::random_normal(4, 1, 0.0, 1.0, &mut rng),
            Matrix::random_normal(4, 4, 0.0, 0.5, &mut rng),
            Matrix::random_normal(4, 4, 0.0, 0.5, &mut rng),
        ];
        // Large, the same shape again, small, empty inner dimension,
        // larger, NaN: every reused buffer must be rewritten in full, also
        // where it already has the shape it needs.
        let schedule = [
            (9, 3, false),
            (9, 3, false),
            (1, 3, false),
            (4, 0, false),
            (12, 3, false),
            (6, 3, true),
        ];
        let mut buffers = TapeBuffers::default();
        let mut bound = None;
        for round in 0..3 {
            for &(n, d, nan) in &schedule {
                let mut params = params.clone();
                if d == 0 {
                    params[0] = Matrix::zeros(0, 4);
                }
                let x = Matrix::from_fn(n, d, |i, j| match (i + 2 * j) % 7 {
                    0 if nan => f64::NAN,
                    1 => -0.0,
                    2 => f64::MIN_POSITIVE / 4.0,
                    _ => rng.normal(0.0, 2.0),
                });
                let (want, want_g, _) = run_every_op(Tape::new(), &params, &x, n);
                let tape = Tape::with_buffers(std::mem::take(&mut buffers));
                let (got, got_g, back) = run_every_op(tape, &params, &x, n);
                buffers = back;
                assert!(same_bits(&got, &want), "n={n} d={d}: loss");
                for (i, (g, w)) in got_g.iter().zip(&want_g).enumerate() {
                    let same = match (g, w) {
                        (Some(g), Some(w)) => same_bits(g, w),
                        (g, w) => g.is_none() && w.is_none(),
                    };
                    assert!(same, "n={n} d={d}: gradient of param {i}");
                }
                assert!(
                    want_g.iter().all(Option::is_some),
                    "every param feeds the loss"
                );
            }
            // The first round sized every buffer; the next ones add none.
            let footprint = buffers.footprint();
            assert_eq!(*bound.get_or_insert(footprint), footprint, "round {round}");
        }
    }

    #[test]
    fn weights_of_one_shape_get_their_own_transposes() {
        // loss = sum(((x W1) W2) W1), with W1 registered twice and W2 of
        // W1's shape: the pass forms one transpose of each matrix.
        let mut rng = Rng::seed_from_u64(157);
        let x = Matrix::random_normal(2, 3, 0.0, 1.0, &mut rng);
        let w1 = Matrix::random_normal(3, 3, 0.0, 1.0, &mut rng);
        let w2 = Matrix::random_normal(3, 3, 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let (p1, p2, p1_again) = (tape.param(&w1), tape.param(&w2), tape.param(&w1));
        let h1 = tape.matmul(xv, p1);
        let h2 = tape.matmul(h1, p2);
        let h3 = tape.matmul(h2, p1_again);
        let loss = tape.sum_all(h3);
        let grads = tape.backward(loss);
        // The same products, each transpose formed on its own.
        let (h1v, h2v) = (x.matmul(&w1), x.matmul(&w1).matmul(&w2));
        let g3 = Matrix::ones(2, 3);
        let g2 = g3.matmul(&w1.transpose());
        let g1 = g2.matmul(&w2.transpose());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let got = |v: Var| bits(grads.try_get(v).expect("a param feeds the loss"));
        assert_eq!(got(p1_again), bits(&h2v.transpose().matmul(&g3)));
        assert_eq!(got(p2), bits(&h1v.transpose().matmul(&g2)));
        assert_eq!(got(p1), bits(&x.transpose().matmul(&g1)));
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let p = tape.param(Matrix::ones(2, 2));
        tape.backward(p);
    }
}
