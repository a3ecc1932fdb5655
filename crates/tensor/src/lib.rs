//! # fexiot-tensor
//!
//! Numeric substrate for the FexIoT reproduction: a dense [`Matrix`] type, a
//! reverse-mode autodiff [`Tape`] and, beside it, a recording-free
//! [`Evaluator`] that runs the same [`Forward`] ops for inference in reused
//! buffers, first-order optimizers, a
//! deterministic [`Rng`], small linear-algebra solvers, and descriptive
//! statistics.
//!
//! Everything downstream — the GNN encoders, the classic-ML baselines, the
//! kernel-SHAP explainer, and the federated aggregation — is built on this
//! crate, so the gradient rules are each pinned by finite-difference tests and
//! the distributions by moment tests.

pub mod autograd;
pub mod codec;
pub mod eval;
pub mod linalg;
pub mod matrix;
pub mod optim;
pub mod rng;
pub mod stats;

pub use autograd::{Forward, Grads, Record, Tape, TapeBuffers, Var};
pub use codec::{fnv1a, ByteReader, ByteWriter, CodecError};
pub use eval::{Eval, Evaluator};
pub use matrix::Matrix;
pub use optim::{Adam, ParamVec, Sgd};
pub use rng::Rng;
