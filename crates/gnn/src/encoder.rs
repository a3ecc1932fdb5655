//! The graph-encoder abstraction shared by GCN, GIN, and MAGNN.
//!
//! Encoders expose their weights as an ordered, *layered* parameter list so
//! the federated layer (Alg. 1) can cluster and aggregate per GNN layer,
//! bottom-up, and so the communication accountant can price per-layer
//! uploads.
//!
//! Each encoder has one forward body, generic over [`Forward`]: training
//! runs it on a [`Tape`], which records for the backward pass, and
//! [`Encoder::embed`] runs it on this thread's [`Evaluator`], which records
//! nothing and rewrites the same buffers on every call.

use crate::{gcn::Gcn, gin::Gin, magnn::Magnn};
use fexiot_graph::InteractionGraph;
use fexiot_tensor::autograd::{Forward, Tape, Var};
use fexiot_tensor::eval::Evaluator;
use fexiot_tensor::optim::ParamVec;
use std::cell::RefCell;

thread_local! {
    /// This thread's inference buffers, sized by the largest graph it
    /// embedded.
    static EVALUATOR: RefCell<Evaluator> = const { RefCell::new(Evaluator::new()) };
}

/// Which GNN architecture to instantiate.
#[derive(Debug, Clone, PartialEq)]
pub enum EncoderKind {
    /// 3-layer graph convolutional network (Kipf & Welling).
    Gcn,
    /// Graph isomorphism network, GIN-0 variant (Xu et al.).
    Gin,
    /// Metapath-aggregated heterogeneous GNN (simplified MAGNN, Fu et al.).
    Magnn,
}

/// A graph encoder: interaction graph -> fixed-size embedding.
#[derive(Clone)]
pub enum Encoder {
    Gcn(Gcn),
    Gin(Gin),
    Magnn(Magnn),
}

impl Encoder {
    /// Output embedding dimensionality.
    pub fn embed_dim(&self) -> usize {
        match self {
            Encoder::Gcn(e) => e.embed_dim(),
            Encoder::Gin(e) => e.embed_dim(),
            Encoder::Magnn(e) => e.embed_dim(),
        }
    }

    /// Ordered parameter list (layered bottom-up).
    pub fn params(&self) -> &ParamVec {
        match self {
            Encoder::Gcn(e) => &e.params,
            Encoder::Gin(e) => &e.params,
            Encoder::Magnn(e) => &e.params,
        }
    }

    pub fn params_mut(&mut self) -> &mut ParamVec {
        match self {
            Encoder::Gcn(e) => &mut e.params,
            Encoder::Gin(e) => &mut e.params,
            Encoder::Magnn(e) => &mut e.params,
        }
    }

    /// Parameter shapes the architecture declares, in `params` order.
    pub(crate) fn param_shapes(&self) -> Vec<(usize, usize)> {
        match self {
            Encoder::Gcn(e) => e.param_shapes(),
            Encoder::Gin(e) => e.param_shapes(),
            Encoder::Magnn(e) => e.param_shapes(),
        }
    }

    /// Replaces all parameters (federated download).
    ///
    /// # Panics
    /// Panics if shapes are misaligned.
    pub fn set_params(&mut self, new: ParamVec) {
        let current = self.params_mut();
        assert_eq!(current.len(), new.len(), "set_params: layer count mismatch");
        for (c, n) in current.iter().zip(&new) {
            assert_eq!(c.shape(), n.shape(), "set_params: shape mismatch");
        }
        *current = new;
    }

    /// Number of parameter matrices per GNN layer, bottom-up. The sum equals
    /// `params().len()`. Alg. 1 clusters on these boundaries.
    pub fn layer_sizes(&self) -> Vec<usize> {
        match self {
            Encoder::Gcn(e) => e.layer_sizes(),
            Encoder::Gin(e) => e.layer_sizes(),
            Encoder::Magnn(e) => e.layer_sizes(),
        }
    }

    /// Registers the parameters on a tape (one var per matrix, same order).
    /// The tape borrows them: no weight matrix is copied.
    pub fn register<'p>(&'p self, tape: &mut Tape<'p>) -> Vec<Var> {
        self.params().iter().map(|p| tape.param(p)).collect()
    }

    /// Forward pass with pre-registered parameter vars; returns the `(1, d)`
    /// graph embedding node.
    pub fn forward_with<F: Forward>(
        &self,
        f: &mut F,
        vars: &[Var],
        graph: &InteractionGraph,
    ) -> Var {
        match self {
            Encoder::Gcn(e) => e.forward_with(f, vars, graph),
            Encoder::Gin(e) => e.forward_with(f, vars, graph),
            Encoder::Magnn(e) => e.forward_with(f, vars, graph),
        }
    }

    /// Inference-only embedding of one graph: the forward runs on this
    /// thread's evaluator, so nothing is recorded, and it gives the bits
    /// a tape forward gives.
    pub fn embed(&self, graph: &InteractionGraph) -> Vec<f64> {
        EVALUATOR.with(|evaluator| {
            let mut evaluator = evaluator.borrow_mut();
            let (mut f, vars) = evaluator.start(self.params());
            let z = self.forward_with(&mut f, vars, graph);
            f.value(z).row(0).to_vec()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fexiot_graph::{CorpusConfig, CorpusGenerator, CorpusIndex, FeatureConfig, GraphBuilder};
    use fexiot_tensor::rng::Rng;

    pub(crate) fn sample_graphs(n: usize, seed: u64) -> Vec<InteractionGraph> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut gen = CorpusGenerator::new();
        let rules = gen.generate(&CorpusConfig::ifttt_only(80), &mut rng);
        let index = CorpusIndex::build(rules);
        let builder = GraphBuilder::new(FeatureConfig::small());
        (0..n)
            .map(|_| builder.sample_graph(&index, 6, &mut rng))
            .collect()
    }

    #[test]
    fn layer_sizes_sum_to_param_count() {
        let mut rng = Rng::seed_from_u64(1);
        let cfg = FeatureConfig::small();
        for enc in [
            Encoder::Gcn(Gcn::new(
                cfg.node_dim(fexiot_graph::Platform::Ifttt),
                &[16, 16],
                8,
                &mut rng,
            )),
            Encoder::Gin(Gin::new(
                cfg.node_dim(fexiot_graph::Platform::Ifttt),
                &[16, 16],
                8,
                &mut rng,
            )),
        ] {
            assert_eq!(enc.layer_sizes().iter().sum::<usize>(), enc.params().len());
        }
    }

    #[test]
    fn params_have_the_declared_shapes() {
        let mut rng = Rng::seed_from_u64(5);
        let cfg = FeatureConfig::small();
        let d = cfg.node_dim(fexiot_graph::Platform::Ifttt);
        for enc in [
            Encoder::Gcn(Gcn::new(d, &[16, 8], 6, &mut rng)),
            Encoder::Gin(Gin::new(d, &[16, 8], 6, &mut rng)),
            Encoder::Magnn(crate::Magnn::for_config(cfg, 12, 6, 4, &mut rng)),
        ] {
            let shapes: Vec<(usize, usize)> = enc.params().iter().map(|m| m.shape()).collect();
            assert_eq!(shapes, enc.param_shapes());
        }
    }

    #[test]
    fn embeddings_have_declared_dim_and_are_deterministic() {
        let graphs = sample_graphs(3, 2);
        let mut rng = Rng::seed_from_u64(3);
        let d = graphs[0].nodes[0].features.len();
        let enc = Encoder::Gcn(Gcn::new(d, &[16, 16], 8, &mut rng));
        for g in &graphs {
            let a = enc.embed(g);
            let b = enc.embed(g);
            assert_eq!(a.len(), 8);
            assert_eq!(a, b);
            assert!(a.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn set_params_roundtrip() {
        let mut rng = Rng::seed_from_u64(4);
        let mut enc = Encoder::Gin(Gin::new(12, &[8], 4, &mut rng));
        let snapshot = enc.params().clone();
        let zeros: ParamVec = snapshot
            .iter()
            .map(|m| fexiot_tensor::Matrix::zeros(m.rows(), m.cols()))
            .collect();
        enc.set_params(zeros);
        assert!(enc.params().iter().all(|m| m.sum() == 0.0));
        enc.set_params(snapshot.clone());
        assert_eq!(enc.params(), &snapshot);
    }
}
