//! Graph convolutional network (Kipf & Welling, 2017). The paper adopts
//! three graph convolutional layers; propagation uses the symmetrically
//! normalized adjacency with self-loops, followed by mean readout and a
//! linear projection to the embedding space.

use fexiot_graph::InteractionGraph;
use fexiot_tensor::autograd::{Forward, Var};
use fexiot_tensor::matrix::Matrix;
use fexiot_tensor::optim::ParamVec;
use fexiot_tensor::rng::Rng;

/// A GCN encoder. Parameter layout: `[W_0, b_0, W_1, b_1, ..., W_out]`.
#[derive(Clone)]
pub struct Gcn {
    pub input_dim: usize,
    pub hidden: Vec<usize>,
    pub output_dim: usize,
    pub params: ParamVec,
}

impl Gcn {
    /// Creates a GCN with the given hidden layer widths (the paper uses 3
    /// convolutional layers, i.e. `hidden.len() == 2` plus the readout
    /// projection, or pass 3 widths for conv-only depth 3).
    pub fn new(input_dim: usize, hidden: &[usize], output_dim: usize, rng: &mut Rng) -> Self {
        assert!(!hidden.is_empty(), "gcn: need at least one hidden layer");
        let mut params = Vec::new();
        let mut prev = input_dim;
        for &h in hidden {
            params.push(Matrix::glorot(prev, h, rng));
            params.push(Matrix::zeros(1, h));
            prev = h;
        }
        params.push(Matrix::glorot(prev, output_dim, rng));
        Self {
            input_dim,
            hidden: hidden.to_vec(),
            output_dim,
            params,
        }
    }

    pub fn embed_dim(&self) -> usize {
        self.output_dim
    }

    /// Parameter shapes the architecture declares, in `params` order.
    pub(crate) fn param_shapes(&self) -> Vec<(usize, usize)> {
        let mut shapes = Vec::new();
        let mut prev = self.input_dim;
        for &h in &self.hidden {
            shapes.extend([(prev, h), (1, h)]);
            prev = h;
        }
        shapes.push((prev, self.output_dim));
        shapes
    }

    /// Each conv layer contributes `[W, b]`; the readout projection is the
    /// final single-matrix "layer".
    pub fn layer_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![2; self.hidden.len()];
        sizes.push(1);
        sizes
    }

    pub fn forward_with<F: Forward>(
        &self,
        f: &mut F,
        vars: &[Var],
        graph: &InteractionGraph,
    ) -> Var {
        assert_eq!(vars.len(), self.params.len(), "gcn: var count mismatch");
        let a = f.constant_with(|a| graph.normalized_adjacency_into(a));
        let mut h = f.constant_with(|x| graph.feature_matrix_into(x));
        for l in 0..self.hidden.len() {
            let w = vars[2 * l];
            let b = vars[2 * l + 1];
            let prop = f.matmul(a, h);
            let z = f.matmul(prop, w);
            let z = f.add_row_broadcast(z, b);
            h = f.relu(z);
        }
        let pooled = f.mean_rows(h);
        f.matmul(pooled, *vars.last().expect("gcn has params"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use fexiot_graph::{CorpusConfig, CorpusGenerator, CorpusIndex, FeatureConfig, GraphBuilder};
    use fexiot_tensor::autograd::Tape;

    fn graph(seed: u64) -> InteractionGraph {
        let mut rng = Rng::seed_from_u64(seed);
        let mut gen = CorpusGenerator::new();
        let rules = gen.generate(&CorpusConfig::ifttt_only(60), &mut rng);
        let index = CorpusIndex::build(rules);
        GraphBuilder::new(FeatureConfig::small()).sample_graph(&index, 5, &mut rng)
    }

    #[test]
    fn embedding_shape_and_finite() {
        let g = graph(1);
        let d = g.nodes[0].features.len();
        let mut rng = Rng::seed_from_u64(2);
        let enc = Encoder::Gcn(Gcn::new(d, &[16, 16], 8, &mut rng));
        let z = enc.embed(&g);
        assert_eq!(z.len(), 8);
        assert!(z.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn permutation_of_isolated_structure_changes_embedding() {
        // Different graphs should (generically) embed differently.
        let g1 = graph(3);
        let g2 = graph(4);
        let d = g1.nodes[0].features.len();
        let mut rng = Rng::seed_from_u64(5);
        let enc = Encoder::Gcn(Gcn::new(d, &[16], 8, &mut rng));
        let z1 = enc.embed(&g1);
        let z2 = enc.embed(&g2);
        assert_ne!(z1, z2);
    }

    #[test]
    fn gradients_flow_to_all_layers() {
        let g = graph(6);
        let d = g.nodes[0].features.len();
        let mut rng = Rng::seed_from_u64(7);
        let gcn = Gcn::new(d, &[8, 8], 4, &mut rng);
        let mut tape = Tape::new();
        let vars: Vec<Var> = gcn.params.iter().map(|p| tape.param(p.clone())).collect();
        let z = gcn.forward_with(&mut tape, &vars, &g);
        let sq = tape.hadamard(z, z);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        for (i, (&v, p)) in vars.iter().zip(&gcn.params).enumerate() {
            let gnorm = grads.get(v, p).frobenius_norm();
            assert!(gnorm > 0.0, "layer {i} got zero gradient");
        }
    }
}
