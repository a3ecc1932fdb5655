//! Graph isomorphism network (Xu et al., 2019), GIN-0 variant: sum-style
//! aggregation `(A + I) H` followed by a two-layer MLP per GNN layer —
//! provably as powerful as the WL test, and the stronger of the paper's two
//! homogeneous encoders (Fig. 4).

use fexiot_graph::InteractionGraph;
use fexiot_tensor::autograd::{Forward, Var};
use fexiot_tensor::matrix::Matrix;
use fexiot_tensor::optim::ParamVec;
use fexiot_tensor::rng::Rng;

/// A GIN encoder. Per layer: `[W1, b1, W2, b2]` (the update MLP); then the
/// readout projection `W_out`.
#[derive(Clone)]
pub struct Gin {
    pub input_dim: usize,
    pub hidden: Vec<usize>,
    pub output_dim: usize,
    pub params: ParamVec,
}

impl Gin {
    pub fn new(input_dim: usize, hidden: &[usize], output_dim: usize, rng: &mut Rng) -> Self {
        assert!(!hidden.is_empty(), "gin: need at least one hidden layer");
        let mut params = Vec::new();
        let mut prev = input_dim;
        for &h in hidden {
            params.push(Matrix::glorot(prev, h, rng));
            params.push(Matrix::zeros(1, h));
            params.push(Matrix::glorot(h, h, rng));
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
            shapes.extend([(prev, h), (1, h), (h, h), (1, h)]);
            prev = h;
        }
        shapes.push((prev, self.output_dim));
        shapes
    }

    pub fn layer_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![4; self.hidden.len()];
        sizes.push(1);
        sizes
    }

    pub fn forward_with<F: Forward>(
        &self,
        f: &mut F,
        vars: &[Var],
        graph: &InteractionGraph,
    ) -> Var {
        assert_eq!(vars.len(), self.params.len(), "gin: var count mismatch");
        // GIN-0: eps fixed at 0, aggregation is A + I. Normalize by degree+1
        // to keep activations bounded on large graphs (mean-GIN variant).
        let s = 1.0 / (graph.node_count() as f64).sqrt().max(1.0);
        let agg = f.constant_with(|a| {
            graph.gin_adjacency_into(0.0, a);
            a.as_mut_slice().iter_mut().for_each(|v| *v *= s);
        });
        let mut h = f.constant_with(|x| graph.feature_matrix_into(x));
        for l in 0..self.hidden.len() {
            let base = 4 * l;
            let prop = f.matmul(agg, h);
            let z1 = f.matmul(prop, vars[base]);
            let z1 = f.add_row_broadcast(z1, vars[base + 1]);
            let a1 = f.relu(z1);
            let z2 = f.matmul(a1, vars[base + 2]);
            let z2 = f.add_row_broadcast(z2, vars[base + 3]);
            h = f.relu(z2);
        }
        let pooled = f.mean_rows(h);
        f.matmul(pooled, *vars.last().expect("gin has params"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use fexiot_graph::{CorpusConfig, CorpusGenerator, CorpusIndex, FeatureConfig, GraphBuilder};

    fn graphs(seed: u64, n: usize) -> Vec<InteractionGraph> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut gen = CorpusGenerator::new();
        let rules = gen.generate(&CorpusConfig::ifttt_only(60), &mut rng);
        let index = CorpusIndex::build(rules);
        let b = GraphBuilder::new(FeatureConfig::small());
        (0..n)
            .map(|_| b.sample_graph(&index, 5, &mut rng))
            .collect()
    }

    #[test]
    fn embedding_is_finite_and_sized() {
        let gs = graphs(1, 3);
        let d = gs[0].nodes[0].features.len();
        let mut rng = Rng::seed_from_u64(2);
        let enc = Encoder::Gin(Gin::new(d, &[16, 16], 8, &mut rng));
        for g in &gs {
            let z = enc.embed(g);
            assert_eq!(z.len(), 8);
            assert!(z.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn structure_sensitivity() {
        // GIN should distinguish a chain from the same nodes with no edges.
        let gs = graphs(3, 1);
        let mut g = gs[0].clone();
        let d = g.nodes[0].features.len();
        let mut rng = Rng::seed_from_u64(4);
        let enc = Encoder::Gin(Gin::new(d, &[12], 6, &mut rng));
        let z_connected = enc.embed(&g);
        g.edges.clear();
        let z_disconnected = enc.embed(&g);
        let diff: f64 = z_connected
            .iter()
            .zip(&z_disconnected)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-9, "GIN ignored structure");
    }

    #[test]
    fn param_count_matches_layout() {
        let mut rng = Rng::seed_from_u64(5);
        let gin = Gin::new(10, &[8, 8], 4, &mut rng);
        assert_eq!(gin.params.len(), 4 * 2 + 1);
        assert_eq!(gin.layer_sizes(), vec![4, 4, 1]);
    }
}
