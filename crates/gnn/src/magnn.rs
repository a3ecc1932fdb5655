//! Simplified MAGNN (Fu et al., WWW 2020): metapath-aggregated heterogeneous
//! graph encoder — the model the paper uses on the five-platform dataset.
//!
//! Nodes carry *per-platform* feature spaces (word vs. sentence embeddings of
//! different dims); MAGNN first projects each node type into a common hidden
//! space, then aggregates along two metapath families (same-platform edges
//! and cross-platform edges), and finally mixes the metapath summaries with
//! learned semantic attention. Relative to the full MAGNN we use simple mean
//! intra-metapath aggregation instead of the relational rotation encoder —
//! the part of the architecture that matters here is the type projection +
//! inter-metapath attention (documented substitution, see DESIGN.md).

use fexiot_graph::{FeatureConfig, InteractionGraph, Platform};
use fexiot_tensor::autograd::{Forward, Var};
use fexiot_tensor::matrix::Matrix;
use fexiot_tensor::optim::ParamVec;
use fexiot_tensor::rng::Rng;

/// Number of metapath families (same-platform, cross-platform).
const METAPATHS: usize = 2;

/// A MAGNN encoder.
#[derive(Clone)]
pub struct Magnn {
    /// Per-platform input dims, in `Platform::ALL` order.
    pub type_dims: Vec<(Platform, usize)>,
    pub hidden: usize,
    pub att_dim: usize,
    pub output_dim: usize,
    /// Layout: `[W_type...; (W_m, b_m) x METAPATHS, W_att, b_att, q; W_out]`.
    pub params: ParamVec,
}

impl Magnn {
    pub fn new(
        type_dims: Vec<(Platform, usize)>,
        hidden: usize,
        att_dim: usize,
        output_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(!type_dims.is_empty(), "magnn: need at least one node type");
        let mut params = Vec::new();
        for &(_, d) in &type_dims {
            params.push(Matrix::glorot(d, hidden, rng));
        }
        for _ in 0..METAPATHS {
            params.push(Matrix::glorot(hidden, hidden, rng));
            params.push(Matrix::zeros(1, hidden));
        }
        params.push(Matrix::glorot(hidden, att_dim, rng));
        params.push(Matrix::zeros(1, att_dim));
        params.push(Matrix::glorot(att_dim, 1, rng));
        params.push(Matrix::glorot(hidden, output_dim, rng));
        Self {
            type_dims,
            hidden,
            att_dim,
            output_dim,
            params,
        }
    }

    /// Registers all five platforms with the dims implied by `config`.
    pub fn for_config(
        config: FeatureConfig,
        hidden: usize,
        att_dim: usize,
        output_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let type_dims = Platform::ALL
            .iter()
            .map(|&p| (p, config.node_dim(p)))
            .collect();
        Self::new(type_dims, hidden, att_dim, output_dim, rng)
    }

    pub fn embed_dim(&self) -> usize {
        self.output_dim
    }

    /// Parameter shapes the architecture declares, in `params` order.
    pub(crate) fn param_shapes(&self) -> Vec<(usize, usize)> {
        let (h, att) = (self.hidden, self.att_dim);
        let mut shapes: Vec<(usize, usize)> = self.type_dims.iter().map(|&(_, d)| (d, h)).collect();
        for _ in 0..METAPATHS {
            shapes.extend([(h, h), (1, h)]);
        }
        shapes.extend([(h, att), (1, att), (att, 1), (h, self.output_dim)]);
        shapes
    }

    pub fn layer_sizes(&self) -> Vec<usize> {
        vec![self.type_dims.len(), METAPATHS * 2 + 3, 1]
    }

    pub fn forward_with<F: Forward>(
        &self,
        f: &mut F,
        vars: &[Var],
        graph: &InteractionGraph,
    ) -> Var {
        assert_eq!(vars.len(), self.params.len(), "magnn: var count mismatch");
        let n = graph.node_count();
        assert!(n > 0, "magnn: empty graph");
        let t_count = self.type_dims.len();

        // ---- Type-specific projection into the shared hidden space: each
        // platform's members are projected together, then placed at their rows.
        let mut parts = Vec::with_capacity(t_count);
        for (ti, &(platform, d)) in self.type_dims.iter().enumerate() {
            let members: Vec<usize> = (0..n)
                .filter(|&i| graph.nodes[i].rule.platform == platform)
                .collect();
            if members.is_empty() {
                continue;
            }
            let x_t = f.constant_with(|x_t| {
                x_t.reset(members.len(), d);
                for (r, &node) in members.iter().enumerate() {
                    let feat = &graph.nodes[node].features;
                    assert_eq!(
                        feat.len(),
                        d,
                        "magnn: node feature dim {} != registered {} for {:?}",
                        feat.len(),
                        d,
                        platform
                    );
                    x_t.row_mut(r).copy_from_slice(feat);
                }
            });
            parts.push((f.matmul(x_t, vars[ti]), members));
        }
        assert!(
            !parts.is_empty(),
            "magnn: no node matched a registered platform; graph platforms {:?}",
            graph.platforms()
        );
        let h = f.place_rows(n, &parts);

        // ---- Metapath aggregation: same-platform and cross-platform edges.
        let w_att = vars[t_count + METAPATHS * 2];
        let b_att = vars[t_count + METAPATHS * 2 + 1];
        let q = vars[t_count + METAPATHS * 2 + 2];
        let branches: [(Var, Var); METAPATHS] = std::array::from_fn(|m| {
            let a = f.constant_with(|a| metapath_adjacency_into(graph, m == SAME_PLATFORM, a));
            let w = vars[t_count + 2 * m];
            let b = vars[t_count + 2 * m + 1];
            let prop = f.matmul(a, h);
            let z = f.matmul(prop, w);
            let z = f.add_row_broadcast(z, b);
            let h_m = f.relu(z);
            // Semantic attention score for this metapath.
            let att_in = f.matmul(h_m, w_att);
            let att_in = f.add_row_broadcast(att_in, b_att);
            let att = f.tanh(att_in);
            let pooled = f.mean_rows(att);
            let raw = f.matmul(pooled, q);
            let score = f.tanh(raw); // bounded before exp
            (h_m, score)
        });
        // Softmax over the (two) metapath scores, composed explicitly.
        let exps = branches.map(|(_, score)| f.exp(score));
        let mut denom = exps[0];
        for &e in &exps[1..] {
            denom = f.add(denom, e);
        }
        let mut mixed: Option<Var> = None;
        for ((h_m, _), e) in branches.into_iter().zip(exps) {
            let alpha = f.div(e, denom);
            let scaled = f.mul_scalar_var(h_m, alpha);
            mixed = Some(match mixed {
                Some(acc) => f.add(acc, scaled),
                None => scaled,
            });
        }
        let mixed = mixed.expect("at least one metapath");

        let pooled = f.mean_rows(mixed);
        f.matmul(pooled, *vars.last().expect("magnn has params"))
    }
}

/// Index of the same-platform metapath; the other joins platforms.
const SAME_PLATFORM: usize = 0;

/// Writes into `out` the row-normalized adjacency (with self-loops)
/// restricted to same-platform edges if `same`, else to cross-platform
/// edges.
fn metapath_adjacency_into(graph: &InteractionGraph, same: bool, out: &mut Matrix) {
    let n = graph.node_count();
    out.reset(n, n);
    for i in 0..n {
        out[(i, i)] = 1.0;
    }
    for &(u, v) in &graph.edges {
        let same_platform = graph.nodes[u].rule.platform == graph.nodes[v].rule.platform;
        if u != v && same_platform == same {
            out[(u, v)] = 1.0;
            out[(v, u)] = 1.0;
        }
    }
    for r in 0..n {
        let sum: f64 = out.row(r).iter().sum();
        if sum > 0.0 {
            for v in out.row_mut(r) {
                *v /= sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::Encoder;
    use fexiot_graph::{CorpusConfig, CorpusGenerator, CorpusIndex, FeatureConfig, GraphBuilder};
    use fexiot_tensor::autograd::Tape;

    fn hetero_graph(seed: u64) -> InteractionGraph {
        let mut rng = Rng::seed_from_u64(seed);
        let mut gen = CorpusGenerator::new();
        let rules = gen.generate(&CorpusConfig::small(), &mut rng);
        let index = CorpusIndex::build(rules);
        GraphBuilder::new(FeatureConfig::small()).sample_graph(&index, 8, &mut rng)
    }

    #[test]
    fn handles_heterogeneous_feature_dims() {
        let g = hetero_graph(1);
        let mut rng = Rng::seed_from_u64(2);
        let enc = Encoder::Magnn(Magnn::for_config(
            FeatureConfig::small(),
            16,
            8,
            8,
            &mut rng,
        ));
        let z = enc.embed(&g);
        assert_eq!(z.len(), 8);
        assert!(z.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn layer_sizes_match_params() {
        let mut rng = Rng::seed_from_u64(3);
        let m = Magnn::for_config(FeatureConfig::small(), 16, 8, 8, &mut rng);
        assert_eq!(m.layer_sizes().iter().sum::<usize>(), m.params.len());
        assert_eq!(m.layer_sizes(), vec![5, 7, 1]);
    }

    #[test]
    fn gradients_reach_type_projections_present_in_graph() {
        let g = hetero_graph(4);
        let mut rng = Rng::seed_from_u64(5);
        let magnn = Magnn::for_config(FeatureConfig::small(), 12, 6, 4, &mut rng);
        let mut tape = Tape::new();
        let vars: Vec<Var> = magnn.params.iter().map(|p| tape.param(p.clone())).collect();
        let z = magnn.forward_with(&mut tape, &vars, &g);
        let sq = tape.hadamard(z, z);
        let loss = tape.sum_all(sq);
        let grads = tape.backward(loss);
        let platforms = g.platforms();
        for (ti, &(p, _)) in magnn.type_dims.iter().enumerate() {
            let gnorm = grads.get(vars[ti], &magnn.params[ti]).frobenius_norm();
            if platforms.contains(&p) {
                assert!(gnorm > 0.0, "projection for {p:?} got zero gradient");
            } else {
                assert_eq!(gnorm, 0.0, "absent platform {p:?} should get zero gradient");
            }
        }
    }

    #[test]
    fn attention_weights_mix_metapaths() {
        // Both metapath branches must influence the output: perturbing the
        // cross-metapath weight changes the embedding of a cross-platform graph.
        let g = hetero_graph(6);
        let mut rng = Rng::seed_from_u64(7);
        let mut magnn = Magnn::for_config(FeatureConfig::small(), 12, 6, 4, &mut rng);
        let before = Encoder::Magnn(magnn.clone()).embed(&g);
        let t = magnn.type_dims.len();
        // Perturb W for metapath 1 (cross).
        let w = &mut magnn.params[t + 2];
        let perturbed = w.map(|v| v + 0.5);
        *w = perturbed;
        let after = Encoder::Magnn(magnn).embed(&g);
        let diff: f64 = before.iter().zip(&after).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-9, "cross metapath had no influence");
    }
}
