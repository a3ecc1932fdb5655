//! Kernel SHAP (Lundberg & Lee, 2017) over graph coalitions (paper Eqs. 5-6).
//!
//! Players are a candidate subgraph (one coalition player) plus every node
//! outside it (singleton players). SHAP values are estimated by the weighted
//! least-squares form of Eq. (6) with the Shapley kernel weights, subject to
//! the efficiency constraint `Σ φ = f(full) - f(empty)` — the same trick the
//! reference kernel SHAP implementation uses.

use crate::coalition::CoalitionScorer;
use crate::model::GraphScorer;
use fexiot_graph::InteractionGraph;
use fexiot_tensor::linalg::sum_constrained_wls;
use fexiot_tensor::matrix::Matrix;
use fexiot_tensor::rng::Rng;

/// Kernel-SHAP sampling configuration.
#[derive(Debug, Clone, Copy)]
pub struct ShapConfig {
    /// Number of sampled coalitions `K` (Alg. 2's "kernel SHAP samples").
    pub samples: usize,
}

impl Default for ShapConfig {
    fn default() -> Self {
        Self { samples: 64 }
    }
}

/// The players of the cooperative game for one candidate subgraph.
struct Players {
    /// `groups[p]` = node indices owned by player `p`; player 0 is the subgraph.
    groups: Vec<Vec<usize>>,
}

impl Players {
    fn new(graph: &InteractionGraph, subgraph_nodes: &[usize]) -> Self {
        let mut groups = vec![subgraph_nodes.to_vec()];
        for i in 0..graph.node_count() {
            if !subgraph_nodes.contains(&i) {
                groups.push(vec![i]);
            }
        }
        Self { groups }
    }

    fn count(&self) -> usize {
        self.groups.len()
    }

    /// Node-presence mask for a player coalition.
    fn mask(&self, coalition: &[bool], n_nodes: usize) -> Vec<bool> {
        let mut present = vec![false; n_nodes];
        for (p, &inc) in coalition.iter().enumerate() {
            if inc {
                for &node in &self.groups[p] {
                    present[node] = true;
                }
            }
        }
        present
    }
}

/// SHAP value of `subgraph_nodes` (player 0) under the scorer, estimated
/// from `config.samples` sampled coalitions.
///
/// Degenerate cases: a single player receives the full efficiency gap.
pub fn shap_value(
    scorer: &GraphScorer,
    graph: &InteractionGraph,
    subgraph_nodes: &[usize],
    config: &ShapConfig,
    rng: &mut Rng,
) -> f64 {
    kernel_shap(
        &mut CoalitionScorer::new(scorer, graph),
        subgraph_nodes,
        config,
        rng,
    )
}

/// [`shap_value`] with coalition scores shared through `coalitions`.
pub(crate) fn kernel_shap(
    coalitions: &mut CoalitionScorer,
    subgraph_nodes: &[usize],
    config: &ShapConfig,
    rng: &mut Rng,
) -> f64 {
    let graph = coalitions.graph();
    let players = Players::new(graph, subgraph_nodes);
    let m = players.count();
    let n_nodes = graph.node_count();

    let f_full = coalitions.score(&vec![true; n_nodes]);
    let f_empty = coalitions.score(&vec![false; n_nodes]);
    let total = f_full - f_empty;
    if m == 1 {
        return total;
    }

    // Sample coalitions with sizes weighted by the Shapley kernel; the empty
    // and full coalitions are excluded (infinite weight — handled by the
    // efficiency constraint instead).
    let size_weights: Vec<f64> = (1..m)
        .map(|s| (m as f64 - 1.0) / (binomial(m, s) * s as f64 * (m - s) as f64))
        .collect();

    let k = config.samples.max(m); // enough rows for the regression
    let mut design = Matrix::zeros(k, m);
    let mut target = Matrix::zeros(k, 1);
    for row in 0..k {
        let size = 1 + rng.weighted_index(&size_weights);
        let mut coalition = vec![false; m];
        for c in rng.sample_indices(m, size) {
            coalition[c] = true;
            design[(row, c)] = 1.0;
        }
        target[(row, 0)] = coalitions.score(&players.mask(&coalition, n_nodes)) - f_empty;
    }

    match sum_constrained_wls(&design, &target, &vec![1.0; k], total) {
        Ok(phi) => phi[(0, 0)],
        // Rank-deficient sampling (tiny games): fall back to the marginal
        // contribution of the subgraph against the empty coalition.
        Err(_) => {
            let mut coalition = vec![false; m];
            coalition[0] = true;
            coalitions.score(&players.mask(&coalition, n_nodes)) - f_empty
        }
    }
}

/// Monte-Carlo Shapley value of the subgraph with *independent* players —
/// the SubgraphX convention the paper contrasts against (no dependence
/// modeling, plain permutation sampling).
pub fn monte_carlo_shapley(
    scorer: &GraphScorer,
    graph: &InteractionGraph,
    subgraph_nodes: &[usize],
    samples: usize,
    rng: &mut Rng,
) -> f64 {
    mc_shapley(
        &mut CoalitionScorer::new(scorer, graph),
        subgraph_nodes,
        samples,
        rng,
    )
}

/// [`monte_carlo_shapley`] with coalition scores shared through
/// `coalitions`.
pub(crate) fn mc_shapley(
    coalitions: &mut CoalitionScorer,
    subgraph_nodes: &[usize],
    samples: usize,
    rng: &mut Rng,
) -> f64 {
    let graph = coalitions.graph();
    let players = Players::new(graph, subgraph_nodes);
    let m = players.count();
    let n_nodes = graph.node_count();
    if m == 1 {
        let full = coalitions.score(&vec![true; n_nodes]);
        let empty = coalitions.score(&vec![false; n_nodes]);
        return full - empty;
    }
    let acc: f64 = (0..samples.max(1))
        .map(|_| {
            let mut coalition = vec![false; m];
            for flag in coalition.iter_mut().skip(1) {
                *flag = rng.bool(0.5);
            }
            let without = players.mask(&coalition, n_nodes);
            coalition[0] = true;
            let with = players.mask(&coalition, n_nodes);
            coalitions.score(&with) - coalitions.score(&without)
        })
        .sum();
    acc / samples.max(1) as f64
}

fn binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n - k);
    let mut out = 1.0;
    for i in 0..k {
        out *= (n - i) as f64 / (i + 1) as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::trained_scorer;

    #[test]
    fn binomial_known_values() {
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(6, 3), 20.0);
        assert_eq!(binomial(4, 0), 1.0);
    }

    #[test]
    fn efficiency_for_single_player() {
        let (scorer, ds) = trained_scorer(11);
        let g = ds.graphs.iter().find(|g| g.node_count() >= 2).unwrap();
        let all: Vec<usize> = (0..g.node_count()).collect();
        let mut rng = Rng::seed_from_u64(1);
        let phi = shap_value(&scorer, g, &all, &ShapConfig::default(), &mut rng);
        let full = scorer.score_with_nodes(g, &vec![true; g.node_count()]);
        let empty = scorer.score_with_nodes(g, &vec![false; g.node_count()]);
        assert!((phi - (full - empty)).abs() < 1e-9);
    }

    #[test]
    fn shap_value_is_finite_and_bounded() {
        let (scorer, ds) = trained_scorer(12);
        let g = ds.graphs.iter().find(|g| g.node_count() >= 4).unwrap();
        let mut rng = Rng::seed_from_u64(2);
        let phi = shap_value(&scorer, g, &[0, 1], &ShapConfig { samples: 48 }, &mut rng);
        assert!(phi.is_finite());
        assert!(phi.abs() <= 1.0 + 1e-9, "phi {phi}");
    }

    #[test]
    fn monte_carlo_shapley_close_to_kernel_on_small_graph() {
        let (scorer, ds) = trained_scorer(13);
        let g = ds
            .graphs
            .iter()
            .find(|g| (3..=5).contains(&g.node_count()))
            .unwrap();
        let mut rng = Rng::seed_from_u64(3);
        let kernel = shap_value(&scorer, g, &[0], &ShapConfig { samples: 256 }, &mut rng);
        let mc = monte_carlo_shapley(&scorer, g, &[0], 512, &mut rng);
        assert!((kernel - mc).abs() < 0.25, "kernel {kernel} vs mc {mc}");
    }
}
