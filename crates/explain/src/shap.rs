//! Kernel SHAP (Lundberg & Lee, 2017) over graph coalitions (paper Eqs. 5-6).
//!
//! Players are a candidate subgraph (one coalition player) plus every node
//! outside it (singleton players). SHAP values are estimated by the weighted
//! least-squares form of Eq. (6) with the Shapley kernel weights, subject to
//! the efficiency constraint `Σ φ = f(full) - f(empty)` — the same trick the
//! reference kernel SHAP implementation uses.

use crate::coalition::{CoalitionScorer, NodeSet};
use crate::model::GraphScorer;
use fexiot_graph::InteractionGraph;
use fexiot_tensor::linalg::WlsWorkspace;
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

/// The buffers of the Shapley rewards over one graph. One explanation
/// reuses them for every reward, so a reward allocates only when the
/// coalition cache misses.
pub(crate) struct ShapBuffers {
    /// Nodes of the graph.
    n: usize,
    /// The node sets of the current game's players (see
    /// [`ShapBuffers::set_players`]); the rest are left from larger games.
    players: Vec<NodeSet>,
    /// The full and the empty coalition.
    full: NodeSet,
    empty: NodeSet,
    /// A sampled coalition (the union of its players' sets), and the same
    /// coalition with the subgraph added.
    coalition: NodeSet,
    with: NodeSet,
    /// Kernel SHAP's size weights, one sample of players, the `K × m`
    /// design, its targets, and the solver's buffers.
    size_weights: Vec<f64>,
    picks: Vec<usize>,
    design: Vec<f64>,
    target: Vec<f64>,
    wls: WlsWorkspace,
}

impl ShapBuffers {
    /// Buffers for games over an `n`-node graph.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            n,
            players: Vec::new(),
            full: NodeSet::full(n),
            empty: NodeSet::empty(n),
            coalition: NodeSet::empty(n),
            with: NodeSet::empty(n),
            size_weights: Vec::new(),
            picks: Vec::new(),
            design: Vec::new(),
            target: Vec::new(),
            wls: WlsWorkspace::default(),
        }
    }

    /// Sets up the game of `subgraph` and returns its player count `m`:
    /// `players[0]` is the subgraph, then one singleton per node outside
    /// it, in node order.
    fn set_players(&mut self, subgraph: &NodeSet) -> usize {
        let n = self.n;
        let m = 1 + n - subgraph.len();
        if self.players.len() < m {
            self.players.resize_with(m, || NodeSet::empty(n));
        }
        self.players[0].copy_from(subgraph);
        let outside = (0..n).filter(|&i| !subgraph.contains(i));
        for (player, i) in self.players[1..m].iter_mut().zip(outside) {
            player.clear();
            player.insert(i);
        }
        m
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
    let n = graph.node_count();
    kernel_shap(
        &mut CoalitionScorer::new(scorer, graph),
        &mut ShapBuffers::new(n),
        &NodeSet::of(n, subgraph_nodes),
        config,
        rng,
    )
}

/// [`shap_value`] with coalition scores shared through `coalitions` and
/// buffers through `buf`.
pub(crate) fn kernel_shap(
    coalitions: &mut CoalitionScorer,
    buf: &mut ShapBuffers,
    subgraph: &NodeSet,
    config: &ShapConfig,
    rng: &mut Rng,
) -> f64 {
    let m = buf.set_players(subgraph);

    let f_full = coalitions.score(&buf.full);
    let f_empty = coalitions.score(&buf.empty);
    let total = f_full - f_empty;
    if m == 1 {
        return total;
    }

    // Sample coalitions with sizes weighted by the Shapley kernel; the empty
    // and full coalitions are excluded (infinite weight — handled by the
    // efficiency constraint instead).
    buf.size_weights.clear();
    buf.size_weights
        .extend((1..m).map(|s| (m as f64 - 1.0) / (binomial(m, s) * s as f64 * (m - s) as f64)));

    let k = config.samples.max(m); // enough rows for the regression
    buf.design.clear();
    buf.design.resize(k * m, 0.0);
    buf.target.clear();
    for row in buf.design.chunks_exact_mut(m) {
        let size = 1 + rng.weighted_index(&buf.size_weights);
        rng.sample_indices_into(m, size, &mut buf.picks);
        buf.coalition.clear();
        for &c in &buf.picks {
            buf.coalition.union_with(&buf.players[c]);
            row[c] = 1.0;
        }
        buf.target.push(coalitions.score(&buf.coalition) - f_empty);
    }

    // Every row weighs 1.
    match buf
        .wls
        .sum_constrained_wls(&buf.design, m, &buf.target, None, total)
    {
        Ok(phi) => phi[0],
        // Rank-deficient sampling (tiny games): fall back to the marginal
        // contribution of the subgraph against the empty coalition.
        Err(_) => coalitions.score(&buf.players[0]) - f_empty,
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
    let n = graph.node_count();
    mc_shapley(
        &mut CoalitionScorer::new(scorer, graph),
        &mut ShapBuffers::new(n),
        &NodeSet::of(n, subgraph_nodes),
        samples,
        rng,
    )
}

/// [`monte_carlo_shapley`] with coalition scores shared through
/// `coalitions` and buffers through `buf`.
pub(crate) fn mc_shapley(
    coalitions: &mut CoalitionScorer,
    buf: &mut ShapBuffers,
    subgraph: &NodeSet,
    samples: usize,
    rng: &mut Rng,
) -> f64 {
    let m = buf.set_players(subgraph);
    if m == 1 {
        let full = coalitions.score(&buf.full);
        let empty = coalitions.score(&buf.empty);
        return full - empty;
    }
    let acc: f64 = (0..samples.max(1))
        .map(|_| {
            buf.coalition.clear();
            for player in &buf.players[1..m] {
                if rng.bool(0.5) {
                    buf.coalition.union_with(player);
                }
            }
            buf.with.copy_from(&buf.coalition);
            buf.with.union_with(&buf.players[0]);
            coalitions.score(&buf.with) - coalitions.score(&buf.coalition)
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
