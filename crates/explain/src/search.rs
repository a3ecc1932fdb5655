//! Subgraph-explanation search (paper Alg. 2 and the two baselines of §IV-D).
//!
//! All three methods explore the same tree — the root is the full graph, an
//! action prunes one node while keeping the subgraph connected — but differ
//! in the reward that scores a candidate subgraph:
//!
//! * **FexIoT**: Monte-Carlo *beam* search with the kernel-SHAP reward
//!   (dependence-aware, Eq. 4-7).
//! * **SubgraphX**: Monte-Carlo tree search with the independence-assuming
//!   Monte-Carlo Shapley reward.
//! * **MCTS_GNN**: Monte-Carlo tree search with the raw prediction score.

use crate::coalition::{CoalitionScorer, NodeSet, NodeSetMap};
use crate::model::GraphScorer;
use crate::shap::{kernel_shap, mc_shapley, ShapBuffers, ShapConfig};
use fexiot_graph::InteractionGraph;
use fexiot_tensor::rng::Rng;

/// Which reward scores a candidate subgraph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RewardKind {
    /// Kernel SHAP with `samples` coalitions (FexIoT, Alg. 2).
    KernelShap { samples: usize },
    /// Monte-Carlo Shapley with independent players (SubgraphX).
    MonteCarloShapley { samples: usize },
    /// Raw model prediction of the subgraph (MCTS_GNN).
    Prediction,
}

/// Search configuration (paper Alg. 2 inputs).
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// MCBS/MCTS rollouts `I`.
    pub iterations: usize,
    /// Beam width `B_level` — candidates kept per level.
    pub beam_width: usize,
    /// Smallest subgraph size `N_min`; also the output size cap of Eq. (4).
    pub min_nodes: usize,
    /// Exploration/exploitation balance `λ` in Eq. (7).
    pub lambda: f64,
    pub reward: RewardKind,
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            iterations: 5,
            beam_width: 3,
            min_nodes: 3,
            lambda: 1.0,
            reward: RewardKind::KernelShap { samples: 32 },
            seed: 0,
        }
    }
}

/// A scored explanation subgraph.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Node indices (into the explained graph), sorted.
    pub nodes: Vec<usize>,
    /// The reward score of this subgraph.
    pub score: f64,
    /// Total reward evaluations spent (efficiency accounting, Table III).
    pub evaluations: usize,
}

/// Runs the subgraph search and returns the best explanation found. Every
/// reward scores its coalitions through one [`CoalitionScorer`], so each
/// distinct coalition runs the model once per explanation.
///
/// # Panics
/// Panics if the graph is empty.
pub fn explain(
    scorer: &GraphScorer,
    graph: &InteractionGraph,
    config: &SearchConfig,
) -> Explanation {
    assert!(graph.node_count() > 0, "explain: empty graph");
    search(&mut CoalitionScorer::new(scorer, graph), config)
}

/// [`explain`] on the coalition scorer of the explained graph.
fn search(coalitions: &mut CoalitionScorer, config: &SearchConfig) -> Explanation {
    let _span = fexiot_obs::span("explain.search");
    let started = std::time::Instant::now();
    let graph = coalitions.graph();
    let n = graph.node_count();
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut evaluations = 0usize;
    let mut shap = ShapBuffers::new(n);

    let mut reward_of = |nodes: &NodeSet, rng: &mut Rng| -> f64 {
        evaluations += 1;
        match config.reward {
            RewardKind::KernelShap { samples } => {
                fexiot_obs::counter_add("explain.search.shap_evals", 1);
                kernel_shap(coalitions, &mut shap, nodes, &ShapConfig { samples }, rng)
            }
            RewardKind::MonteCarloShapley { samples } => {
                mc_shapley(coalitions, &mut shap, nodes, samples, rng)
            }
            RewardKind::Prediction => coalitions.score(nodes),
        }
    };

    // Q statistics per visited subgraph.
    let mut stats: NodeSetMap<(f64, usize)> = NodeSetMap::default();
    let mut best: Option<(NodeSet, f64)> = None;
    // The rollout's subgraph's nodes in ascending order, one of them
    // pruned, and the scored children.
    let mut nodes: Vec<usize> = Vec::with_capacity(n);
    let mut pruned: Vec<usize> = Vec::with_capacity(n);
    let mut children: Vec<(NodeSet, f64)> = Vec::new();

    let min_nodes = config.min_nodes.min(n).max(1);
    for _ in 0..config.iterations.max(1) {
        let mut current = NodeSet::full(n);
        loop {
            nodes.clear();
            nodes.extend(current.iter());
            if nodes.len() <= min_nodes {
                break;
            }
            // Children: prune one node without fragmenting the subgraph. The
            // input graph itself may be disconnected (padded samples), so the
            // rule is "component count must not grow", which degenerates to
            // plain connectivity on connected graphs.
            let components = graph.component_count_subset(&nodes);
            children.clear();
            for (drop_pos, &dropped) in nodes.iter().enumerate() {
                pruned.clear();
                pruned.extend_from_slice(&nodes[..drop_pos]);
                pruned.extend_from_slice(&nodes[drop_pos + 1..]);
                if graph.component_count_subset(&pruned) > components {
                    continue;
                }
                let mut child = current.clone();
                child.remove(dropped);
                let r = reward_of(&child, &mut rng);
                children.push((child, r));
            }
            if children.is_empty() {
                break; // No connected prune available.
            }
            // Beam: keep the B best by immediate reward.
            children.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            fexiot_obs::counter_add("explain.search.expansions", children.len() as u64);
            let kept = config.beam_width.max(1);
            fexiot_obs::counter_add(
                "explain.search.pruned",
                children.len().saturating_sub(kept) as u64,
            );
            children.truncate(kept);
            // Record rewards, track the global best at output size.
            for (child, r) in &children {
                if !stats.contains_key(child) {
                    stats.insert(child.clone(), (0.0, 0));
                }
                let entry = stats.get_mut(child).expect("inserted above");
                entry.0 += r;
                entry.1 += 1;
                if nodes.len() - 1 <= min_nodes && best.as_ref().is_none_or(|(_, b)| r > b) {
                    best = Some((child.clone(), *r));
                }
            }
            // Eq. (7): argmax Q(N, a) + λ R(N, a).
            let next = children
                .iter()
                .max_by(|(ca, ra), (cb, rb)| {
                    let qa = {
                        let (sum, cnt) = stats[ca];
                        sum / cnt as f64
                    };
                    let qb = {
                        let (sum, cnt) = stats[cb];
                        sum / cnt as f64
                    };
                    (qa + config.lambda * ra)
                        .partial_cmp(&(qb + config.lambda * rb))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("children non-empty");
            current.copy_from(&next.0);
        }
        // Terminal subgraph of this rollout is also a candidate.
        if nodes.len() <= min_nodes || best.is_none() {
            let r = reward_of(&current, &mut rng);
            if best.as_ref().is_none_or(|(_, b)| r > *b) {
                best = Some((current.clone(), r));
            }
        }
    }

    let (best, score) = best.expect("at least one candidate");
    let nodes: Vec<usize> = best.iter().collect();
    fexiot_obs::counter_add("explain.search.evals", evaluations as u64);
    // The `_per_sec` suffix marks it as wall-clock data, kept out of
    // deterministic exports and timing-excluded streams.
    let secs = started.elapsed().as_secs_f64();
    if secs > 0.0 {
        fexiot_obs::gauge_set("explain.search.evals_per_sec", evaluations as f64 / secs);
    }
    Explanation {
        nodes,
        score,
        evaluations,
    }
}

/// Convenience: the three paper methods with shared sizing parameters.
pub fn fexiot_config(iterations: usize, min_nodes: usize, shap_samples: usize) -> SearchConfig {
    SearchConfig {
        iterations,
        min_nodes,
        reward: RewardKind::KernelShap {
            samples: shap_samples,
        },
        ..Default::default()
    }
}

pub fn subgraphx_config(iterations: usize, min_nodes: usize, samples: usize) -> SearchConfig {
    SearchConfig {
        iterations,
        min_nodes,
        // SubgraphX explores without a beam cap (full MCTS); a wide beam
        // approximates that and is why it returns larger, less concise
        // subgraphs in Fig. 8.
        beam_width: 8,
        reward: RewardKind::MonteCarloShapley { samples },
        ..Default::default()
    }
}

pub fn mcts_gnn_config(iterations: usize, min_nodes: usize) -> SearchConfig {
    SearchConfig {
        iterations,
        min_nodes,
        beam_width: 8,
        reward: RewardKind::Prediction,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::trained_scorer;

    fn pick_graph(seed: u64) -> (GraphScorer, InteractionGraph) {
        let (scorer, ds) = trained_scorer(seed);
        let g = ds
            .graphs
            .iter()
            .find(|g| g.node_count() >= 5 && g.edge_count() >= 4)
            .expect("a mid-size graph exists")
            .clone();
        (scorer, g)
    }

    #[test]
    fn explanation_is_connected_subset() {
        let (scorer, g) = pick_graph(21);
        for cfg in [
            fexiot_config(3, 3, 16),
            subgraphx_config(3, 3, 16),
            mcts_gnn_config(3, 3),
        ] {
            let e = explain(&scorer, &g, &cfg);
            assert!(!e.nodes.is_empty());
            assert!(e.nodes.iter().all(|&i| i < g.node_count()));
            assert!(
                g.is_connected_subset(&e.nodes),
                "{:?} disconnected",
                e.nodes
            );
            assert!(e.score.is_finite());
            assert!(e.evaluations > 0);
        }
    }

    #[test]
    fn explanation_respects_size_cap() {
        let (scorer, g) = pick_graph(22);
        let e = explain(&scorer, &g, &fexiot_config(3, 2, 8));
        assert!(e.nodes.len() <= g.node_count());
        // The winner must be at or below the N_min output cap unless pruning
        // was blocked by connectivity.
        assert!(e.nodes.len() <= 4, "explanation too large: {:?}", e.nodes);
    }

    #[test]
    fn single_node_graph_explained_trivially() {
        let (scorer, ds) = trained_scorer(23);
        let g = ds.graphs.iter().find(|g| g.node_count() == 2).unwrap();
        let e = explain(&scorer, g, &fexiot_config(2, 1, 8));
        assert!(!e.nodes.is_empty());
    }

    #[test]
    fn one_forward_per_distinct_coalition() {
        let (scorer, g) = pick_graph(25);
        // Coalitions each reward asks for: 16 kernel-SHAP rows plus the full
        // and empty graph; a with/without pair per Monte-Carlo sample; one
        // masked prediction.
        for (cfg, asked_per_reward) in [
            (fexiot_config(3, 3, 16), 18),
            (subgraphx_config(3, 3, 16), 32),
            (mcts_gnn_config(3, 3), 1),
        ] {
            let mut coalitions = CoalitionScorer::new(&scorer, &g);
            let e = search(&mut coalitions, &cfg);
            // `evaluations` counts rewards, as it did without the cache ...
            assert_eq!(coalitions.lookups(), e.evaluations * asked_per_reward);
            // ... while the model runs once per distinct coalition.
            assert_eq!(coalitions.misses(), coalitions.distinct());
            assert!(coalitions.misses() < coalitions.lookups());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (scorer, g) = pick_graph(24);
        let a = explain(&scorer, &g, &fexiot_config(2, 3, 8));
        let b = explain(&scorer, &g, &fexiot_config(2, 3, 8));
        assert_eq!(a.nodes, b.nodes);
    }
}
