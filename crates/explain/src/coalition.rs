//! One explanation's coalition scorer. Every reward a search evaluates —
//! kernel SHAP, Monte-Carlo Shapley, the raw prediction — scores
//! coalitions (sets of present nodes) of the same graph, and most of them
//! repeat: the full and empty coalitions recur in every SHAP value, and a
//! small graph has few coalitions to sample (on 5–12-rule graphs, 95% of
//! the coalitions one explanation asks for were already scored). A score
//! is a pure function of (graph, mask), so each distinct coalition runs the
//! model once and every repeat is answered bit for bit from the cache.

use crate::model::{mask_into, GraphScorer};
use fexiot_graph::InteractionGraph;
use std::collections::HashMap;

/// Scores coalitions of one graph, each distinct coalition once. A miss
/// runs on the calling thread: the one working copy of the graph is
/// rewritten in place from the mask and scored, so no miss clones the
/// graph.
pub(crate) struct CoalitionScorer<'a> {
    scorer: &'a GraphScorer,
    graph: &'a InteractionGraph,
    /// The working copy every miss rewrites and scores.
    work: InteractionGraph,
    /// Scores keyed by the set of present nodes, one bit per node.
    scores: HashMap<Box<[u64]>, f64>,
    /// Lookup key of the coalition being scored, reused across calls.
    key: Vec<u64>,
    /// Coalitions asked for, and the misses among them (model forwards).
    lookups: usize,
    misses: usize,
}

impl<'a> CoalitionScorer<'a> {
    pub(crate) fn new(scorer: &'a GraphScorer, graph: &'a InteractionGraph) -> Self {
        Self {
            scorer,
            graph,
            work: graph.clone(),
            scores: HashMap::new(),
            key: Vec::new(),
            lookups: 0,
            misses: 0,
        }
    }

    /// The graph whose coalitions are scored.
    pub(crate) fn graph(&self) -> &'a InteractionGraph {
        self.graph
    }

    /// Positive-class probability with only `present` nodes active — the
    /// value of `scorer.score_with_nodes(graph, present)`.
    pub(crate) fn score(&mut self, present: &[bool]) -> f64 {
        assert_eq!(
            present.len(),
            self.graph.node_count(),
            "coalition: mask length"
        );
        self.key.clear();
        self.key.resize(present.len().div_ceil(64), 0);
        for (i, _) in present.iter().enumerate().filter(|(_, &p)| p) {
            self.key[i / 64] |= 1 << (i % 64);
        }
        self.lookups += 1;
        if let Some(&score) = self.scores.get(self.key.as_slice()) {
            return score;
        }
        mask_into(&mut self.work, self.graph, present);
        let score = self.scorer.score(&self.work);
        self.misses += 1;
        self.scores.insert(self.key.as_slice().into(), score);
        score
    }

    /// Coalitions asked for so far: the forwards an uncached scorer runs.
    #[cfg(test)]
    pub(crate) fn lookups(&self) -> usize {
        self.lookups
    }

    /// Model forwards run so far.
    #[cfg(test)]
    pub(crate) fn misses(&self) -> usize {
        self.misses
    }

    /// Distinct coalitions asked for so far.
    #[cfg(test)]
    pub(crate) fn distinct(&self) -> usize {
        self.scores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::mask_graph;
    use fexiot_gnn::{Encoder, Gcn, Gin, Magnn};
    use fexiot_graph::{generate_dataset, DatasetConfig, FeatureConfig, Platform};
    use fexiot_ml::SgdClassifier;
    use fexiot_tensor::rng::Rng;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// Untrained scorers of all three encoder kinds with random heads, and
    /// graphs each can read: IFTTT graphs for GIN and GCN, five-platform
    /// graphs for MAGNN.
    fn scorers() -> &'static [(GraphScorer, Vec<InteractionGraph>)] {
        static SCORERS: OnceLock<Vec<(GraphScorer, Vec<InteractionGraph>)>> = OnceLock::new();
        SCORERS.get_or_init(build_scorers)
    }

    fn build_scorers() -> Vec<(GraphScorer, Vec<InteractionGraph>)> {
        let mut rng = Rng::seed_from_u64(5);
        let mut homo = DatasetConfig::small_ifttt();
        homo.graph_count = 12;
        let homo = generate_dataset(&homo, &mut rng).graphs;
        let mut hetero = DatasetConfig::small_hetero();
        hetero.graph_count = 12;
        let hetero = generate_dataset(&hetero, &mut rng).graphs;
        let d = FeatureConfig::small().node_dim(Platform::Ifttt);
        let encoders = [
            (Encoder::Gin(Gin::new(d, &[12, 12], 6, &mut rng)), &homo),
            (Encoder::Gcn(Gcn::new(d, &[12], 6, &mut rng)), &homo),
            (
                Encoder::Magnn(Magnn::for_config(
                    FeatureConfig::small(),
                    12,
                    6,
                    6,
                    &mut rng,
                )),
                &hetero,
            ),
        ];
        encoders
            .into_iter()
            .map(|(encoder, graphs)| {
                let weights = (0..fexiot_gnn::head_feature_dim(&encoder))
                    .map(|_| rng.normal(0.0, 1.0))
                    .collect();
                let head = SgdClassifier { weights, bias: 0.1 };
                (GraphScorer::new(encoder, head), graphs.clone())
            })
            .collect()
    }

    // A score through the working copy bit-equals a score of a fresh
    // `mask_graph` copy, for every encoder kind, over random masks and the
    // all-absent and all-present ones, whatever the previous miss left in
    // the working copy.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn working_copy_scores_equal_mask_graph_scores(
            seed in 0u64..1_000,
            graph in 0usize..12,
            density in 0.0f64..1.0,
        ) {
            for (scorer, graphs) in scorers() {
                let g = &graphs[graph];
                let n = g.node_count();
                let mut rng = Rng::seed_from_u64(seed);
                let mut masks = vec![vec![false; n], vec![true; n]];
                masks.extend((0..6).map(|_| (0..n).map(|_| rng.bool(density)).collect()));
                let mut coalitions = CoalitionScorer::new(scorer, g);
                for mask in &masks {
                    let want = scorer.score(&mask_graph(g, mask)).to_bits();
                    prop_assert_eq!(coalitions.score(mask).to_bits(), want);
                }
            }
        }
    }
}
