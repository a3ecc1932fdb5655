//! The model under explanation: a trained GNN encoder followed by the linear
//! classification head `h(·)` (paper §III-C). Exposes coalition-style scoring
//! where a subset of nodes is "present" and the rest are masked out.

use fexiot_gnn::Encoder;
use fexiot_graph::InteractionGraph;
use fexiot_ml::SgdClassifier;

/// GNN encoder + linear head, scored as P(vulnerable).
pub struct GraphScorer {
    pub encoder: Encoder,
    pub head: SgdClassifier,
}

impl GraphScorer {
    pub fn new(encoder: Encoder, head: SgdClassifier) -> Self {
        assert_eq!(
            fexiot_gnn::head_feature_dim(&encoder),
            head.weights.len(),
            "scorer: head dim must match the head-feature dim (embedding + runtime stats)"
        );
        Self { encoder, head }
    }

    /// Positive-class probability of the full graph.
    pub fn score(&self, graph: &InteractionGraph) -> f64 {
        if graph.node_count() == 0 {
            return self.head.proba(&vec![0.0; self.head.weights.len()]);
        }
        self.head
            .proba(&fexiot_gnn::head_features(&self.encoder, graph))
    }

    /// Positive-class probability with only `present` nodes active: absent
    /// nodes keep their place in the structure but their features are zeroed
    /// and their edges removed (the SubgraphX masking convention). The empty
    /// coalition gives the model's baseline response.
    pub fn score_with_nodes(&self, graph: &InteractionGraph, present: &[bool]) -> f64 {
        assert_eq!(
            present.len(),
            graph.node_count(),
            "score_with_nodes: mask length"
        );
        self.score(&mask_graph(graph, present))
    }

    /// Binary prediction for a graph.
    pub fn predict(&self, graph: &InteractionGraph) -> usize {
        usize::from(self.score(graph) >= 0.5)
    }
}

/// Zeroes features of absent nodes and removes their edges.
pub fn mask_graph(graph: &InteractionGraph, present: &[bool]) -> InteractionGraph {
    let mut masked = graph.clone();
    mask_into(&mut masked, graph, present);
    masked
}

/// Rewrites `work`, a copy of `graph`, in place into `graph` masked by
/// `present`: present nodes get `graph`'s features back, absent ones
/// zeros, and only the edges between present nodes remain, in `graph`'s
/// order. Rules and the label are left as they are.
pub(crate) fn mask_into(work: &mut InteractionGraph, graph: &InteractionGraph, present: &[bool]) {
    assert_eq!(present.len(), graph.node_count(), "mask length");
    for ((node, source), &keep) in work.nodes.iter_mut().zip(&graph.nodes).zip(present) {
        if keep {
            node.features.copy_from_slice(&source.features);
        } else {
            node.features.fill(0.0);
        }
    }
    work.edges.clear();
    let kept = graph
        .edges
        .iter()
        .filter(|&&(a, b)| present[a] && present[b]);
    work.edges.extend(kept);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fexiot_gnn::{train_contrastive, ContrastiveConfig, Gin};
    use fexiot_graph::{generate_dataset, DatasetConfig, GraphDataset};
    use fexiot_ml::SgdConfig;
    use fexiot_tensor::rng::Rng;

    pub(crate) fn trained_scorer(seed: u64) -> (GraphScorer, GraphDataset) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut cfg = DatasetConfig::small_ifttt();
        cfg.graph_count = 60;
        let ds = generate_dataset(&cfg, &mut rng);
        let labels: Vec<usize> = ds.graphs.iter().map(GraphDataset::binary_label).collect();
        let d = ds.graphs[0].nodes[0].features.len();
        let mut enc = Encoder::Gin(Gin::new(d, &[12], 6, &mut rng));
        train_contrastive(
            &mut enc,
            &ds.graphs,
            &labels,
            &ContrastiveConfig {
                epochs: 3,
                pairs_per_epoch: 24,
                ..Default::default()
            },
        );
        let x = fexiot_gnn::head_features_all(&enc, &ds.graphs);
        let head = fexiot_ml::SgdClassifier::fit(&x, &labels, SgdConfig::default());
        (GraphScorer::new(enc, head), ds)
    }

    #[test]
    fn scores_are_probabilities() {
        let (scorer, ds) = trained_scorer(1);
        for g in &ds.graphs[..10] {
            let s = scorer.score(g);
            assert!((0.0..=1.0).contains(&s), "score {s}");
        }
    }

    #[test]
    fn full_mask_equals_plain_score() {
        let (scorer, ds) = trained_scorer(2);
        let g = &ds.graphs[0];
        let all = vec![true; g.node_count()];
        assert!((scorer.score(g) - scorer.score_with_nodes(g, &all)).abs() < 1e-12);
    }

    #[test]
    fn masking_changes_score() {
        let (scorer, ds) = trained_scorer(3);
        let g = ds.graphs.iter().find(|g| g.node_count() >= 3).unwrap();
        let mut mask = vec![true; g.node_count()];
        mask[0] = false;
        let full = scorer.score(g);
        let partial = scorer.score_with_nodes(g, &mask);
        assert!((full - partial).abs() > 1e-12, "mask had no effect");
    }

    #[test]
    fn mask_graph_removes_edges() {
        let (_, ds) = trained_scorer(4);
        let g = ds.graphs.iter().find(|g| g.edge_count() >= 1).unwrap();
        let mut present = vec![true; g.node_count()];
        let (a, _) = g.edges[0];
        present[a] = false;
        let masked = mask_graph(g, &present);
        assert!(masked.edges.iter().all(|&(u, v)| u != a && v != a));
        assert!(masked.nodes[a].features.iter().all(|&f| f == 0.0));
    }
}
