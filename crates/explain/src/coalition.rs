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
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A set of nodes of one graph: node `i` is bit `i % 64` of word `i / 64`,
/// in `ceil(n / 64)` words for an `n`-node graph. Coalitions, players and
/// search states are node sets, and the coalition cache and the search's
/// Q-table are keyed by them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct NodeSet(Box<[u64]>);

impl NodeSet {
    /// No node of an `n`-node graph.
    pub(crate) fn empty(n: usize) -> Self {
        Self(vec![0; n.div_ceil(64)].into())
    }

    /// Every node of an `n`-node graph.
    pub(crate) fn full(n: usize) -> Self {
        let mut set = Self::empty(n);
        (0..n).for_each(|i| set.insert(i));
        set
    }

    /// The set of `nodes`, indices into an `n`-node graph.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub(crate) fn of(n: usize, nodes: &[usize]) -> Self {
        let mut set = Self::empty(n);
        for &i in nodes {
            assert!(i < n, "node {i} out of range for {n} nodes");
            set.insert(i);
        }
        set
    }

    pub(crate) fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    pub(crate) fn clear(&mut self) {
        self.0.fill(0);
    }

    /// Makes this set equal to `other`, a set of the same graph.
    pub(crate) fn copy_from(&mut self, other: &NodeSet) {
        self.0.copy_from_slice(&other.0);
    }

    /// Adds every node of `other`, a set of the same graph.
    pub(crate) fn union_with(&mut self, other: &NodeSet) {
        for (word, &add) in self.0.iter_mut().zip(other.0.iter()) {
            *word |= add;
        }
    }

    /// Number of nodes in the set.
    pub(crate) fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The nodes in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(k, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
                rest &= rest - 1;
                Some(64 * k + bit)
            })
        })
    }
}

impl Hash for NodeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.iter().for_each(|&w| state.write_u64(w));
    }
}

/// A multiply-xor hasher for node-set words. No map keyed by node sets is
/// ever iterated, so no output depends on the hash function; it only has
/// to spread every bit of the words over both the high bits the table
/// tags entries with and the low bits it indexes by. A product carries a
/// bit only upwards, so `finish` folds the high half down before and after
/// a second product (the finalizer of MurmurHash3).
#[derive(Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^ (h >> 33)
    }
}

/// A map keyed by node sets.
pub(crate) type NodeSetMap<V> = HashMap<NodeSet, V, BuildHasherDefault<WordHasher>>;

/// Scores coalitions of one graph, each distinct coalition once. A hit
/// allocates nothing. A miss runs on the calling thread: the coalition is
/// written as a presence mask into one reused buffer, the one working copy
/// of the graph is rewritten in place from it and scored, so no miss clones
/// the graph.
pub(crate) struct CoalitionScorer<'a> {
    scorer: &'a GraphScorer,
    graph: &'a InteractionGraph,
    /// The working copy every miss rewrites and scores.
    work: InteractionGraph,
    /// Scores keyed by the set of present nodes.
    scores: NodeSetMap<f64>,
    /// Presence mask of the coalition a miss scores.
    mask: Vec<bool>,
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
            scores: NodeSetMap::default(),
            mask: vec![false; graph.node_count()],
            lookups: 0,
            misses: 0,
        }
    }

    /// The graph whose coalitions are scored.
    pub(crate) fn graph(&self) -> &'a InteractionGraph {
        self.graph
    }

    /// Positive-class probability with only the `present` nodes active —
    /// the value of `scorer.score_with_nodes(graph, mask)` for the set's
    /// presence mask.
    pub(crate) fn score(&mut self, present: &NodeSet) -> f64 {
        self.lookups += 1;
        if let Some(&score) = self.scores.get(present) {
            return score;
        }
        for (i, keep) in self.mask.iter_mut().enumerate() {
            *keep = present.contains(i);
        }
        mask_into(&mut self.work, self.graph, &self.mask);
        let score = self.scorer.score(&self.work);
        self.misses += 1;
        self.scores.insert(present.clone(), score);
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
    use std::hash::BuildHasher;
    use std::sync::OnceLock;

    fn hash(set: &NodeSet) -> u64 {
        BuildHasherDefault::<WordHasher>::default().hash_one(set)
    }

    #[test]
    fn node_sets_hold_nodes_across_word_boundaries() {
        let n = 130;
        let mut set = NodeSet::empty(n);
        for i in [63, 64, 127, 0, 129] {
            set.insert(i);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 63, 64, 127, 129]);
        assert_eq!(set.len(), 5);
        assert!(set.contains(63) && set.contains(64) && set.contains(127));
        assert!(!set.contains(62) && !set.contains(65) && !set.contains(126));
        assert!(!set.contains(128));
        set.remove(64);
        assert!(set.contains(63) && !set.contains(64) && set.contains(127));
        assert_eq!(NodeSet::full(n).len(), n);
        assert_eq!(NodeSet::full(128).iter().last(), Some(127));
        assert_eq!(NodeSet::empty(64), NodeSet::of(64, &[]));
    }

    #[test]
    fn equal_sets_built_in_different_orders_compare_and_hash_equal() {
        let n = 128;
        let nodes = [127, 64, 63, 0, 1, 65];
        let forward = NodeSet::of(n, &nodes);
        let mut backward = NodeSet::empty(n);
        for &i in nodes.iter().rev() {
            backward.insert(i);
        }
        let mut unioned = NodeSet::of(n, &[63, 127]);
        unioned.union_with(&NodeSet::of(n, &[0, 1, 64, 65]));
        let mut copied = NodeSet::full(n);
        copied.copy_from(&unioned);
        for set in [&backward, &unioned, &copied] {
            assert_eq!(set, &forward);
            assert_eq!(hash(set), hash(&forward));
        }
        // One bit either side of a word boundary is a different set.
        for (a, b) in [(63, 64), (64, 127), (127, 126)] {
            let (x, y) = (NodeSet::of(n, &[a]), NodeSet::of(n, &[b]));
            assert_ne!(x, y);
            assert_ne!(hash(&x), hash(&y));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_sets_reject_nodes_outside_the_graph() {
        NodeSet::of(64, &[64]);
    }

    /// Untrained scorers of all three encoder kinds with random heads, and
    /// graphs each can read: IFTTT graphs for GIN and GCN, five-platform
    /// graphs for MAGNN. The last graph of each list is the disjoint union
    /// of the others, repeated until it has more than 64 nodes.
    fn scorers() -> &'static [(GraphScorer, Vec<InteractionGraph>)] {
        static SCORERS: OnceLock<Vec<(GraphScorer, Vec<InteractionGraph>)>> = OnceLock::new();
        SCORERS.get_or_init(build_scorers)
    }

    fn with_union(mut graphs: Vec<InteractionGraph>) -> Vec<InteractionGraph> {
        let mut union = InteractionGraph::new(Vec::new(), Vec::new());
        for g in graphs.iter().cycle() {
            if union.node_count() > 64 {
                break;
            }
            let offset = union.node_count();
            union.nodes.extend(g.nodes.iter().cloned());
            let edges = g.edges.iter().map(|&(a, b)| (a + offset, b + offset));
            union.edges.extend(edges);
        }
        graphs.push(union);
        graphs
    }

    fn build_scorers() -> Vec<(GraphScorer, Vec<InteractionGraph>)> {
        let mut rng = Rng::seed_from_u64(5);
        let mut homo = DatasetConfig::small_ifttt();
        homo.graph_count = 12;
        let homo = with_union(generate_dataset(&homo, &mut rng).graphs);
        let mut hetero = DatasetConfig::small_hetero();
        hetero.graph_count = 12;
        let hetero = with_union(generate_dataset(&hetero, &mut rng).graphs);
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
    // the working copy: on a graph of 2–12 nodes (one word) and on one of
    // more than 64 (two words).
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn working_copy_scores_equal_mask_graph_scores(
            seed in 0u64..1_000,
            graph in 0usize..12,
            density in 0.0f64..1.0,
        ) {
            for (scorer, graphs) in scorers() {
                let big = graphs.last().expect("the union graph");
                prop_assert!(big.node_count() > 64);
                for g in [&graphs[graph], big] {
                    let n = g.node_count();
                    let mut rng = Rng::seed_from_u64(seed);
                    let mut masks = vec![vec![false; n], vec![true; n]];
                    masks.extend((0..6).map(|_| (0..n).map(|_| rng.bool(density)).collect()));
                    let mut coalitions = CoalitionScorer::new(scorer, g);
                    for mask in &masks {
                        let want = scorer.score(&mask_graph(g, mask)).to_bits();
                        let nodes: Vec<usize> = (0..n).filter(|&i| mask[i]).collect();
                        let set = NodeSet::of(n, &nodes);
                        prop_assert_eq!(coalitions.score(&set).to_bits(), want);
                    }
                }
            }
        }
    }
}
