//! Offline interaction-graph construction (paper §III-A3).
//!
//! Rules from a corpus are chained along ground-truth "action-trigger"
//! correlations into connected interaction graphs of 2–50 nodes, then labeled
//! by the structural vulnerability detector. Node features are the
//! platform-appropriate text embeddings plus a 7-dim runtime block (device
//! status, time-of-day phase, trigger consistency and completion, event
//! rate, online flag) that stays zero for offline graphs and is filled in by
//! the online fusion step.

use crate::corpus::CorpusGenerator;
use crate::graph::{GraphLabel, InteractionGraph, RuleNode};
use crate::rule::{Platform, Rule};
use crate::vuln::{detect_vulnerabilities, VulnInjector, VulnKind};
use fexiot_nlp::{parse_rule, Lexicon, SentenceEncoder, WordEmbedder};
use fexiot_par::ParPool;
use fexiot_tensor::rng::Rng;
use std::collections::HashMap;

/// Number of runtime feature dims appended after the text embedding:
/// `[status, sin(t), cos(t), trigger_consistency, trigger_completion,
///   event_rate, online_flag]`; [`runtime_slot`] names each offset.
pub const RUNTIME_FEATURE_DIMS: usize = 7;

/// Offsets of the runtime block's slots from the block's start
/// (`features.len() - RUNTIME_FEATURE_DIMS`).
pub mod runtime_slot {
    /// Primary device state: 1.0 active, -1.0 inactive.
    pub const STATUS: usize = 0;
    /// Time-of-day phase of the primary device's last event.
    pub const SIN: usize = 1;
    pub const COS: usize = 2;
    /// Share of the rule's actuator transitions some rule's trigger explains.
    pub const CONSISTENCY: usize = 3;
    /// Share of trigger instants whose commands completed in time.
    pub const COMPLETION: usize = 4;
    /// `ln(1 + events of the primary device) / 5`.
    pub const EVENT_RATE: usize = 5;
    /// 1.0 once the graph has been fused with a log, else 0.0.
    pub const ONLINE_FLAG: usize = 6;
}

/// Embedding dimensionalities used for node features.
#[derive(Debug, Clone, Copy)]
pub struct FeatureConfig {
    pub word_dim: usize,
    pub sentence_dim: usize,
}

impl FeatureConfig {
    /// Paper-fidelity dims: spaCy 300-d words, USE 512-d sentences.
    pub fn paper() -> Self {
        Self {
            word_dim: 300,
            sentence_dim: 512,
        }
    }

    /// Scaled-down dims for fast experiments; preserves the hetero dim split.
    pub fn small() -> Self {
        Self {
            word_dim: 32,
            sentence_dim: 48,
        }
    }

    /// Node feature dim for a platform (embedding + runtime block).
    pub fn node_dim(&self, platform: Platform) -> usize {
        let base = if platform.uses_sentence_embeddings() {
            self.sentence_dim
        } else {
            self.word_dim
        };
        base + RUNTIME_FEATURE_DIMS
    }
}

/// Builds interaction graphs from rule corpora.
pub struct GraphBuilder {
    lexicon: Lexicon,
    words: WordEmbedder,
    sentences: SentenceEncoder,
    config: FeatureConfig,
}

impl GraphBuilder {
    pub fn new(config: FeatureConfig) -> Self {
        Self {
            lexicon: Lexicon::new(),
            words: WordEmbedder::with_dim(config.word_dim),
            sentences: SentenceEncoder::with_dims(config.word_dim, config.sentence_dim),
            config,
        }
    }

    pub fn config(&self) -> FeatureConfig {
        self.config
    }

    /// Node features for a rule: key-phrase word embedding (app platforms) or
    /// sentence embedding (voice platforms), plus a zeroed runtime block.
    pub fn node_features(&self, rule: &Rule) -> Vec<f64> {
        let parse = parse_rule(&rule.text, &self.lexicon);
        let mut feats = if rule.platform.uses_sentence_embeddings() {
            // Voice commands are concise: encode the whole token sequence.
            let mut tokens = parse.trigger.tokens.clone();
            tokens.extend(parse.action.tokens.clone());
            self.sentences.encode(&tokens, &self.lexicon)
        } else {
            // Verbose app descriptions: key phrases only (Eq. 1 pair embedding).
            // Locations are included — device identity is (kind, location),
            // and conflict/revert patterns are location-sensitive.
            let mut trigger_keys = parse.trigger.verbs.clone();
            trigger_keys.extend(parse.trigger.objects.clone());
            trigger_keys.extend(parse.trigger.states.clone());
            trigger_keys.extend(parse.trigger.locations.clone());
            let mut action_keys = parse.action.verbs.clone();
            action_keys.extend(parse.action.objects.clone());
            action_keys.extend(parse.action.states.clone());
            action_keys.extend(parse.action.locations.clone());
            self.words
                .pair_embedding(&trigger_keys, &action_keys, &self.lexicon)
        };
        feats.extend([0.0; RUNTIME_FEATURE_DIMS]);
        feats
    }

    /// Builds a graph from explicit rules: edges from ground-truth semantics,
    /// label from the structural detector.
    pub fn build_graph(&self, rules: &[Rule]) -> InteractionGraph {
        let mut graph = self.build_structure(rules);
        self.fill_features(&mut graph);
        graph
    }

    /// The structural half of [`build_graph`]: edges, label, and rule nodes
    /// with **empty** feature vectors. Edge derivation and the vulnerability
    /// detector read only rule semantics, never node features, so a
    /// structure-only graph carries the final label — featurization (the NLP
    /// parse + embedding, by far the dominant cost) can be deferred to a
    /// batched [`GraphBuilder::fill_features_batch`] pass over the graphs
    /// that are actually kept, and run on any number of threads (it consumes
    /// no RNG).
    pub fn build_structure(&self, rules: &[Rule]) -> InteractionGraph {
        let n = rules.len();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j && rules[i].can_trigger(&rules[j]) {
                    edges.push((i, j));
                }
            }
        }
        let nodes: Vec<RuleNode> = rules
            .iter()
            .map(|rule| RuleNode {
                rule: rule.clone(),
                features: Vec::new(),
            })
            .collect();
        let mut graph = InteractionGraph::new(nodes, edges);
        let kinds = detect_vulnerabilities(&graph);
        graph.label = Some(GraphLabel::vulnerable(kinds));
        graph
    }

    /// Computes [`GraphBuilder::node_features`] for every node of a
    /// structure-only graph (see [`GraphBuilder::build_structure`]): the
    /// one-graph, one-thread case of [`GraphBuilder::fill_features_batch_with`].
    /// A pure function of the rules: filling before or after sampling
    /// decisions yields bit-identical datasets.
    pub fn fill_features(&self, graph: &mut InteractionGraph) {
        self.fill_features_batch_with(&ParPool::new(1), std::slice::from_mut(graph));
    }

    /// [`GraphBuilder::fill_features_batch_with`] on the global pool.
    pub fn fill_features_batch(&self, graphs: &mut [InteractionGraph]) {
        self.fill_features_batch_with(&fexiot_par::pool(), graphs);
    }

    /// Fills every node of the structure-only `graphs` with its
    /// [`GraphBuilder::node_features`], featurizing each distinct
    /// `(platform, rule text)` once — the only rule fields it reads. Graphs
    /// sampled from one corpus repeat rules heavily (a 300-graph IFTTT
    /// dataset has ~1,650 nodes but ~120 distinct texts). The distinct rules
    /// get slots in first-seen order, the slots are featurized across `pool`
    /// (order-preserving, no RNG), and each node receives a copy of its
    /// slot's vector, so the result is bit-identical to featurizing node by
    /// node at any width.
    pub fn fill_features_batch_with(&self, pool: &ParPool, graphs: &mut [InteractionGraph]) {
        let mut slot_of: HashMap<(Platform, &str), usize> = HashMap::new();
        let mut distinct: Vec<&Rule> = Vec::new();
        let mut node_slot = Vec::new();
        for node in graphs.iter().flat_map(|g| &g.nodes) {
            let rule = &node.rule;
            let slot = *slot_of
                .entry((rule.platform, rule.text.as_str()))
                .or_insert_with(|| {
                    distinct.push(rule);
                    distinct.len() - 1
                });
            node_slot.push(slot);
        }
        let features = pool.map_indexed(&distinct, |_, rule| self.node_features(rule));
        let nodes = graphs.iter_mut().flat_map(|g| &mut g.nodes);
        for (node, slot) in nodes.zip(node_slot) {
            node.features = features[slot].clone();
        }
    }

    /// Samples a connected graph of roughly `target_size` nodes by randomly
    /// chaining correlated rule pairs from the corpus index (paper: "randomly
    /// choose and chain the trigger-action and action-trigger pairs").
    pub fn sample_graph(
        &self,
        index: &CorpusIndex,
        target_size: usize,
        rng: &mut Rng,
    ) -> InteractionGraph {
        let mut graph = self.sample_structure(index, target_size, rng);
        self.fill_features(&mut graph);
        graph
    }

    /// [`GraphBuilder::sample_graph`] without featurization (see
    /// [`GraphBuilder::build_structure`]). Consumes the identical RNG stream.
    pub fn sample_structure(
        &self,
        index: &CorpusIndex,
        target_size: usize,
        rng: &mut Rng,
    ) -> InteractionGraph {
        let target = target_size.max(2);
        // Start from a rule that has at least one correlation if possible.
        let seed = index.random_connected_rule(rng);
        let mut chosen: Vec<usize> = vec![seed];
        let mut frontier: Vec<usize> = vec![seed];
        let mut attempts = 0;
        while chosen.len() < target && attempts < target * 20 {
            attempts += 1;
            if frontier.is_empty() {
                break;
            }
            let at = *rng.choose(&frontier);
            // Extend forward (action triggers someone) or backward.
            let candidates: &[usize] = if rng.bool(0.5) {
                &index.forward[at]
            } else {
                &index.backward[at]
            };
            if candidates.is_empty() {
                frontier.retain(|&x| {
                    x != at || !index.forward[x].is_empty() || !index.backward[x].is_empty()
                });
                continue;
            }
            let next = *rng.choose(candidates);
            if !chosen.contains(&next) {
                chosen.push(next);
                frontier.push(next);
            }
        }
        let rules: Vec<Rule> = chosen.iter().map(|&i| index.rules[i].clone()).collect();
        self.build_structure(&rules)
    }

    /// Samples a graph guaranteed to contain the given vulnerability: the
    /// injector's pattern rules are planted and padded with corpus rules.
    pub fn sample_vulnerable(
        &self,
        kind: VulnKind,
        index: &CorpusIndex,
        target_size: usize,
        gen: &mut CorpusGenerator,
        rng: &mut Rng,
    ) -> InteractionGraph {
        let mut graph = self.sample_vulnerable_structure(kind, index, target_size, gen, rng);
        self.fill_features(&mut graph);
        graph
    }

    /// [`GraphBuilder::sample_vulnerable`] without featurization (see
    /// [`GraphBuilder::build_structure`]). The acceptance retries check only
    /// the structural label, so the RNG stream is identical.
    pub fn sample_vulnerable_structure(
        &self,
        kind: VulnKind,
        index: &CorpusIndex,
        target_size: usize,
        gen: &mut CorpusGenerator,
        rng: &mut Rng,
    ) -> InteractionGraph {
        let platform = index.rules.first().map_or(Platform::Ifttt, |r| r.platform);
        let core = VulnInjector::pattern_rules(kind, gen.alloc_ids(8), platform);
        // Pad with random corpus rules to reach the target size. Padding can
        // occasionally neutralize the planted pattern (e.g. a padded rule
        // satisfies a blocked trigger), so retry with fresh padding; labels
        // must always be the ground truth of the graph actually returned.
        for _ in 0..5 {
            let mut rules = core.clone();
            while rules.len() < target_size.max(rules.len()) {
                let extra = rng.usize(index.rules.len());
                let r = &index.rules[extra];
                if !rules.iter().any(|x| x.id == r.id) {
                    rules.push(r.clone());
                } else {
                    break;
                }
            }
            let graph = self.build_structure(&rules);
            if graph.label.as_ref().is_some_and(|l| l.vulnerable) {
                return graph;
            }
        }
        // Unlucky padding every time: the unpadded pattern is vulnerable by
        // construction.
        self.build_structure(&core)
    }
}

impl CorpusGenerator {
    /// Reserves a block of rule ids for injectors (keeps ids unique).
    pub fn alloc_ids(&mut self, count: u32) -> u32 {
        let base = self.peek_next_id();
        self.advance_ids(count);
        base
    }
}

/// Precomputed ground-truth correlation adjacency over a corpus.
pub struct CorpusIndex {
    pub rules: Vec<Rule>,
    /// `forward[i]` = rules that rule i's action can trigger.
    pub forward: Vec<Vec<usize>>,
    /// `backward[i]` = rules whose action can trigger rule i.
    pub backward: Vec<Vec<usize>>,
}

impl CorpusIndex {
    pub fn build(rules: Vec<Rule>) -> Self {
        let n = rules.len();
        let mut forward = vec![Vec::new(); n];
        let mut backward = vec![Vec::new(); n];
        for i in 0..n {
            for j in 0..n {
                if i != j && rules[i].can_trigger(&rules[j]) {
                    forward[i].push(j);
                    backward[j].push(i);
                }
            }
        }
        Self {
            rules,
            forward,
            backward,
        }
    }

    /// Fraction of ordered pairs that correlate (corpus density diagnostic).
    pub fn density(&self) -> f64 {
        let n = self.rules.len();
        if n < 2 {
            return 0.0;
        }
        let e: usize = self.forward.iter().map(Vec::len).sum();
        e as f64 / (n * (n - 1)) as f64
    }

    fn random_connected_rule(&self, rng: &mut Rng) -> usize {
        let connected: Vec<usize> = (0..self.rules.len())
            .filter(|&i| !self.forward[i].is_empty() || !self.backward[i].is_empty())
            .collect();
        if connected.is_empty() {
            rng.usize(self.rules.len())
        } else {
            *rng.choose(&connected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;

    fn small_index(seed: u64) -> (CorpusIndex, CorpusGenerator) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut gen = CorpusGenerator::new();
        let rules = gen.generate(&CorpusConfig::small(), &mut rng);
        (CorpusIndex::build(rules), gen)
    }

    #[test]
    fn sampled_graphs_are_labeled_and_sized() {
        let (index, _) = small_index(1);
        let builder = GraphBuilder::new(FeatureConfig::small());
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..10 {
            let g = builder.sample_graph(&index, 8, &mut rng);
            assert!(g.node_count() >= 1);
            assert!(g.node_count() <= 8);
            assert!(g.label.is_some());
        }
    }

    #[test]
    fn node_features_have_platform_dims() {
        let builder = GraphBuilder::new(FeatureConfig::small());
        let mut rng = Rng::seed_from_u64(3);
        let mut gen = CorpusGenerator::new();
        let config = CorpusConfig::small();
        let rules = gen.generate(&config, &mut rng);
        for r in &rules {
            let f = builder.node_features(r);
            assert_eq!(
                f.len(),
                builder.config().node_dim(r.platform),
                "{:?}",
                r.platform
            );
            // Runtime block zeroed for offline graphs.
            assert!(f[f.len() - RUNTIME_FEATURE_DIMS..]
                .iter()
                .all(|&x| x == 0.0));
        }
    }

    #[test]
    fn injected_graphs_carry_their_kind() {
        let (index, mut gen) = small_index(4);
        let builder = GraphBuilder::new(FeatureConfig::small());
        let mut rng = Rng::seed_from_u64(5);
        for kind in VulnKind::ALL {
            let g = builder.sample_vulnerable(kind, &index, 6, &mut gen, &mut rng);
            let label = g.label.as_ref().unwrap();
            assert!(label.vulnerable, "{kind:?} graph not vulnerable");
        }
    }

    #[test]
    fn corpus_index_symmetry() {
        let (index, _) = small_index(6);
        for (i, fs) in index.forward.iter().enumerate() {
            for &j in fs {
                assert!(index.backward[j].contains(&i));
            }
        }
    }

    #[test]
    fn density_is_sane() {
        let (index, _) = small_index(7);
        let d = index.density();
        assert!(d > 0.0 && d < 0.2, "density {d}");
    }
}
