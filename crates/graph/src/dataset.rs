//! Graph datasets: generation at paper scale, class-aware Dirichlet
//! splitting across federated clients (§IV-C "Data Distribution
//! Configuration"), and train/test splits.

use crate::builder::{CorpusIndex, FeatureConfig, GraphBuilder};
use crate::corpus::{CorpusConfig, CorpusGenerator};
use crate::graph::InteractionGraph;
use crate::vuln::VulnKind;
use fexiot_tensor::rng::Rng;

/// A set of interaction graphs with labels.
#[derive(Debug, Clone, Default)]
pub struct GraphDataset {
    pub graphs: Vec<InteractionGraph>,
}

impl GraphDataset {
    pub fn new(graphs: Vec<InteractionGraph>) -> Self {
        Self { graphs }
    }

    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Number of graphs labeled vulnerable.
    pub fn vulnerable_count(&self) -> usize {
        self.graphs
            .iter()
            .filter(|g| g.label.as_ref().is_some_and(|l| l.vulnerable))
            .count()
    }

    /// Number of representation classes: benign, the six internal kinds, and
    /// external (attack-induced) vulnerability.
    pub const N_CLASSES: usize = 8;

    /// The fine-grained class of a graph for contrastive training, splitting,
    /// and clustering: 0 = benign, 1..=6 = first detected vulnerability kind,
    /// 7 = external vulnerability (attacked log, no internal kind).
    pub fn class_of(graph: &InteractionGraph) -> usize {
        match graph.label.as_ref() {
            Some(label) if label.vulnerable => match label.kinds.first() {
                Some(&kind) => 1 + VulnKind::ALL.iter().position(|&k| k == kind).unwrap_or(0),
                None => 7,
            },
            _ => 0,
        }
    }

    /// Binary label: 1 = vulnerable, 0 = benign/unknown.
    pub fn binary_label(graph: &InteractionGraph) -> usize {
        usize::from(graph.label.as_ref().is_some_and(|l| l.vulnerable))
    }

    /// Shuffled train/test split.
    pub fn train_test_split(&self, train_frac: f64, rng: &mut Rng) -> (GraphDataset, GraphDataset) {
        assert!((0.0..=1.0).contains(&train_frac), "train_frac out of range");
        let _span = fexiot_obs::span("graph.dataset.split");
        let mut idx: Vec<usize> = (0..self.graphs.len()).collect();
        rng.shuffle(&mut idx);
        let cut = (self.graphs.len() as f64 * train_frac).round() as usize;
        let train = idx[..cut].iter().map(|&i| self.graphs[i].clone()).collect();
        let test = idx[cut..].iter().map(|&i| self.graphs[i].clone()).collect();
        (GraphDataset::new(train), GraphDataset::new(test))
    }

    /// Splits the dataset across `n_clients` by drawing each class's client
    /// marginal from `Dirichlet(alpha)` — the paper's non-i.i.d. simulation.
    /// Small `alpha` concentrates each class on few clients.
    pub fn dirichlet_split(
        &self,
        n_clients: usize,
        alpha: f64,
        rng: &mut Rng,
    ) -> Vec<GraphDataset> {
        assert!(n_clients > 0, "dirichlet_split: zero clients");
        let _span = fexiot_obs::span("graph.dataset.dirichlet_split");
        let mut buckets: Vec<Vec<InteractionGraph>> = vec![Vec::new(); n_clients];
        // Group graph indices by class.
        let mut by_class: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for (i, g) in self.graphs.iter().enumerate() {
            by_class.entry(Self::class_of(g)).or_default().push(i);
        }
        let alphas = vec![alpha; n_clients];
        for (_, mut members) in by_class {
            rng.shuffle(&mut members);
            let probs = rng.dirichlet(&alphas);
            // Deterministic proportional allocation of this class's samples.
            let mut starts = vec![0usize; n_clients + 1];
            let total = members.len() as f64;
            let mut acc = 0.0;
            for (c, &p) in probs.iter().enumerate() {
                acc += p;
                starts[c + 1] = (acc * total).round() as usize;
            }
            starts[n_clients] = members.len();
            for c in 0..n_clients {
                for &m in &members[starts[c].min(members.len())..starts[c + 1].min(members.len())] {
                    buckets[c].push(self.graphs[m].clone());
                }
            }
        }
        buckets.into_iter().map(GraphDataset::new).collect()
    }

    /// Statistics row matching the paper's Table I.
    pub fn stats(&self) -> DatasetStats {
        let node_counts: Vec<usize> = self.graphs.iter().map(|g| g.node_count()).collect();
        DatasetStats {
            total: self.graphs.len(),
            vulnerable: self.vulnerable_count(),
            min_nodes: node_counts.iter().copied().min().unwrap_or(0),
            max_nodes: node_counts.iter().copied().max().unwrap_or(0),
        }
    }
}

/// Table-I style statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetStats {
    pub total: usize,
    pub vulnerable: usize,
    pub min_nodes: usize,
    pub max_nodes: usize,
}

/// End-to-end dataset generation config.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    pub corpus: CorpusConfig,
    pub features: FeatureConfig,
    pub graph_count: usize,
    /// Target fraction of vulnerable graphs (Table I runs ~25-30%). Enforced
    /// by quota sampling: randomly chained graphs are kept according to their
    /// natural label until each side's quota fills.
    pub vulnerable_fraction: f64,
    /// Share of the vulnerable quota filled by explicit pattern injection
    /// (spread evenly over the six kinds); the rest comes from naturally
    /// vulnerable random chains.
    pub injected_share: f64,
    pub min_nodes: usize,
    pub max_nodes: usize,
}

impl DatasetConfig {
    /// Small homogeneous (IFTTT-only) config for tests/examples.
    pub fn small_ifttt() -> Self {
        Self {
            corpus: CorpusConfig::ifttt_only(120),
            features: FeatureConfig::small(),
            graph_count: 120,
            vulnerable_fraction: 0.25,
            injected_share: 0.6,
            min_nodes: 2,
            max_nodes: 12,
        }
    }

    /// Small heterogeneous (5 platforms) config.
    pub fn small_hetero() -> Self {
        Self {
            corpus: CorpusConfig::small(),
            features: FeatureConfig::small(),
            graph_count: 120,
            vulnerable_fraction: 0.25,
            injected_share: 0.6,
            min_nodes: 2,
            max_nodes: 12,
        }
    }
}

/// Generates a labeled dataset: random chained graphs plus injected
/// vulnerability patterns in the configured proportion.
pub fn generate_dataset(config: &DatasetConfig, rng: &mut Rng) -> GraphDataset {
    generate_dataset_with(&fexiot_par::pool(), config, rng)
}

/// [`generate_dataset`] on an explicit pool (see
/// [`generate_from_index_with`] for where the parallelism lands).
pub fn generate_dataset_with(
    pool: &fexiot_par::ParPool,
    config: &DatasetConfig,
    rng: &mut Rng,
) -> GraphDataset {
    // `pipeline` is the run-level root span for the data pipeline: corpus
    // generation → NLP featurization/indexing → graph fusion (see DESIGN.md
    // §Observability for the naming convention).
    let _span = fexiot_obs::span("pipeline");
    let mut gen = CorpusGenerator::new();
    let rules = {
        let _s = fexiot_obs::span("pipeline.corpus");
        gen.generate(&config.corpus, rng)
    };
    fexiot_obs::counter_add("graph.corpus.rules", rules.len() as u64);
    let sentences = rules.len();
    let featurize_started = fexiot_obs::global_enabled().then(std::time::Instant::now);
    let index = {
        let _s = fexiot_obs::span("pipeline.featurize");
        CorpusIndex::build(rules)
    };
    // Throughput gauge: each corpus rule is one NLP sentence to featurize.
    // The `_per_sec` suffix marks it as wall-clock data, so it is dropped
    // from deterministic exports (see fexiot_obs::is_timing_name).
    if let Some(started) = featurize_started {
        let secs = started.elapsed().as_secs_f64();
        if secs > 0.0 {
            fexiot_obs::gauge_set(
                "pipeline.featurize.sentences_per_sec",
                sentences as f64 / secs,
            );
        }
    }
    let builder = GraphBuilder::new(config.features);
    let _s = fexiot_obs::span("pipeline.fuse");
    generate_from_index_with(pool, &builder, &index, &mut gen, config, rng)
}

/// Same as [`generate_dataset`] but reusing a prebuilt corpus index (lets
/// callers share one corpus across many datasets/clients).
pub fn generate_from_index(
    builder: &GraphBuilder,
    index: &CorpusIndex,
    gen: &mut CorpusGenerator,
    config: &DatasetConfig,
    rng: &mut Rng,
) -> GraphDataset {
    generate_from_index_with(&fexiot_par::pool(), builder, index, gen, config, rng)
}

/// [`generate_from_index`] on an explicit pool. Sampling decisions (RNG
/// draws, quota acceptance, the final shuffle) stay sequential on the calling
/// thread over *structure-only* graphs; node featurization — the dominant
/// cost, a pure function of a rule's platform and text consuming no RNG — is
/// deferred to one [`GraphBuilder::fill_features_batch_with`] pass over the
/// accepted graphs, which featurizes each distinct rule once across the
/// pool. The dataset is bit-identical to the historic sample-then-featurize
/// loop at any thread count, and rejected samples no longer pay for
/// embeddings at all.
pub fn generate_from_index_with(
    pool: &fexiot_par::ParPool,
    builder: &GraphBuilder,
    index: &CorpusIndex,
    gen: &mut CorpusGenerator,
    config: &DatasetConfig,
    rng: &mut Rng,
) -> GraphDataset {
    let total = config.graph_count;
    let vuln_quota = (total as f64 * config.vulnerable_fraction).round() as usize;
    let injected_quota = (vuln_quota as f64 * config.injected_share).round() as usize;
    let benign_quota = total - vuln_quota;

    let mut graphs = Vec::with_capacity(total);
    // Injected vulnerable graphs, spread evenly over the six kinds.
    for i in 0..injected_quota {
        let size = rng.range(config.min_nodes, config.max_nodes + 1);
        let kind = VulnKind::ALL[i % VulnKind::ALL.len()];
        graphs.push(builder.sample_vulnerable_structure(kind, index, size, gen, rng));
    }
    // Randomly chained graphs, accepted against the remaining quotas.
    let mut natural_vuln = 0usize;
    let mut benign = 0usize;
    let natural_quota = vuln_quota - injected_quota;
    let mut attempts = 0usize;
    let attempt_cap = total * 30;
    while (natural_vuln < natural_quota || benign < benign_quota) && attempts < attempt_cap {
        attempts += 1;
        let size = rng.range(config.min_nodes, config.max_nodes + 1);
        let g = builder.sample_structure(index, size, rng);
        let vulnerable = g.label.as_ref().is_some_and(|l| l.vulnerable);
        if vulnerable && natural_vuln < natural_quota {
            natural_vuln += 1;
            graphs.push(g);
        } else if !vulnerable && benign < benign_quota {
            benign += 1;
            graphs.push(g);
        }
    }
    // Degenerate corpora may not supply enough of one side before the cap;
    // top up with whatever samples come so the dataset size is honored.
    while graphs.len() < total {
        let size = rng.range(config.min_nodes, config.max_nodes + 1);
        graphs.push(builder.sample_structure(index, size, rng));
    }
    rng.shuffle(&mut graphs);
    // Deferred featurization of the accepted graphs (order-preserving,
    // RNG-free — see the function docs).
    builder.fill_features_batch_with(pool, &mut graphs);
    fexiot_obs::counter_add("graph.dataset.graphs", graphs.len() as u64);
    GraphDataset::new(graphs)
}

/// Federated data: per-client training sets plus a shared test set.
#[derive(Debug, Clone)]
pub struct FederatedData {
    pub clients: Vec<GraphDataset>,
    pub test: GraphDataset,
}

/// Generates genuinely heterogeneous federated data: clients are grouped
/// into `n_archetypes` household profiles (see [`crate::corpus::archetype`]),
/// each with its own rule corpus; within an archetype, graphs are spread
/// across its clients by a `Dirichlet(alpha)` class split. The shared test
/// set mixes held-out graphs from every archetype.
///
/// This realizes the paper's §III-B2 premise: "there exist several clusters
/// of households, where the graph datasets from each cluster satisfy the
/// i.i.d. property" — the structure the layer-wise clustering discovers.
pub fn generate_federated(
    base: &DatasetConfig,
    n_clients: usize,
    n_archetypes: usize,
    alpha: f64,
    rng: &mut Rng,
) -> FederatedData {
    assert!(n_clients > 0, "generate_federated: zero clients");
    let n_archetypes = n_archetypes.clamp(1, n_clients);
    // Assign clients round-robin to archetypes.
    let clients_of =
        |a: usize| -> Vec<usize> { (0..n_clients).filter(|c| c % n_archetypes == a).collect() };

    let mut client_sets: Vec<GraphDataset> = vec![GraphDataset::default(); n_clients];
    let mut test_graphs = Vec::new();
    for a in 0..n_archetypes {
        let members = clients_of(a);
        if members.is_empty() {
            continue;
        }
        let (locations, actuators) = crate::corpus::archetype(a);
        let mut cfg = base.clone();
        cfg.corpus = cfg.corpus.with_archetype(locations, actuators);
        cfg.graph_count = (base.graph_count * members.len() / n_clients).max(members.len() * 4);
        let ds = generate_dataset(&cfg, rng);
        let (train, test) = ds.train_test_split(0.8, rng);
        test_graphs.extend(test.graphs);
        let splits = train.dirichlet_split(members.len(), alpha, rng);
        for (m, split) in members.into_iter().zip(splits) {
            client_sets[m] = split;
        }
    }
    rng.shuffle(&mut test_graphs);
    FederatedData {
        clients: client_sets,
        test: GraphDataset::new(test_graphs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dataset(seed: u64) -> GraphDataset {
        let mut rng = Rng::seed_from_u64(seed);
        generate_dataset(&DatasetConfig::small_ifttt(), &mut rng)
    }

    #[test]
    fn dataset_has_requested_size_and_mixed_labels() {
        let ds = small_dataset(1);
        assert_eq!(ds.len(), 120);
        // Quota sampling should land close to the configured 25%.
        let vuln = ds.vulnerable_count();
        assert!(
            (25..=40).contains(&vuln),
            "vulnerable count off-quota: {vuln}"
        );
    }

    #[test]
    fn node_counts_within_bounds() {
        let ds = small_dataset(2);
        let stats = ds.stats();
        assert!(stats.min_nodes >= 1);
        assert!(stats.max_nodes <= 12, "max {}", stats.max_nodes);
    }

    #[test]
    fn dirichlet_split_conserves_graphs() {
        let ds = small_dataset(3);
        let mut rng = Rng::seed_from_u64(4);
        for &alpha in &[0.1, 1.0, 10.0] {
            let clients = ds.dirichlet_split(7, alpha, &mut rng);
            assert_eq!(clients.len(), 7);
            let total: usize = clients.iter().map(GraphDataset::len).sum();
            assert_eq!(total, ds.len(), "alpha {alpha}");
        }
    }

    #[test]
    fn low_alpha_is_more_skewed_than_high_alpha() {
        let ds = small_dataset(5);
        let imbalance = |alpha: f64, seed: u64| {
            let mut rng = Rng::seed_from_u64(seed);
            let clients = ds.dirichlet_split(10, alpha, &mut rng);
            let sizes: Vec<f64> = clients.iter().map(|c| c.len() as f64).collect();
            fexiot_tensor::stats::std_dev(&sizes)
        };
        // Average over several seeds to keep the test stable.
        let low: f64 = (0..5).map(|s| imbalance(0.1, s)).sum::<f64>() / 5.0;
        let high: f64 = (0..5).map(|s| imbalance(50.0, s)).sum::<f64>() / 5.0;
        assert!(
            low > high,
            "low-alpha skew {low} should exceed high-alpha {high}"
        );
    }

    #[test]
    fn train_test_split_partitions() {
        let ds = small_dataset(6);
        let mut rng = Rng::seed_from_u64(7);
        let (train, test) = ds.train_test_split(0.8, &mut rng);
        assert_eq!(train.len() + test.len(), ds.len());
        assert_eq!(train.len(), 96);
    }

    #[test]
    fn federated_generation_covers_all_clients() {
        let mut rng = Rng::seed_from_u64(21);
        let mut base = DatasetConfig::small_ifttt();
        base.graph_count = 120;
        let fed = generate_federated(&base, 9, 3, 1.0, &mut rng);
        assert_eq!(fed.clients.len(), 9);
        assert!(
            fed.clients.iter().all(|c| !c.is_empty()),
            "empty client dataset"
        );
        assert!(!fed.test.is_empty());
    }

    #[test]
    fn archetypes_shape_device_vocabulary() {
        // Clients of different archetypes should command different device sets.
        let mut rng = Rng::seed_from_u64(22);
        let mut base = DatasetConfig::small_ifttt();
        base.graph_count = 120;
        let fed = generate_federated(&base, 4, 4, 10.0, &mut rng);
        let kinds = |ds: &GraphDataset| -> std::collections::BTreeSet<crate::device::DeviceKind> {
            ds.graphs
                .iter()
                .flat_map(|g| g.nodes.iter())
                .flat_map(|n| n.rule.actions.iter())
                .map(|c| c.device.kind)
                .collect()
        };
        let a = kinds(&fed.clients[0]);
        let b = kinds(&fed.clients[1]);
        assert!(a != b, "archetypes should differ in deployed devices");
    }

    #[test]
    fn generation_is_bit_identical_at_any_thread_count() {
        let gen_with = |threads: usize| {
            let mut rng = Rng::seed_from_u64(11);
            generate_dataset_with(
                &fexiot_par::ParPool::new(threads),
                &DatasetConfig::small_ifttt(),
                &mut rng,
            )
        };
        let base = gen_with(1);
        for threads in [2, 7] {
            let ds = gen_with(threads);
            assert_eq!(ds.graphs.len(), base.graphs.len());
            for (g, bg) in ds.graphs.iter().zip(&base.graphs) {
                assert_eq!(g.edges, bg.edges, "threads={threads}");
                assert_eq!(g.label, bg.label, "threads={threads}");
                for (n, bn) in g.nodes.iter().zip(&bg.nodes) {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                    assert_eq!(bits(&n.features), bits(&bn.features), "threads={threads}");
                }
            }
        }
    }

    /// The seeded IFTTT and heterogeneous datasets the pins below cover.
    fn pinned_datasets() -> [(&'static str, GraphDataset); 2] {
        let gen = |config: DatasetConfig, seed: u64| {
            generate_dataset(&config, &mut Rng::seed_from_u64(seed))
        };
        [
            ("small_ifttt", gen(DatasetConfig::small_ifttt(), 42)),
            ("small_hetero", gen(DatasetConfig::small_hetero(), 43)),
        ]
    }

    #[test]
    fn batch_featurization_equals_per_node_features() {
        let builder = GraphBuilder::new(FeatureConfig::small());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (name, ds) in pinned_datasets() {
            for node in ds.graphs.iter().flat_map(|g| &g.nodes) {
                let alone = builder.node_features(&node.rule);
                assert_eq!(
                    bits(&node.features),
                    bits(&alone),
                    "{name}: rule {}",
                    node.rule.id
                );
            }
        }
    }

    #[test]
    fn generated_datasets_are_pinned() {
        use fexiot_tensor::codec::{fnv1a_extend, FNV1A_OFFSET};
        // Recorded before the build featurized each distinct rule once.
        let golden = [0x6F23_5281_4AD5_90F3, 0xDA6E_F816_546D_08DE];
        for ((name, ds), want) in pinned_datasets().into_iter().zip(golden) {
            let got = fnv1a_extend(FNV1A_OFFSET, &crate::serialize::dataset_to_bytes(&ds));
            assert_eq!(
                got, want,
                "{name}: dataset bytes drifted (got 0x{got:016X})"
            );
        }
    }

    #[test]
    fn classes_cover_benign_and_kinds() {
        let ds = small_dataset(8);
        let classes: std::collections::BTreeSet<usize> =
            ds.graphs.iter().map(GraphDataset::class_of).collect();
        assert!(classes.contains(&0), "no benign class");
        assert!(classes.len() >= 4, "too few classes: {classes:?}");
    }
}
