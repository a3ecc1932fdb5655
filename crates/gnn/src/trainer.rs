//! Siamese contrastive training of graph encoders (paper §III-B1, Eq. 2):
//! same-class pairs are pulled together, different-class pairs are pushed
//! apart up to a margin `k`. The learned representations feed each client's
//! linear `SGDClassifier` head.

use crate::encoder::Encoder;
use fexiot_graph::{runtime_slot as slot, GraphDataset, InteractionGraph};
use fexiot_tensor::autograd::{Forward, Tape, TapeBuffers};
use fexiot_tensor::matrix::Matrix;
use fexiot_tensor::optim::Adam;
use fexiot_tensor::rng::Rng;

/// Contrastive-training hyperparameters.
#[derive(Debug, Clone)]
pub struct ContrastiveConfig {
    /// Margin `k` in Eq. (2).
    pub margin: f64,
    /// Margin multiplier for pairs where exactly one graph is class 0
    /// (benign). The detection head is a *binary* linear model over the
    /// multi-class representation, so benign must sit outside the convex
    /// hull of the vulnerability clusters; a wider benign margin enforces
    /// that geometry.
    pub benign_margin_boost: f64,
    pub lr: f64,
    pub epochs: usize,
    /// Contrastive pairs sampled per epoch.
    pub pairs_per_epoch: usize,
    pub seed: u64,
}

impl Default for ContrastiveConfig {
    fn default() -> Self {
        Self {
            margin: 1.0,
            benign_margin_boost: 2.0,
            lr: 1e-3,
            epochs: 5,
            pairs_per_epoch: 64,
            seed: 0,
        }
    }
}

/// Trains `encoder` in place on labeled graphs; returns the mean loss of the
/// final epoch. Labels may be any class ids (the paper uses the fine-grained
/// vulnerability classes — that is what makes the seven clusters of Fig. 6
/// separable). Pair sampling is class-balanced: half same-class, half
/// different-class pairs, so the margin term is actually exercised.
pub fn train_contrastive(
    encoder: &mut Encoder,
    graphs: &[InteractionGraph],
    labels: &[usize],
    config: &ContrastiveConfig,
) -> f64 {
    assert_eq!(
        graphs.len(),
        labels.len(),
        "contrastive: label count mismatch"
    );
    let _span = fexiot_obs::span("gnn.trainer.contrastive");
    let started = fexiot_obs::global_enabled().then(std::time::Instant::now);
    let mut rng = Rng::seed_from_u64(config.seed);
    if graphs.len() < 2 {
        return 0.0;
    }
    // Group indices by class.
    let mut by_class: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, &c) in labels.iter().enumerate() {
        by_class.entry(c).or_default().push(i);
    }
    let classes: Vec<Vec<usize>> = by_class.into_values().collect();
    let multi_member: Vec<usize> = (0..classes.len())
        .filter(|&c| classes[c].len() >= 2)
        .collect();

    let mut run = ContrastiveRun::new(encoder, config.lr);
    let mut last_loss = 0.0;
    let mut total_steps = 0usize;
    for _ in 0..config.epochs {
        let mut epoch_loss = 0.0;
        let mut steps = 0usize;
        for _ in 0..config.pairs_per_epoch {
            let (i, j, different) =
                if classes.len() >= 2 && (multi_member.is_empty() || rng.bool(0.5)) {
                    // Different-class pair.
                    let a = rng.usize(classes.len());
                    let mut b = rng.usize(classes.len());
                    if b == a {
                        b = (b + 1) % classes.len();
                    }
                    (*rng.choose(&classes[a]), *rng.choose(&classes[b]), true)
                } else if !multi_member.is_empty() {
                    // Same-class pair from a class with at least two members.
                    let pool = &classes[*rng.choose(&multi_member)];
                    let i = pool[rng.usize(pool.len())];
                    let mut j = pool[rng.usize(pool.len())];
                    if j == i {
                        j = pool[(pool.iter().position(|&x| x == i).expect("i in pool") + 1)
                            % pool.len()];
                    }
                    (i, j, false)
                } else {
                    // Single class with one member each cannot form a pair.
                    continue;
                };
            if i == j {
                continue;
            }
            // Wider margin between benign and any vulnerable class.
            let crosses_benign = (labels[i] == 0) != (labels[j] == 0);
            let margin = if different && crosses_benign {
                config.margin * config.benign_margin_boost
            } else {
                config.margin
            };
            epoch_loss += run.step(encoder, &graphs[i], &graphs[j], different, margin);
            steps += 1;
        }
        last_loss = epoch_loss / steps.max(1) as f64;
        fexiot_obs::hist_record(
            "gnn.trainer.epoch_loss",
            fexiot_obs::buckets::LOSS,
            last_loss,
        );
        fexiot_obs::counter_add("gnn.trainer.pairs", steps as u64);
        total_steps += steps;
    }
    // Throughput gauge: each contrastive step forwards two graphs. The
    // `_per_sec` suffix marks it as wall-clock data, kept out of
    // deterministic exports.
    if let Some(started) = started {
        let secs = started.elapsed().as_secs_f64();
        if secs > 0.0 {
            fexiot_obs::gauge_set(
                "gnn.trainer.graphs_per_sec",
                (2 * total_steps) as f64 / secs,
            );
        }
    }
    last_loss
}

/// What a contrastive run carries from one step to the next: Adam's
/// moments, the buffers each step's tape forms its values and gradients
/// in, and the summed gradient Adam reads. A step whose shapes the run has
/// seen allocates no matrix.
pub struct ContrastiveRun {
    adam: Adam,
    buffers: TapeBuffers,
    grads: Vec<Matrix>,
}

impl ContrastiveRun {
    /// A run training `encoder` with Adam at learning rate `lr`.
    pub fn new(encoder: &Encoder, lr: f64) -> Self {
        Self {
            adam: Adam::new(lr, encoder.params()),
            buffers: TapeBuffers::default(),
            grads: vec![Matrix::default(); encoder.params().len()],
        }
    }

    /// One contrastive step on a pair; returns the pair's loss.
    ///
    /// Both Siamese branches and Eq. (2) go on one [`Tape`], differentiated
    /// by one backward pass. The encoder's parameters are registered once
    /// per branch, so each branch sums its own terms and each parameter's
    /// gradient is the sum of the two, `g_b + g_a`. That order matters for
    /// MAGNN, whose attention weights (`w_att`, `b_att`, `q`) are read once
    /// per metapath: registered once for both branches, they would sum to
    /// `((b1 + b0) + a1) + a0` instead of `(b1 + b0) + (a1 + a0)`, and the
    /// trained bits would move. GCN and GIN read each parameter once per
    /// forward, so either way gives them the same bits.
    pub fn step(
        &mut self,
        encoder: &mut Encoder,
        ga: &InteractionGraph,
        gb: &InteractionGraph,
        different: bool,
        margin: f64,
    ) -> f64 {
        let y = if different { 1.0 } else { 0.0 }; // Eq. (2): y = 1 for different classes
        let enc: &Encoder = encoder;
        let mut tape = Tape::with_buffers(std::mem::take(&mut self.buffers));
        let vars_a = enc.register(&mut tape);
        let za = enc.forward_with(&mut tape, &vars_a, ga);
        let vars_b = enc.register(&mut tape);
        let zb = enc.forward_with(&mut tape, &vars_b, gb);
        let d2 = tape.sq_distance(za, zb);
        // Eq. (2): L = d^2 (1 - y) + max(0, k - d^2) y.
        let pull = tape.scale(d2, 1.0 - y);
        let neg = tape.scale(d2, -1.0);
        let marg = tape.add_scalar(neg, margin);
        let hinge = tape.relu(marg);
        let push = tape.scale(hinge, y);
        let loss = tape.add(pull, push);
        let loss_value = tape.value(loss)[(0, 0)];
        let grads = tape.backward(loss);
        let branches = vars_a.iter().zip(&vars_b).zip(enc.params());
        for (((&va, &vb), p), sum) in branches.zip(&mut self.grads) {
            match (grads.try_get(vb), grads.try_get(va)) {
                (Some(g_b), Some(g_a)) => g_b.zip_into(g_a, sum, |b, a| b + a),
                (Some(g), None) | (None, Some(g)) => sum.clone_from(g),
                (None, None) => sum.reset(p.rows(), p.cols()),
            }
        }
        self.buffers = tape.into_buffers(grads);
        // The norm reduction is a full pass over every gradient, so only pay
        // for it while observability is on.
        if fexiot_obs::global_enabled() {
            let sq_sum: f64 = self
                .grads
                .iter()
                .flat_map(|m| m.as_slice().iter())
                .map(|g| g * g)
                .sum();
            fexiot_obs::hist_record(
                "gnn.trainer.grad_norm",
                fexiot_obs::buckets::NORM,
                sq_sum.sqrt(),
            );
        }
        self.adam.step(encoder.params_mut(), &self.grads);
        loss_value
    }

    /// The gradient the last step applied, one matrix per parameter.
    pub fn grads(&self) -> &[Matrix] {
        &self.grads
    }

    /// The buffers the run's tapes draw from.
    pub fn buffers(&self) -> &TapeBuffers {
        &self.buffers
    }
}

/// Embeds every graph into a row matrix.
pub fn embed_all(encoder: &Encoder, graphs: &[InteractionGraph]) -> Matrix {
    assert!(!graphs.is_empty(), "embed_all: empty input");
    let rows: Vec<Vec<f64>> = graphs.iter().map(|g| encoder.embed(g)).collect();
    Matrix::from_rows(&rows)
}

/// Input dimensionality of the per-client linear head: the graph embedding
/// plus two fused runtime statistics.
pub fn head_feature_dim(encoder: &Encoder) -> usize {
    encoder.embed_dim() + 2
}

/// Features the linear classification head consumes: the GNN graph
/// representation concatenated with the graph's minimum trigger-consistency
/// and trigger-completion over nodes (1.0 for offline graphs). Mean readout
/// dilutes a single tampered node; the min-statistics keep the online
/// fusion's attack evidence visible to the linear model — the paper's
/// "real-time device status affects vulnerability detection results".
pub fn head_features(encoder: &Encoder, graph: &InteractionGraph) -> Vec<f64> {
    let mut out = encoder.embed(graph);
    let (mut min_consistency, mut min_completion) = (1.0f64, 1.0f64);
    for node in &graph.nodes {
        let d = node.features.len();
        if d < fexiot_graph::RUNTIME_FEATURE_DIMS {
            continue;
        }
        let block = d - fexiot_graph::RUNTIME_FEATURE_DIMS;
        // Offline graphs (online flag 0) carry no runtime evidence.
        if node.features[block + slot::ONLINE_FLAG] == 0.0 {
            continue;
        }
        min_consistency = min_consistency.min(node.features[block + slot::CONSISTENCY]);
        min_completion = min_completion.min(node.features[block + slot::COMPLETION]);
    }
    out.push(min_consistency);
    out.push(min_completion);
    out
}

/// [`head_features`] for every graph, as a row matrix.
pub fn head_features_all(encoder: &Encoder, graphs: &[InteractionGraph]) -> Matrix {
    assert!(!graphs.is_empty(), "head_features_all: empty input");
    let rows: Vec<Vec<f64>> = graphs.iter().map(|g| head_features(encoder, g)).collect();
    Matrix::from_rows(&rows)
}

/// Binary labels of a dataset (vulnerable = 1).
pub fn binary_labels(dataset: &GraphDataset) -> Vec<usize> {
    dataset
        .graphs
        .iter()
        .map(GraphDataset::binary_label)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gin::Gin;
    use fexiot_graph::{generate_dataset, DatasetConfig};
    use fexiot_tensor::stats::euclidean;

    fn dataset(seed: u64) -> (Vec<InteractionGraph>, Vec<usize>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut cfg = DatasetConfig::small_ifttt();
        cfg.graph_count = 60;
        let ds = generate_dataset(&cfg, &mut rng);
        let labels = binary_labels(&ds);
        (ds.graphs, labels)
    }

    #[test]
    fn training_reduces_loss_and_separates_classes() {
        let (graphs, labels) = dataset(1);
        let d = graphs[0].nodes[0].features.len();
        let mut rng = Rng::seed_from_u64(2);
        let mut enc = Encoder::Gin(Gin::new(d, &[16], 8, &mut rng));

        let sep = |enc: &Encoder| {
            // Mean between-class distance minus mean within-class distance.
            let embs = embed_all(enc, &graphs);
            let mut within = Vec::new();
            let mut between = Vec::new();
            for i in 0..graphs.len() {
                for j in (i + 1)..graphs.len() {
                    let dist = euclidean(embs.row(i), embs.row(j));
                    if labels[i] == labels[j] {
                        within.push(dist);
                    } else {
                        between.push(dist);
                    }
                }
            }
            fexiot_tensor::stats::mean(&between) - fexiot_tensor::stats::mean(&within)
        };

        let before = sep(&enc);
        let cfg = ContrastiveConfig {
            epochs: 8,
            pairs_per_epoch: 48,
            lr: 3e-3,
            ..Default::default()
        };
        train_contrastive(&mut enc, &graphs, &labels, &cfg);
        let after = sep(&enc);
        assert!(
            after > before,
            "separation did not improve: before {before}, after {after}"
        );
    }

    #[test]
    fn single_class_dataset_trains_without_panic() {
        let (graphs, _) = dataset(3);
        let labels = vec![0usize; graphs.len()];
        let d = graphs[0].nodes[0].features.len();
        let mut rng = Rng::seed_from_u64(4);
        let mut enc = Encoder::Gin(Gin::new(d, &[8], 4, &mut rng));
        let cfg = ContrastiveConfig {
            epochs: 2,
            pairs_per_epoch: 8,
            ..Default::default()
        };
        let loss = train_contrastive(&mut enc, &graphs, &labels, &cfg);
        assert!(loss.is_finite());
    }

    #[test]
    fn embed_all_shapes() {
        let (graphs, _) = dataset(5);
        let d = graphs[0].nodes[0].features.len();
        let mut rng = Rng::seed_from_u64(6);
        let enc = Encoder::Gin(Gin::new(d, &[8], 4, &mut rng));
        let m = embed_all(&enc, &graphs[..10]);
        assert_eq!(m.shape(), (10, 4));
    }
}
