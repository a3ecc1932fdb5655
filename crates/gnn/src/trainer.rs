//! Siamese contrastive training of graph encoders (paper §III-B1, Eq. 2):
//! same-class pairs are pulled together, different-class pairs are pushed
//! apart up to a margin `k`. The learned representations feed each client's
//! linear `SGDClassifier` head.

use crate::encoder::Encoder;
use fexiot_graph::{runtime_slot as slot, GraphDataset, InteractionGraph};
use fexiot_par::{PairScope, ParPool};
use fexiot_tensor::autograd::{Tape, Var};
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
    train_contrastive_with(&fexiot_par::pool(), encoder, graphs, labels, config)
}

/// [`train_contrastive`] on an explicit pool. Pair sampling, the Adam update,
/// and the loss accumulation stay on the calling thread; each step's two
/// Siamese branches build and differentiate their tapes concurrently on a
/// [`PairScope`] (see [`step`]) — the per-step f64 operation sequence is
/// identical at any thread count, so the trained parameters are bit-equal to
/// the sequential run's.
pub fn train_contrastive_with(
    pool: &ParPool,
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

    let mut adam = Adam::new(config.lr, encoder.params());
    let mut last_loss = 0.0;
    let mut total_steps = 0usize;
    pool.scope_pair(|scope| {
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
                step(
                    encoder,
                    &mut adam,
                    scope,
                    &graphs[i],
                    &graphs[j],
                    different,
                    margin,
                    &mut epoch_loss,
                );
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
    });
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

/// One Siamese branch: a fresh tape with the encoder registered and one
/// graph forwarded.
fn branch<'e>(encoder: &'e Encoder, g: &InteractionGraph) -> (Tape<'e>, Vec<Var>, Var) {
    let mut tape = Tape::new();
    let vars = encoder.register(&mut tape);
    let z = encoder.forward_with(&mut tape, &vars, g);
    (tape, vars, z)
}

/// One contrastive step on a pair; accumulates the loss value.
///
/// The two Siamese branches are independent computations over the same
/// parameters, so each builds its own [`Tape`] — concurrently via
/// [`PairScope::join2`] — and a tiny junction tape evaluates Eq. (2) on the
/// two embeddings, yielding the upstream gradient seeds for
/// [`Tape::backward_seeded`] on each branch. Bit-identity with the historic
/// single-tape step: every encoder parameter is referenced exactly once per
/// branch forward, and the single-tape reverse walk visited the `zb` branch
/// first (higher node indices) then added the `za` contribution with
/// `axpy(1.0, ..)` — the per-parameter combine below replays exactly that
/// `g_b + g_a` operation order, and the junction tape replays the identical
/// loss ops, so every f64 in the update matches the sequential run.
#[allow(clippy::too_many_arguments)]
fn step(
    encoder: &mut Encoder,
    adam: &mut Adam,
    scope: &PairScope,
    ga: &InteractionGraph,
    gb: &InteractionGraph,
    different: bool,
    margin: f64,
    epoch_loss: &mut f64,
) {
    let y = if different { 1.0 } else { 0.0 }; // Eq. (2): y = 1 for different classes
    let enc: &Encoder = encoder;
    let ((tape_b, vars_b, zb), (tape_a, vars_a, za)) =
        scope.join2(|| branch(enc, gb), || branch(enc, ga));
    // Junction: Eq. (2) on the two boundary embeddings, registered as params
    // of a third tape so its backward yields the branch gradient seeds.
    let mut tj = Tape::new();
    let pa = tj.param(tape_a.value(za).clone());
    let pb = tj.param(tape_b.value(zb).clone());
    let d2 = tj.sq_distance(pa, pb);
    // Eq. (2): L = d^2 (1 - y) + max(0, k - d^2) y.
    let pull = tj.scale(d2, 1.0 - y);
    let neg = tj.scale(d2, -1.0);
    let marg = tj.add_scalar(neg, margin);
    let hinge = tj.relu(marg);
    let push = tj.scale(hinge, y);
    let loss = tj.add(pull, push);
    let gj = tj.backward(loss);
    let seed_a = gj.get(pa, tape_a.value(za));
    let seed_b = gj.get(pb, tape_b.value(zb));
    let (mut grads_b, mut grads_a) = scope.join2(
        || tape_b.backward_seeded(zb, seed_b),
        || tape_a.backward_seeded(za, seed_a),
    );
    let gs: Vec<Matrix> = vars_a
        .iter()
        .zip(vars_b.iter())
        .zip(encoder.params())
        .map(|((&va, &vb), p)| {
            // Single-tape accumulation order: slot initialized by the zb
            // branch, za branch added via axpy. Both are moved out, not
            // cloned.
            match (grads_b.take(vb), grads_a.take(va)) {
                (Some(mut g), Some(ga_)) => {
                    g.axpy(1.0, &ga_);
                    g
                }
                (Some(g), None) | (None, Some(g)) => g,
                (None, None) => Matrix::zeros(p.rows(), p.cols()),
            }
        })
        .collect();
    // The norm reduction is a full pass over every gradient, so only pay
    // for it while observability is on.
    if fexiot_obs::global_enabled() {
        let sq_sum: f64 = gs
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
    adam.step(encoder.params_mut(), &gs);
    *epoch_loss += tj.value(loss)[(0, 0)];
}

/// Embeds every graph into a row matrix.
pub fn embed_all(encoder: &Encoder, graphs: &[InteractionGraph]) -> Matrix {
    embed_all_with(&fexiot_par::pool(), encoder, graphs)
}

/// [`embed_all`] on an explicit pool. Each row is a pure function of one
/// graph, so rows are scattered across the pool and gathered in graph order.
pub fn embed_all_with(pool: &ParPool, encoder: &Encoder, graphs: &[InteractionGraph]) -> Matrix {
    assert!(!graphs.is_empty(), "embed_all: empty input");
    let rows: Vec<Vec<f64>> = pool.map_indexed(graphs, |_, g| encoder.embed(g));
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
    head_features_all_with(&fexiot_par::pool(), encoder, graphs)
}

/// [`head_features_all`] on an explicit pool (pure per-graph rows, gathered
/// in graph order).
pub fn head_features_all_with(
    pool: &ParPool,
    encoder: &Encoder,
    graphs: &[InteractionGraph],
) -> Matrix {
    assert!(!graphs.is_empty(), "head_features_all: empty input");
    let rows: Vec<Vec<f64>> = pool.map_indexed(graphs, |_, g| head_features(encoder, g));
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

    /// All f64 entries of all parameter matrices, as raw bits.
    fn param_bits(enc: &Encoder) -> Vec<u64> {
        enc.params()
            .iter()
            .flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn training_is_bit_identical_at_any_thread_count() {
        let (graphs, labels) = dataset(7);
        let d = graphs[0].nodes[0].features.len();
        let cfg = ContrastiveConfig {
            epochs: 2,
            pairs_per_epoch: 16,
            ..Default::default()
        };
        let run = |threads: usize| {
            let mut rng = Rng::seed_from_u64(8);
            let mut enc = Encoder::Gin(Gin::new(d, &[8], 4, &mut rng));
            let loss = train_contrastive_with(
                &fexiot_par::ParPool::new(threads),
                &mut enc,
                &graphs,
                &labels,
                &cfg,
            );
            (loss.to_bits(), param_bits(&enc))
        };
        let baseline = run(1);
        for threads in [2, 7] {
            assert_eq!(run(threads), baseline, "threads={threads}");
        }
    }

    #[test]
    fn batch_embeds_are_bit_identical_at_any_thread_count() {
        let (graphs, _) = dataset(9);
        let d = graphs[0].nodes[0].features.len();
        let mut rng = Rng::seed_from_u64(10);
        let enc = Encoder::Gin(Gin::new(d, &[8], 4, &mut rng));
        let bits = |m: Matrix| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
        let base_embed = bits(embed_all_with(&fexiot_par::ParPool::new(1), &enc, &graphs));
        let base_head = bits(head_features_all_with(
            &fexiot_par::ParPool::new(1),
            &enc,
            &graphs,
        ));
        for threads in [2, 7] {
            let pool = fexiot_par::ParPool::new(threads);
            assert_eq!(bits(embed_all_with(&pool, &enc, &graphs)), base_embed);
            assert_eq!(
                bits(head_features_all_with(&pool, &enc, &graphs)),
                base_head
            );
        }
    }
}
