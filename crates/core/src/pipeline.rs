//! The end-to-end FexIoT pipeline for a single deployment: train the
//! contrastive GNN + linear head on labeled interaction graphs, filter
//! drifting samples with the MAD rule, detect vulnerable interactions, and
//! explain detections with the SHAP-guided beam search.

use crate::config::{FexIotConfig, MAX_EXPLAIN_BUDGET};
use fexiot_explain::{explain, fexiot_config, Explanation, GraphScorer};
use fexiot_gnn::{
    head_features, head_features_all, train_contrastive, Encoder, EncoderKind, Gcn, Gin, Magnn,
};
use fexiot_graph::{FeatureConfig, GraphDataset, InteractionGraph, Platform};
use fexiot_ml::{DriftDetector, Metrics, SgdClassifier, SgdConfig};
use fexiot_tensor::rng::Rng;

/// Outcome of analyzing one interaction graph.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Model's vulnerability verdict.
    pub vulnerable: bool,
    /// P(vulnerable) from the linear head.
    pub score: f64,
    /// True if the sample lies outside the training distribution (paper
    /// §III-B3) and should be routed to manual inspection.
    pub drifting: bool,
}

/// A trained FexIoT instance.
pub struct FexIot {
    config: FexIotConfig,
    scorer: GraphScorer,
    drift: DriftDetector,
}

/// Builds an encoder of the configured kind for the given feature dims.
pub fn build_encoder(
    kind: &EncoderKind,
    features: FeatureConfig,
    hidden: &[usize],
    embed_dim: usize,
    rng: &mut Rng,
) -> Encoder {
    match kind {
        EncoderKind::Gcn => Encoder::Gcn(Gcn::new(
            features.node_dim(Platform::Ifttt),
            hidden,
            embed_dim,
            rng,
        )),
        EncoderKind::Gin => Encoder::Gin(Gin::new(
            features.node_dim(Platform::Ifttt),
            hidden,
            embed_dim,
            rng,
        )),
        EncoderKind::Magnn => {
            let h = hidden.first().copied().unwrap_or(32);
            Encoder::Magnn(Magnn::for_config(
                features,
                h,
                (h / 2).max(4),
                embed_dim,
                rng,
            ))
        }
    }
}

impl FexIot {
    /// Trains the full pipeline on a labeled dataset.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn train(dataset: &GraphDataset, config: FexIotConfig) -> Self {
        assert!(!dataset.is_empty(), "fexiot: empty training dataset");
        let _span = fexiot_obs::span("train");
        let mut rng = Rng::seed_from_u64(config.seed);
        let labels: Vec<usize> = dataset
            .graphs
            .iter()
            .map(GraphDataset::binary_label)
            .collect();
        // Representations are trained on the fine-grained classes (benign +
        // six kinds + external); only the head is binary. This is what makes
        // Fig. 6's seven clusters separable in latent space.
        let classes: Vec<usize> = dataset.graphs.iter().map(GraphDataset::class_of).collect();

        let mut encoder = build_encoder(
            &config.encoder,
            config.features,
            &config.hidden,
            config.embed_dim,
            &mut rng,
        );
        // Boundary markers segment the live event stream into phases even
        // when a consumer tails it mid-span (span_close arrives much later).
        fexiot_obs::mark("train.contrastive");
        {
            let _s = fexiot_obs::span("train.contrastive");
            train_contrastive(&mut encoder, &dataset.graphs, &classes, &config.contrastive);
        }

        let x = head_features_all(&encoder, &dataset.graphs);
        let pos = labels.iter().filter(|&&l| l == 1).count();
        let neg = labels.len() - pos;
        let class_weights = if pos > 0 && neg > 0 {
            let total = labels.len() as f64;
            vec![total / (2.0 * neg as f64), total / (2.0 * pos as f64)]
        } else {
            Vec::new()
        };
        fexiot_obs::mark("train.head");
        let head = {
            let _s = fexiot_obs::span("train.head");
            SgdClassifier::fit(
                &x,
                &labels,
                SgdConfig {
                    class_weights,
                    seed: config.seed,
                    ..Default::default()
                },
            )
        };
        fexiot_obs::mark("train.drift");
        let drift = {
            let _s = fexiot_obs::span("train.drift");
            DriftDetector::fit(&x, &labels, config.drift_threshold)
        };
        Self {
            config,
            scorer: GraphScorer::new(encoder, head),
            drift,
        }
    }

    /// Analyzes one graph: drift check + vulnerability score.
    pub fn detect(&self, graph: &InteractionGraph) -> Detection {
        let features = head_features(&self.scorer.encoder, graph);
        let drifting = self.drift.is_drifting(&features);
        let score = self.scorer.head.proba(&features);
        Detection {
            vulnerable: score >= 0.5,
            score,
            drifting,
        }
    }

    /// Explains a (detected) vulnerable graph with the SHAP-guided MCBS.
    pub fn explain(&self, graph: &InteractionGraph) -> Explanation {
        let cfg = fexiot_config(
            self.config.explain_iterations,
            self.config.explain_min_nodes,
            self.config.shap_samples,
        );
        explain(&self.scorer, graph, &cfg)
    }

    /// Evaluates detection metrics on a labeled test set.
    pub fn evaluate(&self, test: &GraphDataset) -> Metrics {
        let preds: Vec<usize> = test
            .graphs
            .iter()
            .map(|g| usize::from(self.detect(g).vulnerable))
            .collect();
        let truth: Vec<usize> = test.graphs.iter().map(GraphDataset::binary_label).collect();
        Metrics::from_predictions(&preds, &truth)
    }

    /// Indices of drifting samples in a dataset (for manual inspection).
    pub fn filter_drifting(&self, dataset: &GraphDataset) -> Vec<usize> {
        dataset
            .graphs
            .iter()
            .enumerate()
            .filter(|(_, g)| self.detect(g).drifting)
            .map(|(i, _)| i)
            .collect()
    }

    /// Access to the underlying scorer (benchmarks and explanation studies).
    pub fn scorer(&self) -> &GraphScorer {
        &self.scorer
    }

    /// Serialized model size in bytes (Table III's "Model Size" column):
    /// encoder parameters plus the linear head, at f64 wire width.
    pub fn model_bytes(&self) -> usize {
        fexiot_tensor::optim::param_bytes(self.scorer.encoder.params())
            + (self.scorer.head.weights.len() + 1) * std::mem::size_of::<f64>()
    }

    /// Serializes the trained pipeline (encoder + head + drift detector +
    /// inference configuration) for on-device checkpointing.
    pub fn save_to_bytes(&self) -> Vec<u8> {
        let mut w = fexiot_tensor::codec::ByteWriter::new();
        w.write_u64(0xFE_10_07_F1_7E_00_00_01);
        let enc = fexiot_gnn::encoder_to_bytes(&self.scorer.encoder);
        w.write_usize(enc.len());
        for b in &enc {
            w.write_u8(*b);
        }
        let head = self.scorer.head.to_bytes();
        w.write_usize(head.len());
        for b in &head {
            w.write_u8(*b);
        }
        let drift = self.drift.to_bytes();
        w.write_usize(drift.len());
        for b in &drift {
            w.write_u8(*b);
        }
        w.write_usize(self.config.explain_iterations);
        w.write_usize(self.config.explain_min_nodes);
        w.write_usize(self.config.shap_samples);
        w.write_f64(self.config.drift_threshold);
        w.into_bytes()
    }

    /// Restores a pipeline saved by [`FexIot::save_to_bytes`]. Training
    /// hyperparameters are not persisted (the restored model is for
    /// inference and explanation). The head and the drift detector must
    /// read the encoder's head features, and the explanation budget must
    /// be within [`MAX_EXPLAIN_BUDGET`]; anything else is an error, never a
    /// panic.
    pub fn load_from_bytes(bytes: &[u8]) -> Result<Self, fexiot_tensor::codec::CodecError> {
        use fexiot_tensor::codec::{ByteReader, CodecError};
        let mut r = ByteReader::new(bytes);
        if r.read_u64()? != 0xFE_10_07_F1_7E_00_00_01 {
            return Err(CodecError::BadHeader);
        }
        fn read_blob<'a>(r: &mut ByteReader<'a>) -> Result<&'a [u8], CodecError> {
            let len = r.read_usize()?;
            r.read_bytes(len)
        }
        let enc = read_blob(&mut r)?;
        let head = read_blob(&mut r)?;
        let drift = read_blob(&mut r)?;
        let encoder = fexiot_gnn::encoder_from_bytes(enc)?;
        let head = SgdClassifier::from_bytes(head)?;
        let drift = DriftDetector::from_bytes(drift)?;
        let config = FexIotConfig {
            explain_iterations: r.read_usize()?,
            explain_min_nodes: r.read_usize()?,
            shap_samples: r.read_usize()?,
            drift_threshold: r.read_f64()?,
            ..FexIotConfig::default()
        };
        let dim = fexiot_gnn::head_feature_dim(&encoder);
        if head.weights.len() != dim || drift.dim() != dim {
            return Err(CodecError::ShapeMismatch);
        }
        for budget in [config.explain_iterations, config.shap_samples] {
            if budget > MAX_EXPLAIN_BUDGET {
                return Err(CodecError::BadLength(budget as u64));
            }
        }
        Ok(Self {
            config,
            scorer: GraphScorer::new(encoder, head),
            drift,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fexiot_graph::{generate_dataset, DatasetConfig};

    fn split_dataset(seed: u64) -> (GraphDataset, GraphDataset) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut cfg = DatasetConfig::small_ifttt();
        cfg.graph_count = 100;
        let ds = generate_dataset(&cfg, &mut rng);
        ds.train_test_split(0.8, &mut rng)
    }

    #[test]
    fn end_to_end_beats_majority_class() {
        let (train, test) = split_dataset(1);
        let model = FexIot::train(&train, FexIotConfig::default().with_seed(1));
        let m = model.evaluate(&test);
        // Majority class is ~75% benign; the model must do meaningfully better
        // than random on the minority class too.
        assert!(m.accuracy > 0.6, "accuracy {}", m.accuracy);
        assert!(m.f1 > 0.2, "f1 {}", m.f1);
    }

    #[test]
    fn detection_has_probability_score() {
        let (train, test) = split_dataset(2);
        let model = FexIot::train(&train, FexIotConfig::default().with_seed(2));
        for g in &test.graphs[..5] {
            let d = model.detect(g);
            assert!((0.0..=1.0).contains(&d.score));
            assert_eq!(d.vulnerable, d.score >= 0.5);
        }
    }

    #[test]
    fn explanation_runs_on_test_graph() {
        let (train, test) = split_dataset(3);
        let model = FexIot::train(&train, FexIotConfig::default().with_seed(3));
        let g = test.graphs.iter().find(|g| g.node_count() >= 4).unwrap();
        let e = model.explain(g);
        assert!(!e.nodes.is_empty());
        assert!(e.nodes.len() <= g.node_count());
    }

    #[test]
    fn model_bytes_positive_and_stable() {
        let (train, _) = split_dataset(4);
        let model = FexIot::train(&train, FexIotConfig::default().with_seed(4));
        assert!(model.model_bytes() > 1000);
        assert_eq!(model.model_bytes(), model.model_bytes());
    }

    #[test]
    fn save_load_roundtrip_preserves_behavior() {
        let (train, test) = split_dataset(6);
        let model = FexIot::train(&train, FexIotConfig::default().with_seed(6));
        let bytes = model.save_to_bytes();
        let restored = FexIot::load_from_bytes(&bytes).expect("valid checkpoint");
        for g in &test.graphs {
            let a = model.detect(g);
            let b = restored.detect(g);
            assert_eq!(a.vulnerable, b.vulnerable);
            assert!((a.score - b.score).abs() < 1e-12);
            assert_eq!(a.drifting, b.drifting);
        }
        // Corruption is rejected, not panicked on.
        assert!(FexIot::load_from_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(FexIot::load_from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn inconsistent_checkpoints_are_errors() {
        use fexiot_tensor::codec::CodecError;
        let (train, _) = split_dataset(7);
        let mut cfg = FexIotConfig::default().with_seed(7);
        cfg.contrastive.epochs = 1;
        let mut model = FexIot::train(&train, cfg);
        // A head one weight wider than the encoder's head features.
        model.scorer.head.weights.push(0.0);
        let bytes = model.save_to_bytes();
        model.scorer.head.weights.pop();
        assert_eq!(
            FexIot::load_from_bytes(&bytes).err(),
            Some(CodecError::ShapeMismatch)
        );
        // Explanation budgets past the cap.
        for over in [MAX_EXPLAIN_BUDGET + 1, 1 << 32] {
            model.config.shap_samples = over;
            let bytes = model.save_to_bytes();
            assert_eq!(
                FexIot::load_from_bytes(&bytes).err(),
                Some(CodecError::BadLength(over as u64))
            );
        }
        model.config.shap_samples = 32;
        model.config.explain_iterations = MAX_EXPLAIN_BUDGET + 1;
        assert!(FexIot::load_from_bytes(&model.save_to_bytes()).is_err());
        model.config.explain_iterations = MAX_EXPLAIN_BUDGET;
        assert!(FexIot::load_from_bytes(&model.save_to_bytes()).is_ok());
    }

    #[test]
    fn magnn_pipeline_trains_on_hetero_data() {
        let mut rng = Rng::seed_from_u64(5);
        let mut cfg = DatasetConfig::small_hetero();
        cfg.graph_count = 50;
        let ds = generate_dataset(&cfg, &mut rng);
        let (train, test) = ds.train_test_split(0.8, &mut rng);
        let config = FexIotConfig::default()
            .with_encoder(EncoderKind::Magnn)
            .with_seed(5);
        let model = FexIot::train(&train, config);
        let m = model.evaluate(&test);
        assert!(m.accuracy > 0.4, "hetero accuracy {}", m.accuracy);
    }
}
