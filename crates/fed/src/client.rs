//! A federated client: one household holding its own interaction graphs, a
//! local copy of the shared GNN representation model, and a private linear
//! classification head (paper §III-B: "each client reserves two models").

use fexiot_gnn::{head_features_all, train_contrastive, ContrastiveConfig, Encoder};
use fexiot_graph::GraphDataset;
use fexiot_ml::{Metrics, SgdClassifier, SgdConfig};
use fexiot_tensor::matrix::Matrix;
use fexiot_tensor::optim::{param_sub, ParamVec};

/// One simulated household.
pub struct Client {
    pub id: usize,
    pub encoder: Encoder,
    pub data: GraphDataset,
    /// Binary labels aligned with `data.graphs` (head training/eval).
    pub labels: Vec<usize>,
    /// Fine-grained classes (contrastive representation training).
    pub classes: Vec<usize>,
    /// The model update `W_after - W_before` of the last local round.
    pub last_delta: Option<ParamVec>,
    /// Flattened update history (most recent last), for GCFL+-style
    /// gradient-sequence clustering.
    pub update_history: Vec<Vec<f64>>,
    head: Option<SgdClassifier>,
}

impl Client {
    pub fn new(id: usize, encoder: Encoder, data: GraphDataset) -> Self {
        let labels = data.graphs.iter().map(GraphDataset::binary_label).collect();
        let classes = data.graphs.iter().map(GraphDataset::class_of).collect();
        Self {
            id,
            encoder,
            data,
            labels,
            classes,
            last_delta: None,
            update_history: Vec::new(),
            head: None,
        }
    }

    /// Number of local graphs (the FedAvg weight `|G_ci|`).
    pub fn sample_count(&self) -> usize {
        self.data.len()
    }

    /// One round of local contrastive training; records the parameter delta.
    pub fn local_train(&mut self, config: &ContrastiveConfig) -> f64 {
        let before = self.encoder.params().clone();
        let mut cfg = config.clone();
        // Decorrelate pair sampling across clients and rounds.
        cfg.seed ^= (self.id as u64).wrapping_mul(0x9E3779B97F4A7C15);
        let loss = train_contrastive(&mut self.encoder, &self.data.graphs, &self.classes, &cfg);
        let delta = param_sub(self.encoder.params(), &before);
        let mut flat = Vec::new();
        for m in &delta {
            flat.extend_from_slice(m.as_slice());
        }
        self.update_history.push(flat);
        if self.update_history.len() > 8 {
            self.update_history.remove(0);
        }
        self.last_delta = Some(delta);
        loss
    }

    /// [`Client::local_train`] with client-side instrumentation recorded on
    /// `obs` (in the simulator this is the client's own child registry, later
    /// merged into the round trace): a `fed.client.local_train` span, the
    /// wall-clock `fed.client.step_us` histogram (timing data by the `_us`
    /// naming convention, so deterministic exports drop it), and the
    /// deterministic `fed.client.update_norm` histogram.
    pub fn local_train_traced(
        &mut self,
        config: &ContrastiveConfig,
        obs: &std::sync::Arc<fexiot_obs::Registry>,
    ) -> f64 {
        let started = std::time::Instant::now();
        let loss = {
            let _s = obs.span("fed.client.local_train");
            self.local_train(config)
        };
        obs.hist_record(
            "fed.client.step_us",
            fexiot_obs::buckets::TIME_US,
            started.elapsed().as_micros().min(u64::MAX as u128) as f64,
        );
        if let Some(d) = &self.last_delta {
            obs.hist_record(
                "fed.client.update_norm",
                fexiot_obs::buckets::NORM,
                fexiot_tensor::optim::param_norm(d),
            );
        }
        loss
    }

    /// Privatizes the last recorded update in place (paper §VI, differential
    /// privacy): the model the server will read becomes
    /// `W_before + clip_and_noise(ΔW)`. The recorded delta and the update
    /// history are replaced with the privatized versions (that is all the
    /// server may ever observe).
    pub fn privatize_last_update(
        &mut self,
        config: &crate::dp::DpConfig,
        rng: &mut fexiot_tensor::rng::Rng,
    ) {
        let Some(delta) = self.last_delta.clone() else {
            return;
        };
        // W_before = W_after - delta.
        let mut before = self.encoder.params().clone();
        for (b, d) in before.iter_mut().zip(&delta) {
            b.axpy(-1.0, d);
        }
        let mut private = delta;
        crate::dp::privatize_update(&mut private, config, rng);
        let mut new_params = before;
        for (p, d) in new_params.iter_mut().zip(&private) {
            p.axpy(1.0, d);
        }
        self.encoder.set_params(new_params);
        let mut flat = Vec::new();
        for m in &private {
            flat.extend_from_slice(m.as_slice());
        }
        if let Some(last) = self.update_history.last_mut() {
            *last = flat;
        }
        self.last_delta = Some(private);
        self.head = None;
    }

    /// Installs aggregated global weights (federated download).
    pub fn install(&mut self, params: ParamVec) {
        self.encoder.set_params(params);
        self.head = None; // Representations moved; the head must be refit.
    }

    /// Installs a single layer's aggregated matrices (FexIoT layer-wise sync).
    /// `offset` is the index of the layer's first matrix in the parameter list.
    pub fn install_layer(&mut self, offset: usize, layer: &[Matrix]) {
        let params = self.encoder.params_mut();
        for (i, m) in layer.iter().enumerate() {
            assert_eq!(
                params[offset + i].shape(),
                m.shape(),
                "install_layer: shape mismatch"
            );
            params[offset + i] = m.clone();
        }
        self.head = None;
    }

    /// Trains the private linear head on local representations, with
    /// inverse-frequency class weights (the paper's weighted loss).
    pub fn fit_head(&mut self) {
        if self.data.is_empty() {
            return;
        }
        let x = head_features_all(&self.encoder, &self.data.graphs);
        let pos = self.labels.iter().filter(|&&l| l == 1).count();
        let neg = self.labels.len() - pos;
        let class_weights = if pos > 0 && neg > 0 {
            let total = self.labels.len() as f64;
            vec![total / (2.0 * neg as f64), total / (2.0 * pos as f64)]
        } else {
            Vec::new()
        };
        self.head = Some(SgdClassifier::fit(
            &x,
            &self.labels,
            SgdConfig {
                class_weights,
                seed: self.id as u64,
                ..Default::default()
            },
        ));
    }

    /// True once a head has been trained since the last weight install.
    pub fn has_head(&self) -> bool {
        self.head.is_some()
    }

    /// Predicts binary labels for a set of graphs (fits the head on demand).
    pub fn predict(&mut self, test: &GraphDataset) -> Vec<usize> {
        if self.head.is_none() {
            self.fit_head();
        }
        match (&self.head, test.is_empty()) {
            (Some(head), false) => {
                let x = head_features_all(&self.encoder, &test.graphs);
                head.predict(&x)
            }
            _ => vec![0; test.len()],
        }
    }

    /// Evaluates on a test set.
    pub fn evaluate(&mut self, test: &GraphDataset) -> Metrics {
        let truth: Vec<usize> = test.graphs.iter().map(GraphDataset::binary_label).collect();
        Metrics::from_predictions(&self.predict(test), &truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fexiot_gnn::Gin;
    use fexiot_graph::{generate_dataset, DatasetConfig};
    use fexiot_tensor::rng::Rng;

    fn setup(seed: u64) -> (Client, GraphDataset) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut cfg = DatasetConfig::small_ifttt();
        cfg.graph_count = 60;
        let ds = generate_dataset(&cfg, &mut rng);
        let (train, test) = ds.train_test_split(0.7, &mut rng);
        let d = train.graphs[0].nodes[0].features.len();
        let enc = Encoder::Gin(Gin::new(d, &[12], 6, &mut rng));
        (Client::new(0, enc, train), test)
    }

    #[test]
    fn local_training_records_delta() {
        let (mut client, _) = setup(1);
        assert!(client.last_delta.is_none());
        let cfg = ContrastiveConfig {
            epochs: 1,
            pairs_per_epoch: 8,
            ..Default::default()
        };
        client.local_train(&cfg);
        let delta = client.last_delta.as_ref().unwrap();
        let norm: f64 = delta.iter().map(|m| m.frobenius_norm()).sum();
        assert!(norm > 0.0, "training produced no update");
        assert_eq!(client.update_history.len(), 1);
    }

    #[test]
    fn head_beats_coin_flip_on_train_data() {
        let (mut client, _) = setup(2);
        let cfg = ContrastiveConfig {
            epochs: 6,
            pairs_per_epoch: 48,
            ..Default::default()
        };
        client.local_train(&cfg);
        let train = client.data.clone();
        let m = client.evaluate(&train);
        assert!(m.accuracy > 0.55, "train accuracy {}", m.accuracy);
    }

    #[test]
    fn install_resets_head() {
        let (mut client, test) = setup(3);
        let _ = client.evaluate(&test);
        assert!(client.has_head());
        let params = client.encoder.params().clone();
        client.install(params);
        assert!(!client.has_head());
    }

    #[test]
    fn install_layer_overwrites_slice() {
        let (mut client, _) = setup(4);
        let zeroed: Vec<Matrix> = client.encoder.params()[..2]
            .iter()
            .map(|m| Matrix::zeros(m.rows(), m.cols()))
            .collect();
        client.install_layer(0, &zeroed);
        assert_eq!(client.encoder.params()[0].sum(), 0.0);
        assert_eq!(client.encoder.params()[1].sum(), 0.0);
        assert!(client.encoder.params()[2].sum() != 0.0);
    }
}
