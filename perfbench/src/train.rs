//! `train`: closed loop, cycles back to back. One cycle is a cold
//! featurize of a fresh seeded dataset, `FexIot::train` (GIN), and
//! persisting model and dataset into a new artifact store; the store is
//! then reopened and both are warm-loaded and checked. Without this
//! workload, corpus indexing, graph fusion and the contrastive trainer
//! would only show inside `setup_s`, and the store would not be measured.
//! Writes and reads share one workload, so a gain on one side that costs
//! the other shows.

use crate::common::{
    fnv, gen_dataset, mix, ns_since, train_model, BenchStore, ProbeInputs, Scale, StoreCounts,
    DIGEST_SEED,
};
use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::workload::{Call, Workload};
use fexiot::{dataset_identity, model_identity, FexIot, FexIotConfig};
use fexiot_gnn::EncoderKind;
use fexiot_graph::serialize::{dataset_from_bytes, dataset_to_bytes};
use fexiot_graph::{DatasetConfig, GraphDataset};
use fexiot_store::ArtifactKind;
use fexiot_tensor::Rng;
use std::time::Instant;

pub struct Train {
    scale: Scale,
    seed: u64,
    /// The first cycle's model and training data, for the layer probes.
    config: FexIotConfig,
    model: FexIot,
    train: GraphDataset,
    /// Per cycle: held-out accuracy, warm-load time and store traffic.
    accuracy: Vec<f64>,
    warm_ns: Vec<u64>,
    counts: StoreCounts,
    graphs: u64,
}

fn dataset_config(scale: Scale) -> DatasetConfig {
    let mut cfg = DatasetConfig::small_ifttt();
    cfg.graph_count = scale.pick(40, 300);
    cfg
}

fn model_config(scale: Scale, seed: u64) -> FexIotConfig {
    let mut cfg = FexIotConfig::default().with_seed(seed);
    if scale.tiny {
        cfg.contrastive.epochs = 1;
        cfg.contrastive.pairs_per_epoch = 16;
    }
    cfg
}

/// The seed of cycle `i`: every cycle featurizes and trains afresh.
fn cycle_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

struct Cycle {
    model: FexIot,
    train: GraphDataset,
    accuracy: f64,
    cold_ns: u64,
    warm_ns: u64,
    digest: u64,
    failure: Option<String>,
    counts: StoreCounts,
}

fn cycle(scale: Scale, seed: u64, t: &Tracer) -> Cycle {
    let ds_cfg = dataset_config(scale);
    let cfg = model_config(scale, seed);
    let mut store = BenchStore::new("train");
    let model_id = model_identity(seed, ds_cfg.graph_count, EncoderKind::Gin);
    let data_id = dataset_identity(seed, ds_cfg.graph_count, false);

    let t0 = Instant::now();
    let ds = gen_dataset(&ds_cfg, &mut Rng::seed_from_u64(seed), t);
    let (train, test) = ds.train_test_split(0.7, &mut Rng::seed_from_u64(seed ^ 0x5EED));
    let model = train_model(&train, cfg, t);
    let model_bytes = t.span("core.save", || model.save_to_bytes());
    let data_bytes = t.span("graph.encode", || dataset_to_bytes(&ds));
    store.put(ArtifactKind::Model, &model_id, None, &model_bytes, t);
    store.put(ArtifactKind::Dataset, &data_id, None, &data_bytes, t);
    let cold_ns = ns_since(t0);

    let t0 = Instant::now();
    store.reopen(t);
    let warm = store
        .get(ArtifactKind::Model, &model_id, None, t)
        .and_then(|m| Ok((m, store.get(ArtifactKind::Dataset, &data_id, None, t)?)))
        .and_then(|(m, d)| {
            let model = t.span("core.load", || FexIot::load_from_bytes(&m));
            let data = t.span("graph.decode", || dataset_from_bytes(&d));
            Ok((
                model.map_err(|e| e.to_string())?,
                data.map_err(|e| e.to_string())?,
            ))
        });
    let warm_ns = ns_since(t0);
    let failure = match warm {
        Err(e) => Some(e),
        Ok((m, _)) if m.save_to_bytes() != model_bytes => {
            Some("warm-loaded model differs from the trained one".into())
        }
        Ok((_, d)) if d.graphs != ds.graphs => Some("warm-loaded dataset differs".into()),
        Ok(_) => None,
    };
    let accuracy = model.evaluate(&test).accuracy;
    let digest = mix(
        DIGEST_SEED,
        &[fnv(&model_bytes), fnv(&data_bytes), accuracy.to_bits()],
    );
    Cycle {
        model,
        train,
        accuracy,
        cold_ns,
        warm_ns,
        digest: mix(digest, &store.counts.words()),
        failure,
        counts: store.counts,
    }
}

impl Workload for Train {
    /// Set-up is the first cycle, untimed: its model and data feed the
    /// layer probes.
    fn setup(scale: Scale, seed: u64, t: &Tracer) -> Self {
        let first = cycle(scale, cycle_seed(seed, 0), t);
        Self {
            scale,
            seed,
            config: model_config(scale, cycle_seed(seed, 0)),
            model: first.model,
            train: first.train,
            accuracy: Vec::new(),
            warm_ns: Vec::new(),
            counts: StoreCounts::default(),
            graphs: dataset_config(scale).graph_count as u64,
        }
    }

    fn call(&mut self, i: usize, t: &Tracer) -> Call {
        let c = cycle(self.scale, cycle_seed(self.seed, i + 1), t);
        if let Some(e) = &c.failure {
            eprintln!("train cycle {i}: {e}");
        }
        self.accuracy.push(c.accuracy);
        self.warm_ns.push(c.warm_ns);
        for (total, add) in [
            (&mut self.counts.puts, c.counts.puts),
            (&mut self.counts.hits, c.counts.hits),
            (&mut self.counts.misses, c.counts.misses),
            (&mut self.counts.corrupt, c.counts.corrupt),
            (&mut self.counts.bytes_written, c.counts.bytes_written),
            (&mut self.counts.bytes_read, c.counts.bytes_read),
        ] {
            *total += add;
        }
        self.graphs += dataset_config(self.scale).graph_count as u64;
        Call {
            ops: 1,
            failed: u64::from(c.failure.is_some()),
            digest: c.digest,
            wall_ns: c.cold_ns,
        }
    }

    fn min_calls(&self) -> usize {
        self.scale.pick(2, 24)
    }

    fn period(&self) -> Option<usize> {
        None
    }

    /// Mean over the first `min_calls` cycles, which every pass runs, so
    /// the value depends on the seed alone.
    fn accuracy(&mut self) -> f64 {
        let n = self.min_calls().min(self.accuracy.len());
        self.accuracy[..n].iter().sum::<f64>() / n.max(1) as f64
    }

    /// Each cycle warm-loads its own store; these are its times.
    fn warm_loads(&mut self, _reps: usize, _t: &Tracer) -> Result<Vec<u64>, String> {
        Ok(std::mem::take(&mut self.warm_ns))
    }

    fn store_counts(&self) -> StoreCounts {
        self.counts
    }

    fn graphs(&self) -> u64 {
        self.graphs
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        ProbeInputs {
            encoder: &self.model.scorer().encoder,
            config: &self.config,
            train: &self.train.graphs,
            contrastive: self.config.contrastive.clone(),
            model: Some(&self.model),
        }
    }

    /// Each contrastive step is one pair rendezvous on the pool.
    fn fanouts(&self, calls: &[Call]) -> u64 {
        (calls.len() * self.config.contrastive.epochs * self.config.contrastive.pairs_per_epoch)
            as u64
    }

    fn layers(&mut self, _calls: &[Call], _t: &Tracer, _m: &mut Metrics) {}
}
