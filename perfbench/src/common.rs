//! Pieces every workload shares: traced data generation and training, the
//! counting store wrapper, the per-layer probes, digests and order
//! statistics.

use crate::trace::Tracer;
use fexiot::{build_encoder, FexIot, FexIotConfig};
use fexiot_gnn::{head_features, head_features_all, train_contrastive, ContrastiveConfig, Encoder};
use fexiot_graph::{
    dataset::generate_from_index, CorpusGenerator, CorpusIndex, DatasetConfig, GraphBuilder,
    GraphDataset, InteractionGraph, Platform,
};
use fexiot_ml::{DriftDetector, SgdClassifier, SgdConfig, DEFAULT_DRIFT_THRESHOLD};
use fexiot_obs::Registry;
use fexiot_store::{ArtifactKind, Identity, Store, StoreError};
use fexiot_tensor::{Matrix, Rng};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Workload sizing: `tiny` is the self-test size, the default is the
/// benchmark size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub tiny: bool,
}

impl Scale {
    pub fn pick<T>(&self, tiny: T, full: T) -> T {
        if self.tiny {
            tiny
        } else {
            full
        }
    }
}

/// Directory for stores and trace files, inside the working directory.
pub const OUT_DIR: &str = ".bench_out";

/// A per-process directory under [`OUT_DIR`], removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = Path::new(OUT_DIR).join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn fnv(bytes: &[u8]) -> u64 {
    fexiot_tensor::codec::fnv1a(bytes)
}

/// Folds `words` into a running FNV-1a digest.
pub fn mix(mut h: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// A rule corpus and its index: the smart-home platform's rule catalogue
/// that interaction graphs are sampled from.
pub struct Corpus {
    gen: CorpusGenerator,
    pub index: CorpusIndex,
    pub builder: GraphBuilder,
}

impl Corpus {
    pub fn new(cfg: &DatasetConfig, rng: &mut Rng, t: &Tracer) -> Self {
        let mut gen = CorpusGenerator::new();
        let rules = t.span("graph.corpus", || gen.generate(&cfg.corpus, rng));
        let index = t.span("nlp.index", || CorpusIndex::build(rules));
        Self {
            gen,
            index,
            builder: GraphBuilder::new(cfg.features),
        }
    }

    /// Samples and featurizes a labeled dataset over this corpus.
    pub fn graphs(&mut self, cfg: &DatasetConfig, rng: &mut Rng, t: &Tracer) -> GraphDataset {
        t.span("graph.fuse", || {
            generate_from_index(&self.builder, &self.index, &mut self.gen, cfg, rng)
        })
    }
}

/// `generate_dataset`, split into its three layer calls so each gets a
/// span: corpus generation, corpus indexing (rule-text matching), and
/// graph fusion. Same RNG sequence, so the dataset is bit-identical.
pub fn gen_dataset(cfg: &DatasetConfig, rng: &mut Rng, t: &Tracer) -> GraphDataset {
    Corpus::new(cfg, rng, t).graphs(cfg, rng, t)
}

pub fn train_model(train: &GraphDataset, cfg: FexIotConfig, t: &Tracer) -> FexIot {
    t.span("core.train", || FexIot::train(train, cfg))
}

/// Seed of the fixtures the workload seed does not vary: the deployed
/// model of `explain` and `serve`, and the fleet data of `federate`. Like a
/// model trained once and hot-loaded, they stay fixed while `--seed` draws
/// the inputs they process.
pub const FIXTURE_SEED: u64 = 42;

/// The deployed model, trained on 70% of a fixture dataset, and the
/// fixture corpus that seeded inputs are sampled from.
pub struct Fixture {
    pub model: FexIot,
    pub train: GraphDataset,
    pub corpus: Corpus,
}

impl Fixture {
    pub fn new(data: &DatasetConfig, config: FexIotConfig, t: &Tracer) -> Self {
        let mut rng = Rng::seed_from_u64(FIXTURE_SEED);
        let mut corpus = Corpus::new(data, &mut rng, t);
        let ds = corpus.graphs(data, &mut rng, t);
        let (train, _) = ds.train_test_split(0.7, &mut Rng::seed_from_u64(FIXTURE_SEED ^ 0x5EED));
        let model = train_model(&train, config.with_seed(FIXTURE_SEED), t);
        Self {
            model,
            train,
            corpus,
        }
    }
}

/// Store traffic as the benchmark saw it. Deterministic for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    pub puts: u64,
    pub hits: u64,
    pub misses: u64,
    pub corrupt: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
}

impl StoreCounts {
    pub fn words(&self) -> [u64; 6] {
        [
            self.puts,
            self.hits,
            self.misses,
            self.corrupt,
            self.bytes_written,
            self.bytes_read,
        ]
    }
}

/// An artifact store in a scratch directory, with every call counted and
/// traced as `store.put` / `store.get`.
pub struct BenchStore {
    pub dir: ScratchDir,
    store: Store,
    pub counts: StoreCounts,
}

impl BenchStore {
    pub fn new(tag: &str) -> Self {
        let dir = ScratchDir::new(tag);
        let store = Store::open(&dir.0).expect("open benchmark store");
        Self {
            dir,
            store,
            counts: StoreCounts::default(),
        }
    }

    /// Re-reads the manifest from disk, as a restarted process would.
    pub fn reopen(&mut self, t: &Tracer) {
        self.store = t
            .span("store.open", || Store::open(&self.dir.0))
            .expect("reopen store");
    }

    pub fn put(
        &mut self,
        kind: ArtifactKind,
        id: &Identity,
        round: Option<u64>,
        bytes: &[u8],
        t: &Tracer,
    ) {
        t.span("store.put", || match round {
            Some(r) => self.store.put_round(id, r, bytes),
            None => self.store.put(kind, id, bytes),
        })
        .expect("store put");
        self.counts.puts += 1;
        self.counts.bytes_written += bytes.len() as u64;
    }

    pub fn get(
        &mut self,
        kind: ArtifactKind,
        id: &Identity,
        round: Option<u64>,
        t: &Tracer,
    ) -> Result<Vec<u8>, String> {
        let got = t.span("store.get", || match round {
            Some(r) => self.store.get_round(id, r),
            None => self.store.get(kind, id),
        });
        match got {
            Ok(bytes) => {
                self.counts.hits += 1;
                self.counts.bytes_read += bytes.len() as u64;
                Ok(bytes)
            }
            Err(e) => {
                match e {
                    StoreError::Missing { .. } => self.counts.misses += 1,
                    StoreError::Corrupt { .. } => self.counts.corrupt += 1,
                    StoreError::Io { .. } => {}
                }
                Err(e.to_string())
            }
        }
    }
}

/// Hot-loads a model from the store and checks it is the model that was
/// stored; returns the load time.
pub fn warm_load_model(
    store: &mut BenchStore,
    id: &Identity,
    expect: &[u8],
    t: &Tracer,
) -> Result<u64, String> {
    let t0 = Instant::now();
    store.reopen(t);
    let bytes = store.get(ArtifactKind::Model, id, None, t)?;
    let model = t
        .span("core.load", || FexIot::load_from_bytes(&bytes))
        .map_err(|e| format!("corrupt model: {e}"))?;
    let ns = ns_since(t0);
    if model.save_to_bytes() != expect {
        return Err("warm-loaded model differs from the stored one".into());
    }
    Ok(ns)
}

/// What the shared per-layer probes run on.
pub struct ProbeInputs<'a> {
    pub encoder: &'a Encoder,
    pub config: &'a FexIotConfig,
    pub train: &'a [InteractionGraph],
    pub contrastive: ContrastiveConfig,
    pub model: Option<&'a FexIot>,
}

fn mean_us(total_ns: u64, calls: usize) -> f64 {
    total_ns as f64 / 1e3 / calls.max(1) as f64
}

/// Unit costs of the layers every workload shares, measured on the
/// workload's own model and data. Returns `(name, value)` pairs.
pub fn shared_probes(p: &ProbeInputs, t: &Tracer) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut rng = Rng::seed_from_u64(0x9B0BE5);

    // tensor: one encoder-layer product (12 nodes × input dim × hidden).
    let in_dim = p.config.features.node_dim(Platform::Ifttt);
    let hidden = p.config.hidden.first().copied().unwrap_or(32);
    let a = Matrix::from_vec(
        12,
        in_dim,
        (0..12 * in_dim).map(|_| rng.standard_normal()).collect(),
    );
    let b = Matrix::from_vec(
        in_dim,
        hidden,
        (0..in_dim * hidden)
            .map(|_| rng.standard_normal())
            .collect(),
    );
    let reps = 2000;
    let t0 = Instant::now();
    t.span("tensor.matmul", || {
        for _ in 0..reps {
            black_box(black_box(&a).matmul(black_box(&b)));
        }
    });
    out.push(("tensor.matmul.us", mean_us(ns_since(t0), reps)));

    // tensor: the kernel-SHAP regression at explain's design shape
    // (K = 32 sampled coalitions × m = 8 players).
    let (k, m) = (32, 8);
    let design = Matrix::from_vec(
        k,
        m,
        (0..k * m).map(|_| f64::from(rng.bool(0.5) as u8)).collect(),
    );
    let target = Matrix::from_vec(k, 1, (0..k).map(|_| rng.standard_normal()).collect());
    let weights = vec![1.0; k];
    let reps = 500;
    let t0 = Instant::now();
    t.span("tensor.wls", || {
        for _ in 0..reps {
            let _ = black_box(fexiot_tensor::linalg::sum_constrained_wls(
                &design, &target, &weights, 0.5,
            ));
        }
    });
    out.push(("tensor.wls.us", mean_us(ns_since(t0), reps)));

    // par: an empty fan-out at the current pool width.
    let items = [0u8; 2];
    let reps = 2000;
    let t0 = Instant::now();
    t.span("par.fanout", || {
        for _ in 0..reps {
            black_box(fexiot_par::pool().map_indexed(&items, |i, _| i));
        }
    });
    out.push(("par.fanout.us", mean_us(ns_since(t0), reps)));

    // obs: absorbing one detection-shard-sized snapshot into its parent.
    let child = Arc::new(Registry::with_enabled(true));
    for v in 0..4 {
        child.counter_add("stream.detect.events", 1);
        child.hist_record(
            "stream.detect.latency_us",
            fexiot_obs::buckets::TIME_US,
            40.0 + v as f64,
        );
        child.hist_record(
            "stream.detect.latency_ticks",
            &fexiot_stream::LATENCY_TICK_EDGES,
            v as f64,
        );
    }
    let snap = child.snapshot();
    let parent = Registry::with_enabled(true);
    let reps = 2000;
    let t0 = Instant::now();
    t.span("obs.absorb", || {
        for _ in 0..reps {
            parent.absorb(black_box(&snap));
        }
    });
    out.push(("obs.absorb.us", mean_us(ns_since(t0), reps)));

    // gnn: contrastive training from a fresh encoder, same data and config
    // as the workload's own training.
    let classes: Vec<usize> = p.train.iter().map(GraphDataset::class_of).collect();
    let mut enc_rng = Rng::seed_from_u64(p.config.seed);
    let mut fresh = build_encoder(
        &p.config.encoder,
        p.config.features,
        &p.config.hidden,
        p.config.embed_dim,
        &mut enc_rng,
    );
    let t0 = Instant::now();
    t.span("gnn.train", || {
        black_box(train_contrastive(
            &mut fresh,
            p.train,
            &classes,
            &p.contrastive,
        ))
    });
    let train_ns = ns_since(t0);
    let pairs = (p.contrastive.epochs * p.contrastive.pairs_per_epoch) as u64;
    out.push(("gnn.train.ms", train_ns as f64 / 1e6));
    out.push(("gnn.pairs", pairs as f64));
    out.push(("gnn.train.us_per_pair", mean_us(train_ns, pairs as usize)));

    // gnn: one inference (embedding + head features) per graph.
    let graphs = &p.train[..p.train.len().min(200)];
    let t0 = Instant::now();
    t.span("gnn.embed", || {
        for g in graphs {
            black_box(head_features(p.encoder, g));
        }
    });
    out.push(("gnn.embed.us", mean_us(ns_since(t0), graphs.len())));

    // ml: the detection head and the drift detector on those features.
    let x = head_features_all(p.encoder, p.train);
    let labels: Vec<usize> = p.train.iter().map(GraphDataset::binary_label).collect();
    let t0 = Instant::now();
    t.span("ml.fit", || {
        black_box(SgdClassifier::fit(&x, &labels, SgdConfig::default()));
        black_box(DriftDetector::fit(&x, &labels, DEFAULT_DRIFT_THRESHOLD));
    });
    out.push(("ml.fit.ms", ns_since(t0) as f64 / 1e6));

    // core: one detection through the full model, where the workload has one.
    let detect_us = match p.model {
        Some(model) => {
            let t0 = Instant::now();
            t.span("core.detect", || {
                for g in graphs {
                    black_box(model.detect(g));
                }
            });
            mean_us(ns_since(t0), graphs.len())
        }
        None => 0.0,
    };
    out.push(("core.detect.us", detect_us));
    out
}
