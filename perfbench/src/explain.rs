//! `explain`: closed loop, one caller. A default GIN model, trained on
//! fixture data, explains seeded graphs of 5–12 rules back to back with
//! the paper's search settings. Most of the time goes to GNN inference on
//! masked coalitions, the kernel-SHAP regression and one pool fan-out per
//! SHAP value; there is no training or streaming in the timed calls.

use crate::common::{
    mix, ns_since, percentile, warm_load_model, BenchStore, Fixture, ProbeInputs, Scale,
    StoreCounts, DIGEST_SEED, FIXTURE_SEED,
};
use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::workload::{Call, Workload};
use fexiot::{model_identity, FexIot, FexIotConfig};
use fexiot_explain::{
    explain, fexiot_config, fidelity, mask_graph, shap_value, SearchConfig, ShapConfig,
};
use fexiot_gnn::EncoderKind;
use fexiot_graph::{DatasetConfig, GraphDataset, InteractionGraph};
use fexiot_store::{ArtifactKind, Identity};
use fexiot_tensor::Rng;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Kernel-SHAP rows per reward evaluation, and the two constant scores
/// (full and empty graph) `shap_value` computes besides them.
const SHAP_SAMPLES: usize = 32;
const SCORES_PER_EVAL: u64 = SHAP_SAMPLES as u64 + 2;

/// Explained graphs per size (5 to 12 rules): 256 in all. Every pass
/// explains each of them once, so the p90 has ten calls beyond it and the
/// mean fidelity covers every input.
const PER_SIZE: usize = 32;

pub struct Explain {
    config: FexIotConfig,
    model: FexIot,
    train: GraphDataset,
    targets: Vec<InteractionGraph>,
    search: SearchConfig,
    graphs: u64,
    store: BenchStore,
    id: Identity,
    model_bytes: Vec<u8>,
    /// Per call: reward evaluations and fidelity of the explanation.
    evals: Vec<u64>,
    fidelity: Vec<f64>,
}

/// Why an explanation counts as failed, if it does.
fn failure(
    g: &InteractionGraph,
    nodes: &[usize],
    score: f64,
    min_nodes: usize,
) -> Option<&'static str> {
    let all: Vec<usize> = (0..g.node_count()).collect();
    if nodes.is_empty() || nodes.iter().any(|&i| i >= g.node_count()) {
        return Some("node set empty or out of range");
    }
    if !score.is_finite() {
        return Some("non-finite score");
    }
    if g.component_count_subset(nodes) > g.component_count_subset(&all) {
        return Some("disconnected node set");
    }
    // On a connected graph some node can always be pruned without
    // disconnecting the rest, so the search must reach the size cap.
    if g.is_connected_subset(&all) && nodes.len() > min_nodes {
        return Some("node set over the size cap");
    }
    None
}

impl Workload for Explain {
    fn setup(scale: Scale, seed: u64, t: &Tracer) -> Self {
        let mut data = DatasetConfig::small_ifttt();
        data.graph_count = scale.pick(80, 800);
        let mut config = FexIotConfig::default();
        if scale.tiny {
            config.contrastive.epochs = 2;
        }
        let Fixture {
            model,
            train,
            mut corpus,
        } = Fixture::new(&data, config.clone(), t);
        // The inputs: seeded homes over the fixture corpus, and from them
        // the same number of graphs of every size from 5 to 12 rules,
        // interleaved so any prefix of calls has the same mix.
        let inputs = corpus.graphs(&data, &mut Rng::seed_from_u64(seed), t);
        let per_size = scale.pick(1, PER_SIZE);
        let by_size: Vec<Vec<&InteractionGraph>> = (5..=12)
            .map(|n| {
                let of_size = inputs.graphs.iter().filter(|g| g.node_count() == n);
                of_size.take(per_size).collect()
            })
            .collect();
        let targets: Vec<InteractionGraph> = (0..per_size)
            .flat_map(|rank| by_size.iter().filter_map(move |v| v.get(rank)))
            .map(|g| (*g).clone())
            .collect();
        assert!(!targets.is_empty(), "no input graph of 5-12 rules");
        let mut store = BenchStore::new("explain");
        let id = model_identity(FIXTURE_SEED, data.graph_count, EncoderKind::Gin);
        let model_bytes = model.save_to_bytes();
        store.put(ArtifactKind::Model, &id, None, &model_bytes, t);
        Self {
            config: config.with_seed(FIXTURE_SEED),
            model,
            train,
            targets,
            search: fexiot_config(5, 3, SHAP_SAMPLES),
            graphs: 2 * data.graph_count as u64,
            store,
            id,
            model_bytes,
            evals: Vec::new(),
            fidelity: Vec::new(),
        }
    }

    fn call(&mut self, i: usize, t: &Tracer) -> Call {
        let g = &self.targets[i % self.targets.len()];
        let (scorer, search) = (self.model.scorer(), &self.search);
        let t0 = Instant::now();
        let out = t.span("explain.explain", || {
            catch_unwind(AssertUnwindSafe(|| explain(scorer, g, search)))
        });
        let wall_ns = ns_since(t0);
        let Ok(e) = out else {
            return Call {
                ops: 1,
                failed: 1,
                digest: mix(DIGEST_SEED, &[u64::MAX]),
                wall_ns,
            };
        };
        let failed = failure(g, &e.nodes, e.score, search.min_nodes);
        if let Some(why) = failed {
            eprintln!("explain call {i}: {why}");
        }
        self.evals.push(e.evaluations as u64);
        self.fidelity.push(fidelity(scorer, g, &e.nodes));
        let mut digest = mix(DIGEST_SEED, &[e.score.to_bits(), e.evaluations as u64]);
        digest = mix(
            digest,
            &e.nodes.iter().map(|&n| n as u64).collect::<Vec<_>>(),
        );
        Call {
            ops: 1,
            failed: u64::from(failed.is_some()),
            digest,
            wall_ns,
        }
    }

    fn min_calls(&self) -> usize {
        self.targets.len()
    }

    fn period(&self) -> Option<usize> {
        Some(self.targets.len())
    }

    /// Each graph is a class of its own, so the graphs a pass explains
    /// twice weigh no more than the rest.
    fn class(&self, i: usize) -> usize {
        i % self.targets.len()
    }

    /// Explanation quality: the mean fidelity (prediction drop when the
    /// explanation subgraph is removed, in [-1, 1]) over every input graph,
    /// mapped to [0, 1] as `(1 + fidelity) / 2`. Subgraphs the model relies
    /// on less lower it.
    fn accuracy(&mut self) -> f64 {
        let fid = &self.fidelity[..self.targets.len().min(self.fidelity.len())];
        if fid.is_empty() {
            return f64::NAN;
        }
        (1.0 + fid.iter().sum::<f64>() / fid.len() as f64) / 2.0
    }

    fn warm_loads(&mut self, reps: usize, t: &Tracer) -> Result<Vec<u64>, String> {
        (0..reps)
            .map(|_| warm_load_model(&mut self.store, &self.id, &self.model_bytes, t))
            .collect()
    }

    fn store_counts(&self) -> StoreCounts {
        self.store.counts
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

    /// Every SHAP value fans its coalition scoring out once.
    fn fanouts(&self, calls: &[Call]) -> u64 {
        self.evals[..calls.len()].iter().sum()
    }

    fn layers(&mut self, calls: &[Call], t: &Tracer, m: &mut Metrics) {
        let evals: u64 = self.evals[..calls.len()].iter().sum();
        m.set("explain.calls", calls.len() as f64);
        // The tail of explanation latency: at least 256 calls, so ten or
        // more lie beyond it.
        let walls: Vec<f64> = calls.iter().map(|c| c.wall_ns as f64 / 1e6).collect();
        m.set("explain.p90_ms", percentile(&walls, 90.0));
        m.set("explain.evals", evals as f64);

        // Unit costs of the search's inner steps on the same graphs: a
        // SHAP value for a one-node-pruned candidate, one masked score and
        // one mask build.
        let scorer = self.model.scorer();
        let sample = &self.targets[..self.targets.len().min(20)];
        let mut rng = Rng::seed_from_u64(0xE4);
        let masks: Vec<Vec<bool>> = sample
            .iter()
            .map(|g| (0..g.node_count()).map(|_| rng.bool(0.6)).collect())
            .collect();
        let cfg = ShapConfig {
            samples: SHAP_SAMPLES,
        };
        let t0 = Instant::now();
        t.span("explain.shap", || {
            for g in sample {
                let nodes: Vec<usize> = (0..g.node_count() - 1).collect();
                black_box(shap_value(scorer, g, &nodes, &cfg, &mut rng));
            }
        });
        m.set(
            "explain.shap.us",
            ns_since(t0) as f64 / 1e3 / sample.len() as f64,
        );
        let reps = 20;
        let t0 = Instant::now();
        t.span("explain.score", || {
            for _ in 0..reps {
                for (g, mask) in sample.iter().zip(&masks) {
                    black_box(scorer.score_with_nodes(g, mask));
                }
            }
        });
        let score_us = ns_since(t0) as f64 / 1e3 / (reps * sample.len()) as f64;
        m.set("explain.score.us", score_us);
        let t0 = Instant::now();
        t.span("explain.mask", || {
            for _ in 0..reps {
                for (g, mask) in sample.iter().zip(&masks) {
                    black_box(mask_graph(g, mask));
                }
            }
        });
        m.set(
            "explain.mask.us",
            ns_since(t0) as f64 / 1e3 / (reps * sample.len()) as f64,
        );
        // Coalition scores run on every pool worker at once, so their busy
        // time is set against the pool's capacity over the explain calls.
        let wall_us = calls.iter().map(|c| c.wall_ns).sum::<u64>() as f64 / 1e3;
        let capacity_us = wall_us * fexiot_par::pool().threads() as f64;
        m.set(
            "explain.score.share",
            100.0 * (evals * SCORES_PER_EVAL) as f64 * score_us / capacity_us.max(1.0),
        );
    }
}
