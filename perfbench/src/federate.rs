//! `federate`: closed loop, one federation replayed back to back, one round
//! per call. The federation of eight clients runs six rounds of the FexIoT
//! strategy on a flat topology under seeded dropout, stragglers and message
//! loss; the first round's call also builds it. The fleet and the fault
//! trace are fixtures and the seed draws the clients' model initialisation
//! and training samples, so every seed does the same amount of work, and
//! round `r` of every replay repeats the same work. Most of the time is
//! autograd-tape training inside client workers, with nested pool calls
//! running inline; a round also prices communication and aggregates, and it
//! waits for its slowest client. No explanation or streaming.

use crate::common::{
    fnv, gen_dataset, mix, ns_since, BenchStore, ProbeInputs, Scale, StoreCounts, DIGEST_SEED,
    FIXTURE_SEED,
};
use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::workload::{Call, Workload};
use fexiot::warm::checkpoint_identity;
use fexiot::{build_federation_with_data, FederationConfig, FexIotConfig};
use fexiot_fed::{CommStats, FaultPlan, FedSim, RoundReport};
use fexiot_graph::{DatasetConfig, GraphDataset};
use fexiot_ml::Metrics as Scores;
use fexiot_obs::{Registry, SpanNode};
use fexiot_store::{ArtifactKind, Identity};
use fexiot_tensor::Rng;
use std::sync::Arc;
use std::time::Instant;

const ROUNDS: usize = 6;
/// Federations every measured pass runs, so that the repeat check
/// compares a whole federation.
const REPLAYS: usize = 2;

pub struct Federate {
    cfg: FederationConfig,
    /// Each client's share of `train`.
    clients: Vec<GraphDataset>,
    train: GraphDataset,
    test: GraphDataset,
    graphs: u64,
    store: BenchStore,
    id: Identity,
    /// The federation the calls are running, with its traced registry.
    running: Option<(FedSim, Option<Arc<Registry>>)>,
    /// The last federation run, for the layer probes.
    last: Option<FedSim>,
    /// The newest checkpoint (global round, bytes), put after every
    /// federation, and the simulator warm loads resume into.
    checkpoint: Option<(u64, Vec<u8>)>,
    resume: Option<FedSim>,
    /// Held-out accuracy of the first federation.
    accuracy: Option<f64>,
    comm: CommStats,
    /// Per traced round: wall, Σ and max of client training, aggregation.
    round_ns: Vec<u64>,
    client_busy_ns: Vec<u64>,
    client_max_ns: Vec<u64>,
    aggregate_ns: Vec<u64>,
}

fn comm_messages(c: &CommStats) -> u64 {
    (c.upload_messages + c.download_messages + c.agg_forward_messages + c.agg_broadcast_messages)
        as u64
}

fn report_digest(r: &RoundReport) -> u64 {
    let c = &r.cumulative_comm;
    mix(
        DIGEST_SEED,
        &[
            r.round as u64,
            r.mean_loss.to_bits(),
            c.total_bytes() as u64,
            comm_messages(c),
            u64::from(r.faults.quorum_aborted),
            r.faults.participants as u64,
        ],
    )
}

fn durations_us(node: &SpanNode, name: &str, out: &mut Vec<u64>) {
    if node.name == name {
        out.push(node.elapsed_us);
    }
    for c in &node.children {
        durations_us(c, name, out);
    }
}

/// The federation, built from the fixture fleet. Traced passes attach a
/// registry of their own.
fn build_sim(
    clients: &[GraphDataset],
    cfg: &FederationConfig,
    t: &Tracer,
) -> (FedSim, Option<Arc<Registry>>) {
    let mut sim = t.span("fed.build", || {
        build_federation_with_data(clients.to_vec(), cfg)
    });
    let obs = t.is_on().then(|| Arc::new(Registry::new()));
    if let Some(reg) = &obs {
        sim.attach_obs(Arc::clone(reg));
    }
    (sim, obs)
}

impl Federate {
    /// Reads the simulator's own spans of round `r` of a federation.
    fn record_round_spans(&mut self, reg: &Registry, r: usize) {
        let snap = reg.snapshot();
        let Some(round) = snap.find_span(&format!("round[{r}]")) else {
            return;
        };
        let mut train = Vec::new();
        durations_us(round, "fed.client.local_train", &mut train);
        let mut agg = Vec::new();
        durations_us(round, "fed.sim.aggregate", &mut agg);
        self.client_busy_ns.push(train.iter().sum::<u64>() * 1000);
        self.client_max_ns
            .push(train.iter().copied().max().unwrap_or(0) * 1000);
        self.aggregate_ns.push(agg.iter().sum::<u64>() * 1000);
    }
}

impl Workload for Federate {
    fn setup(scale: Scale, seed: u64, t: &Tracer) -> Self {
        // The fleet is a fixture: ~320 training graphs split over the
        // clients as `build_federation` splits them, and the rest the shared
        // test set. The fault trace is a fixture too, so who takes part in
        // a round, and the work the round does, is the same for every seed
        // (with seeded fault traces the median round time moved with the
        // seed by up to 15%). The workload seed is the pipeline seed: it
        // draws the clients' model initialisation and training samples.
        let mut ds_cfg = DatasetConfig::small_ifttt();
        ds_cfg.graph_count = scale.pick(60, 600);
        let ds = gen_dataset(&ds_cfg, &mut Rng::seed_from_u64(FIXTURE_SEED), t);
        let frac = scale.pick(0.5, 320.0 / 600.0);
        let (train, test) =
            ds.train_test_split(frac, &mut Rng::seed_from_u64(FIXTURE_SEED ^ 0x5EED));
        let mut pipeline = FexIotConfig::default().with_seed(seed);
        if scale.tiny {
            pipeline.contrastive.epochs = 1;
            pipeline.contrastive.pairs_per_epoch = 8;
        }
        let cfg = FederationConfig {
            n_clients: scale.pick(3, 8),
            rounds: ROUNDS,
            pipeline,
            faults: FaultPlan::none()
                .with_dropout(0.2)
                .with_straggler(0.2)
                .with_msg_loss(0.1)
                .with_seed(FIXTURE_SEED),
            ..Default::default()
        };
        let clients = train.dirichlet_split(
            cfg.n_clients,
            cfg.alpha,
            &mut Rng::seed_from_u64(FIXTURE_SEED),
        );
        Self {
            id: checkpoint_identity(seed, cfg.n_clients, cfg.strategy.name(), ds_cfg.graph_count),
            cfg,
            clients,
            train,
            test,
            graphs: ds_cfg.graph_count as u64,
            store: BenchStore::new("federate"),
            running: None,
            last: None,
            checkpoint: None,
            resume: None,
            accuracy: None,
            comm: CommStats::default(),
            round_ns: Vec::new(),
            client_busy_ns: Vec::new(),
            client_max_ns: Vec::new(),
            aggregate_ns: Vec::new(),
        }
    }

    /// Call `i` is round `i % 6` of replay `i / 6`. Its first round also
    /// builds the federation; after its last round (untimed) the
    /// federation's checkpoint goes into the store and it is scored.
    fn call(&mut self, i: usize, t: &Tracer) -> Call {
        let (f, r) = (i / ROUNDS, i % ROUNDS);
        let t0 = Instant::now();
        if r == 0 {
            self.running = Some(build_sim(&self.clients, &self.cfg, t));
        }
        let (sim, obs) = self.running.as_mut().expect("round 0 built the federation");
        let t1 = Instant::now();
        let report = t.span("fed.round", || sim.run_round());
        let round_ns = ns_since(t1);
        let wall_ns = ns_since(t0);
        if let Some(reg) = obs.clone() {
            self.round_ns.push(round_ns);
            self.record_round_spans(&reg, r);
        }
        let failed = match &report.comm_error {
            Some(e) => {
                eprintln!("replay {f} round {}: {e}", report.round);
                1
            }
            None => 0,
        };
        let mut digest = report_digest(&report);
        if r + 1 == ROUNDS {
            // The federation's final model bytes and held-out accuracy join
            // the digest.
            let (mut sim, _) = self.running.take().expect("federation running");
            let bytes = sim.checkpoint();
            let acc = Scores::mean(&sim.evaluate(&self.test)).accuracy;
            digest = mix(digest, &[fnv(&bytes), acc.to_bits()]);
            if self.accuracy.is_none() {
                self.comm = report.cumulative_comm;
                self.accuracy = Some(acc);
            }
            let round = (i + 1) as u64;
            self.store
                .put(ArtifactKind::Checkpoint, &self.id, Some(round), &bytes, t);
            self.checkpoint = Some((round, bytes));
            self.last = Some(sim);
        }
        Call {
            ops: 1,
            failed,
            digest,
            wall_ns,
        }
    }

    fn min_calls(&self) -> usize {
        REPLAYS * ROUNDS
    }

    fn period(&self) -> Option<usize> {
        Some(ROUNDS)
    }

    /// Round `r` of every replay is the same work, however many replays a
    /// pass makes.
    fn class(&self, i: usize) -> usize {
        i % ROUNDS
    }

    /// Every replay ends with the same model (the repeat check), so the
    /// first one's accuracy stands for all.
    fn accuracy(&mut self) -> f64 {
        self.accuracy.unwrap_or(f64::NAN)
    }

    /// Resumes from the newest stored checkpoint, as `fexiot-cli federate
    /// --store` does, and checks the restored state.
    fn warm_loads(&mut self, reps: usize, t: &Tracer) -> Result<Vec<u64>, String> {
        let Some((round, expect)) = self.checkpoint.clone() else {
            return Ok(Vec::new());
        };
        let sim = self
            .resume
            .get_or_insert_with(|| build_sim(&self.clients, &self.cfg, &Tracer::off()).0);
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                self.store.reopen(t);
                let bytes = self
                    .store
                    .get(ArtifactKind::Checkpoint, &self.id, Some(round), t)?;
                t.span("fed.restore", || sim.restore(&bytes))
                    .map_err(|e| format!("corrupt checkpoint: {e}"))?;
                let ns = ns_since(t0);
                if sim.checkpoint() != expect {
                    return Err("restored federation differs from the stored one".into());
                }
                Ok(ns)
            })
            .collect()
    }

    fn store_counts(&self) -> StoreCounts {
        self.store.counts
    }

    fn graphs(&self) -> u64 {
        self.graphs
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        let sim = self
            .last
            .as_ref()
            .expect("a federation ran before the probes");
        let client = &sim.clients[0];
        ProbeInputs {
            encoder: &client.encoder,
            config: &self.cfg.pipeline,
            train: &self.train.graphs,
            contrastive: self.cfg.pipeline.contrastive.clone(),
            model: None,
        }
    }

    /// Every round fans its client training out once.
    fn fanouts(&self, calls: &[Call]) -> u64 {
        calls.iter().map(|c| c.ops).sum()
    }

    fn layers(&mut self, _calls: &[Call], _t: &Tracer, m: &mut Metrics) {
        let rounds = self.round_ns.len().max(1) as f64;
        let mean_ms = |v: &[u64]| v.iter().sum::<u64>() as f64 / 1e6 / rounds;
        let round_ms = mean_ms(&self.round_ns);
        let busy_ms = mean_ms(&self.client_busy_ns);
        m.set("fed.round.ms", round_ms);
        m.set("fed.client.busy_ms", busy_ms);
        m.set("fed.client.max_ms", mean_ms(&self.client_max_ns));
        m.set("fed.aggregate.ms", mean_ms(&self.aggregate_ns));
        let width = fexiot_par::pool().threads() as f64;
        m.set("fed.parallel_eff", busy_ms / (round_ms * width).max(1e-9));
        m.set("fed.comm.bytes", self.comm.total_bytes() as f64);
        m.set("fed.comm.messages", comm_messages(&self.comm) as f64);
    }
}
