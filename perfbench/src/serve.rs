//! `serve`: batch replay of a seeded fleet's recorded stream through
//! `run_stream`, with a MAGNN detector trained on fixture data. It is the
//! same GNN inference as `explain`, used differently: one forward per
//! event on many distinct, evolving graphs. It also carries the stream
//! scheduler, mailboxes, incremental graph maintenance, the always-on shard
//! registry absorbs and one pool fan-out per virtual tick. The engine runs
//! on virtual time over a whole recorded stream, so there is no wall-clock
//! arrival schedule: the benchmark reports the time of one replay at the
//! stated input size.

use crate::common::{
    mix, ns_since, warm_load_model, BenchStore, Fixture, ProbeInputs, Scale, StoreCounts,
    DIGEST_SEED, FIXTURE_SEED,
};
use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::workload::{Call, Workload};
use fexiot::{model_identity, FexIot, FexIotConfig};
use fexiot_gnn::EncoderKind;
use fexiot_graph::{DatasetConfig, GraphDataset, InteractionGraph};
use fexiot_obs::Registry;
use fexiot_store::{ArtifactKind, Identity};
use fexiot_stream::{
    replay_fleet, run_stream, Detector, Fleet, FleetConfig, HomeMaintainer, StreamConfig,
    StreamStats, StreamVerdict,
};
use fexiot_tensor::Rng;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Events served per call: the stated input size.
const EVENTS: usize = 15_000;

/// Wraps the trained model the way `fexiot-cli serve` does, counting
/// calls and, when traced, summing their busy time across workers.
struct BenchDetector<'a> {
    model: &'a FexIot,
    timed: bool,
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl Detector for BenchDetector<'_> {
    fn detect(&self, graph: &InteractionGraph) -> StreamVerdict {
        let t0 = self.timed.then(Instant::now);
        let d = self.model.detect(graph);
        if let Some(t0) = t0 {
            self.busy_ns.fetch_add(ns_since(t0), Ordering::Relaxed);
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        StreamVerdict {
            vulnerable: d.vulnerable,
            score: d.score,
            drifting: d.drifting,
        }
    }
}

pub struct Serve {
    config: FexIotConfig,
    model: FexIot,
    train: GraphDataset,
    test: GraphDataset,
    fleet: Fleet,
    stream: StreamConfig,
    graphs: u64,
    store: BenchStore,
    id: Identity,
    model_bytes: Vec<u8>,
    /// The parent registry `run_stream` reports into, disabled: the
    /// benchmark measures the service without optional telemetry.
    reg: Arc<Registry>,
    last: Option<StreamStats>,
    detect_calls: u64,
    detect_busy_ns: u64,
}

fn digest(s: &StreamStats) -> u64 {
    mix(
        DIGEST_SEED,
        &[
            s.digest,
            s.events,
            s.detected,
            s.shed,
            s.ticks,
            s.stall_ticks,
        ],
    )
}

impl<'a> BenchDetector<'a> {
    fn new(model: &'a FexIot, timed: bool) -> Self {
        Self {
            model,
            timed,
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }
}

impl Workload for Serve {
    fn setup(scale: Scale, seed: u64, t: &Tracer) -> Self {
        let mut data = DatasetConfig::small_hetero();
        data.graph_count = scale.pick(60, 600);
        let mut config = FexIotConfig::default().with_encoder(EncoderKind::Magnn);
        if scale.tiny {
            config.contrastive.epochs = 2;
        }
        let Fixture {
            model,
            train,
            mut corpus,
        } = Fixture::new(&data, config.clone(), t);
        // The inputs: the seeded replay fleet of `fexiot-cli serve --homes
        // 256 --sim-scale 8`, cut to a fixed number of events so every seed
        // serves the same load, and seeded homes over the fixture corpus
        // for the model's accuracy. Seed 42 streams 17,580 events; a seed
        // whose fleet streams too few is simulated for longer.
        let events = scale.pick(40, EVENTS);
        let mut sim_scale = scale.pick(1, 8);
        let mut fleet = loop {
            let mut fleet_cfg = FleetConfig {
                homes: scale.pick(6, 256),
                home_size: 6,
                seed,
                ..FleetConfig::default()
            };
            fleet_cfg.sim.duration *= sim_scale;
            let fleet = t.span("graph.replay", || replay_fleet(&fleet_cfg));
            if fleet.events.len() >= events {
                break fleet;
            }
            sim_scale *= 2;
        };
        fleet.events.truncate(events);
        let test = corpus.graphs(&data, &mut Rng::seed_from_u64(seed), t);
        let mut store = BenchStore::new("serve");
        let id = model_identity(FIXTURE_SEED, data.graph_count, EncoderKind::Magnn);
        let model_bytes = model.save_to_bytes();
        store.put(ArtifactKind::Model, &id, None, &model_bytes, t);
        Self {
            config: config.with_seed(FIXTURE_SEED),
            model,
            train,
            test,
            graphs: (2 * data.graph_count + fleet.graphs.len()) as u64,
            fleet,
            stream: StreamConfig::default(),
            store,
            id,
            model_bytes,
            reg: Arc::new(Registry::with_enabled(false)),
            last: None,
            detect_calls: 0,
            detect_busy_ns: 0,
        }
    }

    fn call(&mut self, _i: usize, t: &Tracer) -> Call {
        let det = BenchDetector::new(&self.model, t.is_on());
        let t0 = Instant::now();
        let out = t.span("stream.run", || {
            run_stream(
                &self.fleet.graphs,
                &self.fleet.events,
                &det,
                &self.stream,
                &self.reg,
                None,
            )
        });
        let wall_ns = ns_since(t0);
        let (calls, busy) = (det.calls.into_inner(), det.busy_ns.into_inner());
        self.detect_calls += calls;
        self.detect_busy_ns += busy;
        let s = out.stats;
        let call = Call {
            ops: s.events,
            failed: s.shed + s.events.saturating_sub(s.shed + s.detected),
            digest: digest(&s),
            wall_ns,
        };
        self.last = Some(s);
        call
    }

    fn min_calls(&self) -> usize {
        2
    }

    /// Every call replays the same stream.
    fn period(&self) -> Option<usize> {
        Some(1)
    }

    fn accuracy(&mut self) -> f64 {
        self.model.evaluate(&self.test).accuracy
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

    /// The detect stage fans out on every tick with queued work; ticks are
    /// the upper bound the benchmark can see.
    fn fanouts(&self, calls: &[Call]) -> u64 {
        self.last.as_ref().map_or(0, |s| s.ticks) * calls.len() as u64
    }

    fn layers(&mut self, calls: &[Call], t: &Tracer, m: &mut Metrics) {
        let n = calls.len().max(1) as f64;
        let s = self.last.clone().expect("serve ran at least one call");
        m.set("stream.events", s.events as f64);
        m.set("stream.ticks", s.ticks as f64);
        m.set("stream.stall_ticks", s.stall_ticks as f64);
        m.set("stream.shed", s.shed as f64);
        let depth = s.actors.iter().map(|a| a.max_depth).max().unwrap_or(0);
        m.set("stream.max_depth", depth as f64);
        m.set("stream.detect.calls", self.detect_calls as f64 / n);
        let detect_ms = self.detect_busy_ns as f64 / 1e6 / n;
        m.set("stream.detect.ms", detect_ms);

        // Incremental maintenance per event, as the maintainer actor runs
        // it: apply the event, then clone the graph for the detect job.
        let t0 = Instant::now();
        t.span("stream.maintain", || {
            let mut homes: Vec<HomeMaintainer> =
                self.fleet.graphs.iter().map(HomeMaintainer::new).collect();
            for ev in &self.fleet.events {
                let h = &mut homes[ev.home];
                h.apply(ev.event.clone());
                black_box(h.graph().clone());
            }
        });
        let maintain_ns = ns_since(t0);
        m.set(
            "stream.maintain.us",
            maintain_ns as f64 / 1e3 / s.events.max(1) as f64,
        );

        // What the run spends outside detection and maintenance: the
        // scheduler, mailboxes, shard absorbs and fan-out. Detection busy
        // time is spread over the pool width.
        let run_ms = calls.iter().map(|c| c.wall_ns).sum::<u64>() as f64 / 1e6 / n;
        let width = fexiot_par::pool().threads() as f64;
        m.set(
            "stream.residual.ms",
            run_ms - detect_ms / width - maintain_ns as f64 / 1e6,
        );

        // The latency SLO needs the parent registry's histogram: one more
        // run with it enabled, which must detect exactly the same.
        let reg = Arc::new(Registry::with_enabled(true));
        let det = BenchDetector::new(&self.model, false);
        let out = t.span("stream.run_observed", || {
            run_stream(
                &self.fleet.graphs,
                &self.fleet.events,
                &det,
                &self.stream,
                &reg,
                None,
            )
        });
        let p99 = reg
            .metrics_snapshot()
            .gauges
            .get("stream.detect.latency_p99_ticks")
            .copied()
            .unwrap_or(f64::NAN);
        let same = digest(&out.stats) == digest(&s);
        m.set("stream.p99_ticks", if same { p99 } else { f64::NAN });
    }
}
