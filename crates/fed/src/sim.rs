//! The federated training simulator: drives client local training, runs the
//! configured aggregation strategy, and accounts every byte moved.
//!
//! With a non-trivial [`FaultPlan`] the simulator also injects the failure
//! modes real smart-home fleets exhibit — dropout, crash-and-rejoin,
//! stragglers, lossy links, corrupted updates — and survives them: partial
//! participation with weight renormalization over the surviving subset,
//! bounded retry-with-backoff priced into [`CommStats`], staleness-bounded
//! decayed acceptance of late updates, NaN/Inf + norm-guard quarantine before
//! anything reaches the aggregator or the trust scorer, and round-level
//! checkpoint/restore. `FaultPlan::none()` keeps the simulator bit-identical
//! to the fault-free implementation (locked by `tests/golden.rs`).
//!
//! Each round keeps one record: the fault draws plus one fate per client,
//! each fact written once by the phase that learns it. Every report of the
//! round — [`RoundTelemetry`], the `fed.*` counters and gauges, the
//! `fed.round.*` series and SLO verdicts, the critical path and the causal
//! trace — is a fold over that record at round end.

use crate::client::Client;
use crate::comm::CommStats;
use crate::faults::{
    backoff_ticks_for, straggler_wait, AggRoundFaults, AggStatus, FaultInjector, FaultPlan,
    Participation, RoundFaults,
};
use crate::strategy::Strategy;
use crate::topology::{ClientSampler, Failover, Sampling, Topology};
use fexiot_gnn::ContrastiveConfig;
use fexiot_graph::GraphDataset;
use fexiot_ml::{binary_cosine_split, Metrics};
use fexiot_obs::{
    slowest_client, CausalBuilder, CausalGraph, ClientTicks, CriticalPathEntry, Entity,
    FleetTelemetry, Registry,
};
use fexiot_tensor::codec::{ByteReader, ByteWriter, CodecError};
use fexiot_tensor::matrix::Matrix;
use fexiot_tensor::optim::{
    param_bytes, param_flatten, param_is_finite, param_norm, param_weighted_average, ParamVec,
};
use fexiot_tensor::rng::Rng;
use fexiot_tensor::stats::cosine_similarity;
use std::sync::Arc;

/// Federated-simulation configuration.
#[derive(Debug, Clone)]
pub struct FedConfig {
    pub strategy: Strategy,
    pub rounds: usize,
    /// Local contrastive training config per round.
    pub local: ContrastiveConfig,
    /// Differential privacy on client updates (paper §VI extension).
    pub dp: Option<crate::dp::DpConfig>,
    /// Pairwise-masked secure aggregation (paper §VI extension). Changes
    /// what the server can observe, not the aggregate itself.
    pub secure_aggregation: bool,
    /// FoolsGold-style Sybil down-weighting (paper §VI extension).
    pub sybil_defense: bool,
    /// FexIoT layer cadence: when true (default), layer `l` syncs every
    /// `l + 1` rounds (the Fig. 7 communication saving); when false, every
    /// layer syncs every round (ablation knob).
    pub layer_cadence: bool,
    /// Failure processes to inject each round (`FaultPlan::none()` = off).
    pub faults: FaultPlan,
    /// Per-round cohort selection (`Sampling::Full` = everyone, the
    /// pre-fleet behavior). Drawn from a dedicated seeded stream, weighted
    /// by client sample counts.
    pub sampling: Sampling,
    /// Communication tree: flat client↔server, or 2+ edge aggregators that
    /// pre-aggregate cohort updates ([`Topology`]). `LocalOnly` ignores the
    /// tier (there is no server to forward to).
    pub topology: Topology,
    /// Minimum fraction of the sampled cohort's *sample-count weight* that
    /// must report for the round to commit; below it the round degrades to a
    /// recorded no-op (uploads priced, nothing aggregated). `0.0` disables
    /// the gate.
    pub quorum: f64,
    /// Round deadline in simulated ticks: a contributor whose report path
    /// (straggler wait + upload backoff + aggregator delay) exceeds this is
    /// dropped from the round. `None` disables the deadline.
    pub deadline_ticks: Option<usize>,
    pub seed: u64,
}

impl Default for FedConfig {
    fn default() -> Self {
        Self {
            strategy: Strategy::fexiot_default(),
            rounds: 10,
            local: ContrastiveConfig {
                epochs: 1,
                pairs_per_epoch: 32,
                ..Default::default()
            },
            dp: None,
            secure_aggregation: false,
            sybil_defense: false,
            layer_cadence: true,
            faults: FaultPlan::none(),
            sampling: Sampling::Full,
            topology: Topology::flat(),
            quorum: 0.0,
            deadline_ticks: None,
            seed: 0,
        }
    }
}

/// Construction errors for [`FedSim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FedError {
    /// A federation needs at least one client.
    NoClients,
}

impl std::fmt::Display for FedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FedError::NoClients => write!(f, "fed: no clients"),
        }
    }
}

impl std::error::Error for FedError {}

/// Per-round degradation telemetry. Every *sampled* client lands in exactly
/// one of `participants` / `dropped` / `quarantined`, so those three always
/// sum to `sampled` (which equals `clients` when sampling is off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTelemetry {
    /// Federation size this round.
    pub clients: usize,
    /// Cohort size: clients selected by the sampler this round.
    pub sampled: usize,
    /// Clients whose update entered aggregation (includes stale-accepted).
    pub participants: usize,
    /// Sampled clients that contributed nothing: offline, crashed,
    /// too-stale, past the round deadline, behind a dead aggregator, or
    /// upload lost after every retry.
    pub dropped: usize,
    /// Clients whose delivered update failed validation (NaN/Inf or norm
    /// guard) and was excluded before aggregation.
    pub quarantined: usize,
    /// Stragglers whose late update was within the staleness bound, and so
    /// accepted with decayed weight (unless a later check dropped it).
    pub stale_accepted: usize,
    /// Message retransmissions this round (also priced in `CommStats`).
    pub retried_messages: usize,
    /// Messages lost for good after exhausting the retry budget.
    pub lost_messages: usize,
    /// Simulated ticks spent in retry backoff this round.
    pub backoff_ticks: usize,
    /// Contributors excluded because their report path missed the round
    /// deadline (subset of `dropped`).
    pub deadline_missed: usize,
    /// Edge aggregators in the topology (1 = flat).
    pub aggregators: usize,
    /// Edge aggregators down this round (dropout or crash window).
    pub agg_down: usize,
    /// Cohort clients rerouted to a surviving aggregator after their home
    /// aggregator went down (`Failover::Reassign` only).
    pub reassigned: usize,
    /// The round failed its quorum gate and degraded to a recorded no-op:
    /// uploads were priced but nothing was aggregated or installed.
    pub quorum_aborted: bool,
    /// SLO rules failing at this round's evaluation (always 0 when no
    /// fleet telemetry is attached; see [`FedSim::attach_telemetry`]).
    pub slo_failures: usize,
}

/// Each counted [`RoundTelemetry`] field's registry counter and its
/// per-round series, in [`RoundTelemetry::counts`] order. Every round
/// writes each counter once, zeros included, so a counter's total is its
/// field summed over the rounds.
const ROUND_COUNTS: [[&str; 2]; 12] = [
    ["fed.sim.sampled", "fed.round.sampled"],
    ["fed.sim.participants", "fed.round.participants"],
    ["fed.sim.dropped", "fed.round.dropped"],
    ["fed.sim.quarantined", "fed.round.quarantined"],
    ["fed.sim.stale_accepted", "fed.round.stale_accepted"],
    ["fed.sim.retried_messages", "fed.round.retried_messages"],
    ["fed.sim.lost_messages", "fed.round.lost_messages"],
    ["fed.sim.backoff_ticks", "fed.round.backoff_ticks"],
    ["fed.agg.deadline_missed", "fed.round.deadline_missed"],
    ["fed.agg.down", "fed.round.agg_down"],
    ["fed.agg.reassigned", "fed.round.reassigned"],
    ["fed.agg.quorum_aborts", "fed.round.quorum_aborted"],
];

/// Each round's gauges and their series: mean local loss, then the round's
/// traffic in bytes and in messages (both directions).
const ROUND_GAUGES: [[&str; 2]; 3] = [
    ["fed.sim.mean_loss", "fed.round.mean_loss"],
    ["fed.comm.round_bytes", "fed.round.comm_bytes"],
    ["fed.comm.round_messages", "fed.round.comm_messages"],
];

impl RoundTelemetry {
    /// The counted fields, in [`ROUND_COUNTS`] order.
    fn counts(&self) -> [usize; 12] {
        [
            self.sampled,
            self.participants,
            self.dropped,
            self.quarantined,
            self.stale_accepted,
            self.retried_messages,
            self.lost_messages,
            self.backoff_ticks,
            self.deadline_missed,
            self.agg_down,
            self.reassigned,
            self.quorum_aborted as usize,
        ]
    }
}

/// Per-round report.
#[derive(Debug, Clone)]
pub struct RoundReport {
    pub round: usize,
    pub mean_loss: f64,
    pub cumulative_comm: CommStats,
    /// Degradation telemetry (all zeros except `clients`/`sampled`/
    /// `participants` when faults are off).
    pub faults: RoundTelemetry,
    /// First violated [`CommStats::validate`] invariant, if any. Checked
    /// every round in release builds too — a pricing bug fails closed here
    /// instead of silently corrupting the Fig. 7 accounting.
    pub comm_error: Option<String>,
}

/// One client's fate in one round. The phase that learns a fact writes it
/// here once; the round's reports are folds over these.
#[derive(Debug, Clone, Default)]
struct Fate {
    /// In this round's cohort.
    sampled: bool,
    /// Serving aggregator after failover (`Some(0)` on flat topologies);
    /// `None` = no path to the server this round (also every unsampled
    /// client).
    route: Option<usize>,
    /// Rerouted off its dead home aggregator to a survivor.
    rerouted: bool,
    /// Straggler delay of the serving aggregator (0 when on time or flat).
    agg_delay: usize,
    /// Ran local training this round.
    trained: bool,
    /// A straggler the server waited out: the wait in ticks (bounded by
    /// the staleness window) and whether the late update was accepted.
    straggler: Option<(usize, bool)>,
    /// The upload was lost after every retry.
    lost_upload: bool,
    /// The upload reached the server, possibly after retries.
    delivered: bool,
    /// Ticks of the report path (straggler wait + upload backoff +
    /// aggregator delay) when it blew the round deadline.
    deadline_miss: Option<usize>,
    /// The delivered update failed validation and was excluded.
    quarantined: bool,
    /// Eligible for aggregation: delivered a valid update in time.
    contributes: bool,
    /// Aggregation-weight multiplier from staleness decay (1.0 = on time).
    stale_weight: f64,
    /// The server's copy when the wire corrupted it (`None` = verbatim).
    observed: Option<ParamVec>,
    /// Retry-backoff ticks, retransmissions and messages lost for good,
    /// summed over both links.
    backoff_ticks: usize,
    retries: usize,
    lost_messages: usize,
}

impl Fate {
    /// Books one message that took `attempts` transmissions.
    fn charge(&mut self, attempts: usize) {
        self.backoff_ticks += backoff_ticks_for(attempts);
        self.retries += attempts.saturating_sub(1);
    }
}

/// Everything one round learned: the fault draws and one [`Fate`] per
/// client, plus the round-wide outcomes.
struct Round {
    index: usize,
    faults: RoundFaults,
    /// Aggregator draws; empty when the round runs flat.
    aggs: AggRoundFaults,
    fates: Vec<Fate>,
    mean_loss: f64,
    /// Reported-weight fraction minus the quorum gate (positive = headroom),
    /// when the gate was evaluated.
    quorum_margin: Option<f64>,
    quorum_met: bool,
    /// Traffic totals when the round began.
    comm_before: CommStats,
}

impl Round {
    /// What the server received from client `c` (the corrupted copy if the
    /// wire damaged it, the client's own parameters otherwise).
    fn observed<'a>(&'a self, clients: &'a [Client], c: usize) -> &'a ParamVec {
        self.fates[c]
            .observed
            .as_ref()
            .unwrap_or_else(|| clients[c].encoder.params())
    }

    /// Transmissions client `c`'s delivered upload took.
    fn up_attempts(&self, c: usize) -> usize {
        self.faults.up_attempts[c].unwrap_or(1)
    }
}

/// The causal trace recorder plus the chains that outlive a round: each
/// client's and aggregator's newest down node.
struct CausalTrace {
    builder: CausalBuilder,
    client_down: Vec<Option<u64>>,
    agg_down: Vec<Option<u64>>,
}

impl CausalTrace {
    /// Folds one round into the graph in the order the round met its facts:
    /// per client a crash, rejoin or dropout; per aggregator an outage,
    /// rejoin or straggle; reassigns; straggler verdicts; lost uploads;
    /// retries; deadline misses; quarantines; a quorum abort. Node
    /// timestamps are cumulative, so this order is part of the trace.
    fn record(&mut self, round: &Round, topo: &Topology, injector: &FaultInjector) {
        let (b, r) = (&mut self.builder, round.index);
        let client = Entity::Client;
        b.begin_round(r);
        let mut rejoined = vec![None; round.fates.len()];
        for (c, fate) in round.fates.iter().enumerate() {
            let participation = round.faults.participation[c];
            if participation == Participation::Crashed {
                let id = b.fault(r, client(c), "crash", 1);
                if let Some(prev) = self.client_down[c].replace(id) {
                    b.follows(prev, id);
                }
                continue;
            }
            if let Some(prev) = self.client_down[c].take() {
                let id = b.fault(r, client(c), "rejoin", 1);
                b.follows(prev, id);
                rejoined[c] = Some(id);
            }
            if fate.sampled && participation == Participation::Dropout {
                b.fault(r, client(c), "dropout", 1);
            }
        }
        for (a, &status) in round.aggs.status.iter().enumerate() {
            let agg = Entity::Aggregator(a);
            if status == AggStatus::Down {
                // Costed at the cohort the outage put at risk.
                let homed = (0..round.fates.len())
                    .filter(|&c| round.fates[c].sampled && topo.aggregator_of(c) == a)
                    .count();
                let kind = if injector.agg_crashed(a, r) {
                    "agg_crash"
                } else {
                    "agg_dropout"
                };
                let id = b.fault(r, agg, kind, homed as u64);
                if let Some(prev) = self.agg_down[a].replace(id) {
                    b.follows(prev, id);
                }
                continue;
            }
            if let Some(prev) = self.agg_down[a].take() {
                let id = b.fault(r, agg, "agg_rejoin", 1);
                b.follows(prev, id);
            }
            if let AggStatus::Straggler { delay } = status {
                b.fault(r, agg, "agg_straggler", delay as u64);
            }
        }
        for c in (0..round.fates.len()).filter(|&c| round.fates[c].rerouted) {
            let id = b.fault(r, client(c), "agg_reassign", 1);
            if let Some(down) = self.agg_down[topo.aggregator_of(c)] {
                b.follows(down, id);
            }
        }
        for (c, fate) in round.fates.iter().enumerate() {
            if let Some((wait, accepted)) = fate.straggler {
                let id = b.fault(r, client(c), "straggler", wait as u64);
                if let Some(rejoin) = rejoined[c] {
                    b.follows(rejoin, id);
                }
                let verdict = if accepted {
                    "stale_accept"
                } else {
                    "stale_reject"
                };
                let verdict = b.fault(r, client(c), verdict, 1);
                b.follows(id, verdict);
            }
        }
        // Per-client events, each kind in client order and costed at its
        // ticks. A retry is an upload that landed only after retransmission
        // (its backoff is nonzero).
        let mut each = |kind: &str, ticks: &dyn Fn(usize, &Fate) -> Option<usize>| {
            for (c, fate) in round.fates.iter().enumerate() {
                if let Some(ticks) = ticks(c, fate) {
                    b.fault(r, client(c), kind, ticks as u64);
                }
            }
        };
        let lost = backoff_ticks_for(1 + injector.plan().max_retries);
        let backoff = |c: usize| backoff_ticks_for(round.up_attempts(c));
        each("lost_upload", &|_, f| f.lost_upload.then_some(lost));
        each("retry", &|c, f| {
            (f.delivered && backoff(c) > 0).then(|| backoff(c))
        });
        each("deadline_miss", &|_, f| f.deadline_miss);
        each("quarantine", &|_, f| f.quarantined.then_some(1));
        if !round.quorum_met {
            let fates = round.fates.iter();
            let missing = fates.filter(|f| f.sampled && !f.contributes).count();
            b.fault(r, Entity::Round, "quorum_abort", missing as u64);
        }
    }
}

/// The whole federation: clients + server state.
pub struct FedSim {
    pub clients: Vec<Client>,
    pub comm: CommStats,
    config: FedConfig,
    /// Persistent cluster state for FMTL / GCFL+.
    clusters: Vec<Vec<usize>>,
    /// `(offset, matrix_count)` per encoder layer, bottom-up.
    layer_spans: Vec<(usize, usize)>,
    /// Per-client trust weights from the Sybil defense (1.0 = trusted).
    trust: Vec<f64>,
    /// Privacy accountant, present when DP is enabled.
    accountant: Option<crate::dp::PrivacyAccountant>,
    /// Fault-realization source; draws from its own RNG stream so fault
    /// randomness never perturbs training randomness.
    injector: FaultInjector,
    /// Per-round cohort source; owns a third dedicated RNG stream so
    /// sampling randomness perturbs neither training nor fault randomness.
    sampler: ClientSampler,
    /// Observability registry the round reports write their `fed.*`
    /// counters, gauges and spans into. Private by default so concurrent
    /// simulations in one process never share counters;
    /// [`FedSim::attach_obs`] substitutes a shared registry.
    obs: Arc<Registry>,
    /// One child registry per client: client-side instrumentation (the
    /// `fed.client.*` span and histograms) records here in isolation, and
    /// each client's snapshot is merged into the main registry right after
    /// its training — federated trace merging. Reset after every merge.
    client_obs: Vec<Arc<Registry>>,
    /// Fleet-health telemetry: per-round time-series samples plus optional
    /// SLO evaluation, folded from every round's record. Like the critical
    /// path and the causal trace, it never feeds back into simulation state
    /// and is not checkpointed. Boxed so the common no-telemetry path pays
    /// one pointer.
    telemetry: Option<Box<FleetTelemetry>>,
    /// Each completed round's critical-path entry, for
    /// [`FedSim::critical_path`].
    path: Vec<CriticalPathEntry>,
    /// Causal trace recorder ([`FedSim::enable_causal_trace`]), folded from
    /// each round's record on the coordinator thread.
    causal: Option<Box<CausalTrace>>,
    /// Dominant fault kind behind the latest failing SLO evaluation
    /// (requires both telemetry and causal tracing; `None` while passing).
    last_root_cause: Option<String>,
    rng: Rng,
    round: usize,
}

impl FedSim {
    /// Builds a federation. All clients must share the encoder architecture.
    ///
    /// # Panics
    /// Panics when `clients` is empty; use [`FedSim::try_new`] to get an
    /// error instead.
    pub fn new(clients: Vec<Client>, config: FedConfig) -> Self {
        Self::try_new(clients, config).expect("fed: no clients")
    }

    /// Fallible constructor: returns [`FedError::NoClients`] for an empty
    /// federation instead of panicking (an all-zero federation would
    /// otherwise produce NaN loss reports).
    pub fn try_new(clients: Vec<Client>, config: FedConfig) -> Result<Self, FedError> {
        if clients.is_empty() {
            return Err(FedError::NoClients);
        }
        let sizes = clients[0].encoder.layer_sizes();
        let mut layer_spans = Vec::with_capacity(sizes.len());
        let mut offset = 0;
        for s in sizes {
            layer_spans.push((offset, s));
            offset += s;
        }
        let all: Vec<usize> = (0..clients.len()).collect();
        let rng = Rng::seed_from_u64(config.seed);
        let trust = vec![1.0; clients.len()];
        let accountant = config
            .dp
            .as_ref()
            .map(|dp| crate::dp::PrivacyAccountant::new(dp.noise_multiplier));
        let injector = FaultInjector::new(config.faults.clone(), clients.len());
        let sampler = ClientSampler::new(config.sampling, config.seed);
        let client_obs = (0..clients.len())
            .map(|_| Arc::new(Registry::new()))
            .collect();
        Ok(Self {
            clients,
            comm: CommStats::default(),
            config,
            clusters: vec![all],
            layer_spans,
            trust,
            accountant,
            injector,
            sampler,
            obs: Arc::new(Registry::new()),
            client_obs,
            telemetry: None,
            path: Vec::new(),
            causal: None,
            last_root_cause: None,
            rng,
            round: 0,
        })
    }

    /// Substitutes the simulator's private observability registry (for
    /// example with the process-global one, so a CLI run exports a single
    /// report covering pipeline + federation). Round reports never read the
    /// registry back, so a disabled one simply records nothing.
    pub fn attach_obs(&mut self, reg: Arc<Registry>) {
        self.obs = reg;
    }

    /// The observability registry this simulator records into.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// Attaches fleet-health telemetry: at the end of every round the
    /// simulator pushes its per-round `fed.round.*` samples into the store,
    /// snapshots the registry's deterministic metrics for the configured
    /// sample specs, and evaluates any SLO rules — the failing-rule count
    /// lands in [`RoundTelemetry::slo_failures`].
    pub fn attach_telemetry(&mut self, telemetry: FleetTelemetry) {
        self.telemetry = Some(Box::new(telemetry));
    }

    /// The attached fleet telemetry, if any.
    pub fn telemetry(&self) -> Option<&FleetTelemetry> {
        self.telemetry.as_deref()
    }

    /// Detaches and returns the fleet telemetry (for report export after the
    /// run).
    pub fn take_telemetry(&mut self) -> Option<FleetTelemetry> {
        self.telemetry.take().map(|b| *b)
    }

    /// Enables causal trace recording: from the next round on, every fault
    /// realization (dropout, crash/rejoin, stragglers, retries, quarantine,
    /// aggregator crash/reassign, deadline misses, quorum aborts) is
    /// mirrored as nodes and edges of a [`CausalGraph`] whose IDs derive
    /// from the run seed — byte-identical at any thread width. Pure obs
    /// data: it never feeds back into simulation state and is not
    /// checkpointed.
    pub fn enable_causal_trace(&mut self, run: &str) {
        self.causal = Some(Box::new(CausalTrace {
            builder: CausalBuilder::new(run, self.config.seed),
            client_down: vec![None; self.clients.len()],
            agg_down: vec![None; self.config.topology.aggregators.max(1)],
        }));
    }

    /// Detaches and finalizes the causal trace, if recording was enabled.
    pub fn take_causal_trace(&mut self) -> Option<CausalGraph> {
        self.causal.take().map(|t| t.builder.finish())
    }

    /// Dominant fault kind attributed to the latest failing SLO evaluation
    /// (`None` while rules pass, or when telemetry / causal tracing is off).
    pub fn last_root_cause(&self) -> Option<&str> {
        self.last_root_cause.as_deref()
    }

    /// Runs all configured rounds; returns per-round reports.
    pub fn run(&mut self) -> Vec<RoundReport> {
        (0..self.config.rounds).map(|_| self.run_round()).collect()
    }

    /// One federated round in five phases: draw the round's faults, cohort
    /// and routes; train; receive the updates; gate on the quorum and
    /// aggregate; fold the round's record into its reports.
    pub fn run_round(&mut self) -> RoundReport {
        if self.clients.is_empty() {
            // Unreachable through the constructors; kept as a hard guard so
            // an emptied federation can never report NaN (0.0 / 0).
            self.round += 1;
            return RoundReport {
                round: self.round,
                mean_loss: 0.0,
                cumulative_comm: self.comm,
                faults: RoundTelemetry::default(),
                comm_error: None,
            };
        }
        let obs = Arc::clone(&self.obs);
        obs.mark(&format!("round[{}]", self.round));
        let _round_span = obs.span(format!("round[{}]", self.round));
        let mut round = self.draw();
        self.train(&mut round, &obs);
        {
            let _s = obs.span("fed.sim.receive");
            self.receive(&mut round);
        }
        self.commit(&mut round, &obs);
        self.report(round)
    }

    /// True when an aggregator tier sits between clients and server.
    /// LocalOnly has no server to forward to, so it always runs flat.
    fn hierarchical(&self) -> bool {
        self.config.topology.is_hierarchical()
            && !matches!(self.config.strategy, Strategy::LocalOnly)
    }

    /// Phase 1: the round's fault draws, its cohort (weighted by sample
    /// count, from the sampler's own stream) and failover routes, all fixed
    /// on the calling thread before any client trains. A full cohort on a
    /// flat topology makes no extra draws, so pre-fleet rounds stay
    /// bit-identical (locked by `tests/golden.rs`).
    fn draw(&mut self) -> Round {
        let (n, index) = (self.clients.len(), self.round);
        let faults = if self.injector.plan().is_active() {
            self.injector.draw_round(index)
        } else {
            RoundFaults::clean(n)
        };
        let cohort: Vec<usize> = if self.config.sampling.is_active(n) {
            let weights: Vec<f64> = self
                .clients
                .iter()
                .map(|c| c.sample_count() as f64)
                .collect();
            self.sampler.draw_cohort(&weights)
        } else {
            (0..n).collect()
        };
        let topo = self.config.topology;
        let hierarchical = self.hierarchical();
        let aggs = if !hierarchical {
            AggRoundFaults::clean(0)
        } else if self.injector.plan().agg_faults_active() {
            self.injector.draw_agg_round(index, topo.aggregators)
        } else {
            AggRoundFaults::clean(topo.aggregators)
        };
        let up = |a: usize| aggs.status[a] != AggStatus::Down;
        let mut fates = vec![
            Fate {
                stale_weight: 1.0,
                ..Fate::default()
            };
            n
        ];
        for c in cohort {
            let fate = &mut fates[c];
            fate.sampled = true;
            fate.route = Some(0);
            if !hierarchical {
                continue;
            }
            // Ring failover: a cohort behind a dead aggregator reroutes to
            // the next survivor clockwise from home, or sits the round out.
            let home = topo.aggregator_of(c);
            fate.route = if up(home) {
                Some(home)
            } else if topo.failover == Failover::Reassign {
                (1..topo.aggregators)
                    .map(|d| (home + d) % topo.aggregators)
                    .find(|&a| up(a))
            } else {
                None
            };
            fate.rerouted = !up(home) && fate.route.is_some();
            if let Some(AggStatus::Straggler { delay }) = fate.route.map(|a| aggs.status[a]) {
                fate.agg_delay = delay;
            }
        }
        Round {
            index,
            faults,
            aggs,
            fates,
            mean_loss: 0.0,
            quorum_margin: None,
            quorum_met: true,
            comm_before: self.comm,
        }
    }

    /// Phase 2: local training on every sampled, online, routable client
    /// (stragglers train too — they are slow, not dead; a cohort behind a
    /// dead aggregator with no failover sits the round out). Each client
    /// trains against its own RNG stream and its own child registry
    /// (`with_registry` routes the trainer's global-registry instrumentation
    /// there), which keeps both the parameter math and the traces
    /// independent of worker interleaving.
    fn train(&mut self, round: &mut Round, obs: &Arc<Registry>) {
        let local_cfg = ContrastiveConfig {
            seed: self.config.local.seed ^ (round.index as u64) << 17,
            ..self.config.local.clone()
        };
        let train_ids: Vec<usize> = (0..round.fates.len())
            .filter(|&c| round.fates[c].route.is_some() && round.faults.participation[c].trains())
            .collect();
        let client_obs = &self.client_obs;
        let losses: Vec<f64> =
            fexiot_par::pool().map_subset_mut(&mut self.clients, &train_ids, |i, client| {
                let creg = &client_obs[i];
                fexiot_obs::with_registry(creg, || client.local_train_traced(&local_cfg, creg))
            });
        // Gather in client order: losses sum in the same sequence as a
        // sequential loop (bit-identical mean), and each child trace is
        // merged under its `client[i]` span before the next one.
        let mut total_loss = 0.0;
        for (&i, loss) in train_ids.iter().zip(losses) {
            let _s = obs.span(format!("client[{i}]"));
            total_loss += loss;
            round.fates[i].trained = true;
            obs.absorb(&self.client_obs[i].snapshot());
            self.client_obs[i].reset();
        }
        if !train_ids.is_empty() {
            round.mean_loss = total_loss / train_ids.len() as f64;
        }
        // §VI extensions: privatize what the server will observe. Only
        // clients that trained this round have a fresh update to privatize.
        if let Some(dp) = self.config.dp {
            for &i in &train_ids {
                self.clients[i].privatize_last_update(&dp, &mut self.rng);
            }
            if let Some(acc) = &mut self.accountant {
                acc.record_release();
            }
        }
    }

    /// Phase 3: the server's view of the round — which updates arrived,
    /// which were corrupted in flight, which survive validation and the
    /// round deadline, and at what staleness weight. Prices the uploads that
    /// never make it into aggregation (lost or quarantined). Only the cohort
    /// with a live aggregator route can contribute at all.
    fn receive(&mut self, round: &mut Round) {
        // LocalOnly has no server: nobody uploads, so nothing can be lost,
        // corrupted or quarantined. Participants are whoever trained.
        if matches!(self.config.strategy, Strategy::LocalOnly) {
            for fate in &mut round.fates {
                fate.contributes = fate.trained;
            }
            return;
        }
        let plan = self.injector.plan().clone();
        for c in 0..round.fates.len() {
            let fate = &mut round.fates[c];
            fate.contributes = fate.route.is_some();
            if !fate.contributes {
                continue;
            }
            // 1. Staleness-bounded participation: on-time clients are full
            //    weight, stragglers within the bound are decayed, later ones
            //    contribute nothing this round. The server waits a straggler
            //    out up to the staleness bound either way.
            let wait = match round.faults.participation[c] {
                Participation::Active => 0,
                Participation::Straggler { delay } => {
                    let wait = straggler_wait(delay, plan.staleness_bound);
                    fate.contributes = delay <= plan.staleness_bound;
                    fate.straggler = Some((wait, fate.contributes));
                    if fate.contributes {
                        fate.stale_weight = plan.staleness_decay.powi(delay as i32);
                    }
                    wait
                }
                _ => {
                    fate.contributes = false;
                    0
                }
            };
            if !fate.contributes {
                continue;
            }
            // 2. Upload delivery with bounded retry. A lost upload still
            //    burned bandwidth on every attempt; price it at full-model
            //    cost (an upper bound for the layer-cadence strategies).
            let Some(attempts) = round.faults.up_attempts[c] else {
                let attempts = 1 + plan.max_retries;
                let bytes = param_bytes(self.clients[c].encoder.params());
                self.comm.record_upload_attempts(bytes, attempts);
                fate.charge(attempts);
                fate.lost_messages += 1;
                fate.lost_upload = true;
                fate.contributes = false;
                continue;
            };
            fate.delivered = true;
            // 2b. Round deadline: a delivered update whose report path blew
            //     the deadline is excluded. Like a too-stale update, the
            //     server simply stops listening, so no extra traffic moves.
            let report_ticks = wait
                .saturating_add(backoff_ticks_for(attempts))
                .saturating_add(fate.agg_delay);
            if self.config.deadline_ticks.is_some_and(|d| report_ticks > d) {
                fate.deadline_miss = Some(report_ticks);
                fate.contributes = false;
            }
        }

        // 3. In-flight corruption + validation. NaN/Inf is always
        //    quarantined; finite-but-huge updates are caught by the norm
        //    guard against a robust reference norm — before any of it can
        //    reach `param_weighted_average` or FoolsGold.
        if plan.corrupt <= 0.0 {
            return;
        }
        let n = round.fates.len();
        for c in 0..n {
            if round.fates[c].contributes && round.faults.corrupt[c] {
                round.fates[c].observed = Some(
                    self.injector
                        .corrupt_params(self.clients[c].encoder.params()),
                );
            }
        }
        let contributes = |c: usize| round.fates[c].contributes;
        let norm = |c: usize| param_norm(round.observed(&self.clients, c));
        let mut quarantine: Vec<bool> = (0..n)
            .map(|c| contributes(c) && !param_is_finite(round.observed(&self.clients, c)))
            .collect();
        let mut norms: Vec<f64> = (0..n)
            .filter(|&c| contributes(c) && !quarantine[c])
            .map(norm)
            .collect();
        norms.sort_by(|a, b| a.total_cmp(b));
        // Lower quartile, not median: client models all descend from the
        // same template so clean norms are tightly grouped, and the guard
        // then survives rounds where corrupted uploads are the majority
        // (breakdown point 75% instead of 50%).
        if let Some(&reference) = norms.get(norms.len() / 4).filter(|&&r| r > 0.0) {
            for (c, q) in quarantine.iter_mut().enumerate() {
                if contributes(c) && !*q && norm(c) > plan.norm_guard * reference {
                    *q = true;
                }
            }
        }
        for c in (0..n).filter(|&c| quarantine[c]) {
            // The garbage bytes were delivered — price them.
            let bytes = param_bytes(self.clients[c].encoder.params());
            self.price_upload(round, c, bytes);
            let fate = &mut round.fates[c];
            fate.quarantined = true;
            fate.contributes = false;
            fate.observed = None;
        }
    }

    /// Phase 4: the quorum gate, then aggregation over the contributors and
    /// the aggregator trunk's traffic. The round commits only when enough of
    /// the cohort's sample-count weight reported; an aborted round is a
    /// recorded no-op — contributor uploads (and aggregator forwards) are
    /// priced because the bytes moved, but nothing is scored, aggregated or
    /// installed, so garbage from a structurally broken round can never
    /// enter the models.
    fn commit(&mut self, round: &mut Round, obs: &Arc<Registry>) {
        let contributing: Vec<usize> = (0..round.fates.len())
            .filter(|&c| round.fates[c].contributes)
            .collect();
        let quorum = self.config.quorum.clamp(0.0, 1.0);
        let ungated = quorum <= 0.0 || matches!(self.config.strategy, Strategy::LocalOnly);
        if !ungated {
            let weight = |ids: &[usize]| -> f64 {
                ids.iter()
                    .map(|&c| self.clients[c].sample_count() as f64)
                    .sum()
            };
            let cohort: Vec<usize> = (0..round.fates.len())
                .filter(|&c| round.fates[c].sampled)
                .collect();
            let cohort_weight = weight(&cohort);
            if cohort_weight > 0.0 {
                let frac = weight(&contributing) / cohort_weight;
                round.quorum_margin = Some(frac - quorum);
                round.quorum_met = frac >= quorum;
            }
        }

        if round.quorum_met {
            if self.config.sybil_defense {
                self.score_trust(round);
            }
            let _s = obs.span("fed.sim.aggregate");
            match self.config.strategy.clone() {
                Strategy::LocalOnly => {}
                Strategy::FedAvg => self.aggregate_full(std::slice::from_ref(&contributing), round),
                Strategy::Fmtl { eps1, eps2 } => {
                    self.refine_clusters(eps1, eps2, false);
                    let clusters = self.surviving_clusters(round);
                    self.aggregate_full(&clusters, round);
                }
                Strategy::GcflPlus { eps1, eps2 } => {
                    self.refine_clusters(eps1, eps2, true);
                    let clusters = self.surviving_clusters(round);
                    self.aggregate_full(&clusters, round);
                }
                Strategy::FexIot { eps1, eps2 } => {
                    self.recursive_layerwise(0, &contributing, eps1, eps2, round);
                }
            }
        } else {
            // The contributors' uploads were already in flight when the
            // server gave up on the round; price them at full-model cost.
            for &c in &contributing {
                let bytes = param_bytes(self.clients[c].encoder.params());
                self.price_upload(round, c, bytes);
            }
        }

        // Price the aggregator→server trunk: each aggregator that served at
        // least one contributor forwards one pre-aggregated message per
        // round (the weighted average is associative, so edge pre-
        // aggregation is the identity on the math — only the traffic shape
        // changes). Committed rounds broadcast the aggregate back down;
        // aborted rounds have nothing to broadcast.
        if self.hierarchical() && !contributing.is_empty() {
            let model_bytes = param_bytes(self.clients[contributing[0]].encoder.params());
            let mut active: Vec<usize> = contributing
                .iter()
                .filter_map(|&c| round.fates[c].route)
                .collect();
            active.sort_unstable();
            active.dedup();
            for _ in &active {
                self.comm.record_agg_forward(model_bytes);
                if round.quorum_met {
                    self.comm.record_agg_broadcast(model_bytes);
                }
            }
        }
    }

    /// Phase 5: folds the round's record into every report of it — the
    /// telemetry, the `fed.*` counters and gauges, the `fed.round.*` series
    /// and SLO verdicts, the critical-path entry and the causal trace. All
    /// of it is a deterministic function of the seeded draws.
    fn report(&mut self, round: Round) -> RoundReport {
        let fates = &round.fates;
        let count = |fact: fn(&Fate) -> bool| fates.iter().filter(|f| fact(f)).count();
        let total = |field: fn(&Fate) -> usize| fates.iter().map(field).sum::<usize>();
        let (sampled, participants) = (count(|f| f.sampled), count(|f| f.contributes));
        let quarantined = count(|f| f.quarantined);
        let mut t = RoundTelemetry {
            clients: fates.len(),
            sampled,
            participants,
            dropped: sampled - participants - quarantined,
            quarantined,
            stale_accepted: count(|f| matches!(f.straggler, Some((_, true)))),
            retried_messages: total(|f| f.retries),
            lost_messages: total(|f| f.lost_messages),
            backoff_ticks: total(|f| f.backoff_ticks),
            deadline_missed: count(|f| f.deadline_miss.is_some()),
            aggregators: self.config.topology.aggregators.max(1),
            agg_down: round.aggs.down_count(),
            reassigned: count(|f| f.rerouted),
            quorum_aborted: !round.quorum_met,
            slo_failures: 0,
        };
        // Hard invariant (release builds too): a pricing bug fails closed as
        // a surfaced error instead of silently corrupting the Fig. 7
        // accounting. Debug builds still abort loudly.
        let comm_error = self.comm.validate().err();
        if let Some(e) = &comm_error {
            self.obs.counter_add("fed.sim.comm_invariant_violations", 1);
            debug_assert!(false, "comm stats invariant violated: {e}");
        }
        // The round's traffic; the trunk's rows exist only where there is
        // an aggregator tier.
        let d = self.comm.delta_since(&round.comm_before);
        let traffic = [
            ("fed.comm.uploaded_bytes", d.uploaded_bytes),
            ("fed.comm.downloaded_bytes", d.downloaded_bytes),
            ("fed.comm.upload_messages", d.upload_messages),
            ("fed.comm.download_messages", d.download_messages),
            ("fed.agg.forward_messages", d.agg_forward_messages),
            ("fed.agg.forward_bytes", d.agg_forward_bytes),
            ("fed.agg.broadcast_messages", d.agg_broadcast_messages),
            ("fed.agg.broadcast_bytes", d.agg_broadcast_bytes),
        ];
        let rows = if self.hierarchical() { 8 } else { 4 };
        let counters = ROUND_COUNTS.iter().map(|[c, _]| *c).zip(t.counts());
        for (name, v) in counters.chain(traffic.into_iter().take(rows)) {
            self.obs.counter_add(name, v as u64);
        }
        let gauges = [
            round.mean_loss,
            (d.uploaded_bytes + d.downloaded_bytes) as f64,
            (d.upload_messages + d.download_messages) as f64,
        ];
        for ([name, _], v) in ROUND_GAUGES.iter().zip(gauges) {
            self.obs.gauge_set(name, v);
        }
        let loss = round.mean_loss;
        self.obs
            .hist_record("fed.round.loss", fexiot_obs::buckets::LOSS, loss);
        if let Some(margin) = round.quorum_margin {
            self.obs.gauge_set("fed.round.quorum_margin", margin);
        }
        if let Some(trace) = self.causal.as_deref_mut() {
            trace.record(&round, &self.config.topology, &self.injector);
        }
        // Aggregator straggle is a cohort-wide wait: every trained client
        // routed through a late aggregator carries its delay.
        let ticks = fates.iter().enumerate().map(|(client, f)| ClientTicks {
            client,
            straggler: f.straggler.map_or(0, |(wait, _)| wait) as u64,
            backoff: f.backoff_ticks as u64,
            agg: if f.trained { f.agg_delay as u64 } else { 0 },
            retries: f.retries as u64,
        });
        self.path.push(slowest_client(round.index, ticks));

        // Fleet-health hook: push this round's samples, let the store
        // evaluate its snapshot-driven specs, then run the SLO rules over
        // the updated series. Keyed by the 0-based round index so series
        // round numbers match `round[N]` marks and span names.
        if let Some(tel) = self.telemetry.as_deref_mut() {
            let r = round.index as u64;
            tel.push_sample(r, "fed.round.clients", t.clients as f64);
            for ([_, series], v) in ROUND_COUNTS.iter().zip(t.counts()) {
                tel.push_sample(r, series, v as f64);
            }
            for ([_, series], v) in ROUND_GAUGES.iter().zip(gauges) {
                tel.push_sample(r, series, v);
            }
            t.slo_failures = tel.observe_round(r, &self.obs.metrics_snapshot());
            // Watch surface: marks carry the per-round verdict count — and,
            // with causal tracing on, the dominant root cause — so
            // `obs-export --watch` can show SLO state straight off the
            // stream.
            self.obs.mark(&format!("slo_failing[{}]", t.slo_failures));
            self.last_root_cause = None;
            if let (true, Some(trace), Some(engine)) =
                (t.slo_failures > 0, self.causal.as_deref(), tel.slo.as_ref())
            {
                let ranked = fexiot_obs::root_cause(trace.builder.graph(), engine);
                if let Some(top) = ranked.first().and_then(|rc| rc.causes.first()) {
                    self.last_root_cause = Some(top.cause.clone());
                    self.obs.mark(&format!("slo_top_cause[{}]", top.cause));
                }
            }
        }
        self.round += 1;
        RoundReport {
            round: self.round,
            mean_loss: round.mean_loss,
            cumulative_comm: self.comm,
            faults: t,
            comm_error,
        }
    }

    /// FoolsGold trust over cumulative update directions. Quarantined
    /// clients' newest (corrupt) update is excluded so garbage cannot poison
    /// the similarity scores.
    fn score_trust(&mut self, round: &Round) {
        // The receive stage flagged exactly the clients whose newest update
        // was quarantined this round (sampling-aware: an unsampled client's
        // stale history entry is never excluded by mistake).
        let histories: Vec<Vec<f64>> = self
            .clients
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let keep = if round.fates[i].quarantined {
                    c.update_history.len().saturating_sub(1)
                } else {
                    c.update_history.len()
                };
                // Cumulative update direction over the retained history.
                let mut acc: Vec<f64> = Vec::new();
                for h in c.update_history.iter().take(keep) {
                    if acc.is_empty() {
                        acc = h.clone();
                    } else {
                        for (a, v) in acc.iter_mut().zip(h) {
                            *a += v;
                        }
                    }
                }
                acc
            })
            .collect();
        self.trust = crate::sybil::foolsgold_weights(&histories);
    }

    /// FMTL/GCFL+ clusters restricted to this round's contributors.
    fn surviving_clusters(&self, round: &Round) -> Vec<Vec<usize>> {
        self.clusters
            .iter()
            .map(|cluster| {
                cluster
                    .iter()
                    .copied()
                    .filter(|&c| round.fates[c].contributes)
                    .collect()
            })
            .collect()
    }

    /// Prices one upload of client `c`'s delivered update, including any
    /// retries.
    fn price_upload(&mut self, round: &mut Round, c: usize, bytes: usize) {
        let attempts = round.up_attempts(c);
        self.comm.record_upload_attempts(bytes, attempts);
        round.fates[c].charge(attempts);
    }

    /// Prices one download to client `c`; returns false when the message is
    /// lost even after every retry (the client keeps its local model).
    fn deliver_download(&mut self, round: &mut Round, c: usize, bytes: usize) -> bool {
        let delivered = round.faults.down_attempts[c];
        let attempts = delivered.unwrap_or(1 + self.injector.plan().max_retries);
        self.comm.record_download_attempts(bytes, attempts);
        let fate = &mut round.fates[c];
        fate.charge(attempts);
        fate.lost_messages += usize::from(delivered.is_none());
        delivered.is_some()
    }

    /// Full-model aggregation within each cluster (FedAvg / FMTL / GCFL+).
    /// Every surviving member uploads its whole model; members of clusters
    /// with at least two contributors download the cluster average.
    fn aggregate_full(&mut self, clusters: &[Vec<usize>], round: &mut Round) {
        for cluster in clusters {
            for &c in cluster {
                let bytes = param_bytes(self.clients[c].encoder.params());
                self.price_upload(round, c, bytes);
            }
            if cluster.len() < 2 {
                continue; // Aggregating one model is the identity: no download.
            }
            let sets: Vec<&ParamVec> = cluster
                .iter()
                .map(|&c| round.observed(&self.clients, c))
                .collect();
            let weights = self.effective_weights(cluster, round);
            let avg = if self.config.secure_aggregation {
                crate::secure_agg::secure_weighted_average(
                    &sets,
                    &weights,
                    self.config.seed ^ (self.round as u64) << 8,
                )
            } else {
                param_weighted_average(&sets, &weights)
            };
            let bytes = param_bytes(&avg);
            for &c in cluster {
                if self.deliver_download(round, c, bytes) {
                    self.clients[c].install(avg.clone());
                }
            }
        }
    }

    /// FMTL / GCFL+ cluster refinement: split a cluster in two when the
    /// stationarity criteria (Eq. 3, whole-model variant) fire.
    fn refine_clusters(&mut self, eps1: f64, eps2: f64, use_history: bool) {
        let mut next = Vec::new();
        for cluster in self.clusters.clone() {
            if cluster.len() < 2 {
                next.push(cluster);
                continue;
            }
            let deltas: Vec<Vec<f64>> = cluster
                .iter()
                .map(|&c| {
                    self.clients[c]
                        .last_delta
                        .as_ref()
                        .map(param_flatten)
                        .unwrap_or_default()
                })
                .collect();
            if deltas.iter().any(Vec::is_empty) {
                next.push(cluster);
                continue;
            }
            if !self.split_criteria(&cluster, &deltas, eps1, eps2) {
                next.push(cluster);
                continue;
            }
            // Similarity basis: latest update (FMTL) or update history (GCFL+).
            let basis: Vec<Vec<f64>> = if use_history {
                cluster
                    .iter()
                    .map(|&c| {
                        let h = &self.clients[c].update_history;
                        h.iter().flatten().copied().collect()
                    })
                    .collect()
            } else {
                deltas
            };
            // Histories can have unequal lengths early on; pad with zeros.
            let max_len = basis.iter().map(Vec::len).max().unwrap_or(0);
            let padded: Vec<Vec<f64>> = basis
                .into_iter()
                .map(|mut v| {
                    v.resize(max_len, 0.0);
                    v
                })
                .collect();
            let (a, b) = binary_cosine_split(&padded, &mut self.rng);
            next.push(a.into_iter().map(|i| cluster[i]).collect());
            next.push(b.into_iter().map(|i| cluster[i]).collect());
        }
        self.clusters = next;
    }

    /// Eq. (3): ϵ1 > ‖Σ_i (|G_i|/|G|) ΔW_i‖ and ϵ2 < max_i ‖ΔW_i‖.
    fn split_criteria(&self, cluster: &[usize], deltas: &[Vec<f64>], eps1: f64, eps2: f64) -> bool {
        let total: f64 = cluster
            .iter()
            .map(|&c| self.clients[c].sample_count() as f64)
            .sum();
        if total == 0.0 {
            return false;
        }
        let dim = deltas[0].len();
        let mut weighted_sum = vec![0.0; dim];
        let mut max_norm = 0.0f64;
        for (&c, d) in cluster.iter().zip(deltas) {
            let w = self.clients[c].sample_count() as f64 / total;
            for (s, &v) in weighted_sum.iter_mut().zip(d) {
                *s += w * v;
            }
            max_norm = max_norm.max(d.iter().map(|v| v * v).sum::<f64>().sqrt());
        }
        let mean_norm = weighted_sum.iter().map(|v| v * v).sum::<f64>().sqrt();
        eps1 > mean_norm && eps2 < max_norm
    }

    /// Algorithm 1: `RecursiveClusteringAgg(l, cluster)`. Traffic follows the
    /// paper's layer-wise scheme in two ways: (i) singleton clusters stop
    /// syncing (aggregating one model is a no-op), and (ii) upper layers sync
    /// on a slower cadence — layer `l` is exchanged every `l + 1` rounds.
    /// The cadence operationalizes the paper's observation that "from the
    /// bottom up, the degree of similarity among deep models decreases":
    /// upper layers are more client-specific, so averaging them every round
    /// buys little, and skipping them is where FexIoT's ~40% communication
    /// saving over whole-model strategies comes from (Fig. 7).
    fn recursive_layerwise(
        &mut self,
        layer: usize,
        subset: &[usize],
        eps1: f64,
        eps2: f64,
        round: &mut Round,
    ) {
        if layer >= self.layer_spans.len() || subset.len() < 2 {
            return;
        }
        if self.config.layer_cadence && !self.round.is_multiple_of(layer + 1) {
            // This layer is off-cadence this round: no upload, no aggregation,
            // no split decision; continue with the same cluster below.
            self.recursive_layerwise(layer + 1, subset, eps1, eps2, round);
            return;
        }
        let (offset, len) = self.layer_spans[layer];
        let layer_bytes = |client: &Client| {
            client.encoder.params()[offset..offset + len]
                .iter()
                .map(Matrix::len)
                .sum::<usize>()
                * std::mem::size_of::<f64>()
        };
        // Upload layer l.
        for &c in subset {
            let bytes = layer_bytes(&self.clients[c]);
            self.price_upload(round, c, bytes);
        }
        // Layer-l deltas for the split criteria.
        let layer_deltas: Vec<Vec<f64>> = subset
            .iter()
            .map(|&c| match &self.clients[c].last_delta {
                Some(d) => {
                    let mut flat = Vec::new();
                    for m in &d[offset..offset + len] {
                        flat.extend_from_slice(m.as_slice());
                    }
                    flat
                }
                None => Vec::new(),
            })
            .collect();

        let split = !layer_deltas.iter().any(Vec::is_empty)
            && self.split_criteria(subset, &layer_deltas, eps1, eps2);

        if split {
            // Cosine similarity of the layer *weights* (Alg. 1 line 13).
            let weights_flat: Vec<Vec<f64>> = subset
                .iter()
                .map(|&c| {
                    let mut flat = Vec::new();
                    for m in &round.observed(&self.clients, c)[offset..offset + len] {
                        flat.extend_from_slice(m.as_slice());
                    }
                    flat
                })
                .collect();
            let (a, b) = binary_cosine_split(&weights_flat, &mut self.rng);
            let sub_a: Vec<usize> = a.into_iter().map(|i| subset[i]).collect();
            let sub_b: Vec<usize> = b.into_iter().map(|i| subset[i]).collect();
            self.aggregate_layer(layer, &sub_a, round);
            self.aggregate_layer(layer, &sub_b, round);
            self.recursive_layerwise(layer + 1, &sub_a, eps1, eps2, round);
            self.recursive_layerwise(layer + 1, &sub_b, eps1, eps2, round);
        } else {
            self.aggregate_layer(layer, subset, round);
            self.recursive_layerwise(layer + 1, subset, eps1, eps2, round);
        }
    }

    /// Weighted average of one layer within a cluster, installed to members.
    fn aggregate_layer(&mut self, layer: usize, subset: &[usize], round: &mut Round) {
        if subset.len() < 2 {
            return;
        }
        let (offset, len) = self.layer_spans[layer];
        let sets: Vec<ParamVec> = subset
            .iter()
            .map(|&c| round.observed(&self.clients, c)[offset..offset + len].to_vec())
            .collect();
        let refs: Vec<&ParamVec> = sets.iter().collect();
        let weights = self.effective_weights(subset, round);
        let avg = if self.config.secure_aggregation {
            crate::secure_agg::secure_weighted_average(
                &refs,
                &weights,
                self.config.seed ^ (self.round as u64) << 8 ^ (layer as u64) << 4,
            )
        } else {
            param_weighted_average(&refs, &weights)
        };
        let bytes: usize = avg.iter().map(Matrix::len).sum::<usize>() * std::mem::size_of::<f64>();
        for &c in subset {
            if self.deliver_download(round, c, bytes) {
                self.clients[c].install_layer(offset, &avg);
            }
        }
    }

    /// Sample-count weights scaled by Sybil-defense trust, then by staleness
    /// decay. `param_weighted_average` renormalizes over the subset, so
    /// partial participation automatically re-weights the survivors.
    fn effective_weights(&self, subset: &[usize], round: &Round) -> Vec<f64> {
        let mut weights = self.aggregation_weights(subset);
        for (w, &c) in weights.iter_mut().zip(subset) {
            *w *= round.fates[c].stale_weight;
        }
        weights
    }

    /// Sample-count weights scaled by Sybil-defense trust. Falls back to
    /// plain sample counts if the defense zeroed everything out, and to
    /// uniform weights if the sample counts themselves are all zero (the
    /// weighted average would otherwise divide by zero).
    fn aggregation_weights(&self, subset: &[usize]) -> Vec<f64> {
        let weighted: Vec<f64> = subset
            .iter()
            .map(|&c| self.clients[c].sample_count() as f64 * self.trust[c])
            .collect();
        if weighted.iter().sum::<f64>() > 0.0 {
            return weighted;
        }
        let counts: Vec<f64> = subset
            .iter()
            .map(|&c| self.clients[c].sample_count() as f64)
            .collect();
        if counts.iter().sum::<f64>() > 0.0 {
            counts
        } else {
            vec![1.0; subset.len()]
        }
    }

    /// The per-round critical path — each round's slowest client chain, with
    /// the simulated ticks attributed to straggler waiting vs retry backoff.
    /// A pure function of the seeded [`FaultPlan`]: same seed, same path.
    /// Not checkpointed: a restored simulator reports the rounds it ran.
    pub fn critical_path(&self) -> Vec<CriticalPathEntry> {
        self.path.clone()
    }

    /// Current FMTL/GCFL+ cluster assignment (for diagnostics).
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.clusters
    }

    /// Per-client trust weights from the Sybil defense (all 1.0 when off).
    pub fn trust(&self) -> &[f64] {
        &self.trust
    }

    /// Rounds completed so far.
    pub fn rounds_completed(&self) -> usize {
        self.round
    }

    /// Cumulative `(epsilon, delta)`-DP guarantee spent so far, if DP is on.
    pub fn privacy_epsilon(&self, delta: f64) -> Option<f64> {
        self.accountant.as_ref().map(|a| a.epsilon(delta))
    }

    /// Evaluates every client on a shared test set.
    pub fn evaluate(&mut self, test: &GraphDataset) -> Vec<Metrics> {
        self.clients.iter_mut().map(|c| c.evaluate(test)).collect()
    }

    /// Mean pairwise cosine similarity of client models (convergence probe).
    pub fn model_similarity(&self) -> f64 {
        let flats: Vec<Vec<f64>> = self
            .clients
            .iter()
            .map(|c| param_flatten(c.encoder.params()))
            .collect();
        let mut total = 0.0;
        let mut n = 0usize;
        for i in 0..flats.len() {
            for j in (i + 1)..flats.len() {
                total += cosine_similarity(&flats[i], &flats[j]);
                n += 1;
            }
        }
        if n == 0 {
            1.0
        } else {
            total / n as f64
        }
    }

    /// Serializes the complete global state between rounds — client models,
    /// deltas and histories, clusters, trust, traffic counters, both RNG
    /// streams, and the crash ledger — so a crashed run can resume exactly
    /// where it stopped.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.write_str(CHECKPOINT_MAGIC);
        w.write_usize(self.round);
        w.write_usize(self.clients.len());
        for c in &self.clients {
            w.write_matrices(c.encoder.params());
            match &c.last_delta {
                Some(d) => {
                    w.write_u8(1);
                    w.write_matrices(d);
                }
                None => w.write_u8(0),
            }
            w.write_usize(c.update_history.len());
            for h in &c.update_history {
                w.write_f64_slice(h);
            }
        }
        w.write_usize(self.clusters.len());
        for cluster in &self.clusters {
            w.write_usize(cluster.len());
            for &i in cluster {
                w.write_usize(i);
            }
        }
        w.write_f64_slice(&self.trust);
        w.write_usize(self.comm.uploaded_bytes);
        w.write_usize(self.comm.downloaded_bytes);
        w.write_usize(self.comm.upload_messages);
        w.write_usize(self.comm.download_messages);
        w.write_usize(self.comm.retried_messages);
        w.write_usize(self.comm.retried_bytes);
        w.write_usize(self.comm.agg_forward_bytes);
        w.write_usize(self.comm.agg_forward_messages);
        w.write_usize(self.comm.agg_broadcast_bytes);
        w.write_usize(self.comm.agg_broadcast_messages);
        for s in self.rng.state() {
            w.write_u64(s);
        }
        let (inj_rng, down_until, agg_down_until) = self.injector.state();
        for s in inj_rng {
            w.write_u64(s);
        }
        w.write_usize(down_until.len());
        for d in down_until {
            w.write_u64(d);
        }
        w.write_usize(agg_down_until.len());
        for d in agg_down_until {
            w.write_u64(d);
        }
        for s in self.sampler.state() {
            w.write_u64(s);
        }
        w.write_usize(self.accountant.as_ref().map_or(0, |a| a.releases()));
        w.into_bytes()
    }

    /// Restores a [`FedSim::checkpoint`] into a freshly built federation
    /// with the same clients and configuration. Continuing `run_round` after
    /// a restore reproduces the original run bit-for-bit.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut r = ByteReader::new(bytes);
        if r.read_str()? != CHECKPOINT_MAGIC {
            return Err(CodecError::BadHeader);
        }
        let round = r.read_usize()?;
        let n = r.read_usize()?;
        if n != self.clients.len() {
            return Err(CodecError::BadHeader);
        }
        for c in &mut self.clients {
            let params = r.read_matrices()?;
            let current = c.encoder.params();
            if params.len() != current.len()
                || params
                    .iter()
                    .zip(current)
                    .any(|(a, b)| a.shape() != b.shape())
            {
                return Err(CodecError::BadHeader);
            }
            c.install(params);
            c.last_delta = match r.read_u8()? {
                1 => Some(r.read_matrices()?),
                _ => None,
            };
            let hist_len = r.read_usize()?;
            c.update_history = (0..hist_len)
                .map(|_| r.read_f64_vec())
                .collect::<Result<_, _>>()?;
        }
        let n_clusters = r.read_usize()?;
        let mut clusters = Vec::with_capacity(n_clusters);
        for _ in 0..n_clusters {
            let len = r.read_usize()?;
            let cluster: Vec<usize> = (0..len).map(|_| r.read_usize()).collect::<Result<_, _>>()?;
            if cluster.iter().any(|&i| i >= n) {
                return Err(CodecError::BadHeader);
            }
            clusters.push(cluster);
        }
        let trust = r.read_f64_vec()?;
        if trust.len() != n {
            return Err(CodecError::BadHeader);
        }
        let comm = CommStats {
            uploaded_bytes: r.read_usize()?,
            downloaded_bytes: r.read_usize()?,
            upload_messages: r.read_usize()?,
            download_messages: r.read_usize()?,
            retried_messages: r.read_usize()?,
            retried_bytes: r.read_usize()?,
            agg_forward_bytes: r.read_usize()?,
            agg_forward_messages: r.read_usize()?,
            agg_broadcast_bytes: r.read_usize()?,
            agg_broadcast_messages: r.read_usize()?,
        };
        let rng_state = [r.read_u64()?, r.read_u64()?, r.read_u64()?, r.read_u64()?];
        let inj_rng = [r.read_u64()?, r.read_u64()?, r.read_u64()?, r.read_u64()?];
        let down_len = r.read_usize()?;
        let down_until: Vec<u64> = (0..down_len)
            .map(|_| r.read_u64())
            .collect::<Result<_, _>>()?;
        if down_until.len() != n {
            return Err(CodecError::BadHeader);
        }
        let agg_down_len = r.read_usize()?;
        // The aggregator ledger is sized lazily; it can never exceed the
        // configured tier (a corrupt blob would otherwise balloon it).
        if agg_down_len > self.config.topology.aggregators.max(1) {
            return Err(CodecError::BadHeader);
        }
        let agg_down_until: Vec<u64> = (0..agg_down_len)
            .map(|_| r.read_u64())
            .collect::<Result<_, _>>()?;
        let sampler_state = [r.read_u64()?, r.read_u64()?, r.read_u64()?, r.read_u64()?];
        let releases = r.read_usize()?;

        self.round = round;
        self.clusters = clusters;
        self.trust = trust;
        self.comm = comm;
        self.rng = Rng::from_state(rng_state);
        self.injector
            .restore_state(inj_rng, down_until, agg_down_until);
        self.sampler.restore_state(sampler_state);
        if let (Some(acc), Some(dp)) = (&mut self.accountant, &self.config.dp) {
            *acc = crate::dp::PrivacyAccountant::new(dp.noise_multiplier);
            for _ in 0..releases {
                acc.record_release();
            }
        }
        Ok(())
    }
}

/// Magic + version prefix of checkpoint blobs.
const CHECKPOINT_MAGIC: &str = "FEXFEDCK2";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Corruption;
    use fexiot_gnn::{Encoder, Gin};
    use fexiot_graph::{generate_dataset, DatasetConfig};

    fn make_sim(strategy: Strategy, n_clients: usize, seed: u64) -> (FedSim, GraphDataset) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut cfg = DatasetConfig::small_ifttt();
        cfg.graph_count = 80;
        let ds = generate_dataset(&cfg, &mut rng);
        let (train, test) = ds.train_test_split(0.8, &mut rng);
        let splits = train.dirichlet_split(n_clients, 1.0, &mut rng);
        let d = train.graphs[0].nodes[0].features.len();
        let template = Gin::new(d, &[12], 6, &mut rng);
        let clients = splits
            .into_iter()
            .enumerate()
            .map(|(i, data)| Client::new(i, Encoder::Gin(template.clone()), data))
            .collect();
        let config = FedConfig {
            strategy,
            rounds: 2,
            local: ContrastiveConfig {
                epochs: 1,
                pairs_per_epoch: 12,
                ..Default::default()
            },
            seed,
            ..Default::default()
        };
        (FedSim::new(clients, config), test)
    }

    #[test]
    fn fedavg_synchronizes_models() {
        let (mut sim, _) = make_sim(Strategy::FedAvg, 4, 1);
        sim.run();
        assert!(
            sim.model_similarity() > 0.999,
            "similarity {}",
            sim.model_similarity()
        );
        assert!(sim.comm.total_bytes() > 0);
    }

    #[test]
    fn local_only_never_communicates() {
        let (mut sim, _) = make_sim(Strategy::LocalOnly, 4, 2);
        sim.run();
        assert_eq!(sim.comm.total_bytes(), 0);
        assert!(
            sim.model_similarity() < 0.9999,
            "local models should diverge"
        );
    }

    #[test]
    fn fexiot_uses_less_traffic_than_fedavg() {
        let (mut avg_sim, _) = make_sim(Strategy::FedAvg, 6, 3);
        avg_sim.run();
        let (mut fex_sim, _) = make_sim(Strategy::fexiot_default(), 6, 3);
        fex_sim.run();
        assert!(
            fex_sim.comm.total_bytes() <= avg_sim.comm.total_bytes(),
            "fexiot {} vs fedavg {}",
            fex_sim.comm.total_bytes(),
            avg_sim.comm.total_bytes()
        );
    }

    #[test]
    fn evaluation_returns_per_client_metrics() {
        let (mut sim, test) = make_sim(Strategy::FedAvg, 3, 4);
        sim.run();
        let metrics = sim.evaluate(&test);
        assert_eq!(metrics.len(), 3);
        for m in metrics {
            assert!((0.0..=1.0).contains(&m.accuracy));
        }
    }

    #[test]
    fn fmtl_clusters_partition_clients() {
        let (mut sim, _) = make_sim(Strategy::fmtl_default(), 5, 5);
        sim.run();
        let mut seen: Vec<usize> = sim.clusters().iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn magnn_federation_runs_layerwise_on_hetero_data() {
        // Heterogeneous platforms + MAGNN + FexIoT layer-wise recursion: the
        // per-type projection layer (5 matrices), metapath layer (7), and
        // readout (1) must all aggregate without shape errors.
        let mut rng = Rng::seed_from_u64(31);
        let mut cfg = fexiot_graph::DatasetConfig::small_hetero();
        cfg.graph_count = 60;
        let ds = generate_dataset(&cfg, &mut rng);
        let (train, test) = ds.train_test_split(0.8, &mut rng);
        let splits = train.dirichlet_split(3, 1.0, &mut rng);
        let template =
            fexiot_gnn::Magnn::for_config(fexiot_graph::FeatureConfig::small(), 12, 6, 6, &mut rng);
        let clients: Vec<Client> = splits
            .into_iter()
            .enumerate()
            .map(|(i, data)| Client::new(i, Encoder::Magnn(template.clone()), data))
            .collect();
        let config = FedConfig {
            strategy: Strategy::fexiot_default(),
            rounds: 3,
            local: ContrastiveConfig {
                epochs: 1,
                pairs_per_epoch: 8,
                ..Default::default()
            },
            seed: 31,
            ..Default::default()
        };
        let mut sim = FedSim::new(clients, config);
        sim.run();
        assert!(sim.comm.total_bytes() > 0);
        for m in sim.evaluate(&test) {
            assert!(m.accuracy.is_finite());
        }
        for c in &sim.clients {
            assert!(c.encoder.params().iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn dp_training_stays_finite_and_accounts_privacy() {
        let (mut sim, test) = make_sim(Strategy::FedAvg, 3, 7);
        sim.config.dp = Some(crate::dp::DpConfig {
            clip_norm: 1.0,
            noise_multiplier: 1.0,
        });
        sim.accountant = Some(crate::dp::PrivacyAccountant::new(1.0));
        sim.run();
        let eps = sim.privacy_epsilon(1e-5).expect("accountant present");
        assert!(eps > 0.0 && eps.is_finite(), "epsilon {eps}");
        for m in sim.evaluate(&test) {
            assert!(m.accuracy.is_finite());
        }
        for c in &sim.clients {
            assert!(c.encoder.params().iter().all(|m| m.is_finite()));
        }
    }

    #[test]
    fn secure_aggregation_matches_plain_aggregation() {
        let (mut plain, _) = make_sim(Strategy::FedAvg, 4, 8);
        let (mut secure, _) = make_sim(Strategy::FedAvg, 4, 8);
        secure.config.secure_aggregation = true;
        plain.run();
        secure.run();
        for (a, b) in plain.clients.iter().zip(&secure.clients) {
            for (ma, mb) in a.encoder.params().iter().zip(b.encoder.params()) {
                assert!(ma.max_abs_diff(mb) < 1e-6, "secure aggregation diverged");
            }
        }
    }

    #[test]
    fn sybil_defense_downweights_replicas() {
        // Clone one client's dataset across three "sybils"; honest clients
        // keep distinct data. After rounds, sybil trust should be lowest.
        let (mut sim, _) = make_sim(Strategy::FedAvg, 6, 9);
        sim.config.sybil_defense = true;
        // Make clients 0,1,2 identical replicas (same data ⇒ same updates,
        // since local seeds derive from client ids we align those too).
        let template = sim.clients[0].data.clone();
        for i in 1..3 {
            sim.clients[i].data = template.clone();
            sim.clients[i].labels = sim.clients[0].labels.clone();
            sim.clients[i].classes = sim.clients[0].classes.clone();
            sim.clients[i].id = sim.clients[0].id; // identical pair sampling
        }
        sim.run();
        let trust = sim.trust().to_vec();
        let sybil_mean = (trust[0] + trust[1] + trust[2]) / 3.0;
        let honest_mean = (trust[3] + trust[4] + trust[5]) / 3.0;
        assert!(
            sybil_mean < honest_mean,
            "sybils {sybil_mean} should be trusted less than honest {honest_mean}: {trust:?}"
        );
    }

    #[test]
    fn reports_track_rounds_and_comm_monotone() {
        let (mut sim, _) = make_sim(Strategy::FedAvg, 3, 6);
        let reports = sim.run();
        assert_eq!(reports.len(), 2);
        assert!(
            reports[0].cumulative_comm.total_bytes() <= reports[1].cumulative_comm.total_bytes()
        );
        assert_eq!(reports[1].round, 2);
    }

    #[test]
    fn try_new_rejects_empty_federations() {
        let config = FedConfig::default();
        assert_eq!(
            FedSim::try_new(Vec::new(), config).err(),
            Some(FedError::NoClients)
        );
    }

    #[test]
    fn zero_weights_fall_back_to_uniform() {
        let (mut sim, _) = make_sim(Strategy::FedAvg, 3, 12);
        // Sybil defense zeroed every trust weight AND the clients report
        // zero samples: both weight sources are dead, so the aggregator
        // must fall back to uniform instead of dividing by zero.
        sim.trust = vec![0.0; 3];
        for c in &mut sim.clients {
            c.data.graphs.clear();
        }
        let w = sim.aggregation_weights(&[0, 1, 2]);
        assert_eq!(w, vec![1.0; 3]);
        // Trust-only zeroing falls back to sample counts.
        let (mut sim2, _) = make_sim(Strategy::FedAvg, 3, 12);
        sim2.trust = vec![0.0; 3];
        let w2 = sim2.aggregation_weights(&[0, 1, 2]);
        assert!(w2.iter().all(|&x| x > 0.0), "{w2:?}");
    }

    #[test]
    fn faultless_telemetry_counts_everyone_as_participant() {
        let (mut sim, _) = make_sim(Strategy::FedAvg, 4, 13);
        let reports = sim.run();
        for r in &reports {
            assert_eq!(r.faults.clients, 4);
            assert_eq!(r.faults.participants, 4);
            assert_eq!(r.faults.dropped, 0);
            assert_eq!(r.faults.quarantined, 0);
            assert_eq!(r.faults.retried_messages, 0);
            assert_eq!(r.faults.lost_messages, 0);
        }
    }

    #[test]
    fn faulty_fexiot_run_survives_dropout_and_corruption() {
        // Acceptance scenario: 30% dropout + corruption injection over a
        // 10-round FexIoT run — no panics, no NaNs, telemetry populated.
        let (mut sim, test) = make_sim(Strategy::fexiot_default(), 6, 21);
        sim.config.rounds = 10;
        sim.config.faults = FaultPlan::none()
            .with_seed(21)
            .with_dropout(0.3)
            .with_corruption(0.2, Corruption::NonFinite);
        sim.injector = FaultInjector::new(sim.config.faults.clone(), 6);
        let reports = sim.run();
        assert_eq!(reports.len(), 10);
        let mut saw_degradation = false;
        for r in &reports {
            assert!(r.mean_loss.is_finite(), "round {}: NaN loss", r.round);
            assert_eq!(
                r.faults.participants + r.faults.dropped + r.faults.quarantined,
                r.faults.clients,
                "round {}: partition broken {:?}",
                r.round,
                r.faults
            );
            if r.faults.dropped > 0 || r.faults.quarantined > 0 {
                saw_degradation = true;
            }
        }
        assert!(saw_degradation, "faults were configured but never fired");
        for c in &sim.clients {
            assert!(
                c.encoder.params().iter().all(Matrix::is_finite),
                "corrupt update leaked into a model"
            );
        }
        for m in sim.evaluate(&test) {
            assert!(m.accuracy.is_finite());
        }
    }

    #[test]
    fn scaled_noise_is_quarantined_by_the_norm_guard() {
        let (mut sim, _) = make_sim(Strategy::FedAvg, 5, 22);
        sim.config.rounds = 3;
        sim.config.faults = FaultPlan::none()
            .with_seed(22)
            .with_corruption(0.3, Corruption::ScaledNoise { factor: 1e6 });
        sim.injector = FaultInjector::new(sim.config.faults.clone(), 5);
        let reports = sim.run();
        let quarantined: usize = reports.iter().map(|r| r.faults.quarantined).sum();
        assert!(quarantined > 0, "norm guard never fired: {reports:?}");
        for c in &sim.clients {
            for m in c.encoder.params() {
                assert!(
                    m.as_slice().iter().all(|v| v.abs() < 1e5),
                    "scaled-noise corruption leaked into a model"
                );
            }
        }
    }

    #[test]
    fn lossy_links_price_retries_into_comm() {
        let (mut sim, _) = make_sim(Strategy::FedAvg, 5, 23);
        sim.config.rounds = 4;
        sim.config.faults = FaultPlan::none().with_seed(23).with_msg_loss(0.4);
        sim.injector = FaultInjector::new(sim.config.faults.clone(), 5);
        let reports = sim.run();
        let retried: usize = reports.iter().map(|r| r.faults.retried_messages).sum();
        assert!(retried > 0, "40% loss over 4 rounds must retry something");
        assert_eq!(sim.comm.retried_messages, retried);
        assert!(sim.comm.retried_bytes > 0);
        assert!(sim.comm.uploaded_bytes >= sim.comm.retried_bytes);
    }

    #[test]
    fn stragglers_within_bound_are_accepted_with_decay() {
        let (mut sim, _) = make_sim(Strategy::FedAvg, 5, 24);
        sim.config.rounds = 4;
        sim.config.faults = FaultPlan::none().with_seed(24).with_straggler(0.6);
        sim.injector = FaultInjector::new(sim.config.faults.clone(), 5);
        let reports = sim.run();
        let stale: usize = reports.iter().map(|r| r.faults.stale_accepted).sum();
        let dropped: usize = reports.iter().map(|r| r.faults.dropped).sum();
        assert!(stale > 0, "60% stragglers must produce stale acceptances");
        assert!(
            dropped > 0,
            "delays beyond the staleness bound must be rejected"
        );
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let make = || {
            let (mut sim, _) = make_sim(Strategy::fexiot_default(), 4, 25);
            sim.config.rounds = 5;
            sim.config.sybil_defense = true;
            sim.config.faults = FaultPlan::none()
                .with_seed(25)
                .with_dropout(0.25)
                .with_msg_loss(0.2)
                .with_crash(0.1, 2);
            sim.injector = FaultInjector::new(sim.config.faults.clone(), 4);
            sim
        };
        let mut original = make();
        original.run_round();
        original.run_round();
        let blob = original.checkpoint();
        let tail_a = [original.run_round(), original.run_round()];

        let mut resumed = make();
        resumed.restore(&blob).expect("restore");
        assert_eq!(resumed.rounds_completed(), 2);
        let tail_b = [resumed.run_round(), resumed.run_round()];

        for (a, b) in tail_a.iter().zip(&tail_b) {
            assert_eq!(a.round, b.round);
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
            assert_eq!(a.cumulative_comm, b.cumulative_comm);
            assert_eq!(a.faults, b.faults);
        }
        for (ca, cb) in original.clients.iter().zip(&resumed.clients) {
            for (ma, mb) in ca.encoder.params().iter().zip(cb.encoder.params()) {
                assert_eq!(ma.max_abs_diff(mb), 0.0, "resumed weights diverged");
            }
        }
    }

    #[test]
    fn restore_rejects_corrupt_or_mismatched_blobs() {
        let (mut sim, _) = make_sim(Strategy::FedAvg, 3, 26);
        let blob = sim.checkpoint();
        assert!(sim.restore(&blob[..blob.len() / 2]).is_err());
        assert!(sim.restore(b"not a checkpoint").is_err());
        let (mut other, _) = make_sim(Strategy::FedAvg, 4, 26);
        assert!(other.restore(&blob).is_err(), "client count must match");
    }
}
