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
    CausalBuilder, CausalGraph, ClientRoundCost, CriticalPathEntry, FleetTelemetry, Registry,
    RoundCost,
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
    /// Subset of `participants` accepted late with decayed weight.
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

/// Server-side view of one round under fault injection: who contributes,
/// what the server actually received, and at what weight.
struct RoundState {
    faults: RoundFaults,
    /// Eligible for aggregation: delivered a valid (non-quarantined) update.
    contributors: Vec<bool>,
    /// Server-side copies that differ from the client's true parameters
    /// (in-flight corruption). `None` = received verbatim.
    observed: Vec<Option<ParamVec>>,
    /// Aggregation-weight multiplier from staleness decay (1.0 = on time).
    stale_weight: Vec<f64>,
}

impl RoundState {
    fn clean(n: usize) -> Self {
        Self {
            faults: RoundFaults::clean(n),
            contributors: vec![true; n],
            observed: vec![None; n],
            stale_weight: vec![1.0; n],
        }
    }

    /// What the server received from client `c` (corrupted copy if the wire
    /// damaged it, the client's own parameters otherwise).
    fn observed_params<'a>(&'a self, clients: &'a [Client], c: usize) -> &'a ParamVec {
        self.observed[c]
            .as_ref()
            .unwrap_or_else(|| clients[c].encoder.params())
    }

    fn up_attempts(&self, c: usize) -> usize {
        self.faults.up_attempts[c].unwrap_or(1)
    }
}

/// Fleet-structure context for one round, fixed before any update is
/// received: who was sampled, which aggregator serves each client (after
/// failover), how late that aggregator is, and the round deadline.
struct RoundCtx {
    /// In this round's cohort.
    sampled: Vec<bool>,
    /// Serving aggregator per client after failover; `None` = no path to
    /// the server this round (home aggregator down, `Failover::Skip` or no
    /// survivor). Always `Some(0)` on flat topologies.
    route: Vec<Option<usize>>,
    /// Straggler delay of the serving aggregator (0 when on time or flat).
    agg_delay: Vec<usize>,
    deadline: Option<usize>,
}

impl RoundCtx {
    /// The pre-fleet context: everyone sampled, flat routing, no deadline.
    fn full(n: usize) -> Self {
        Self {
            sampled: vec![true; n],
            route: vec![Some(0); n],
            agg_delay: vec![0; n],
            deadline: None,
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
    /// Observability registry backing [`RoundTelemetry`]: degradation events
    /// increment `fed.sim.*` counters here, and the round report reads the
    /// per-round deltas back. Private and always-enabled by default so
    /// concurrent simulations in one process never share counters;
    /// [`FedSim::attach_obs`] substitutes a shared registry.
    obs: Arc<Registry>,
    /// One child registry per client: client-side instrumentation (the
    /// `fed.client.*` span and histograms) records here in isolation, and
    /// each client's snapshot is merged into the main registry right after
    /// its training — federated trace merging. Reset after every merge.
    client_obs: Vec<Arc<Registry>>,
    /// Fleet-health telemetry: per-round time-series samples plus optional
    /// SLO evaluation, snapshotted at the end of every round. Pure obs data
    /// like `cost_acc` — never fed back into simulation state, and not
    /// checkpointed. Boxed so the common no-telemetry path pays one pointer.
    telemetry: Option<Box<FleetTelemetry>>,
    /// Per-client simulated-tick cost attribution for the round in flight.
    /// Pure obs data: integer bookkeeping on the side, never fed back into
    /// training or RNG state, and not checkpointed.
    cost_acc: Vec<ClientRoundCost>,
    /// Completed rounds' cost attribution, input to [`FedSim::critical_path`].
    round_costs: Vec<RoundCost>,
    /// Causal trace recorder ([`FedSim::enable_causal_trace`]): every fault
    /// realization mirrored as graph nodes/edges, built on the coordinator
    /// thread only. Pure obs data like `cost_acc` — never fed back into
    /// simulation state, and not checkpointed.
    causal: Option<Box<CausalBuilder>>,
    /// Dominant fault kind behind the latest failing SLO evaluation
    /// (requires both telemetry and causal tracing; `None` while passing).
    last_root_cause: Option<String>,
    rng: Rng,
    round: usize,
}

/// Counters that back [`RoundTelemetry`]. A round report is the delta of
/// these between round start and round end, so the reported values are
/// bit-identical to the hand-rolled accumulators they replaced (locked by
/// `tests/golden.rs`) while the registry keeps whole-run totals.
const ROUND_COUNTERS: [&str; 6] = [
    "fed.sim.participants",
    "fed.sim.quarantined",
    "fed.sim.stale_accepted",
    "fed.sim.retried_messages",
    "fed.sim.lost_messages",
    "fed.sim.backoff_ticks",
];

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
            cost_acc: Vec::new(),
            round_costs: Vec::new(),
            causal: None,
            last_root_cause: None,
            rng,
            round: 0,
        })
    }

    /// Substitutes the simulator's private observability registry (for
    /// example with the process-global one, so a CLI run exports a single
    /// report covering pipeline + federation). The registry is force-enabled
    /// because [`RoundTelemetry`] is computed from its counters — a disabled
    /// registry would zero every fault report.
    pub fn attach_obs(&mut self, reg: Arc<Registry>) {
        reg.set_enabled(true);
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
    /// data: like `cost_acc`, it never feeds back into simulation state and
    /// is not checkpointed.
    pub fn enable_causal_trace(&mut self, run: &str) {
        self.causal = Some(Box::new(CausalBuilder::new(
            run,
            self.config.seed,
            self.clients.len(),
        )));
    }

    /// Detaches and finalizes the causal trace, if recording was enabled.
    pub fn take_causal_trace(&mut self) -> Option<CausalGraph> {
        self.causal.take().map(|b| b.finish())
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

    /// One federated round: local training, fault realization, validation,
    /// then aggregation over the surviving subset.
    pub fn run_round(&mut self) -> RoundReport {
        let n = self.clients.len();
        if n == 0 {
            // Unreachable through the constructors; kept as a hard guard so
            // an empty federation can never emit NaN (0.0 / 0) reports.
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
        let base: Vec<u64> = ROUND_COUNTERS
            .iter()
            .map(|name| obs.counter_value(name))
            .collect();
        let deadline_base = obs.counter_value("fed.agg.deadline_missed");
        let fault_active = self.injector.plan().is_active();
        let comm_before = self.comm;
        let round_faults = if fault_active {
            self.injector.draw_round(self.round)
        } else {
            RoundFaults::clean(n)
        };

        // Fleet structure: draw this round's cohort (weighted by sample
        // count, from the sampler's own stream), realize aggregator faults,
        // and resolve failover routing. `Sampling::Full` + a flat topology
        // short-circuits to the pre-fleet context: no extra RNG draws, no
        // extra counters, bit-identical rounds (locked by `tests/golden.rs`).
        let topo = self.config.topology;
        // LocalOnly has no server, so there is nothing for an aggregator
        // tier to forward to; treat it as flat.
        let hierarchical =
            topo.is_hierarchical() && !matches!(self.config.strategy, Strategy::LocalOnly);
        let sampling_active = self.config.sampling.is_active(n);
        let mut ctx = RoundCtx::full(n);
        ctx.deadline = self.config.deadline_ticks;
        let cohort: Vec<usize> = if sampling_active {
            let weights: Vec<f64> = self
                .clients
                .iter()
                .map(|c| c.sample_count() as f64)
                .collect();
            let cohort = self.sampler.draw_cohort(&weights);
            ctx.sampled = vec![false; n];
            for &c in &cohort {
                ctx.sampled[c] = true;
            }
            obs.counter_add("fed.sim.sampled", cohort.len() as u64);
            cohort
        } else {
            (0..n).collect()
        };
        let agg_faults = if hierarchical && self.injector.plan().agg_faults_active() {
            self.injector.draw_agg_round(self.round, topo.aggregators)
        } else {
            AggRoundFaults::clean(topo.aggregators.max(1))
        };
        let mut agg_down = 0usize;
        let mut reassigned = 0usize;
        if hierarchical {
            let up: Vec<bool> = agg_faults
                .status
                .iter()
                .map(|s| !matches!(s, AggStatus::Down))
                .collect();
            agg_down = agg_faults.down_count();
            for &c in &cohort {
                let home = topo.aggregator_of(c);
                ctx.route[c] = Some(home);
                if up[home] {
                    continue;
                }
                ctx.route[c] = match topo.failover {
                    // Ring failover: the cohort reroutes to the next
                    // surviving aggregator clockwise from home.
                    Failover::Reassign => (1..topo.aggregators)
                        .map(|d| (home + d) % topo.aggregators)
                        .find(|&a| up[a])
                        .inspect(|_| reassigned += 1),
                    Failover::Skip => None,
                };
            }
            for &c in &cohort {
                if let Some(AggStatus::Straggler { delay }) =
                    ctx.route[c].map(|a| agg_faults.status[a])
                {
                    ctx.agg_delay[c] = delay;
                }
            }
            if agg_down > 0 {
                obs.counter_add("fed.agg.down", agg_down as u64);
            }
            if reassigned > 0 {
                obs.counter_add("fed.agg.reassigned", reassigned as u64);
            }
        }

        // Causal trace: mirror this round's fault realization as graph
        // nodes, on the coordinator thread in client/aggregator order. The
        // draws above are fixed before the training scatter, so the graph is
        // a pure function of the seed — byte-identical at any thread width.
        if self.causal.is_some() {
            let round = self.round;
            let injector = &self.injector;
            let cb = self.causal.as_deref_mut().expect("checked above");
            cb.begin_round(round);
            for c in 0..n {
                match round_faults.participation[c] {
                    // `Crashed` only ever comes from the multi-round crash
                    // ledger, so it is a crash window — not a transient drop.
                    Participation::Crashed => cb.client_crash(round, c),
                    Participation::Dropout => {
                        cb.client_up(round, c);
                        if ctx.sampled[c] {
                            cb.client_dropout(round, c);
                        }
                    }
                    _ => cb.client_up(round, c),
                }
            }
            if hierarchical {
                let aggs = topo.aggregators.max(1);
                let up: Vec<bool> = agg_faults
                    .status
                    .iter()
                    .map(|s| !matches!(s, AggStatus::Down))
                    .collect();
                let mut affected = vec![0u64; aggs];
                for &c in &cohort {
                    let home = topo.aggregator_of(c);
                    if !up[home] {
                        affected[home] += 1;
                    }
                }
                let mut down_nodes: Vec<Option<u64>> = vec![None; aggs];
                for (a, status) in agg_faults.status.iter().enumerate() {
                    match *status {
                        AggStatus::Down => {
                            let id = if injector.agg_crashed(a, round) {
                                cb.agg_crash(round, a, affected[a])
                            } else {
                                cb.agg_dropout(round, a, affected[a])
                            };
                            down_nodes[a] = Some(id);
                        }
                        AggStatus::Straggler { delay } => {
                            cb.agg_up(round, a);
                            cb.agg_straggler(round, a, delay as u64);
                        }
                        AggStatus::Up => cb.agg_up(round, a),
                    }
                }
                for &c in &cohort {
                    let home = topo.aggregator_of(c);
                    if !up[home] && ctx.route[c].is_some() {
                        cb.agg_reassign(round, c, down_nodes[home]);
                    }
                }
            }
        }

        self.cost_acc = (0..n)
            .map(|client| ClientRoundCost {
                client,
                ..Default::default()
            })
            .collect();

        // Local training on every sampled, online, routable client
        // (stragglers train too — they are slow, not dead; a cohort behind a
        // dead aggregator with no failover sits the round out entirely).
        // The fault plan and routing were fixed above on the calling thread,
        // so the scatter sees a fixed train set; each client trains against
        // its own RNG stream and its own child registry (`with_registry`
        // routes the trainer's global-registry instrumentation there), which
        // keeps both the parameter math and the traces independent of worker
        // interleaving.
        let local_cfg = ContrastiveConfig {
            seed: self.config.local.seed ^ (self.round as u64) << 17,
            ..self.config.local.clone()
        };
        let train_ids: Vec<usize> = cohort
            .iter()
            .copied()
            .filter(|&c| round_faults.participation[c].trains() && ctx.route[c].is_some())
            .collect();
        let losses: Vec<f64> = {
            let client_obs = &self.client_obs;
            fexiot_par::pool().map_subset_mut(&mut self.clients, &train_ids, |i, client| {
                let creg = &client_obs[i];
                fexiot_obs::with_registry(creg, || client.local_train_traced(&local_cfg, creg))
            })
        };
        // Gather in client order (train_ids is sorted ascending): losses sum
        // in the same sequence as the sequential loop (bit-identical mean),
        // and each child trace is merged under its `client[i]` span before
        // the next one.
        let mut total_loss = 0.0;
        let trained = train_ids.len();
        for (&i, loss) in train_ids.iter().zip(losses) {
            let _s = obs.span(format!("client[{i}]"));
            let creg = &self.client_obs[i];
            total_loss += loss;
            self.cost_acc[i].trained = true;
            obs.absorb(&creg.snapshot());
            creg.reset();
        }
        // Aggregator straggle is a cohort-wide wait: every trained client
        // routed through a late aggregator carries its delay.
        for &c in &train_ids {
            self.cost_acc[c].agg_ticks = ctx.agg_delay[c] as u64;
        }
        let mean_loss = if trained == 0 {
            0.0
        } else {
            total_loss / trained as f64
        };
        obs.gauge_set("fed.sim.mean_loss", mean_loss);
        obs.hist_record("fed.round.loss", fexiot_obs::buckets::LOSS, mean_loss);

        // §VI extensions: privatize what the server will observe, then score
        // client trust from the (privatized) update histories. Only clients
        // that trained this round have a fresh update to privatize.
        if let Some(dp) = self.config.dp {
            for &i in &train_ids {
                self.clients[i].privatize_last_update(&dp, &mut self.rng);
            }
            if let Some(acc) = &mut self.accountant {
                acc.record_release();
            }
        }

        // Server-side realization of the round: who delivered what.
        let state = {
            let _s = obs.span("fed.sim.receive");
            self.receive_updates(round_faults, &ctx)
        };

        let contributing: Vec<usize> = (0..n).filter(|&c| state.contributors[c]).collect();

        // Quorum gate: the round commits only when enough of the cohort's
        // sample-count weight actually reported. An aborted round is a
        // recorded no-op — contributor uploads (and aggregator forwards) are
        // priced because the bytes moved, but nothing is scored, aggregated,
        // or installed, so garbage from a structurally broken round can
        // never enter the models.
        let quorum = self.config.quorum.clamp(0.0, 1.0);
        let quorum_met = if quorum <= 0.0 || matches!(self.config.strategy, Strategy::LocalOnly) {
            true
        } else {
            let weight = |ids: &[usize]| -> f64 {
                ids.iter()
                    .map(|&c| self.clients[c].sample_count() as f64)
                    .sum()
            };
            let cohort_weight = weight(&cohort);
            if cohort_weight <= 0.0 {
                true
            } else {
                // Reported-weight fraction minus the gate: positive =
                // headroom, negative = aborted. Deterministic (sample
                // counts only), so the watch view and time-series can
                // carry it.
                let frac = weight(&contributing) / cohort_weight;
                obs.gauge_set("fed.round.quorum_margin", frac - quorum);
                frac >= quorum
            }
        };

        if quorum_met {
            if self.config.sybil_defense {
                self.score_trust();
            }
            let _s = obs.span("fed.sim.aggregate");
            match self.config.strategy.clone() {
                Strategy::LocalOnly => {}
                Strategy::FedAvg => {
                    self.aggregate_full(std::slice::from_ref(&contributing), &state)
                }
                Strategy::Fmtl { eps1, eps2 } => {
                    self.refine_clusters(eps1, eps2, false);
                    let clusters = self.surviving_clusters(&state);
                    self.aggregate_full(&clusters, &state);
                }
                Strategy::GcflPlus { eps1, eps2 } => {
                    self.refine_clusters(eps1, eps2, true);
                    let clusters = self.surviving_clusters(&state);
                    self.aggregate_full(&clusters, &state);
                }
                Strategy::FexIot { eps1, eps2 } => {
                    self.recursive_layerwise(0, &contributing, eps1, eps2, &state);
                }
            }
        } else {
            obs.counter_add("fed.agg.quorum_aborts", 1);
            if let Some(cb) = self.causal.as_deref_mut() {
                cb.quorum_abort(
                    self.round,
                    cohort.len().saturating_sub(contributing.len()) as u64,
                );
            }
            // The contributors' uploads were already in flight when the
            // server gave up on the round; price them at full-model cost.
            for &c in &contributing {
                let bytes = param_bytes(self.clients[c].encoder.params());
                self.price_upload(c, bytes, &state);
            }
        }

        // Price the aggregator→server trunk: each aggregator that served at
        // least one contributor forwards one pre-aggregated message per
        // round (the weighted average is associative, so edge pre-
        // aggregation is the identity on the math — only the traffic shape
        // changes). Committed rounds broadcast the aggregate back down;
        // aborted rounds have nothing to broadcast.
        if hierarchical && !contributing.is_empty() {
            let model_bytes = param_bytes(self.clients[contributing[0]].encoder.params());
            let mut active_aggs: Vec<usize> =
                contributing.iter().filter_map(|&c| ctx.route[c]).collect();
            active_aggs.sort_unstable();
            active_aggs.dedup();
            for _ in &active_aggs {
                self.comm.record_agg_forward(model_bytes);
            }
            if quorum_met {
                for _ in &active_aggs {
                    self.comm.record_agg_broadcast(model_bytes);
                }
            }
        }

        for (c, &contributed) in state.contributors.iter().enumerate() {
            self.cost_acc[c].contributed = contributed;
        }

        // Retries are counted by `CommStats` as messages move; fold this
        // round's delta into the registry so the report below — and any
        // exported obs run report — read from one source. The same fold
        // surfaces the round's traffic as deterministic `fed.comm.*`
        // counters (whole-run totals) and per-round gauges.
        let comm_delta = self.comm.delta_since(&comm_before);
        self.obs.counter_add(
            "fed.sim.retried_messages",
            comm_delta.retried_messages as u64,
        );
        self.obs
            .counter_add("fed.comm.uploaded_bytes", comm_delta.uploaded_bytes as u64);
        self.obs.counter_add(
            "fed.comm.downloaded_bytes",
            comm_delta.downloaded_bytes as u64,
        );
        self.obs.counter_add(
            "fed.comm.upload_messages",
            comm_delta.upload_messages as u64,
        );
        self.obs.counter_add(
            "fed.comm.download_messages",
            comm_delta.download_messages as u64,
        );
        self.obs.gauge_set(
            "fed.comm.round_bytes",
            (comm_delta.uploaded_bytes + comm_delta.downloaded_bytes) as f64,
        );
        self.obs.gauge_set(
            "fed.comm.round_messages",
            (comm_delta.upload_messages + comm_delta.download_messages) as f64,
        );
        if hierarchical {
            self.obs.counter_add(
                "fed.agg.forward_messages",
                comm_delta.agg_forward_messages as u64,
            );
            self.obs
                .counter_add("fed.agg.forward_bytes", comm_delta.agg_forward_bytes as u64);
            self.obs.counter_add(
                "fed.agg.broadcast_messages",
                comm_delta.agg_broadcast_messages as u64,
            );
            self.obs.counter_add(
                "fed.agg.broadcast_bytes",
                comm_delta.agg_broadcast_bytes as u64,
            );
        }
        // Hard invariant (release builds too): a pricing bug fails closed as
        // a surfaced error instead of silently corrupting the Fig. 7
        // accounting. Debug builds still abort loudly.
        let comm_error = self.comm.validate().err();
        if let Some(e) = &comm_error {
            self.obs.counter_add("fed.sim.comm_invariant_violations", 1);
            debug_assert!(false, "comm stats invariant violated: {e}");
        }

        // The report's telemetry is read back from the registry as this
        // round's counter deltas.
        let delta = |i: usize| (self.obs.counter_value(ROUND_COUNTERS[i]) - base[i]) as usize;
        let participants = delta(0);
        let quarantined = delta(1);
        let sampled = cohort.len();
        let mut report_faults = RoundTelemetry {
            clients: n,
            sampled,
            participants,
            dropped: sampled - participants - quarantined,
            quarantined,
            stale_accepted: delta(2),
            retried_messages: delta(3),
            lost_messages: delta(4),
            backoff_ticks: delta(5),
            deadline_missed: (self.obs.counter_value("fed.agg.deadline_missed") - deadline_base)
                as usize,
            aggregators: topo.aggregators.max(1),
            agg_down,
            reassigned,
            quorum_aborted: !quorum_met,
            slo_failures: 0,
        };
        // Fleet-health hook: push this round's telemetry as direct samples
        // (every value above is a deterministic function of the seed), let
        // the store evaluate its snapshot-driven specs, then run the SLO
        // rules over the updated series. Keyed by the 0-based round index so
        // series round numbers match `round[N]` marks and span names.
        if let Some(tel) = self.telemetry.as_deref_mut() {
            let r = self.round as u64;
            let f = &report_faults;
            for (name, v) in [
                ("fed.round.clients", f.clients as f64),
                ("fed.round.sampled", f.sampled as f64),
                ("fed.round.participants", f.participants as f64),
                ("fed.round.dropped", f.dropped as f64),
                ("fed.round.quarantined", f.quarantined as f64),
                ("fed.round.stale_accepted", f.stale_accepted as f64),
                ("fed.round.retried_messages", f.retried_messages as f64),
                ("fed.round.lost_messages", f.lost_messages as f64),
                ("fed.round.backoff_ticks", f.backoff_ticks as f64),
                ("fed.round.deadline_missed", f.deadline_missed as f64),
                ("fed.round.agg_down", f.agg_down as f64),
                ("fed.round.reassigned", f.reassigned as f64),
                ("fed.round.quorum_aborted", f.quorum_aborted as u8 as f64),
                ("fed.round.mean_loss", mean_loss),
                (
                    "fed.round.comm_bytes",
                    (comm_delta.uploaded_bytes + comm_delta.downloaded_bytes) as f64,
                ),
                (
                    "fed.round.comm_messages",
                    (comm_delta.upload_messages + comm_delta.download_messages) as f64,
                ),
            ] {
                tel.push_sample(r, name, v);
            }
            report_faults.slo_failures = tel.observe_round(r, &self.obs.metrics_snapshot());
            // Watch surface: marks carry the per-round verdict count — and,
            // with causal tracing on, the dominant root cause — so
            // `obs-export --watch` can show SLO state straight off the
            // stream. Deterministic: counts and causes derive from the
            // seeded draws only.
            self.obs
                .mark(&format!("slo_failing[{}]", report_faults.slo_failures));
            self.last_root_cause = None;
            if report_faults.slo_failures > 0 {
                if let (Some(cb), Some(engine)) = (self.causal.as_deref(), tel.slo.as_ref()) {
                    let ranked = fexiot_obs::root_cause(cb.graph(), engine);
                    if let Some(top) = ranked.first().and_then(|rc| rc.causes.first()) {
                        self.last_root_cause = Some(top.cause.clone());
                        self.obs.mark(&format!("slo_top_cause[{}]", top.cause));
                    }
                }
            }
        }
        self.round_costs.push(RoundCost {
            round: self.round,
            costs: std::mem::take(&mut self.cost_acc),
        });
        self.round += 1;
        RoundReport {
            round: self.round,
            mean_loss,
            cumulative_comm: self.comm,
            faults: report_faults,
            comm_error,
        }
    }

    /// Turns the round's fault realization into the server's view: which
    /// updates arrived, which were corrupted in flight, which survive
    /// validation and the round deadline, and at what staleness weight. Also
    /// prices the traffic of uploads that never made it into aggregation
    /// (lost or quarantined). Only this round's cohort — restricted to
    /// clients with a live aggregator route — can contribute at all.
    fn receive_updates(&mut self, round_faults: RoundFaults, ctx: &RoundCtx) -> RoundState {
        let n = self.clients.len();
        let mut state = RoundState::clean(n);
        state.faults = round_faults;
        // LocalOnly has no server: nobody uploads, so nothing can be lost,
        // corrupted, or quarantined. Participants are whoever trained
        // (aggregator routing does not apply — there is nowhere to route).
        if matches!(self.config.strategy, Strategy::LocalOnly) {
            for c in 0..n {
                state.contributors[c] = ctx.sampled[c] && state.faults.participation[c].trains();
            }
            let participants = state.contributors.iter().filter(|&&x| x).count();
            self.obs
                .counter_add("fed.sim.participants", participants as u64);
            return state;
        }
        let plan = self.injector.plan().clone();
        // Unsampled clients and cohorts stranded behind a dead aggregator
        // are out of the round before any update can move.
        for c in 0..n {
            state.contributors[c] = ctx.sampled[c] && ctx.route[c].is_some();
        }

        // 1. Staleness-bounded participation: on-time clients are full
        //    weight, stragglers within the bound are decayed, later ones
        //    contribute nothing this round. The server waits a straggler out
        //    up to the staleness bound either way — that wait is the round's
        //    dominant simulated-tick cost for critical-path attribution.
        for c in 0..n {
            if !state.contributors[c] {
                continue;
            }
            match state.faults.participation[c] {
                Participation::Active => {}
                Participation::Straggler { delay } => {
                    let wait = straggler_wait(delay, plan.staleness_bound) as u64;
                    self.cost_acc[c].straggler_ticks = wait;
                    let waited = self
                        .causal
                        .as_deref_mut()
                        .map(|cb| cb.client_straggler(self.round, c, wait));
                    if delay <= plan.staleness_bound {
                        state.stale_weight[c] = plan.staleness_decay.powi(delay as i32);
                        self.obs.counter_add("fed.sim.stale_accepted", 1);
                        if let (Some(cb), Some(after)) = (self.causal.as_deref_mut(), waited) {
                            cb.stale_accept(self.round, c, after);
                        }
                    } else {
                        state.contributors[c] = false;
                        if let (Some(cb), Some(after)) = (self.causal.as_deref_mut(), waited) {
                            cb.stale_reject(self.round, c, after);
                        }
                    }
                }
                _ => state.contributors[c] = false,
            }
        }

        // 2. Upload delivery with bounded retry. A lost upload still burned
        //    bandwidth on every attempt; price it at full-model cost (an
        //    upper bound for the layer-cadence strategies) and drop the
        //    client from the round.
        for c in 0..n {
            if !state.contributors[c] {
                continue;
            }
            if state.faults.up_attempts[c].is_none() {
                let bytes = param_bytes(self.clients[c].encoder.params());
                let attempts = 1 + plan.max_retries;
                self.comm.record_upload_attempts(bytes, attempts);
                self.charge_backoff(c, attempts);
                self.obs.counter_add("fed.sim.lost_messages", 1);
                self.cost_acc[c].lost_upload = true;
                state.contributors[c] = false;
                if let Some(cb) = self.causal.as_deref_mut() {
                    cb.lost_upload(self.round, c, backoff_ticks_for(attempts) as u64);
                }
            }
        }

        // Causal: uploads that landed only after retransmission are their
        // own fault events, costed at the backoff ticks they added.
        if self.causal.is_some() {
            for c in 0..n {
                if state.contributors[c] && state.up_attempts(c) > 1 {
                    let ticks = backoff_ticks_for(state.up_attempts(c)) as u64;
                    if let Some(cb) = self.causal.as_deref_mut() {
                        cb.retry(self.round, c, ticks);
                    }
                }
            }
        }

        // 2b. Round deadline: a delivered update whose report path —
        //     straggler wait + upload backoff + aggregator-tier delay — blew
        //     the deadline is excluded from aggregation. The wait and
        //     backoff ticks were already priced/attributed above; like a
        //     too-stale update, the server simply stops listening, so no
        //     extra traffic is charged.
        if let Some(deadline) = ctx.deadline {
            for c in 0..n {
                if !state.contributors[c] {
                    continue;
                }
                let wait = match state.faults.participation[c] {
                    Participation::Straggler { delay } => {
                        straggler_wait(delay, plan.staleness_bound)
                    }
                    _ => 0,
                };
                let report_ticks = wait
                    .saturating_add(backoff_ticks_for(state.up_attempts(c)))
                    .saturating_add(ctx.agg_delay[c]);
                if report_ticks > deadline {
                    state.contributors[c] = false;
                    self.obs.counter_add("fed.agg.deadline_missed", 1);
                    if let Some(cb) = self.causal.as_deref_mut() {
                        cb.deadline_miss(self.round, c, report_ticks as u64);
                    }
                }
            }
        }

        // 3. In-flight corruption + validation. NaN/Inf is always
        //    quarantined; finite-but-huge updates are caught by the norm
        //    guard against a robust reference norm — before any of it can
        //    reach `param_weighted_average` or FoolsGold.
        if self.injector.plan().corrupt > 0.0 {
            for c in 0..n {
                if state.contributors[c] && state.faults.corrupt[c] {
                    state.observed[c] = Some(
                        self.injector
                            .corrupt_params(self.clients[c].encoder.params()),
                    );
                }
            }
            let mut quarantine = vec![false; n];
            for (c, q) in quarantine.iter_mut().enumerate() {
                if state.contributors[c]
                    && !param_is_finite(state.observed_params(&self.clients, c))
                {
                    *q = true;
                }
            }
            let mut norms: Vec<f64> = (0..n)
                .filter(|&c| state.contributors[c] && !quarantine[c])
                .map(|c| param_norm(state.observed_params(&self.clients, c)))
                .collect();
            norms.sort_by(|a, b| a.total_cmp(b));
            if !norms.is_empty() {
                // Lower quartile, not median: client models all descend from
                // the same template so clean norms are tightly grouped, and
                // the guard then survives rounds where corrupted uploads are
                // the majority (breakdown point 75% instead of 50%).
                let reference = norms[norms.len() / 4];
                if reference > 0.0 {
                    for (c, q) in quarantine.iter_mut().enumerate() {
                        if state.contributors[c]
                            && !*q
                            && param_norm(state.observed_params(&self.clients, c))
                                > plan.norm_guard * reference
                        {
                            *q = true;
                        }
                    }
                }
            }
            for (c, &quarantined) in quarantine.iter().enumerate() {
                if quarantined {
                    // The garbage bytes were delivered — price them.
                    let bytes = param_bytes(self.clients[c].encoder.params());
                    let attempts = state.up_attempts(c);
                    self.comm.record_upload_attempts(bytes, attempts);
                    self.charge_backoff(c, attempts);
                    self.cost_acc[c].quarantined = true;
                    state.contributors[c] = false;
                    state.observed[c] = None;
                    self.obs.counter_add("fed.sim.quarantined", 1);
                    if let Some(cb) = self.causal.as_deref_mut() {
                        cb.quarantine(self.round, c);
                    }
                }
            }
        }

        let participants = state.contributors.iter().filter(|&&x| x).count();
        self.obs
            .counter_add("fed.sim.participants", participants as u64);
        state
    }

    /// FoolsGold trust over cumulative update directions. Quarantined
    /// clients' newest (corrupt) update is excluded so garbage cannot poison
    /// the similarity scores.
    fn score_trust(&mut self) {
        // The receive stage flagged exactly the clients whose newest update
        // was quarantined this round (sampling-aware: an unsampled client's
        // stale history entry is never excluded by mistake).
        let quarantined_now = |c: usize| self.cost_acc[c].quarantined;
        let histories: Vec<Vec<f64>> = self
            .clients
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let keep = if quarantined_now(i) {
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
    fn surviving_clusters(&self, state: &RoundState) -> Vec<Vec<usize>> {
        self.clusters
            .iter()
            .map(|cluster| {
                cluster
                    .iter()
                    .copied()
                    .filter(|&c| state.contributors[c])
                    .collect()
            })
            .collect()
    }

    /// Books the backoff ticks of one `attempts`-transmission message: into
    /// the round counter (telemetry) and onto client `c`'s cost ledger
    /// (critical-path attribution).
    fn charge_backoff(&mut self, c: usize, attempts: usize) {
        let ticks = backoff_ticks_for(attempts) as u64;
        self.obs.counter_add("fed.sim.backoff_ticks", ticks);
        self.cost_acc[c].backoff_ticks += ticks;
        self.cost_acc[c].retries += attempts.saturating_sub(1) as u64;
    }

    /// Prices one upload from contributor `c`, including any retries.
    fn price_upload(&mut self, c: usize, bytes: usize, state: &RoundState) {
        let attempts = state.up_attempts(c);
        self.comm.record_upload_attempts(bytes, attempts);
        self.charge_backoff(c, attempts);
    }

    /// Prices one download to client `c`; returns false when the message is
    /// lost even after every retry (the client keeps its local model).
    fn deliver_download(&mut self, c: usize, bytes: usize, state: &RoundState) -> bool {
        match state.faults.down_attempts[c] {
            Some(attempts) => {
                self.comm.record_download_attempts(bytes, attempts);
                self.charge_backoff(c, attempts);
                true
            }
            None => {
                let attempts = 1 + self.injector.plan().max_retries;
                self.comm.record_download_attempts(bytes, attempts);
                self.charge_backoff(c, attempts);
                self.obs.counter_add("fed.sim.lost_messages", 1);
                false
            }
        }
    }

    /// Full-model aggregation within each cluster (FedAvg / FMTL / GCFL+).
    /// Every surviving member uploads its whole model; members of clusters
    /// with at least two contributors download the cluster average.
    fn aggregate_full(&mut self, clusters: &[Vec<usize>], state: &RoundState) {
        for cluster in clusters {
            for &c in cluster {
                let bytes = param_bytes(self.clients[c].encoder.params());
                self.price_upload(c, bytes, state);
            }
            if cluster.len() < 2 {
                continue; // Aggregating one model is the identity: no download.
            }
            let sets: Vec<&ParamVec> = cluster
                .iter()
                .map(|&c| state.observed_params(&self.clients, c))
                .collect();
            let weights = self.effective_weights(cluster, state);
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
                if self.deliver_download(c, bytes, state) {
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
        state: &RoundState,
    ) {
        if layer >= self.layer_spans.len() || subset.len() < 2 {
            return;
        }
        if self.config.layer_cadence && !self.round.is_multiple_of(layer + 1) {
            // This layer is off-cadence this round: no upload, no aggregation,
            // no split decision; continue with the same cluster below.
            self.recursive_layerwise(layer + 1, subset, eps1, eps2, state);
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
            self.price_upload(c, bytes, state);
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
                    for m in &state.observed_params(&self.clients, c)[offset..offset + len] {
                        flat.extend_from_slice(m.as_slice());
                    }
                    flat
                })
                .collect();
            let (a, b) = binary_cosine_split(&weights_flat, &mut self.rng);
            let sub_a: Vec<usize> = a.into_iter().map(|i| subset[i]).collect();
            let sub_b: Vec<usize> = b.into_iter().map(|i| subset[i]).collect();
            self.aggregate_layer(layer, &sub_a, state);
            self.aggregate_layer(layer, &sub_b, state);
            self.recursive_layerwise(layer + 1, &sub_a, eps1, eps2, state);
            self.recursive_layerwise(layer + 1, &sub_b, eps1, eps2, state);
        } else {
            self.aggregate_layer(layer, subset, state);
            self.recursive_layerwise(layer + 1, subset, eps1, eps2, state);
        }
    }

    /// Weighted average of one layer within a cluster, installed to members.
    fn aggregate_layer(&mut self, layer: usize, subset: &[usize], state: &RoundState) {
        if subset.len() < 2 {
            return;
        }
        let (offset, len) = self.layer_spans[layer];
        let sets: Vec<ParamVec> = subset
            .iter()
            .map(|&c| state.observed_params(&self.clients, c)[offset..offset + len].to_vec())
            .collect();
        let refs: Vec<&ParamVec> = sets.iter().collect();
        let weights = self.effective_weights(subset, state);
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
            if self.deliver_download(c, bytes, state) {
                self.clients[c].install_layer(offset, &avg);
            }
        }
    }

    /// Sample-count weights scaled by Sybil-defense trust, then by staleness
    /// decay. `param_weighted_average` renormalizes over the subset, so
    /// partial participation automatically re-weights the survivors.
    fn effective_weights(&self, subset: &[usize], state: &RoundState) -> Vec<f64> {
        let mut weights = self.aggregation_weights(subset);
        for (w, &c) in weights.iter_mut().zip(subset) {
            *w *= state.stale_weight[c];
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

    /// Per-round per-client simulated-tick cost attribution recorded so far
    /// (not checkpointed: a restored simulator starts with an empty ledger
    /// and accumulates costs for the rounds it actually runs).
    pub fn round_costs(&self) -> &[RoundCost] {
        &self.round_costs
    }

    /// The per-round critical path — each round's slowest client chain, with
    /// the simulated ticks attributed to straggler waiting vs retry backoff.
    /// A pure function of the seeded [`FaultPlan`]: same seed, same path.
    pub fn critical_path(&self) -> Vec<CriticalPathEntry> {
        fexiot_obs::critical_path(&self.round_costs)
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
