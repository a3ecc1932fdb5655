//! Fault injection for the federated simulation.
//!
//! Smart-home hubs are the least reliable tier of federated hardware: they
//! drop offline, straggle behind the round clock, crash and rejoin, lose
//! messages on flaky uplinks, and occasionally ship garbage updates. A
//! [`FaultPlan`] describes those failure processes as seeded probabilities;
//! the [`FaultInjector`] draws a concrete [`RoundFaults`] realization per
//! round from its own RNG stream, so fault randomness never perturbs the
//! training stream — `FaultPlan::none()` leaves the simulator bit-identical
//! to a fault-free run (locked by `tests/golden.rs`).

use fexiot_tensor::optim::ParamVec;
use fexiot_tensor::rng::Rng;

/// Ticks spent waiting in exponential backoff when a message needed
/// `attempts` transmissions: the k-th retry waits `2^(k-1)` ticks, so
/// delivery on attempt `a` cost `2^(a-1) - 1` ticks in total.
///
/// # Saturation contract
/// A message that exhausts its retry budget is charged as if it had been
/// transmitted `1 + max_retries` times — i.e.
/// `backoff_ticks_for(max_retries + 1)`, one doubling beyond the last
/// successful-delivery case — and the
/// result **saturates at `usize::MAX`** instead of overflowing once
/// `attempts - 1` reaches the word size. Saturation is unreachable under any
/// sane retry budget (it needs 60+ retries); the clamp exists so a
/// pathological `FaultPlan` degrades to "waited forever" rather than
/// wrapping to a tiny tick count and corrupting critical-path attribution.
pub fn backoff_ticks_for(attempts: usize) -> usize {
    let doublings = attempts.saturating_sub(1);
    if doublings >= usize::BITS as usize {
        usize::MAX
    } else {
        (1usize << doublings) - 1
    }
}

/// Rounds of delay the server actually waits out for a straggler: the full
/// delay when it is within the staleness bound, otherwise the bound (the
/// server stops waiting there and drops the update as too stale).
pub fn straggler_wait(delay: usize, staleness_bound: usize) -> usize {
    delay.min(staleness_bound)
}

/// How a corrupted upload is damaged before the server sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Corruption {
    /// Poison entries with NaN / ±Inf (bit-flip or serialization bugs).
    NonFinite,
    /// Scale the whole update by `factor` (fixed-point overflow, poisoning).
    /// Values stay finite, so detection relies on the norm guard.
    ScaledNoise { factor: f64 },
}

/// Seeded description of every failure process the simulator can inject.
/// All probabilities are per-client per-round; `none()` disables everything.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's dedicated RNG stream.
    pub seed: u64,
    /// P(client is offline this round) — no training, no sync.
    pub dropout: f64,
    /// P(client crashes this round); it stays down for `crash_rounds`
    /// subsequent rounds, then rejoins with its last installed model.
    pub crash: f64,
    /// How many rounds a crashed client stays down.
    pub crash_rounds: usize,
    /// P(client straggles): it trains, but its upload arrives late.
    pub straggler: f64,
    /// Straggler delay is drawn uniformly from `1..=straggler_max_delay`
    /// simulated ticks.
    pub straggler_max_delay: usize,
    /// Late updates within this many ticks are still accepted (decayed);
    /// later ones are rejected as too stale.
    pub staleness_bound: usize,
    /// Per-tick multiplicative decay on an accepted stale update's
    /// aggregation weight.
    pub staleness_decay: f64,
    /// P(one message transmission is lost), per attempt, both directions.
    pub msg_loss: f64,
    /// Retransmissions allowed after a lost first attempt (exponential
    /// backoff: the k-th retry waits `2^(k-1)` ticks).
    pub max_retries: usize,
    /// P(client's upload is corrupted in flight).
    pub corrupt: f64,
    /// What corruption does to the update.
    pub corruption: Corruption,
    /// Quarantine a finite update whose parameter norm exceeds this multiple
    /// of the round's lower-quartile contributor norm (catches `ScaledNoise`
    /// even when corrupted uploads are the majority of a round).
    pub norm_guard: f64,
    /// P(an edge aggregator is offline this round). Only drawn when the
    /// simulator runs a hierarchical topology (2+ aggregators).
    pub agg_dropout: f64,
    /// P(an edge aggregator crashes this round); it stays down for
    /// `agg_crash_rounds` subsequent rounds, then rejoins.
    pub agg_crash: f64,
    /// How many rounds a crashed aggregator stays down.
    pub agg_crash_rounds: usize,
    /// P(an edge aggregator straggles): its whole cohort's updates arrive
    /// late at the server.
    pub agg_straggler: f64,
    /// Aggregator straggler delay is drawn uniformly from
    /// `1..=agg_straggler_max_delay` simulated ticks.
    pub agg_straggler_max_delay: usize,
}

impl FaultPlan {
    /// The fault-free plan: the simulator behaves exactly like the
    /// pre-fault-injection implementation (no extra RNG draws).
    pub fn none() -> Self {
        Self {
            seed: 0,
            dropout: 0.0,
            crash: 0.0,
            crash_rounds: 2,
            straggler: 0.0,
            straggler_max_delay: 3,
            staleness_bound: 2,
            staleness_decay: 0.5,
            msg_loss: 0.0,
            max_retries: 3,
            corrupt: 0.0,
            corruption: Corruption::NonFinite,
            norm_guard: 10.0,
            agg_dropout: 0.0,
            agg_crash: 0.0,
            agg_crash_rounds: 2,
            agg_straggler: 0.0,
            agg_straggler_max_delay: 3,
        }
    }

    /// True when any failure process has nonzero probability.
    pub fn is_active(&self) -> bool {
        self.dropout > 0.0
            || self.crash > 0.0
            || self.straggler > 0.0
            || self.msg_loss > 0.0
            || self.corrupt > 0.0
            || self.agg_faults_active()
    }

    /// True when any *aggregator-tier* failure process has nonzero
    /// probability (only realized under a hierarchical topology).
    pub fn agg_faults_active(&self) -> bool {
        self.agg_dropout > 0.0 || self.agg_crash > 0.0 || self.agg_straggler > 0.0
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_dropout(mut self, p: f64) -> Self {
        self.dropout = p;
        self
    }

    pub fn with_crash(mut self, p: f64, down_rounds: usize) -> Self {
        self.crash = p;
        self.crash_rounds = down_rounds;
        self
    }

    pub fn with_straggler(mut self, p: f64) -> Self {
        self.straggler = p;
        self
    }

    pub fn with_msg_loss(mut self, p: f64) -> Self {
        self.msg_loss = p;
        self
    }

    pub fn with_corruption(mut self, p: f64, kind: Corruption) -> Self {
        self.corrupt = p;
        self.corruption = kind;
        self
    }

    pub fn with_agg_dropout(mut self, p: f64) -> Self {
        self.agg_dropout = p;
        self
    }

    pub fn with_agg_crash(mut self, p: f64, down_rounds: usize) -> Self {
        self.agg_crash = p;
        self.agg_crash_rounds = down_rounds;
        self
    }

    pub fn with_agg_straggler(mut self, p: f64) -> Self {
        self.agg_straggler = p;
        self
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// One client's fate for one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Participation {
    /// Trains and syncs normally.
    Active,
    /// Offline this round: no training, no messages.
    Dropout,
    /// Down from an earlier crash (or crashing right now).
    Crashed,
    /// Trains, but the upload lands `delay` ticks late.
    Straggler { delay: usize },
}

impl Participation {
    /// True when the client runs local training this round.
    pub fn trains(&self) -> bool {
        matches!(
            self,
            Participation::Active | Participation::Straggler { .. }
        )
    }
}

/// Concrete realization of the fault plan for one round.
#[derive(Debug, Clone)]
pub struct RoundFaults {
    pub participation: Vec<Participation>,
    /// Whether each client's upload is corrupted in flight.
    pub corrupt: Vec<bool>,
    /// Upload-link attempts per client: `Some(k)` delivered on attempt `k`,
    /// `None` lost even after every retry.
    pub up_attempts: Vec<Option<usize>>,
    /// Download-link attempts per client, same encoding.
    pub down_attempts: Vec<Option<usize>>,
}

impl RoundFaults {
    /// A fault-free realization for `n` clients.
    pub fn clean(n: usize) -> Self {
        Self {
            participation: vec![Participation::Active; n],
            corrupt: vec![false; n],
            up_attempts: vec![Some(1); n],
            down_attempts: vec![Some(1); n],
        }
    }

    /// Backoff ticks spent on retries this round: the k-th retry waits
    /// `2^(k-1)` ticks, so a message delivered on attempt `a` waited
    /// `2^(a-1) - 1` ticks; a lost message waited the full budget.
    pub fn backoff_ticks(&self, max_retries: usize) -> usize {
        let spent = |att: &Option<usize>| backoff_ticks_for(att.unwrap_or(max_retries + 1));
        self.up_attempts.iter().map(spent).sum::<usize>()
            + self.down_attempts.iter().map(spent).sum::<usize>()
    }
}

/// One edge aggregator's fate for one round (hierarchical topology only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggStatus {
    /// Forwards its cohort's updates normally.
    Up,
    /// Offline (dropout, or down from an earlier crash): its cohort must be
    /// failed over or skipped for the round.
    Down,
    /// Forwards, but `delay` ticks late — the server waits the whole cohort
    /// out, which makes the aggregator the round's critical-path cause.
    Straggler { delay: usize },
}

/// Concrete aggregator-tier realization for one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggRoundFaults {
    pub status: Vec<AggStatus>,
}

impl AggRoundFaults {
    /// A fault-free realization for `n` aggregators.
    pub fn clean(n: usize) -> Self {
        Self {
            status: vec![AggStatus::Up; n],
        }
    }

    /// How many aggregators are down this round.
    pub fn down_count(&self) -> usize {
        self.status
            .iter()
            .filter(|s| matches!(s, AggStatus::Down))
            .count()
    }
}

/// Draws per-round fault realizations and applies corruption. Owns a
/// dedicated RNG stream plus the cross-round crash state.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Rng,
    /// Per-client round index until which the client is down (exclusive).
    down_until: Vec<usize>,
    /// Per-aggregator round index until which the aggregator is down
    /// (exclusive). Sized lazily on the first hierarchical draw so flat
    /// federations carry no aggregator state.
    agg_down_until: Vec<usize>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan, n_clients: usize) -> Self {
        let rng = Rng::seed_from_u64(plan.seed ^ 0xFA171E57);
        Self {
            plan,
            rng,
            down_until: vec![0; n_clients],
            agg_down_until: Vec::new(),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draws one round's realization. Call exactly once per round; the
    /// stream is deterministic in (`plan.seed`, call order).
    pub fn draw_round(&mut self, round: usize) -> RoundFaults {
        let n = self.down_until.len();
        let mut out = RoundFaults::clean(n);
        for c in 0..n {
            // Crash state first: a client that is down stays down.
            if self.down_until[c] > round {
                out.participation[c] = Participation::Crashed;
                continue;
            }
            if self.plan.crash > 0.0 && self.rng.bool(self.plan.crash) {
                self.down_until[c] = round + 1 + self.plan.crash_rounds;
                out.participation[c] = Participation::Crashed;
                continue;
            }
            if self.plan.dropout > 0.0 && self.rng.bool(self.plan.dropout) {
                out.participation[c] = Participation::Dropout;
                continue;
            }
            if self.plan.straggler > 0.0 && self.rng.bool(self.plan.straggler) {
                let delay = 1 + self.rng.usize(self.plan.straggler_max_delay.max(1));
                out.participation[c] = Participation::Straggler { delay };
            }
            if self.plan.corrupt > 0.0 {
                out.corrupt[c] = self.rng.bool(self.plan.corrupt);
            }
            if self.plan.msg_loss > 0.0 {
                out.up_attempts[c] = self.transmit();
                out.down_attempts[c] = self.transmit();
            }
        }
        out
    }

    /// One message over the lossy link with bounded retry: `Some(attempts)`
    /// when delivered, `None` when every attempt (1 + max_retries) was lost.
    fn transmit(&mut self) -> Option<usize> {
        (1..=(1 + self.plan.max_retries)).find(|_| !self.rng.bool(self.plan.msg_loss))
    }

    /// Draws one round's aggregator-tier realization for `n_aggs` edge
    /// aggregators. Call at most once per round, **after** [`draw_round`],
    /// and only when the topology is hierarchical and
    /// [`FaultPlan::agg_faults_active`] — the guard keeps the client fault
    /// stream bit-identical to a flat federation's (no extra RNG draws).
    ///
    /// [`draw_round`]: FaultInjector::draw_round
    pub fn draw_agg_round(&mut self, round: usize, n_aggs: usize) -> AggRoundFaults {
        if self.agg_down_until.len() < n_aggs {
            self.agg_down_until.resize(n_aggs, 0);
        }
        let mut out = AggRoundFaults::clean(n_aggs);
        for a in 0..n_aggs {
            // Crash state first: an aggregator that is down stays down.
            if self.agg_down_until[a] > round {
                out.status[a] = AggStatus::Down;
                continue;
            }
            if self.plan.agg_crash > 0.0 && self.rng.bool(self.plan.agg_crash) {
                self.agg_down_until[a] = round + 1 + self.plan.agg_crash_rounds;
                out.status[a] = AggStatus::Down;
                continue;
            }
            if self.plan.agg_dropout > 0.0 && self.rng.bool(self.plan.agg_dropout) {
                out.status[a] = AggStatus::Down;
                continue;
            }
            if self.plan.agg_straggler > 0.0 && self.rng.bool(self.plan.agg_straggler) {
                let delay = 1 + self.rng.usize(self.plan.agg_straggler_max_delay.max(1));
                out.status[a] = AggStatus::Straggler { delay };
            }
        }
        out
    }

    /// True when aggregator `a` is inside an open crash window at `round` —
    /// distinguishes `AggStatus::Down` from a crash vs. a transient dropout
    /// for causal-trace attribution. Valid after
    /// [`FaultInjector::draw_agg_round`].
    pub fn agg_crashed(&self, a: usize, round: usize) -> bool {
        self.agg_down_until
            .get(a)
            .is_some_and(|&until| until > round)
    }

    /// Damages a copy of `params` according to the plan's corruption kind.
    pub fn corrupt_params(&mut self, params: &ParamVec) -> ParamVec {
        let mut damaged = params.clone();
        match self.plan.corruption {
            Corruption::NonFinite => {
                // Poison ~1% of entries (at least one) with NaN or ±Inf.
                for m in &mut damaged {
                    let len = m.len();
                    if len == 0 {
                        continue;
                    }
                    let hits = (len / 100).max(1);
                    for _ in 0..hits {
                        let at = self.rng.usize(len);
                        m.as_mut_slice()[at] = match self.rng.usize(3) {
                            0 => f64::NAN,
                            1 => f64::INFINITY,
                            _ => f64::NEG_INFINITY,
                        };
                    }
                }
            }
            Corruption::ScaledNoise { factor } => {
                for m in &mut damaged {
                    for v in m.as_mut_slice() {
                        *v *= factor;
                    }
                }
            }
        }
        damaged
    }

    /// Checkpoint support: RNG stream + client and aggregator crash ledgers.
    pub fn state(&self) -> ([u64; 4], Vec<u64>, Vec<u64>) {
        (
            self.rng.state(),
            self.down_until.iter().map(|&r| r as u64).collect(),
            self.agg_down_until.iter().map(|&r| r as u64).collect(),
        )
    }

    /// Restores a [`FaultInjector::state`] snapshot. A mid-crash checkpoint
    /// (some `down_until` window still open) resumes with the same clients
    /// and aggregators down for the same remaining rounds.
    pub fn restore_state(&mut self, rng: [u64; 4], down_until: Vec<u64>, agg_down_until: Vec<u64>) {
        self.rng = Rng::from_state(rng);
        self.down_until = down_until.into_iter().map(|r| r as usize).collect();
        self.agg_down_until = agg_down_until.into_iter().map(|r| r as usize).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fexiot_tensor::matrix::Matrix;
    use fexiot_tensor::optim::param_is_finite;

    #[test]
    fn none_plan_is_inactive_and_clean() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        let mut inj = FaultInjector::new(plan, 4);
        let rf = inj.draw_round(0);
        assert!(rf.participation.iter().all(|p| *p == Participation::Active));
        assert!(rf.corrupt.iter().all(|&c| !c));
        assert!(rf.up_attempts.iter().all(|&a| a == Some(1)));
        assert_eq!(rf.backoff_ticks(3), 0);
    }

    #[test]
    fn draws_are_deterministic_in_the_seed() {
        let plan = FaultPlan::none()
            .with_seed(7)
            .with_dropout(0.3)
            .with_straggler(0.2)
            .with_msg_loss(0.2);
        let draw = |mut inj: FaultInjector| {
            (0..5)
                .map(|r| inj.draw_round(r))
                .map(|rf| (rf.participation, rf.up_attempts))
                .collect::<Vec<_>>()
        };
        let a = draw(FaultInjector::new(plan.clone(), 6));
        let b = draw(FaultInjector::new(plan, 6));
        assert_eq!(a, b);
    }

    #[test]
    fn crashed_clients_stay_down_then_rejoin() {
        let plan = FaultPlan::none().with_seed(3).with_crash(0.5, 2);
        let mut inj = FaultInjector::new(plan, 8);
        let mut saw_crash_then_rejoin = false;
        let mut down_spans: Vec<Vec<bool>> = vec![Vec::new(); 8];
        for r in 0..12 {
            let rf = inj.draw_round(r);
            for (c, spans) in down_spans.iter_mut().enumerate() {
                spans.push(rf.participation[c] == Participation::Crashed);
            }
        }
        for spans in &down_spans {
            // Every maximal run of `true` must span at least crash_rounds + 1
            // rounds unless cut off by the horizon, and must end in a rejoin.
            let mut run = 0;
            for (i, &down) in spans.iter().enumerate() {
                if down {
                    run += 1;
                } else {
                    if run > 0 {
                        assert!(run >= 3, "crash run of {run} rounds ended at {i}");
                        saw_crash_then_rejoin = true;
                    }
                    run = 0;
                }
            }
        }
        assert!(saw_crash_then_rejoin, "no crash/rejoin cycle observed");
    }

    #[test]
    fn straggler_delays_are_bounded() {
        let mut plan = FaultPlan::none().with_seed(11).with_straggler(1.0);
        plan.straggler_max_delay = 4;
        let mut inj = FaultInjector::new(plan, 16);
        let rf = inj.draw_round(0);
        for p in &rf.participation {
            match p {
                Participation::Straggler { delay } => {
                    assert!((1..=4).contains(delay), "delay {delay}")
                }
                other => panic!("expected straggler, got {other:?}"),
            }
        }
    }

    #[test]
    fn transmit_respects_retry_budget() {
        let mut plan = FaultPlan::none().with_seed(5).with_msg_loss(0.9);
        plan.max_retries = 2;
        let mut inj = FaultInjector::new(plan, 2);
        for r in 0..200 {
            let rf = inj.draw_round(r);
            for a in rf.up_attempts.iter().chain(&rf.down_attempts).flatten() {
                assert!((1..=3).contains(a), "attempts {a}");
            }
        }
    }

    #[test]
    fn nonfinite_corruption_is_detectable() {
        let plan = FaultPlan::none()
            .with_seed(1)
            .with_corruption(1.0, Corruption::NonFinite);
        let mut inj = FaultInjector::new(plan, 1);
        let params = vec![Matrix::full(4, 4, 0.5), Matrix::full(2, 3, -1.0)];
        let damaged = inj.corrupt_params(&params);
        assert!(!param_is_finite(&damaged));
        assert!(param_is_finite(&params), "original must be untouched");
    }

    #[test]
    fn scaled_noise_blows_up_the_norm() {
        let plan = FaultPlan::none()
            .with_seed(2)
            .with_corruption(1.0, Corruption::ScaledNoise { factor: 1e6 });
        let mut inj = FaultInjector::new(plan, 1);
        let params = vec![Matrix::full(3, 3, 0.1)];
        let damaged = inj.corrupt_params(&params);
        assert!(param_is_finite(&damaged));
        assert!(damaged[0][(0, 0)].abs() > 1e4);
    }

    #[test]
    fn injector_state_roundtrips() {
        let plan = FaultPlan::none().with_seed(9).with_dropout(0.4);
        let mut a = FaultInjector::new(plan.clone(), 5);
        for r in 0..3 {
            a.draw_round(r);
        }
        let (rng, down, agg_down) = a.state();
        let mut b = FaultInjector::new(plan, 5);
        b.restore_state(rng, down, agg_down);
        for r in 3..8 {
            assert_eq!(a.draw_round(r).participation, b.draw_round(r).participation);
        }
    }

    #[test]
    fn restore_mid_crash_window_preserves_remaining_downtime() {
        // Crash-heavy plan: by round 3 some client is inside an open
        // `down_until` window with high probability. Snapshot there, restore
        // into a fresh injector, and the resumed stream must match the
        // uninterrupted one draw-for-draw — including clients that stay
        // Crashed for the rest of their window without new RNG draws.
        let plan = FaultPlan::none().with_seed(3).with_crash(0.5, 3);
        let mut a = FaultInjector::new(plan.clone(), 8);
        for r in 0..3 {
            a.draw_round(r);
        }
        let (rng, down, agg_down) = a.state();
        assert!(
            down.iter().any(|&d| d > 3),
            "seed 3 must leave an open crash window at round 3: {down:?}"
        );
        let mut b = FaultInjector::new(plan, 8);
        b.restore_state(rng, down, agg_down);
        for r in 3..12 {
            let fa = a.draw_round(r);
            let fb = b.draw_round(r);
            assert_eq!(fa.participation, fb.participation, "round {r}");
        }
    }

    #[test]
    fn backoff_ticks_at_the_exact_retry_budget() {
        // Boundary: the plan's default budget is max_retries = 3, so a
        // message delivered on the very last allowed attempt (attempts ==
        // 1 + max_retries == 4) waited 1 + 2 + 4 = 7 ticks, and an exhausted
        // message is charged the same "waited the full budget" cost.
        let plan = FaultPlan::none();
        assert_eq!(plan.max_retries, 3);
        // attempts == max_retries: one retry still in hand.
        assert_eq!(backoff_ticks_for(plan.max_retries), 3);
        // attempts == max_retries + 1: delivery on the final attempt.
        assert_eq!(backoff_ticks_for(plan.max_retries + 1), 7);
        // A lost message (None) is charged exactly the exhausted-budget cost.
        let mut rf = RoundFaults::clean(1);
        rf.up_attempts[0] = None;
        rf.down_attempts[0] = Some(1);
        assert_eq!(
            rf.backoff_ticks(plan.max_retries),
            backoff_ticks_for(plan.max_retries + 1)
        );
    }

    #[test]
    fn backoff_ticks_saturate_instead_of_overflowing() {
        assert_eq!(backoff_ticks_for(0), 0);
        assert_eq!(backoff_ticks_for(1), 0);
        assert_eq!(backoff_ticks_for(2), 1);
        let bits = usize::BITS as usize;
        // Last in-range doubling, then saturation.
        assert_eq!(backoff_ticks_for(bits), (1usize << (bits - 1)) - 1);
        assert_eq!(backoff_ticks_for(bits + 1), usize::MAX);
        assert_eq!(backoff_ticks_for(usize::MAX), usize::MAX);
    }

    #[test]
    fn agg_faults_are_gated_and_deterministic() {
        let plan = FaultPlan::none().with_agg_dropout(0.5);
        assert!(plan.is_active());
        assert!(plan.agg_faults_active());
        assert!(!FaultPlan::none().agg_faults_active());
        let draw = |mut inj: FaultInjector| {
            (0..6)
                .map(|r| inj.draw_agg_round(r, 4).status)
                .collect::<Vec<_>>()
        };
        let a = draw(FaultInjector::new(plan.clone(), 10));
        let b = draw(FaultInjector::new(plan, 10));
        assert_eq!(a, b, "same seed, same aggregator fates");
        assert!(
            a.iter().flatten().any(|s| *s == AggStatus::Down),
            "50% dropout over 24 draws must down something"
        );
    }

    #[test]
    fn crashed_aggregators_stay_down_then_rejoin() {
        let plan = FaultPlan::none().with_seed(4).with_agg_crash(0.4, 2);
        let mut inj = FaultInjector::new(plan, 10);
        let mut spans: Vec<Vec<bool>> = vec![Vec::new(); 3];
        for r in 0..15 {
            let af = inj.draw_agg_round(r, 3);
            for (a, span) in spans.iter_mut().enumerate() {
                span.push(af.status[a] == AggStatus::Down);
            }
        }
        let mut saw_cycle = false;
        for span in &spans {
            let mut run = 0;
            for &down in span {
                if down {
                    run += 1;
                } else {
                    if run > 0 {
                        assert!(run >= 3, "aggregator crash run of {run} rounds");
                        saw_cycle = true;
                    }
                    run = 0;
                }
            }
        }
        assert!(saw_cycle, "no aggregator crash/rejoin cycle observed");
    }

    #[test]
    fn agg_straggler_delays_are_bounded() {
        let mut plan = FaultPlan::none().with_seed(6).with_agg_straggler(1.0);
        plan.agg_straggler_max_delay = 5;
        let mut inj = FaultInjector::new(plan, 4);
        let af = inj.draw_agg_round(0, 8);
        for s in &af.status {
            match s {
                AggStatus::Straggler { delay } => {
                    assert!((1..=5).contains(delay), "delay {delay}")
                }
                other => panic!("expected straggler, got {other:?}"),
            }
        }
    }
}
