//! Fleet-scale federation structure: per-round client sampling and the
//! hierarchical edge-aggregator tier.
//!
//! A 2000-home fleet never trains every client every round. The server draws
//! a **cohort** per round — a fraction or fixed-k subset, weighted by sample
//! count so data-rich homes are seen proportionally more often — from a
//! dedicated seeded RNG stream ([`ClientSampler`]), so sampling randomness
//! never perturbs training or fault randomness and `Sampling::Full` leaves
//! the simulator bit-identical to the pre-sampling implementation (locked by
//! `tests/golden.rs`).
//!
//! [`Topology`] describes the communication tree: with `aggregators >= 2`,
//! each client reports to an edge aggregator (`client % aggregators`) that
//! pre-aggregates its cohort's updates and forwards **one** priced message to
//! the server per round. Because the global aggregate is a weighted average,
//! pre-aggregation at the edge is mathematically the identity — the hierarchy
//! changes what moves over the trunk, not the model — so the simulator prices
//! the aggregator hop in `CommStats` while computing the aggregate globally.
//! Aggregators themselves can fail (see `faults.rs`); [`Failover`] says
//! whether an orphaned cohort is reassigned to a surviving aggregator or sits
//! the round out.

use fexiot_tensor::rng::Rng;

/// XOR'd into the federation seed to derive the sampler's dedicated stream.
const SAMPLER_STREAM: u64 = 0xC0_40_75_7A_17;

/// Per-round cohort selection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampling {
    /// Every client participates every round (the pre-fleet behavior).
    Full,
    /// Sample `ceil(fraction * n)` clients per round (clamped to `1..=n`).
    /// A fraction `>= 1.0` is equivalent to `Full`.
    Fraction(f64),
    /// Sample exactly `k` clients per round (clamped to `1..=n`). A `k >= n`
    /// is equivalent to `Full`.
    FixedK(usize),
}

impl Sampling {
    /// Cohort size for an `n`-client fleet. Never zero for `n > 0`.
    pub fn cohort_size(&self, n: usize) -> usize {
        match *self {
            Sampling::Full => n,
            Sampling::Fraction(f) => {
                if f >= 1.0 {
                    n
                } else {
                    ((f.max(0.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
                }
            }
            Sampling::FixedK(k) => k.clamp(1, n.max(1)),
        }
    }

    /// True when this policy actually subsamples an `n`-client fleet (and
    /// therefore consumes sampler RNG draws).
    pub fn is_active(&self, n: usize) -> bool {
        self.cohort_size(n) < n
    }
}

/// What happens to an aggregator's cohort when the aggregator is down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failover {
    /// Reroute the cohort to the next surviving aggregator (ring order).
    Reassign,
    /// The cohort sits the round out (no training, no traffic).
    Skip,
}

/// The federation's communication tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Edge aggregators between clients and the server. `<= 1` means the
    /// flat client↔server topology (no aggregator hop is priced).
    pub aggregators: usize,
    pub failover: Failover,
}

impl Topology {
    /// The flat topology: clients talk to the server directly.
    pub fn flat() -> Self {
        Self {
            aggregators: 1,
            failover: Failover::Reassign,
        }
    }

    /// A hierarchical topology with `aggregators` edge aggregators.
    pub fn hierarchical(aggregators: usize, failover: Failover) -> Self {
        Self {
            aggregators: aggregators.max(1),
            failover,
        }
    }

    /// True when an aggregator tier actually sits between clients and server.
    pub fn is_hierarchical(&self) -> bool {
        self.aggregators >= 2
    }

    /// The home aggregator serving `client` (stable round-robin assignment).
    pub fn aggregator_of(&self, client: usize) -> usize {
        client % self.aggregators.max(1)
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::flat()
    }
}

/// Draws each round's cohort from a dedicated seeded RNG stream.
///
/// Weighted sampling **without replacement**: each pick is proportional to
/// the remaining clients' weights (sample counts), so data-rich clients are
/// overrepresented per round but every positive-weight client keeps a
/// nonzero chance. Zero-weight clients are only drawn once every
/// positive-weight client is already in the cohort. The cohort is returned
/// sorted ascending so downstream iteration (training order, obs absorption,
/// loss summation) is deterministic in client-id order.
#[derive(Debug, Clone)]
pub struct ClientSampler {
    sampling: Sampling,
    rng: Rng,
}

impl ClientSampler {
    pub fn new(sampling: Sampling, seed: u64) -> Self {
        Self {
            sampling,
            rng: Rng::seed_from_u64(seed ^ SAMPLER_STREAM),
        }
    }

    pub fn sampling(&self) -> Sampling {
        self.sampling
    }

    /// Draws one round's cohort (sorted ascending). With an inactive policy
    /// (`Full`, or a fraction/k covering everyone) no RNG is consumed and
    /// the cohort is all of `0..n` — bit-exactly the pre-sampling behavior.
    pub fn draw_cohort(&mut self, weights: &[f64]) -> Vec<usize> {
        let n = weights.len();
        let k = self.sampling.cohort_size(n).min(n);
        if k >= n {
            return (0..n).collect();
        }
        let mut remaining: Vec<f64> = weights.iter().map(|&w| w.max(0.0)).collect();
        let mut chosen = vec![false; n];
        let mut cohort = Vec::with_capacity(k);
        for _ in 0..k {
            let total: f64 = remaining.iter().sum();
            let pick = if total > 0.0 {
                let mut t = self.rng.f64() * total;
                let mut pick = None;
                for (i, &w) in remaining.iter().enumerate() {
                    if w <= 0.0 {
                        continue;
                    }
                    t -= w;
                    if t <= 0.0 {
                        pick = Some(i);
                        break;
                    }
                }
                // Float drift can leave t marginally positive after the last
                // positive weight; fall back to the last eligible client.
                pick.unwrap_or_else(|| {
                    remaining
                        .iter()
                        .rposition(|&w| w > 0.0)
                        .expect("positive total implies a positive weight")
                })
            } else {
                // All remaining weights are zero: uniform over the unchosen.
                let open: Vec<usize> = (0..n).filter(|&i| !chosen[i]).collect();
                open[self.rng.usize(open.len())]
            };
            chosen[pick] = true;
            remaining[pick] = 0.0;
            cohort.push(pick);
        }
        cohort.sort_unstable();
        cohort
    }

    /// Checkpoint support: the sampler's RNG stream.
    pub fn state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores a [`ClientSampler::state`] snapshot.
    pub fn restore_state(&mut self, rng: [u64; 4]) {
        self.rng = Rng::from_state(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sampling_is_inactive_and_consumes_no_rng() {
        let mut s = ClientSampler::new(Sampling::Full, 7);
        let before = s.state();
        assert_eq!(s.draw_cohort(&[1.0; 5]), vec![0, 1, 2, 3, 4]);
        assert_eq!(s.state(), before, "Full must not touch the RNG stream");
        assert!(!Sampling::Full.is_active(5));
        // Covering policies degenerate to Full.
        assert!(!Sampling::Fraction(1.0).is_active(5));
        assert!(!Sampling::FixedK(9).is_active(5));
        let mut s = ClientSampler::new(Sampling::FixedK(9), 7);
        let before = s.state();
        assert_eq!(s.draw_cohort(&[1.0; 5]).len(), 5);
        assert_eq!(s.state(), before);
    }

    #[test]
    fn cohort_sizes_clamp_sanely() {
        assert_eq!(Sampling::Fraction(0.5).cohort_size(10), 5);
        assert_eq!(Sampling::Fraction(0.01).cohort_size(10), 1);
        assert_eq!(Sampling::Fraction(0.0).cohort_size(10), 1);
        assert_eq!(Sampling::Fraction(2.0).cohort_size(10), 10);
        assert_eq!(Sampling::FixedK(3).cohort_size(10), 3);
        assert_eq!(Sampling::FixedK(0).cohort_size(10), 1);
        assert_eq!(Sampling::FixedK(99).cohort_size(10), 10);
    }

    #[test]
    fn cohorts_are_sorted_distinct_and_seed_deterministic() {
        let weights: Vec<f64> = (0..50).map(|i| (i % 7 + 1) as f64).collect();
        let draw =
            |mut s: ClientSampler| (0..10).map(|_| s.draw_cohort(&weights)).collect::<Vec<_>>();
        let a = draw(ClientSampler::new(Sampling::FixedK(8), 42));
        let b = draw(ClientSampler::new(Sampling::FixedK(8), 42));
        assert_eq!(a, b, "same seed, same cohorts");
        for cohort in &a {
            assert_eq!(cohort.len(), 8);
            assert!(cohort.windows(2).all(|w| w[0] < w[1]), "{cohort:?}");
        }
        let c = draw(ClientSampler::new(Sampling::FixedK(8), 43));
        assert_ne!(a, c, "different seed should shift cohorts");
    }

    #[test]
    fn weighting_prefers_heavy_clients() {
        // Client 0 holds 100x the data of everyone else: over many rounds it
        // must appear in nearly every cohort.
        let mut weights = vec![1.0; 20];
        weights[0] = 100.0;
        let mut s = ClientSampler::new(Sampling::FixedK(4), 1);
        let hits = (0..100)
            .filter(|_| s.draw_cohort(&weights).contains(&0))
            .count();
        assert!(hits > 80, "heavy client sampled only {hits}/100 rounds");
    }

    #[test]
    fn zero_weight_clients_yield_to_positive_weight_ones() {
        // 3 positive-weight clients, k = 3: the zero-weight ones never show.
        let weights = [0.0, 2.0, 0.0, 1.0, 3.0];
        let mut s = ClientSampler::new(Sampling::FixedK(3), 5);
        for _ in 0..50 {
            assert_eq!(s.draw_cohort(&weights), vec![1, 3, 4]);
        }
        // All-zero weights still fill the cohort (uniform fallback).
        let mut s = ClientSampler::new(Sampling::FixedK(2), 5);
        let cohort = s.draw_cohort(&[0.0; 6]);
        assert_eq!(cohort.len(), 2);
        assert!(cohort.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sampler_state_roundtrips() {
        let weights: Vec<f64> = (1..=30).map(|i| i as f64).collect();
        let mut a = ClientSampler::new(Sampling::Fraction(0.2), 9);
        for _ in 0..3 {
            a.draw_cohort(&weights);
        }
        let snap = a.state();
        let mut b = ClientSampler::new(Sampling::Fraction(0.2), 9);
        b.restore_state(snap);
        for _ in 0..5 {
            assert_eq!(a.draw_cohort(&weights), b.draw_cohort(&weights));
        }
    }

    #[test]
    fn topology_assignment_is_stable_round_robin() {
        let t = Topology::hierarchical(3, Failover::Skip);
        assert!(t.is_hierarchical());
        assert_eq!(t.aggregator_of(0), 0);
        assert_eq!(t.aggregator_of(4), 1);
        assert_eq!(t.aggregator_of(5), 2);
        let flat = Topology::flat();
        assert!(!flat.is_hierarchical());
        assert_eq!(flat.aggregator_of(17), 0);
    }
}
