//! Fleet-scale resilience locks: client sampling, hierarchical aggregators
//! with failover, and quorum-gated rounds must (a) keep a 2000-client
//! federation deterministic under heavy faults, (b) collapse to the exact
//! pre-fleet behavior when disabled, and (c) survive checkpoint/restore and
//! any pool width bit-for-bit.

use fexiot_fed::{
    Client, Failover, FaultPlan, FedConfig, FedSim, RoundReport, Sampling, Strategy, Topology,
};
use fexiot_gnn::{ContrastiveConfig, Encoder, Gin};
use fexiot_graph::{generate_dataset, DatasetConfig, GraphDataset};
use fexiot_tensor::rng::Rng;

/// Builds an `n_clients`-strong federation over a tiny shared graph pool:
/// graphs are dealt round-robin so every client holds at least one (a
/// Dirichlet split at fleet scale would leave most clients empty), with a
/// +1 remainder giving the low ids slightly more weight — enough skew to
/// exercise weighted sampling.
fn fleet_sim(n_clients: usize, seed: u64, config_fn: impl FnOnce(&mut FedConfig)) -> FedSim {
    let mut rng = Rng::seed_from_u64(seed);
    let mut cfg = DatasetConfig::small_ifttt();
    cfg.graph_count = 30;
    let ds = generate_dataset(&cfg, &mut rng);
    let d = ds.graphs[0].nodes[0].features.len();
    let template = Gin::new(d, &[8], 4, &mut rng);
    let clients = (0..n_clients)
        .map(|i| {
            let mut graphs = vec![ds.graphs[i % ds.graphs.len()].clone()];
            if i < n_clients % ds.graphs.len() {
                graphs.push(ds.graphs[(i + 7) % ds.graphs.len()].clone());
            }
            Client::new(i, Encoder::Gin(template.clone()), GraphDataset::new(graphs))
        })
        .collect();
    let mut config = FedConfig {
        strategy: Strategy::FedAvg,
        rounds: 10,
        local: ContrastiveConfig {
            epochs: 1,
            pairs_per_epoch: 4,
            ..Default::default()
        },
        seed,
        ..Default::default()
    };
    config_fn(&mut config);
    FedSim::new(clients, config)
}

/// The acceptance fault plan: 30% client dropout plus an aggregator tier
/// that crashes and stays down for multiple rounds.
fn fleet_plan(seed: u64) -> FaultPlan {
    FaultPlan::none()
        .with_seed(seed)
        .with_dropout(0.3)
        .with_agg_crash(0.15, 2)
}

fn fleet_config(config: &mut FedConfig) {
    config.sampling = Sampling::FixedK(48);
    config.topology = Topology::hierarchical(2, Failover::Skip);
    config.quorum = 0.6;
    config.deadline_ticks = Some(8);
    config.faults = fleet_plan(config.seed);
}

/// Exact per-round fingerprint for bit-identity comparisons.
type Row = (u64, usize, usize, usize, usize, usize, bool);

fn fingerprint(reports: &[RoundReport]) -> Vec<Row> {
    reports
        .iter()
        .map(|r| {
            (
                r.mean_loss.to_bits(),
                r.cumulative_comm.total_bytes(),
                r.cumulative_comm.upload_messages,
                r.cumulative_comm.agg_forward_messages,
                r.faults.sampled,
                r.faults.participants,
                r.faults.quorum_aborted,
            )
        })
        .collect()
}

/// The headline acceptance scenario: a seeded 2000-client / 2-aggregator
/// federation with 30% dropout and multi-round aggregator crashes completes
/// 10 rounds, degrades (never corrupts) through at least one quorum-aborted
/// round, and keeps every telemetry partition and comm invariant intact.
#[test]
fn fleet_scale_run_degrades_without_corruption() {
    let mut sim = fleet_sim(2000, 42, fleet_config);
    let reports = sim.run();
    assert_eq!(reports.len(), 10);

    let mut aborted = 0usize;
    let mut agg_down_rounds = 0usize;
    for r in &reports {
        assert!(
            r.mean_loss.is_finite(),
            "round {}: non-finite loss",
            r.round
        );
        assert_eq!(
            r.comm_error, None,
            "round {}: comm invariant broke",
            r.round
        );
        let t = &r.faults;
        assert_eq!(t.clients, 2000);
        assert_eq!(t.sampled, 48, "FixedK cohort size");
        assert_eq!(t.aggregators, 2);
        assert_eq!(
            t.participants + t.dropped + t.quarantined,
            t.sampled,
            "round {}: sampled-cohort partition broke: {t:?}",
            r.round
        );
        assert!(t.deadline_missed <= t.dropped);
        aborted += t.quorum_aborted as usize;
        agg_down_rounds += (t.agg_down > 0) as usize;
        if t.quorum_aborted {
            // An aborted round prices uploads but installs nothing, so it
            // must not broadcast down the trunk.
            assert!(t.agg_down > 0 || t.participants * 10 < t.sampled * 6);
        }
    }
    assert!(agg_down_rounds >= 1, "the aggregator crash never fired");
    assert!(aborted >= 1, "expected at least one quorum-degraded round");
    assert!(
        aborted < reports.len(),
        "every round aborted — nothing was learned"
    );
    // The trunk was actually used: hierarchical rounds price forwards, and
    // committed rounds broadcast back down.
    let last = reports.last().unwrap().cumulative_comm;
    assert!(last.agg_forward_messages > 0);
    assert!(last.agg_broadcast_messages > 0);
    assert!(last.agg_broadcast_messages <= last.agg_forward_messages);
}

/// Same fleet, same seed, run twice: byte-identical reports. The whole
/// fault/sampling/failover stack is a pure function of the seed.
#[test]
fn fleet_scale_run_is_deterministic() {
    let a = fingerprint(&fleet_sim(500, 7, fleet_config).run());
    let b = fingerprint(&fleet_sim(500, 7, fleet_config).run());
    assert_eq!(a, b);
}

/// `Sampling::Fraction(1.0)` and `FixedK(n)` both select everyone, draw
/// nothing from the sampler stream, and must be bit-identical to
/// `Sampling::Full`.
#[test]
fn full_coverage_sampling_matches_disabled_sampling() {
    let full = fingerprint(&fleet_sim(12, 3, |_| {}).run());
    let frac = fingerprint(&fleet_sim(12, 3, |c| c.sampling = Sampling::Fraction(1.0)).run());
    let fixed = fingerprint(&fleet_sim(12, 3, |c| c.sampling = Sampling::FixedK(12)).run());
    assert_eq!(frac, full, "Fraction(1.0) drifted from Full");
    assert_eq!(fixed, full, "FixedK(n) drifted from Full");
}

/// A single-aggregator "hierarchy" is just the flat topology and must not
/// perturb a single bit (no trunk pricing, no aggregator fault draws).
#[test]
fn single_aggregator_topology_is_flat() {
    let flat = fingerprint(&fleet_sim(12, 3, |_| {}).run());
    let one = fingerprint(
        &fleet_sim(12, 3, |c| {
            c.topology = Topology {
                aggregators: 1,
                failover: Failover::Skip,
            };
        })
        .run(),
    );
    assert_eq!(one, flat);
}

/// A healthy hierarchy changes only the traffic shape: the weighted average
/// is associative, so edge pre-aggregation must leave losses and client-link
/// traffic untouched while adding trunk forwards/broadcasts on top.
#[test]
fn healthy_hierarchy_changes_traffic_shape_only() {
    let flat = fleet_sim(24, 11, |_| {}).run();
    let tiered = fleet_sim(24, 11, |c| {
        c.topology = Topology::hierarchical(3, Failover::Reassign)
    })
    .run();
    for (f, t) in flat.iter().zip(&tiered) {
        assert_eq!(f.mean_loss.to_bits(), t.mean_loss.to_bits());
        assert_eq!(
            f.cumulative_comm.uploaded_bytes,
            t.cumulative_comm.uploaded_bytes
        );
        assert_eq!(
            f.cumulative_comm.downloaded_bytes,
            t.cumulative_comm.downloaded_bytes
        );
        assert_eq!(f.cumulative_comm.agg_forward_messages, 0);
        // 3 aggregators × (round+1) rounds, forward and broadcast.
        assert_eq!(
            t.cumulative_comm.agg_forward_messages,
            3 * (t.round),
            "round {}",
            t.round
        );
        assert_eq!(
            t.cumulative_comm.agg_broadcast_messages,
            t.cumulative_comm.agg_forward_messages
        );
    }
}

/// Reassign failover keeps a crashed aggregator's cohort in the round (via
/// the ring route) while Skip sits them out — so Reassign must never have
/// fewer participants in rounds where an aggregator is down.
#[test]
fn reassign_failover_retains_the_orphaned_cohort() {
    let plan = |seed| FaultPlan::none().with_seed(seed).with_agg_crash(0.4, 2);
    let skip = fleet_sim(60, 19, |c| {
        c.topology = Topology::hierarchical(3, Failover::Skip);
        c.faults = plan(19);
    })
    .run();
    let reassign = fleet_sim(60, 19, |c| {
        c.topology = Topology::hierarchical(3, Failover::Reassign);
        c.faults = plan(19);
    })
    .run();
    let mut saw_down = false;
    let mut saw_reassign = false;
    for (s, r) in skip.iter().zip(&reassign) {
        assert_eq!(s.faults.agg_down, r.faults.agg_down, "same fault stream");
        if s.faults.agg_down > 0 {
            saw_down = true;
            assert!(r.faults.participants >= s.faults.participants);
            saw_reassign |= r.faults.reassigned > 0;
            assert_eq!(s.faults.reassigned, 0, "Skip must never reroute");
        }
    }
    assert!(
        saw_down,
        "seed never downed an aggregator — test is vacuous"
    );
    assert!(saw_reassign, "Reassign never rerouted a cohort");
}

/// Checkpoint mid-run under the full fleet stack (sampler stream, aggregator
/// crash ledger, trunk counters all live), restore into a freshly built
/// federation, and the resumed tail must be bit-identical to the
/// uninterrupted run.
#[test]
fn fleet_checkpoint_restore_resumes_bit_identically() {
    let build = || {
        fleet_sim(200, 23, |c| {
            fleet_config(c);
            c.sampling = Sampling::FixedK(24);
        })
    };

    let mut uninterrupted = build();
    let all = fingerprint(&uninterrupted.run());

    let mut first = build();
    for _ in 0..5 {
        first.run_round();
    }
    let blob = first.checkpoint();

    let mut resumed = build();
    resumed.restore(&blob).expect("restore failed");
    let tail: Vec<Row> = fingerprint(&(0..5).map(|_| resumed.run_round()).collect::<Vec<_>>());
    assert_eq!(
        tail,
        all[5..],
        "resumed tail diverged from uninterrupted run"
    );
}

/// Width-invariance at fleet scale: the sampled-subset training scatter must
/// produce byte-identical runs at 1, 2, and 7 threads (the global pool is
/// shared with other tests, which is safe because width never matters).
#[test]
fn fleet_run_is_width_invariant() {
    let run = |width: usize| {
        fexiot_par::set_threads(width);
        fingerprint(&fleet_sim(300, 5, fleet_config).run())
    };
    let reference = run(1);
    for width in [2, 7] {
        assert_eq!(run(width), reference, "fleet run diverged at width {width}");
    }
}
