//! End-to-end check of per-round critical-path attribution: with a
//! straggler-only [`FaultPlan`], the path must name exactly the client the
//! seeded injector scripted as the slowest straggler of each round. The
//! expectation is computed by replaying a second `FaultInjector` with the
//! same plan — the cost model is a pure function of the seed, so the sim and
//! the replay must agree tick-for-tick.

use fexiot_fed::faults::straggler_wait;
use fexiot_fed::{Client, FaultInjector, FaultPlan, FedConfig, FedSim, Participation, Strategy};
use fexiot_gnn::{ContrastiveConfig, Encoder, Gin};
use fexiot_graph::{generate_dataset, DatasetConfig};
use fexiot_tensor::rng::Rng;

fn make_sim(plan: FaultPlan, n_clients: usize, seed: u64, rounds: usize) -> FedSim {
    let mut rng = Rng::seed_from_u64(seed);
    let mut cfg = DatasetConfig::small_ifttt();
    cfg.graph_count = 80;
    let ds = generate_dataset(&cfg, &mut rng);
    let (train, _) = ds.train_test_split(0.8, &mut rng);
    let splits = train.dirichlet_split(n_clients, 1.0, &mut rng);
    let d = train.graphs[0].nodes[0].features.len();
    let template = Gin::new(d, &[12], 6, &mut rng);
    let clients = splits
        .into_iter()
        .enumerate()
        .map(|(i, data)| Client::new(i, Encoder::Gin(template.clone()), data))
        .collect();
    let config = FedConfig {
        strategy: Strategy::FedAvg,
        rounds,
        local: ContrastiveConfig {
            epochs: 1,
            pairs_per_epoch: 12,
            ..Default::default()
        },
        seed,
        faults: plan,
        ..Default::default()
    };
    FedSim::new(clients, config)
}

/// Replays the fault stream and returns each round's expected slowest
/// straggler as `(client, wait_ticks)` — `None` for straggler-free rounds.
/// Ties break to the lowest client id, matching the critical-path contract.
fn expected_stragglers(
    plan: &FaultPlan,
    n_clients: usize,
    rounds: usize,
) -> Vec<Option<(usize, u64)>> {
    let mut replay = FaultInjector::new(plan.clone(), n_clients);
    (0..rounds)
        .map(|r| {
            let rf = replay.draw_round(r);
            let mut slowest: Option<(usize, u64)> = None;
            for (c, p) in rf.participation.iter().enumerate() {
                if let Participation::Straggler { delay } = p {
                    let ticks = straggler_wait(*delay, plan.staleness_bound) as u64;
                    // Strictly-greater keeps the first (lowest id) on ties.
                    if ticks > 0 && slowest.map(|(_, t)| ticks > t).unwrap_or(true) {
                        slowest = Some((c, ticks));
                    }
                }
            }
            slowest
        })
        .collect()
}

#[test]
fn critical_path_names_the_scripted_straggler() {
    const N: usize = 5;
    const ROUNDS: usize = 4;
    let plan = FaultPlan::none().with_seed(1).with_straggler(0.3);

    let mut sim = make_sim(plan.clone(), N, 42, ROUNDS);
    sim.run();

    let expected = expected_stragglers(&plan, N, ROUNDS);
    assert!(
        expected.iter().any(Option::is_some),
        "seed scripted no stragglers; pick another seed"
    );
    assert!(
        expected.iter().any(Option::is_none),
        "seed scripted stragglers every round; an idle round must be covered too"
    );

    let path = sim.critical_path();
    assert_eq!(path.len(), ROUNDS);
    for (r, (entry, want)) in path.iter().zip(&expected).enumerate() {
        assert_eq!(entry.round, r);
        match want {
            Some((client, ticks)) => {
                assert_eq!(
                    entry.client,
                    Some(*client),
                    "round {r}: wrong client on the critical path"
                );
                assert_eq!(entry.total_ticks, *ticks, "round {r}: wrong tick total");
                assert_eq!(entry.straggler_ticks, *ticks);
                assert_eq!(entry.backoff_ticks, 0, "straggler-only plan has no backoff");
                assert_eq!(entry.retries, 0);
                assert_eq!(entry.cause, "straggler");
            }
            None => {
                assert_eq!(entry.client, None, "round {r}: expected an idle round");
                assert_eq!(entry.total_ticks, 0);
                assert_eq!(entry.cause, "idle");
            }
        }
    }
}

#[test]
fn straggler_waits_are_bounded_by_the_staleness_window() {
    let plan = FaultPlan::none().with_seed(7).with_straggler(0.9);
    let mut sim = make_sim(plan.clone(), 4, 11, 3);
    sim.run();
    for entry in sim.critical_path() {
        assert!(
            entry.straggler_ticks <= plan.staleness_bound as u64,
            "round {}: wait {} exceeds staleness bound {}",
            entry.round,
            entry.straggler_ticks,
            plan.staleness_bound
        );
    }
}

#[test]
fn lossy_links_put_backoff_on_the_critical_path() {
    // Message loss only: every tick on the path is retry backoff.
    let plan = FaultPlan::none().with_seed(23).with_msg_loss(0.4);
    let mut sim = make_sim(plan.clone(), 5, 42, 3);
    let reports = sim.run();
    let retried: usize = reports.iter().map(|r| r.faults.retried_messages).sum();
    assert!(retried > 0, "seed produced no retries; pick another seed");

    let path = sim.critical_path();
    let busy: Vec<_> = path.iter().filter(|e| e.client.is_some()).collect();
    assert!(
        !busy.is_empty(),
        "retries must surface on the critical path"
    );
    for entry in &busy {
        assert_eq!(entry.cause, "backoff");
        assert_eq!(entry.straggler_ticks, 0);
        assert!(entry.backoff_ticks > 0);
        assert!(entry.retries > 0);
    }
    // Per-round cost attribution never exceeds the round's global ledger.
    for (entry, report) in path.iter().zip(&reports) {
        assert!(
            entry.backoff_ticks <= report.faults.backoff_ticks as u64,
            "round {}: critical-path backoff exceeds the round total",
            entry.round
        );
    }
}

#[test]
fn critical_path_is_deterministic_in_the_seed() {
    let plan = FaultPlan::none()
        .with_seed(99)
        .with_straggler(0.4)
        .with_msg_loss(0.2);
    let run = |plan: FaultPlan| {
        let mut sim = make_sim(plan, 4, 17, 3);
        sim.run();
        sim.critical_path()
    };
    assert_eq!(run(plan.clone()), run(plan));
}

#[test]
fn fault_free_runs_have_an_all_idle_path() {
    let mut sim = make_sim(FaultPlan::none(), 3, 5, 2);
    sim.run();
    for entry in sim.critical_path() {
        assert_eq!(entry.client, None);
        assert_eq!(entry.cause, "idle");
        assert_eq!(entry.total_ticks, 0);
    }
}
