//! Fleet-health telemetry locks: the per-round hook must feed the
//! time-series store and SLO engine deterministically (same seed → byte
//! identical sections), surface failing rules in `RoundTelemetry`, and cost
//! nothing when no telemetry is attached.

use fexiot_fed::{Client, FaultPlan, FedConfig, FedSim, Sampling, Strategy};
use fexiot_gnn::{ContrastiveConfig, Encoder, Gin};
use fexiot_graph::{generate_dataset, DatasetConfig, GraphDataset};
use fexiot_obs::{FleetTelemetry, SampleSpec, SloEngine, TimeSeriesStore};
use fexiot_tensor::rng::Rng;

fn small_sim(seed: u64, config_fn: impl FnOnce(&mut FedConfig)) -> FedSim {
    let mut rng = Rng::seed_from_u64(seed);
    let mut cfg = DatasetConfig::small_ifttt();
    cfg.graph_count = 12;
    let ds = generate_dataset(&cfg, &mut rng);
    let d = ds.graphs[0].nodes[0].features.len();
    let template = Gin::new(d, &[8], 4, &mut rng);
    let clients = (0..12)
        .map(|i| {
            let graphs = vec![ds.graphs[i % ds.graphs.len()].clone()];
            Client::new(i, Encoder::Gin(template.clone()), GraphDataset::new(graphs))
        })
        .collect();
    let mut config = FedConfig {
        strategy: Strategy::FedAvg,
        rounds: 5,
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

/// A store with one snapshot-driven spec plus two rules: one that any
/// healthy run satisfies, one that no run can (losses are non-negative).
fn bundle() -> FleetTelemetry {
    let mut store = TimeSeriesStore::new(64);
    store
        .add_spec(SampleSpec::HistQuantile {
            name: "fed.round.loss".into(),
            q: 0.5,
        })
        .expect("deterministic spec");
    let rules = r#"
# cohort must never empty out
[[rule]]
name = "cohort-present"
metric = "fed.round.participants"
agg = "min"
op = ">="
threshold = 1

# deliberately impossible: max loss strictly below -1
[[rule]]
name = "impossible-loss"
metric = "fed.round.mean_loss"
agg = "max"
op = "<"
threshold = -1
"#;
    let engine = SloEngine::parse(rules).expect("rules parse");
    FleetTelemetry::new(store, Some(engine))
}

#[test]
fn round_hook_feeds_series_and_surfaces_slo_failures() {
    let mut sim = small_sim(42, |_| {});
    sim.attach_telemetry(bundle());
    let reports = sim.run();
    assert_eq!(reports.len(), 5);
    // The impossible rule fails from its first evaluation; the possible one
    // never does, so exactly one rule is failing at every round.
    for r in &reports {
        assert_eq!(
            r.faults.slo_failures, 1,
            "round {}: {:?}",
            r.round, r.faults
        );
    }

    let tel = sim.take_telemetry().expect("telemetry attached");
    assert!(tel.slo_failed(), "impossible rule must fail the run");
    let engine = tel.slo.as_ref().expect("engine present");
    let by_name = |n: &str| {
        engine
            .verdicts()
            .iter()
            .find(|v| v.rule.name == n)
            .unwrap_or_else(|| panic!("verdict {n}"))
    };
    assert_eq!(by_name("cohort-present").rounds_failed, 0);
    assert_eq!(by_name("impossible-loss").rounds_failed, 5);
    assert_eq!(by_name("impossible-loss").first_failed_round, Some(0));

    // Direct samples cover every RoundTelemetry field; rounds are the
    // 0-based indices of the 5 rounds.
    for name in [
        "fed.round.participants",
        "fed.round.dropped",
        "fed.round.mean_loss",
        "fed.round.comm_bytes",
        "fed.round.quorum_aborted",
    ] {
        let s = tel
            .store
            .series(name)
            .unwrap_or_else(|| panic!("series {name}"));
        let rounds: Vec<u64> = s.rounds.iter().copied().collect();
        assert_eq!(rounds, [0, 1, 2, 3, 4], "series {name}");
    }
    // The snapshot-driven quantile spec sampled the loss histogram.
    assert!(tel.store.series("fed.round.loss.p50").is_some());
}

#[test]
fn same_seed_runs_produce_byte_identical_telemetry() {
    let run = || {
        let mut sim = small_sim(7, |c| {
            c.sampling = Sampling::FixedK(8);
            c.quorum = 0.5;
            c.faults = FaultPlan::none().with_seed(7).with_dropout(0.25);
        });
        sim.attach_telemetry(bundle());
        sim.run();
        let tel = sim.take_telemetry().expect("attached");
        let slo = tel.slo.as_ref().expect("engine").to_json().to_string();
        (tel.store.to_json().to_string(), slo)
    };
    let (ts_a, slo_a) = run();
    let (ts_b, slo_b) = run();
    assert_eq!(ts_a, ts_b, "time-series section must be byte-identical");
    assert_eq!(slo_a, slo_b, "slo section must be byte-identical");
}

#[test]
fn quorum_gate_exports_margin_gauge() {
    let mut sim = small_sim(11, |c| {
        c.quorum = 0.5;
        c.faults = FaultPlan::none().with_seed(11).with_dropout(0.25);
    });
    sim.run();
    let snap = sim.obs().snapshot();
    let margin = snap
        .gauges
        .get("fed.round.quorum_margin")
        .copied()
        .expect("quorum margin gauge set when the gate is active");
    assert!(
        (-0.5..=0.5).contains(&margin),
        "margin {margin} in [-q, 1-q]"
    );

    // Gate off → no gauge (pre-fleet runs stay byte-identical).
    let mut sim = small_sim(11, |_| {});
    sim.run();
    assert!(!sim
        .obs()
        .snapshot()
        .gauges
        .contains_key("fed.round.quorum_margin"));
}

#[test]
fn detached_runs_report_zero_slo_failures() {
    let mut sim = small_sim(3, |_| {});
    let reports = sim.run();
    assert!(reports.iter().all(|r| r.faults.slo_failures == 0));
    assert!(sim.take_telemetry().is_none());
}
