//! Causal trace locks: the graph a federated run records must be a pure
//! function of the seed — byte-identical at any pool width, with disjoint
//! trace-ID universes across seeds — and its crash→rejoin / aggregator
//! failover chains plus the root-cause ranking must survive a real run.

use fexiot_fed::{Client, Failover, FaultPlan, FedConfig, FedSim, Sampling, Strategy, Topology};
use fexiot_gnn::{ContrastiveConfig, Encoder, Gin};
use fexiot_graph::{generate_dataset, DatasetConfig, GraphDataset};
use fexiot_obs::{
    trace_id, CausalGraph, EdgeKind, Entity, FleetTelemetry, SloEngine, TimeSeriesStore, Timing,
};
use fexiot_tensor::rng::Rng;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A 12-client federation over a tiny shared graph pool (dealt round-robin
/// so every client holds one), under the full fault surface: dropout,
/// crash-and-rejoin, stragglers, lossy links, and a crashing aggregator
/// tier with ring failover.
fn faulty_sim(seed: u64) -> FedSim {
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
    let config = FedConfig {
        strategy: Strategy::FedAvg,
        rounds: 5,
        local: ContrastiveConfig {
            epochs: 1,
            pairs_per_epoch: 4,
            ..Default::default()
        },
        sampling: Sampling::FixedK(8),
        topology: Topology::hierarchical(2, Failover::Reassign),
        quorum: 0.5,
        deadline_ticks: Some(10),
        faults: FaultPlan::none()
            .with_seed(seed)
            .with_dropout(0.25)
            .with_crash(0.3, 2)
            .with_straggler(0.3)
            .with_msg_loss(0.2)
            .with_agg_crash(0.4, 2),
        seed,
        ..Default::default()
    };
    FedSim::new(clients, config)
}

/// Runs the faulty federation at the given pool width and returns the
/// recorded causal graph.
fn traced_run(seed: u64, width: usize) -> CausalGraph {
    fexiot_par::set_threads(width);
    let mut sim = faulty_sim(seed);
    sim.enable_causal_trace("causal-test");
    sim.run();
    sim.take_causal_trace().expect("trace was enabled")
}

fn trace_ids(graph: &CausalGraph) -> BTreeSet<u64> {
    graph.nodes.iter().map(|n| n.id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // Same seed ⇒ the wall-clock-free export is byte-identical at widths
    // 1, 2, and 7: every causal emission happens on the coordinator thread
    // against draws fixed before the training scatter.
    #[test]
    fn same_seed_trace_is_byte_identical_across_widths(seed in 0u64..500) {
        let reference = traced_run(seed, 1).to_json(Timing::Exclude).to_string();
        for width in [2usize, 7] {
            let doc = traced_run(seed, width).to_json(Timing::Exclude).to_string();
            prop_assert_eq!(&doc, &reference, "trace diverged at width {}", width);
        }
    }

    // Distinct seeds ⇒ disjoint trace-ID universes (the seed is hashed
    // into every ID), so traces from different runs can never be confused
    // when loaded side by side.
    #[test]
    fn distinct_seeds_yield_disjoint_trace_ids(a in 0u64..250, b in 250u64..500) {
        let ids_a = trace_ids(&traced_run(a, 1));
        let ids_b = trace_ids(&traced_run(b, 1));
        prop_assert!(
            ids_a.is_disjoint(&ids_b),
            "seeds {} and {} share {} trace ids", a, b,
            ids_a.intersection(&ids_b).count()
        );
    }
}

/// A rule a faulty 12-client fleet can never satisfy, so the SLO engine
/// fails deterministically and exercises the root-cause path.
fn impossible_slo() -> FleetTelemetry {
    let engine = SloEngine::parse(
        "[[rule]]\nname = \"impossible\"\nmetric = \"fed.round.participants\"\n\
         agg = \"mean\"\nwindow = 4\nop = \">=\"\nthreshold = 100\nmin_samples = 2",
    )
    .expect("rules parse");
    FleetTelemetry::new(TimeSeriesStore::new(64), Some(engine))
}

#[test]
fn crash_chains_and_root_cause_survive_a_real_run() {
    fexiot_par::set_threads(1);
    let mut sim = faulty_sim(77);
    sim.attach_telemetry(impossible_slo());
    sim.enable_causal_trace("causal-test");
    let reports = sim.run();
    assert!(
        reports.iter().any(|r| r.faults.slo_failures > 0),
        "the impossible rule never failed"
    );
    assert!(
        sim.last_root_cause().is_some(),
        "no root cause attributed despite failing SLO"
    );

    let telemetry = sim.take_telemetry().expect("telemetry attached");
    let graph = sim.take_causal_trace().expect("trace enabled");

    // The export round-trips through the parser unchanged.
    let doc = graph.to_json(Timing::Exclude);
    let parsed = CausalGraph::parse(&doc).expect("parses own export");
    assert_eq!(parsed.to_json(Timing::Exclude).to_string(), doc.to_string());

    // Crash windows close into rejoin nodes linked by follows-from edges.
    let kind_of = |id: u64| graph.node(id).map(|n| n.kind.as_str());
    let crash_rejoin = graph.edges.iter().any(|e| {
        e.kind == EdgeKind::Follows
            && kind_of(e.from) == Some("crash")
            && kind_of(e.to) == Some("rejoin")
    });
    assert!(crash_rejoin, "no crash→rejoin follows-from chain recorded");
    assert!(
        graph.nodes.iter().any(|n| n.kind == "agg_crash"),
        "aggregator crashes never recorded"
    );

    // The root-cause ranking for the failing rule is well-formed: shares
    // sum to 1 over non-structural fault kinds, ordered by attributed cost.
    let engine = telemetry.slo.as_ref().expect("engine attached");
    let ranked = fexiot_obs::root_cause(&graph, engine);
    assert_eq!(ranked.len(), 1, "one failing rule, one ranking");
    let causes = &ranked[0].causes;
    assert!(!causes.is_empty(), "no causes attributed");
    let share_sum: f64 = causes.iter().map(|c| c.share).sum();
    assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to {share_sum}");
    assert!(
        causes.windows(2).all(|w| w[0].ticks >= w[1].ticks),
        "causes not sorted by attributed ticks"
    );
    assert_eq!(
        sim.last_root_cause(),
        Some(causes[0].cause.as_str()),
        "round annotation and report ranking disagree"
    );
}

/// Every follows-from edge of a crash-heavy run links the chain it stands
/// for, on the right entities and rounds: a client's crash window reads
/// crash → crash → rejoin, a same-round straggle follows the rejoin, the
/// straggler's verdict follows the straggle, each aggregator outage links
/// to its next outage or rejoin, and each reroute follows its home
/// aggregator's down node. Every fault hangs under its own round.
#[test]
fn run_links_crash_rejoin_and_reassign_chains() {
    fexiot_par::set_threads(1);
    let seed = 77;
    let mut sim = faulty_sim(seed);
    sim.enable_causal_trace("causal-test");
    sim.run();
    let g = sim.take_causal_trace().expect("trace enabled");
    let node = |id: u64| g.node(id).expect("edge endpoints are nodes");
    let mut seen = BTreeSet::new();
    for e in g.edges.iter().filter(|e| e.kind == EdgeKind::Follows) {
        let (from, to) = (node(e.from), node(e.to));
        let link = format!("{}→{}", from.kind, to.kind);
        let same_entity = from.entity == to.entity;
        let (same_round, next_round) = (to.round == from.round, to.round == from.round + 1);
        let ok = match link.as_str() {
            "crash→crash" | "crash→rejoin" => same_entity && next_round,
            "rejoin→straggler" | "straggler→stale_accept" | "straggler→stale_reject" => {
                same_entity && same_round
            }
            "agg_crash→agg_reassign" | "agg_dropout→agg_reassign" => {
                same_round
                    && matches!((from.entity, to.entity),
                        (Entity::Aggregator(a), Entity::Client(c)) if c % 2 == a)
            }
            // An outage continues into the next round's outage or rejoin.
            _ => from.kind.starts_with("agg_") && same_entity && next_round,
        };
        assert!(ok, "unexpected follows edge {link}: {from:?} → {to:?}");
        seen.insert(link);
    }
    for link in [
        "crash→crash",
        "crash→rejoin",
        "rejoin→straggler",
        "straggler→stale_accept",
        "agg_crash→agg_reassign",
    ] {
        assert!(
            seen.contains(link),
            "seed {seed} recorded no {link}: {seen:?}"
        );
    }
    // A multi-round crash window reads crash → crash → rejoin.
    let rejoin = g
        .nodes
        .iter()
        .find(|n| {
            n.kind == "rejoin"
                && g.edges.iter().any(|e| {
                    e.to == n.id
                        && node(e.from).kind == "crash"
                        && g.edges
                            .iter()
                            .any(|p| p.to == e.from && node(p.from).kind == "crash")
                })
        })
        .expect("a crash → crash → rejoin chain");
    assert!(rejoin.round >= 2, "rejoin at round {}", rejoin.round);

    // Every fault is a child of its own round's span.
    for n in g
        .nodes
        .iter()
        .filter(|n| !matches!(n.kind.as_str(), "run" | "round"))
    {
        let round = trace_id(seed, n.round, Entity::Round, "round");
        assert!(
            g.edges
                .iter()
                .any(|e| e.kind == EdgeKind::Child && e.from == round && e.to == n.id),
            "{n:?} is not a child of round {}",
            n.round
        );
    }
}
