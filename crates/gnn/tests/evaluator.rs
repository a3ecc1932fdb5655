//! `Encoder::embed` runs each encoder's one forward body on this thread's
//! recording-free evaluator, whose buffers outlive the call. These tests
//! hold it to a fresh tape forward, bit for bit, for GCN, GIN and MAGNN:
//! on random graphs, on special values, and across graph sizes that make
//! every buffer shrink and grow again.

use fexiot_gnn::{Encoder, Gcn, Gin, Magnn};
use fexiot_graph::{
    Command, Device, DeviceKind, InteractionGraph, Location, Platform, Rule, RuleNode, Trigger,
};
use fexiot_tensor::{Forward, Rng, Tape};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The embedding a fresh tape gives: the reference `embed` must match.
fn embed_on_tape(encoder: &Encoder, graph: &InteractionGraph) -> Vec<f64> {
    let mut tape = Tape::new();
    let vars = encoder.register(&mut tape);
    let z = encoder.forward_with(&mut tape, &vars, graph);
    tape.value(z).row(0).to_vec()
}

/// Equal bit for bit, except that any NaN equals any NaN.
fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len()
        && x.iter()
            .zip(y)
            .all(|(p, q)| (p.is_nan() && q.is_nan()) || p.to_bits() == q.to_bits())
}

fn node(id: usize, platform: Platform, features: Vec<f64>) -> RuleNode {
    RuleNode {
        rule: Rule {
            id: id as u32,
            platform,
            trigger: Trigger::Manual,
            actions: vec![Command {
                device: Device::new(DeviceKind::Light, Location::Kitchen),
                activate: true,
            }],
            text: format!("rule {id}"),
        },
        features,
    }
}

/// A feature value: with probability `special`, one of NaN, ±∞, −0.0, a
/// subnormal or zero; otherwise a normal draw.
fn feature(rng: &mut Rng, special: f64) -> f64 {
    if !rng.bool(special) {
        return rng.normal(0.0, 1.5);
    }
    match rng.usize(6) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::MIN_POSITIVE / 8.0,
        _ => 0.0,
    }
}

/// A graph of `n` nodes whose node `i` has platform `platform_of(i)` and
/// `dim_of(platform)` features, with random directed edges: none at all,
/// or any number with self-loops, repeats and both directions.
fn graph(
    rng: &mut Rng,
    n: usize,
    platform_of: impl Fn(&mut Rng, usize) -> Platform,
    dim_of: impl Fn(Platform) -> usize,
) -> InteractionGraph {
    let special = [0.0, 0.0, 0.02, 0.3][rng.usize(4)];
    let nodes = (0..n)
        .map(|i| {
            let p = platform_of(rng, i);
            let features = (0..dim_of(p)).map(|_| feature(rng, special)).collect();
            node(i, p, features)
        })
        .collect();
    let edge_count = if rng.bool(0.2) {
        0
    } else {
        rng.usize(3 * n + 1)
    };
    let edges = (0..edge_count)
        .map(|_| (rng.usize(n), rng.usize(n)))
        .collect();
    InteractionGraph::new(nodes, edges)
}

/// A homogeneous graph of `n` nodes with `d` features each.
fn homogeneous(rng: &mut Rng, n: usize, d: usize) -> InteractionGraph {
    graph(rng, n, |_, _| Platform::Ifttt, |_| d)
}

/// A MAGNN over 1–5 distinct platforms, each with its own feature dim.
fn magnn(rng: &mut Rng) -> Magnn {
    let mut platforms = Platform::ALL.to_vec();
    rng.shuffle(&mut platforms);
    platforms.truncate(rng.range(1, 6));
    let type_dims = platforms.iter().map(|&p| (p, rng.range(1, 9))).collect();
    Magnn::new(
        type_dims,
        rng.range(1, 9),
        rng.range(1, 6),
        rng.range(1, 6),
        rng,
    )
}

/// A graph for `model`: node 0 has a registered platform; any other node
/// may have an unregistered one, which MAGNN leaves out of its projection.
fn hetero(rng: &mut Rng, model: &Magnn, n: usize) -> InteractionGraph {
    let registered: Vec<Platform> = model.type_dims.iter().map(|&(p, _)| p).collect();
    let dims = model.type_dims.clone();
    graph(
        rng,
        n,
        |rng, i| {
            if i == 0 || rng.bool(0.9) {
                registered[rng.usize(registered.len())]
            } else {
                Platform::ALL[rng.usize(Platform::ALL.len())]
            }
        },
        |p| dims.iter().find(|&&(q, _)| q == p).map_or(3, |&(_, d)| d),
    )
}

fn encoders(rng: &mut Rng, d: usize) -> [Encoder; 2] {
    let hidden: Vec<usize> = (0..rng.range(1, 4)).map(|_| rng.range(1, 12)).collect();
    let out = rng.range(1, 8);
    [
        Encoder::Gcn(Gcn::new(d, &hidden, out, rng)),
        Encoder::Gin(Gin::new(d, &hidden, out, rng)),
    ]
}

fn assert_embed_is_the_tape(encoder: &Encoder, graph: &InteractionGraph) {
    let got = encoder.embed(graph);
    let want = embed_on_tape(encoder, graph);
    assert!(
        same_bits(&got, &want),
        "{} nodes, {} edges: embed {got:?} != tape {want:?}",
        graph.node_count(),
        graph.edge_count()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Every case embeds on the test thread, so each one also reuses the
    // buffers the previous case left at other shapes.
    #[test]
    fn embed_equals_a_fresh_tape_forward(seed in 0u64..1_000_000) {
        let mut rng = Rng::seed_from_u64(seed);
        let d = rng.range(1, 12);
        for encoder in encoders(&mut rng, d) {
            let n = rng.range(1, 71);
            let g = homogeneous(&mut rng, n, d);
            let got = encoder.embed(&g);
            prop_assert!(same_bits(&got, &embed_on_tape(&encoder, &g)));
        }
        let model = magnn(&mut rng);
        let n = rng.range(1, 71);
        let g = hetero(&mut rng, &model, n);
        let encoder = Encoder::Magnn(model);
        let got = encoder.embed(&g);
        prop_assert!(same_bits(&got, &embed_on_tape(&encoder, &g)));
    }
}

#[test]
fn reused_buffers_leak_nothing_between_graph_sizes() {
    let mut rng = Rng::seed_from_u64(7);
    let d = 5;
    let [gcn, gin] = encoders(&mut rng, d);
    let model = magnn(&mut rng);
    let big = homogeneous(&mut rng, 70, d);
    let big_hetero = hetero(&mut rng, &model, 70);
    let magnn = Encoder::Magnn(model.clone());
    let empty = InteractionGraph::new(Vec::new(), Vec::new());
    for (encoder, big) in [(&gcn, &big), (&gin, &big), (&magnn, &big_hetero)] {
        assert_embed_is_the_tape(encoder, big);
        // A forward that panics part-way leaves the buffers usable.
        assert!(catch_unwind(AssertUnwindSafe(|| encoder.embed(&empty))).is_err());
        for n in [1, 6] {
            let g = match encoder {
                Encoder::Magnn(_) => hetero(&mut rng, &model, n),
                _ => homogeneous(&mut rng, n, d),
            };
            assert_embed_is_the_tape(encoder, &g);
        }
        assert_embed_is_the_tape(encoder, big);
    }
}

#[test]
#[should_panic(expected = "magnn: empty graph")]
fn magnn_refuses_an_empty_graph() {
    let model = magnn(&mut Rng::seed_from_u64(1));
    Encoder::Magnn(model).embed(&InteractionGraph::new(Vec::new(), Vec::new()));
}

#[test]
#[should_panic(expected = "magnn: no node matched a registered platform")]
fn magnn_refuses_a_graph_of_unregistered_platforms() {
    let mut rng = Rng::seed_from_u64(2);
    let model = Magnn::new(vec![(Platform::Ifttt, 4)], 6, 3, 2, &mut rng);
    let g = graph(&mut rng, 3, |_, _| Platform::SmartThings, |_| 4);
    Encoder::Magnn(model).embed(&g);
}

#[test]
#[should_panic(expected = "feature_matrix: empty graph")]
fn gin_refuses_an_empty_graph() {
    let [_, gin] = encoders(&mut Rng::seed_from_u64(3), 4);
    gin.embed(&InteractionGraph::new(Vec::new(), Vec::new()));
}
