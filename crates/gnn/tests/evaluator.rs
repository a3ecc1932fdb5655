//! `Encoder::embed` runs each encoder's one forward body on this thread's
//! recording-free evaluator, whose buffers outlive the call. These tests
//! hold it to a fresh tape forward, bit for bit, for GCN, GIN and MAGNN:
//! on random graphs, on special values, and across graph sizes that make
//! every buffer shrink and grow again.

mod common;

use common::{encoders, graph, hetero, homogeneous, magnn, same_bits};
use fexiot_gnn::{Encoder, Magnn};
use fexiot_graph::{InteractionGraph, Platform};
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
