//! A contrastive run forms every step's values and gradients in buffers it
//! keeps from step to step. These tests hold each step to the same step on
//! a fresh tape, bit for bit, for GCN, GIN and MAGNN: across graph sizes
//! that make every buffer grow and shrink again, and on special feature
//! values. They also pin the buffer set's bound.

mod common;

use common::{encoders, feature, graph_with, hetero_dim, hetero_platform, magnn, same_bits};
use fexiot_gnn::{ContrastiveRun, Encoder};
use fexiot_graph::{InteractionGraph, Platform};
use fexiot_tensor::{Adam, Forward, Matrix, Rng, Tape};
use proptest::prelude::*;

/// A contrastive step on a fresh tape, each parameter's gradient the sum
/// `g_b + g_a` of the two branches': the reference a run's step must
/// match. Returns the loss and the summed gradients.
fn fresh_step(
    encoder: &mut Encoder,
    adam: &mut Adam,
    ga: &InteractionGraph,
    gb: &InteractionGraph,
    different: bool,
    margin: f64,
) -> (f64, Vec<Matrix>) {
    let y = if different { 1.0 } else { 0.0 };
    let enc: &Encoder = encoder;
    let mut tape = Tape::new();
    let vars_a = enc.register(&mut tape);
    let za = enc.forward_with(&mut tape, &vars_a, ga);
    let vars_b = enc.register(&mut tape);
    let zb = enc.forward_with(&mut tape, &vars_b, gb);
    let d2 = tape.sq_distance(za, zb);
    let pull = tape.scale(d2, 1.0 - y);
    let neg = tape.scale(d2, -1.0);
    let marg = tape.add_scalar(neg, margin);
    let hinge = tape.relu(marg);
    let push = tape.scale(hinge, y);
    let loss = tape.add(pull, push);
    let loss_value = tape.value(loss)[(0, 0)];
    let mut grads = tape.backward(loss);
    let gs: Vec<Matrix> = (vars_a.iter().zip(&vars_b).zip(enc.params()))
        .map(|((&va, &vb), p)| match (grads.take(vb), grads.take(va)) {
            (Some(mut g), Some(g_a)) => {
                g.axpy(1.0, &g_a);
                g
            }
            (Some(g), None) | (None, Some(g)) => g,
            (None, None) => Matrix::zeros(p.rows(), p.cols()),
        })
        .collect();
    adam.step(encoder.params_mut(), &gs);
    (loss_value, gs)
}

fn same_matrices(x: &[Matrix], y: &[Matrix]) -> bool {
    x.len() == y.len()
        && x.iter()
            .zip(y)
            .all(|(p, q)| p.shape() == q.shape() && same_bits(p.as_slice(), q.as_slice()))
}

/// Features of graphs for a model: finite specials (−0.0, subnormals,
/// zeros) at rate `special`, and NaN or ±∞ too if `poison`.
fn graph_for(
    rng: &mut Rng,
    encoder: &Encoder,
    n: usize,
    special: f64,
    poison: bool,
) -> InteractionGraph {
    let feature = |rng: &mut Rng| feature(rng, special, !poison);
    match encoder {
        Encoder::Magnn(m) => graph_with(
            rng,
            n,
            |rng, i| hetero_platform(rng, m, i),
            |p| hetero_dim(m, p),
            feature,
        ),
        Encoder::Gcn(e) => {
            let d = e.input_dim;
            graph_with(rng, n, |_, _| Platform::Ifttt, |_| d, feature)
        }
        Encoder::Gin(e) => {
            let d = e.input_dim;
            graph_with(rng, n, |_, _| Platform::Ifttt, |_| d, feature)
        }
    }
}

/// Runs `steps` pairs of graphs of 1–60 nodes through a run and through
/// fresh tapes; after every step the loss, the summed gradients and the
/// updated parameters must agree. The last pair may carry NaN or ±∞.
fn check_run(rng: &mut Rng, encoder: Encoder, steps: usize) {
    let special = [0.0, 0.05, 0.3][rng.usize(3)];
    let poison_last = rng.bool(0.5);
    let lr = [1e-3, 0.05][rng.usize(2)];
    let mut fresh = encoder.clone();
    let mut adam = Adam::new(lr, fresh.params());
    let mut reused = encoder;
    let mut run = ContrastiveRun::new(&reused, lr);
    for step in 0..steps {
        let poison = poison_last && step + 1 == steps;
        let (na, nb) = (rng.range(1, 61), rng.range(1, 61));
        let ga = graph_for(rng, &reused, na, special, poison);
        let gb = graph_for(rng, &reused, nb, special, poison);
        let different = rng.bool(0.5);
        let margin = rng.uniform(0.5, 3.0);
        let (want_loss, want) = fresh_step(&mut fresh, &mut adam, &ga, &gb, different, margin);
        let got_loss = run.step(&mut reused, &ga, &gb, different, margin);
        let shapes = format!("step {step}: {na} and {nb} nodes");
        assert!(same_bits(&[got_loss], &[want_loss]), "{shapes}: loss");
        assert!(same_matrices(run.grads(), &want), "{shapes}: gradients");
        assert!(
            same_matrices(reused.params(), fresh.params()),
            "{shapes}: parameters"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_reused_run_steps_like_fresh_tapes(seed in 0u64..1_000_000) {
        let mut rng = Rng::seed_from_u64(seed);
        let d = rng.range(1, 12);
        for encoder in encoders(&mut rng, d) {
            check_run(&mut rng, encoder, 6);
        }
        let model = magnn(&mut rng);
        check_run(&mut rng, Encoder::Magnn(model), 6);
    }
}

#[test]
fn the_buffer_set_stops_growing_after_the_first_epoch() {
    let mut rng = Rng::seed_from_u64(11);
    let d = 6;
    let [gcn, gin] = encoders(&mut rng, d);
    let magnn = Encoder::Magnn(magnn(&mut rng));
    for mut encoder in [gcn, gin, magnn] {
        // One epoch: 24 pairs over 12 graphs of 1–40 nodes, so sizes grow
        // and shrink from step to step, as in `train_contrastive`.
        let graphs: Vec<InteractionGraph> = (0..12)
            .map(|_| {
                let n = rng.range(1, 41);
                graph_for(&mut rng, &encoder, n, 0.05, false)
            })
            .collect();
        let pairs: Vec<(usize, usize, bool)> = (0..24)
            .map(|_| (rng.usize(12), rng.usize(12), rng.bool(0.5)))
            .collect();
        let mut run = ContrastiveRun::new(&encoder, 1e-3);
        for &(i, j, different) in &pairs {
            run.step(&mut encoder, &graphs[i], &graphs[j], different, 1.0);
        }
        let bound = run.buffers().footprint();
        assert!(bound.0 > 0 && bound.1 > 0, "the run holds no buffer");
        for epoch in 1..4 {
            for (s, &(i, j, different)) in pairs.iter().enumerate() {
                run.step(&mut encoder, &graphs[i], &graphs[j], different, 1.0);
                assert_eq!(
                    run.buffers().footprint(),
                    bound,
                    "epoch {epoch}, step {s}: the set grew"
                );
            }
        }
    }
}
