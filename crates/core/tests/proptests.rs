//! Cross-crate property tests: dataset invariants, explanation invariants,
//! SHAP axioms against the live pipeline, and masking consistency.

use fexiot::{FexIot, FexIotConfig};
use fexiot_explain::{explain, fexiot_config, mask_graph, shap_value, ShapConfig};
use fexiot_graph::{generate_dataset, DatasetConfig, GraphDataset};
use fexiot_tensor::Rng;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One shared trained pipeline — training per proptest case would be wasteful.
fn model() -> &'static (FexIot, GraphDataset) {
    static MODEL: OnceLock<(FexIot, GraphDataset)> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut rng = Rng::seed_from_u64(99);
        let mut cfg = DatasetConfig::small_ifttt();
        cfg.graph_count = 120;
        let ds = generate_dataset(&cfg, &mut rng);
        let mut pipe = FexIotConfig::default().with_seed(99);
        pipe.contrastive.epochs = 4;
        (FexIot::train(&ds, pipe), ds)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dataset_generation_invariants(seed in 0u64..200, count in 10usize..40) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut cfg = DatasetConfig::small_ifttt();
        cfg.graph_count = count;
        let ds = generate_dataset(&cfg, &mut rng);
        prop_assert_eq!(ds.len(), count);
        for g in &ds.graphs {
            prop_assert!(g.node_count() >= 1);
            prop_assert!(g.node_count() <= cfg.max_nodes);
            for &(a, b) in &g.edges {
                prop_assert!(a < g.node_count() && b < g.node_count());
            }
            prop_assert!(g.label.is_some());
            // Label must agree with the structural detector (idempotent).
            let redetect = fexiot_graph::detect_vulnerabilities(g);
            let label = g.label.as_ref().unwrap();
            if label.kinds.is_empty() {
                // Either benign or externally-marked; internal detector agrees
                // with benign labels.
                if !label.vulnerable {
                    prop_assert!(redetect.is_empty());
                }
            } else {
                prop_assert_eq!(&redetect, &label.kinds);
            }
        }
    }

    #[test]
    fn dirichlet_split_partitions(seed in 0u64..100, clients in 1usize..12, alpha in 0.1f64..10.0) {
        let (_, ds) = model();
        let mut rng = Rng::seed_from_u64(seed);
        let splits = ds.dirichlet_split(clients, alpha, &mut rng);
        prop_assert_eq!(splits.len(), clients);
        let total: usize = splits.iter().map(GraphDataset::len).sum();
        prop_assert_eq!(total, ds.len());
    }

    #[test]
    fn detection_scores_are_probabilities(idx in 0usize..120) {
        let (model, ds) = model();
        let g = &ds.graphs[idx % ds.len()];
        let d = model.detect(g);
        prop_assert!((0.0..=1.0).contains(&d.score));
        prop_assert_eq!(d.vulnerable, d.score >= 0.5);
    }

    #[test]
    fn explanation_nodes_within_graph(seed in 0u64..40) {
        let (model, ds) = model();
        let g = ds
            .graphs
            .iter()
            .cycle()
            .skip(seed as usize)
            .find(|g| g.node_count() >= 4)
            .unwrap();
        let mut cfg = fexiot_config(2, 3, 8);
        cfg.seed = seed;
        let e = explain(model.scorer(), g, &cfg);
        prop_assert!(!e.nodes.is_empty());
        prop_assert!(e.nodes.len() <= g.node_count());
        prop_assert!(e.nodes.iter().all(|&i| i < g.node_count()));
        // Sorted and unique.
        prop_assert!(e.nodes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn full_player_shap_equals_efficiency_gap(seed in 0u64..30) {
        // With the whole graph as one player, SHAP must equal f(full) - f(empty).
        let (model, ds) = model();
        let g = &ds.graphs[(seed as usize * 7) % ds.len()];
        let all: Vec<usize> = (0..g.node_count()).collect();
        let mut rng = Rng::seed_from_u64(seed);
        let phi = shap_value(model.scorer(), g, &all, &ShapConfig { samples: 16 }, &mut rng);
        let n = g.node_count();
        let full = model.scorer().score_with_nodes(g, &vec![true; n]);
        let empty = model.scorer().score_with_nodes(g, &vec![false; n]);
        prop_assert!((phi - (full - empty)).abs() < 1e-9);
    }

    #[test]
    fn masking_everything_zeroes_features(idx in 0usize..120) {
        let (_, ds) = model();
        let g = &ds.graphs[idx % ds.len()];
        let masked = mask_graph(g, &vec![false; g.node_count()]);
        prop_assert!(masked.edges.is_empty());
        for n in &masked.nodes {
            prop_assert!(n.features.iter().all(|&f| f == 0.0));
        }
    }
}

/// The shared model's checkpoint bytes.
fn saved_model() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| model().0.save_to_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // A damaged checkpoint (the input of `explain --model` and of the
    // store's warm loads) loads as an error, never as a panic or an abort:
    // every truncation fails, and a model with one byte overwritten — a
    // quarter of the cases within the leading 96 bytes, where the encoder's
    // architecture header sits — either fails or can still detect.
    #[test]
    fn damaged_checkpoints_load_cleanly(at in 0.0f64..1.0, byte in 0u64..256, mode in 0u64..4) {
        let (_, ds) = model();
        let bytes = saved_model();
        let span = if mode == 1 { 96 } else { bytes.len() };
        let at = (at * span as f64) as usize;
        if mode == 0 {
            prop_assert!(FexIot::load_from_bytes(&bytes[..at]).is_err());
        } else {
            let mut damaged = bytes.to_vec();
            damaged[at] = byte as u8;
            if let Ok(loaded) = FexIot::load_from_bytes(&damaged) {
                loaded.detect(&ds.graphs[0]);
            }
        }
    }
}
