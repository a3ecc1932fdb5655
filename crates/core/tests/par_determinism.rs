//! Width-invariance lock for the data-parallel execution layer: every stage
//! that runs on a [`fexiot_par::ParPool`] must produce **byte-identical**
//! results at 1, 2, and 7 threads. Chunk boundaries are pure functions of
//! the *requested* width, no draw depends on which worker runs an item, and
//! every gather preserves submission order, so this holds by construction —
//! these tests lock it.
//!
//! Stages with explicit-pool variants (`*_with`) are exercised on private
//! pools; federation and explanation route through the process-global pool,
//! so those tests sequence [`fexiot_par::set_threads`]. That global is shared
//! with any concurrently running test, which is safe precisely because of the
//! property under test: results never depend on the pool width.

use fexiot::{FexIot, FexIotConfig};
use fexiot_fed::{Client, FedConfig, FedSim, Strategy};
use fexiot_gnn::{ContrastiveConfig, Encoder, Gin};
use fexiot_graph::dataset::generate_dataset_with;
use fexiot_graph::{DatasetConfig, GraphDataset};
use fexiot_par::ParPool;
use fexiot_tensor::Rng;

const WIDTHS: [usize; 3] = [1, 2, 7];

fn small_dataset(pool: &ParPool, graphs: usize, seed: u64) -> GraphDataset {
    let mut rng = Rng::seed_from_u64(seed);
    let mut cfg = DatasetConfig::small_ifttt();
    cfg.graph_count = graphs;
    generate_dataset_with(pool, &cfg, &mut rng)
}

/// Flattens a dataset to exactly comparable integers: per-node feature bits
/// plus the structural identity (rule ids) featurization must not disturb.
fn dataset_fingerprint(ds: &GraphDataset) -> Vec<u64> {
    let mut out = Vec::new();
    for g in &ds.graphs {
        out.push(g.node_count() as u64);
        for node in &g.nodes {
            out.push(node.rule.id as u64);
            out.extend(node.features.iter().map(|f| f.to_bits()));
        }
    }
    out
}

#[test]
fn featurize_is_width_invariant() {
    let reference = dataset_fingerprint(&small_dataset(&ParPool::new(1), 60, 42));
    for width in WIDTHS {
        let got = dataset_fingerprint(&small_dataset(&ParPool::new(width), 60, 42));
        assert_eq!(got, reference, "featurize diverged at width {width}");
    }
}

/// One round flattened to exactly comparable integers, mirroring the fed
/// golden lock: `(mean_loss bits, uploaded, downloaded, up msgs, down msgs)`.
type Row = (u64, usize, usize, usize, usize);

fn federated_rows(width: usize) -> Vec<Row> {
    fexiot_par::set_threads(width);
    let mut rng = Rng::seed_from_u64(42);
    let mut cfg = DatasetConfig::small_ifttt();
    cfg.graph_count = 40;
    let ds = generate_dataset_with(&ParPool::new(1), &cfg, &mut rng);
    let splits = ds.dirichlet_split(3, 1.0, &mut rng);
    let d = ds.graphs[0].nodes[0].features.len();
    let template = Gin::new(d, &[10], 6, &mut rng);
    let clients = splits
        .into_iter()
        .enumerate()
        .map(|(i, data)| Client::new(i, Encoder::Gin(template.clone()), data))
        .collect();
    let config = FedConfig {
        strategy: Strategy::fexiot_default(),
        rounds: 2,
        local: ContrastiveConfig {
            epochs: 1,
            pairs_per_epoch: 8,
            ..Default::default()
        },
        seed: 42,
        ..Default::default()
    };
    FedSim::new(clients, config)
        .run()
        .into_iter()
        .map(|r| {
            (
                r.mean_loss.to_bits(),
                r.cumulative_comm.uploaded_bytes,
                r.cumulative_comm.downloaded_bytes,
                r.cumulative_comm.upload_messages,
                r.cumulative_comm.download_messages,
            )
        })
        .collect()
}

#[test]
fn federated_round_reports_are_width_invariant() {
    let saved = fexiot_par::pool().threads();
    let reference = federated_rows(1);
    for width in WIDTHS {
        assert_eq!(
            federated_rows(width),
            reference,
            "RoundReports diverged at width {width}"
        );
    }
    fexiot_par::set_threads(saved);
}

#[test]
fn explanation_is_width_invariant() {
    let saved = fexiot_par::pool().threads();
    let ds = small_dataset(&ParPool::new(1), 60, 42);
    let mut rng = Rng::seed_from_u64(42);
    let (train, test) = ds.train_test_split(0.8, &mut rng);
    let mut cfg = FexIotConfig::default().with_seed(42);
    cfg.hidden = vec![16];
    cfg.contrastive.epochs = 2;
    cfg.contrastive.pairs_per_epoch = 32;
    let model = FexIot::train(&train, cfg);
    let target = test
        .graphs
        .iter()
        .find(|g| g.node_count() >= 5)
        .expect("a non-trivial held-out graph");

    fexiot_par::set_threads(1);
    let reference = model.explain(target);
    for width in WIDTHS {
        fexiot_par::set_threads(width);
        let got = model.explain(target);
        assert_eq!(
            got.nodes, reference.nodes,
            "subgraph diverged at width {width}"
        );
        assert_eq!(
            got.score.to_bits(),
            reference.score.to_bits(),
            "score diverged at width {width}"
        );
        assert_eq!(
            got.evaluations, reference.evaluations,
            "evaluation count diverged at width {width}"
        );
    }
    fexiot_par::set_threads(saved);
}
