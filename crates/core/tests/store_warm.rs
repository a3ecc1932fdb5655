//! Integration locks for the artifact store (`fexiot-store`):
//!
//! 1. **Thread-width invariance** — store keys AND blob bytes written at
//!    widths 1, 2, and 7 are identical, so a warm run at any `--threads`
//!    hits what any cold run wrote. Keys are pure functions of
//!    configuration; blob bytes inherit the pipeline's width-invariance.
//! 2. **Checkpoint fidelity** — a federation checkpoint pushed through the
//!    store (serialize → blob → manifest → reopen → verify-on-read) restores
//!    a simulator that continues bit-exactly with an uninterrupted run.
//!
//! Like `par_determinism`, these tests sequence [`fexiot_par::set_threads`]
//! on the process-global pool; that is safe precisely because of the
//! property under test.

use fexiot::store::{ArtifactKind, Store};
use fexiot::{build_federation, warm, FederationConfig};
use fexiot_fed::Strategy;
use fexiot_graph::{generate_dataset, DatasetConfig};
use fexiot_tensor::Rng;
use std::collections::BTreeMap;
use std::path::PathBuf;

const WIDTHS: [usize; 3] = [1, 2, 7];

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fexiot-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Every (manifest key → blob bytes) pair the warm pipeline writes for one
/// (seed, graphs, encoder) configuration at the given pool width.
fn store_snapshot(width: usize, tag: &str) -> BTreeMap<String, Vec<u8>> {
    fexiot_par::set_threads(width);
    let dir = tmpdir(&format!("{tag}-w{width}"));
    let mut store = Store::open(&dir).unwrap();
    let model = warm::load_or_train_model(Some(&mut store), 11, 40, fexiot_gnn::EncoderKind::Gin);
    assert!(!model.warm, "fresh store must build cold");
    let mut snap = BTreeMap::new();
    for entry in store.list() {
        let name = entry.name();
        let blob = dir.join("blobs").join(format!("{:016x}.bin", entry.blob));
        snap.insert(name, std::fs::read(&blob).unwrap());
    }
    let _ = std::fs::remove_dir_all(&dir);
    snap
}

#[test]
fn store_keys_and_blob_bytes_are_thread_width_invariant() {
    let saved = fexiot_par::pool().threads();
    let baseline = store_snapshot(WIDTHS[0], "inv");
    assert_eq!(baseline.len(), 2, "dataset + model entries");
    for &w in &WIDTHS[1..] {
        let snap = store_snapshot(w, "inv");
        assert_eq!(
            baseline.keys().collect::<Vec<_>>(),
            snap.keys().collect::<Vec<_>>(),
            "identity keys must not mention the pool width"
        );
        for (name, bytes) in &baseline {
            assert_eq!(
                bytes, &snap[name],
                "blob bytes for {name} differ between widths 1 and {w}"
            );
        }
    }
    fexiot_par::set_threads(saved);
}

#[test]
fn identity_keys_are_pure_configuration() {
    // No pool interaction at all: the same inputs give the same key, and
    // every discriminating field lands in it.
    let id = warm::dataset_identity(7, 120, false);
    assert_eq!(
        id.key(ArtifactKind::Dataset),
        warm::dataset_identity(7, 120, false).key(ArtifactKind::Dataset)
    );
    let key = id.key(ArtifactKind::Dataset);
    assert!(key.contains("seed=7") && key.contains("scale=120") && key.contains("ifttt"));
    assert_ne!(
        key,
        warm::dataset_identity(7, 120, true).key(ArtifactKind::Dataset)
    );
    let ck = warm::checkpoint_identity(7, 4, "FexIoT", 240);
    let ck_key = ck.key(ArtifactKind::Checkpoint);
    assert!(ck_key.contains("strategy=FexIoT") && ck_key.contains("graphs=240"));
    assert!(
        !ck_key.contains("rounds"),
        "rounds must not pin the identity"
    );
}

#[test]
fn federate_checkpoint_roundtrips_bit_exactly_through_store() {
    let mut rng = Rng::seed_from_u64(5);
    let mut cfg = DatasetConfig::small_ifttt();
    cfg.graph_count = 40;
    let ds = generate_dataset(&cfg, &mut rng);

    let fed_cfg = FederationConfig {
        n_clients: 3,
        strategy: Strategy::fexiot_default(),
        rounds: 4,
        ..Default::default()
    };

    // Reference: an uninterrupted 4-round run.
    let mut straight = build_federation(&ds, &fed_cfg);
    for _ in 0..4 {
        straight.run_round();
    }
    let reference = straight.checkpoint();

    // Interrupted run: 2 rounds, checkpoint through the store, reopen the
    // store from disk (exercising manifest parse + hash verification on
    // read), restore into a fresh simulator, finish the remaining rounds.
    let dir = tmpdir("ck");
    let id = warm::checkpoint_identity(5, 3, "FexIoT", 40);
    {
        let mut sim = build_federation(&ds, &fed_cfg);
        sim.run_round();
        sim.run_round();
        let mut store = Store::open(&dir).unwrap();
        store.put_round(&id, 2, &sim.checkpoint()).unwrap();
    }
    let store = Store::open(&dir).unwrap();
    assert_eq!(store.latest_round(&id), Some(2));
    let bytes = store.get_round(&id, 2).unwrap();
    let mut resumed = build_federation(&ds, &fed_cfg);
    resumed.restore(&bytes).unwrap();
    assert_eq!(resumed.rounds_completed(), 2);
    resumed.run_round();
    resumed.run_round();
    assert_eq!(
        resumed.checkpoint(),
        reference,
        "resume through the store must be bit-exact with the straight run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
