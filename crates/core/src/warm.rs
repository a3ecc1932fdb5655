//! Warm-start plumbing: load datasets and trained models from a
//! `fexiot-store` artifact store, falling back to a cold build on any miss
//! or corruption.
//!
//! The rules that keep warm and cold runs byte-identical:
//!
//! 1. **Identity is pure configuration.** Keys derive from
//!    `(seed, scale, encoder, feature dims, schema version)` only — never
//!    thread width, wall clock, or load order — so a warm run at any
//!    `--threads` hits what any cold run wrote.
//! 2. **Skipping work consumes no shared RNG.** Every producer here seeds a
//!    fresh `Rng` from configuration (dataset generation, the train/test
//!    split, training), so eliding it leaves every other RNG stream
//!    untouched and downstream output bit-identical.
//! 3. **Corruption degrades to cold.** A failed verification is reported as
//!    a note and the cold path runs; the rebuilt artifact replaces the bad
//!    blob. Never a panic, never a silently-wrong warm load.

use crate::{FexIot, FexIotConfig};
use fexiot_gnn::EncoderKind;
use fexiot_graph::serialize as graph_codec;
use fexiot_graph::{generate_dataset, DatasetConfig, FeatureConfig, GraphDataset};
use fexiot_store::{ArtifactKind, Identity, Store};
use fexiot_tensor::Rng;

/// What `load_or_*` did, plus human-readable notes for stderr. Notes never
/// go to stdout: warm/cold stdout must stay byte-identical.
pub struct WarmOutcome<T> {
    pub value: T,
    /// True if the artifact came out of the store without a rebuild.
    pub warm: bool,
    pub notes: Vec<String>,
}

pub fn encoder_name(kind: EncoderKind) -> &'static str {
    match kind {
        EncoderKind::Gcn => "gcn",
        EncoderKind::Gin => "gin",
        EncoderKind::Magnn => "magnn",
    }
}

pub fn parse_encoder(name: &str) -> Option<EncoderKind> {
    match name {
        "gcn" => Some(EncoderKind::Gcn),
        "gin" => Some(EncoderKind::Gin),
        "magnn" => Some(EncoderKind::Magnn),
        _ => None,
    }
}

fn feature_dims() -> (u32, u32) {
    let f = FeatureConfig::small();
    (f.word_dim as u32, f.sentence_dim as u32)
}

/// Identity of a CLI-generated dataset: seed, graph count, and corpus
/// flavor (`ifttt` homogeneous vs `hetero` five-platform).
pub fn dataset_identity(seed: u64, graphs: usize, hetero: bool) -> Identity {
    let (wd, sd) = feature_dims();
    Identity::new(
        seed,
        graphs as u64,
        if hetero { "hetero" } else { "ifttt" },
        wd,
        sd,
    )
}

/// Identity of a CLI-trained model: seed, training-set size, encoder kind.
pub fn model_identity(seed: u64, train_graphs: usize, encoder: EncoderKind) -> Identity {
    let (wd, sd) = feature_dims();
    Identity::new(seed, train_graphs as u64, encoder_name(encoder), wd, sd)
}

/// Identity of a federation checkpoint line: seed, fleet size, and the
/// strategy/dataset discriminators. `rounds` is deliberately excluded so a
/// rerun asking for *more* rounds resumes from the latest checkpoint
/// instead of starting over.
pub fn checkpoint_identity(seed: u64, clients: usize, strategy: &str, graphs: usize) -> Identity {
    let (wd, sd) = feature_dims();
    Identity::new(seed, clients as u64, "fed", wd, sd)
        .with_extra(&format!("strategy={strategy},graphs={graphs}"))
}

fn cli_dataset_config(graphs: usize, hetero: bool) -> DatasetConfig {
    let mut cfg = if hetero {
        DatasetConfig::small_hetero()
    } else {
        DatasetConfig::small_ifttt()
    };
    cfg.graph_count = graphs;
    cfg
}

/// The CLI's dataset builder, store-aware. Cold path generates and (when a
/// store is open) persists; warm path deserializes the cached featurized
/// graphs and skips corpus generation + NLP featurization entirely.
pub fn load_or_generate_dataset(
    store: Option<&mut Store>,
    seed: u64,
    graphs: usize,
    hetero: bool,
) -> WarmOutcome<GraphDataset> {
    let mut notes = Vec::new();
    let id = dataset_identity(seed, graphs, hetero);
    if let Some(store) = &store {
        match store.get(ArtifactKind::Dataset, &id) {
            Ok(bytes) => match graph_codec::dataset_from_bytes(&bytes) {
                Ok(ds) => {
                    return WarmOutcome {
                        value: ds,
                        warm: true,
                        notes: vec![format!("store: warm dataset hit ({} graphs)", graphs)],
                    }
                }
                Err(e) => notes.push(format!(
                    "store: corrupt dataset payload for {} ({e}); rebuilding cold",
                    id.key(ArtifactKind::Dataset)
                )),
            },
            Err(fexiot_store::StoreError::Missing { .. }) => {
                notes.push("store: dataset miss; generating cold".to_string())
            }
            Err(e) => notes.push(format!("store: {e}; generating cold")),
        }
    }
    let mut rng = Rng::seed_from_u64(seed);
    let ds = generate_dataset(&cli_dataset_config(graphs, hetero), &mut rng);
    if let Some(store) = store {
        if let Err(e) = store.put(
            ArtifactKind::Dataset,
            &id,
            &graph_codec::dataset_to_bytes(&ds),
        ) {
            notes.push(format!("store: cannot cache dataset: {e}"));
        }
    }
    WarmOutcome {
        value: ds,
        warm: false,
        notes,
    }
}

/// Train-or-load for the model registry: mirrors the `train` subcommand's
/// exact cold path (dataset of `train_graphs`, 80/20 split seeded from
/// `seed ^ 0x5EED`, [`FexIot::train`]) so a model trained by `train --store`
/// and one trained on demand by `eval --store` are bit-identical.
pub fn load_or_train_model(
    store: Option<&mut Store>,
    seed: u64,
    train_graphs: usize,
    encoder: EncoderKind,
) -> WarmOutcome<FexIot> {
    let mut notes = Vec::new();
    let id = model_identity(seed, train_graphs, encoder.clone());
    if let Some(store) = &store {
        match store.get(ArtifactKind::Model, &id) {
            Ok(bytes) => match FexIot::load_from_bytes(&bytes) {
                Ok(model) => {
                    return WarmOutcome {
                        value: model,
                        warm: true,
                        notes: vec![format!(
                            "store: warm model hit ({})",
                            encoder_name(encoder.clone())
                        )],
                    }
                }
                Err(e) => notes.push(format!(
                    "store: corrupt model payload for {} ({e}); retraining cold",
                    id.key(ArtifactKind::Model)
                )),
            },
            Err(fexiot_store::StoreError::Missing { .. }) => {
                notes.push("store: model miss; training cold".to_string())
            }
            Err(e) => notes.push(format!("store: {e}; training cold")),
        }
    }
    let hetero = encoder == EncoderKind::Magnn;
    // The dataset itself is store-cacheable; reuse the dataset path so an
    // on-demand training run still warm-loads its graphs. The store borrow
    // is threaded through both steps.
    let mut store = store;
    let ds = load_or_generate_dataset(store.as_deref_mut(), seed, train_graphs, hetero);
    notes.extend(ds.notes);
    let mut rng = Rng::seed_from_u64(seed ^ 0x5EED);
    let (train, _test) = ds.value.train_test_split(0.8, &mut rng);
    let cfg = FexIotConfig::default()
        .with_encoder(encoder.clone())
        .with_seed(seed);
    let model = FexIot::train(&train, cfg);
    if let Some(store) = store {
        if let Err(e) = store.put(ArtifactKind::Model, &id, &model.save_to_bytes()) {
            notes.push(format!("store: cannot cache model: {e}"));
        }
    }
    WarmOutcome {
        value: model,
        warm: false,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fexiot-warm-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn dataset_cold_then_warm_is_bit_identical() {
        let dir = tmpdir("ds");
        let mut store = Store::open(&dir).unwrap();
        let cold = load_or_generate_dataset(Some(&mut store), 42, 30, false);
        assert!(!cold.warm);
        let warm = load_or_generate_dataset(Some(&mut store), 42, 30, false);
        assert!(warm.warm);
        assert_eq!(cold.value.graphs, warm.value.graphs);
        // And matches a store-less run exactly.
        let plain = load_or_generate_dataset(None, 42, 30, false);
        assert_eq!(plain.value.graphs, warm.value.graphs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_identities_do_not_collide() {
        let dir = tmpdir("ids");
        let mut store = Store::open(&dir).unwrap();
        let a = load_or_generate_dataset(Some(&mut store), 1, 20, false);
        let b = load_or_generate_dataset(Some(&mut store), 2, 20, false);
        let c = load_or_generate_dataset(Some(&mut store), 1, 20, true);
        assert!(!a.warm && !b.warm && !c.warm);
        assert_eq!(store.list().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_dataset_blob_degrades_to_cold_rebuild() {
        let dir = tmpdir("corrupt");
        let mut store = Store::open(&dir).unwrap();
        let cold = load_or_generate_dataset(Some(&mut store), 9, 20, false);
        // Flip a byte in the blob on disk.
        let entry = store.list()[0];
        let blob = dir.join("blobs").join(format!("{:016x}.bin", entry.blob));
        let mut bytes = std::fs::read(&blob).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&blob, &bytes).unwrap();
        let rebuilt = load_or_generate_dataset(Some(&mut store), 9, 20, false);
        assert!(!rebuilt.warm, "corrupt blob must not warm-load");
        assert!(rebuilt.notes.iter().any(|n| n.contains("dataset")));
        assert_eq!(cold.value.graphs, rebuilt.value.graphs);
        // The rebuild re-put a good blob: next run is warm again.
        let warm = load_or_generate_dataset(Some(&mut store), 9, 20, false);
        assert!(warm.warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn model_registry_train_or_load_is_deterministic() {
        let dir = tmpdir("model");
        let mut store = Store::open(&dir).unwrap();
        let cold = load_or_train_model(Some(&mut store), 3, 60, EncoderKind::Gin);
        assert!(!cold.warm);
        let warm = load_or_train_model(Some(&mut store), 3, 60, EncoderKind::Gin);
        assert!(warm.warm);
        assert_eq!(cold.value.save_to_bytes(), warm.value.save_to_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
