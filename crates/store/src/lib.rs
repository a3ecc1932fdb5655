//! # fexiot-store
//!
//! Versioned, seed-keyed on-disk artifact store and model registry.
//!
//! Layout under the store directory:
//!
//! ```text
//! <dir>/manifest.json        # fexiot-store/v1: entries keyed by kind + identity
//! <dir>/blobs/<fnv16>.bin    # content-addressed payloads (FNV-1a 64 of bytes)
//! ```
//!
//! The manifest maps an *identity tuple* — `(seed, scale, encoder, feature
//! dims, schema version, extra)` per [`ArtifactKind`] — to a content-addressed
//! blob. Identity keys are a pure function of configuration, never of thread
//! width or wall clock, so a warm run at `--threads 7` hits the blobs a
//! `--threads 1` run wrote. Every read re-hashes the blob against both the
//! manifest's recorded hash and the filename, so truncation and bit flips
//! surface as a clean [`StoreError::Corrupt`] naming the artifact — the caller
//! falls back to a cold rebuild, never a silently-wrong warm load.
//!
//! All store traffic is counted on the global obs registry (`store.hits`,
//! `store.misses`, `store.corrupt`, `store.bytes_written`, `store.bytes_read`)
//! plus a wall-clock advisory `store.load_us` histogram.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fexiot_obs::Json;
use fexiot_tensor::codec::fnv1a;

/// Manifest schema identifier; bump when the on-disk layout changes.
pub const MANIFEST_SCHEMA: &str = "fexiot-store/v1";

/// Artifact schema version folded into every identity key, so a codec bump
/// (e.g. the fixed-layout matrix frame) invalidates stale blobs instead of
/// mis-reading them.
pub const SCHEMA_VERSION: u32 = 2;

/// What kind of artifact an entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// A trained end-to-end model (`FexIot::save_to_bytes`).
    Model,
    /// A featurized dataset (`GraphDataset` via `fexiot_graph::serialize`).
    Dataset,
    /// A corpus rule index (`CorpusIndex`).
    CorpusIndex,
    /// A federation simulator checkpoint (codec v2 bytes, one per round).
    Checkpoint,
}

impl ArtifactKind {
    pub const ALL: [ArtifactKind; 4] = [
        ArtifactKind::Model,
        ArtifactKind::Dataset,
        ArtifactKind::CorpusIndex,
        ArtifactKind::Checkpoint,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            ArtifactKind::Model => "model",
            ArtifactKind::Dataset => "dataset",
            ArtifactKind::CorpusIndex => "corpus_index",
            ArtifactKind::Checkpoint => "checkpoint",
        }
    }

    pub fn parse(s: &str) -> Option<ArtifactKind> {
        ArtifactKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The identity tuple a manifest entry is keyed by. Every field is
/// configuration — nothing here may depend on thread width, wall clock, or
/// iteration order, or warm runs would miss blobs cold runs wrote.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Identity {
    /// Deterministic RNG seed of the producing run.
    pub seed: u64,
    /// Workload scale (graph count, client count — whatever sizes the run).
    pub scale: u64,
    /// Encoder family (`gin` / `gcn` / `magnn`), or a logical tag for
    /// non-model artifacts (`ifttt` / `hetero` corpora).
    pub encoder: String,
    /// Word-embedding dimension of the feature config.
    pub word_dim: u32,
    /// Sentence-embedding dimension of the feature config.
    pub sentence_dim: u32,
    /// Free-form discriminator for anything else identity-relevant
    /// (epochs, fault-plan digest, …). Empty when unused.
    pub extra: String,
}

impl Identity {
    pub fn new(seed: u64, scale: u64, encoder: &str, word_dim: u32, sentence_dim: u32) -> Self {
        Identity {
            seed,
            scale,
            encoder: encoder.to_string(),
            word_dim,
            sentence_dim,
            extra: String::new(),
        }
    }

    pub fn with_extra(mut self, extra: &str) -> Self {
        self.extra = extra.to_string();
        self
    }

    /// Canonical key string — the manifest key and the display name in
    /// errors/`store list`. Field order is fixed; changing it is a schema
    /// break (bump [`SCHEMA_VERSION`]).
    pub fn key(&self, kind: ArtifactKind) -> String {
        format!(
            "{}|v{}|seed={}|scale={}|enc={}|wd={}|sd={}|extra={}",
            kind.as_str(),
            SCHEMA_VERSION,
            self.seed,
            self.scale,
            self.encoder,
            self.word_dim,
            self.sentence_dim,
            self.extra
        )
    }
}

/// One manifest row.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub kind: ArtifactKind,
    pub identity: Identity,
    /// Federation round for [`ArtifactKind::Checkpoint`] entries; `None`
    /// for every other kind.
    pub round: Option<u64>,
    /// FNV-1a 64 of the blob bytes — the content address.
    pub blob: u64,
    /// Blob length in bytes.
    pub len: u64,
}

impl Entry {
    /// The artifact's display name in errors and `store list`.
    pub fn name(&self) -> String {
        let base = self.identity.key(self.kind);
        match self.round {
            Some(r) => format!("{base}|round={r}"),
            None => base,
        }
    }

    fn manifest_key(&self) -> String {
        self.name()
    }
}

/// Errors from store operations. `Corrupt` and `Missing` always name the
/// artifact so a CLI user can see exactly what failed.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    Io { artifact: String, detail: String },
    Corrupt { artifact: String, detail: String },
    Missing { artifact: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { artifact, detail } => {
                write!(f, "store i/o error for {artifact}: {detail}")
            }
            StoreError::Corrupt { artifact, detail } => {
                write!(f, "corrupt artifact {artifact}: {detail}")
            }
            StoreError::Missing { artifact } => write!(f, "artifact not in store: {artifact}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// An open artifact store rooted at a directory.
pub struct Store {
    dir: PathBuf,
    /// Manifest rows keyed by the canonical entry name (BTreeMap so the
    /// serialized manifest and `list()` are deterministically ordered).
    entries: BTreeMap<String, Entry>,
    /// Set when `open` found a manifest it could not parse — surfaced as a
    /// warning by callers; the store behaves as empty and rewrites cleanly.
    pub recovered: Option<String>,
}

impl Store {
    /// Opens (creating if needed) the store at `dir`. A corrupt manifest is
    /// *recovered from*, not fatal: the store opens empty with
    /// [`Store::recovered`] set, so a cold rebuild can proceed and the next
    /// `put` rewrites a valid manifest.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        std::fs::create_dir_all(dir.join("blobs")).map_err(|e| StoreError::Io {
            artifact: dir.display().to_string(),
            detail: e.to_string(),
        })?;
        let manifest = dir.join("manifest.json");
        let mut store = Store {
            dir: dir.to_path_buf(),
            entries: BTreeMap::new(),
            recovered: None,
        };
        if manifest.exists() {
            let text = std::fs::read_to_string(&manifest).map_err(|e| StoreError::Io {
                artifact: manifest.display().to_string(),
                detail: e.to_string(),
            })?;
            match parse_manifest(&text) {
                Ok(entries) => store.entries = entries,
                Err(detail) => {
                    fexiot_obs::counter_add("store.corrupt", 1);
                    store.recovered = Some(format!(
                        "corrupt manifest {}: {detail}; treating store as empty",
                        manifest.display()
                    ));
                }
            }
        }
        Ok(store)
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn blob_path(&self, blob: u64) -> PathBuf {
        self.dir.join("blobs").join(format!("{blob:016x}.bin"))
    }

    /// Stores `bytes` under `(kind, identity)`, replacing any previous entry
    /// with the same key. Blob and manifest writes go through a tmp-file +
    /// rename so a crash mid-write never leaves a half-written artifact
    /// behind a valid name.
    pub fn put(
        &mut self,
        kind: ArtifactKind,
        id: &Identity,
        bytes: &[u8],
    ) -> Result<u64, StoreError> {
        self.put_entry(kind, id, None, bytes)
    }

    /// Stores a federation checkpoint for `round`. Rounds are separate
    /// manifest rows under one identity, so `latest_round` can resume from
    /// the newest without scanning the filesystem.
    pub fn put_round(
        &mut self,
        id: &Identity,
        round: u64,
        bytes: &[u8],
    ) -> Result<u64, StoreError> {
        self.put_entry(ArtifactKind::Checkpoint, id, Some(round), bytes)
    }

    fn put_entry(
        &mut self,
        kind: ArtifactKind,
        id: &Identity,
        round: Option<u64>,
        bytes: &[u8],
    ) -> Result<u64, StoreError> {
        let blob = fnv1a(bytes);
        let entry = Entry {
            kind,
            identity: id.clone(),
            round,
            blob,
            len: bytes.len() as u64,
        };
        let name = entry.name();
        let path = self.blob_path(blob);
        // Always rewrite, even when the content-addressed path exists: a
        // re-put after a verify-on-read failure must replace the corrupted
        // bytes, and the atomic tmp+rename makes the overwrite safe.
        write_atomic(&path, bytes).map_err(|e| StoreError::Io {
            artifact: name.clone(),
            detail: e.to_string(),
        })?;
        fexiot_obs::counter_add("store.bytes_written", bytes.len() as u64);
        self.entries.insert(entry.manifest_key(), entry);
        self.write_manifest()?;
        Ok(blob)
    }

    /// Loads the artifact stored under `(kind, identity)`, verifying the
    /// blob hash on the way in. Counts a hit, a miss, or a corruption on the
    /// global registry.
    pub fn get(&self, kind: ArtifactKind, id: &Identity) -> Result<Vec<u8>, StoreError> {
        self.read_entry_named(&id.key(kind))
    }

    /// Loads the checkpoint blob for a specific round.
    pub fn get_round(&self, id: &Identity, round: u64) -> Result<Vec<u8>, StoreError> {
        let name = format!("{}|round={round}", id.key(ArtifactKind::Checkpoint));
        self.read_entry_named(&name)
    }

    /// Highest checkpoint round recorded for this identity, if any.
    pub fn latest_round(&self, id: &Identity) -> Option<u64> {
        let prefix = id.key(ArtifactKind::Checkpoint);
        self.entries
            .values()
            .filter(|e| e.kind == ArtifactKind::Checkpoint && e.identity == *id)
            .filter(|e| e.identity.key(ArtifactKind::Checkpoint) == prefix)
            .filter_map(|e| e.round)
            .max()
    }

    fn read_entry_named(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        let Some(entry) = self.entries.get(name) else {
            fexiot_obs::counter_add("store.misses", 1);
            return Err(StoreError::Missing {
                artifact: name.to_string(),
            });
        };
        let start = Instant::now();
        let path = self.blob_path(entry.blob);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                fexiot_obs::counter_add("store.corrupt", 1);
                return Err(StoreError::Corrupt {
                    artifact: name.to_string(),
                    detail: format!("blob {} unreadable: {e}", path.display()),
                });
            }
        };
        if bytes.len() as u64 != entry.len || fnv1a(&bytes) != entry.blob {
            fexiot_obs::counter_add("store.corrupt", 1);
            return Err(StoreError::Corrupt {
                artifact: name.to_string(),
                detail: format!(
                    "blob {} fails hash/length verification ({} bytes on disk, {} expected)",
                    path.display(),
                    bytes.len(),
                    entry.len
                ),
            });
        }
        fexiot_obs::counter_add("store.hits", 1);
        fexiot_obs::counter_add("store.bytes_read", bytes.len() as u64);
        fexiot_obs::hist_record(
            "store.load_us",
            fexiot_obs::buckets::TIME_US,
            start.elapsed().as_micros() as f64,
        );
        Ok(bytes)
    }

    /// All manifest rows in deterministic (name) order.
    pub fn list(&self) -> Vec<&Entry> {
        self.entries.values().collect()
    }

    /// Drops manifest rows whose blob is missing or fails verification, and
    /// deletes blob files no surviving row references. Returns
    /// `(entries_dropped, blobs_deleted)`.
    pub fn gc(&mut self) -> Result<(usize, usize), StoreError> {
        let mut dropped = 0usize;
        self.entries.retain(|_, e| {
            let ok = std::fs::read(self.dir.join("blobs").join(format!("{:016x}.bin", e.blob)))
                .map(|b| b.len() as u64 == e.len && fnv1a(&b) == e.blob)
                .unwrap_or(false);
            if !ok {
                dropped += 1;
            }
            ok
        });
        let live: std::collections::BTreeSet<String> = self
            .entries
            .values()
            .map(|e| format!("{:016x}.bin", e.blob))
            .collect();
        let mut deleted = 0usize;
        let blobs = self.dir.join("blobs");
        if let Ok(rd) = std::fs::read_dir(&blobs) {
            for f in rd.flatten() {
                let fname = f.file_name().to_string_lossy().into_owned();
                if fname.ends_with(".bin")
                    && !live.contains(&fname)
                    && std::fs::remove_file(f.path()).is_ok()
                {
                    deleted += 1;
                }
            }
        }
        self.write_manifest()?;
        Ok((dropped, deleted))
    }

    fn write_manifest(&self) -> Result<(), StoreError> {
        let rows: Vec<Json> = self
            .entries
            .values()
            .map(|e| {
                let mut obj = vec![
                    ("kind".to_string(), Json::Str(e.kind.as_str().to_string())),
                    ("key".to_string(), Json::Str(e.name())),
                    ("seed".to_string(), Json::UInt(e.identity.seed)),
                    ("scale".to_string(), Json::UInt(e.identity.scale)),
                    ("encoder".to_string(), Json::Str(e.identity.encoder.clone())),
                    (
                        "word_dim".to_string(),
                        Json::UInt(u64::from(e.identity.word_dim)),
                    ),
                    (
                        "sentence_dim".to_string(),
                        Json::UInt(u64::from(e.identity.sentence_dim)),
                    ),
                    ("extra".to_string(), Json::Str(e.identity.extra.clone())),
                    ("blob".to_string(), Json::Str(format!("{:016x}", e.blob))),
                    ("len".to_string(), Json::UInt(e.len)),
                ];
                if let Some(r) = e.round {
                    obj.push(("round".to_string(), Json::UInt(r)));
                }
                Json::Obj(obj)
            })
            .collect();
        let doc = Json::Obj(vec![
            ("schema".to_string(), Json::Str(MANIFEST_SCHEMA.to_string())),
            ("version".to_string(), Json::UInt(u64::from(SCHEMA_VERSION))),
            ("entries".to_string(), Json::Arr(rows)),
        ]);
        let path = self.dir.join("manifest.json");
        write_atomic(&path, doc.to_string().as_bytes()).map_err(|e| StoreError::Io {
            artifact: path.display().to_string(),
            detail: e.to_string(),
        })
    }
}

fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

fn parse_manifest(text: &str) -> Result<BTreeMap<String, Entry>, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(Json::as_str) != Some(MANIFEST_SCHEMA) {
        return Err(format!("schema is not {MANIFEST_SCHEMA}"));
    }
    let rows = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("missing entries array")?;
    let mut out = BTreeMap::new();
    for row in rows {
        let kind = row
            .get("kind")
            .and_then(Json::as_str)
            .and_then(ArtifactKind::parse)
            .ok_or("entry with bad kind")?;
        let need_u64 = |k: &str| {
            row.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("entry missing {k}"))
        };
        let need_u32 = |k: &str| {
            need_u64(k)
                .and_then(|v| u32::try_from(v).map_err(|_| format!("entry {k} {v} exceeds u32")))
        };
        let need_str = |k: &str| {
            row.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("entry missing {k}"))
        };
        let blob_hex = need_str("blob")?;
        let blob = u64::from_str_radix(&blob_hex, 16).map_err(|_| "bad blob hash".to_string())?;
        let entry = Entry {
            kind,
            identity: Identity {
                seed: need_u64("seed")?,
                scale: need_u64("scale")?,
                encoder: need_str("encoder")?,
                word_dim: need_u32("word_dim")?,
                sentence_dim: need_u32("sentence_dim")?,
                extra: need_str("extra")?,
            },
            round: row.get("round").and_then(Json::as_u64),
            blob,
            len: need_u64("len")?,
        };
        out.insert(entry.manifest_key(), entry);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("fexiot-store-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn identity_key_is_pure_configuration() {
        let a = Identity::new(42, 300, "gin", 32, 48).key(ArtifactKind::Model);
        let b = Identity::new(42, 300, "gin", 32, 48).key(ArtifactKind::Model);
        assert_eq!(a, b);
        assert!(a.contains("seed=42"));
        let c = Identity::new(43, 300, "gin", 32, 48).key(ArtifactKind::Model);
        assert_ne!(a, c);
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let dir = tmpdir("roundtrip");
        let id = Identity::new(7, 120, "gin", 32, 48);
        let payload = vec![1u8, 2, 3, 250, 0, 9];
        {
            let mut s = Store::open(&dir).unwrap();
            s.put(ArtifactKind::Model, &id, &payload).unwrap();
            assert_eq!(s.get(ArtifactKind::Model, &id).unwrap(), payload);
        }
        let s = Store::open(&dir).unwrap();
        assert!(s.recovered.is_none());
        assert_eq!(s.get(ArtifactKind::Model, &id).unwrap(), payload);
        assert_eq!(s.list().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_artifact_is_a_named_miss() {
        let dir = tmpdir("miss");
        let s = Store::open(&dir).unwrap();
        let id = Identity::new(1, 2, "gcn", 32, 48);
        let err = s.get(ArtifactKind::Dataset, &id).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("dataset"), "{msg}");
        assert!(msg.contains("seed=1"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_detected_and_named() {
        let dir = tmpdir("bitflip");
        let id = Identity::new(9, 60, "magnn", 300, 512);
        let mut s = Store::open(&dir).unwrap();
        let blob = s.put(ArtifactKind::Model, &id, b"weights-go-here").unwrap();
        let path = dir.join("blobs").join(format!("{blob:016x}.bin"));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match s.get(ArtifactKind::Model, &id) {
            Err(StoreError::Corrupt { artifact, .. }) => {
                assert!(artifact.contains("model"), "{artifact}");
                assert!(artifact.contains("seed=9"), "{artifact}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn re_put_replaces_a_corrupted_blob() {
        // Content addressing maps identical bytes to the same path, so the
        // re-put after a failed verify must overwrite, not dedup-skip.
        let dir = tmpdir("heal");
        let id = Identity::new(4, 80, "gin", 32, 48);
        let mut s = Store::open(&dir).unwrap();
        let blob = s.put(ArtifactKind::Dataset, &id, b"good-bytes").unwrap();
        let path = dir.join("blobs").join(format!("{blob:016x}.bin"));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            s.get(ArtifactKind::Dataset, &id),
            Err(StoreError::Corrupt { .. })
        ));
        s.put(ArtifactKind::Dataset, &id, b"good-bytes").unwrap();
        assert_eq!(s.get(ArtifactKind::Dataset, &id).unwrap(), b"good-bytes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_recovers_as_empty() {
        let dir = tmpdir("manifest");
        {
            let mut s = Store::open(&dir).unwrap();
            s.put(ArtifactKind::Model, &Identity::new(1, 1, "gin", 8, 8), b"x")
                .unwrap();
        }
        std::fs::write(dir.join("manifest.json"), b"{not json!").unwrap();
        let s = Store::open(&dir).unwrap();
        assert!(s.recovered.is_some());
        assert!(s.list().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deeply_nested_manifest_recovers_as_empty() {
        let dir = tmpdir("deep-manifest");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.json"), "[".repeat(300_000)).unwrap();
        let s = Store::open(&dir).unwrap();
        let note = s.recovered.as_deref().expect("a corrupt manifest");
        assert!(note.contains("nesting too deep"), "{note}");
        assert!(s.list().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A valid manifest with a plain entry and a round entry.
    fn valid_manifest() -> &'static str {
        static TEXT: OnceLock<String> = OnceLock::new();
        TEXT.get_or_init(|| {
            let dir = tmpdir("valid-manifest");
            let mut s = Store::open(&dir).unwrap();
            let id = Identity::new(7, 120, "gin", 32, 48);
            s.put(ArtifactKind::Model, &id, b"model").unwrap();
            s.put_round(&id, 3, b"ck").unwrap();
            let text = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            text
        })
    }

    #[test]
    fn oversized_dims_are_an_error_naming_the_field() {
        assert_eq!(parse_manifest(valid_manifest()).map(|e| e.len()), Ok(2));
        for (field, value) in [("word_dim", 32), ("sentence_dim", 48)] {
            let text = valid_manifest().replacen(
                &format!("\"{field}\":{value}"),
                &format!("\"{field}\":4294967328"),
                1,
            );
            let err = parse_manifest(&text).expect_err("a dim past u32");
            assert!(err.contains(field) && err.contains("4294967328"), "{err}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        // Arbitrary text, and a valid manifest with one span replaced by
        // arbitrary JSON-ish bytes, parse to `Ok` or `Err`, never a panic.
        #[test]
        fn parse_manifest_never_panics(
            text in ".{0,80}",
            at in 0usize..1024,
            cut in 0usize..24,
            patch in "[0-9a-z{}\\[\\]\":,. -]{0,8}",
        ) {
            let _ = parse_manifest(&text);
            let valid = valid_manifest();
            let at = at % (valid.len() + 1);
            let end = (at + cut).min(valid.len());
            let _ = parse_manifest(&format!("{}{patch}{}", &valid[..at], &valid[end..]));
        }
    }

    #[test]
    fn rounds_track_latest_and_roundtrip() {
        let dir = tmpdir("rounds");
        let id = Identity::new(5, 240, "fed", 32, 48);
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.latest_round(&id), None);
        s.put_round(&id, 1, b"ck-1").unwrap();
        s.put_round(&id, 3, b"ck-3").unwrap();
        s.put_round(&id, 2, b"ck-2").unwrap();
        assert_eq!(s.latest_round(&id), Some(3));
        assert_eq!(s.get_round(&id, 3).unwrap(), b"ck-3");
        assert_eq!(s.get_round(&id, 1).unwrap(), b"ck-1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_drops_broken_entries_and_orphan_blobs() {
        let dir = tmpdir("gc");
        let mut s = Store::open(&dir).unwrap();
        let keep = Identity::new(1, 1, "gin", 8, 8);
        let lose = Identity::new(2, 2, "gin", 8, 8);
        s.put(ArtifactKind::Model, &keep, b"keep-me").unwrap();
        let blob = s.put(ArtifactKind::Model, &lose, b"lose-me").unwrap();
        std::fs::remove_file(dir.join("blobs").join(format!("{blob:016x}.bin"))).unwrap();
        std::fs::write(dir.join("blobs").join("deadbeefdeadbeef.bin"), b"orphan").unwrap();
        let (dropped, deleted) = s.gc().unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(deleted, 1);
        assert_eq!(s.list().len(), 1);
        assert!(s.get(ArtifactKind::Model, &keep).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
