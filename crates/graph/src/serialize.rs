//! Binary codecs for corpus and dataset artifacts.
//!
//! These frames are what `fexiot-store` caches between CLI runs: a featurized
//! [`GraphDataset`] (rules, edges, labels, and embedded node features) and a
//! [`CorpusIndex`] (rules plus the precomputed correlation adjacency), so a
//! warm run skips both corpus generation and the NLP featurization pass
//! entirely. Same discipline as the model codec in `fexiot-gnn`: little-endian
//! via [`ByteWriter`]/[`ByteReader`], explicit magics, typed errors on corrupt
//! input, and enum tags indexed into the canonical `ALL` constants so the wire
//! format is stable as long as variant order is.

use crate::builder::CorpusIndex;
use crate::dataset::GraphDataset;
use crate::device::{Channel, Device, DeviceKind, Location};
use crate::graph::{GraphLabel, InteractionGraph, RuleNode};
use crate::rule::{Command, Platform, Rule, Trigger};
use crate::vuln::VulnKind;
use fexiot_tensor::codec::{ByteReader, ByteWriter, CodecError};

/// Magic for a serialized featurized dataset.
pub const DATASET_MAGIC: u64 = 0xFE_10_07_DA_7A_5E_02_00;
/// Magic for a serialized corpus index.
pub const CORPUS_MAGIC: u64 = 0xFE_10_07_C0_12_05_02_00;

/// Platform wire tag — shared with the model codec in `fexiot-gnn` so a model
/// and the dataset it was trained on agree on per-platform identities.
pub fn platform_tag(p: Platform) -> u8 {
    Platform::ALL.iter().position(|&x| x == p).expect("in ALL") as u8
}

pub fn platform_from_tag(tag: u8) -> Result<Platform, CodecError> {
    Platform::ALL
        .get(tag as usize)
        .copied()
        .ok_or(CodecError::BadTag(tag))
}

fn device_kind_tag(k: DeviceKind) -> u8 {
    if let Some(i) = DeviceKind::ACTUATORS.iter().position(|&x| x == k) {
        i as u8
    } else {
        let i = DeviceKind::SENSORS
            .iter()
            .position(|&x| x == k)
            .expect("in SENSORS");
        (DeviceKind::ACTUATORS.len() + i) as u8
    }
}

fn device_kind_from_tag(tag: u8) -> Result<DeviceKind, CodecError> {
    let t = tag as usize;
    let n_act = DeviceKind::ACTUATORS.len();
    if t < n_act {
        Ok(DeviceKind::ACTUATORS[t])
    } else {
        DeviceKind::SENSORS
            .get(t - n_act)
            .copied()
            .ok_or(CodecError::BadTag(tag))
    }
}

fn tag_of<T: Copy + PartialEq>(all: &[T], v: T) -> u8 {
    all.iter().position(|&x| x == v).expect("in ALL") as u8
}

fn from_tag<T: Copy>(all: &[T], tag: u8) -> Result<T, CodecError> {
    all.get(tag as usize)
        .copied()
        .ok_or(CodecError::BadTag(tag))
}

fn write_device(w: &mut ByteWriter, d: Device) {
    w.write_u8(device_kind_tag(d.kind));
    w.write_u8(tag_of(&Location::ALL, d.location));
}

fn read_device(r: &mut ByteReader) -> Result<Device, CodecError> {
    let kind = device_kind_from_tag(r.read_u8()?)?;
    let location = from_tag(&Location::ALL, r.read_u8()?)?;
    Ok(Device { kind, location })
}

fn write_trigger(w: &mut ByteWriter, t: &Trigger) {
    match t {
        Trigger::DeviceState { device, active } => {
            w.write_u8(0);
            write_device(w, *device);
            w.write_u8(u8::from(*active));
        }
        Trigger::ChannelLevel {
            channel,
            location,
            high,
        } => {
            w.write_u8(1);
            w.write_u8(tag_of(&Channel::ALL, *channel));
            w.write_u8(tag_of(&Location::ALL, *location));
            w.write_u8(u8::from(*high));
        }
        Trigger::Time { hour } => {
            w.write_u8(2);
            w.write_u8(*hour);
        }
        Trigger::Manual => w.write_u8(3),
    }
}

fn read_trigger(r: &mut ByteReader) -> Result<Trigger, CodecError> {
    match r.read_u8()? {
        0 => Ok(Trigger::DeviceState {
            device: read_device(r)?,
            active: r.read_u8()? != 0,
        }),
        1 => Ok(Trigger::ChannelLevel {
            channel: from_tag(&Channel::ALL, r.read_u8()?)?,
            location: from_tag(&Location::ALL, r.read_u8()?)?,
            high: r.read_u8()? != 0,
        }),
        2 => Ok(Trigger::Time { hour: r.read_u8()? }),
        3 => Ok(Trigger::Manual),
        t => Err(CodecError::BadTag(t)),
    }
}

fn write_rule(w: &mut ByteWriter, rule: &Rule) {
    w.write_u64(u64::from(rule.id));
    w.write_u8(platform_tag(rule.platform));
    write_trigger(w, &rule.trigger);
    w.write_usize(rule.actions.len());
    for c in &rule.actions {
        write_device(w, c.device);
        w.write_u8(u8::from(c.activate));
    }
    w.write_str(&rule.text);
}

fn read_rule(r: &mut ByteReader) -> Result<Rule, CodecError> {
    let id = r.read_u64()? as u32;
    let platform = platform_from_tag(r.read_u8()?)?;
    let trigger = read_trigger(r)?;
    let n = r.read_usize()?;
    if n > r.remaining() {
        return Err(CodecError::BadLength(n as u64));
    }
    let mut actions = Vec::with_capacity(n);
    for _ in 0..n {
        let device = read_device(r)?;
        let activate = r.read_u8()? != 0;
        actions.push(Command { device, activate });
    }
    let text = r.read_str()?;
    Ok(Rule {
        id,
        platform,
        trigger,
        actions,
        text,
    })
}

fn write_graph(w: &mut ByteWriter, g: &InteractionGraph) {
    w.write_usize(g.nodes.len());
    for node in &g.nodes {
        write_rule(w, &node.rule);
        w.write_f64_slice(&node.features);
    }
    w.write_usize(g.edges.len());
    for &(a, b) in &g.edges {
        w.write_usize(a);
        w.write_usize(b);
    }
    match &g.label {
        None => w.write_u8(0),
        Some(l) => {
            w.write_u8(1);
            w.write_u8(u8::from(l.vulnerable));
            w.write_usize(l.kinds.len());
            for &k in &l.kinds {
                w.write_u8(tag_of(&VulnKind::ALL, k));
            }
        }
    }
}

fn read_graph(r: &mut ByteReader) -> Result<InteractionGraph, CodecError> {
    let n = r.read_usize()?;
    if n > r.remaining() {
        return Err(CodecError::BadLength(n as u64));
    }
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let rule = read_rule(r)?;
        let features = r.read_f64_vec()?;
        nodes.push(RuleNode { rule, features });
    }
    let e = r.read_usize()?;
    if e.saturating_mul(16) > r.remaining() {
        return Err(CodecError::BadLength(e as u64));
    }
    let mut edges = Vec::with_capacity(e);
    for _ in 0..e {
        let a = r.read_usize()?;
        let b = r.read_usize()?;
        if a >= n || b >= n {
            return Err(CodecError::BadLength(a.max(b) as u64));
        }
        edges.push((a, b));
    }
    let label = match r.read_u8()? {
        0 => None,
        1 => {
            let vulnerable = r.read_u8()? != 0;
            let k = r.read_usize()?;
            if k > r.remaining() {
                return Err(CodecError::BadLength(k as u64));
            }
            let mut kinds = Vec::with_capacity(k);
            for _ in 0..k {
                kinds.push(from_tag(&VulnKind::ALL, r.read_u8()?)?);
            }
            Some(GraphLabel { vulnerable, kinds })
        }
        t => return Err(CodecError::BadTag(t)),
    };
    let mut graph = InteractionGraph::new(nodes, edges);
    graph.label = label;
    Ok(graph)
}

/// Serializes a featurized dataset (graphs with embedded node features).
pub fn dataset_to_bytes(ds: &GraphDataset) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.write_u64(DATASET_MAGIC);
    w.write_usize(ds.graphs.len());
    for g in &ds.graphs {
        write_graph(&mut w, g);
    }
    w.into_bytes()
}

pub fn dataset_from_bytes(bytes: &[u8]) -> Result<GraphDataset, CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.read_u64()? != DATASET_MAGIC {
        return Err(CodecError::BadHeader);
    }
    let n = r.read_usize()?;
    if n > r.remaining() {
        return Err(CodecError::BadLength(n as u64));
    }
    let graphs: Result<Vec<_>, _> = (0..n).map(|_| read_graph(&mut r)).collect();
    Ok(GraphDataset { graphs: graphs? })
}

fn write_adjacency(w: &mut ByteWriter, adj: &[Vec<usize>]) {
    w.write_usize(adj.len());
    for list in adj {
        w.write_usize(list.len());
        for &x in list {
            w.write_usize(x);
        }
    }
}

fn read_adjacency(r: &mut ByteReader, n: usize) -> Result<Vec<Vec<usize>>, CodecError> {
    let rows = r.read_usize()?;
    if rows != n {
        return Err(CodecError::BadLength(rows as u64));
    }
    let mut adj = Vec::with_capacity(rows);
    for _ in 0..rows {
        let len = r.read_usize()?;
        if len.saturating_mul(8) > r.remaining() {
            return Err(CodecError::BadLength(len as u64));
        }
        let mut list = Vec::with_capacity(len);
        for _ in 0..len {
            let x = r.read_usize()?;
            if x >= n {
                return Err(CodecError::BadLength(x as u64));
            }
            list.push(x);
        }
        adj.push(list);
    }
    Ok(adj)
}

/// Serializes a corpus index with its precomputed correlation adjacency, so a
/// warm load skips the O(n²) `can_trigger` rebuild as well as generation.
pub fn corpus_index_to_bytes(index: &CorpusIndex) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.write_u64(CORPUS_MAGIC);
    w.write_usize(index.rules.len());
    for rule in &index.rules {
        write_rule(&mut w, rule);
    }
    write_adjacency(&mut w, &index.forward);
    write_adjacency(&mut w, &index.backward);
    w.into_bytes()
}

pub fn corpus_index_from_bytes(bytes: &[u8]) -> Result<CorpusIndex, CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.read_u64()? != CORPUS_MAGIC {
        return Err(CodecError::BadHeader);
    }
    let n = r.read_usize()?;
    if n > r.remaining() {
        return Err(CodecError::BadLength(n as u64));
    }
    let rules: Result<Vec<_>, _> = (0..n).map(|_| read_rule(&mut r)).collect();
    let rules = rules?;
    let forward = read_adjacency(&mut r, rules.len())?;
    let backward = read_adjacency(&mut r, rules.len())?;
    Ok(CorpusIndex {
        rules,
        forward,
        backward,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusConfig, CorpusGenerator};
    use crate::dataset::{generate_dataset, DatasetConfig};
    use fexiot_tensor::rng::Rng;

    #[test]
    fn enum_tags_roundtrip_every_variant() {
        for p in Platform::ALL {
            assert_eq!(platform_from_tag(platform_tag(p)).unwrap(), p);
        }
        for k in DeviceKind::ACTUATORS.iter().chain(&DeviceKind::SENSORS) {
            assert_eq!(device_kind_from_tag(device_kind_tag(*k)).unwrap(), *k);
        }
        assert!(platform_from_tag(99).is_err());
        assert!(device_kind_from_tag(200).is_err());
    }

    #[test]
    fn dataset_roundtrips_bit_exactly() {
        let mut rng = Rng::seed_from_u64(11);
        let ds = generate_dataset(&DatasetConfig::small_hetero(), &mut rng);
        let bytes = dataset_to_bytes(&ds);
        let back = dataset_from_bytes(&bytes).unwrap();
        assert_eq!(ds.graphs.len(), back.graphs.len());
        for (a, b) in ds.graphs.iter().zip(&back.graphs) {
            assert_eq!(a, b);
        }
        // Re-encoding is byte-stable.
        assert_eq!(bytes, dataset_to_bytes(&back));
    }

    #[test]
    fn corpus_index_roundtrips_with_adjacency() {
        let mut rng = Rng::seed_from_u64(12);
        let mut gen = CorpusGenerator::new();
        let rules = gen.generate(&CorpusConfig::small(), &mut rng);
        let index = CorpusIndex::build(rules);
        let bytes = corpus_index_to_bytes(&index);
        let back = corpus_index_from_bytes(&bytes).unwrap();
        assert_eq!(index.rules, back.rules);
        assert_eq!(index.forward, back.forward);
        assert_eq!(index.backward, back.backward);
    }

    #[test]
    fn truncation_and_wrong_magic_error_cleanly() {
        let mut rng = Rng::seed_from_u64(13);
        let ds = generate_dataset(&DatasetConfig::small_ifttt(), &mut rng);
        let bytes = dataset_to_bytes(&ds);
        for cut in [0, 7, 8, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(dataset_from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xff;
        assert!(matches!(
            dataset_from_bytes(&wrong),
            Err(CodecError::BadHeader)
        ));
    }
}
