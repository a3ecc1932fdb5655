//! Incremental online-graph maintenance.
//!
//! [`fexiot_graph::online::fuse_online`] rebuilds a home's online graph by
//! rescanning the *entire* event log (O(log²) for the consistency and
//! completion features). A long-running service cannot afford that per
//! event, so [`HomeMaintainer`] keeps the fusion state resident — last-known
//! device/channel states, per-device event counts, resolved
//! consistency/completion tallies, and the still-open completion windows —
//! and updates the graph's runtime feature block in place in O(nodes) per
//! timestamp.
//!
//! **Revision.** The maintained graph lives in a shared copy-on-write
//! snapshot ([`HomeMaintainer::snapshot`]) tagged with a revision
//! ([`HomeMaintainer::revision`]) that moves exactly when a feature bit
//! changes. Equal revisions therefore mean bit-identical graphs, which is
//! what lets the service score each home state once.
//!
//! **Parity contract**: after every event has been applied and
//! [`HomeMaintainer::finalize`] called, the maintained graph is *exactly*
//! equal (bitwise, per feature) to `fuse_online(offline, full_log)`. This is
//! locked by a test below. Three details make it exact:
//!
//! * Events sharing a timestamp are buffered and applied as one group,
//!   because the batch features read the log *through* a timestamp: a
//!   transition at time `t` sees the state written by later same-`t` log
//!   entries.
//! * `latest`/`chan_latest` are overwritten in log order, matching the
//!   batch's `max_by_key` tie-breaking (last maximal entry wins).
//! * Completion checks stay pending until satisfied, expired by the
//!   [`EXPLAIN_WINDOW`], or finalized at end-of-stream — mirroring the
//!   batch's "already in state or transitioned within the window" rule.
//!
//! Mid-stream, consistency/completion ratios cover the resolved prefix only
//! (open windows are not yet counted) — a deterministic, causally-sound
//! approximation of the batch value over the same prefix.

use std::collections::BTreeMap;
use std::sync::Arc;

use fexiot_graph::events::CleanEvent;
use fexiot_graph::online::EXPLAIN_WINDOW;
use fexiot_graph::rule::Trigger;
use fexiot_graph::{Device, InteractionGraph, Rule, RUNTIME_FEATURE_DIMS};

/// An open trigger-completion window: the rule's trigger fired at `opened`
/// and we are waiting for `device` to transition to `activate`.
#[derive(Debug, Clone)]
struct Pending {
    node: usize,
    device: Device,
    activate: bool,
    opened: u64,
}

/// Resident fusion state for one home. See the module docs for the parity
/// contract with the batch fuser.
#[derive(Debug, Clone)]
pub struct HomeMaintainer {
    /// The maintained graph, shared with queued detect jobs; a write copies
    /// it only while such a job still holds the old snapshot.
    online: Arc<InteractionGraph>,
    /// Moves exactly when a feature bit of `online` changes. Invariant: the
    /// maintainer edits nothing but the runtime feature block, and only
    /// through `refresh_features`; any future edit to edges or rules must
    /// also bump the revision.
    revision: u64,
    rules: Vec<Rule>,
    /// Primary device per node (first action device, else trigger device).
    primary: Vec<Option<Device>>,
    /// Offline values of the `[status, sin, cos]` slots, restored while the
    /// node's device has no events yet (the batch fuser leaves them alone).
    offline_status: Vec<[f64; 3]>,
    /// Last-known `(time, active)` per device, overwritten in log order.
    latest: BTreeMap<Device, (u64, bool)>,
    /// Last-known sensed level per `(channel, location)`.
    chan_latest: BTreeMap<(fexiot_graph::Channel, fexiot_graph::Location), (u64, bool)>,
    per_device_count: BTreeMap<Device, u64>,
    /// Per-node `(explained, total)` actuator-transition tallies.
    consistency: Vec<(u64, u64)>,
    /// Per-node `(satisfied, checks)` over *resolved* completion windows.
    completion: Vec<(u64, u64)>,
    pending: Vec<Pending>,
    /// Same-timestamp buffer; flushed when time advances.
    group: Vec<CleanEvent>,
    group_time: Option<u64>,
    events_applied: u64,
}

impl HomeMaintainer {
    pub fn new(offline: &InteractionGraph) -> Self {
        let rules: Vec<Rule> = offline.nodes.iter().map(|n| n.rule.clone()).collect();
        let primary = rules
            .iter()
            .map(|r| {
                r.actions.first().map(|c| c.device).or(match r.trigger {
                    Trigger::DeviceState { device, .. } => Some(device),
                    _ => None,
                })
            })
            .collect();
        let offline_status = offline
            .nodes
            .iter()
            .map(|n| {
                let block = n.features.len() - RUNTIME_FEATURE_DIMS;
                [
                    n.features[block],
                    n.features[block + 1],
                    n.features[block + 2],
                ]
            })
            .collect();
        let n = offline.nodes.len();
        let mut m = Self {
            online: Arc::new(offline.clone()),
            revision: 0,
            rules,
            primary,
            offline_status,
            latest: BTreeMap::new(),
            chan_latest: BTreeMap::new(),
            per_device_count: BTreeMap::new(),
            consistency: vec![(0, 0); n],
            completion: vec![(0, 0); n],
            pending: Vec::new(),
            group: Vec::new(),
            group_time: None,
            events_applied: 0,
        };
        // An empty log still fuses: ratios default to 1.0, online flag set.
        m.refresh_features();
        m
    }

    /// The maintained online graph (runtime block current through the last
    /// *complete* timestamp group).
    pub fn graph(&self) -> &InteractionGraph {
        &self.online
    }

    /// The maintained graph as a shared snapshot: later updates copy it
    /// rather than change what the snapshot's holders see.
    pub fn snapshot(&self) -> Arc<InteractionGraph> {
        Arc::clone(&self.online)
    }

    /// The graph's revision: equal revisions of one maintainer mean a
    /// bit-identical graph.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Applies one event. Events must arrive in non-decreasing time order
    /// (the wire and replay sources guarantee this).
    pub fn apply(&mut self, ev: CleanEvent) {
        debug_assert!(
            self.group_time.is_none_or(|t| ev.time >= t),
            "events must be time-ordered"
        );
        if self.group_time != Some(ev.time) {
            self.flush_group();
            self.refresh_features();
            self.group_time = Some(ev.time);
        }
        self.group.push(ev);
        self.events_applied += 1;
    }

    /// Flushes the buffered group and resolves every still-open completion
    /// window (end-of-stream: no transition can arrive any more). After this
    /// the graph equals `fuse_online(offline, full_log)` exactly.
    pub fn finalize(&mut self) {
        self.flush_group();
        self.group_time = None;
        for p in std::mem::take(&mut self.pending) {
            self.completion[p.node].1 += 1;
        }
        self.refresh_features();
    }

    /// Fuses the buffered group into the resident state; the caller then
    /// rewrites the runtime feature blocks (O(nodes)) once.
    fn flush_group(&mut self) {
        let Some(t) = self.group_time else { return };
        let group = std::mem::take(&mut self.group);

        // 1. Expire windows that this group's time has moved past: a
        //    transition at `t` only satisfies windows with `t <= opened + W`.
        let completion = &mut self.completion;
        self.pending.retain(|p| {
            if p.opened + EXPLAIN_WINDOW < t {
                completion[p.node].1 += 1;
                false
            } else {
                true
            }
        });

        // 2. Apply the whole group to the state maps first: batch features
        //    at time `t` see every log entry with time <= t, including
        //    same-`t` entries later in the log.
        for e in &group {
            self.latest.insert(e.device, (t, e.active));
            if let Some(c) = e.device.kind.sense_channel() {
                self.chan_latest.insert((c, e.device.location), (t, e.active));
            }
            *self.per_device_count.entry(e.device).or_insert(0) += 1;
        }

        // 3a. Transitions in this group may close windows opened at earlier
        //     times (strictly earlier: a window opened at `t` needs a
        //     transition *after* `t`).
        for e in &group {
            let completion = &mut self.completion;
            self.pending.retain(|p| {
                if p.device == e.device && p.activate == e.active && p.opened < t {
                    completion[p.node].0 += 1;
                    completion[p.node].1 += 1;
                    false
                } else {
                    true
                }
            });
        }

        // 3b. Consistency: every actuator transition of a node's action
        //     devices is explained iff some rule commands that exact state
        //     and its trigger is observable at `t`.
        for e in &group {
            if e.device.kind.is_sensor() {
                continue;
            }
            let explained = self.rules.iter().any(|r| {
                r.actions
                    .iter()
                    .any(|c| c.device == e.device && c.activate == e.active)
                    && self.trigger_observable(r)
            });
            for (i, rule) in self.rules.iter().enumerate() {
                if rule.actions.iter().any(|c| c.device == e.device) {
                    self.consistency[i].1 += 1;
                    if explained {
                        self.consistency[i].0 += 1;
                    }
                }
            }
        }

        // 3c. Trigger instants open one completion window per command; a
        //     device already in the commanded state resolves immediately.
        for e in &group {
            for (i, rule) in self.rules.iter().enumerate() {
                if !trigger_event_matches(rule, e) {
                    continue;
                }
                for cmd in &rule.actions {
                    let already =
                        self.latest.get(&cmd.device).map(|&(_, a)| a) == Some(cmd.activate);
                    if already {
                        self.completion[i].0 += 1;
                        self.completion[i].1 += 1;
                    } else {
                        self.pending.push(Pending {
                            node: i,
                            device: cmd.device,
                            activate: cmd.activate,
                            opened: t,
                        });
                    }
                }
            }
        }
    }

    /// Is `rule`'s trigger satisfied by the current last-known state? The
    /// incremental mirror of the batch `trigger_observable_before`.
    fn trigger_observable(&self, rule: &Rule) -> bool {
        match rule.trigger {
            Trigger::DeviceState { device, active } => self
                .latest
                .get(&device)
                // Devices start inactive: no record yet means "off".
                .map_or(!active, |&(_, a)| a == active),
            Trigger::ChannelLevel {
                channel,
                location,
                high,
            } => self
                .chan_latest
                .get(&(channel, location))
                .is_some_and(|&(_, a)| a == high),
            Trigger::Time { .. } | Trigger::Manual => true,
        }
    }

    /// Recomputes every node's runtime block and writes the blocks whose
    /// bits changed, bumping the revision if any did. Bitwise comparison
    /// keeps `-0.0`/`0.0` and NaN payloads exact.
    fn refresh_features(&mut self) {
        let mut changed = false;
        for i in 0..self.online.nodes.len() {
            let fresh = self.runtime_block(i);
            let dims = self.online.nodes[i].features.len();
            debug_assert!(dims >= RUNTIME_FEATURE_DIMS);
            let block = dims - RUNTIME_FEATURE_DIMS;
            let same = self.online.nodes[i].features[block..]
                .iter()
                .zip(&fresh)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                Arc::make_mut(&mut self.online).nodes[i].features[block..].copy_from_slice(&fresh);
                changed = true;
            }
        }
        if changed {
            self.revision += 1;
        }
    }

    /// Node `i`'s runtime feature block as the batch fuser would write it.
    fn runtime_block(&self, i: usize) -> [f64; RUNTIME_FEATURE_DIMS] {
        let mut event_count = 0u64;
        let mut status = self.offline_status[i];
        if let Some(d) = self.primary[i] {
            if let Some(&(t, active)) = self.latest.get(&d) {
                let phase = (t % 86_400) as f64 / 86_400.0 * std::f64::consts::TAU;
                status = [if active { 1.0 } else { -1.0 }, phase.sin(), phase.cos()];
            }
            event_count = self.per_device_count.get(&d).copied().unwrap_or(0);
        }
        let (exp, tot) = self.consistency[i];
        let (sat, checks) = self.completion[i];
        [
            status[0],
            status[1],
            status[2],
            if tot == 0 {
                1.0
            } else {
                exp as f64 / tot as f64
            },
            if checks == 0 {
                1.0
            } else {
                sat as f64 / checks as f64
            },
            (1.0 + event_count as f64).ln() / 5.0,
            1.0, // online flag
        ]
    }
}

/// Does this single event satisfy the rule's trigger predicate? (Mirror of
/// the batch fuser's private helper.)
fn trigger_event_matches(rule: &Rule, e: &CleanEvent) -> bool {
    match rule.trigger {
        Trigger::DeviceState { device, active } => e.device == device && e.active == active,
        Trigger::ChannelLevel {
            channel,
            location,
            high,
        } => {
            e.device.location == location
                && e.device.kind.sense_channel() == Some(channel)
                && e.active == high
        }
        Trigger::Time { .. } | Trigger::Manual => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fexiot_graph::events::{clean_log, HomeSimulator, SimConfig};
    use fexiot_graph::online::fuse_online;
    use fexiot_graph::{
        CorpusConfig, CorpusGenerator, CorpusIndex, FeatureConfig, GraphBuilder,
    };
    use fexiot_tensor::rng::Rng;

    fn home(seed: u64) -> (InteractionGraph, Vec<CleanEvent>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut gen = CorpusGenerator::new();
        let rules = gen.generate(&CorpusConfig::small(), &mut rng);
        let index = CorpusIndex::build(rules);
        let builder = GraphBuilder::new(FeatureConfig::small());
        let graph = builder.sample_graph(&index, 6, &mut rng);
        let node_rules: Vec<_> = graph.nodes.iter().map(|n| n.rule.clone()).collect();
        let mut sim = HomeSimulator::new(node_rules);
        let raw = sim.run(&SimConfig::short(), &mut rng);
        (graph, clean_log(&raw))
    }

    fn assert_graphs_equal(a: &InteractionGraph, b: &InteractionGraph, ctx: &str) {
        assert_eq!(a.edges, b.edges, "{ctx}: edges diverged");
        for (i, (na, nb)) in a.nodes.iter().zip(&b.nodes).enumerate() {
            for (j, (fa, fb)) in na.features.iter().zip(&nb.features).enumerate() {
                assert!(
                    fa.to_bits() == fb.to_bits(),
                    "{ctx}: node {i} feature {j}: {fa} != {fb}"
                );
            }
        }
    }

    #[test]
    fn incremental_fusion_matches_batch_exactly() {
        for seed in [1u64, 2, 3, 11, 42] {
            let (offline, log) = home(seed);
            assert!(!log.is_empty());
            let batch = fuse_online(&offline, &log);
            let mut m = HomeMaintainer::new(&offline);
            for e in &log {
                m.apply(e.clone());
            }
            m.finalize();
            assert_graphs_equal(m.graph(), &batch, &format!("seed {seed}"));
        }
    }

    fn same_bits(a: &InteractionGraph, b: &InteractionGraph) -> bool {
        a.nodes.iter().zip(&b.nodes).all(|(na, nb)| {
            na.features
                .iter()
                .zip(&nb.features)
                .all(|(fa, fb)| fa.to_bits() == fb.to_bits())
        })
    }

    #[test]
    fn revision_moves_exactly_when_the_graph_changes() {
        for seed in [1u64, 2, 3, 11, 42] {
            let (offline, log) = home(seed);
            let mut m = HomeMaintainer::new(&offline);
            let mut moves = 0;
            for (i, e) in log.iter().enumerate() {
                // The snapshot taken before the update must not see it.
                let (before, revision) = (m.snapshot(), m.revision());
                m.apply(e.clone());
                let changed = !same_bits(&before, m.graph());
                assert_eq!(m.revision() != revision, changed, "seed {seed}, event {i}");
                moves += usize::from(changed);
            }
            let (before, revision) = (m.snapshot(), m.revision());
            m.finalize();
            let changed = !same_bits(&before, m.graph());
            assert_eq!(m.revision() != revision, changed, "seed {seed}, finalize");
            assert!(
                moves < log.len(),
                "seed {seed}: every event moved the graph"
            );
        }
    }

    #[test]
    fn empty_log_matches_batch() {
        let (offline, _) = home(5);
        let batch = fuse_online(&offline, &[]);
        let mut m = HomeMaintainer::new(&offline);
        m.finalize();
        assert_graphs_equal(m.graph(), &batch, "empty log");
    }

    #[test]
    fn mid_stream_features_stay_in_range() {
        let (offline, log) = home(9);
        let mut m = HomeMaintainer::new(&offline);
        for e in &log {
            m.apply(e.clone());
            for node in &m.graph().nodes {
                let d = node.features.len();
                let block = d - RUNTIME_FEATURE_DIMS;
                assert!((0.0..=1.0).contains(&node.features[block + 3]));
                assert!((0.0..=1.0).contains(&node.features[block + 4]));
                assert_eq!(node.features[block + 6], 1.0);
            }
        }
    }

    #[test]
    fn finalize_is_idempotent() {
        let (offline, log) = home(4);
        let mut m = HomeMaintainer::new(&offline);
        for e in &log {
            m.apply(e.clone());
        }
        m.finalize();
        let first = m.graph().clone();
        m.finalize();
        assert_graphs_equal(m.graph(), &first, "second finalize");
    }
}
