//! Online interaction graphs: fusing cleaned event logs with offline graphs
//! (paper §III-A3). The offline graph carries the "trigger-action" logic; the
//! event log contributes real-time device status, timing, and — crucially —
//! *trigger consistency*: whether each rule's observed device transitions are
//! explained by its trigger having fired shortly before. Log-tampering
//! attacks (fake/stealthy commands, command failures, event losses) break
//! this consistency, which is the signal the detection GNN uses for external
//! vulnerabilities.
//!
//! There is one fusion. [`HomeMaintainer`] keeps a home's fusion state
//! resident — last-known device and channel states, per-device event
//! counts, resolved consistency/completion tallies and the still-open
//! completion windows — and rewrites the graph's runtime block in
//! O(nodes) per timestamp; [`fuse_online`] is its fold over a whole log.
//! Its rules:
//!
//! * **One group per timestamp.** Events sharing a time are buffered and
//!   applied as one group once time moves on, so every feature at time `t`
//!   reads the log *through* `t`: a transition at `t` sees the state
//!   written by later same-`t` entries.
//! * **Log-order overwrites.** Last-known device and channel states are
//!   overwritten in log order, so the last entry of a timestamp wins.
//! * **Pending windows.** Each trigger instant opens one completion check
//!   per command. A device already in the commanded state satisfies it at
//!   once; otherwise it stays pending until a later transition into that
//!   state satisfies it, time moves past [`EXPLAIN_WINDOW`], or
//!   [`HomeMaintainer::finalize`] ends the log and fails it.
//! * **Mid-stream ratios.** Before `finalize`, the consistency and
//!   completion ratios cover the resolved prefix only: open windows are not
//!   counted yet.
//! * **Revision.** The graph lives in a shared copy-on-write snapshot
//!   tagged with a revision that moves exactly when a feature bit changes,
//!   so equal revisions of one maintainer mean bit-identical graphs.

use crate::builder::{runtime_slot as slot, RUNTIME_FEATURE_DIMS};
use crate::device::{Channel, Device, Location};
use crate::events::CleanEvent;
use crate::graph::{GraphLabel, InteractionGraph};
use crate::rule::{Rule, Trigger};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Seconds within which a trigger observation "explains" a subsequent
/// action (fusion window for the consistency/completion features).
pub const EXPLAIN_WINDOW: u64 = 120;

/// Fuses a cleaned event log into an offline graph, producing the online
/// graph: the [`HomeMaintainer`] fold over the log, stable-sorted by time
/// first if it is not already. Per-node runtime block:
/// `[status, sin(t), cos(t), trigger_consistency, trigger_completion,
///   event_rate, 1.0]`.
pub fn fuse_online(offline: &InteractionGraph, log: &[CleanEvent]) -> InteractionGraph {
    let sorted: Vec<CleanEvent>;
    let log = if log.is_sorted_by_key(|e| e.time) {
        log
    } else {
        let mut copy = log.to_vec();
        copy.sort_by_key(|e| e.time);
        sorted = copy;
        &sorted
    };
    let mut m = HomeMaintainer::new(offline);
    for e in log {
        m.apply(e.clone());
    }
    m.finalize();
    Arc::unwrap_or_clone(m.online)
}

/// An open trigger-completion window: the rule's trigger fired at `opened`
/// and we are waiting for `device` to transition to `activate`.
#[derive(Debug, Clone)]
struct Pending {
    node: usize,
    device: Device,
    activate: bool,
    opened: u64,
}

/// Resident fusion state for one home. See the module docs for its rules.
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
    /// Offline values of the `[status, sin, cos]` slots, kept while the
    /// node's device has no events yet.
    offline_status: Vec<[f64; 3]>,
    /// Last-known `(time, active)` per device, overwritten in log order.
    latest: BTreeMap<Device, (u64, bool)>,
    /// Last-known sensed level per `(channel, location)`.
    chan_latest: BTreeMap<(Channel, Location), (u64, bool)>,
    per_device_count: BTreeMap<Device, u64>,
    /// Per-node `(explained, total)` actuator-transition tallies.
    consistency: Vec<(u64, u64)>,
    /// Per-node `(satisfied, checks)` over *resolved* completion windows.
    completion: Vec<(u64, u64)>,
    pending: Vec<Pending>,
    /// Same-timestamp buffer; flushed when time advances.
    group: Vec<CleanEvent>,
    group_time: Option<u64>,
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
                let dims = n.features.len();
                assert!(
                    dims >= RUNTIME_FEATURE_DIMS,
                    "node features missing runtime block"
                );
                let block = dims - RUNTIME_FEATURE_DIMS;
                [
                    n.features[block + slot::STATUS],
                    n.features[block + slot::SIN],
                    n.features[block + slot::COS],
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

    /// Applies one event. Events must arrive in non-decreasing time order
    /// (the wire and replay sources guarantee this; [`fuse_online`] sorts).
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
    }

    /// Flushes the buffered group and fails every still-open completion
    /// window: at the end of the log no transition can arrive any more.
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

        // 2. Apply the whole group to the state maps first: features at
        //    time `t` see every log entry with time <= t, including same-`t`
        //    entries later in the log.
        for e in &group {
            self.latest.insert(e.device, (t, e.active));
            if let Some(c) = e.device.kind.sense_channel() {
                self.chan_latest
                    .insert((c, e.device.location), (t, e.active));
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

    /// Is `rule`'s trigger satisfied by the last-known state? Triggers are
    /// level-based (a rule fires while the light *is* on), so this reads the
    /// most recent record, not only recent transitions.
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
            // Manual/time triggers leave no log trace; treat as explained.
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
            let block = self.online.nodes[i].features.len() - RUNTIME_FEATURE_DIMS;
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

    /// Node `i`'s runtime feature block from the resident state.
    fn runtime_block(&self, i: usize) -> [f64; RUNTIME_FEATURE_DIMS] {
        let mut block = [0.0; RUNTIME_FEATURE_DIMS];
        [block[slot::STATUS], block[slot::SIN], block[slot::COS]] = self.offline_status[i];
        let mut event_count = 0u64;
        if let Some(d) = self.primary[i] {
            if let Some(&(t, active)) = self.latest.get(&d) {
                let phase = (t % 86_400) as f64 / 86_400.0 * std::f64::consts::TAU;
                block[slot::STATUS] = if active { 1.0 } else { -1.0 };
                block[slot::SIN] = phase.sin();
                block[slot::COS] = phase.cos();
            }
            event_count = self.per_device_count.get(&d).copied().unwrap_or(0);
        }
        block[slot::CONSISTENCY] = ratio(self.consistency[i]);
        block[slot::COMPLETION] = ratio(self.completion[i]);
        block[slot::EVENT_RATE] = (1.0 + event_count as f64).ln() / 5.0;
        block[slot::ONLINE_FLAG] = 1.0;
        block
    }
}

/// `hits / total`, or 1.0 while nothing has been counted.
fn ratio((hits, total): (u64, u64)) -> f64 {
    if total == 0 {
        1.0
    } else {
        hits as f64 / total as f64
    }
}

/// Does this single event satisfy the rule's trigger predicate?
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

/// Marks a graph as carrying an external (attack-induced) vulnerability.
/// External vulnerabilities are outside the six internal classes, so the
/// label is vulnerable with no internal kind attached.
pub fn mark_external_vulnerable(graph: &mut InteractionGraph) {
    let kinds = graph
        .label
        .as_ref()
        .map(|l| l.kinds.clone())
        .unwrap_or_default();
    graph.label = Some(GraphLabel {
        vulnerable: true,
        kinds,
    });
}

/// The batch fuser that rescans the whole log per feature (O(log²)), kept
/// verbatim as the parity tests' oracle.
#[cfg(test)]
mod oracle {
    use super::{trigger_event_matches, EXPLAIN_WINDOW};
    use crate::builder::RUNTIME_FEATURE_DIMS;
    use crate::device::Device;
    use crate::events::CleanEvent;
    use crate::graph::InteractionGraph;
    use crate::rule::Trigger;
    use std::collections::BTreeMap;

    /// Fuses a cleaned event log into an offline graph, producing the online
    /// graph. Per-node runtime block:
    /// `[status, sin(t), cos(t), trigger_consistency, event_rate, 1.0]`.
    pub fn fuse_online(offline: &InteractionGraph, log: &[CleanEvent]) -> InteractionGraph {
        // Latest status and full event history per device.
        let mut latest: BTreeMap<Device, (u64, bool)> = BTreeMap::new();
        let mut per_device: BTreeMap<Device, Vec<&CleanEvent>> = BTreeMap::new();
        for e in log {
            let entry = latest.entry(e.device).or_insert((e.time, e.active));
            if e.time >= entry.0 {
                *entry = (e.time, e.active);
            }
            per_device.entry(e.device).or_default().push(e);
        }

        let all_rules: Vec<crate::rule::Rule> =
            offline.nodes.iter().map(|n| n.rule.clone()).collect();
        let consistency: Vec<f64> = offline
            .nodes
            .iter()
            .map(|n| device_consistency(&n.rule, &all_rules, log))
            .collect();

        let mut online = offline.clone();
        for (i, node) in online.nodes.iter_mut().enumerate() {
            let dims = node.features.len();
            assert!(
                dims >= RUNTIME_FEATURE_DIMS,
                "node features missing runtime block"
            );
            let block = dims - RUNTIME_FEATURE_DIMS;

            // Primary action device; fall back to the trigger device.
            let device = node
                .rule
                .actions
                .first()
                .map(|c| c.device)
                .or(match node.rule.trigger {
                    Trigger::DeviceState { device, .. } => Some(device),
                    _ => None,
                });
            let mut event_count = 0usize;
            if let Some(d) = device {
                if let Some(&(t, active)) = latest.get(&d) {
                    let phase = (t % 86_400) as f64 / 86_400.0 * std::f64::consts::TAU;
                    node.features[block] = if active { 1.0 } else { -1.0 };
                    node.features[block + 1] = phase.sin();
                    node.features[block + 2] = phase.cos();
                }
                event_count = per_device.get(&d).map_or(0, |v| v.len());
            }
            node.features[block + 3] = consistency[i];
            node.features[block + 4] = trigger_completion(&node.rule, log);
            node.features[block + 5] = (1.0 + event_count as f64).ln() / 5.0;
            node.features[block + 6] = 1.0; // online flag
        }
        online
    }

    /// Fraction of the rule's action-device transitions that are explained by
    /// *some* rule in the home: a transition of device `d` to state `s` is
    /// legitimate if any deployed rule commands `(d, s)` and that rule's trigger
    /// was observable within [`EXPLAIN_WINDOW`] beforehand. Unexplained
    /// transitions are the signature of fake/stealthy commands. Returns 1.0 when
    /// the rule's devices never transition.
    pub fn device_consistency(
        rule: &crate::rule::Rule,
        all_rules: &[crate::rule::Rule],
        log: &[CleanEvent],
    ) -> f64 {
        let action_devices: Vec<Device> = rule.actions.iter().map(|c| c.device).collect();
        if action_devices.is_empty() {
            return 1.0;
        }
        let mut total = 0usize;
        let mut explained = 0usize;
        for e in log {
            if e.device.kind.is_sensor() || !action_devices.contains(&e.device) {
                continue;
            }
            total += 1;
            let ok = all_rules.iter().any(|r| {
                r.actions
                    .iter()
                    .any(|c| c.device == e.device && c.activate == e.active)
                    && trigger_observable_before(r, log, e.time)
            });
            if ok {
                explained += 1;
            }
        }
        if total == 0 {
            1.0
        } else {
            explained as f64 / total as f64
        }
    }

    /// Trigger-to-action completion: each time the rule's trigger becomes
    /// observable in the log, did every commanded device reach its commanded
    /// state within [`EXPLAIN_WINDOW`]? Fake sensor events, stealthy commands,
    /// and command failures all lower this. Returns 1.0 when the trigger is
    /// never observed (including manual/time triggers).
    pub fn trigger_completion(rule: &crate::rule::Rule, log: &[CleanEvent]) -> f64 {
        if rule.actions.is_empty() {
            return 1.0;
        }
        // Trigger-satisfaction instants.
        let instants: Vec<u64> = log
            .iter()
            .filter(|e| trigger_event_matches(rule, e))
            .map(|e| e.time)
            .collect();
        if instants.is_empty() {
            return 1.0;
        }
        // State of a device as of time `t` (last record at or before t).
        let state_at = |device: Device, t: u64| -> Option<bool> {
            log.iter()
                .filter(|e| e.device == device && e.time <= t)
                .max_by_key(|e| e.time)
                .map(|e| e.active)
        };
        let mut checks = 0usize;
        let mut satisfied = 0usize;
        for &t in &instants {
            for cmd in &rule.actions {
                checks += 1;
                // Completed if the device was already in the commanded state at
                // trigger time, or transitioned into it at any point within the
                // window (later rules may legitimately flip it again).
                let already = state_at(cmd.device, t) == Some(cmd.activate);
                let transitioned = log.iter().any(|f| {
                    f.device == cmd.device
                        && f.active == cmd.activate
                        && f.time > t
                        && f.time <= t + EXPLAIN_WINDOW
                });
                if already || transitioned {
                    satisfied += 1;
                }
            }
        }
        satisfied as f64 / checks.max(1) as f64
    }

    /// Is the rule's trigger satisfied according to the log's last-known state at
    /// time `t`? Triggers are level-based (a rule fires while the light *is* on),
    /// so the check reads the most recent record at or before `t`, not only
    /// recent transitions.
    fn trigger_observable_before(rule: &crate::rule::Rule, log: &[CleanEvent], t: u64) -> bool {
        match rule.trigger {
            Trigger::DeviceState { device, active } => log
                .iter()
                .filter(|e| e.device == device && e.time <= t)
                .max_by_key(|e| e.time)
                // Devices start inactive: no record yet means "off".
                .map_or(!active, |e| e.active == active),
            Trigger::ChannelLevel {
                channel,
                location,
                high,
            } => log
                .iter()
                .filter(|e| {
                    e.device.location == location
                        && e.device.kind.sense_channel() == Some(channel)
                        && e.time <= t
                })
                .max_by_key(|e| e.time)
                .is_some_and(|e| e.active == high),
            // Manual/time triggers leave no log trace; treat as explained.
            Trigger::Time { .. } | Trigger::Manual => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::{apply_attack, AttackKind};
    use crate::builder::{CorpusIndex, FeatureConfig, GraphBuilder};
    use crate::corpus::{CorpusConfig, CorpusGenerator};
    use crate::device::DeviceKind;
    use crate::events::{clean_log, HomeSimulator, SimConfig};
    use crate::graph::RuleNode;
    use crate::rule::{dev, Command, Platform};
    use fexiot_tensor::rng::Rng;
    use proptest::prelude::*;
    use std::sync::LazyLock;

    fn rules_of(graph: &InteractionGraph) -> Vec<Rule> {
        graph.nodes.iter().map(|n| n.rule.clone()).collect()
    }

    /// A seeded home of about six corpus rules and its simulated, cleaned
    /// event log.
    fn home(seed: u64) -> (InteractionGraph, Vec<CleanEvent>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut gen = CorpusGenerator::new();
        let index = CorpusIndex::build(gen.generate(&CorpusConfig::small(), &mut rng));
        let graph = GraphBuilder::new(FeatureConfig::small()).sample_graph(&index, 6, &mut rng);
        let raw = HomeSimulator::new(rules_of(&graph)).run(&SimConfig::short(), &mut rng);
        (graph, clean_log(&raw))
    }

    fn ev(time: u64, device: Device, active: bool) -> CleanEvent {
        let (on, off) = device.kind.state_words();
        CleanEvent {
            time,
            device,
            state: if active { on } else { off }.to_string(),
            active,
        }
    }

    fn assert_graphs_equal(a: &InteractionGraph, b: &InteractionGraph, ctx: &str) {
        assert_eq!(a.edges, b.edges, "{ctx}: edges diverged");
        assert_eq!(a.label, b.label, "{ctx}: labels diverged");
        assert_eq!(a.nodes.len(), b.nodes.len(), "{ctx}: node counts diverged");
        for (i, (na, nb)) in a.nodes.iter().zip(&b.nodes).enumerate() {
            assert_eq!(na.features.len(), nb.features.len(), "{ctx}: node {i} dims");
            for (j, (fa, fb)) in na.features.iter().zip(&nb.features).enumerate() {
                assert!(
                    fa.to_bits() == fb.to_bits(),
                    "{ctx}: node {i} feature {j}: {fa} != {fb}"
                );
            }
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

    /// The `(consistency, completion)` slots of a one-rule home fused with
    /// `log`: with no other rule to explain a transition, they are the
    /// rule's own trigger consistency and completion.
    fn one_rule_slots(rule: &Rule, log: &[CleanEvent]) -> (f64, f64) {
        let offline = InteractionGraph::new(
            vec![RuleNode {
                rule: rule.clone(),
                features: vec![0.0; RUNTIME_FEATURE_DIMS],
            }],
            Vec::new(),
        );
        let f = &fuse_online(&offline, log).nodes[0].features;
        (f[slot::CONSISTENCY], f[slot::COMPLETION])
    }

    fn motion_lights_rule(light: Device) -> Rule {
        Rule {
            id: 0,
            platform: Platform::SmartThings,
            trigger: Trigger::ChannelLevel {
                channel: Channel::Motion,
                location: Location::LivingRoom,
                high: true,
            },
            actions: vec![Command {
                device: light,
                activate: true,
            }],
            text: String::new(),
        }
    }

    #[test]
    fn fusion_sets_online_flag_everywhere() {
        let (g, _) = home(1);
        let online = fuse_online(&g, &[]);
        for node in &online.nodes {
            let d = node.features.len();
            assert_eq!(node.features[d - 1], 1.0);
        }
    }

    #[test]
    fn fusion_writes_status_from_log() {
        let (g, clean) = home(2);
        let online = fuse_online(&g, &clean);
        assert_eq!(online.edges, g.edges);
        for node in &online.nodes {
            let block = node.features.len() - RUNTIME_FEATURE_DIMS;
            let status = node.features[block + slot::STATUS];
            assert!(status == 0.0 || status == 1.0 || status == -1.0);
            let consistency = node.features[block + slot::CONSISTENCY];
            assert!((0.0..=1.0).contains(&consistency));
            let completion = node.features[block + slot::COMPLETION];
            assert!((0.0..=1.0).contains(&completion));
        }
    }

    #[test]
    fn offline_features_unchanged_by_fusion() {
        let (g, _) = home(4);
        let online = fuse_online(&g, &[]);
        for (a, b) in g.nodes.iter().zip(&online.nodes) {
            let d = a.features.len();
            assert_eq!(
                &a.features[..d - RUNTIME_FEATURE_DIMS],
                &b.features[..d - RUNTIME_FEATURE_DIMS]
            );
        }
    }

    #[test]
    fn consistency_flags_unexplained_transitions() {
        // Rule: motion (living room) -> light on. A light-on event WITHOUT a
        // preceding motion event is unexplained (a fake command).
        let light = dev(DeviceKind::Light, Location::LivingRoom);
        let motion = dev(DeviceKind::MotionSensor, Location::LivingRoom);
        let rule = motion_lights_rule(light);
        let consistency = |log: &[CleanEvent]| one_rule_slots(&rule, log).0;
        // Explained: motion then light.
        let explained_log = vec![ev(10, motion, true), ev(20, light, true)];
        assert_eq!(consistency(&explained_log), 1.0);
        // Unexplained: light turns on with no motion in the window.
        let fake_log = vec![ev(500, light, true)];
        assert_eq!(consistency(&fake_log), 0.0);
        // Mixed: the second light-on happens long after motion cleared.
        let mixed: Vec<CleanEvent> = vec![
            ev(10, motion, true),
            ev(20, light, true),
            ev(40, motion, false),
            ev(5000, light, true),
        ];
        assert!((consistency(&mixed) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn completion_flags_missing_actions() {
        // Rule: motion -> light on. Motion fires but the light never turns on
        // (stealthy command / fake event): completion drops to 0.
        let light = dev(DeviceKind::Light, Location::LivingRoom);
        let motion = dev(DeviceKind::MotionSensor, Location::LivingRoom);
        let rule = motion_lights_rule(light);
        let completion = |log: &[CleanEvent]| one_rule_slots(&rule, log).1;
        let completed = vec![ev(10, motion, true), ev(20, light, true)];
        assert_eq!(completion(&completed), 1.0);
        let missing = vec![ev(10, motion, true)];
        assert_eq!(completion(&missing), 0.0);
        // Already in the commanded state counts as completed.
        let pre_set = vec![ev(5, light, true), ev(10, motion, true)];
        assert_eq!(completion(&pre_set), 1.0);
        // Never-observed trigger defaults to 1.
        assert_eq!(completion(&[]), 1.0);
    }

    #[test]
    fn manual_triggers_are_always_consistent() {
        let light = dev(DeviceKind::Light, Location::Kitchen);
        let rule = Rule {
            id: 0,
            platform: Platform::AmazonAlexa,
            trigger: Trigger::Manual,
            actions: vec![Command {
                device: light,
                activate: true,
            }],
            text: String::new(),
        };
        let log = vec![ev(100, light, true)];
        assert_eq!(one_rule_slots(&rule, &log).0, 1.0);
    }

    #[test]
    fn external_mark_sets_vulnerable() {
        let (mut g, _) = home(5);
        g.label = Some(GraphLabel::benign());
        mark_external_vulnerable(&mut g);
        assert!(g.label.as_ref().unwrap().vulnerable);
    }

    #[test]
    fn incremental_fusion_matches_batch_exactly() {
        for seed in [1u64, 2, 3, 11, 42] {
            let (offline, log) = home(seed);
            assert!(!log.is_empty());
            let batch = oracle::fuse_online(&offline, &log);
            let mut m = HomeMaintainer::new(&offline);
            for e in &log {
                m.apply(e.clone());
            }
            m.finalize();
            assert_graphs_equal(m.graph(), &batch, &format!("seed {seed}"));
        }
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
        let batch = oracle::fuse_online(&offline, &[]);
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
                let block = node.features.len() - RUNTIME_FEATURE_DIMS;
                assert!((0.0..=1.0).contains(&node.features[block + slot::CONSISTENCY]));
                assert!((0.0..=1.0).contains(&node.features[block + slot::COMPLETION]));
                assert_eq!(node.features[block + slot::ONLINE_FLAG], 1.0);
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

    static CORPUS: LazyLock<CorpusIndex> = LazyLock::new(|| {
        let rules =
            CorpusGenerator::new().generate(&CorpusConfig::small(), &mut Rng::seed_from_u64(0));
        CorpusIndex::build(rules)
    });

    /// A home of 2–8 corpus rules whose runtime blocks hold arbitrary
    /// offline values, which fusion must keep or overwrite exactly.
    fn random_home(rng: &mut Rng) -> InteractionGraph {
        let builder = GraphBuilder::new(FeatureConfig::small());
        let mut graph = builder.sample_structure(&CORPUS, 2 + rng.usize(7), rng);
        for node in &mut graph.nodes {
            node.features = (0..RUNTIME_FEATURE_DIMS + 2)
                .map(|_| rng.uniform(-1.0, 1.0))
                .collect();
        }
        graph
    }

    /// Devices a log of `graph`'s home can name: its rules' action and
    /// trigger devices, a sensor at each channel trigger's location, and one
    /// actuator no rule mentions.
    fn home_devices(graph: &InteractionGraph) -> Vec<Device> {
        let mut devices = Vec::new();
        for rule in rules_of(graph) {
            devices.extend(rule.actions.iter().map(|c| c.device));
            match rule.trigger {
                Trigger::DeviceState { device, .. } => devices.push(device),
                Trigger::ChannelLevel {
                    channel, location, ..
                } => devices.push(dev(DeviceKind::sensor_for_channel(channel), location)),
                Trigger::Time { .. } | Trigger::Manual => {}
            }
        }
        let stranger = DeviceKind::ACTUATORS
            .iter()
            .flat_map(|&k| Location::ALL.iter().map(move |&l| dev(k, l)))
            .find(|d| !devices.contains(d))
            .expect("a home leaves some actuator unused");
        devices.push(stranger);
        devices
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn fold_matches_the_batch_oracle_on_arbitrary_logs(seed in 0u64..u64::MAX) {
            // Unsorted logs with many same-time ties: times sit on a grid of
            // a few steps, so gaps of exactly one explain window, just under
            // and just over it all occur.
            let mut rng = Rng::seed_from_u64(seed);
            let offline = random_home(&mut rng);
            let devices = home_devices(&offline);
            let step = [1, 10, 40, 60, 61, EXPLAIN_WINDOW, 500][rng.usize(7)];
            let steps = 1 + rng.usize(12);
            let start = rng.usize(200_000) as u64;
            let len = if rng.bool(0.2) { rng.usize(2) } else { rng.usize(60) };
            let log: Vec<CleanEvent> = (0..len)
                .map(|_| {
                    let t = start + step * rng.usize(steps) as u64;
                    ev(t, *rng.choose(&devices), rng.bool(0.5))
                })
                .collect();
            assert_graphs_equal(
                &fuse_online(&offline, &log),
                &oracle::fuse_online(&offline, &log),
                &format!("seed {seed}, {len} events on {steps} steps of {step} s"),
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn fold_matches_the_batch_oracle_under_every_attack(seed in 0u64..u64::MAX) {
            let mut rng = Rng::seed_from_u64(seed);
            let offline = random_home(&mut rng);
            let raw = HomeSimulator::new(rules_of(&offline)).run(&SimConfig::short(), &mut rng);
            for kind in AttackKind::ALL {
                let log = clean_log(&apply_attack(kind, &raw, 0.35, &mut rng));
                assert_graphs_equal(
                    &fuse_online(&offline, &log),
                    &oracle::fuse_online(&offline, &log),
                    &format!("seed {seed}, {}", kind.name()),
                );
            }
        }
    }
}
