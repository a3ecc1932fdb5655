//! Deterministic causal trace graph over federated runs.
//!
//! The simulator's metrics say *what* degraded (participants dropped, a
//! quorum aborted); this module records *why*, as a graph: span nodes (the
//! run and each round) plus **fault-event nodes** — dropout, crash and
//! rejoin, straggler waits, lossy-link retries, quarantine, aggregator
//! crash/reassign, deadline misses, quorum aborts — linked by parent/child
//! and follows-from edges (crash → rejoin → stale-update decay; aggregator
//! crash → ring reassign). The simulator decides which events a round had
//! and which follow which; [`CausalBuilder`] records them.
//!
//! ## Determinism contract
//!
//! Trace/span IDs are derived by hashing `(seed, round, entity, kind)` —
//! never wall-clock or thread identity — and every node is emitted on the
//! coordinator thread in round order, so the same seed yields a
//! byte-identical graph at any `--threads` width. Timestamps (`ts`/`dur`)
//! come from a simulated tick counter. The only wall-clock field is
//! `wall_us`, which follows the crate's `_us` timing convention: it is
//! dropped from [`Timing::Exclude`] exports and carried only in the
//! timing-suffixed variant, which is excluded from byte comparison.
//!
//! ## Root-cause attribution
//!
//! [`root_cause`] generalizes [`crate::slowest_client`] from per-round to
//! whole-run: for each failing SLO rule it walks the rule's trailing window
//! in the graph and ranks the fault kinds by attributed simulated-tick cost.

use crate::json::Json;
use crate::report::Timing;
use crate::slo::{SloEngine, SloStatus};

/// Schema tag of a serialized causal graph document.
pub const CAUSAL_SCHEMA: &str = "fexiot-obs-causal/v1";

/// Fault-event kinds that carry attribution cost. Structural nodes (`run`,
/// `round`) and recovery markers (`rejoin`, `agg_rejoin`) are excluded from
/// root-cause ranking — they describe the graph, not a degradation.
const STRUCTURAL_KINDS: [&str; 4] = ["run", "round", "rejoin", "agg_rejoin"];

/// What a causal node is about: the run, a round, one client, or one edge
/// aggregator. The entity picks the Chrome-trace track (`tid`) so Perfetto
/// renders one lane per client/aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entity {
    Run,
    Round,
    Client(usize),
    Aggregator(usize),
}

impl Entity {
    fn render(&self) -> String {
        match self {
            Entity::Run => "run".into(),
            Entity::Round => "round".into(),
            Entity::Client(c) => format!("client[{c}]"),
            Entity::Aggregator(a) => format!("agg[{a}]"),
        }
    }

    fn parse(s: &str) -> Option<Entity> {
        let idx = |prefix: &str| {
            s.strip_prefix(prefix)
                .and_then(|r| r.strip_suffix(']'))
                .and_then(|r| r.parse::<usize>().ok())
        };
        match s {
            "run" => Some(Entity::Run),
            "round" => Some(Entity::Round),
            _ => idx("client[")
                .map(Entity::Client)
                .or_else(|| idx("agg[").map(Entity::Aggregator)),
        }
    }

    /// Chrome-trace thread id: coordinator lane 0, aggregators from 1,
    /// clients from 1000 (edge-aggregator tiers are small by construction).
    fn tid(&self) -> u64 {
        match self {
            Entity::Run | Entity::Round => 0,
            Entity::Aggregator(a) => 1 + *a as u64,
            Entity::Client(c) => 1000 + *c as u64,
        }
    }
}

/// One node: a span (`run`, `round`) or a fault event. `ticks` is the
/// simulated-tick cost attributed to the event (unit cost 1 for tick-less
/// faults like dropout, so counting degradations ranks them too); `ts`/`dur`
/// are deterministic tick-counter coordinates for the Chrome-trace export.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalNode {
    pub id: u64,
    pub round: u64,
    pub entity: Entity,
    pub kind: String,
    pub ticks: u64,
    pub ts: u64,
    pub dur: u64,
    /// Wall-clock µs since the run started when the node was emitted. The
    /// `_us` suffix marks it as timing data: excluded exports zero it.
    pub wall_us: u64,
}

/// Edge kinds: `Child` is containment (round → fault event), `Follows` is
/// causal succession across nodes (crash → rejoin, agg down → reassign).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    Child,
    Follows,
}

#[derive(Debug, Clone, PartialEq)]
pub struct CausalEdge {
    pub from: u64,
    pub to: u64,
    pub kind: EdgeKind,
}

/// The whole causal trace of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalGraph {
    pub run: String,
    pub seed: u64,
    pub nodes: Vec<CausalNode>,
    pub edges: Vec<CausalEdge>,
}

/// FNV-1a over `(seed, round, entity, kind)`. No wall clock, no thread
/// identity: the ID of every node is a pure function of run semantics, which
/// is what makes same-seed graphs byte-identical across thread widths and
/// distinct-seed graphs (virtually certainly) ID-disjoint.
pub fn trace_id(seed: u64, round: u64, entity: Entity, kind: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&seed.to_le_bytes());
    eat(&round.to_le_bytes());
    let (tag, idx): (u8, u64) = match entity {
        Entity::Run => (0, 0),
        Entity::Round => (1, 0),
        Entity::Client(c) => (2, c as u64),
        Entity::Aggregator(a) => (3, a as u64),
    };
    eat(&[tag]);
    eat(&idx.to_le_bytes());
    eat(kind.as_bytes());
    h
}

impl CausalGraph {
    pub fn node(&self, id: u64) -> Option<&CausalNode> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Newest round any node belongs to (`None` on a round-less graph).
    pub fn last_round(&self) -> Option<u64> {
        self.nodes
            .iter()
            .filter(|n| n.entity != Entity::Run)
            .map(|n| n.round)
            .max()
    }

    /// Serializes the graph. [`Timing::Exclude`] zeroes `wall_us` (the only
    /// wall-clock field), making same-seed documents byte-identical at any
    /// thread width; [`Timing::Include`] is the timing-suffixed variant.
    pub fn to_json(&self, timing: Timing) -> Json {
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                let mut members = vec![
                    ("id".into(), Json::UInt(n.id)),
                    ("round".into(), Json::UInt(n.round)),
                    ("entity".into(), Json::Str(n.entity.render())),
                    ("kind".into(), Json::Str(n.kind.clone())),
                    ("ticks".into(), Json::UInt(n.ticks)),
                    ("ts".into(), Json::UInt(n.ts)),
                    ("dur".into(), Json::UInt(n.dur)),
                ];
                if matches!(timing, Timing::Include) {
                    members.push(("wall_us".into(), Json::UInt(n.wall_us)));
                }
                Json::Obj(members)
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("from".into(), Json::UInt(e.from)),
                    ("to".into(), Json::UInt(e.to)),
                    (
                        "kind".into(),
                        Json::Str(
                            match e.kind {
                                EdgeKind::Child => "child",
                                EdgeKind::Follows => "follows",
                            }
                            .into(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(CAUSAL_SCHEMA.into())),
            ("run".into(), Json::Str(self.run.clone())),
            ("seed".into(), Json::UInt(self.seed)),
            ("nodes".into(), Json::Arr(nodes)),
            ("edges".into(), Json::Arr(edges)),
        ])
    }

    /// Parses and validates a [`CausalGraph::to_json`] document (either
    /// timing variant; absent `wall_us` reads back as 0).
    pub fn parse(doc: &Json) -> Result<CausalGraph, String> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing string field 'schema'")?;
        if schema != CAUSAL_SCHEMA {
            return Err(format!(
                "unknown schema {schema:?} (expected {CAUSAL_SCHEMA:?})"
            ));
        }
        let run = doc
            .get("run")
            .and_then(Json::as_str)
            .ok_or("missing string field 'run'")?
            .to_string();
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("missing uint field 'seed'")?;
        let uint = |n: &Json, field: &str, at: usize| {
            n.get(field)
                .and_then(Json::as_u64)
                .ok_or(format!("node[{at}]: missing uint field '{field}'"))
        };
        let mut nodes = Vec::new();
        for (i, n) in doc
            .get("nodes")
            .and_then(Json::as_arr)
            .ok_or("missing array field 'nodes'")?
            .iter()
            .enumerate()
        {
            let entity = n
                .get("entity")
                .and_then(Json::as_str)
                .and_then(Entity::parse)
                .ok_or(format!("node[{i}]: bad 'entity'"))?;
            let kind = n
                .get("kind")
                .and_then(Json::as_str)
                .ok_or(format!("node[{i}]: missing string field 'kind'"))?
                .to_string();
            nodes.push(CausalNode {
                id: uint(n, "id", i)?,
                round: uint(n, "round", i)?,
                entity,
                kind,
                ticks: uint(n, "ticks", i)?,
                ts: uint(n, "ts", i)?,
                dur: uint(n, "dur", i)?,
                wall_us: n.get("wall_us").and_then(Json::as_u64).unwrap_or(0),
            });
        }
        let mut edges = Vec::new();
        for (i, e) in doc
            .get("edges")
            .and_then(Json::as_arr)
            .ok_or("missing array field 'edges'")?
            .iter()
            .enumerate()
        {
            let kind = match e.get("kind").and_then(Json::as_str) {
                Some("child") => EdgeKind::Child,
                Some("follows") => EdgeKind::Follows,
                other => return Err(format!("edge[{i}]: bad 'kind' {other:?}")),
            };
            let from = e
                .get("from")
                .and_then(Json::as_u64)
                .ok_or(format!("edge[{i}]: missing uint field 'from'"))?;
            let to = e
                .get("to")
                .and_then(Json::as_u64)
                .ok_or(format!("edge[{i}]: missing uint field 'to'"))?;
            if !nodes.iter().any(|n| n.id == from) || !nodes.iter().any(|n| n.id == to) {
                return Err(format!("edge[{i}]: endpoint not in node set"));
            }
            edges.push(CausalEdge { from, to, kind });
        }
        Ok(CausalGraph {
            run,
            seed,
            nodes,
            edges,
        })
    }
}

/// Accumulates the causal graph during a run: the run span, one span per
/// round, and the fault events the caller reports under the open round,
/// linked by child and follows-from edges. All methods must be called from
/// the coordinator thread in round order; the builder never reads the clock
/// except to stamp `wall_us` (which excluded exports drop).
#[derive(Debug)]
pub struct CausalBuilder {
    graph: CausalGraph,
    start: std::time::Instant,
    next_ts: u64,
    round_node: Option<usize>,
    round_start_ts: u64,
}

impl CausalBuilder {
    pub fn new(run: &str, seed: u64) -> Self {
        let mut builder = Self {
            graph: CausalGraph {
                run: run.to_string(),
                seed,
                nodes: Vec::new(),
                edges: Vec::new(),
            },
            start: std::time::Instant::now(),
            next_ts: 0,
            round_node: None,
            round_start_ts: 0,
        };
        builder.push(0, Entity::Run, "run", 0, 0);
        builder
    }

    pub fn graph(&self) -> &CausalGraph {
        &self.graph
    }

    fn push(&mut self, round: u64, entity: Entity, kind: &str, ticks: u64, dur: u64) -> u64 {
        let id = trace_id(self.graph.seed, round, entity, kind);
        self.graph.nodes.push(CausalNode {
            id,
            round,
            entity,
            kind: kind.to_string(),
            ticks,
            ts: self.next_ts,
            dur,
            wall_us: self.start.elapsed().as_micros() as u64,
        });
        self.next_ts += dur;
        id
    }

    /// A fault event under the current round, costed at `ticks` simulated
    /// ticks with a floor of 1, so every event counts toward attribution and
    /// is visible on the timeline. Returns its id, for [`Self::follows`].
    pub fn fault(&mut self, round: usize, entity: Entity, kind: &str, ticks: u64) -> u64 {
        let ticks = ticks.max(1);
        let id = self.push(round as u64, entity, kind, ticks, ticks);
        if let Some(r) = self.round_node {
            let parent = self.graph.nodes[r].id;
            self.edge(parent, id, EdgeKind::Child);
        }
        id
    }

    /// Links event `to` as caused by event `from` (crash → rejoin,
    /// aggregator down → reassign).
    pub fn follows(&mut self, from: u64, to: u64) {
        self.edge(from, to, EdgeKind::Follows);
    }

    fn edge(&mut self, from: u64, to: u64, kind: EdgeKind) {
        self.graph.edges.push(CausalEdge { from, to, kind });
    }

    /// Closes the previous round span (if any) and opens `round`'s.
    pub fn begin_round(&mut self, round: usize) {
        self.close_round();
        self.round_start_ts = self.next_ts;
        let id = self.push(round as u64, Entity::Round, "round", 0, 0);
        self.round_node = Some(self.graph.nodes.len() - 1);
        let run_id = self.graph.nodes[0].id;
        self.edge(run_id, id, EdgeKind::Child);
    }

    fn close_round(&mut self) {
        if let Some(r) = self.round_node.take() {
            // A round with no events still occupies one tick on the timeline.
            self.next_ts = self.next_ts.max(self.round_start_ts + 1);
            self.graph.nodes[r].dur = self.next_ts - self.round_start_ts;
        }
    }

    /// Closes the open round and the run span, returning the final graph.
    pub fn finish(mut self) -> CausalGraph {
        self.close_round();
        self.graph.nodes[0].dur = self.next_ts.max(1);
        self.graph
    }
}

/// Renders a causal graph as Chrome trace-event JSON (Perfetto-loadable):
/// thread-name metadata per entity lane, one complete (`X`) event per node
/// with deterministic tick-counter `ts`/`dur`, and one flow (`s`/`f`) pair
/// per follows-from edge. `wall_us` rides along as an event arg only when
/// the graph carries it (the timing-suffixed variant).
pub fn chrome_trace(graph: &CausalGraph) -> String {
    let mut events = Vec::new();
    let meta = |name: &str, tid: u64, value: &str| {
        Json::Obj(vec![
            ("name".into(), Json::Str(name.into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::UInt(1)),
            ("tid".into(), Json::UInt(tid)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::Str(value.into()))]),
            ),
        ])
    };
    events.push(meta(
        "process_name",
        0,
        &format!("fexiot run {}", graph.run),
    ));
    let mut tids: Vec<(u64, String)> = graph
        .nodes
        .iter()
        .map(|n| {
            let label = match n.entity {
                Entity::Run | Entity::Round => "coordinator".to_string(),
                Entity::Client(c) => format!("client {c}"),
                Entity::Aggregator(a) => format!("aggregator {a}"),
            };
            (n.entity.tid(), label)
        })
        .collect();
    tids.sort();
    tids.dedup();
    for (tid, label) in &tids {
        events.push(meta("thread_name", *tid, label));
    }
    for n in &graph.nodes {
        let name = match n.entity {
            Entity::Round => format!("round[{}]", n.round),
            _ => n.kind.clone(),
        };
        let cat = if STRUCTURAL_KINDS.contains(&n.kind.as_str()) {
            "span"
        } else {
            "fault"
        };
        let mut args = vec![
            ("round".into(), Json::UInt(n.round)),
            ("ticks".into(), Json::UInt(n.ticks)),
        ];
        if n.wall_us > 0 {
            args.push(("wall_us".into(), Json::UInt(n.wall_us)));
        }
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str(name)),
            ("cat".into(), Json::Str(cat.into())),
            ("ph".into(), Json::Str("X".into())),
            ("ts".into(), Json::UInt(n.ts)),
            ("dur".into(), Json::UInt(n.dur.max(1))),
            ("pid".into(), Json::UInt(1)),
            ("tid".into(), Json::UInt(n.entity.tid())),
            ("args".into(), Json::Obj(args)),
        ]));
    }
    for (i, e) in graph.edges.iter().enumerate() {
        if e.kind != EdgeKind::Follows {
            continue;
        }
        let (Some(from), Some(to)) = (graph.node(e.from), graph.node(e.to)) else {
            continue;
        };
        let flow = |ph: &str, n: &CausalNode, bind_end: bool| {
            let mut members = vec![
                ("name".into(), Json::Str("follows".into())),
                ("cat".into(), Json::Str("flow".into())),
                ("ph".into(), Json::Str(ph.into())),
                ("id".into(), Json::UInt(i as u64)),
                ("ts".into(), Json::UInt(n.ts)),
                ("pid".into(), Json::UInt(1)),
                ("tid".into(), Json::UInt(n.entity.tid())),
            ];
            if bind_end {
                members.push(("bp".into(), Json::Str("e".into())));
            }
            Json::Obj(members)
        };
        events.push(flow("s", from, false));
        events.push(flow("f", to, true));
    }
    Json::Obj(vec![
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        ("traceEvents".into(), Json::Arr(events)),
    ])
    .to_string()
}

/// One ranked cause for a failing rule.
#[derive(Debug, Clone, PartialEq)]
pub struct CauseScore {
    pub cause: String,
    /// Fault events of this kind inside the rule's window.
    pub events: u64,
    /// Total attributed simulated ticks.
    pub ticks: u64,
    /// Fraction of the window's total attributed ticks.
    pub share: f64,
}

/// Root-cause verdict for one failing SLO rule: the round window walked and
/// the causes ranked by attributed cost (dominant first).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleRootCause {
    pub rule: String,
    pub window: (u64, u64),
    pub causes: Vec<CauseScore>,
}

/// For each failing SLO rule, walks the rule's trailing round window in the
/// graph and ranks the fault kinds by attributed simulated-tick cost —
/// [`crate::slowest_client`] generalized from per-round slowest-client to
/// whole-run dominant-cause. Ties break by event count, then kind name, so
/// the ranking is deterministic.
pub fn root_cause(graph: &CausalGraph, engine: &SloEngine) -> Vec<RuleRootCause> {
    let last_round = graph.last_round().unwrap_or(0);
    engine
        .verdicts()
        .iter()
        .filter(|v| v.status == SloStatus::Fail)
        .map(|v| {
            let window = v.rule.window as u64;
            let lo = if window == 0 {
                0
            } else {
                (last_round + 1).saturating_sub(window)
            };
            let mut by_kind: Vec<(String, u64, u64)> = Vec::new();
            for n in &graph.nodes {
                if STRUCTURAL_KINDS.contains(&n.kind.as_str())
                    || n.round < lo
                    || n.round > last_round
                {
                    continue;
                }
                match by_kind.iter_mut().find(|(k, _, _)| *k == n.kind) {
                    Some((_, events, ticks)) => {
                        *events += 1;
                        *ticks += n.ticks;
                    }
                    None => by_kind.push((n.kind.clone(), 1, n.ticks)),
                }
            }
            let total: u64 = by_kind.iter().map(|(_, _, t)| *t).sum();
            by_kind.sort_by(|a, b| b.2.cmp(&a.2).then(b.1.cmp(&a.1)).then(a.0.cmp(&b.0)));
            RuleRootCause {
                rule: v.rule.name.clone(),
                window: (lo, last_round),
                causes: by_kind
                    .into_iter()
                    .map(|(cause, events, ticks)| CauseScore {
                        cause,
                        events,
                        ticks,
                        share: if total == 0 {
                            0.0
                        } else {
                            ticks as f64 / total as f64
                        },
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Serializes [`root_cause`] output as the report's `root_cause` section.
pub fn root_cause_to_json(rules: &[RuleRootCause]) -> Json {
    Json::Obj(vec![(
        "rules".into(),
        Json::Arr(
            rules
                .iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("rule".into(), Json::Str(r.rule.clone())),
                        (
                            "window".into(),
                            Json::Arr(vec![Json::UInt(r.window.0), Json::UInt(r.window.1)]),
                        ),
                        (
                            "causes".into(),
                            Json::Arr(
                                r.causes
                                    .iter()
                                    .map(|c| {
                                        Json::Obj(vec![
                                            ("cause".into(), Json::Str(c.cause.clone())),
                                            ("events".into(), Json::UInt(c.events)),
                                            ("ticks".into(), Json::UInt(c.ticks)),
                                            ("share".into(), Json::Num(c.share)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Validates a report's `root_cause` section.
pub fn validate_root_cause(doc: &Json) -> Result<(), String> {
    let rules = doc
        .get("rules")
        .and_then(Json::as_arr)
        .ok_or("root_cause: missing array field 'rules'")?;
    for (i, r) in rules.iter().enumerate() {
        let at = format!("root_cause.rules[{i}]");
        r.get("rule")
            .and_then(Json::as_str)
            .ok_or(format!("{at}: missing 'rule'"))?;
        let window = r
            .get("window")
            .and_then(Json::as_arr)
            .ok_or(format!("{at}: missing 'window'"))?;
        if window.len() != 2 || !window.iter().all(|w| w.as_u64().is_some()) {
            return Err(format!("{at}: 'window' must be [lo, hi]"));
        }
        for (j, c) in r
            .get("causes")
            .and_then(Json::as_arr)
            .ok_or(format!("{at}: missing 'causes'"))?
            .iter()
            .enumerate()
        {
            let at = format!("{at}.causes[{j}]");
            c.get("cause")
                .and_then(Json::as_str)
                .ok_or(format!("{at}: missing 'cause'"))?;
            for field in ["events", "ticks"] {
                c.get(field)
                    .and_then(Json::as_u64)
                    .ok_or(format!("{at}: missing uint '{field}'"))?;
            }
            let share = c
                .get("share")
                .and_then(Json::as_f64)
                .ok_or(format!("{at}: missing number 'share'"))?;
            if !(0.0..=1.0).contains(&share) {
                return Err(format!("{at}: share {share} outside [0, 1]"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small graph with one crash→rejoin chain, a straggler decay chain,
    /// and an aggregator crash with a reassign.
    fn sample_graph() -> CausalGraph {
        let mut b = CausalBuilder::new("unit", 42);
        let client = Entity::Client;
        b.begin_round(0);
        let crash0 = b.fault(0, client(1), "crash", 1);
        b.fault(0, client(2), "dropout", 1);
        let agg = b.fault(0, Entity::Aggregator(1), "agg_crash", 2);
        let reassign = b.fault(0, client(3), "agg_reassign", 1);
        b.follows(agg, reassign);
        b.begin_round(1);
        let crash1 = b.fault(1, client(1), "crash", 1);
        b.follows(crash0, crash1);
        let agg_rejoin = b.fault(1, Entity::Aggregator(1), "agg_rejoin", 1);
        b.follows(agg, agg_rejoin);
        b.begin_round(2);
        let rejoin = b.fault(2, client(1), "rejoin", 1);
        b.follows(crash1, rejoin);
        let s = b.fault(2, client(1), "straggler", 3);
        b.follows(rejoin, s);
        let accept = b.fault(2, client(1), "stale_accept", 1);
        b.follows(s, accept);
        b.fault(2, client(3), "retry", 7);
        b.fault(2, Entity::Round, "quorum_abort", 2);
        b.finish()
    }

    #[test]
    fn ids_are_pure_functions_of_semantics() {
        let a = trace_id(42, 3, Entity::Client(7), "crash");
        let b = trace_id(42, 3, Entity::Client(7), "crash");
        assert_eq!(a, b);
        assert_ne!(a, trace_id(43, 3, Entity::Client(7), "crash"));
        assert_ne!(a, trace_id(42, 4, Entity::Client(7), "crash"));
        assert_ne!(a, trace_id(42, 3, Entity::Client(8), "crash"));
        assert_ne!(a, trace_id(42, 3, Entity::Aggregator(7), "crash"));
        assert_ne!(a, trace_id(42, 3, Entity::Client(7), "dropout"));
    }

    #[test]
    fn excluded_json_round_trips_and_is_wall_clock_free() {
        let g = sample_graph();
        let doc = g.to_json(Timing::Exclude);
        assert!(!doc.to_string().contains("wall_us"));
        let back = CausalGraph::parse(&doc).expect("round-trips");
        assert_eq!(back.nodes.len(), g.nodes.len());
        assert_eq!(back.edges, g.edges);
        // Everything except wall_us survives exactly.
        for (a, b) in back.nodes.iter().zip(&g.nodes) {
            assert_eq!(
                (a.id, a.round, a.entity, &a.kind, a.ticks, a.ts, a.dur),
                (b.id, b.round, b.entity, &b.kind, b.ticks, b.ts, b.dur)
            );
            assert_eq!(a.wall_us, 0);
        }
        // The timing variant carries the field and still parses.
        let timed = g.to_json(Timing::Include);
        assert!(timed.to_string().contains("wall_us"));
        CausalGraph::parse(&timed).expect("timing variant parses");
        // Corruption is caught.
        assert!(CausalGraph::parse(&Json::parse(r#"{"schema":"nope"}"#).unwrap()).is_err());
        let mut members = match doc {
            Json::Obj(m) => m,
            _ => unreachable!(),
        };
        members.retain(|(k, _)| k != "edges");
        assert!(CausalGraph::parse(&Json::Obj(members)).is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_flows_and_lanes() {
        let g = sample_graph();
        let text = chrome_trace(&g);
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        let ph = |p: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(p))
                .count()
        };
        assert_eq!(ph("X"), g.nodes.len());
        let follows = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Follows)
            .count();
        assert_eq!(ph("s"), follows);
        assert_eq!(ph("f"), follows);
        // Lanes: coordinator, aggregator 1, and each client seen.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
            })
            .collect();
        assert!(names.contains(&"coordinator"));
        assert!(names.contains(&"aggregator 1"));
        assert!(names.contains(&"client 1"));
        // Excluded graphs render without wall_us args.
        let clean = CausalGraph::parse(&g.to_json(Timing::Exclude)).unwrap();
        assert!(!chrome_trace(&clean).contains("wall_us"));
    }

    #[test]
    fn root_cause_ranks_dominant_ticks_first() {
        let g = sample_graph();
        let engine = SloEngine::parse(
            "[[rule]]\nname = \"floor\"\nmetric = \"fed.round.participants\"\nop = \">=\"\nthreshold = 100",
        )
        .expect("rule parses");
        // Force a failing verdict by evaluating against an empty-but-present
        // series below the threshold.
        let mut store = crate::timeseries::TimeSeriesStore::new(8);
        let mut engine = engine;
        for r in 0..3u64 {
            store.push_sample(r, "fed.round.participants", 1.0);
            engine.evaluate(r, &store);
        }
        let rcs = root_cause(&g, &engine);
        assert_eq!(rcs.len(), 1);
        assert_eq!(rcs[0].rule, "floor");
        assert_eq!(rcs[0].window, (0, 2), "window 0 = whole run");
        // retry carries 7 ticks — the dominant cause ahead of the straggler's
        // 3 and every unit-cost event.
        assert_eq!(rcs[0].causes[0].cause, "retry");
        assert_eq!(rcs[0].causes[0].ticks, 7);
        assert!(rcs[0].causes[0].share > rcs[0].causes[1].share);
        assert!(
            rcs[0]
                .causes
                .iter()
                .all(|c| c.cause != "rejoin" && c.cause != "round"),
            "structural kinds excluded: {:?}",
            rcs[0].causes
        );
        // Serialized section validates.
        validate_root_cause(&root_cause_to_json(&rcs)).expect("section validates");
        // Passing engines produce no entries.
        let ok = SloEngine::parse(
            "[[rule]]\nmetric = \"fed.round.participants\"\nop = \">=\"\nthreshold = 0",
        )
        .unwrap();
        assert!(root_cause(&g, &ok).is_empty());
    }

    #[test]
    fn same_build_sequence_yields_identical_documents() {
        let a = sample_graph().to_json(Timing::Exclude).to_string();
        let b = sample_graph().to_json(Timing::Exclude).to_string();
        assert_eq!(a, b, "excluded graphs are byte-identical");
        let other = {
            let mut b = CausalBuilder::new("unit", 43);
            b.begin_round(0);
            b.fault(0, Entity::Client(1), "crash", 1);
            b.finish()
        };
        let ids = |g: &CausalGraph| g.nodes.iter().map(|n| n.id).collect::<Vec<_>>();
        let a_ids = ids(&sample_graph());
        assert!(
            ids(&other).iter().all(|id| !a_ids.contains(id)),
            "distinct seeds give disjoint trace IDs"
        );
    }
}
