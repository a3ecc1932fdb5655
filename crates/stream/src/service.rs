//! The streaming detection service: a bounded-mailbox actor pipeline driven
//! by deterministic virtual time.
//!
//! ```text
//!   source ──▶ [ingestor] ──mailbox──▶ [maintainer] ──mailboxes──▶ [shard 0..K]
//!                                       (incremental                (detection)
//!                                        graph fusion)
//! ```
//!
//! **Virtual time.** The scheduler is a tick loop; the tick counter *is* the
//! clock. Per tick each actor gets a fixed processing budget (`*_rate`), in
//! a fixed stage order (ingest → maintain → detect). Nothing deterministic
//! reads wall-clock or thread identity: per-event latency is measured in
//! ticks (`detect_tick − ingest_tick`), so the same seed yields
//! byte-identical metrics, SLO verdicts, and detection outputs at any
//! `--threads` width. Wall-clock shows up in exactly one place — the
//! advisory `stream.detect.latency_us` histogram — which carries the `_us`
//! timing suffix and is therefore excluded from every determinism-checked
//! surface.
//!
//! **Backpressure.** Mailboxes are bounded ([`Mailbox`]); a refused push
//! under [`Overflow::Block`] stalls the producer for the rest of the tick
//! and is counted as a backpressure stall attributed to the congested edge.
//! Those per-round attributions feed the existing critical-path machinery
//! (`cause = "backpressure"`, `client` = the dominant shard).
//!
//! **One thread.** Every stage runs on the scheduler thread. The detect
//! stage drains the shards in shard order, each within its own per-tick
//! budget, and records straight into the run's [`Registry`]. Shards are
//! mailboxes, not threads: they carry per-home ordering, backpressure and
//! stall attribution. A per-tick fan-out over the thread pool cost more in
//! spawns than the few detections of a tick could win back.
//!
//! **One detection per home state.** The maintainer hands each detect job
//! its home's graph as a shared snapshot plus the maintainer's revision,
//! which moves exactly when a feature bit changes. The detect stage keeps,
//! per home, the last revision it detected and that verdict; a job at the
//! same revision reuses the verdict instead of calling the [`Detector`],
//! which is pure, so the outputs are those of a detection. A reused verdict
//! is recorded and budgeted like a detection, so virtual time, counters and
//! digests do not depend on how often the detector runs.

use std::sync::Arc;

use fexiot_graph::InteractionGraph;
use fexiot_obs::{buckets, CriticalPathEntry, FleetTelemetry, Json, Registry};
use fexiot_tensor::codec::{fnv1a_extend, FNV1A_OFFSET};

use crate::mailbox::{Mailbox, Overflow, PushOutcome};
use crate::wire::HomeEvent;
use crate::{Detector, HomeMaintainer, StreamVerdict};

/// Virtual-time latency buckets (ticks from ingest to detection).
pub const LATENCY_TICK_EDGES: [f64; 10] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// Configuration of the streaming pipeline.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Detection shards: one mailbox each, drained in shard order.
    pub shards: usize,
    /// Capacity of every mailbox.
    pub mailbox_cap: usize,
    /// What a full mailbox does ([`Overflow::Block`] stalls the producer,
    /// [`Overflow::Shed`] drops the message).
    pub overflow: Overflow,
    /// Events the ingestor pulls from the source per tick.
    pub ingest_rate: usize,
    /// Events the maintainer fuses and routes per tick.
    pub maintain_rate: usize,
    /// Detections per shard per tick.
    pub detect_rate: usize,
    /// Telemetry round length in ingested events.
    pub round_events: usize,
    /// Fault injection: this shard detects only 1 event/tick, creating
    /// backpressure (used by the CI failing-SLO leg).
    pub slow_shard: Option<usize>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            mailbox_cap: 32,
            overflow: Overflow::Block,
            ingest_rate: 8,
            maintain_rate: 8,
            detect_rate: 4,
            round_events: 64,
            slow_shard: None,
        }
    }
}

/// Exact per-actor tallies for the report's `stream` section. `stall_ticks`
/// counts producer stalls attributed to *this actor's* mailbox being full.
#[derive(Debug, Clone)]
pub struct ActorStats {
    pub name: String,
    pub capacity: usize,
    pub policy: &'static str,
    pub enqueued: u64,
    pub dequeued: u64,
    pub shed: u64,
    pub stall_ticks: u64,
    pub max_depth: usize,
}

/// Whole-run summary, embedded as the `stream` section of obs reports.
#[derive(Debug, Clone)]
pub struct StreamStats {
    /// Events offered by the source (all are eventually consumed).
    pub events: u64,
    /// Events that completed detection (events − sheds).
    pub detected: u64,
    pub vulnerable: u64,
    pub drifting: u64,
    pub shed: u64,
    pub stall_ticks: u64,
    pub rounds: usize,
    pub ticks: u64,
    /// FNV-1a 64 digest over `(seq, vulnerable, drifting, score)` of every
    /// detection in completion order: byte-equal digests ⇔ identical
    /// detection outputs (the width-invariance tests compare this).
    pub digest: u64,
    pub actors: Vec<ActorStats>,
}

impl StreamStats {
    /// JSON for the report's `stream` section (deterministic field order).
    pub fn to_json(&self) -> Json {
        let actor = |a: &ActorStats| {
            Json::Obj(vec![
                ("name".into(), Json::Str(a.name.clone())),
                ("capacity".into(), Json::UInt(a.capacity as u64)),
                ("policy".into(), Json::Str(a.policy.into())),
                ("enqueued".into(), Json::UInt(a.enqueued)),
                ("dequeued".into(), Json::UInt(a.dequeued)),
                ("shed".into(), Json::UInt(a.shed)),
                ("stall_ticks".into(), Json::UInt(a.stall_ticks)),
                ("max_depth".into(), Json::UInt(a.max_depth as u64)),
            ])
        };
        Json::Obj(vec![
            ("events".into(), Json::UInt(self.events)),
            ("detected".into(), Json::UInt(self.detected)),
            ("vulnerable".into(), Json::UInt(self.vulnerable)),
            ("drifting".into(), Json::UInt(self.drifting)),
            ("shed".into(), Json::UInt(self.shed)),
            ("stall_ticks".into(), Json::UInt(self.stall_ticks)),
            ("rounds".into(), Json::UInt(self.rounds as u64)),
            ("ticks".into(), Json::UInt(self.ticks)),
            (
                "detections_digest".into(),
                Json::Str(format!("fnv1a:{:016x}", self.digest)),
            ),
            (
                "actors".into(),
                Json::Arr(self.actors.iter().map(actor).collect()),
            ),
        ])
    }
}

/// Result of a full pipeline run.
#[derive(Debug)]
pub struct StreamOutcome {
    pub stats: StreamStats,
    /// One entry per telemetry round, feeding the existing critical-path
    /// report section and renderer.
    pub critical_path: Vec<CriticalPathEntry>,
}

struct MaintainJob {
    seq: u64,
    ingest_tick: u64,
    ev: HomeEvent,
}

struct DetectJob {
    seq: u64,
    ingest_tick: u64,
    home: usize,
    /// The home's maintainer revision once this job's event was applied.
    revision: u64,
    graph: Arc<InteractionGraph>,
}

struct Shard {
    mailbox: Mailbox<DetectJob>,
    /// Maintainer stalls attributed to this shard's full mailbox.
    stalls: u64,
}

/// Per-round deltas handed to [`close_round`].
struct RoundDelta {
    round: usize,
    ticks: u64,
    events: u64,
    ingest_stalls: u64,
    shard_stalls: Vec<u64>,
    shed: u64,
    maintain_depth: usize,
}

fn close_round(
    reg: &Arc<Registry>,
    telemetry: &mut Option<&mut FleetTelemetry>,
    shards: &[Shard],
    delta: &RoundDelta,
    critical_path: &mut Vec<CriticalPathEntry>,
) {
    // Depth gauges: per actor, plus the fleet-wide maximum.
    reg.gauge_set(
        "stream.actor.mailbox_depth.maintain",
        delta.maintain_depth as f64,
    );
    let mut max_depth = delta.maintain_depth;
    for (i, s) in shards.iter().enumerate() {
        reg.gauge_set(
            &format!("stream.actor.mailbox_depth.shard[{i}]"),
            s.mailbox.depth() as f64,
        );
        max_depth = max_depth.max(s.mailbox.depth());
    }
    reg.gauge_set("stream.actor.mailbox_depth", max_depth as f64);
    reg.gauge_set("stream.ingest.events_per_round", delta.events as f64);
    // p99 virtual-time latency over the run so far (cumulative histogram).
    let snap = reg.metrics_snapshot();
    if let Some(p99) = snap
        .histograms
        .get("stream.detect.latency_ticks")
        .and_then(|h| h.quantile(0.99))
    {
        reg.gauge_set("stream.detect.latency_p99_ticks", p99);
    }

    // Backpressure attribution: which congested edge dominated this round?
    let mut top_shard: Option<usize> = None;
    let mut top = 0u64;
    for (i, &d) in delta.shard_stalls.iter().enumerate() {
        if d > top {
            top = d;
            top_shard = Some(i);
        }
    }
    let backoff: u64 = delta.shard_stalls.iter().sum();
    let cause = if delta.ingest_stalls > 0 && delta.ingest_stalls >= top {
        "maintain".to_string()
    } else if let Some(i) = top_shard {
        format!("shard[{i}]")
    } else {
        "none".to_string()
    };

    if let Some(tel) = telemetry.as_deref_mut() {
        let failing = tel.observe_round(delta.round as u64, &reg.metrics_snapshot());
        reg.mark(&format!("slo_failing[{failing}]"));
    }
    reg.mark(&format!("stream_backpressure[{cause}]"));

    critical_path.push(CriticalPathEntry {
        round: delta.round,
        client: if top > 0 && top >= delta.ingest_stalls {
            top_shard
        } else {
            None
        },
        total_ticks: delta.ticks,
        straggler_ticks: delta.ingest_stalls,
        backoff_ticks: backoff,
        agg_ticks: 0,
        retries: delta.shed,
        cause: if delta.ingest_stalls + backoff > 0 {
            "backpressure"
        } else {
            "idle"
        },
    });
}

/// Runs the full pipeline to completion: every source event is ingested,
/// fused, and (unless shed) detected; the run ends when all mailboxes drain.
///
/// All deterministic metrics go to `reg`; when `telemetry` is attached its
/// specs are sampled at every round boundary and SLO rules evaluated
/// (surfaced as `slo_failing[n]` marks, exactly like the federated trainer).
pub fn run_stream<D: Detector>(
    graphs: &[InteractionGraph],
    events: &[HomeEvent],
    detector: &D,
    cfg: &StreamConfig,
    reg: &Arc<Registry>,
    mut telemetry: Option<&mut FleetTelemetry>,
) -> StreamOutcome {
    assert!(cfg.shards > 0, "need at least one detection shard");
    assert!(
        cfg.ingest_rate > 0 && cfg.maintain_rate > 0 && cfg.detect_rate > 0,
        "per-tick rates must be positive"
    );
    assert!(cfg.round_events > 0, "round_events must be positive");
    for ev in events {
        assert!(ev.home < graphs.len(), "event for unknown home {}", ev.home);
    }

    let _run_span = reg.span("stream.run");
    let mut maintainers: Vec<HomeMaintainer> = graphs.iter().map(HomeMaintainer::new).collect();
    let mut maintain_mb: Mailbox<MaintainJob> =
        Mailbox::new("maintain", cfg.mailbox_cap, cfg.overflow);
    let mut shards: Vec<Shard> = (0..cfg.shards)
        .map(|i| Shard {
            mailbox: Mailbox::new(format!("shard[{i}]"), cfg.mailbox_cap, cfg.overflow),
            stalls: 0,
        })
        .collect();

    let mut tick: u64 = 0;
    let mut seq: u64 = 0;
    let mut next_event = 0usize;
    let mut ingest_hold: Option<MaintainJob> = None;
    let mut route_hold: Option<DetectJob> = None;
    let mut ingest_stalls: u64 = 0;

    // Detection tallies, accumulated in shard order.
    let mut detected: u64 = 0;
    let mut vulnerable: u64 = 0;
    let mut drifting: u64 = 0;
    let mut digest: u64 = FNV1A_OFFSET;
    // Per home: the last revision the detector scored, and its verdict.
    // Compared against detected jobs only, so a shed job never leaves a
    // stale verdict behind.
    let mut last_detected: Vec<Option<(u64, StreamVerdict)>> = vec![None; graphs.len()];

    // Round bookkeeping: values at the current round's open.
    let mut round = 0usize;
    let mut open_tick: u64 = 0;
    let mut open_ingested: u64 = 0;
    let mut open_ingest_stalls: u64 = 0;
    let mut open_shard_stalls: Vec<u64> = vec![0; cfg.shards];
    let mut open_shed: u64 = 0;
    let mut critical_path: Vec<CriticalPathEntry> = Vec::new();
    reg.mark(&format!("round[{round}]"));

    loop {
        let drained = next_event >= events.len()
            && ingest_hold.is_none()
            && route_hold.is_none()
            && maintain_mb.is_empty()
            && shards.iter().all(|s| s.mailbox.is_empty());
        if drained {
            break;
        }

        // Round boundary: close the current round once its event budget has
        // been ingested. (The drain tail after the source empties stays in
        // the final round, closed after the loop.)
        if seq >= (round as u64 + 1) * cfg.round_events as u64 {
            let total_shed = maintain_mb.shed + shards.iter().map(|s| s.mailbox.shed).sum::<u64>();
            let delta = RoundDelta {
                round,
                ticks: tick - open_tick,
                events: seq - open_ingested,
                ingest_stalls: ingest_stalls - open_ingest_stalls,
                shard_stalls: shards
                    .iter()
                    .zip(&open_shard_stalls)
                    .map(|(s, b)| s.stalls - b)
                    .collect(),
                shed: total_shed - open_shed,
                maintain_depth: maintain_mb.depth(),
            };
            close_round(reg, &mut telemetry, &shards, &delta, &mut critical_path);
            round += 1;
            open_tick = tick;
            open_ingested = seq;
            open_ingest_stalls = ingest_stalls;
            for (i, s) in shards.iter().enumerate() {
                open_shard_stalls[i] = s.stalls;
            }
            open_shed = total_shed;
            reg.mark(&format!("round[{round}]"));
        }

        tick += 1;

        // ── Ingest stage ────────────────────────────────────────────────
        let mut ingest_stalled = false;
        for _ in 0..cfg.ingest_rate {
            if ingest_hold.is_none() {
                if next_event >= events.len() {
                    break;
                }
                let ev = events[next_event].clone();
                next_event += 1;
                seq += 1;
                reg.counter_add("stream.ingest.events", 1);
                ingest_hold = Some(MaintainJob {
                    seq,
                    ingest_tick: tick,
                    ev,
                });
            }
            let job = ingest_hold.take().expect("hold populated above");
            match maintain_mb.push(job, reg) {
                PushOutcome::Queued | PushOutcome::Shed => {}
                PushOutcome::Blocked(job) => {
                    ingest_hold = Some(job);
                    ingest_stalled = true;
                    break;
                }
            }
        }
        if ingest_stalled {
            ingest_stalls += 1;
            reg.counter_add("stream.backpressure.stall_ticks", 1);
        }

        // ── Maintain stage ──────────────────────────────────────────────
        // Fuse up to `maintain_rate` events into their home graphs, routing
        // each detection job to its shard (`home % shards`). A blocked route
        // holds the job and stalls the stage: head-of-line blocking, the
        // honest semantics of a single maintainer actor.
        let mut blocked_shard: Option<usize> = None;
        let mut fused = 0usize;
        loop {
            if let Some(job) = route_hold.take() {
                let s = job.home % cfg.shards;
                match shards[s].mailbox.push(job, reg) {
                    PushOutcome::Queued | PushOutcome::Shed => {}
                    PushOutcome::Blocked(job) => {
                        route_hold = Some(job);
                        blocked_shard = Some(s);
                        break;
                    }
                }
            }
            if fused >= cfg.maintain_rate {
                break;
            }
            let Some(mj) = maintain_mb.pop(reg) else {
                break;
            };
            fused += 1;
            let home = mj.ev.home;
            let maintainer = &mut maintainers[home];
            maintainer.apply(mj.ev.event);
            reg.counter_add("stream.maintain.events", 1);
            route_hold = Some(DetectJob {
                seq: mj.seq,
                ingest_tick: mj.ingest_tick,
                home,
                revision: maintainer.revision(),
                graph: maintainer.snapshot(),
            });
        }
        if let Some(s) = blocked_shard {
            shards[s].stalls += 1;
            reg.counter_add("stream.backpressure.stall_ticks", 1);
        }

        // ── Detect stage ────────────────────────────────────────────────
        for (i, shard) in shards.iter_mut().enumerate() {
            let budget = if cfg.slow_shard == Some(i) {
                1
            } else {
                cfg.detect_rate
            };
            for _ in 0..budget {
                let Some(job) = shard.mailbox.pop(reg) else {
                    break;
                };
                let t0 = std::time::Instant::now();
                let verdict = match last_detected[job.home] {
                    Some((revision, verdict)) if revision == job.revision => verdict,
                    _ => {
                        let verdict = detector.detect(&job.graph);
                        last_detected[job.home] = Some((job.revision, verdict));
                        verdict
                    }
                };
                reg.hist_record(
                    "stream.detect.latency_us",
                    buckets::TIME_US,
                    t0.elapsed().as_micros() as f64,
                );
                reg.hist_record(
                    "stream.detect.latency_ticks",
                    &LATENCY_TICK_EDGES,
                    (tick - job.ingest_tick) as f64,
                );
                reg.counter_add("stream.detect.events", 1);
                if verdict.vulnerable {
                    reg.counter_add("stream.detect.vulnerable", 1);
                }
                if verdict.drifting {
                    reg.counter_add("stream.detect.drifting", 1);
                }
                detected += 1;
                vulnerable += u64::from(verdict.vulnerable);
                drifting += u64::from(verdict.drifting);
                let flags = [u8::from(verdict.vulnerable), u8::from(verdict.drifting)];
                digest = fnv1a_extend(digest, &job.seq.to_le_bytes());
                digest = fnv1a_extend(digest, &flags);
                digest = fnv1a_extend(digest, &verdict.score.to_bits().to_le_bytes());
            }
        }
    }

    // End of stream: close the final round.
    let total_shed = maintain_mb.shed + shards.iter().map(|s| s.mailbox.shed).sum::<u64>();
    let delta = RoundDelta {
        round,
        ticks: tick - open_tick,
        events: seq - open_ingested,
        ingest_stalls: ingest_stalls - open_ingest_stalls,
        shard_stalls: shards
            .iter()
            .zip(&open_shard_stalls)
            .map(|(s, b)| s.stalls - b)
            .collect(),
        shed: total_shed - open_shed,
        maintain_depth: maintain_mb.depth(),
    };
    close_round(reg, &mut telemetry, &shards, &delta, &mut critical_path);

    let mut actors = vec![ActorStats {
        name: maintain_mb.name().to_string(),
        capacity: maintain_mb.capacity(),
        policy: maintain_mb.policy().name(),
        enqueued: maintain_mb.enqueued,
        dequeued: maintain_mb.dequeued,
        shed: maintain_mb.shed,
        stall_ticks: ingest_stalls,
        max_depth: maintain_mb.max_depth,
    }];
    for s in &shards {
        actors.push(ActorStats {
            name: s.mailbox.name().to_string(),
            capacity: s.mailbox.capacity(),
            policy: s.mailbox.policy().name(),
            enqueued: s.mailbox.enqueued,
            dequeued: s.mailbox.dequeued,
            shed: s.mailbox.shed,
            stall_ticks: s.stalls,
            max_depth: s.mailbox.max_depth,
        });
    }

    let stats = StreamStats {
        events: events.len() as u64,
        detected,
        vulnerable,
        drifting,
        shed: total_shed,
        stall_ticks: ingest_stalls + shards.iter().map(|s| s.stalls).sum::<u64>(),
        rounds: round + 1,
        ticks: tick,
        digest,
        actors,
    };
    StreamOutcome {
        stats,
        critical_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{replay_fleet, FleetConfig};
    use crate::RuntimeDetector;

    fn small_fleet() -> crate::source::Fleet {
        replay_fleet(&FleetConfig {
            homes: 4,
            home_size: 5,
            seed: 11,
            ..FleetConfig::default()
        })
    }

    #[test]
    fn pipeline_detects_every_event_under_block_policy() {
        let fleet = small_fleet();
        let reg = Arc::new(Registry::with_enabled(true));
        let out = run_stream(
            &fleet.graphs,
            &fleet.events,
            &RuntimeDetector::default(),
            &StreamConfig::default(),
            &reg,
            None,
        );
        assert_eq!(out.stats.events, fleet.events.len() as u64);
        // Block never drops: every event reaches detection.
        assert_eq!(out.stats.shed, 0);
        assert_eq!(out.stats.detected, out.stats.events);
        assert!(out.stats.ticks > 0);
        assert_eq!(out.critical_path.len(), out.stats.rounds);
        let snap = reg.metrics_snapshot();
        assert_eq!(
            snap.counters.get("stream.detect.events").copied(),
            Some(out.stats.detected)
        );
        assert_eq!(
            snap.counters.get("stream.ingest.events").copied(),
            Some(out.stats.events)
        );
        assert!(snap.histograms.contains_key("stream.detect.latency_ticks"));
    }

    #[test]
    fn same_seed_same_digest_and_metrics() {
        let fleet = small_fleet();
        let run = || {
            let reg = Arc::new(Registry::with_enabled(true));
            let out = run_stream(
                &fleet.graphs,
                &fleet.events,
                &RuntimeDetector::default(),
                &StreamConfig::default(),
                &reg,
                None,
            );
            let snap = reg.metrics_snapshot();
            (out.stats.digest, snap.counters, snap.gauges)
        };
        let (d1, c1, mut g1) = run();
        let (d2, c2, mut g2) = run();
        assert_eq!(d1, d2);
        assert_eq!(c1, c2);
        // Wall-clock gauges are the documented exception.
        g1.retain(|k, _| !fexiot_obs::is_timing_name(k));
        g2.retain(|k, _| !fexiot_obs::is_timing_name(k));
        assert_eq!(g1, g2);
    }

    #[test]
    fn shed_policy_drops_under_overload_and_counts_exactly() {
        let fleet = small_fleet();
        let reg = Arc::new(Registry::with_enabled(true));
        let cfg = StreamConfig {
            overflow: Overflow::Shed,
            mailbox_cap: 2,
            ingest_rate: 16,
            maintain_rate: 16,
            detect_rate: 1,
            ..StreamConfig::default()
        };
        let out = run_stream(
            &fleet.graphs,
            &fleet.events,
            &RuntimeDetector::default(),
            &cfg,
            &reg,
            None,
        );
        assert!(out.stats.shed > 0, "overload must shed");
        assert_eq!(out.stats.detected + out.stats.shed, out.stats.events);
        let snap = reg.metrics_snapshot();
        assert_eq!(
            snap.counters.get("stream.mailbox.shed").copied(),
            Some(out.stats.shed)
        );
        // Shed never stalls: the pipeline keeps pace with the source.
        assert_eq!(out.stats.stall_ticks, 0);
    }

    #[test]
    fn slow_shard_creates_attributed_backpressure() {
        // A longer simulation so the slow shard's queue actually saturates.
        let mut fc = FleetConfig {
            homes: 4,
            home_size: 5,
            seed: 11,
            ..FleetConfig::default()
        };
        fc.sim.duration *= 4;
        let fleet = replay_fleet(&fc);
        let reg = Arc::new(Registry::with_enabled(true));
        let cfg = StreamConfig {
            shards: 2,
            slow_shard: Some(1),
            mailbox_cap: 8,
            ..StreamConfig::default()
        };
        let out = run_stream(
            &fleet.graphs,
            &fleet.events,
            &RuntimeDetector::default(),
            &cfg,
            &reg,
            None,
        );
        assert!(
            out.stats.stall_ticks > 0,
            "slow shard must stall the pipeline"
        );
        let bp: Vec<_> = out
            .critical_path
            .iter()
            .filter(|e| e.cause == "backpressure")
            .collect();
        assert!(!bp.is_empty());
        // Block policy still loses nothing.
        assert_eq!(out.stats.shed, 0);
        assert_eq!(out.stats.detected, out.stats.events);
    }

    #[test]
    fn empty_source_still_produces_one_round() {
        let fleet = small_fleet();
        let reg = Arc::new(Registry::with_enabled(true));
        let out = run_stream(
            &fleet.graphs,
            &[],
            &RuntimeDetector::default(),
            &StreamConfig::default(),
            &reg,
            None,
        );
        assert_eq!(out.stats.events, 0);
        assert_eq!(out.stats.rounds, 1);
        assert_eq!(out.critical_path.len(), 1);
        assert_eq!(out.critical_path[0].cause, "idle");
    }

    #[test]
    fn stream_section_json_is_structurally_sound() {
        let fleet = small_fleet();
        let reg = Arc::new(Registry::with_enabled(true));
        let out = run_stream(
            &fleet.graphs,
            &fleet.events,
            &RuntimeDetector::default(),
            &StreamConfig::default(),
            &reg,
            None,
        );
        let json = out.stats.to_json();
        assert!(json.get("events").is_some());
        let actors = match json.get("actors") {
            Some(Json::Arr(a)) => a,
            other => panic!("actors must be an array, got {other:?}"),
        };
        assert_eq!(actors.len(), 1 + StreamConfig::default().shards);
        let digest = json.get("detections_digest").and_then(|j| j.as_str());
        assert!(digest.is_some_and(|d| d.starts_with("fnv1a:")));
    }
}
