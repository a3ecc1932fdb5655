//! The detect stage scores each home state once: on the two fleets that
//! `golden.rs` pins, the detector runs exactly once per distinct
//! `(home, revision)` among the jobs that reach detection, far fewer times
//! than there are events, and the detections digest stays the golden one.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

use fexiot_graph::InteractionGraph;
use fexiot_obs::Registry;
use fexiot_stream::{
    replay_fleet, run_stream, Detector, Fleet, FleetConfig, HomeEvent, HomeMaintainer, Mailbox,
    Overflow, RuntimeDetector, StreamConfig, StreamVerdict,
};

/// [`RuntimeDetector`], counting its calls.
#[derive(Default)]
struct Counting {
    inner: RuntimeDetector,
    calls: Cell<u64>,
}

impl Detector for Counting {
    fn detect(&self, graph: &InteractionGraph) -> StreamVerdict {
        self.calls.set(self.calls.get() + 1);
        self.inner.detect(graph)
    }
}

/// `(home, revision)` of every job the pipeline detects, from a replay of
/// its schedule. Under block every event is detected, in order. Under shed
/// nothing blocks, so each tick is: ingest into the maintainer's mailbox,
/// fuse and route, then drain each shard within its budget.
fn detected_jobs(fleet: &Fleet, cfg: &StreamConfig) -> Vec<(usize, u64)> {
    let mut homes: Vec<HomeMaintainer> = fleet.graphs.iter().map(HomeMaintainer::new).collect();
    let mut fuse = |ev: &HomeEvent| {
        let home = &mut homes[ev.home];
        home.apply(ev.event.clone());
        (ev.home, home.revision())
    };
    if cfg.overflow == Overflow::Block {
        return fleet.events.iter().map(fuse).collect();
    }
    let reg = Arc::new(Registry::with_enabled(false));
    let mut inbox = Mailbox::new("maintain", cfg.mailbox_cap, Overflow::Shed);
    let mut shards: Vec<Mailbox<(usize, u64)>> = (0..cfg.shards)
        .map(|i| Mailbox::new(format!("shard[{i}]"), cfg.mailbox_cap, Overflow::Shed))
        .collect();
    let mut source = fleet.events.iter();
    let mut detected = Vec::new();
    while source.len() > 0 || !inbox.is_empty() || shards.iter().any(|s| !s.is_empty()) {
        for ev in source.by_ref().take(cfg.ingest_rate) {
            inbox.push(ev, &reg);
        }
        for _ in 0..cfg.maintain_rate {
            let Some(ev) = inbox.pop(&reg) else { break };
            let job = fuse(ev);
            shards[job.0 % cfg.shards].push(job, &reg);
        }
        for (i, shard) in shards.iter_mut().enumerate() {
            let budget = if cfg.slow_shard == Some(i) {
                1
            } else {
                cfg.detect_rate
            };
            detected.extend((0..budget).map_while(|_| shard.pop(&reg)));
        }
    }
    detected
}

fn check(name: &str, fleet_cfg: &FleetConfig, cfg: &StreamConfig, golden_digest: u64) {
    let fleet = replay_fleet(fleet_cfg);
    let detector = Counting::default();
    let reg = Arc::new(Registry::with_enabled(true));
    let out = run_stream(&fleet.graphs, &fleet.events, &detector, cfg, &reg, None);
    let jobs = detected_jobs(&fleet, cfg);
    assert_eq!(
        jobs.len() as u64,
        out.stats.detected,
        "{name}: schedule replay"
    );
    let states: BTreeSet<_> = jobs.iter().collect();
    let calls = detector.calls.get();
    assert_eq!(
        calls,
        states.len() as u64,
        "{name}: one call per home revision"
    );
    assert!(
        calls < out.stats.events,
        "{name}: {calls} calls for {} events",
        out.stats.events
    );
    // A reused verdict is recorded like a detection.
    let counted = reg
        .metrics_snapshot()
        .counters
        .get("stream.detect.events")
        .copied();
    assert_eq!(counted, Some(out.stats.detected), "{name}");
    assert_eq!(
        out.stats.digest, golden_digest,
        "{name}: detections drifted"
    );
}

#[test]
fn block_fleet_detects_each_home_revision_once() {
    let mut fleet = FleetConfig {
        homes: 6,
        home_size: 6,
        seed: 42,
        ..FleetConfig::default()
    };
    fleet.sim.duration *= 4;
    let cfg = StreamConfig {
        shards: 2,
        slow_shard: Some(1),
        mailbox_cap: 8,
        ..StreamConfig::default()
    };
    check("block", &fleet, &cfg, 0x21F22156AB4E5469);
}

#[test]
fn shed_fleet_detects_each_home_revision_once() {
    let fleet = FleetConfig {
        homes: 5,
        home_size: 5,
        seed: 23,
        ..FleetConfig::default()
    };
    let cfg = StreamConfig {
        overflow: Overflow::Shed,
        mailbox_cap: 4,
        round_events: 24,
        ..StreamConfig::default()
    };
    check("shed", &fleet, &cfg, 0xF8654A3FAF800408);
}
