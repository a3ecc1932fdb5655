//! Integration test for `obs-export --watch --once`: record an event stream
//! the way FedSim emits one, replay it through the real binary, and assert
//! the rendered fleet view — cohort counts, quorum margin, and SLO status.

use fexiot_obs::Registry;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;

fn temp_stream(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fexiot-watch-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join("stream.jsonl")
}

/// Records `events` to a JSONL stream file and returns the frame printed by
/// `obs-export --watch --once` for it.
fn watch_once(path: &PathBuf, record: impl FnOnce(&Registry)) -> String {
    let file = std::fs::File::create(path).expect("create stream file");
    let reg = Arc::new(Registry::new());
    reg.set_stream(Box::new(file), "watch-e2e", false);
    record(&reg);
    drop(reg.take_stream());

    let out = Command::new(env!("CARGO_BIN_EXE_obs-export"))
        .args(["--watch", "--once"])
        .arg(path)
        .output()
        .expect("run obs-export");
    assert!(
        out.status.success(),
        "obs-export failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 frame")
}

#[test]
fn watch_once_renders_fleet_view_from_recorded_stream() {
    let path = temp_stream("fleet");
    let frame = watch_once(&path, |reg| {
        // Round 0: healthy, all rules passing.
        reg.mark("round[0]");
        reg.counter_add("fed.sim.sampled", 16);
        reg.counter_add("fed.sim.participants", 14);
        reg.counter_add("fed.sim.dropped", 2);
        reg.mark("slo_failing[0]");
        // Round 1: an aggregator crash degrades the round; the root-cause
        // engine names it. The watch view shows this round's deltas only.
        reg.mark("round[1]");
        reg.counter_add("fed.sim.sampled", 16);
        reg.counter_add("fed.sim.participants", 9);
        reg.counter_add("fed.sim.dropped", 5);
        reg.counter_add("fed.sim.quarantined", 2);
        reg.counter_add("fed.agg.down", 1);
        reg.counter_add("fed.agg.reassigned", 8);
        reg.counter_add("fed.agg.deadline_missed", 1);
        reg.counter_add("fed.sim.stale_accepted", 3);
        reg.counter_add("fed.sim.retried_messages", 2);
        reg.counter_add("fed.sim.lost_messages", 1);
        reg.counter_add("fed.sim.backoff_ticks", 6);
        reg.gauge_set("fed.round.quorum_margin", -0.125);
        reg.gauge_set("fed.sim.mean_loss", 0.4375);
        reg.mark("slo_failing[1]");
        reg.mark("slo_top_cause[agg_crash]");
    });

    assert!(frame.contains("── obs watch · run watch-e2e ──"), "{frame}");
    assert!(frame.contains("round 1 in flight · 2 started"), "{frame}");
    assert!(
        frame.contains("cohort: sampled 16  participants 9  dropped 5  quarantined 2"),
        "{frame}"
    );
    assert!(
        frame.contains("aggregators: down 1  reassigned 8  quorum aborts 0  deadline misses 1"),
        "{frame}"
    );
    assert!(
        frame.contains("quorum margin: -0.125 (weight above threshold)"),
        "{frame}"
    );
    assert!(
        frame.contains("SLO: 1 failing · top cause agg_crash"),
        "{frame}"
    );
    assert!(
        frame.contains("attribution: stale accepted 3  retries 2  lost msgs 1  backoff ticks 6"),
        "{frame}"
    );
    assert!(frame.contains("mean loss 0.4375"), "{frame}");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn watch_once_clears_top_cause_when_rules_recover() {
    let path = temp_stream("recover");
    let frame = watch_once(&path, |reg| {
        reg.mark("round[0]");
        reg.mark("slo_failing[2]");
        reg.mark("slo_top_cause[crash]");
        // Recovery: the newest verdict count wins and a zero clears the
        // stale top cause.
        reg.mark("round[1]");
        reg.counter_add("fed.sim.sampled", 4);
        reg.counter_add("fed.sim.participants", 4);
        reg.mark("slo_failing[0]");
    });

    assert!(frame.contains("SLO: all rules passing"), "{frame}");
    assert!(!frame.contains("top cause"), "{frame}");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn watch_once_banners_when_no_slo_rules_loaded() {
    // A stream with no `slo_failing` marks (no SLO engine attached) must say
    // so explicitly instead of rendering an empty verdict area.
    let path = temp_stream("noslo");
    let frame = watch_once(&path, |reg| {
        reg.mark("round[0]");
        reg.counter_add("fed.sim.participants", 4);
    });
    assert!(frame.contains("SLO: no rules loaded"), "{frame}");
    assert!(!frame.contains("all rules passing"), "{frame}");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn watch_once_renders_streaming_lanes_for_serve_streams() {
    let path = temp_stream("stream");
    let frame = watch_once(&path, |reg| {
        reg.mark("round[0]");
        reg.counter_add("stream.ingest.events", 64);
        reg.counter_add("stream.detect.events", 60);
        reg.counter_add("stream.mailbox.shed", 3);
        reg.gauge_set("stream.actor.mailbox_depth", 7.0);
        reg.gauge_set("stream.detect.latency_p99_ticks", 5.0);
        reg.mark("slo_failing[1]");
        reg.mark("stream_backpressure[shard[1]]");
        // Round 1 deltas are what the frame shows.
        reg.mark("round[1]");
        reg.counter_add("stream.ingest.events", 10);
        reg.counter_add("stream.detect.events", 8);
        reg.counter_add("stream.mailbox.shed", 1);
    });
    assert!(
        frame.contains("stream (round): ingested 10  detected 8  shed 1"),
        "{frame}"
    );
    assert!(
        frame.contains("mailboxes: depth max 7  p99 latency 5.0 ticks  backpressure shard[1]"),
        "{frame}"
    );
    assert!(frame.contains("SLO: 1 failing"), "{frame}");
    // A serve stream carries no federated metrics: those lanes are omitted.
    assert!(!frame.contains("cohort:"), "{frame}");
    assert!(!frame.contains("aggregators:"), "{frame}");
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
