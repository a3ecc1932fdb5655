//! Integration tests for the JSONL event stream, child-registry trace
//! merging, and the schema-check helpers.

use fexiot_obs::stream::{event_to_line, parse_stream};
use fexiot_obs::{check_report_file, collect_report_paths, deterministic_json, Event, Registry};
use std::sync::{Arc, Mutex};

fn registry() -> Arc<Registry> {
    Arc::new(Registry::with_enabled(true))
}

#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn new() -> Self {
        Self(Arc::new(Mutex::new(Vec::new())))
    }
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn stream_round_trips_through_the_parser() {
    let reg = registry();
    let buf = SharedBuf::new();
    reg.set_stream(Box::new(buf.clone()), "rt", true);
    {
        let _outer = reg.span("outer");
        let _inner = reg.span("inner.op");
        reg.counter_add("t.count", 2);
        reg.counter_add("t.count", 3);
        reg.gauge_set("t.gauge", 0.5);
        reg.hist_record("t.hist", &[0.0, 1.0, 2.0], 1.5);
        reg.mark("phase[1]");
    }
    drop(reg.take_stream());

    let (run, events) = parse_stream(&buf.text()).expect("stream parses");
    assert_eq!(run, "rt");
    // Events survive the write→parse round trip exactly (timing included,
    // so span_close keeps its elapsed_us).
    let reparsed: Vec<String> = events
        .iter()
        .map(|e| event_to_line(e, true).expect("round-tripped event serializes"))
        .collect();
    let text = buf.text();
    let original: Vec<&str> = text.lines().skip(1).collect();
    assert_eq!(reparsed, original);
    // Order is call order: outer opens before inner, inner closes first.
    let names: Vec<&str> = events.iter().map(|e| e.event.name()).collect();
    let pos = |n: &str| names.iter().position(|&x| x == n).unwrap_or(usize::MAX);
    assert!(pos("outer") < pos("inner.op"));
    let closes: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.event, Event::SpanClose { .. }))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(closes.len(), 2);
    assert_eq!(events[closes[0]].event.name(), "inner.op");
    assert_eq!(events[closes[1]].event.name(), "outer");
}

#[test]
fn timing_excluded_stream_drops_wall_clock_fields() {
    let reg = registry();
    let buf = SharedBuf::new();
    reg.set_stream(Box::new(buf.clone()), "notiming", false);
    {
        let _s = reg.span("op");
        reg.hist_record("op.step_us", &[0.0, 1e3, 1e6], 42.0);
        reg.hist_record("op.norm", &[0.0, 1.0], 0.5);
    }
    drop(reg.take_stream());
    let text = buf.text();
    assert!(!text.contains("elapsed_us"), "span timing leaked: {text}");
    assert!(!text.contains("step_us"), "timing histogram leaked: {text}");
    assert!(
        text.contains("op.norm"),
        "non-timing histogram missing: {text}"
    );
    parse_stream(&text).expect("timing-excluded stream still parses");
}

#[test]
fn parse_stream_rejects_corrupt_input() {
    assert!(parse_stream("").is_err(), "empty input has no header");
    assert!(
        parse_stream("{\"schema\":\"bogus/v9\",\"run\":\"x\"}\n").is_err(),
        "wrong schema must be rejected"
    );
    let good = "{\"schema\":\"fexiot-obs-events/v1\",\"run\":\"x\"}\n";
    assert!(
        parse_stream(good).is_ok(),
        "header-only stream is empty but valid"
    );
    let out_of_order = format!(
        "{good}{}\n{}\n",
        "{\"seq\":1,\"ev\":\"mark\",\"name\":\"a\"}", "{\"seq\":1,\"ev\":\"mark\",\"name\":\"b\"}"
    );
    assert!(
        parse_stream(&out_of_order).is_err(),
        "non-increasing seq must be rejected"
    );
}

#[test]
fn absorb_merges_child_trace_under_the_open_span() {
    let parent = registry();
    let child = registry();
    {
        let _s = child.span("child.work");
        child.counter_add("child.items", 7);
        child.hist_record("child.norm", &[0.0, 1.0, 10.0], 0.5);
    }
    {
        let _round = parent.span("round[0]");
        let _client = parent.span("client[0]");
        assert_eq!(parent.absorb(&child.snapshot()), 0, "no hist mismatches");
    }
    let snap = parent.snapshot();
    let round = snap.find_span("round[0]").expect("round span");
    let client = round
        .children
        .iter()
        .find(|s| s.name == "client[0]")
        .expect("client span");
    assert!(
        client.children.iter().any(|s| s.name == "child.work"),
        "child span not attached under client[0]: {client:?}"
    );
    assert_eq!(snap.counters["child.items"], 7);
    assert_eq!(snap.histograms["child.norm"].count, 1);

    // Absorbing a second snapshot accumulates counters and histograms.
    let child2 = registry();
    child2.counter_add("child.items", 3);
    child2.hist_record("child.norm", &[0.0, 1.0, 10.0], 2.0);
    parent.absorb(&child2.snapshot());
    let snap = parent.snapshot();
    assert_eq!(snap.counters["child.items"], 10);
    assert_eq!(snap.histograms["child.norm"].count, 2);
}

#[test]
fn absorb_counts_edge_mismatched_histograms_instead_of_merging() {
    let parent = registry();
    parent.hist_record("shared.h", &[0.0, 1.0], 0.5);
    let child = registry();
    child.hist_record("shared.h", &[0.0, 2.0, 4.0], 1.0);
    assert_eq!(
        parent.absorb(&child.snapshot()),
        1,
        "edge mismatch reported"
    );
    let snap = parent.snapshot();
    assert_eq!(
        snap.histograms["shared.h"].count, 1,
        "mismatched histogram must not be merged"
    );
}

#[test]
fn timing_histograms_stay_out_of_deterministic_exports() {
    let reg = registry();
    reg.hist_record("work.step_us", &[0.0, 1e3, 1e6], 123.0);
    reg.hist_record("work.norm", &[0.0, 1.0, 10.0], 0.7);
    let json = deterministic_json(&reg.snapshot(), "t");
    assert!(!json.contains("step_us"), "timing histogram leaked: {json}");
    assert!(json.contains("work.norm"), "non-timing histogram missing");
}

#[test]
fn schema_check_helpers_walk_files_and_directories() {
    let dir = std::env::temp_dir().join(format!("fexiot-obs-sc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let reg = registry();
    reg.counter_add("t.count", 1);
    let good =
        fexiot_obs::write_report(&dir, "good", &reg.snapshot(), &Default::default()).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"schema\":\"nope\"}").unwrap();

    assert!(check_report_file(&good).is_ok());
    let err = check_report_file(&bad).unwrap_err();
    assert!(err.contains("schema"), "unhelpful error: {err}");

    // A directory argument expands to every *.json inside, sorted.
    let paths = collect_report_paths(std::slice::from_ref(&dir)).unwrap();
    assert_eq!(paths, vec![bad.clone(), good.clone()]);
    // Empty directories are an error, not a silent pass.
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    assert!(collect_report_paths(&[empty]).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
