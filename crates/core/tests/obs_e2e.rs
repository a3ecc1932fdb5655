//! End-to-end observability: a tiny federated run with the global registry
//! enabled must export a well-formed run report whose span tree covers the
//! data pipeline and the federated rounds, and whose non-timing fields are
//! bit-identical across two same-seed runs. Every view of a faulty round —
//! the round report, the registry's counters and the watch frame rendered
//! from the event stream — must agree.

use fexiot::{build_federation, FederationConfig, FexIotConfig};
use fexiot_fed::{
    Corruption, Failover, FaultPlan, RoundReport, RoundTelemetry, Sampling, Topology,
};
use fexiot_graph::{generate_dataset, DatasetConfig};
use fexiot_obs::{
    deterministic_json, validate_report, Json, Registry, Snapshot, Timing, WatchState,
};
use fexiot_tensor::Rng;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes the tests in this binary: they all mutate the process-global
/// registry.
static GLOBAL_OBS: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    GLOBAL_OBS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Generates a dataset, builds a 2-client federation, and runs one round
/// with the global registry attached; returns the registry snapshot.
fn tiny_run(seed: u64) -> Snapshot {
    let reg = fexiot_obs::global();
    reg.reset();
    fexiot_obs::set_global_enabled(true);

    let mut rng = Rng::seed_from_u64(seed);
    let mut cfg = DatasetConfig::small_ifttt();
    cfg.graph_count = 40;
    let ds = generate_dataset(&cfg, &mut rng);
    let (train, _test) = ds.train_test_split(0.8, &mut rng);

    let mut pipeline = FexIotConfig::default().with_seed(seed);
    pipeline.contrastive.epochs = 1;
    pipeline.contrastive.pairs_per_epoch = 8;
    let config = FederationConfig {
        n_clients: 2,
        rounds: 1,
        pipeline,
        ..Default::default()
    };
    let mut sim = build_federation(&train, &config);
    sim.attach_obs(Arc::clone(reg));
    sim.run();

    let snap = reg.snapshot();
    fexiot_obs::set_global_enabled(false);
    snap
}

#[test]
fn report_covers_pipeline_and_round_tree() {
    let _g = obs_lock();
    let snap = tiny_run(11);

    // Span tree roots: the data pipeline and the federated round, with
    // per-client training spans nested under the round.
    assert!(
        snap.find_span("pipeline").is_some(),
        "pipeline root missing"
    );
    let round = snap
        .roots
        .iter()
        .find(|r| r.name == "round[0]")
        .expect("round[0] root missing");
    for c in 0..2 {
        assert!(
            round
                .children
                .iter()
                .any(|s| s.name == format!("client[{c}]")),
            "client[{c}] span missing under round[0]"
        );
    }
    // RoundTelemetry counters folded into the same registry.
    assert_eq!(snap.counters["fed.sim.participants"], 2);
    assert!(snap.histograms.contains_key("fed.round.loss"));

    // The exported JSON parses and conforms to fexiot-obs/v4.
    let doc = fexiot_obs::report::to_json(&snap, "e2e", Timing::Include, &Default::default());
    validate_report(&doc).expect("report validates");
    let reparsed = Json::parse(&doc.to_string()).expect("emitted JSON parses");
    assert!(reparsed.get("spans").is_some());

    // write_report round-trips through the filesystem.
    let dir = std::env::temp_dir().join(format!("fexiot-obs-e2e-{}", std::process::id()));
    let path =
        fexiot_obs::write_report(&dir, "e2e", &snap, &Default::default()).expect("write report");
    let text = std::fs::read_to_string(&path).expect("read report back");
    validate_report(&Json::parse(&text).expect("written report parses"))
        .expect("written report validates");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_seed_runs_export_identical_nontiming_reports() {
    let _g = obs_lock();
    let a = tiny_run(12);
    let b = tiny_run(12);
    let da = deterministic_json(&a, "e2e");
    let db = deterministic_json(&b, "e2e");
    assert!(
        !da.contains("elapsed_us"),
        "timing leaked into Timing::Exclude"
    );
    assert_eq!(da, db, "same-seed obs reports differ in non-timing fields");
}

/// A `Write` sink the test can read back after the registry consumed it.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// [`tiny_run`] with a timing-excluded JSONL event stream attached; returns
/// the raw bytes the stream produced.
fn tiny_run_streamed(seed: u64) -> Vec<u8> {
    let reg = fexiot_obs::global();
    reg.reset();
    fexiot_obs::set_global_enabled(true);
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    reg.set_stream(Box::new(buf.clone()), "e2e-stream", false);

    let mut rng = Rng::seed_from_u64(seed);
    let mut cfg = DatasetConfig::small_ifttt();
    cfg.graph_count = 40;
    let ds = generate_dataset(&cfg, &mut rng);
    let (train, _test) = ds.train_test_split(0.8, &mut rng);
    let mut pipeline = FexIotConfig::default().with_seed(seed);
    pipeline.contrastive.epochs = 1;
    pipeline.contrastive.pairs_per_epoch = 8;
    let config = FederationConfig {
        n_clients: 2,
        rounds: 1,
        pipeline,
        ..Default::default()
    };
    let mut sim = build_federation(&train, &config);
    sim.attach_obs(Arc::clone(reg));
    sim.run();

    drop(reg.take_stream());
    fexiot_obs::set_global_enabled(false);
    let out = buf.0.lock().unwrap().clone();
    out
}

#[test]
fn same_seed_event_streams_are_byte_identical_and_parse() {
    let _g = obs_lock();
    let a = tiny_run_streamed(13);
    let b = tiny_run_streamed(13);
    assert!(!a.is_empty(), "stream produced no events");
    assert_eq!(a, b, "same-seed timing-excluded streams differ");

    let text = String::from_utf8(a).expect("stream is UTF-8");
    assert!(
        !text.contains("elapsed_us") && !text.contains("step_us"),
        "wall-clock data leaked into a timing-excluded stream"
    );
    let (run, events) = fexiot_obs::stream::parse_stream(&text).expect("stream parses");
    assert_eq!(run, "e2e-stream");
    // The stream must cover the whole pipeline: spans, counters, and the
    // round-boundary marker all show up as live events.
    let names: Vec<&str> = events.iter().map(|e| e.event.name()).collect();
    assert!(names.contains(&"pipeline"), "pipeline span not streamed");
    assert!(names.contains(&"round[0]"), "round marker not streamed");
    assert!(
        names.contains(&"fed.sim.participants"),
        "participant counter not streamed"
    );
}

#[test]
fn federated_report_carries_the_critical_path() {
    let _g = obs_lock();
    let reg = fexiot_obs::global();
    reg.reset();
    fexiot_obs::set_global_enabled(true);

    let mut rng = Rng::seed_from_u64(14);
    let mut cfg = DatasetConfig::small_ifttt();
    cfg.graph_count = 40;
    let ds = generate_dataset(&cfg, &mut rng);
    let (train, _test) = ds.train_test_split(0.8, &mut rng);
    let mut pipeline = FexIotConfig::default().with_seed(14);
    pipeline.contrastive.epochs = 1;
    pipeline.contrastive.pairs_per_epoch = 8;
    let mut config = FederationConfig {
        n_clients: 3,
        rounds: 2,
        pipeline,
        ..Default::default()
    };
    config.faults = config.faults.with_seed(7).with_straggler(0.9);
    let mut sim = build_federation(&train, &config);
    sim.attach_obs(Arc::clone(reg));
    sim.run();
    let path = sim.critical_path();
    let snap = reg.snapshot();
    fexiot_obs::set_global_enabled(false);

    assert_eq!(path.len(), 2);
    assert!(
        path.iter().any(|e| e.cause == "straggler"),
        "a 0.9 straggler rate must land on the critical path"
    );

    let extras = fexiot_obs::ReportExtras {
        critical_path: Some(fexiot_obs::trace::critical_path_to_json(&path)),
        ..Default::default()
    };
    let doc = fexiot_obs::report::to_json(&snap, "e2e-cp", Timing::Include, &extras);
    validate_report(&doc).expect("report with critical_path validates");
    let reparsed = Json::parse(&doc.to_string()).expect("emitted JSON parses");
    let cp = reparsed
        .get("critical_path")
        .and_then(Json::as_arr)
        .expect("critical_path array present");
    assert_eq!(cp.len(), 2);

    // The rendered summary names the slowest client.
    let text = fexiot_obs::render_summary(&snap, Some(&path));
    assert!(
        text.contains("critical path"),
        "summary lacks the path:\n{text}"
    );
    assert!(
        text.contains("straggler"),
        "summary lacks the cause:\n{text}"
    );
}

#[test]
fn collapsed_stacks_round_trip_against_report_span_paths() {
    let _g = obs_lock();
    let snap = tiny_run(15);

    let collapsed = fexiot_obs::collapsed_stacks(&snap);
    let stacks = fexiot_obs::profile::parse_collapsed(&collapsed).expect("collapsed output parses");
    assert!(!stacks.is_empty(), "no collapsed stacks collected");

    // Every stack path in the flame export must name a span path that the
    // run report also carries — the two exports describe one tree.
    let doc = fexiot_obs::report::to_json(&snap, "e2e-flame", Timing::Include, &Default::default());
    let report_paths = fexiot_obs::profile::report_span_paths(&doc);
    assert!(
        report_paths
            .iter()
            .any(|p| p == "pipeline;pipeline.featurize"),
        "expected pipeline paths in the report, got {report_paths:?}"
    );
    for (path, _us) in &stacks {
        assert!(
            report_paths.contains(path),
            "flame path {path:?} missing from the report span tree"
        );
    }
    // And the flame export covers every report path, too (same tree, both
    // directions).
    let flame_paths: Vec<&String> = stacks.iter().map(|(p, _)| p).collect();
    for p in &report_paths {
        assert!(
            flame_paths.contains(&p),
            "report span path {p:?} missing from the flame export"
        );
    }
}

/// A faulty 10-client federation on two aggregators, with a full or a
/// sampled cohort, streaming timing-free JSONL from a registry of its own.
/// Returns the round reports, the registry's final snapshot and the stream
/// text.
fn faulty_streamed_run(sampling: Sampling) -> (Vec<RoundReport>, Snapshot, String) {
    let reg = Arc::new(Registry::new());
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    reg.set_stream(Box::new(buf.clone()), "views", false);

    let mut rng = Rng::seed_from_u64(21);
    let mut cfg = DatasetConfig::small_ifttt();
    cfg.graph_count = 60;
    let ds = generate_dataset(&cfg, &mut rng);
    let (train, _test) = ds.train_test_split(0.8, &mut rng);
    let mut pipeline = FexIotConfig::default().with_seed(21);
    pipeline.contrastive.epochs = 1;
    pipeline.contrastive.pairs_per_epoch = 8;
    let config = FederationConfig {
        n_clients: 10,
        rounds: 4,
        pipeline,
        faults: FaultPlan::none()
            .with_seed(21)
            .with_dropout(0.2)
            .with_straggler(0.3)
            .with_msg_loss(0.3)
            .with_corruption(0.15, Corruption::NonFinite)
            .with_agg_dropout(0.3),
        sampling,
        topology: Topology::hierarchical(2, Failover::Reassign),
        quorum: 0.2,
        deadline_ticks: Some(6),
        ..Default::default()
    };
    let mut sim = build_federation(&train, &config);
    sim.attach_obs(Arc::clone(&reg));
    let reports = sim.run();
    drop(reg.take_stream());
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).expect("stream is UTF-8");
    (reports, reg.snapshot(), text)
}

#[test]
fn every_view_of_a_round_agrees_with_its_telemetry() {
    // The pipeline under `build_federation` records into the global
    // registry whenever another test has it enabled.
    let _g = obs_lock();
    // Each round counter and the telemetry field it totals.
    type Field = fn(&RoundTelemetry) -> usize;
    let fields: [(&str, Field); 12] = [
        ("fed.sim.sampled", |t| t.sampled),
        ("fed.sim.participants", |t| t.participants),
        ("fed.sim.dropped", |t| t.dropped),
        ("fed.sim.quarantined", |t| t.quarantined),
        ("fed.sim.stale_accepted", |t| t.stale_accepted),
        ("fed.sim.retried_messages", |t| t.retried_messages),
        ("fed.sim.lost_messages", |t| t.lost_messages),
        ("fed.sim.backoff_ticks", |t| t.backoff_ticks),
        ("fed.agg.deadline_missed", |t| t.deadline_missed),
        ("fed.agg.down", |t| t.agg_down),
        ("fed.agg.reassigned", |t| t.reassigned),
        ("fed.agg.quorum_aborts", |t| usize::from(t.quorum_aborted)),
    ];
    for sampling in [Sampling::Full, Sampling::FixedK(6)] {
        let (reports, snap, text) = faulty_streamed_run(sampling);
        let last = reports.last().expect("rounds ran").faults;
        assert!(
            reports.iter().any(|r| r.faults.dropped > 0),
            "{sampling:?}: no round dropped anyone"
        );

        // The watch frame shows the last round as its telemetry reports it.
        let frame = WatchState::from_stream(&text)
            .expect("stream parses")
            .render();
        for line in [
            format!(
                "cohort: sampled {}  participants {}  dropped {}  quarantined {}",
                last.sampled, last.participants, last.dropped, last.quarantined
            ),
            format!(
                "aggregators: down {}  reassigned {}  quorum aborts {}  deadline misses {}",
                last.agg_down,
                last.reassigned,
                usize::from(last.quorum_aborted),
                last.deadline_missed
            ),
            format!(
                "attribution: stale accepted {}  retries {}  lost msgs {}  backoff ticks {}",
                last.stale_accepted, last.retried_messages, last.lost_messages, last.backoff_ticks
            ),
        ] {
            assert!(
                frame.lines().any(|l| l == line),
                "{sampling:?}: frame lacks {line:?}:\n{frame}"
            );
        }

        // Each counter totals its field over the rounds.
        for (name, field) in fields {
            let total: usize = reports.iter().map(|r| field(&r.faults)).sum();
            assert_eq!(
                snap.counters.get(name).copied(),
                Some(total as u64),
                "{sampling:?}: counter {name}"
            );
        }
    }
}
