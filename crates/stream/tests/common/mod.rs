//! Shared by the streaming integration tests: one `run_stream` pass with
//! the CLI's serve telemetry, reduced to everything it exports that must
//! stay byte-identical.

use std::sync::Arc;

use fexiot_obs::{
    deterministic_json, CriticalPathEntry, FleetTelemetry, Registry, SampleSpec, SloEngine,
    TimeSeriesStore,
};
use fexiot_stream::{run_stream, Fleet, RuntimeDetector, StreamConfig};

const STREAM_SLO: &str = r#"
[[rule]]
name = "detect-latency-p99"
metric = "stream.detect.latency_ticks.p99"
agg = "max"
op = "<="
threshold = 8

[[rule]]
name = "zero-sheds"
metric = "stream.mailbox.shed"
agg = "max"
op = "<="
threshold = 0
"#;

/// Everything a run exports that must be byte-identical.
#[derive(Debug, PartialEq)]
pub struct RunFingerprint {
    pub report: String,
    pub stream_section: String,
    pub timeseries: String,
    pub slo: String,
    pub critical_path: Vec<CriticalPathEntry>,
    pub digest: u64,
}

/// The serve time-series (p99 latency, shed deltas, events per round)
/// under the streaming SLO rules.
pub fn serve_telemetry() -> FleetTelemetry {
    let mut store = TimeSeriesStore::new(256);
    for spec in [
        SampleSpec::HistQuantile {
            name: "stream.detect.latency_ticks".into(),
            q: 0.99,
        },
        SampleSpec::CounterDelta("stream.mailbox.shed".into()),
        SampleSpec::Gauge("stream.ingest.events_per_round".into()),
    ] {
        store
            .add_spec(spec)
            .expect("stream specs are deterministic");
    }
    FleetTelemetry::new(
        store,
        Some(SloEngine::parse(STREAM_SLO).expect("rules parse")),
    )
}

/// Streams `fleet` through the pipeline with the runtime detector.
pub fn run(fleet: &Fleet, cfg: &StreamConfig) -> RunFingerprint {
    let reg = Arc::new(Registry::with_enabled(true));
    let mut tel = serve_telemetry();
    let out = run_stream(
        &fleet.graphs,
        &fleet.events,
        &RuntimeDetector::default(),
        cfg,
        &reg,
        Some(&mut tel),
    );
    RunFingerprint {
        report: deterministic_json(&reg.snapshot(), "stream-lock"),
        stream_section: out.stats.to_json().to_string(),
        timeseries: tel.store.to_json().to_string(),
        slo: tel
            .slo
            .as_ref()
            .expect("engine attached")
            .to_json()
            .to_string(),
        critical_path: out.critical_path,
        digest: out.stats.digest,
    }
}
