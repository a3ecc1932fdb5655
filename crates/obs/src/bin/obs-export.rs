//! `obs-export [flags] <report.json | stream.jsonl | trace.json>` — export
//! surfaces for obs data.
//!
//! Default mode renders Prometheus text exposition from the input: a
//! `fexiot-obs/v4` run report (counters, gauges, histograms with
//! cumulative buckets, newest time-series samples, SLO verdict states) or a
//! `fexiot-obs-events/v1` JSONL stream (replayed counter totals and gauge
//! values). The input kind is auto-detected from its first line.
//!
//! The flags are the rows of `SPEC` below, from which the usage line printed
//! on a usage error is generated. `--watch` tails a JSONL stream and renders
//! a live terminal view (round progress, cohort/aggregator status, quorum
//! margin, SLO status, per-round attribution), polling every
//! `--interval-ms` (default 500, at least 50); `--once` renders it once
//! and exits, without terminal control sequences. `--section NAME` prints
//! one raw section of a valid report (e.g. `timeseries`, `slo`,
//! `root_cause`) as byte-comparable JSON. `--chrome-trace` renders a
//! `fexiot-obs-causal/v1` graph file (from `--obs-trace`) as Chrome
//! trace-event JSON, loadable in Perfetto / chrome://tracing.
//!
//! Exit codes: 0 success, 2 usage/IO/parse error.

use fexiot_obs::cli::Kind::{Int, Switch, Text};
use fexiot_obs::cli::{parse_env, Flag, Spec};
use fexiot_obs::{
    prometheus_from_report, prometheus_from_stream, validate_report, Json, WatchState,
};
use std::process::ExitCode;

const FLAGS: &[Flag] = &[
    Flag::new("watch", Switch, ""),
    Flag::new("once", Switch, ""),
    Flag::new("interval-ms", Int(50), "N"),
    Flag::new("section", Text, "NAME"),
    Flag::new("chrome-trace", Switch, ""),
];
const SPEC: Spec = Spec {
    operands: &["<report.json | stream.jsonl | trace.json>"],
    ..Spec::new("", &[FLAGS])
};

fn fail(msg: &str) -> ExitCode {
    eprintln!("obs-export: {msg}");
    ExitCode::from(2)
}

/// True when the file's first line is a `fexiot-obs-events/v1` header.
fn is_stream(text: &str) -> bool {
    text.lines()
        .next()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|doc| doc.get("schema").and_then(Json::as_str).map(str::to_string))
        .as_deref()
        == Some(fexiot_obs::stream::EVENT_SCHEMA)
}

fn watch(path: &str, once: bool, interval_ms: u64) -> ExitCode {
    let mut last_frame = String::new();
    loop {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("{path}: {e}")),
        };
        let state = match WatchState::from_stream(&text) {
            Ok(s) => s,
            Err(e) => return fail(&format!("{path}: {e}")),
        };
        let frame = state.render();
        if once {
            print!("{frame}");
            return ExitCode::SUCCESS;
        }
        if frame != last_frame {
            // Clear + home, then the fresh frame.
            print!("\x1b[2J\x1b[H{frame}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            last_frame = frame;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn main() -> ExitCode {
    let args = parse_env(&SPEC);
    let path = &args.operands[0];
    let section = args.value("section");
    let chrome = args.has("chrome-trace");
    if args.has("watch") {
        if section.is_some() || chrome {
            return fail("--watch is mutually exclusive with --section/--chrome-trace");
        }
        return watch(
            path,
            args.has("once"),
            args.num("interval-ms").unwrap_or(500),
        );
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("{path}: {e}")),
    };
    if chrome {
        if section.is_some() {
            return fail("--chrome-trace and --section are mutually exclusive");
        }
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => return fail(&format!("{path}: {e:?}")),
        };
        return match fexiot_obs::CausalGraph::parse(&doc) {
            Ok(graph) => {
                println!("{}", fexiot_obs::chrome_trace(&graph));
                ExitCode::SUCCESS
            }
            Err(e) => fail(&format!("{path}: {e}")),
        };
    }
    if let Some(name) = section {
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => return fail(&format!("{path}: {e:?}")),
        };
        if let Err(e) = validate_report(&doc) {
            return fail(&format!("{path}: {e}"));
        }
        return match doc.get(name) {
            Some(value) => {
                println!("{value}");
                ExitCode::SUCCESS
            }
            None => fail(&format!("{path}: no `{name}` section in report")),
        };
    }
    let rendered = if is_stream(&text) {
        prometheus_from_stream(&text)
    } else {
        match Json::parse(&text) {
            Ok(doc) => prometheus_from_report(&doc),
            Err(e) => Err(format!("{e:?}")),
        }
    };
    match rendered {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("{path}: {e}")),
    }
}
