//! `obs-export [options] <report.json | stream.jsonl>` — export surfaces for
//! obs data.
//!
//! Default mode renders Prometheus text exposition from the input: a
//! `fexiot-obs/v4` run report (counters, gauges, histograms with
//! cumulative buckets, newest time-series samples, SLO verdict states) or a
//! `fexiot-obs-events/v1` JSONL stream (replayed counter totals and gauge
//! values). The input kind is auto-detected from its first line.
//!
//! Options:
//!   --watch            tail a JSONL stream and render a live terminal view
//!                      (round progress, cohort/aggregator status, quorum
//!                      margin, SLO status, per-round attribution)
//!   --once             with --watch: render the current state once and exit
//!                      (CI-friendly; no terminal control sequences)
//!   --interval-ms N    with --watch: poll interval (default 500)
//!   --section NAME     print one raw section of a valid report (e.g.
//!                      `timeseries`, `slo`, `root_cause`) as JSON —
//!                      byte-comparable across runs
//!   --chrome-trace     render a `fexiot-obs-causal/v1` graph file (from
//!                      `--obs-trace`) as Chrome trace-event JSON, loadable
//!                      in Perfetto / chrome://tracing
//!
//! Exit codes: 0 success, 2 usage/IO/parse error.

use fexiot_obs::{
    prometheus_from_report, prometheus_from_stream, validate_report, Json, WatchState,
};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: obs-export [--watch [--once] [--interval-ms N]] [--section NAME] \
         [--chrome-trace] <report.json | stream.jsonl | trace.json>"
    );
    ExitCode::from(2)
}

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
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut watch_mode = false;
    let mut once = false;
    let mut interval_ms = 500u64;
    let mut section: Option<String> = None;
    let mut chrome = false;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--watch" => watch_mode = true,
            "--once" => once = true,
            "--chrome-trace" => chrome = true,
            "--interval-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(v)) => interval_ms = v,
                _ => return usage(),
            },
            "--section" => match it.next() {
                Some(name) if !name.starts_with("--") => section = Some(name.clone()),
                _ => return usage(),
            },
            flag if flag.starts_with("--") => {
                eprintln!("obs-export: unknown flag {flag:?}");
                return usage();
            }
            path => files.push(path.to_string()),
        }
    }
    let [path] = files.as_slice() else {
        return usage();
    };
    if watch_mode {
        if section.is_some() || chrome {
            return fail("--watch is mutually exclusive with --section/--chrome-trace");
        }
        return watch(path, once, interval_ms);
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
        return match doc.get(&name) {
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
