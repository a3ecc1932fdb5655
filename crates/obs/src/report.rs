//! Exporters: the JSON run report (one file per run, schema-stable), the
//! human-readable summary tree for the CLI, and timing-stripped deterministic
//! serialization for golden-style diffing.

use crate::json::Json;
use crate::registry::{is_timing_name, HistogramSnapshot, Snapshot, SpanNode};
use crate::trace::{render_critical_path, CriticalPathEntry};
use std::io;
use std::path::{Path, PathBuf};

/// Schema identifier written into every report, and the only one
/// [`validate_report`] accepts (bump on breaking changes).
pub const SCHEMA: &str = "fexiot-obs/v4";

/// Optional report sections supplied by the run, already rendered as JSON:
/// the federated per-round critical path, the fleet-health telemetry bundle
/// (`timeseries`, `slo`), the causal root-cause attribution of failing SLO
/// rules (`root_cause`), and the streaming-service summary (`stream`).
#[derive(Debug, Clone, Default)]
pub struct ReportExtras {
    pub critical_path: Option<Json>,
    pub timeseries: Option<Json>,
    pub slo: Option<Json>,
    pub root_cause: Option<Json>,
    pub stream: Option<Json>,
}

impl ReportExtras {
    /// Renders the sections out of a telemetry bundle. An empty store
    /// contributes no `timeseries` section (quickstart-style runs with the
    /// flags off carry no telemetry sections at all).
    pub fn from_telemetry(telemetry: &crate::timeseries::FleetTelemetry) -> Self {
        Self {
            timeseries: (!telemetry.store.is_empty()).then(|| telemetry.store.to_json()),
            slo: telemetry.slo.as_ref().map(|e| e.to_json()),
            ..Self::default()
        }
    }
}

/// Whether span wall-clock fields are included in an export. Timing is the
/// only nondeterministic data a registry holds, so `Exclude` yields output
/// that is bit-identical across same-seed runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    Include,
    Exclude,
}

fn span_to_json(node: &SpanNode, timing: Timing) -> Json {
    let mut members = vec![("name".to_string(), Json::Str(node.name.clone()))];
    if timing == Timing::Include {
        members.push(("elapsed_us".to_string(), Json::UInt(node.elapsed_us)));
    }
    members.push((
        "children".to_string(),
        Json::Arr(
            node.children
                .iter()
                .map(|c| span_to_json(c, timing))
                .collect(),
        ),
    ));
    Json::Obj(members)
}

fn hist_to_json(h: &HistogramSnapshot) -> Json {
    let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
    Json::Obj(vec![
        (
            "edges".to_string(),
            Json::Arr(h.edges.iter().map(|&e| Json::Num(e)).collect()),
        ),
        (
            "counts".to_string(),
            Json::Arr(h.counts.iter().map(|&c| Json::UInt(c)).collect()),
        ),
        ("underflow".to_string(), Json::UInt(h.underflow)),
        ("overflow".to_string(), Json::UInt(h.overflow)),
        ("count".to_string(), Json::UInt(h.count)),
        ("sum".to_string(), Json::Num(h.sum)),
        ("min".to_string(), opt(h.min)),
        ("max".to_string(), opt(h.max)),
        ("rejected".to_string(), Json::UInt(h.rejected)),
    ])
}

/// Renders a snapshot plus the run's optional sections as the run-report
/// JSON document. Keys are emitted in a fixed order (metric maps are sorted,
/// the optional sections follow in [`ReportExtras`] field order), so two
/// exports of equal inputs are byte-identical. With [`Timing::Exclude`],
/// span `elapsed_us` and the histograms and gauges whose names mark them as
/// wall-clock data (`*_us` durations, `*_per_sec` rates — see
/// [`crate::is_timing_name`]) are omitted, so the text is identical across
/// same-seed runs. The optional sections hold only deterministic data by
/// construction, so they are emitted in both modes.
pub fn to_json(snap: &Snapshot, run: &str, timing: Timing, extras: &ReportExtras) -> Json {
    let mut members = vec![
        ("schema".to_string(), Json::Str(SCHEMA.to_string())),
        ("run".to_string(), Json::Str(run.to_string())),
        (
            "spans".to_string(),
            Json::Arr(snap.roots.iter().map(|r| span_to_json(r, timing)).collect()),
        ),
        (
            "counters".to_string(),
            Json::Obj(
                snap.counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::UInt(v)))
                    .collect(),
            ),
        ),
        (
            "gauges".to_string(),
            Json::Obj(
                snap.gauges
                    .iter()
                    .filter(|(k, _)| timing == Timing::Include || !is_timing_name(k))
                    .map(|(k, &v)| (k.clone(), Json::Num(v)))
                    .collect(),
            ),
        ),
        (
            "histograms".to_string(),
            Json::Obj(
                snap.histograms
                    .iter()
                    .filter(|(k, _)| timing == Timing::Include || !is_timing_name(k))
                    .map(|(k, h)| (k.clone(), hist_to_json(h)))
                    .collect(),
            ),
        ),
        ("dropped_spans".to_string(), Json::UInt(snap.dropped_spans)),
    ];
    let sections = [
        ("critical_path", &extras.critical_path),
        ("timeseries", &extras.timeseries),
        ("slo", &extras.slo),
        ("root_cause", &extras.root_cause),
        ("stream", &extras.stream),
    ];
    for (name, section) in sections {
        if let Some(section) = section {
            members.push((name.to_string(), section.clone()));
        }
    }
    Json::Obj(members)
}

/// The deterministic (timing-free) serialization of a snapshot: bit-identical
/// across two runs with the same seed. This is what regression tests diff.
pub fn deterministic_json(snap: &Snapshot, run: &str) -> String {
    to_json(snap, run, Timing::Exclude, &ReportExtras::default()).to_string()
}

/// Writes the run report ([`to_json`] with timing) to `<dir>/<run>.json`
/// (directories created as needed); returns the path written.
pub fn write_report(
    dir: &Path,
    run: &str,
    snap: &Snapshot,
    extras: &ReportExtras,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{run}.json"));
    std::fs::write(
        &path,
        to_json(snap, run, Timing::Include, extras).to_string(),
    )?;
    Ok(path)
}

/// Validates that a JSON document is a well-formed `fexiot-obs/v4` obs
/// report, optional sections included. Returns a description of the first
/// problem found.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing string field 'schema'")?;
    if schema != SCHEMA {
        return Err(format!("unknown schema {schema:?} (expected {SCHEMA:?})"));
    }
    doc.get("run")
        .and_then(Json::as_str)
        .ok_or("missing string field 'run'")?;
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("missing array field 'spans'")?;
    fn check_span(node: &Json, depth: usize) -> Result<(), String> {
        if depth > 64 {
            return Err("span tree deeper than 64 levels".to_string());
        }
        node.get("name")
            .and_then(Json::as_str)
            .ok_or("span missing string 'name'")?;
        if let Some(e) = node.get("elapsed_us") {
            if e.as_u64().is_none() {
                return Err("span 'elapsed_us' is not an unsigned integer".to_string());
            }
        }
        for c in node
            .get("children")
            .and_then(Json::as_arr)
            .ok_or("span missing array 'children'")?
        {
            check_span(c, depth + 1)?;
        }
        Ok(())
    }
    for s in spans {
        check_span(s, 0)?;
    }
    for (section, numeric) in [("counters", true), ("gauges", false)] {
        match doc.get(section) {
            Some(Json::Obj(members)) => {
                for (k, v) in members {
                    let ok = if numeric {
                        v.as_u64().is_some()
                    } else {
                        v.is_number() || *v == Json::Null
                    };
                    if !ok {
                        return Err(format!("{section}[{k:?}] has a malformed value"));
                    }
                }
            }
            _ => return Err(format!("missing object field '{section}'")),
        }
    }
    match doc.get("histograms") {
        Some(Json::Obj(members)) => {
            for (k, h) in members {
                let edges = h
                    .get("edges")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("histograms[{k:?}] missing 'edges'"))?;
                let counts = h
                    .get("counts")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("histograms[{k:?}] missing 'counts'"))?;
                if edges.len() != counts.len() + 1 {
                    return Err(format!(
                        "histograms[{k:?}]: {} edges need {} counts, found {}",
                        edges.len(),
                        edges.len() - 1,
                        counts.len()
                    ));
                }
                for field in ["underflow", "overflow", "count", "rejected"] {
                    if h.get(field).and_then(Json::as_u64).is_none() {
                        return Err(format!("histograms[{k:?}] missing integer '{field}'"));
                    }
                }
            }
        }
        _ => return Err("missing object field 'histograms'".to_string()),
    }
    doc.get("dropped_spans")
        .and_then(Json::as_u64)
        .ok_or("missing integer field 'dropped_spans'")?;
    if let Some(path) = doc.get("critical_path") {
        let entries = path.as_arr().ok_or("'critical_path' is not an array")?;
        for (i, e) in entries.iter().enumerate() {
            for field in [
                "round",
                "total_ticks",
                "straggler_ticks",
                "backoff_ticks",
                "agg_ticks",
                "retries",
            ] {
                if e.get(field).and_then(Json::as_u64).is_none() {
                    return Err(format!("critical_path[{i}] missing integer '{field}'"));
                }
            }
            match e.get("client") {
                Some(Json::Null) => {}
                Some(c) if c.as_u64().is_some() => {}
                _ => {
                    return Err(format!(
                        "critical_path[{i}]: 'client' must be null or an unsigned integer"
                    ))
                }
            }
            e.get("cause")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("critical_path[{i}] missing string 'cause'"))?;
        }
    }
    if let Some(ts) = doc.get("timeseries") {
        crate::timeseries::validate_timeseries(ts)?;
    }
    if let Some(slo) = doc.get("slo") {
        crate::slo::validate_slo(slo)?;
    }
    if let Some(rc) = doc.get("root_cause") {
        crate::causal::validate_root_cause(rc)?;
    }
    if let Some(st) = doc.get("stream") {
        validate_stream_section(st)?;
    }
    Ok(())
}

/// Validates the v4 `stream` section: the streaming service's run summary
/// (whole-run totals, the detection digest, and per-actor mailbox stats).
fn validate_stream_section(st: &Json) -> Result<(), String> {
    for field in [
        "events",
        "detected",
        "vulnerable",
        "drifting",
        "shed",
        "stall_ticks",
        "rounds",
        "ticks",
    ] {
        if st.get(field).and_then(Json::as_u64).is_none() {
            return Err(format!("stream section missing integer '{field}'"));
        }
    }
    st.get("detections_digest")
        .and_then(Json::as_str)
        .ok_or("stream section missing string 'detections_digest'")?;
    let actors = st
        .get("actors")
        .and_then(Json::as_arr)
        .ok_or("stream section missing array 'actors'")?;
    for (i, a) in actors.iter().enumerate() {
        for field in ["name", "policy"] {
            if a.get(field).and_then(Json::as_str).is_none() {
                return Err(format!("stream actors[{i}] missing string '{field}'"));
            }
        }
        for field in [
            "capacity",
            "enqueued",
            "dequeued",
            "shed",
            "stall_ticks",
            "max_depth",
        ] {
            if a.get(field).and_then(Json::as_u64).is_none() {
                return Err(format!("stream actors[{i}] missing integer '{field}'"));
            }
        }
    }
    Ok(())
}

/// Validates one report file on disk (parse + [`validate_report`]), tagging
/// errors with the path.
pub fn check_report_file(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    validate_report(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

/// Expands schema-check arguments into report files: a file argument is kept
/// as-is, a directory contributes every `*.json` directly inside it (sorted,
/// so output order is stable). Errors on unreadable paths or a directory
/// containing no reports.
pub fn collect_report_paths(args: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for arg in args {
        let meta = std::fs::metadata(arg).map_err(|e| format!("{}: {e}", arg.display()))?;
        if !meta.is_dir() {
            out.push(arg.clone());
            continue;
        }
        let mut found = Vec::new();
        let entries = std::fs::read_dir(arg).map_err(|e| format!("{}: {e}", arg.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", arg.display()))?;
            let path = entry.path();
            if path.is_file() && path.extension().is_some_and(|e| e == "json") {
                found.push(path);
            }
        }
        if found.is_empty() {
            return Err(format!(
                "{}: directory contains no *.json reports",
                arg.display()
            ));
        }
        found.sort();
        out.append(&mut found);
    }
    Ok(out)
}

/// Renders the human-readable summary: the span tree with wall-clock
/// timings, then counters, gauges, histogram digests, and the per-round
/// critical path of a federated run.
pub fn render_summary(snap: &Snapshot, critical_path: Option<&[CriticalPathEntry]>) -> String {
    let mut out = String::new();
    out.push_str("── obs summary ──\n");
    if snap.roots.is_empty() {
        out.push_str("(no spans recorded)\n");
    }
    for root in &snap.roots {
        render_span(root, "", true, &mut out);
    }
    if snap.dropped_spans > 0 {
        out.push_str(&format!(
            "(span cap reached: {} spans dropped)\n",
            snap.dropped_spans
        ));
    }
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (k, v) in &snap.counters {
            out.push_str(&format!("  {k} = {v}\n"));
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges:\n");
        for (k, v) in &snap.gauges {
            out.push_str(&format!("  {k} = {v}\n"));
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (k, h) in &snap.histograms {
            let stats = match (h.mean(), h.min, h.max) {
                (Some(mean), Some(min), Some(max)) => {
                    format!("mean {mean:.4}  min {min:.4}  max {max:.4}")
                }
                _ => "empty".to_string(),
            };
            out.push_str(&format!(
                "  {k}: n={}  {stats}  (under {} / over {} / rejected {})\n",
                h.count, h.underflow, h.overflow, h.rejected
            ));
        }
    }
    if let Some(path) = critical_path {
        if !path.is_empty() {
            out.push_str(&render_critical_path(path));
        }
    }
    out
}

/// Children shown per node in the summary tree before eliding the rest.
const SUMMARY_CHILD_CAP: usize = 24;

fn render_span(node: &SpanNode, prefix: &str, root: bool, out: &mut String) {
    let ms = node.elapsed_us as f64 / 1000.0;
    if root {
        out.push_str(&format!("{}{}  {:.1} ms\n", prefix, node.name, ms));
    }
    let shown = node.children.len().min(SUMMARY_CHILD_CAP);
    for (i, child) in node.children.iter().take(shown).enumerate() {
        let last = i + 1 == shown && node.children.len() <= SUMMARY_CHILD_CAP;
        let branch = if last { "└─ " } else { "├─ " };
        let cont = if last { "   " } else { "│  " };
        out.push_str(&format!(
            "{}{}{}  {:.1} ms\n",
            prefix,
            branch,
            child.name,
            child.elapsed_us as f64 / 1000.0
        ));
        render_span(child, &format!("{prefix}{cont}"), false, out);
    }
    if node.children.len() > SUMMARY_CHILD_CAP {
        out.push_str(&format!(
            "{}└─ … (+{} more)\n",
            prefix,
            node.children.len() - SUMMARY_CHILD_CAP
        ));
    }
}
