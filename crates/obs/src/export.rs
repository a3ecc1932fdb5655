//! Export surfaces for obs data: Prometheus text exposition (rendered from a
//! run report or a JSONL event stream) and the live `--watch` terminal view
//! behind the `obs-export` binary.
//!
//! The exposition follows the Prometheus text format: `# HELP`/`# TYPE`
//! comment lines, `name{labels} value` samples, histograms as cumulative
//! `_bucket{le="..."}` series plus `_sum`/`_count`. Metric names are
//! sanitized into the `fexiot_` namespace ([`metric_name`]); a first-party
//! format checker ([`validate_prometheus_text`]) locks the output against
//! the format's parsing rules since the real scrape parser is unavailable
//! offline.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::registry::{Event, EventRecord};

/// Maps a dotted obs metric name into the Prometheus namespace:
/// `fed.agg.down` → `fexiot_fed_agg_down`. Every byte outside
/// `[A-Za-z0-9_]` becomes `_` (the format allows `:` too, but that is
/// reserved for recording rules).
pub fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("fexiot_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    out
}

/// Escapes a label value (`\` → `\\`, `"` → `\"`, newline → `\n`).
fn label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats a sample value. Non-finite floats use the format's spellings
/// (`+Inf`, `-Inf`, `NaN`).
fn sample(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

fn push_metric(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn obj<'a>(doc: &'a Json, key: &str) -> &'a [(String, Json)] {
    match doc.get(key) {
        Some(Json::Obj(members)) => members,
        _ => &[],
    }
}

/// Renders a validated obs report as Prometheus text exposition: counters,
/// gauges, histograms, the newest sample of every time-series, and SLO
/// verdict states.
pub fn prometheus_from_report(doc: &Json) -> Result<String, String> {
    crate::report::validate_report(doc)?;
    let mut out = String::new();
    let run = doc.get("run").and_then(Json::as_str).unwrap_or("?");
    push_metric(
        &mut out,
        "fexiot_run_info",
        "gauge",
        "Run identity (constant 1).",
    );
    let _ = writeln!(out, "fexiot_run_info{{run=\"{}\"}} 1", label_value(run));

    for (k, v) in obj(doc, "counters") {
        let Some(total) = v.as_u64() else { continue };
        let name = metric_name(k);
        push_metric(&mut out, &name, "counter", "Monotonic obs counter.");
        let _ = writeln!(out, "{name} {total}");
    }
    for (k, v) in obj(doc, "gauges") {
        let Some(value) = v.as_f64() else { continue };
        let name = metric_name(k);
        push_metric(&mut out, &name, "gauge", "Obs gauge (last set value).");
        let _ = writeln!(out, "{name} {}", sample(value));
    }
    for (k, h) in obj(doc, "histograms") {
        let name = metric_name(k);
        let edges: Vec<f64> = h
            .get("edges")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        let counts: Vec<u64> = h
            .get("counts")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_u64).collect())
            .unwrap_or_default();
        let field = |f: &str| h.get(f).and_then(Json::as_u64).unwrap_or(0);
        let (underflow, count) = (field("underflow"), field("count"));
        let sum = h.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
        push_metric(&mut out, &name, "histogram", "Fixed-bucket obs histogram.");
        // Cumulative buckets: everything below edges[0] (the underflow
        // bucket), then one bucket per upper interior edge, then +Inf.
        let mut cumulative = underflow;
        if let Some(first) = edges.first() {
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                sample(*first)
            );
        }
        for (i, upper) in edges.iter().skip(1).enumerate() {
            cumulative += counts.get(i).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                sample(*upper)
            );
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
        let _ = writeln!(out, "{name}_sum {}", sample(sum));
        let _ = writeln!(out, "{name}_count {count}");
    }

    // Telemetry sections: expose the newest sample of each per-round series,
    // and the SLO verdicts as enumerated state gauges.
    if let Some(ts) = doc.get("timeseries") {
        for (k, s) in obj(ts, "series") {
            let last = s
                .get("values")
                .and_then(Json::as_arr)
                .and_then(|v| v.last())
                .and_then(Json::as_f64);
            let round = s
                .get("rounds")
                .and_then(Json::as_arr)
                .and_then(|v| v.last())
                .and_then(Json::as_u64);
            if let (Some(value), Some(round)) = (last, round) {
                let name = format!("{}_last", metric_name(k));
                push_metric(
                    &mut out,
                    &name,
                    "gauge",
                    "Newest per-round time-series sample.",
                );
                let _ = writeln!(out, "{name}{{round=\"{round}\"}} {}", sample(value));
            }
        }
    }
    if let Some(slo) = doc.get("slo") {
        let verdicts = slo.get("verdicts").and_then(Json::as_arr).unwrap_or(&[]);
        if !verdicts.is_empty() {
            push_metric(
                &mut out,
                "fexiot_slo_failing",
                "gauge",
                "1 while the SLO rule is failing, 0 otherwise.",
            );
            for v in verdicts {
                let rule = v.get("name").and_then(Json::as_str).unwrap_or("?");
                let status = v.get("status").and_then(Json::as_str).unwrap_or("?");
                let failing = u64::from(status == "fail");
                let _ = writeln!(
                    out,
                    "fexiot_slo_failing{{rule=\"{}\",status=\"{}\"}} {failing}",
                    label_value(rule),
                    label_value(status)
                );
            }
        }
    }
    Ok(out)
}

/// Renders a JSONL event stream as Prometheus text exposition by replaying
/// it: counters expose their final totals, gauges their last written value.
/// Histogram samples carry no bucket edges on the wire, so they are exposed
/// as `_samples` counters only.
pub fn prometheus_from_stream(text: &str) -> Result<String, String> {
    let (run, events) = crate::stream::parse_stream(text)?;
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
    let mut hist_samples: BTreeMap<String, u64> = BTreeMap::new();
    for rec in &events {
        match &rec.event {
            Event::Counter { name, total, .. } => {
                counters.insert(name.clone(), *total);
            }
            Event::Gauge { name, value } => {
                gauges.insert(name.clone(), *value);
            }
            Event::Hist { name, .. } => {
                *hist_samples.entry(name.clone()).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    let mut out = String::new();
    push_metric(
        &mut out,
        "fexiot_run_info",
        "gauge",
        "Run identity (constant 1).",
    );
    let _ = writeln!(out, "fexiot_run_info{{run=\"{}\"}} 1", label_value(&run));
    for (k, total) in &counters {
        let name = metric_name(k);
        push_metric(&mut out, &name, "counter", "Monotonic obs counter.");
        let _ = writeln!(out, "{name} {total}");
    }
    for (k, value) in &gauges {
        let name = metric_name(k);
        push_metric(&mut out, &name, "gauge", "Obs gauge (last set value).");
        let _ = writeln!(out, "{name} {}", sample(*value));
    }
    for (k, n) in &hist_samples {
        let name = format!("{}_samples", metric_name(k));
        push_metric(
            &mut out,
            &name,
            "counter",
            "Histogram samples seen on the stream.",
        );
        let _ = writeln!(out, "{name} {n}");
    }
    Ok(out)
}

/// Checks a document against the Prometheus text-format parsing rules:
/// `# HELP`/`# TYPE` comments, sample lines `name{labels} value`, valid
/// metric/label identifiers, parseable values, and every sample preceded by
/// a `# TYPE` for its family. Returns the first violation.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    fn valid_label_name(s: &str) -> bool {
        let mut chars = s.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
    }
    let mut typed: Vec<String> = Vec::new();
    let mut saw_sample = false;
    for (i, line) in text.lines().enumerate() {
        let at = format!("line {}", i + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(spec) = rest.strip_prefix("TYPE ") {
                let mut parts = spec.split_whitespace();
                let name = parts.next().ok_or(format!("{at}: TYPE without name"))?;
                let kind = parts.next().ok_or(format!("{at}: TYPE without kind"))?;
                if !valid_name(name) {
                    return Err(format!("{at}: invalid metric name {name:?}"));
                }
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                    return Err(format!("{at}: invalid TYPE kind {kind:?}"));
                }
                typed.push(name.to_string());
            } else if let Some(spec) = rest.strip_prefix("HELP ") {
                let name = spec.split_whitespace().next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("{at}: invalid metric name {name:?} in HELP"));
                }
            }
            // Other comments are free-form.
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find(['{', ' ']) {
            Some(pos) => (&line[..pos], &line[pos..]),
            None => return Err(format!("{at}: sample line without value: {line:?}")),
        };
        if !valid_name(name_part) {
            return Err(format!("{at}: invalid metric name {name_part:?}"));
        }
        let rest = if let Some(labels) = rest.strip_prefix('{') {
            let end = labels
                .find('}')
                .ok_or(format!("{at}: unterminated label set"))?;
            let body = &labels[..end];
            if !body.is_empty() {
                for pair in body.split(',') {
                    let (lname, lvalue) = pair
                        .split_once('=')
                        .ok_or(format!("{at}: label without `=`: {pair:?}"))?;
                    if !valid_label_name(lname) {
                        return Err(format!("{at}: invalid label name {lname:?}"));
                    }
                    if !(lvalue.len() >= 2 && lvalue.starts_with('"') && lvalue.ends_with('"')) {
                        return Err(format!("{at}: label value not quoted: {lvalue:?}"));
                    }
                }
            }
            &labels[end + 1..]
        } else {
            rest
        };
        let mut fields = rest.split_whitespace();
        let value = fields.next().ok_or(format!("{at}: sample without value"))?;
        if !matches!(value, "+Inf" | "-Inf" | "NaN") && value.parse::<f64>().is_err() {
            return Err(format!("{at}: unparseable sample value {value:?}"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("{at}: unparseable timestamp {ts:?}"));
            }
        }
        // The base family of `x_bucket`/`x_sum`/`x_count` is `x`.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| name_part.strip_suffix(suf))
            .unwrap_or(name_part);
        if !typed.iter().any(|t| t == family || t == name_part) {
            return Err(format!(
                "{at}: sample {name_part:?} has no preceding # TYPE"
            ));
        }
        saw_sample = true;
    }
    if !saw_sample {
        return Err("no sample lines in exposition".into());
    }
    Ok(())
}

/// Accumulated state of a watched event stream: round progress, per-round
/// counter deltas, gauges, and aggregator/quorum health, rendered as a
/// terminal frame by [`WatchState::render`].
#[derive(Debug, Clone, Default)]
pub struct WatchState {
    pub run: String,
    /// Index of the round currently in flight (from the newest `round[N]`
    /// mark), and how many round marks were seen in total.
    pub current_round: Option<u64>,
    pub rounds_started: u64,
    counters: BTreeMap<String, u64>,
    /// Counter totals captured at the newest round boundary; per-round
    /// deltas are `counters[k] - round_base[k]`.
    round_base: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    pub events_seen: u64,
    /// Newest `slo_failing[N]` mark on the stream: how many SLO rules were
    /// failing at the latest telemetry evaluation.
    pub slo_failing: Option<u64>,
    /// Newest `slo_top_cause[kind]` mark: the root-cause engine's dominant
    /// fault kind for the failing rules (causal tracing on).
    pub top_cause: Option<String>,
    /// Newest `stream_backpressure[cause]` mark: the streaming service's
    /// dominant congested edge last round (`none` when the round was clean).
    pub stream_cause: Option<String>,
}

impl WatchState {
    pub fn new(run: &str) -> Self {
        Self {
            run: run.to_string(),
            ..Self::default()
        }
    }

    /// Replays a full stream (header + events) into a fresh state.
    pub fn from_stream(text: &str) -> Result<Self, String> {
        let (run, events) = crate::stream::parse_stream(text)?;
        let mut state = Self::new(&run);
        for rec in &events {
            state.apply(rec);
        }
        Ok(state)
    }

    pub fn apply(&mut self, rec: &EventRecord) {
        self.events_seen += 1;
        match &rec.event {
            Event::Mark { name } => {
                // `round[N]` marks are the round boundaries.
                if let Some(idx) = name
                    .strip_prefix("round[")
                    .and_then(|r| r.strip_suffix(']'))
                    .and_then(|r| r.parse::<u64>().ok())
                {
                    self.current_round = Some(idx);
                    self.rounds_started += 1;
                    self.round_base = self.counters.clone();
                } else if let Some(n) = name
                    .strip_prefix("slo_failing[")
                    .and_then(|r| r.strip_suffix(']'))
                    .and_then(|r| r.parse::<u64>().ok())
                {
                    self.slo_failing = Some(n);
                    if n == 0 {
                        self.top_cause = None;
                    }
                } else if let Some(cause) = name
                    .strip_prefix("slo_top_cause[")
                    .and_then(|r| r.strip_suffix(']'))
                {
                    self.top_cause = Some(cause.to_string());
                } else if let Some(cause) = name
                    .strip_prefix("stream_backpressure[")
                    .and_then(|r| r.strip_suffix(']'))
                {
                    self.stream_cause = Some(cause.to_string());
                }
            }
            Event::Counter { name, total, .. } => {
                self.counters.insert(name.clone(), *total);
            }
            Event::Gauge { name, value } => {
                self.gauges.insert(name.clone(), *value);
            }
            _ => {}
        }
    }

    /// Counter increase since the newest round boundary.
    fn round_delta(&self, name: &str) -> u64 {
        let now = self.counters.get(name).copied().unwrap_or(0);
        now.saturating_sub(self.round_base.get(name).copied().unwrap_or(0))
    }

    /// One terminal frame: round progress, cohort and aggregator status,
    /// quorum margin, and critical-path attribution counters for the round
    /// in flight.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "── obs watch · run {} ──", self.run);
        match self.current_round {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "round {r} in flight · {} started · {} events",
                    self.rounds_started, self.events_seen
                );
            }
            None => {
                let _ = writeln!(out, "no round boundary yet · {} events", self.events_seen);
            }
        }
        let d = |name: &str| self.round_delta(name);
        // Streaming lanes only make sense for serve streams, federated lanes
        // for trainer streams; a stream carrying neither keeps the federated
        // layout (the zeros are then the honest picture).
        let has_stream = self.counters.keys().any(|k| k.starts_with("stream."));
        let has_fed = self.counters.keys().any(|k| k.starts_with("fed."));
        if has_fed || !has_stream {
            let _ = writeln!(
                out,
                "cohort: sampled {}  participants {}  dropped {}  quarantined {}",
                d("fed.sim.sampled"),
                d("fed.sim.participants"),
                d("fed.sim.dropped"),
                d("fed.sim.quarantined"),
            );
            let _ = writeln!(
                out,
                "aggregators: down {}  reassigned {}  quorum aborts {}  deadline misses {}",
                d("fed.agg.down"),
                d("fed.agg.reassigned"),
                d("fed.agg.quorum_aborts"),
                d("fed.agg.deadline_missed"),
            );
        }
        if has_stream {
            let _ = writeln!(
                out,
                "stream (round): ingested {}  detected {}  shed {}",
                d("stream.ingest.events"),
                d("stream.detect.events"),
                d("stream.mailbox.shed"),
            );
            let depth = self
                .gauges
                .get("stream.actor.mailbox_depth")
                .copied()
                .unwrap_or(0.0);
            let mut lane = format!("mailboxes: depth max {}", depth as u64);
            if let Some(p99) = self.gauges.get("stream.detect.latency_p99_ticks") {
                let _ = write!(lane, "  p99 latency {p99:.1} ticks");
            }
            if let Some(cause) = &self.stream_cause {
                let _ = write!(lane, "  backpressure {cause}");
            }
            let _ = writeln!(out, "{lane}");
        }
        if let Some(margin) = self.gauges.get("fed.round.quorum_margin") {
            let _ = writeln!(out, "quorum margin: {margin:+.3} (weight above threshold)");
        }
        match self.slo_failing {
            Some(0) => {
                let _ = writeln!(out, "SLO: all rules passing");
            }
            Some(n) => match &self.top_cause {
                Some(cause) => {
                    let _ = writeln!(out, "SLO: {n} failing · top cause {cause}");
                }
                None => {
                    let _ = writeln!(out, "SLO: {n} failing");
                }
            },
            None => {
                // No `slo_failing` marks means no SLO engine was attached —
                // say so instead of silently rendering nothing.
                let _ = writeln!(out, "SLO: no rules loaded");
            }
        }
        if has_fed || !has_stream {
            let _ = writeln!(
                out,
                "attribution: stale accepted {}  retries {}  lost msgs {}  backoff ticks {}",
                d("fed.sim.stale_accepted"),
                d("fed.sim.retried_messages"),
                d("fed.sim.lost_messages"),
                d("fed.sim.backoff_ticks"),
            );
        }
        if let Some(loss) = self.gauges.get("fed.sim.mean_loss") {
            let _ = writeln!(out, "mean loss {loss:.4}");
        }
        let (bytes, msgs) = (
            self.gauges
                .get("fed.comm.round_bytes")
                .copied()
                .unwrap_or(0.0),
            self.gauges
                .get("fed.comm.round_messages")
                .copied()
                .unwrap_or(0.0),
        );
        if bytes > 0.0 || msgs > 0.0 {
            let _ = writeln!(
                out,
                "comm (round): {:.2} MB / {} messages",
                bytes / (1024.0 * 1024.0),
                msgs as u64
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::report::{to_json, ReportExtras, Timing};
    use std::sync::Arc;

    fn report_doc() -> Json {
        let reg = Arc::new(Registry::new());
        {
            let _s = reg.span("pipeline");
            reg.counter_add("fed.sim.participants", 5);
            reg.gauge_set("fed.sim.mean_loss", 0.25);
            for v in [0.1, 0.6, 2.0, 20.0] {
                reg.hist_record("fed.round.loss", crate::buckets::LOSS, v);
            }
        }
        let mut telemetry = crate::timeseries::FleetTelemetry::default();
        telemetry.push_sample(0, "fed.round.participants", 5.0);
        telemetry.slo = Some(
            crate::slo::SloEngine::parse(
                "[[rule]]\nmetric = \"fed.round.participants\"\nop = \">=\"\nthreshold = 1",
            )
            .unwrap(),
        );
        if let Some(engine) = &mut telemetry.slo {
            engine.evaluate(0, &telemetry.store);
        }
        to_json(
            &reg.snapshot(),
            "unit",
            Timing::Include,
            &ReportExtras::from_telemetry(&telemetry),
        )
    }

    #[test]
    fn report_exposition_validates_and_has_cumulative_buckets() {
        let text = prometheus_from_report(&report_doc()).expect("renders");
        validate_prometheus_text(&text).expect("valid exposition");
        assert!(text.contains("# TYPE fexiot_fed_sim_participants counter"));
        assert!(text.contains("fexiot_fed_sim_participants 5"));
        assert!(text.contains("# TYPE fexiot_fed_round_loss histogram"));
        // 20.0 overflows the LOSS buckets: +Inf must still count it.
        assert!(text.contains("fexiot_fed_round_loss_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("fexiot_fed_round_loss_count 4"));
        // Buckets are cumulative: the le="1" bucket holds 0.1 and 0.6.
        assert!(
            text.contains("fexiot_fed_round_loss_bucket{le=\"1\"} 2"),
            "{text}"
        );
        // Telemetry sections surface too.
        assert!(text.contains("fexiot_fed_round_participants_last{round=\"0\"} 5"));
        assert!(
            text.contains("fexiot_slo_failing{rule=\"fed.round.participants\",status=\"pass\"} 0")
        );
    }

    #[test]
    fn format_violations_are_caught() {
        for (text, why) in [
            ("", "empty exposition"),
            ("fexiot_x 1\n", "sample without TYPE"),
            ("# TYPE fexiot_x counter\nfexiot_x one\n", "bad value"),
            ("# TYPE 9bad counter\n9bad 1\n", "bad name"),
            ("# TYPE fexiot_x bogus\nfexiot_x 1\n", "bad kind"),
            (
                "# TYPE fexiot_x counter\nfexiot_x{l=unquoted} 1\n",
                "unquoted label",
            ),
            (
                "# TYPE fexiot_x counter\nfexiot_x{l=\"v\" 1\n",
                "unterminated labels",
            ),
        ] {
            assert!(validate_prometheus_text(text).is_err(), "accepted: {why}");
        }
        validate_prometheus_text("# TYPE ok gauge\nok{a=\"b\",c=\"d\"} +Inf 123\n")
            .expect("labels, Inf, timestamp all legal");
    }

    /// The timing-excluded event stream of what `record` does to a fresh
    /// registry.
    fn streamed(run: &str, record: impl FnOnce(&Registry)) -> String {
        let buf = Arc::new(std::sync::Mutex::new(Vec::new()));
        struct Sink(Arc<std::sync::Mutex<Vec<u8>>>);
        impl std::io::Write for Sink {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let reg = Registry::new();
        reg.set_stream(Box::new(Sink(Arc::clone(&buf))), run, false);
        record(&reg);
        drop(reg.take_stream());
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        text
    }

    #[test]
    fn stream_exposition_replays_counters_and_gauges() {
        let text = streamed("watchrun", |reg| {
            reg.mark("round[0]");
            reg.counter_add("fed.sim.participants", 3);
            reg.counter_add("fed.sim.participants", 2);
            reg.gauge_set("fed.sim.mean_loss", 0.5);
        });
        let exposition = prometheus_from_stream(&text).expect("renders");
        validate_prometheus_text(&exposition).expect("valid exposition");
        assert!(exposition.contains("fexiot_run_info{run=\"watchrun\"} 1"));
        assert!(exposition.contains("fexiot_fed_sim_participants 5"));
        assert!(exposition.contains("fexiot_fed_sim_mean_loss 0.5"));
    }

    #[test]
    fn watch_state_tracks_round_deltas() {
        let text = streamed("t", |reg| {
            reg.mark("round[0]");
            reg.counter_add("fed.sim.participants", 4);
            reg.counter_add("fed.sim.dropped", 1);
            reg.mark("round[1]");
            reg.counter_add("fed.sim.participants", 3);
            reg.gauge_set("fed.sim.mean_loss", 0.125);
        });
        let state = WatchState::from_stream(&text).expect("stream parses");
        assert_eq!(state.current_round, Some(1));
        assert_eq!(state.rounds_started, 2);
        // Round 1 deltas: 3 new participants, no new drops.
        assert_eq!(state.round_delta("fed.sim.participants"), 3);
        assert_eq!(state.round_delta("fed.sim.dropped"), 0);
        let frame = state.render();
        assert!(frame.contains("round 1 in flight"), "{frame}");
        assert!(frame.contains("participants 3"), "{frame}");
        assert!(frame.contains("mean loss 0.1250"), "{frame}");
    }
}
