//! The JSONL event stream (schema `fexiot-obs-events/v1`): the line writer
//! used by the registry's live sink, and a parser for tools and tests.
//!
//! Layout: the first line is a header object
//! `{"schema":"fexiot-obs-events/v1","run":NAME}`; every following line is
//! one event object whose `"seq"` is strictly increasing. In timing-excluded
//! mode span-close lines drop `elapsed_us`, and samples for `*_us`
//! histograms and writes to `*_per_sec` gauges are suppressed entirely, so
//! the stream is bit-identical across same-seed runs (the mirror of
//! `Timing::Exclude` report exports).

use crate::json::Json;
use crate::registry::{is_timing_name, Event, EventRecord};

/// Schema tag carried by the stream header line.
pub const EVENT_SCHEMA: &str = "fexiot-obs-events/v1";

/// The header line opening every stream (no trailing newline).
pub fn header_line(run: &str) -> String {
    Json::Obj(vec![
        ("schema".into(), Json::Str(EVENT_SCHEMA.into())),
        ("run".into(), Json::Str(run.into())),
    ])
    .to_string()
}

/// Serializes one event record as a JSON value, or `None` when the event is
/// suppressed in timing-excluded mode (samples of `*_us` histograms and
/// writes to `*_per_sec` gauges are wall-clock data and would break stream
/// determinism).
pub fn event_to_json(rec: &EventRecord, include_timing: bool) -> Option<Json> {
    let mut members = vec![("seq".to_string(), Json::UInt(rec.seq))];
    match &rec.event {
        Event::SpanOpen { id, parent, name } => {
            members.push(("ev".into(), Json::Str("span_open".into())));
            members.push(("id".into(), Json::UInt(*id)));
            members.push((
                "parent".into(),
                parent.map(Json::UInt).unwrap_or(Json::Null),
            ));
            members.push(("name".into(), Json::Str(name.clone())));
        }
        Event::SpanClose {
            id,
            name,
            elapsed_us,
        } => {
            members.push(("ev".into(), Json::Str("span_close".into())));
            members.push(("id".into(), Json::UInt(*id)));
            members.push(("name".into(), Json::Str(name.clone())));
            if include_timing {
                members.push(("elapsed_us".into(), Json::UInt(*elapsed_us)));
            }
        }
        Event::Counter { name, delta, total } => {
            members.push(("ev".into(), Json::Str("counter".into())));
            members.push(("name".into(), Json::Str(name.clone())));
            members.push(("delta".into(), Json::UInt(*delta)));
            members.push(("total".into(), Json::UInt(*total)));
        }
        Event::Gauge { name, value } => {
            if !include_timing && is_timing_name(name) {
                return None;
            }
            members.push(("ev".into(), Json::Str("gauge".into())));
            members.push(("name".into(), Json::Str(name.clone())));
            members.push(("value".into(), Json::Num(*value)));
        }
        Event::Hist { name, value } => {
            if !include_timing && is_timing_name(name) {
                return None;
            }
            members.push(("ev".into(), Json::Str("hist".into())));
            members.push(("name".into(), Json::Str(name.clone())));
            members.push(("value".into(), Json::Num(*value)));
        }
        Event::Mark { name } => {
            members.push(("ev".into(), Json::Str("mark".into())));
            members.push(("name".into(), Json::Str(name.clone())));
        }
    }
    Some(Json::Obj(members))
}

/// Serializes one event record as a JSONL line (no trailing newline), or
/// `None` when the event is suppressed in timing-excluded mode.
pub fn event_to_line(rec: &EventRecord, include_timing: bool) -> Option<String> {
    event_to_json(rec, include_timing).map(|j| j.to_string())
}

fn num(j: &Json) -> Option<f64> {
    match j {
        Json::UInt(v) => Some(*v as f64),
        Json::Num(v) => Some(*v),
        _ => None,
    }
}

fn field<'a>(obj: &'a Json, key: &str, line_no: usize) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("line {line_no}: missing field {key:?}"))
}

/// Parses one event line. `line_no` is used only in error messages.
pub fn parse_line(line: &str, line_no: usize) -> Result<EventRecord, String> {
    let obj = Json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
    let seq = field(&obj, "seq", line_no)?
        .as_u64()
        .ok_or_else(|| format!("line {line_no}: seq must be an unsigned integer"))?;
    let ev = field(&obj, "ev", line_no)?
        .as_str()
        .ok_or_else(|| format!("line {line_no}: ev must be a string"))?;
    let name = |key: &str| -> Result<String, String> {
        field(&obj, key, line_no)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("line {line_no}: {key} must be a string"))
    };
    let uint = |key: &str| -> Result<u64, String> {
        field(&obj, key, line_no)?
            .as_u64()
            .ok_or_else(|| format!("line {line_no}: {key} must be an unsigned integer"))
    };
    let value = |key: &str| -> Result<f64, String> {
        num(field(&obj, key, line_no)?)
            .ok_or_else(|| format!("line {line_no}: {key} must be a number"))
    };
    let event = match ev {
        "span_open" => Event::SpanOpen {
            id: uint("id")?,
            parent: match field(&obj, "parent", line_no)? {
                Json::Null => None,
                j => Some(j.as_u64().ok_or_else(|| {
                    format!("line {line_no}: parent must be null or an unsigned integer")
                })?),
            },
            name: name("name")?,
        },
        "span_close" => Event::SpanClose {
            id: uint("id")?,
            name: name("name")?,
            // Absent in timing-excluded streams; 0 marks "not recorded".
            elapsed_us: if obj.get("elapsed_us").is_some() {
                uint("elapsed_us")?
            } else {
                0
            },
        },
        "counter" => Event::Counter {
            name: name("name")?,
            delta: uint("delta")?,
            total: uint("total")?,
        },
        "gauge" => Event::Gauge {
            name: name("name")?,
            value: value("value")?,
        },
        "hist" => Event::Hist {
            name: name("name")?,
            value: value("value")?,
        },
        "mark" => Event::Mark {
            name: name("name")?,
        },
        other => return Err(format!("line {line_no}: unknown event kind {other:?}")),
    };
    Ok(EventRecord { seq, event })
}

/// Parses a whole stream: header line first, then events with strictly
/// increasing sequence numbers. Blank lines are ignored. Returns the run
/// name from the header and the events in order.
pub fn parse_stream(text: &str) -> Result<(String, Vec<EventRecord>), String> {
    let mut run = None;
    let mut events = Vec::new();
    let mut last_seq: Option<u64> = None;
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let Some(run_name) = &run else {
            let header = Json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
            let schema = field(&header, "schema", line_no)?
                .as_str()
                .ok_or_else(|| format!("line {line_no}: schema must be a string"))?;
            if schema != EVENT_SCHEMA {
                return Err(format!(
                    "line {line_no}: schema {schema:?} is not {EVENT_SCHEMA:?}"
                ));
            }
            run = Some(
                field(&header, "run", line_no)?
                    .as_str()
                    .ok_or_else(|| format!("line {line_no}: run must be a string"))?
                    .to_string(),
            );
            continue;
        };
        let _ = run_name;
        let rec = parse_line(line, line_no)?;
        if let Some(prev) = last_seq {
            if rec.seq <= prev {
                return Err(format!(
                    "line {line_no}: seq {} not greater than previous {prev} \
                     (stream gap or reordering)",
                    rec.seq
                ));
            }
        }
        last_seq = Some(rec.seq);
        events.push(rec);
    }
    match run {
        Some(run) => Ok((run, events)),
        None => Err("empty stream: missing header line".into()),
    }
}
