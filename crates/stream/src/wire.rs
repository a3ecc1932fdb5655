//! The per-home event wire protocol.
//!
//! Streams of home events travel as `fexiot-obs-events/v1` JSONL — the same
//! schema the registry's live sink emits — so the serving path needs no new
//! transport: a header line, then one `mark` event per home event whose name
//! encodes the payload:
//!
//! ```text
//! stream.ev home=3 t=1742 kind=Light loc=Kitchen active=1 state=on
//! ```
//!
//! `state` comes last because cleaned state words may contain spaces; every
//! other field is a single token. Device kinds and locations round-trip via
//! their stable `Debug` names (looked up against the exhaustive
//! [`DeviceKind::ACTUATORS`]/[`DeviceKind::SENSORS`] and [`Location::ALL`]
//! tables), so a recorded stream replays to the byte on any build.

use std::collections::BTreeMap;

use fexiot_graph::events::CleanEvent;
use fexiot_graph::online::EXPLAIN_WINDOW;
use fexiot_graph::{Device, DeviceKind, Location};
use fexiot_obs::stream::{event_to_line, header_line, parse_stream};
use fexiot_obs::{Event, EventRecord};

/// One wire message: a cleaned device event attributed to a home.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeEvent {
    pub home: usize,
    pub event: CleanEvent,
}

/// Prefix of every event mark on the wire.
const MARK_PREFIX: &str = "stream.ev ";

fn kind_by_name(name: &str) -> Option<DeviceKind> {
    DeviceKind::ACTUATORS
        .iter()
        .chain(DeviceKind::SENSORS.iter())
        .copied()
        .find(|k| format!("{k:?}") == name)
}

fn location_by_name(name: &str) -> Option<Location> {
    Location::ALL
        .iter()
        .copied()
        .find(|l| format!("{l:?}") == name)
}

/// Encodes one home event as the mark name carried on the wire.
pub fn encode_mark(ev: &HomeEvent) -> String {
    format!(
        "{MARK_PREFIX}home={} t={} kind={:?} loc={:?} active={} state={}",
        ev.home,
        ev.event.time,
        ev.event.device.kind,
        ev.event.device.location,
        u8::from(ev.event.active),
        ev.event.state,
    )
}

/// Decodes a mark name back into a [`HomeEvent`]. Returns `None` for marks
/// that are not wire events (streams may interleave other marks).
pub fn decode_mark(name: &str) -> Option<HomeEvent> {
    let rest = name.strip_prefix(MARK_PREFIX)?;
    let mut home = None;
    let mut time = None;
    let mut kind = None;
    let mut loc = None;
    let mut active = None;
    let mut cursor = rest;
    let state = loop {
        let (token, tail) = match cursor.split_once(' ') {
            Some((tok, tail)) => (tok, tail),
            None => (cursor, ""),
        };
        let (key, value) = token.split_once('=')?;
        match key {
            "home" => home = value.parse::<usize>().ok(),
            "t" => time = value.parse::<u64>().ok(),
            "kind" => kind = kind_by_name(value),
            "loc" => loc = location_by_name(value),
            "active" => {
                active = match value {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            // `state` is the final field and owns the rest of the line.
            "state" => break format!("{value}{}{tail}", if tail.is_empty() { "" } else { " " }),
            _ => return None,
        }
        if tail.is_empty() {
            return None; // ran out of tokens before `state`
        }
        cursor = tail;
    };
    Some(HomeEvent {
        home: home?,
        event: CleanEvent {
            time: time?,
            device: Device::new(kind?, loc?),
            state,
            active: active?,
        },
    })
}

/// Serializes a full wire stream (header + one mark line per event).
pub fn write_wire(run: &str, events: &[HomeEvent]) -> String {
    let mut out = header_line(run);
    out.push('\n');
    for (i, ev) in events.iter().enumerate() {
        let rec = EventRecord {
            seq: i as u64 + 1,
            event: Event::Mark {
                name: encode_mark(ev),
            },
        };
        // Marks are never timing-suppressed, so the line always exists.
        out.push_str(&event_to_line(&rec, false).expect("marks are never suppressed"));
        out.push('\n');
    }
    out
}

/// Latest event time the wire accepts: the maintainer opens completion
/// windows that close [`EXPLAIN_WINDOW`] later, which must not overflow.
const MAX_WIRE_TIME: u64 = u64::MAX - EXPLAIN_WINDOW;

/// Parses a wire stream, returning the run name and the events in order.
/// Non-event lines (other marks, counters) are skipped. A `stream.ev` mark
/// that fails to decode, carries a time within [`EXPLAIN_WINDOW`] of
/// `u64::MAX`, or is earlier than its home's previous event is an error
/// naming its seq.
pub fn parse_wire(text: &str) -> Result<(String, Vec<HomeEvent>), String> {
    let (run, records) = parse_stream(text)?;
    let mut events = Vec::new();
    let mut home_time: BTreeMap<usize, u64> = BTreeMap::new();
    for rec in &records {
        if let Event::Mark { name } = &rec.event {
            if name.starts_with(MARK_PREFIX) {
                let Some(ev) = decode_mark(name) else {
                    return Err(format!("seq {}: malformed wire event {name:?}", rec.seq));
                };
                let t = ev.event.time;
                if t > MAX_WIRE_TIME {
                    return Err(format!(
                        "seq {}: event time {t} exceeds the wire maximum {MAX_WIRE_TIME}",
                        rec.seq
                    ));
                }
                if let Some(&prev) = home_time.get(&ev.home).filter(|&&prev| t < prev) {
                    return Err(format!(
                        "seq {}: home {} event at t={t} is earlier than its previous event \
                         at t={prev}",
                        rec.seq, ev.home
                    ));
                }
                home_time.insert(ev.home, t);
                events.push(ev);
            }
        }
    }
    Ok((run, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn sample(home: usize, time: u64, kind: DeviceKind, loc: Location, active: bool) -> HomeEvent {
        let (on, off) = kind.state_words();
        HomeEvent {
            home,
            event: CleanEvent {
                time,
                device: Device::new(kind, loc),
                state: if active { on } else { off }.to_string(),
                active,
            },
        }
    }

    #[test]
    fn mark_round_trips() {
        let ev = sample(3, 1742, DeviceKind::Light, Location::Kitchen, true);
        assert_eq!(decode_mark(&encode_mark(&ev)), Some(ev));
    }

    #[test]
    fn state_with_spaces_round_trips() {
        let mut ev = sample(0, 9, DeviceKind::MotionSensor, Location::Garage, false);
        ev.event.state = "no motion detected".to_string();
        assert_eq!(decode_mark(&encode_mark(&ev)), Some(ev));
    }

    #[test]
    fn every_kind_and_location_round_trips() {
        for kind in DeviceKind::ACTUATORS
            .iter()
            .chain(DeviceKind::SENSORS.iter())
        {
            for loc in Location::ALL {
                let ev = sample(1, 5, *kind, loc, true);
                assert_eq!(decode_mark(&encode_mark(&ev)), Some(ev), "{kind:?}@{loc:?}");
            }
        }
    }

    #[test]
    fn wire_file_round_trips() {
        let events = vec![
            sample(0, 10, DeviceKind::Light, Location::Kitchen, true),
            sample(1, 12, DeviceKind::SmokeDetector, Location::Hallway, false),
            sample(0, 14, DeviceKind::Thermostat, Location::Bedroom, true),
        ];
        let text = write_wire("wire-test", &events);
        let (run, parsed) = parse_wire(&text).expect("parse");
        assert_eq!(run, "wire-test");
        assert_eq!(parsed, events);
    }

    #[test]
    fn foreign_marks_are_skipped_and_bad_events_rejected() {
        let mut text = header_line("x");
        text.push('\n');
        text.push_str(r#"{"seq":1,"ev":"mark","name":"round[0]"}"#);
        text.push('\n');
        let (_, events) = parse_wire(&text).expect("foreign marks skip");
        assert!(events.is_empty());

        text.push_str(r#"{"seq":2,"ev":"mark","name":"stream.ev home=z t=1"}"#);
        text.push('\n');
        assert!(parse_wire(&text).is_err());
    }

    #[test]
    fn time_travel_within_a_home_is_rejected_naming_the_seq() {
        let mut events = vec![
            sample(0, 10, DeviceKind::Light, Location::Kitchen, true),
            sample(1, 4, DeviceKind::Light, Location::Kitchen, true),
            sample(0, 10, DeviceKind::Thermostat, Location::Bedroom, true),
        ];
        // Another home's earlier time and a tie within one home are fine.
        assert!(parse_wire(&write_wire("ok", &events)).is_ok());
        events.push(sample(0, 9, DeviceKind::Light, Location::Kitchen, false));
        let err = parse_wire(&write_wire("bad", &events)).unwrap_err();
        assert!(err.starts_with("seq 4:") && err.contains("home 0"), "{err}");
    }

    #[test]
    fn times_that_would_overflow_the_window_are_rejected() {
        let at = |t| vec![sample(2, t, DeviceKind::Light, Location::Kitchen, true)];
        assert!(parse_wire(&write_wire("ok", &at(MAX_WIRE_TIME))).is_ok());
        for t in [MAX_WIRE_TIME + 1, u64::MAX] {
            let err = parse_wire(&write_wire("bad", &at(t))).unwrap_err();
            assert!(
                err.starts_with("seq 1:") && err.contains("exceeds"),
                "{err}"
            );
        }
    }

    /// A mark built from `recipe`'s bytes: each field is mostly valid, but
    /// now and then missing or garbled. Devices are the homes' trigger
    /// devices, so marks open completion windows; times fall near zero (so
    /// a home's events often go back in time) or near `u64::MAX`.
    fn recipe_mark(recipe: u64, state: &str) -> String {
        let bytes = recipe.to_le_bytes();
        let devices = trigger_devices();
        let device = devices[usize::from(bytes[2]) % devices.len()];
        let near = u64::from(bytes[1] >> 5);
        let t = if bytes[1] & 1 == 0 {
            u64::MAX - near
        } else {
            near
        };
        let fields = [
            format!("home={}", bytes[0] % 2),
            format!("t={t}"),
            format!("kind={:?}", device.kind),
            format!("loc={:?}", device.location),
            format!("active={}", bytes[3] % 2),
            format!("state={state}"),
        ];
        // Four bits per field from bytes 4–6: 0 drops it, 1 garbles it.
        let presence = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], 0]);
        let mut mark = String::from("stream.ev");
        for (i, field) in fields.iter().enumerate() {
            match presence >> (4 * i) & 0xF {
                0 => {}
                1 => mark.push_str(&format!(" {field}x")),
                _ => mark.push_str(&format!(" {field}")),
            }
        }
        mark
    }

    #[test]
    fn deeply_nested_line_is_an_error() {
        let text = format!("{}\n{}\n", header_line("deep"), "[".repeat(300_000));
        let err = parse_wire(&text).expect_err("nesting past the limit");
        assert!(err.contains("nesting too deep"), "{err}");
    }

    /// Offline graphs for the two homes the recipe marks name.
    fn two_homes() -> &'static [fexiot_graph::InteractionGraph] {
        static GRAPHS: OnceLock<Vec<fexiot_graph::InteractionGraph>> = OnceLock::new();
        GRAPHS.get_or_init(|| {
            let fleet = crate::FleetConfig {
                homes: 2,
                home_size: 3,
                ..crate::FleetConfig::default()
            };
            crate::replay_fleet(&fleet).graphs
        })
    }

    /// The devices whose state triggers a rule in one of the two homes.
    fn trigger_devices() -> &'static [Device] {
        static DEVICES: OnceLock<Vec<Device>> = OnceLock::new();
        DEVICES.get_or_init(|| {
            let devices: Vec<Device> = two_homes()
                .iter()
                .flat_map(|g| g.nodes.iter().map(|n| &n.rule))
                .filter_map(|r| match r.trigger {
                    fexiot_graph::rule::Trigger::DeviceState { device, .. } => Some(device),
                    _ => None,
                })
                .collect();
            assert!(!devices.is_empty(), "the homes need device-state triggers");
            devices
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        // Arbitrary `stream.ev` mark text and arbitrary lines parse to `Ok`
        // or `Err`, never a panic, and whatever parses serves without one.
        #[test]
        fn arbitrary_wire_text_never_panics(
            first in 0u64..u64::MAX,
            second in 0u64..u64::MAX,
            state in ".{0,12}",
            tokens in "[a-z=0-9 ]{0,30}",
            line in ".{0,40}",
            deep in 0usize..300_000,
        ) {
            let mut lines = vec![header_line("prop")];
            let marks = [
                recipe_mark(first, &state),
                recipe_mark(second, &state),
                format!("{MARK_PREFIX}{tokens}"),
            ];
            for (seq, name) in (1..).zip(marks) {
                let rec = EventRecord { seq, event: Event::Mark { name } };
                lines.push(event_to_line(&rec, false).expect("marks are never suppressed"));
            }
            lines.push(line);
            // Unclosed nesting far past the parser's depth limit.
            lines.push("[".repeat(deep));
            for n in 2..=lines.len() {
                let Ok((_, events)) = parse_wire(&(lines[..n].join("\n") + "\n")) else {
                    continue;
                };
                let reg = std::sync::Arc::new(fexiot_obs::Registry::with_enabled(false));
                let cfg = crate::StreamConfig::default();
                let det = crate::RuntimeDetector::default();
                crate::run_stream(two_homes(), &events, &det, &cfg, &reg, None);
            }
        }
    }
}
