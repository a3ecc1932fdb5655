//! Property tests for the observability layer: the JSONL event codec must
//! round-trip arbitrary events exactly, histogram merging must be
//! associative and commutative (the federated trace merge relies on both —
//! per-client snapshots land in arbitrary grouping as rounds interleave),
//! and `obs-diff`'s structural rule must grade every kind of difference in
//! a written report as its module docs say.

use fexiot_obs::diff::{diff_reports, DiffConfig, Severity};
use fexiot_obs::report::{to_json, ReportExtras, Timing};
use fexiot_obs::stream::{event_to_line, header_line, parse_line, parse_stream};
use fexiot_obs::{buckets, is_timing_name, Event, EventRecord, Histogram, Json, Registry};
use proptest::prelude::*;
use std::sync::Arc;

/// Builds an event from a generated discriminant and payload. Names cycle
/// through representative shapes, including `[index]` instances and a
/// timing (`_us`) histogram.
fn make_event(kind: u8, id: u64, value_bits: u32, name_sel: u8) -> Event {
    let name = match name_sel % 5 {
        0 => "fed.sim.participants".to_string(),
        1 => format!("round[{}]", id % 10),
        2 => format!("client[{}]", id % 7),
        3 => "gnn.trainer.epoch_loss".to_string(),
        _ => "fed.client.step_us".to_string(),
    };
    // Dyadic rational: exact in f64 and through shortest-round-trip Display.
    let value = f64::from(value_bits) / 256.0;
    match kind % 6 {
        0 => Event::SpanOpen {
            id,
            parent: id.is_multiple_of(3).then_some(id / 2),
            name,
        },
        1 => Event::SpanClose {
            id,
            name,
            elapsed_us: u64::from(value_bits),
        },
        2 => Event::Counter {
            name,
            delta: u64::from(value_bits),
            total: id.saturating_add(u64::from(value_bits)),
        },
        3 => Event::Gauge { name, value },
        4 => Event::Hist { name, value },
        _ => Event::Mark { name },
    }
}

/// The written report of a registry filled from `seed`: `ops` draws of
/// counters, deterministic and `*_per_sec` gauges, deterministic and `*_us`
/// histograms, and spans nested up to three levels deep.
fn generated_report(seed: u64, ops: usize) -> Json {
    let reg = Arc::new(Registry::new());
    let mut x = seed;
    let mut draw = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 33
    };
    {
        let _root = reg.span("root");
        for i in 0..ops {
            let v = draw();
            match v % 6 {
                0 => reg.counter_add(&format!("c{}", v % 5), v % 100),
                1 => reg.gauge_set(&format!("g{}", v % 5), (v % 1000) as f64 / 8.0),
                2 => reg.gauge_set(&format!("r{}_per_sec", v % 3), (v % 1000) as f64 + 1.0),
                3 => reg.hist_record(&format!("h{}", v % 3), buckets::LOSS, (v % 64) as f64 / 8.0),
                4 => reg.hist_record(
                    &format!("t{}_us", v % 3),
                    buckets::TIME_US,
                    (v % 5000) as f64,
                ),
                _ => {
                    let _outer = reg.span(format!("s{i}"));
                    let _inner = reg.span(format!("s{i}.{}", v % 3));
                }
            }
        }
    }
    let doc = to_json(
        &reg.snapshot(),
        "prop",
        Timing::Include,
        &ReportExtras::default(),
    );
    Json::parse(&doc.to_string()).expect("a written report parses")
}

/// Calls `f` on every leaf outside a timing key, with the path `obs-diff`
/// reports it under: dotted keys, and array elements addressed by their
/// string `name` or else their index.
fn visit_leaves(v: &mut Json, path: &str, f: &mut impl FnMut(&str, &mut Json)) {
    match v {
        Json::Obj(members) => {
            for (key, member) in members.iter_mut().filter(|(k, _)| !is_timing_name(k)) {
                let here = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                visit_leaves(member, &here, f);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter_mut().enumerate() {
                let here = match item.get("name").and_then(Json::as_str) {
                    Some(name) => format!("{path}[{name}]"),
                    None => format!("{path}[{i}]"),
                };
                visit_leaves(item, &here, f);
            }
        }
        leaf => f(path, leaf),
    }
}

/// Changes one leaf to a different value of its kind.
fn mutate(leaf: &mut Json) {
    *leaf = match leaf {
        Json::UInt(n) => Json::UInt(*n + 1),
        Json::Num(x) => Json::Num(*x + 0.5),
        Json::Str(s) => Json::Str(format!("{s}~")),
        Json::Bool(b) => Json::Bool(!*b),
        _ => Json::UInt(0),
    };
}

/// Scales every number under a timing key by `factor`, and with `drop`
/// removes the timing members themselves.
fn perturb_timing(v: &mut Json, timing: bool, factor: u64, drop: bool) {
    match v {
        Json::Obj(members) => {
            if drop {
                members.retain(|(k, _)| !is_timing_name(k));
            }
            for (key, member) in members.iter_mut() {
                perturb_timing(member, timing || is_timing_name(key), factor, drop);
            }
        }
        Json::Arr(items) => {
            for item in items {
                perturb_timing(item, timing, factor, drop);
            }
        }
        Json::UInt(n) if timing => *n = n.saturating_mul(factor),
        Json::Num(x) if timing => *x *= factor as f64,
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn event_lines_round_trip_exactly(
        kind in 0u8..6,
        id in 0u64..1_000_000,
        value_bits in 0u32..u32::MAX,
        name_sel in 0u8..5,
        seq in 0u64..1_000_000,
    ) {
        let rec = EventRecord { seq, event: make_event(kind, id, value_bits, name_sel) };
        let line = event_to_line(&rec, true).expect("timing-included mode serializes everything");
        let parsed = parse_line(&line, 1).expect("emitted line parses");
        prop_assert_eq!(&parsed, &rec);
        // A second serialization is byte-identical (canonical form).
        prop_assert_eq!(event_to_line(&parsed, true).unwrap(), line);
    }

    #[test]
    fn streams_of_events_round_trip_in_order(
        seed in 0u64..10_000,
        n in 1usize..40,
    ) {
        let mut text = header_line("prop");
        text.push('\n');
        let mut records = Vec::new();
        for i in 0..n {
            let x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i as u64);
            let event = make_event((x % 6) as u8, x % 4096, (x >> 13) as u32, (x % 5) as u8);
            let rec = EventRecord { seq: i as u64, event };
            if let Some(line) = event_to_line(&rec, true) {
                text.push_str(&line);
                text.push('\n');
                records.push(rec);
            }
        }
        let (run, parsed) = parse_stream(&text).expect("assembled stream parses");
        prop_assert_eq!(run, "prop");
        prop_assert_eq!(parsed, records);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative(
        seed in 0u64..10_000,
        na in 0usize..30,
        nb in 0usize..30,
        nc in 0usize..30,
    ) {
        let edges = &[0.0, 1.0, 4.0, 16.0, 64.0];
        // Dyadic samples keep every sum exact, so snapshot equality is
        // legitimate bitwise equality, not approximate.
        let fill = |count: usize, salt: u64| {
            let mut h = Histogram::new(edges).unwrap();
            for i in 0..count {
                let x = seed.wrapping_mul(31).wrapping_add(salt).wrapping_add(i as u64);
                h.record((x % 1024) as f64 / 8.0);
            }
            h
        };
        let (a, b, c) = (fill(na, 1), fill(nb, 2), fill(nc, 3));

        // (a + b) + c
        let mut left = Histogram::from_snapshot(&a.snapshot()).unwrap();
        prop_assert!(left.merge(&b.snapshot()));
        prop_assert!(left.merge(&c.snapshot()));
        // a + (b + c)
        let mut bc = Histogram::from_snapshot(&b.snapshot()).unwrap();
        prop_assert!(bc.merge(&c.snapshot()));
        let mut right = Histogram::from_snapshot(&a.snapshot()).unwrap();
        prop_assert!(right.merge(&bc.snapshot()));
        prop_assert_eq!(left.snapshot(), right.snapshot());

        // a + b == b + a
        let mut ab = Histogram::from_snapshot(&a.snapshot()).unwrap();
        prop_assert!(ab.merge(&b.snapshot()));
        let mut ba = Histogram::from_snapshot(&b.snapshot()).unwrap();
        prop_assert!(ba.merge(&a.snapshot()));
        prop_assert_eq!(ab.snapshot(), ba.snapshot());

        // Merge totals are conserved.
        prop_assert_eq!(left.snapshot().count, (na + nb + nc) as u64);
    }

    #[test]
    fn mismatched_edges_never_merge(seed in 0u64..1000) {
        let mut a = Histogram::new(&[0.0, 1.0, 2.0]).unwrap();
        let b = Histogram::new(&[0.0, (seed % 100 + 3) as f64]).unwrap();
        let before = a.snapshot();
        prop_assert!(!a.merge(&b.snapshot()));
        prop_assert_eq!(a.snapshot(), before, "failed merge must not mutate");
    }

    #[test]
    fn obs_diff_grades_every_difference_by_the_structural_rule(
        seed in 0u64..1_000_000,
        ops in 0usize..40,
        pick in 0usize..10_000,
        factor in 0u64..4,
        drop_timing in 0u8..2,
    ) {
        let cfg = DiffConfig::default();
        let report = generated_report(seed, ops);
        prop_assert!(diff_reports(&report, &report, &cfg).findings.is_empty());

        // One non-timing leaf changed: exactly one breaking finding, there.
        let mut leaves = 0usize;
        visit_leaves(&mut report.clone(), "", &mut |_, _| leaves += 1);
        let target = pick % leaves;
        let (mut seen, mut changed) = (0usize, String::new());
        let mut mutated = report.clone();
        visit_leaves(&mut mutated, "", &mut |path, leaf| {
            if seen == target {
                mutate(leaf);
                changed = path.to_string();
            }
            seen += 1;
        });
        let d = diff_reports(&report, &mutated, &cfg);
        prop_assert_eq!(d.findings.len(), 1, "{}", d.render());
        prop_assert_eq!(d.findings[0].severity, Severity::Breaking);
        prop_assert_eq!(&d.findings[0].path, &changed);

        // Only timing values changed: never breaking unless strict.
        let mut retimed = report.clone();
        perturb_timing(&mut retimed, false, factor, drop_timing == 1);
        let lax = diff_reports(&report, &retimed, &cfg);
        prop_assert!(lax.passed(), "{}", lax.render());
        let strict = diff_reports(
            &report,
            &retimed,
            &DiffConfig { strict_timing: true, ..DiffConfig::default() },
        );
        prop_assert_eq!(strict.breaking(), lax.findings.len(), "{}", strict.render());

        // One optional top-level section on one side: one advisory finding.
        let sections = ["critical_path", "timeseries", "slo", "root_cause", "stream", "next"];
        let section = sections[pick % sections.len()];
        let mut extended = report.clone();
        if let Json::Obj(members) = &mut extended {
            members.push((section.to_string(), Json::Arr(vec![Json::UInt(seed)])));
        }
        for (a, b) in [(&report, &extended), (&extended, &report)] {
            let d = diff_reports(a, b, &cfg);
            prop_assert_eq!(d.findings.len(), 1, "{}", d.render());
            prop_assert_eq!(d.findings[0].severity, Severity::Advisory);
            prop_assert_eq!(d.findings[0].path.as_str(), section);
        }
    }
}
