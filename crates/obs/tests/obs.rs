//! Unit coverage for the observability registry: histogram bucketing edge
//! cases, span nesting and unwind safety, exact concurrent counting, and
//! report export/validation round trips.

use fexiot_obs::report::{to_json, Timing};
use fexiot_obs::{
    buckets, deterministic_json, render_summary, validate_report, Histogram, Json, Registry,
};
use std::sync::Arc;

#[test]
fn histogram_buckets_underflow_interior_and_overflow() {
    let mut h = Histogram::new(&[0.0, 1.0, 2.0, 4.0]).expect("valid edges");
    h.record(-0.5); // underflow
    h.record(0.0); // first bucket, inclusive lower edge
    h.record(0.999); // first bucket
    h.record(1.0); // second bucket, boundary goes up
    h.record(3.999); // third bucket
    h.record(4.0); // overflow, inclusive last edge
    h.record(100.0); // overflow
    let s = h.snapshot();
    assert_eq!(s.underflow, 1);
    assert_eq!(s.counts, vec![2, 1, 1]);
    assert_eq!(s.overflow, 2);
    assert_eq!(s.count, 7);
    assert_eq!(s.min, Some(-0.5));
    assert_eq!(s.max, Some(100.0));
}

#[test]
fn histogram_quantile_edge_cases() {
    // Empty histogram: every quantile is None.
    let empty = Histogram::new(&[0.0, 1.0]).expect("valid edges").snapshot();
    assert_eq!(empty.quantile(0.5), None);
    assert_eq!(empty.quantile(0.0), None);

    // Out-of-range and NaN q: None even with data.
    let mut h = Histogram::new(&[0.0, 1.0, 2.0]).expect("valid edges");
    h.record(0.5);
    let s = h.snapshot();
    assert_eq!(s.quantile(-0.1), None);
    assert_eq!(s.quantile(1.1), None);
    assert_eq!(s.quantile(f64::NAN), None);

    // Single interior bucket, one sample: every quantile resolves to the
    // exact min/max, never an interpolated bucket midpoint outside them.
    assert_eq!(s.quantile(0.0), Some(0.5));
    assert_eq!(s.quantile(0.5), Some(0.5));
    assert_eq!(s.quantile(1.0), Some(0.5));

    // Overflow-heavy: ranks past the interior land on max, not an edge.
    let mut h = Histogram::new(&[0.0, 1.0]).expect("valid edges");
    h.record(0.5);
    for _ in 0..9 {
        h.record(50.0); // all overflow
    }
    let s = h.snapshot();
    assert_eq!(s.quantile(0.9), Some(50.0));
    assert_eq!(s.quantile(1.0), Some(50.0));
    // Lowest rank interpolates inside the interior bucket; the estimate may
    // sit anywhere in [min, bucket upper edge] but never in the overflow.
    let low = s.quantile(0.05).unwrap();
    assert!(
        (0.5..=1.0).contains(&low),
        "q0.05 estimate {low} escaped the interior"
    );

    // Underflow: low quantiles resolve to min.
    let mut h = Histogram::new(&[0.0, 1.0]).expect("valid edges");
    h.record(-5.0);
    h.record(-3.0);
    h.record(0.5);
    let s = h.snapshot();
    assert_eq!(s.quantile(0.25), Some(-5.0), "underflow ranks report min");
    assert_eq!(s.quantile(1.0), Some(0.5));

    // Interior interpolation stays within [min, max] and is monotone in q.
    let mut h = Histogram::new(&[0.0, 10.0]).expect("valid edges");
    for v in [2.0, 4.0, 6.0, 8.0] {
        h.record(v);
    }
    let s = h.snapshot();
    let (q25, q75) = (s.quantile(0.25).unwrap(), s.quantile(0.75).unwrap());
    assert!(q25 <= q75, "quantiles must be monotone: {q25} vs {q75}");
    for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
        let v = s.quantile(q).unwrap();
        assert!(
            (2.0..=8.0).contains(&v),
            "q{q} estimate {v} escaped [min, max]"
        );
    }
}

#[test]
fn histogram_rejects_nan_and_infinities() {
    let mut h = Histogram::new(&[0.0, 1.0]).expect("valid edges");
    h.record(f64::NAN);
    h.record(f64::INFINITY);
    h.record(f64::NEG_INFINITY);
    h.record(0.5);
    let s = h.snapshot();
    assert_eq!(s.rejected, 3, "all non-finite samples rejected");
    assert_eq!(s.count, 1, "only the finite sample counted");
    assert!(s.sum.is_finite());
    assert_eq!(s.min, Some(0.5));
}

#[test]
fn histogram_rejects_malformed_edges() {
    assert!(Histogram::new(&[]).is_none(), "empty");
    assert!(Histogram::new(&[1.0]).is_none(), "single edge");
    assert!(Histogram::new(&[1.0, 1.0]).is_none(), "non-increasing");
    assert!(Histogram::new(&[2.0, 1.0]).is_none(), "decreasing");
    assert!(Histogram::new(&[0.0, f64::NAN]).is_none(), "NaN edge");
    assert!(
        Histogram::new(&[0.0, f64::INFINITY]).is_none(),
        "infinite edge"
    );
}

#[test]
fn histogram_empty_snapshot_has_no_min_max() {
    let h = Histogram::new(buckets::LOSS).expect("valid edges");
    let s = h.snapshot();
    assert_eq!(s.count, 0);
    assert_eq!(s.min, None);
    assert_eq!(s.max, None);
    assert_eq!(s.mean(), None);
}

#[test]
fn spans_nest_by_call_structure() {
    let reg = Arc::new(Registry::new());
    {
        let _root = reg.span("outer");
        {
            let _a = reg.span("inner_a");
        }
        let _b = reg.span("inner_b");
    }
    let _sibling = reg.span("sibling_root");
    let snap = reg.snapshot();
    assert_eq!(snap.roots.len(), 2);
    assert_eq!(snap.roots[0].name, "outer");
    let children: Vec<&str> = snap.roots[0]
        .children
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(children, vec!["inner_a", "inner_b"]);
    assert_eq!(snap.roots[1].name, "sibling_root");
    assert!(snap.roots[1].children.is_empty());
}

#[test]
fn panicking_scope_still_closes_its_span() {
    let reg = Arc::new(Registry::new());
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _root = reg.span("doomed");
        let _child = reg.span("doomed.child");
        panic!("instrumented code failed");
    }));
    assert!(caught.is_err(), "the panic must propagate");
    // Both spans were closed by their guards during unwinding, and the
    // registry is still usable afterwards (no poisoned-mutex wedge).
    let _after = reg.span("after_panic");
    reg.counter_add("after.panic", 1);
    let snap = reg.snapshot();
    let doomed = snap.find_span("doomed").expect("doomed span recorded");
    assert_eq!(doomed.children.len(), 1);
    assert_eq!(snap.counters["after.panic"], 1);
    // A span opened after the unwind is a fresh root, not a child of the
    // panicked span (its stack entry was removed on drop).
    assert!(snap.roots.iter().any(|r| r.name == "after_panic"));
}

#[test]
fn concurrent_counter_increments_sum_exactly() {
    let reg = Arc::new(Registry::new());
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    reg.counter_add("test.concurrent", 1);
                    if i % 64 == 0 {
                        reg.hist_record("test.concurrent.hist", buckets::SMALL_COUNT, t as f64);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    let snap = reg.snapshot();
    assert_eq!(
        snap.counters["test.concurrent"],
        THREADS as u64 * PER_THREAD,
        "increments were lost"
    );
    assert_eq!(
        snap.histograms["test.concurrent.hist"].count,
        (THREADS as u64) * PER_THREAD.div_ceil(64)
    );
}

#[test]
fn concurrent_spans_keep_per_thread_parentage() {
    let reg = Arc::new(Registry::new());
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                let _outer = reg.span(format!("thread[{t}]"));
                let _inner = reg.span(format!("thread[{t}].work"));
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    let snap = reg.snapshot();
    assert_eq!(snap.roots.len(), 4, "one root per thread");
    for root in &snap.roots {
        assert_eq!(root.children.len(), 1, "inner nested under its own thread");
        assert!(root.children[0].name.starts_with(&root.name));
    }
}

#[test]
fn disabled_registry_is_inert_and_reenables() {
    let reg = Arc::new(Registry::with_enabled(false));
    {
        let _s = reg.span("ghost");
        reg.counter_add("ghost", 1);
        reg.gauge_set("ghost", 1.0);
        reg.hist_record("ghost", buckets::LOSS, 0.5);
    }
    let snap = reg.snapshot();
    assert!(snap.roots.is_empty() && snap.counters.is_empty() && snap.histograms.is_empty());
    reg.set_enabled(true);
    reg.counter_add("real", 2);
    assert_eq!(reg.snapshot().counters["real"], 2);
}

#[test]
fn report_export_roundtrips_and_validates() {
    let reg = Arc::new(Registry::new());
    {
        let _r = reg.span("pipeline");
        let _c = reg.span("pipeline.corpus");
        reg.counter_add("fed.sim.participants", 5);
        reg.gauge_set("fed.sim.mean_loss", 0.75);
        reg.hist_record("gnn.trainer.epoch_loss", buckets::LOSS, 0.3);
        reg.hist_record("gnn.trainer.epoch_loss", buckets::LOSS, f64::NAN);
    }
    let snap = reg.snapshot();
    let doc = to_json(&snap, "unit", Timing::Include, &Default::default());
    validate_report(&doc).expect("emitted report conforms to its own schema");
    let reparsed = Json::parse(&doc.to_string()).expect("serialized report parses");
    // Integer-valued floats reparse as integers, so compare re-serialized
    // text (the fixed point of the writer/parser pair), not value trees.
    assert_eq!(
        reparsed.to_string(),
        doc.to_string(),
        "writer/parser round trip"
    );
    assert_eq!(
        reparsed
            .get("counters")
            .unwrap()
            .get("fed.sim.participants"),
        Some(&Json::UInt(5))
    );

    // Timing-free form contains no elapsed_us key anywhere.
    let det = deterministic_json(&snap, "unit");
    assert!(!det.contains("elapsed_us"));
    validate_report(&Json::parse(&det).expect("deterministic form parses"))
        .expect("deterministic form also conforms");

    // Summary renders the tree and the metric digests.
    let summary = render_summary(&snap, None);
    assert!(summary.contains("pipeline"));
    assert!(summary.contains("pipeline.corpus"));
    assert!(summary.contains("fed.sim.participants = 5"));
    assert!(summary.contains("gnn.trainer.epoch_loss"));
}

#[test]
fn validate_report_rejects_malformed_documents() {
    // Each case is a v4 document with one defect, which the error names.
    let cases = [
        ("{}", "missing string field 'schema'"),
        (
            r#"{"schema":"fexiot-obs/v3","run":"x","spans":[],"counters":{},"gauges":{},"histograms":{},"dropped_spans":0}"#,
            "unknown schema \"fexiot-obs/v3\"",
        ),
        (
            r#"{"schema":"fexiot-obs/v4","run":"x","spans":[{"children":[]}],"counters":{},"gauges":{},"histograms":{},"dropped_spans":0}"#,
            "span missing string 'name'",
        ),
        (
            r#"{"schema":"fexiot-obs/v4","run":"x","spans":[],"counters":{"a":-1},"gauges":{},"histograms":{},"dropped_spans":0}"#,
            "counters[\"a\"] has a malformed value",
        ),
        (
            r#"{"schema":"fexiot-obs/v4","run":"x","spans":[],"counters":{},"gauges":{},"histograms":{"h":{"edges":[0,1],"counts":[1,2],"underflow":0,"overflow":0,"count":3,"rejected":0}},"dropped_spans":0}"#,
            "2 edges need 1 counts, found 2",
        ),
        (
            r#"{"schema":"fexiot-obs/v4","run":"x","spans":[],"counters":{},"gauges":{},"histograms":{},"dropped_spans":0,"stream":{"events":1}}"#,
            "stream section missing integer 'detected'",
        ),
    ];
    for (text, defect) in cases {
        let doc = Json::parse(text).expect("test document parses");
        let err = validate_report(&doc).expect_err(defect);
        assert!(err.contains(defect), "{defect:?} not named in {err:?}");
    }
}

#[test]
fn snapshot_deltas_support_round_accounting() {
    // Per-round views take counter deltas between two reads; lock in the
    // arithmetic they rely on.
    let reg = Arc::new(Registry::new());
    let lost = |reg: &Registry| {
        let counters = reg.snapshot().counters;
        counters.get("fed.sim.lost_messages").copied().unwrap_or(0)
    };
    reg.counter_add("fed.sim.lost_messages", 2);
    let before = lost(&reg);
    reg.counter_add("fed.sim.lost_messages", 3);
    assert_eq!(lost(&reg) - before, 3);
    reg.reset();
    assert_eq!(lost(&reg), 0);
}

#[test]
fn absorb_preserves_two_levels_of_nesting_and_merges_histograms() {
    // A child registry records a grandchild-deep span tree plus metrics, as
    // a federated client would.
    let child = Arc::new(Registry::new());
    {
        let _w = child.span("client.work");
        {
            let _i = child.span("client.work.batch");
            let _l = child.span("client.work.batch.step");
            child.counter_add("client.steps", 4);
        }
        child.hist_record("client.step_us", buckets::TIME_US, 120.0);
        child.hist_record("client.step_us", buckets::TIME_US, 450.0);
    }
    let child_snap = child.snapshot();

    let parent = Arc::new(Registry::new());
    parent.hist_record("client.step_us", buckets::TIME_US, 80.0);
    {
        let _round = parent.span("server.round");
        assert_eq!(parent.absorb(&child_snap), 0);
    }

    let snap = parent.snapshot();
    // The absorbed tree hangs under the span that was open during absorb,
    // with the grandchild level intact; profile paths lock the ordering.
    let paths: Vec<(String, u64)> = fexiot_obs::profile::profile(&snap)
        .into_iter()
        .map(|s| (s.path, s.count))
        .collect();
    assert_eq!(
        paths,
        vec![
            ("server.round".to_string(), 1),
            ("server.round;client.work".to_string(), 1),
            ("server.round;client.work;client.work.batch".to_string(), 1),
            (
                "server.round;client.work;client.work.batch;client.work.batch.step".to_string(),
                1
            ),
        ]
    );
    // Counters accumulate and histograms merge across the absorb.
    assert_eq!(snap.counters["client.steps"], 4);
    let h = &snap.histograms["client.step_us"];
    assert_eq!(h.counts.iter().sum::<u64>() + h.underflow + h.overflow, 3);

    // A second absorb of the same snapshot under a fresh round adds another
    // instance of every path rather than collapsing them.
    {
        let _round = parent.span("server.round");
        assert_eq!(parent.absorb(&child_snap), 0);
    }
    let again = fexiot_obs::profile::profile(&parent.snapshot());
    for stat in &again {
        assert_eq!(
            stat.count, 2,
            "path {} should have two instances",
            stat.path
        );
    }
    assert_eq!(parent.snapshot().counters["client.steps"], 8);
}
