//! Self-tests at a tiny size: the metric catalogue matches BENCHMARK.json,
//! every metric is emitted with its unit, traced and untraced passes agree
//! on every deterministic output, and a second seed does the same amount
//! of work with its own digests.

use super::*;
use crate::common::StoreCounts;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workload::{pass, Call, Stop};
use fexiot_obs::Json;

const TINY: Scale = Scale { tiny: true };

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn catalogue_names_are_valid_unique_and_match_benchmark_json() {
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            valid_name(d.name) && d.name.len() <= 64,
            "bad name {}",
            d.name
        );
        assert!(
            !d.unit.is_empty()
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {}",
            d.unit
        );
        assert!(seen.insert(d.name), "duplicate metric {}", d.name);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let Some(Json::Arr(listed)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        let listed: Vec<(String, String, String)> = listed
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = defs
            .iter()
            .map(|d| {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (d.name.to_string(), d.unit.to_string(), better.to_string())
            })
            .collect();
        assert_eq!(listed, ours, "{key} in BENCHMARK.json");
    }
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn arguments_are_validated() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = parse(&argv("--workload serve --seed 7 --seconds 2.5 --trace 1")).expect("valid");
    assert_eq!(
        (a.workload.as_str(), a.seed, a.seconds, a.trace),
        ("serve", 7, 2.5, true)
    );
    let a = parse(&argv("--workload train")).expect("defaults");
    assert_eq!((a.seed, a.seconds, a.trace), (42, 20.0, false));
    for bad in [
        "--workload nope",
        "",
        "--workload train --trace 2",
        "--workload train --seconds 0",
        "--workload train --seed x",
        "--workload train --seed",
        "--workload train --bogus 1",
    ] {
        assert!(parse(&argv(bad)).is_err(), "{bad:?} should be rejected");
    }
}

/// Runs `n` calls untraced and `n` traced from separate set-ups.
fn both_passes<W: Workload>(seed: u64, n: usize) -> [(Vec<Call>, StoreCounts); 2] {
    [Tracer::off(), Tracer::on()].map(|t| {
        let mut w = W::setup(TINY, seed, &t);
        let p = pass(&mut w, &t, Stop::Calls(n));
        assert!(p.problems.is_empty(), "{:?}", p.problems);
        (p.calls, w.store_counts())
    })
}

fn traced_matches_untraced_and_seeds_differ<W: Workload>(n: usize) {
    let [(plain, plain_store), (traced, traced_store)] = both_passes::<W>(42, n);
    let digests = |c: &[Call]| {
        c.iter()
            .map(|c| (c.digest, c.ops, c.failed))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        digests(&plain),
        digests(&traced),
        "traced pass changed outputs"
    );
    assert_eq!(
        plain_store, traced_store,
        "traced pass changed store traffic"
    );
    assert!(plain.iter().all(|c| c.failed == 0 && c.ops > 0));

    let [(other, _), _] = both_passes::<W>(7, n);
    assert_eq!(other.len(), plain.len());
    assert!(other.iter().all(|c| c.failed == 0));
    assert_ne!(
        digests(&other),
        digests(&plain),
        "a new seed must give new outputs"
    );
}

#[test]
fn explain_passes_agree() {
    traced_matches_untraced_and_seeds_differ::<explain::Explain>(3);
}

#[test]
fn serve_passes_agree() {
    traced_matches_untraced_and_seeds_differ::<serve::Serve>(2);
}

#[test]
fn federate_passes_agree() {
    traced_matches_untraced_and_seeds_differ::<federate::Federate>(2);
}

#[test]
fn train_passes_agree() {
    traced_matches_untraced_and_seeds_differ::<train::Train>(2);
}

/// Both run modes at tiny size: correct, nothing failed, every catalogue
/// metric present with its unit in a result line that parses.
fn full_runs<W: Workload>() {
    let width = fexiot_par::pool().threads();
    for traced in [false, true] {
        let mut traces = Vec::new();
        let o = if traced {
            workload::run_traced::<W>(TINY, 42, 0.05, width, &mut traces)
        } else {
            workload::run_untraced::<W>(TINY, 42, 0.05)
        };
        assert!(o.correct, "{:?}", o.problems);
        assert_eq!(o.failed, 0);
        assert!(o.attempted > 0);
        let doc = Json::parse(&result_line(&o)).expect("result line parses");
        let Some(Json::Obj(fields)) = Some(&doc) else {
            unreachable!()
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let metrics = doc.get("metrics").expect("metrics object");
        for d in defs {
            let m = metrics
                .get(d.name)
                .unwrap_or_else(|| panic!("{} missing", d.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            if !traced {
                assert!(v > 0.0, "{} is {v}", d.name);
            }
        }
        if traced {
            assert_eq!(traces.len(), 2, "one span record per width");
            for name in [
                "par.speedup_2v1",
                "par.fanout.us",
                "tensor.matmul.us",
                "unattributed_pct",
            ] {
                assert!(o.metrics.get(name).is_some_and(|v| v > 0.0), "{name}");
            }
        }
    }
}

#[test]
fn explain_runs_emit_every_metric() {
    full_runs::<explain::Explain>();
}

#[test]
fn serve_runs_emit_every_metric() {
    full_runs::<serve::Serve>();
}

#[test]
fn federate_runs_emit_every_metric() {
    full_runs::<federate::Federate>();
}

#[test]
fn train_runs_emit_every_metric() {
    full_runs::<train::Train>();
}
