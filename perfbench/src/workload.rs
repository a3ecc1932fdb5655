//! The workload interface and the passes every workload goes through.
//!
//! An untraced run warms up on a throwaway set-up, sets up five times
//! (reporting the median set-up time), and times calls at the current pool
//! width for the requested seconds, with reference samples between them
//! that leave out timings a neighbour slowed and scale the rest to nominal
//! speed. A traced run times one
//! untraced pass the same way, then
//! repeats the first third of its calls traced at that width and again at
//! width 1, each from a traced set-up, and derives the per-layer metrics.

use crate::common::{median, mix, ProbeInputs, Scale, StoreCounts, DIGEST_SEED};
use crate::metrics::Metrics;
use crate::reference;
use crate::trace::Tracer;
use std::time::Instant;

/// What one timed library call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    /// Units of work the call completed or attempted (explanations,
    /// events, rounds, cycles).
    pub ops: u64,
    pub failed: u64,
    /// Digest of the call's outputs; equal digests mean equal outputs.
    pub digest: u64,
    /// Wall time of the library call alone, without the benchmark's checks.
    pub wall_ns: u64,
}

pub trait Workload: Sized {
    /// Builds everything the first timed call needs.
    fn setup(scale: Scale, seed: u64, t: &Tracer) -> Self;
    /// Runs timed call `i`. Calls are deterministic functions of
    /// `(seed, i)`, so two passes can be compared call by call.
    fn call(&mut self, i: usize, t: &Tracer) -> Call;
    /// Fewest calls a measured pass makes, whatever the time limit.
    fn min_calls(&self) -> usize;
    /// Calls `i` and `i + period` repeat the same work, so their digests
    /// must match.
    fn period(&self) -> Option<usize>;
    /// The class of input call `i` works on, such as the graph it
    /// explains. The call time is the median over classes of each class's
    /// median, so every class weighs the same however often a pass
    /// repeats it.
    fn class(&self, _i: usize) -> usize {
        0
    }
    /// Quality of what the workload produces: held-out accuracy of the
    /// model it serves or trains, or the fidelity of its explanations.
    fn accuracy(&mut self) -> f64;
    /// Times of warm loads from the artifact store since the last call,
    /// each checked against what was stored: `reps` fresh loads, or the
    /// loads the calls made themselves.
    fn warm_loads(&mut self, reps: usize, t: &Tracer) -> Result<Vec<u64>, String>;
    fn store_counts(&self) -> StoreCounts;
    /// Graphs the workload generated (deterministic).
    fn graphs(&self) -> u64;
    fn probe_inputs(&self) -> ProbeInputs<'_>;
    /// Pool fan-outs the given calls issue, as far as the benchmark can
    /// count them from outside.
    fn fanouts(&self, calls: &[Call]) -> u64;
    /// Workload-specific per-layer metrics after the traced pass `calls`.
    fn layers(&mut self, calls: &[Call], t: &Tracer, m: &mut Metrics);
}

pub enum Stop {
    /// At least `min_calls`, then until the time is up.
    Seconds(f64),
    Calls(usize),
    /// Until the time is up, whatever the call count.
    WarmUp(f64),
}

/// The timed calls of one pass, the warm loads made between them, and
/// the reference samples around each call.
pub struct Pass {
    pub calls: Vec<Call>,
    /// Warm-load times in ns, each with the index of the call it followed.
    pub warm: Vec<(usize, u64)>,
    /// Reference samples in ns (untraced passes only): `gaps[i]` were
    /// taken right before call `i`, the last gap after the last call.
    pub gaps: Vec<Vec<f64>>,
    pub problems: Vec<String>,
}

/// Warm loads after every call spread their samples over the whole pass.
const WARM_LOADS_PER_CALL: usize = 4;
/// Reference samples between two calls: one per this much time of the
/// call before, within these limits.
const REFERENCE_EVERY_NS: u64 = 40_000_000;
const GAP_SAMPLES: (u64, u64) = (3, 40);

fn gap(after_ns: u64) -> Vec<f64> {
    let n = (after_ns / REFERENCE_EVERY_NS).clamp(GAP_SAMPLES.0, GAP_SAMPLES.1);
    (0..n).map(|_| reference::sample()).collect()
}

pub fn pass<W: Workload>(w: &mut W, t: &Tracer, stop: Stop) -> Pass {
    let started = Instant::now();
    let mut p = Pass {
        calls: Vec::new(),
        warm: Vec::new(),
        gaps: Vec::new(),
        problems: Vec::new(),
    };
    let sampled = !t.is_on();
    loop {
        let last_ns = p.calls.last().map_or(0, |c| c.wall_ns);
        if sampled {
            p.gaps.push(gap(last_ns));
        }
        let done = match stop {
            Stop::Seconds(s) => {
                p.calls.len() >= w.min_calls() && started.elapsed().as_secs_f64() >= s
            }
            Stop::Calls(n) => p.calls.len() >= n,
            Stop::WarmUp(s) => started.elapsed().as_secs_f64() >= s,
        };
        if done {
            return p;
        }
        let i = p.calls.len();
        p.calls.push(w.call(i, t));
        match w.warm_loads(WARM_LOADS_PER_CALL, t) {
            Ok(ns) => p.warm.extend(ns.into_iter().map(|n| (i, n))),
            Err(e) => p.problems.push(format!("warm load: {e}")),
        }
    }
}

/// Result of one benchmark run, printed as the last stdout line.
pub struct Outcome {
    pub correct: bool,
    /// Digest of the outputs of the first calls every run makes: equal
    /// for equal seeds at any width, different across seeds.
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub problems: Vec<String>,
}

const SETUPS: usize = 5;
/// Untimed calls on a throwaway set-up first, so the heap has grown and
/// caches are warm before anything is timed.
const WARM_UP_SECONDS: f64 = 2.0;

/// Median over input classes of each class's median call time in ms,
/// from `(call index, ms)` pairs.
fn call_p50_ms<W: Workload>(w: &W, ms: &[(usize, f64)]) -> f64 {
    let mut by_class = std::collections::BTreeMap::<usize, Vec<f64>>::new();
    for &(i, ms) in ms {
        by_class.entry(w.class(i)).or_default().push(ms);
    }
    let medians: Vec<f64> = by_class.values().map(|v| median(v)).collect();
    median(&medians)
}

fn total_ns(calls: &[Call]) -> u64 {
    calls.iter().map(|c| c.wall_ns).sum()
}

/// Checks the calls against each other: repeated work must repeat its
/// digest, and `reference` (another pass over the same calls) must agree.
fn check_digests<W: Workload>(
    w: &W,
    calls: &[Call],
    reference: &[(&str, &[Call])],
    problems: &mut Vec<String>,
) {
    if let Some(p) = w.period() {
        for i in p..calls.len() {
            if calls[i].digest != calls[i - p].digest {
                problems.push(format!("call {i} differs from call {} (same work)", i - p));
                break;
            }
        }
    }
    for (what, other) in reference {
        for (i, (a, b)) in calls.iter().zip(other.iter()).enumerate() {
            if a.digest != b.digest {
                problems.push(format!("call {i} differs from the {what} pass"));
                break;
            }
        }
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end metrics: set-up, then timed calls at the current pool width.
pub fn run_untraced<W: Workload>(scale: Scale, seed: u64, seconds: f64) -> Outcome {
    let off = Tracer::off();
    // One instance lives at a time, so the peak memory is that of one
    // workload, set either by its set-up or by its timed calls.
    pass(
        &mut W::setup(scale, seed, &off),
        &off,
        Stop::WarmUp(WARM_UP_SECONDS),
    );
    // A set-up, and below a call, counts only if the reference samples
    // right before and after it show no spell of heavy load, and it is
    // scaled to nominal speed by them (see `reference`). The speed changes
    // within seconds, so only samples this close track it.
    let mut setup_s = Vec::new();
    let mut setup_around = Vec::new();
    let mut timed = None;
    for _ in 0..SETUPS {
        drop(timed.take());
        let mut around = gap(0);
        let t0 = Instant::now();
        timed = Some(W::setup(scale, seed, &off));
        setup_s.push(t0.elapsed().as_secs_f64());
        around.extend(gap(0));
        setup_around.push(around);
    }
    let mut w = timed.expect("at least one set-up");

    let Pass {
        calls,
        warm,
        gaps,
        mut problems,
    } = pass(&mut w, &off, Stop::Seconds(seconds));
    check_digests(&w, &calls, &[], &mut problems);
    let accuracy = w.accuracy();
    if warm.is_empty() {
        problems.push("no warm load was timed".into());
    }

    let call_around: Vec<Vec<f64>> = gaps
        .windows(2)
        .map(|g| [&g[0][..], &g[1]].concat())
        .collect();
    let samples: Vec<f64> = gaps
        .iter()
        .chain(&setup_around)
        .flatten()
        .copied()
        .collect();
    let call_scale = reference::scale(&call_around);
    let setup_scale = reference::scale(&setup_around);
    let call_ms: Vec<(usize, f64)> = calls
        .iter()
        .enumerate()
        .filter_map(|(i, c)| Some((i, c.wall_ns as f64 / 1e6 * call_scale[i]?)))
        .collect();
    let warm_ms: Vec<f64> = warm
        .iter()
        .filter_map(|&(i, ns)| Some(ns as f64 / 1e6 * call_scale[i]?))
        .collect();
    let setup_s: Vec<f64> = setup_s
        .into_iter()
        .zip(&setup_scale)
        .filter_map(|(s, f)| Some(s * (*f)?))
        .collect();
    eprintln!(
        "kept outside spells of heavy load and scaled to nominal speed: {} of {} calls, {} of {SETUPS} set-ups (median reference sample {:.1} us)",
        call_ms.len(),
        calls.len(),
        setup_s.len(),
        median(&samples) / 1e3
    );
    let mut m = Metrics::end_to_end();
    m.set("setup_s", median(&setup_s));
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("call_p50_ms", call_p50_ms(&w, &call_ms));
    m.set("accuracy", accuracy);
    m.set(
        "warm_load_ms",
        if warm_ms.is_empty() {
            f64::NAN
        } else {
            median(&warm_ms)
        },
    );
    finish(calls, w.min_calls(), m, problems)
}

fn finish(calls: Vec<Call>, first: usize, metrics: Metrics, mut problems: Vec<String>) -> Outcome {
    problems.extend(metrics.problems());
    let digests: Vec<u64> = calls.iter().take(first).map(|c| c.digest).collect();
    Outcome {
        correct: problems.is_empty(),
        digest: mix(DIGEST_SEED, &digests),
        attempted: calls.iter().map(|c| c.ops).sum(),
        failed: calls.iter().map(|c| c.failed).sum(),
        metrics,
        problems,
    }
}

/// One traced pass from set-up: the `workload` root span covers set-up and
/// calls, so its self time is what no layer span covers.
fn traced_pass<W: Workload>(scale: Scale, seed: u64, n: usize, t: &Tracer) -> (W, Pass) {
    t.span("workload", || {
        let mut w = W::setup(scale, seed, t);
        let p = pass(&mut w, t, Stop::Calls(n));
        (w, p)
    })
}

/// Per-layer metrics from traced passes at full width and at width 1.
pub fn run_traced<W: Workload>(
    scale: Scale,
    seed: u64,
    seconds: f64,
    width: usize,
    traces: &mut Vec<(String, Tracer)>,
) -> Outcome {
    let off = Tracer::off();
    pass(
        &mut W::setup(scale, seed, &off),
        &off,
        Stop::WarmUp(WARM_UP_SECONDS),
    );
    let mut base = W::setup(scale, seed, &off);
    let Pass {
        calls: untraced,
        mut problems,
        ..
    } = pass(&mut base, &off, Stop::Seconds(seconds));
    let n = untraced
        .len()
        .div_ceil(3)
        .max(base.min_calls())
        .min(untraced.len());

    let wide = Tracer::on();
    let (mut w, traced) = traced_pass::<W>(scale, seed, n, &wide);
    let narrow = Tracer::on();
    fexiot_par::set_threads(1);
    let (_, narrow_pass) = traced_pass::<W>(scale, seed, n, &narrow);
    fexiot_par::set_threads(width);
    let (calls, narrow_calls) = (traced.calls, narrow_pass.calls);
    problems.extend(traced.problems);
    problems.extend(narrow_pass.problems);
    check_digests(
        &w,
        &calls,
        &[("untraced", &untraced), ("width-1", &narrow_calls)],
        &mut problems,
    );

    let root = wide.stat("workload");
    let mut m = Metrics::per_layer();
    m.set(
        "unattributed_pct",
        100.0 * root.self_ns as f64 / root.total_ns.max(1) as f64,
    );
    // Probes run after the root span closes: traced, never unattributed.
    W::layers(&mut w, &calls, &wide, &mut m);
    for (name, v) in crate::common::shared_probes(&w.probe_inputs(), &wide) {
        m.set(name, v);
    }
    let spans = wide.summary();
    for (metric, span) in [
        ("nlp.index.ms", "nlp.index"),
        ("graph.corpus.ms", "graph.corpus"),
        ("graph.fuse.ms", "graph.fuse"),
        ("graph.replay.ms", "graph.replay"),
        ("core.train.ms", "core.train"),
        ("core.load.ms", "core.load"),
        ("store.put.ms", "store.put"),
        ("store.get.ms", "store.get"),
    ] {
        m.set(metric, spans.get(span).map_or(0.0, |s| s.mean_ms()));
    }
    m.set("graph.graphs", w.graphs() as f64);
    let c = w.store_counts();
    m.set("store.hits", c.hits as f64);
    m.set("store.misses", c.misses as f64);
    m.set("store.corrupt", c.corrupt as f64);
    m.set("store.bytes_written", c.bytes_written as f64);
    m.set("store.bytes_read", c.bytes_read as f64);

    m.set("par.fanouts", w.fanouts(&calls) as f64);
    m.set(
        "par.speedup_2v1",
        total_ns(&narrow_calls) as f64 / total_ns(&calls).max(1) as f64,
    );
    m.set(
        "obs.overhead_pct",
        100.0 * (total_ns(&calls) as f64 / total_ns(&untraced[..n]).max(1) as f64 - 1.0),
    );

    traces.push((format!("w{width}"), wide));
    traces.push(("w1".to_string(), narrow));
    finish(untraced, base.min_calls(), m, problems)
}
