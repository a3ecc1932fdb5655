//! # fexiot-obs
//!
//! First-party tracing and metrics for the FexIoT reproduction: hierarchical
//! wall-clock [spans](Registry::span), monotonic counters, gauges, and
//! fixed-bucket histograms, with three exporters — a schema-stable JSON run
//! report ([`report::write_report`]), a human-readable summary tree
//! ([`report::render_summary`]), and an in-memory [`Snapshot`] the test and
//! bench crates assert against.
//!
//! The build environment is offline, so this replaces the `tracing` /
//! `prometheus` crates with a small deterministic subsystem (same approach
//! as `vendor/`): no dependencies, coarse-mutex registry, one relaxed atomic
//! on the disabled path.
//!
//! ## Global vs. local registries
//!
//! Library instrumentation (the pipeline, GNN trainer, beam search) records
//! into the **process-global registry**, which is *disabled by default* —
//! existing runs and golden tests observe zero change until a CLI flag or
//! test calls [`set_global_enabled`]. The federated simulator writes its
//! per-round `fed.*` metrics into a **local** enabled registry of its own
//! (so concurrent simulations in one process never share counters), or into
//! the global one given to `FedSim::attach_obs`. It never reads them back:
//! its round reports come from its own per-round record.
//!
//! ## Determinism rule
//!
//! Wall-clock data in a registry is exactly: span `elapsed_us`, `*_us`
//! histograms, and `*_per_sec` gauges (see [`is_timing_name`]). Exports
//! taken with [`report::Timing::Exclude`] drop all three and are
//! bit-identical across two runs with the same seed; nothing in this crate
//! feeds back into simulation state, so enabling observability never
//! perturbs results.
//!
//! ## Naming convention
//!
//! Dotted `crate.module.op` names for operations (`gnn.trainer.epoch_loss`,
//! `explain.search.expansions`), bare phase names for run-level roots
//! (`pipeline`), and `[index]` suffixes for instances (`round[3]`,
//! `client[0]`).

#![forbid(unsafe_code)]

pub mod causal;
pub mod cli;
pub mod diff;
pub mod export;
pub mod json;
pub mod profile;
pub mod registry;
pub mod report;
pub mod slo;
pub mod stream;
pub mod timeseries;
pub mod trace;

pub use causal::{
    chrome_trace, root_cause, root_cause_to_json, trace_id, validate_root_cause, CausalBuilder,
    CausalEdge, CausalGraph, CausalNode, CauseScore, EdgeKind, Entity, RuleRootCause,
    CAUSAL_SCHEMA,
};
pub use cli::ObsCli;
pub use export::{
    prometheus_from_report, prometheus_from_stream, validate_prometheus_text, WatchState,
};
pub use json::Json;
pub use profile::{collapsed_stacks, write_flame, SpanStat};
pub use registry::{
    is_timing_name, Event, EventRecord, Histogram, HistogramSnapshot, Registry, Snapshot,
    SpanGuard, SpanNode, RATE_SUFFIX, TIMING_SUFFIX,
};
pub use report::{
    check_report_file, collect_report_paths, deterministic_json, render_summary, validate_report,
    write_report, ReportExtras, Timing,
};
pub use slo::{SloEngine, SloRule, SloStatus, SloVerdict};
pub use timeseries::{FleetTelemetry, SampleSpec, TimeSeriesStore};
pub use trace::{slowest_client, ClientTicks, CriticalPathEntry};

use std::cell::RefCell;
use std::sync::{Arc, LazyLock};

static GLOBAL: LazyLock<Arc<Registry>> = LazyLock::new(|| Arc::new(Registry::with_enabled(false)));

thread_local! {
    /// Per-thread override installed by [`with_registry`]; when set, the
    /// free-function instrumentation helpers below target it instead of the
    /// process-global registry.
    static SCOPED: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// The process-global registry (disabled until [`set_global_enabled`]).
pub fn global() -> &'static Arc<Registry> {
    &GLOBAL
}

/// Runs `f` with every free-function helper in this module ([`span`],
/// [`counter_add`], [`gauge_set`], [`hist_record`], [`mark`]) redirected to
/// `reg` **on the current thread only**. Used by `fexiot-par` worker threads
/// to route library instrumentation into a per-worker child registry that the
/// coordinator later merges with [`Registry::absorb`] in a deterministic
/// order — the scheme that keeps obs reports identical across thread counts.
/// Overrides nest; the previous target is restored on return (and on panic).
pub fn with_registry<R>(reg: &Arc<Registry>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<Registry>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            SCOPED.with(|s| *s.borrow_mut() = prev);
        }
    }
    let prev = SCOPED.with(|s| s.borrow_mut().replace(Arc::clone(reg)));
    let _restore = Restore(prev);
    f()
}

/// The registry targeted by the free-function helpers on this thread: the
/// [`with_registry`] override when one is installed, else the global one.
fn target() -> Arc<Registry> {
    SCOPED.with(|s| {
        s.borrow()
            .as_ref()
            .map(Arc::clone)
            .unwrap_or_else(|| Arc::clone(&GLOBAL))
    })
}

/// Enables/disables the global registry. Library instrumentation is a no-op
/// while disabled (one relaxed atomic load per call site).
pub fn set_global_enabled(on: bool) {
    GLOBAL.set_enabled(on);
}

pub fn global_enabled() -> bool {
    GLOBAL.is_enabled()
}

/// Opens a span on the thread's target registry (no-op guard while the
/// target is disabled). See [`with_registry`] for the per-thread override.
pub fn span(name: &str) -> SpanGuard {
    let reg = target();
    if !reg.is_enabled() {
        return SpanGuard::noop();
    }
    reg.span(name)
}

/// Adds to a counter on the thread's target registry (no-op while disabled).
pub fn counter_add(name: &str, v: u64) {
    target().counter_add(name, v);
}

/// Sets a gauge on the thread's target registry (no-op while disabled).
pub fn gauge_set(name: &str, v: f64) {
    target().gauge_set(name, v);
}

/// Records into a histogram on the thread's target registry (no-op while
/// disabled). `edges` bind on the histogram's first use; see
/// [`Registry::hist_record`].
pub fn hist_record(name: &str, edges: &[f64], v: f64) {
    target().hist_record(name, edges, v);
}

/// Emits a boundary marker on the thread's target registry (no-op while
/// disabled).
pub fn mark(name: &str) {
    target().mark(name);
}

/// Attaches a JSONL event stream on the global registry, writing to `path`
/// (truncated). See [`Registry::set_stream`] for the timing-mode semantics.
pub fn stream_global_to_file(
    path: &std::path::Path,
    run: &str,
    include_timing: bool,
) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    GLOBAL.set_stream(Box::new(std::io::BufWriter::new(file)), run, include_timing);
    Ok(())
}

/// Detaches and flushes the global registry's event stream, if any.
pub fn close_global_stream() {
    drop(GLOBAL.take_stream());
}

/// Bucket-edge presets shared by instrumentation sites.
pub mod buckets {
    /// Loss-like magnitudes (contrastive losses live in roughly [0, 10]).
    pub const LOSS: &[f64] = &[0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0];
    /// Norm-like magnitudes spanning several decades.
    pub const NORM: &[f64] = &[0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4];
    /// Small non-negative counts (retries, expansions per step).
    pub const SMALL_COUNT: &[f64] = &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    /// Wall-clock durations in microseconds (log-spaced 100 µs .. 10 s).
    /// Histograms over these edges must use a `*_us` name so exports treat
    /// them as timing data (see [`crate::is_timing_name`]).
    pub const TIME_US: &[f64] = &[1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_global_records_nothing() {
        // Must not flip the global flag: other tests in this binary rely on
        // it staying off. The default-off path is the one exercised here.
        assert!(!global_enabled());
        counter_add("test.lib.counter", 3);
        gauge_set("test.lib.gauge", 1.0);
        hist_record("test.lib.hist", buckets::LOSS, 0.5);
        let _s = span("test.lib.span");
        let snap = global().snapshot();
        assert!(!snap.counters.contains_key("test.lib.counter"));
        assert!(!snap.gauges.contains_key("test.lib.gauge"));
        assert!(!snap.histograms.contains_key("test.lib.hist"));
    }
}
