//! The observability registry: hierarchical wall-clock spans plus counters,
//! gauges, and fixed-bucket histograms, behind one coarse mutex.
//!
//! Design constraints (see DESIGN.md §Observability):
//!
//! * **Cheap when off.** Every recording entry point first reads one relaxed
//!   atomic; a disabled registry does no allocation, no formatting, and no
//!   locking.
//! * **Unwind safe.** Spans are closed by [`SpanGuard`]'s `Drop`, so a
//!   panicking scope still records its span, and the inner mutex is treated
//!   as poison-tolerant.
//! * **Deterministic data, nondeterministic time.** Only span `elapsed_us`
//!   values depend on the wall clock. Counters, gauges, histograms, span
//!   names, and tree shape are pure functions of the seeded workload, which
//!   is what lets run reports be diffed across runs (timing excluded).

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// Spans retained per registry before new ones are dropped (a backstop for
/// pathological instrumentation loops, far above any real run).
const MAX_SPANS: usize = 200_000;

/// One observability event, emitted as it happens to an attached stream.
/// Span events carry the span's registry index as a stable `id` so
/// open/close pairs can be matched in the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened (`parent` = id of the enclosing open span, if any).
    SpanOpen {
        id: u64,
        parent: Option<u64>,
        name: String,
    },
    /// A span closed. `elapsed_us` always holds the wall-clock duration
    /// here; the JSONL writer strips it in timing-excluded mode.
    SpanClose {
        id: u64,
        name: String,
        elapsed_us: u64,
    },
    /// A counter was incremented by `delta`, reaching `total`.
    Counter {
        name: String,
        delta: u64,
        total: u64,
    },
    /// A gauge was set.
    Gauge { name: String, value: f64 },
    /// One histogram sample was recorded.
    Hist { name: String, value: f64 },
    /// A free-form boundary marker (e.g. `round[3]` at round start).
    Mark { name: String },
}

impl Event {
    /// The metric/span name this event is about.
    pub fn name(&self) -> &str {
        match self {
            Event::SpanOpen { name, .. }
            | Event::SpanClose { name, .. }
            | Event::Counter { name, .. }
            | Event::Gauge { name, .. }
            | Event::Hist { name, .. }
            | Event::Mark { name } => name,
        }
    }
}

/// An [`Event`] stamped with its per-registry sequence number (strictly
/// increasing, so a parsed stream can be checked for gaps/reordering).
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    pub seq: u64,
    pub event: Event,
}

/// Histogram names ending in this suffix hold wall-clock data; they are
/// excluded from deterministic exports and from timing-excluded streams,
/// and `obs-diff` treats their drift as advisory.
pub const TIMING_SUFFIX: &str = "_us";

/// Gauge names ending in this suffix hold wall-clock-derived throughput
/// (items per second). Like `_us` data they are nondeterministic, so they
/// get the same treatment: dropped from deterministic exports and
/// timing-excluded streams, advisory in `obs-diff`.
pub const RATE_SUFFIX: &str = "_per_sec";

/// True when a metric name designates wall-clock (nondeterministic) data:
/// `_us` durations and `_per_sec` throughput rates.
pub fn is_timing_name(name: &str) -> bool {
    name.ends_with(TIMING_SUFFIX) || name.ends_with(RATE_SUFFIX)
}

/// Live streaming state: a JSONL sink plus the timing mode.
struct StreamState {
    sink: Box<dyn Write + Send>,
    include_timing: bool,
}

/// One recorded span instance.
struct SpanRec {
    name: String,
    parent: Option<usize>,
    start: Instant,
    /// Microseconds; `None` while the span is still open.
    elapsed_us: Option<u64>,
}

/// A fixed-bucket histogram over finite `f64` samples.
///
/// `edges` are the bucket boundaries: a sample `v` lands in interior bucket
/// `i` when `edges[i] <= v < edges[i + 1]`, below `edges[0]` in the
/// underflow bucket, and at or above the last edge in the overflow bucket.
/// Non-finite samples (NaN, ±∞) are rejected and only counted.
#[derive(Debug, Clone)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    rejected: u64,
}

impl Histogram {
    /// Creates a histogram. Edges must be at least two strictly increasing
    /// finite values; returns `None` otherwise.
    pub fn new(edges: &[f64]) -> Option<Self> {
        if edges.len() < 2
            || edges.iter().any(|e| !e.is_finite())
            || edges.windows(2).any(|w| w[0] >= w[1])
        {
            return None;
        }
        Some(Self {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() - 1],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            rejected: 0,
        })
    }

    /// Records one sample; non-finite values are rejected (counted only).
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            self.rejected += 1;
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v < self.edges[0] {
            self.underflow += 1;
        } else if v >= *self.edges.last().expect("edges non-empty") {
            self.overflow += 1;
        } else {
            // Edges are sorted; partition_point returns the first edge > v.
            let i = self.edges.partition_point(|&e| e <= v) - 1;
            self.counts[i] += 1;
        }
    }

    /// Folds another histogram's snapshot into this one. Merging is
    /// commutative and associative on every integer field (counts, under/
    /// overflow, rejected) and on min/max; `sum` is associative up to f64
    /// rounding. Returns `false` (and merges nothing) when the bucket edges
    /// differ — histograms with different shapes cannot be combined.
    pub fn merge(&mut self, other: &HistogramSnapshot) -> bool {
        if self.edges != other.edges {
            return false;
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.rejected += other.rejected;
        if let Some(m) = other.min {
            self.min = self.min.min(m);
        }
        if let Some(m) = other.max {
            self.max = self.max.max(m);
        }
        true
    }

    /// Rebuilds a histogram from a snapshot (for merging into a registry
    /// that has not seen this metric yet). `None` when the snapshot's edges
    /// are malformed.
    pub fn from_snapshot(snap: &HistogramSnapshot) -> Option<Self> {
        let mut h = Histogram::new(&snap.edges)?;
        h.counts.clone_from(&snap.counts);
        h.underflow = snap.underflow;
        h.overflow = snap.overflow;
        h.count = snap.count;
        h.sum = snap.sum;
        h.min = snap.min.unwrap_or(f64::INFINITY);
        h.max = snap.max.unwrap_or(f64::NEG_INFINITY);
        h.rejected = snap.rejected;
        Some(h)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            edges: self.edges.clone(),
            counts: self.counts.clone(),
            underflow: self.underflow,
            overflow: self.overflow,
            count: self.count,
            sum: self.sum,
            min: (self.count > 0).then_some(self.min),
            max: (self.count > 0).then_some(self.max),
            rejected: self.rejected,
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub edges: Vec<f64>,
    /// Interior bucket counts (`edges.len() - 1` entries).
    pub counts: Vec<u64>,
    pub underflow: u64,
    pub overflow: u64,
    /// Accepted (finite) samples, including under/overflow.
    pub count: u64,
    pub sum: f64,
    pub min: Option<f64>,
    pub max: Option<f64>,
    /// Non-finite samples rejected.
    pub rejected: u64,
}

impl HistogramSnapshot {
    /// Mean of accepted samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Quantile estimate over the bucketed samples.
    ///
    /// Returns `None` when the histogram is empty or `q` is NaN or outside
    /// `[0, 1]`. Otherwise the estimate is the nearest-rank bucket with
    /// linear interpolation inside interior buckets, resolved against the
    /// exact extremes the histogram tracked: `q == 0` → `min`, `q == 1` →
    /// `max`, ranks falling in the underflow bucket → `min`, in the overflow
    /// bucket → `max`, and interior interpolations are clamped to
    /// `[min, max]` so an estimate never leaves the observed range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let (min, max) = (self.min?, self.max?);
        if q <= 0.0 {
            return Some(min);
        }
        if q >= 1.0 {
            return Some(max);
        }
        // Smallest rank r in [1, count] such that q*count samples sit at or
        // below the r-th; walk cumulative counts to find its bucket.
        let target = ((q * self.count as f64).ceil().max(1.0) as u64).min(self.count);
        let mut seen = self.underflow;
        if target <= seen {
            return Some(min);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if target <= seen + c {
                let lo = self.edges[i];
                let hi = self.edges[i + 1];
                let frac = (target - seen) as f64 / c as f64;
                return Some((lo + frac * (hi - lo)).clamp(min, max));
            }
            seen += c;
        }
        // Remaining ranks live in the overflow bucket.
        Some(max)
    }
}

/// One node of the reconstructed span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    pub name: String,
    /// Wall-clock microseconds (elapsed-so-far for spans still open at
    /// snapshot time). Excluded from deterministic exports.
    pub elapsed_us: u64,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total number of nodes in this subtree (self included).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SpanNode::size).sum::<usize>()
    }
}

/// Point-in-time copy of everything a registry holds. Maps are ordered so
/// exports are schema-stable and diffable.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub roots: Vec<SpanNode>,
    pub counters: std::collections::BTreeMap<String, u64>,
    pub gauges: std::collections::BTreeMap<String, f64>,
    pub histograms: std::collections::BTreeMap<String, HistogramSnapshot>,
    /// Spans discarded after the retention cap was hit.
    pub dropped_spans: u64,
}

impl Snapshot {
    /// Finds the first span node with this exact name, anywhere in the tree.
    pub fn find_span(&self, name: &str) -> Option<&SpanNode> {
        fn walk<'a>(nodes: &'a [SpanNode], name: &str) -> Option<&'a SpanNode> {
            for n in nodes {
                if n.name == name {
                    return Some(n);
                }
                if let Some(hit) = walk(&n.children, name) {
                    return Some(hit);
                }
            }
            None
        }
        walk(&self.roots, name)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRec>,
    /// Per-thread stack of open span indices (hierarchy = call nesting).
    open: HashMap<ThreadId, Vec<usize>>,
    // Metric maps are hash maps so the hot recording paths (and fleet-scale
    // `absorb` merges) pay O(1) per touch; snapshots sort into `BTreeMap`s
    // at export time to keep reports schema-stable and diffable.
    counters: HashMap<String, u64>,
    gauges: HashMap<String, f64>,
    histograms: HashMap<String, Histogram>,
    dropped_spans: u64,
    /// Next event sequence number (monotonic per registry, reset by `reset`).
    next_seq: u64,
    /// Live JSONL event sink (`None` = no streaming).
    stream: Option<StreamState>,
    /// Bumped by every `reset`. Guards carry the epoch they were opened in,
    /// so a guard that outlives a reset closes nothing.
    epoch: u64,
}

impl Inner {
    /// True when events need to be materialized at all.
    fn events_on(&self) -> bool {
        self.stream.is_some()
    }

    /// Stamps and streams one event. Must be called under the registry
    /// lock; a sink write failure silently stops the stream — observability
    /// must never fail the run.
    fn emit(&mut self, event: Event) {
        let Some(state) = &mut self.stream else {
            return;
        };
        let rec = EventRecord {
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        let dead = match crate::stream::event_to_line(&rec, state.include_timing) {
            Some(text) => {
                state.sink.write_all(text.as_bytes()).is_err()
                    || state.sink.write_all(b"\n").is_err()
                    || state.sink.flush().is_err()
            }
            None => false,
        };
        if dead {
            self.stream = None;
        }
    }

    /// Counter update + event emission; must be called under the lock.
    fn counter_add_locked(&mut self, name: &str, v: u64) {
        let total = match self.counters.get_mut(name) {
            Some(c) => {
                *c += v;
                *c
            }
            None => {
                self.counters.insert(name.to_string(), v);
                v
            }
        };
        if self.events_on() {
            self.emit(Event::Counter {
                name: name.to_string(),
                delta: v,
                total,
            });
        }
    }
}

/// A thread-safe span/metric registry. The process-global instance lives in
/// [`crate::global`] (disabled until a run opts in); simulations own local,
/// always-enabled instances so concurrent runs never share counters.
pub struct Registry {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An enabled registry (local use: simulators, tests).
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A registry with an explicit initial enable state.
    pub fn with_enabled(enabled: bool) -> Self {
        Self {
            enabled: AtomicBool::new(enabled),
            inner: Mutex::new(Inner::default()),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Clears every span and metric, and resets the event sequence to zero.
    /// The enable flag and any attached stream sink survive, so a long-lived
    /// registry can be reused across runs without re-wiring exporters. Spans
    /// still open are discarded: their guards close nothing when dropped.
    pub fn reset(&self) {
        let mut inner = self.lock();
        let stream = inner.stream.take();
        let epoch = inner.epoch + 1;
        *inner = Inner::default();
        inner.stream = stream;
        inner.epoch = epoch;
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Poison-tolerant: a panic inside an instrumented scope must not
        // take observability down with it.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a span; it closes (records its duration) when the returned
    /// guard drops — including during a panic unwind. Parentage follows the
    /// per-thread nesting of currently open spans on this registry.
    pub fn span<S: Into<String>>(self: &Arc<Self>, name: S) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard::noop();
        }
        let start = Instant::now();
        let mut inner = self.lock();
        if inner.spans.len() >= MAX_SPANS {
            inner.dropped_spans += 1;
            return SpanGuard::noop();
        }
        let tid = std::thread::current().id();
        let stack = inner.open.entry(tid).or_default();
        let parent = stack.last().copied();
        let idx = inner.spans.len();
        let name: String = name.into();
        if inner.events_on() {
            inner.emit(Event::SpanOpen {
                id: idx as u64,
                parent: parent.map(|p| p as u64),
                name: name.clone(),
            });
        }
        inner.spans.push(SpanRec {
            name,
            parent,
            start,
            elapsed_us: None,
        });
        inner.open.entry(tid).or_default().push(idx);
        SpanGuard {
            reg: Some(Arc::clone(self)),
            idx,
            epoch: inner.epoch,
        }
    }

    fn close_span(&self, idx: usize, epoch: u64) {
        let mut inner = self.lock();
        if inner.epoch != epoch {
            // Opened before a `reset`: its record is gone, and `idx` may now
            // name a span opened since.
            return;
        }
        let elapsed = inner.spans[idx].start.elapsed();
        let elapsed_us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        inner.spans[idx].elapsed_us = Some(elapsed_us);
        let tid = std::thread::current().id();
        if let Some(stack) = inner.open.get_mut(&tid) {
            // Guards can be dropped out of order; remove wherever it sits.
            if let Some(pos) = stack.iter().rposition(|&i| i == idx) {
                stack.remove(pos);
            }
        }
        if inner.events_on() {
            let name = inner.spans[idx].name.clone();
            inner.emit(Event::SpanClose {
                id: idx as u64,
                name,
                elapsed_us,
            });
        }
    }

    /// Adds to a monotonic counter (created on first use). Counters are
    /// deterministic by contract, so timing-suffixed names are rejected in
    /// debug builds (durations belong in `_us` histograms, rates in
    /// `_per_sec` gauges).
    pub fn counter_add(&self, name: &str, v: u64) {
        debug_assert!(
            !is_timing_name(name),
            "counter {name:?} uses a timing suffix (`{TIMING_SUFFIX}`/`{RATE_SUFFIX}`); \
             counters must hold deterministic data"
        );
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        inner.counter_add_locked(name, v);
    }

    /// Sets a gauge (last write wins). Durations must be `_us` histograms,
    /// never gauges, so `_us`-suffixed gauge names are rejected in debug
    /// builds; wall-clock-derived rates are allowed but must end in
    /// `_per_sec` so exports can tell them apart from deterministic gauges.
    pub fn gauge_set(&self, name: &str, v: f64) {
        debug_assert!(
            !name.ends_with(TIMING_SUFFIX),
            "gauge {name:?} ends in `{TIMING_SUFFIX}`; record durations into a `_us` histogram \
             (rates use `{RATE_SUFFIX}`)"
        );
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        inner.gauges.insert(name.to_string(), v);
        if inner.events_on() {
            inner.emit(Event::Gauge {
                name: name.to_string(),
                value: v,
            });
        }
    }

    /// Records one sample into a fixed-bucket histogram; the bucket `edges`
    /// are bound on first use (later calls may pass the same or any edges —
    /// only the first registration counts). Invalid edges on first use drop
    /// the sample.
    ///
    /// Histograms bucketed with [`crate::buckets::TIME_US`] hold wall-clock
    /// microseconds and must be named `*_us` so deterministic exports can
    /// filter them; debug builds enforce this. (The converse is not checked:
    /// a `_us` histogram may use custom microsecond edges.)
    pub fn hist_record(&self, name: &str, edges: &[f64], v: f64) {
        debug_assert!(
            edges != crate::buckets::TIME_US || name.ends_with(TIMING_SUFFIX),
            "histogram {name:?} uses the TIME_US wall-clock buckets but does not end in \
             `{TIMING_SUFFIX}`; timing data must carry the timing suffix"
        );
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        let recorded = if let Some(h) = inner.histograms.get_mut(name) {
            h.record(v);
            true
        } else if let Some(mut h) = Histogram::new(edges) {
            h.record(v);
            inner.histograms.insert(name.to_string(), h);
            true
        } else {
            false
        };
        if recorded && inner.events_on() {
            inner.emit(Event::Hist {
                name: name.to_string(),
                value: v,
            });
        }
    }

    /// Emits a boundary marker event (e.g. `round[3]` at round start). Marks
    /// only exist in the event stream; they do not change any metric.
    pub fn mark(&self, name: &str) {
        if !self.is_enabled() {
            return;
        }
        let mut inner = self.lock();
        if inner.events_on() {
            inner.emit(Event::Mark {
                name: name.to_string(),
            });
        }
    }

    /// Attaches a JSONL event sink: a header line naming `run` is written
    /// immediately, and every subsequent event becomes one line (schema
    /// `fexiot-obs-events/v1`). With `include_timing == false`, span-close
    /// lines omit `elapsed_us` and samples for `*_us` histograms are
    /// suppressed, so the stream is bit-identical across same-seed runs. A
    /// failing sink is dropped.
    pub fn set_stream(&self, mut sink: Box<dyn Write + Send>, run: &str, include_timing: bool) {
        let header = crate::stream::header_line(run);
        let ok = sink.write_all(header.as_bytes()).is_ok()
            && sink.write_all(b"\n").is_ok()
            && sink.flush().is_ok();
        let mut inner = self.lock();
        inner.stream = ok.then_some(StreamState {
            sink,
            include_timing,
        });
    }

    /// Detaches the event sink (flushing it) and returns it, if one was set.
    pub fn take_stream(&self) -> Option<Box<dyn Write + Send>> {
        let mut inner = self.lock();
        inner.stream.take().map(|mut s| {
            let _ = s.sink.flush();
            s.sink
        })
    }

    /// Merges a complete [`Snapshot`] from another registry (e.g. a per-
    /// client child registry in the federated simulator) into this one:
    ///
    /// * span roots are attached under the calling thread's innermost open
    ///   span (or become new roots), preserving their recorded durations;
    /// * counters accumulate, gauges overwrite, histograms merge
    ///   ([`Histogram::merge`]; snapshots with mismatched edges are skipped
    ///   and counted in the returned value);
    /// * span open/close events are emitted in tree order so an attached
    ///   stream sees the merged trace.
    ///
    /// Returns the number of histograms that could NOT be merged.
    pub fn absorb(&self, snap: &Snapshot) -> usize {
        if !self.is_enabled() {
            return 0;
        }
        let mut inner = self.lock();
        // Pre-size the merge targets: a fleet round absorbs hundreds to
        // thousands of child snapshots, and growing the maps and span vec
        // incrementally rehashes/reallocates repeatedly. Reserving by the
        // incoming snapshot's size makes each merge at most one growth.
        inner.counters.reserve(snap.counters.len());
        inner.gauges.reserve(snap.gauges.len());
        inner.histograms.reserve(snap.histograms.len());
        let incoming_spans: usize = snap.roots.iter().map(SpanNode::size).sum();
        let span_room = MAX_SPANS.saturating_sub(inner.spans.len());
        inner.spans.reserve(incoming_spans.min(span_room));
        let tid = std::thread::current().id();
        let attach_under = inner.open.get(&tid).and_then(|s| s.last().copied());
        for root in &snap.roots {
            absorb_span(&mut inner, root, attach_under);
        }
        inner.dropped_spans += snap.dropped_spans;
        for (name, &v) in &snap.counters {
            inner.counter_add_locked(name, v);
        }
        for (name, &v) in &snap.gauges {
            inner.gauges.insert(name.clone(), v);
            if inner.events_on() {
                inner.emit(Event::Gauge {
                    name: name.clone(),
                    value: v,
                });
            }
        }
        let mut unmerged = 0usize;
        for (name, h) in &snap.histograms {
            let ok = if let Some(existing) = inner.histograms.get_mut(name) {
                existing.merge(h)
            } else {
                match Histogram::from_snapshot(h) {
                    Some(built) => {
                        inner.histograms.insert(name.clone(), built);
                        true
                    }
                    None => false,
                }
            };
            if !ok {
                unmerged += 1;
            }
        }
        unmerged
    }

    /// A point-in-time copy of everything recorded so far. Spans still open
    /// report their elapsed-so-far.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); inner.spans.len()];
        let mut root_idx = Vec::new();
        for (i, s) in inner.spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => root_idx.push(i),
            }
        }
        fn build(idx: usize, spans: &[SpanRec], children: &[Vec<usize>]) -> SpanNode {
            let s = &spans[idx];
            SpanNode {
                name: s.name.clone(),
                elapsed_us: s
                    .elapsed_us
                    .unwrap_or_else(|| s.start.elapsed().as_micros().min(u64::MAX as u128) as u64),
                children: children[idx]
                    .iter()
                    .map(|&c| build(c, spans, children))
                    .collect(),
            }
        }
        Snapshot {
            roots: root_idx
                .iter()
                .map(|&i| build(i, &inner.spans, &children))
                .collect(),
            counters: inner
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            dropped_spans: inner.dropped_spans,
        }
    }

    /// A metrics-only snapshot: counters, gauges, and histograms, with the
    /// span tree left empty. Rebuilding the span tree dominates snapshot
    /// cost on fleet-scale runs, so per-round sampling hooks (the time-series
    /// store) use this instead of [`Registry::snapshot`].
    pub fn metrics_snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            roots: Vec::new(),
            counters: inner
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            dropped_spans: inner.dropped_spans,
        }
    }
}

/// Inserts one snapshot span subtree as synthetic span records (depth-first,
/// durations preserved), emitting open/close events so an attached stream
/// sees the merged trace. Respects the span retention cap.
fn absorb_span(inner: &mut Inner, node: &SpanNode, parent: Option<usize>) {
    if inner.spans.len() >= MAX_SPANS {
        inner.dropped_spans += node.size() as u64;
        return;
    }
    let idx = inner.spans.len();
    inner.spans.push(SpanRec {
        name: node.name.clone(),
        parent,
        start: Instant::now(),
        elapsed_us: Some(node.elapsed_us),
    });
    if inner.events_on() {
        inner.emit(Event::SpanOpen {
            id: idx as u64,
            parent: parent.map(|p| p as u64),
            name: node.name.clone(),
        });
    }
    for child in &node.children {
        absorb_span(inner, child, Some(idx));
    }
    if inner.events_on() {
        inner.emit(Event::SpanClose {
            id: idx as u64,
            name: node.name.clone(),
            elapsed_us: node.elapsed_us,
        });
    }
}

/// RAII guard returned by [`Registry::span`]; records the span's duration on
/// drop. A guard from a disabled registry is a no-op.
pub struct SpanGuard {
    reg: Option<Arc<Registry>>,
    idx: usize,
    /// The registry's reset epoch when the span opened.
    epoch: u64,
}

impl SpanGuard {
    /// A guard that records nothing (disabled path).
    pub fn noop() -> Self {
        Self {
            reg: None,
            idx: 0,
            epoch: 0,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(reg) = self.reg.take() {
            reg.close_span(self.idx, self.epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_dropped_after_reset_records_nothing() {
        let reg = Arc::new(Registry::new());
        let stale = reg.span("before");
        reg.reset();
        drop(stale);
        let snap = reg.snapshot();
        assert!(snap.roots.is_empty(), "{:?}", snap.roots);
    }

    #[test]
    fn stale_guard_leaves_a_span_opened_after_reset_open() {
        let reg = Arc::new(Registry::new());
        let stale = reg.span("before");
        reg.reset();
        // Reuses the stale guard's index 0.
        let current = reg.span("after");
        drop(stale);
        assert_eq!(reg.lock().spans[0].elapsed_us, None, "`after` was closed");
        drop(reg.span("child"));
        drop(current);
        let snap = reg.snapshot();
        assert_eq!(snap.roots.len(), 1, "{:?}", snap.roots);
        assert_eq!(snap.roots[0].name, "after");
        assert_eq!(snap.roots[0].children.len(), 1);
        assert_eq!(snap.roots[0].children[0].name, "child");
    }
}
