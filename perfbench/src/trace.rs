//! In-memory span recorder for the traced passes.
//!
//! Spans wrap the benchmark's own calls into each layer; nothing is
//! recorded inside the program. A disabled tracer runs the closure and
//! nothing else, so the untraced passes pay one branch per call site.
//! Spans nest by call order on the benchmark thread; a span's self time is
//! its duration minus the durations of its direct children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Totals of every span that shares one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanStat {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Mean duration of one call in microseconds (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e3 / self.calls as f64
        }
    }

    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` (layer first: `graph.fuse`).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent: self.open.borrow().last().copied(),
                start_ns: 0,
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = start;
        spans[idx].end_ns = end;
        out
    }

    /// Per-name totals with self time, in name order.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStat> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let stat = out.entry(s.name).or_default();
            stat.calls += 1;
            stat.total_ns += total;
            stat.self_ns += total.saturating_sub(child_ns[i]);
        }
        out
    }

    pub fn stat(&self, name: &str) -> SpanStat {
        self.summary().get(name).copied().unwrap_or_default()
    }

    /// Every span as one JSON line, in start order, for offline reading.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::on();
        t.span("outer", || {
            spin(200_000);
            t.span("inner", || spin(300_000));
            t.span("inner", || spin(300_000));
        });
        let s = t.summary();
        let outer = s["outer"];
        let inner = s["inner"];
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 2);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 600_000);
        assert!(t.to_jsonl().lines().count() == 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.summary().is_empty());
    }
}
