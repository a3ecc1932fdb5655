//! Per-round time-series: bounded ring-buffered series keyed by **round
//! index**, never wall-clock.
//!
//! The cumulative registry answers "what happened over the whole run"; this
//! store answers "when did it happen" at round granularity, which is what
//! fleet-health questions ("when did quorum health start collapsing?") need.
//! Samples are drawn from deterministic metrics only — timing (`*_us`,
//! `*_per_sec`) names are refused — so same-seed runs produce
//! byte-identical series at any thread count, and the section can sit
//! inside the diffable report.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::registry::{is_timing_name, Snapshot};
use crate::Json;

/// Default number of samples retained per series. Far above any CI run
/// (rounds are tens to hundreds); long-running fleets keep the newest window.
pub const DEFAULT_SERIES_CAPACITY: usize = 4096;

/// How a configured series draws its per-round value from a metrics
/// snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleSpec {
    /// Increase of a counter since the previous round (0 on first sight).
    CounterDelta(String),
    /// Current value of a gauge (skipped while the gauge is unset).
    Gauge(String),
    /// Quantile of a cumulative histogram (skipped while empty). The series
    /// is named `{name}.p{100q}` (e.g. `fed.round.loss.p90`).
    HistQuantile { name: String, q: f64 },
}

impl SampleSpec {
    /// The series name this spec records under.
    pub fn series_name(&self) -> String {
        match self {
            SampleSpec::CounterDelta(n) | SampleSpec::Gauge(n) => n.clone(),
            SampleSpec::HistQuantile { name, q } => format!("{name}.p{}", (q * 100.0).round()),
        }
    }

    /// The underlying metric name.
    fn metric(&self) -> &str {
        match self {
            SampleSpec::CounterDelta(n) | SampleSpec::Gauge(n) => n,
            SampleSpec::HistQuantile { name, .. } => name,
        }
    }

    /// The `kind` tag serialized with the series.
    fn kind(&self) -> &'static str {
        match self {
            SampleSpec::CounterDelta(_) => "counter_delta",
            SampleSpec::Gauge(_) => "gauge",
            SampleSpec::HistQuantile { .. } => "quantile",
        }
    }
}

/// One bounded series of `(round, value)` samples, oldest first.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// What the values are: `counter_delta`, `gauge`, `quantile`, or
    /// `sample` (pushed directly by the producer).
    pub kind: &'static str,
    pub rounds: VecDeque<u64>,
    pub values: VecDeque<f64>,
    /// Samples evicted after the ring filled.
    pub dropped: u64,
}

impl Series {
    fn new(kind: &'static str) -> Self {
        Self {
            kind,
            rounds: VecDeque::new(),
            values: VecDeque::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, capacity: usize, round: u64, value: f64) {
        while self.rounds.len() >= capacity.max(1) {
            self.rounds.pop_front();
            self.values.pop_front();
            self.dropped += 1;
        }
        self.rounds.push_back(round);
        self.values.push_back(value);
    }

    /// The newest `window` values (all of them when `window == 0` or larger
    /// than the series).
    pub fn tail(&self, window: usize) -> impl Iterator<Item = f64> + '_ {
        let skip = if window == 0 {
            0
        } else {
            self.values.len().saturating_sub(window)
        };
        self.values.iter().skip(skip).copied()
    }
}

/// The per-round time-series store. Fed one metrics [`Snapshot`] per round
/// (plus any direct samples), it maintains one bounded [`Series`] per
/// configured spec / pushed name.
#[derive(Debug, Clone)]
pub struct TimeSeriesStore {
    capacity: usize,
    specs: Vec<SampleSpec>,
    series: BTreeMap<String, Series>,
    /// Counter totals at the previous round, for delta specs.
    last_counters: HashMap<String, u64>,
}

impl Default for TimeSeriesStore {
    fn default() -> Self {
        Self::new(DEFAULT_SERIES_CAPACITY)
    }
}

impl TimeSeriesStore {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            specs: Vec::new(),
            series: BTreeMap::new(),
            last_counters: HashMap::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Registers a snapshot-driven sample spec. Timing metrics are refused
    /// (`Err`): series must stay deterministic.
    pub fn add_spec(&mut self, spec: SampleSpec) -> Result<(), String> {
        let metric = spec.metric();
        if is_timing_name(metric) {
            return Err(format!(
                "time-series metric {metric:?} is nondeterministic (timing); \
                 series must be byte-identical across same-seed runs"
            ));
        }
        if let SampleSpec::HistQuantile { q, .. } = &spec {
            if !(0.0..=1.0).contains(q) {
                return Err(format!("quantile {q} outside [0, 1] for metric {metric:?}"));
            }
        }
        self.specs.push(spec);
        Ok(())
    }

    /// Evaluates every registered spec against a metrics snapshot, recording
    /// one sample per spec for `round`. Gauge/quantile specs whose metric has
    /// no data yet are skipped (no placeholder samples).
    pub fn record_round(&mut self, round: u64, snap: &Snapshot) {
        // Specs are evaluated in registration order but stored in a sorted
        // map, so evaluation order never shows in the export.
        for i in 0..self.specs.len() {
            let spec = self.specs[i].clone();
            match &spec {
                SampleSpec::CounterDelta(name) => {
                    let total = snap.counters.get(name).copied().unwrap_or(0);
                    let prev = self.last_counters.insert(name.clone(), total).unwrap_or(0);
                    let delta = total.saturating_sub(prev);
                    self.push(round, &spec.series_name(), spec.kind(), delta as f64);
                }
                SampleSpec::Gauge(name) => {
                    if let Some(&v) = snap.gauges.get(name) {
                        self.push(round, &spec.series_name(), spec.kind(), v);
                    }
                }
                SampleSpec::HistQuantile { name, q } => {
                    if let Some(v) = snap.histograms.get(name).and_then(|h| h.quantile(*q)) {
                        self.push(round, &spec.series_name(), spec.kind(), v);
                    }
                }
            }
        }
    }

    /// Records one directly-computed sample (kind `sample`), e.g. a value the
    /// producer already has in hand. Nondeterministic names are dropped.
    pub fn push_sample(&mut self, round: u64, name: &str, value: f64) {
        if is_timing_name(name) || !value.is_finite() {
            return;
        }
        self.push(round, name, "sample", value);
    }

    fn push(&mut self, round: u64, name: &str, kind: &'static str, value: f64) {
        let cap = self.capacity;
        self.series
            .entry(name.to_string())
            .or_insert_with(|| Series::new(kind))
            .push(cap, round, value);
    }

    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    pub fn series_names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// The report's `timeseries` section.
    pub fn to_json(&self) -> Json {
        let series = self
            .series
            .iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("kind".into(), Json::Str(s.kind.to_string())),
                        (
                            "rounds".into(),
                            Json::Arr(s.rounds.iter().map(|&r| Json::UInt(r)).collect()),
                        ),
                        (
                            "values".into(),
                            Json::Arr(s.values.iter().map(|&v| Json::Num(v)).collect()),
                        ),
                        ("dropped".into(), Json::UInt(s.dropped)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("capacity".into(), Json::UInt(self.capacity as u64)),
            ("series".into(), Json::Obj(series)),
        ])
    }
}

/// Validates a report's `timeseries` section (used by `validate_report`).
pub fn validate_timeseries(doc: &Json) -> Result<(), String> {
    let obj = match doc {
        Json::Obj(_) => doc,
        _ => return Err("timeseries: not an object".into()),
    };
    obj.get("capacity")
        .and_then(Json::as_u64)
        .ok_or("timeseries: missing integer `capacity`")?;
    let series = obj
        .get("series")
        .ok_or("timeseries: missing `series` object")?;
    let entries = match series {
        Json::Obj(entries) => entries,
        _ => return Err("timeseries: `series` is not an object".into()),
    };
    for (name, s) in entries {
        let kind = s.get("kind").and_then(Json::as_str);
        if kind.is_none() {
            return Err(format!("timeseries series {name:?}: missing string `kind`"));
        }
        let rounds = match s.get("rounds") {
            Some(Json::Arr(a)) => a,
            _ => {
                return Err(format!(
                    "timeseries series {name:?}: missing `rounds` array"
                ))
            }
        };
        let values = match s.get("values") {
            Some(Json::Arr(a)) => a,
            _ => {
                return Err(format!(
                    "timeseries series {name:?}: missing `values` array"
                ))
            }
        };
        if rounds.len() != values.len() {
            return Err(format!(
                "timeseries series {name:?}: {} rounds vs {} values",
                rounds.len(),
                values.len()
            ));
        }
        if rounds.iter().any(|r| r.as_u64().is_none()) {
            return Err(format!(
                "timeseries series {name:?}: non-integer round index"
            ));
        }
        if values.iter().any(|v| v.as_f64().is_none()) {
            return Err(format!("timeseries series {name:?}: non-numeric value"));
        }
        s.get("dropped")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("timeseries series {name:?}: missing integer `dropped`"))?;
    }
    Ok(())
}

/// The fleet-health telemetry bundle a run carries: the time-series store
/// plus an optional SLO engine evaluated against it each round.
#[derive(Debug, Clone, Default)]
pub struct FleetTelemetry {
    pub store: TimeSeriesStore,
    pub slo: Option<crate::slo::SloEngine>,
}

impl FleetTelemetry {
    pub fn new(store: TimeSeriesStore, slo: Option<crate::slo::SloEngine>) -> Self {
        Self { store, slo }
    }

    /// Per-round hook: samples the snapshot-driven specs, then evaluates the
    /// SLO rules against the updated series. Returns the number of rules
    /// currently failing (0 when no engine is attached).
    pub fn observe_round(&mut self, round: u64, snap: &Snapshot) -> usize {
        self.store.record_round(round, snap);
        match &mut self.slo {
            Some(engine) => engine.evaluate(round, &self.store),
            None => 0,
        }
    }

    /// Direct sample pass-through (see [`TimeSeriesStore::push_sample`]).
    pub fn push_sample(&mut self, round: u64, name: &str, value: f64) {
        self.store.push_sample(round, name, value);
    }

    /// True when any rule failed at any evaluated round (the CI gate).
    pub fn slo_failed(&self) -> bool {
        self.slo.as_ref().is_some_and(|e| e.any_failed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn snap_with(counters: &[(&str, u64)], gauges: &[(&str, f64)]) -> Snapshot {
        let reg = Registry::new();
        for (n, v) in counters {
            reg.counter_add(n, *v);
        }
        for (n, v) in gauges {
            reg.gauge_set(n, *v);
        }
        reg.metrics_snapshot()
    }

    #[test]
    fn counter_delta_series_tracks_per_round_increase() {
        let mut ts = TimeSeriesStore::new(16);
        ts.add_spec(SampleSpec::CounterDelta("fed.sim.dropped".into()))
            .unwrap();
        ts.record_round(0, &snap_with(&[("fed.sim.dropped", 3)], &[]));
        ts.record_round(1, &snap_with(&[("fed.sim.dropped", 10)], &[]));
        let s = ts.series("fed.sim.dropped").unwrap();
        assert_eq!(s.kind, "counter_delta");
        assert_eq!(s.rounds, [0, 1]);
        assert_eq!(s.values, [3.0, 7.0]);
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let mut ts = TimeSeriesStore::new(2);
        for round in 0..5u64 {
            ts.push_sample(round, "fed.round.x", round as f64);
        }
        let s = ts.series("fed.round.x").unwrap();
        assert_eq!(s.rounds, [3, 4]);
        assert_eq!(s.values, [3.0, 4.0]);
        assert_eq!(s.dropped, 3);
    }

    #[test]
    fn nondeterministic_metrics_are_refused() {
        let mut ts = TimeSeriesStore::default();
        assert!(ts
            .add_spec(SampleSpec::Gauge("featurize.items_per_sec".into()))
            .is_err());
        assert!(ts
            .add_spec(SampleSpec::HistQuantile {
                name: "client.step_us".into(),
                q: 0.5
            })
            .is_err());
        ts.push_sample(0, "span_us", 1.0);
        ts.push_sample(0, "fed.nan", f64::NAN);
        assert!(ts.is_empty());
    }

    #[test]
    fn quantile_spec_skips_empty_histograms_then_samples() {
        let reg = Registry::new();
        let mut ts = TimeSeriesStore::new(8);
        ts.add_spec(SampleSpec::HistQuantile {
            name: "fed.round.loss".into(),
            q: 0.5,
        })
        .unwrap();
        ts.record_round(0, &reg.metrics_snapshot());
        assert!(ts.series("fed.round.loss.p50").is_none());
        for v in [0.1, 0.2, 0.3] {
            reg.hist_record("fed.round.loss", crate::buckets::LOSS, v);
        }
        ts.record_round(1, &reg.metrics_snapshot());
        let s = ts.series("fed.round.loss.p50").unwrap();
        assert_eq!(s.kind, "quantile");
        assert_eq!(s.rounds, [1]);
    }

    #[test]
    fn json_section_round_trips_validation() {
        let mut ts = TimeSeriesStore::new(4);
        ts.push_sample(0, "fed.round.a", 1.5);
        ts.push_sample(1, "fed.round.a", 2.5);
        let doc = ts.to_json();
        validate_timeseries(&doc).expect("section validates");
        let reparsed = Json::parse(&doc.to_string()).expect("parses");
        validate_timeseries(&reparsed).expect("reparsed section validates");
        assert!(validate_timeseries(&Json::Arr(vec![])).is_err());
        assert!(validate_timeseries(&Json::parse(r#"{"capacity":4,"series":{"s":{"kind":"sample","rounds":[0],"values":[1,2],"dropped":0}}}"#).unwrap()).is_err());
    }
}
