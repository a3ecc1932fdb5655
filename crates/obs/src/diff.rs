//! Comparison of two obs run reports (`fexiot-obs/v4`): the engine behind
//! the `obs-diff` binary and the CI regression gate.
//!
//! One structural rule covers every report section, present and future. The
//! diff walks both documents together and reports each difference at its
//! leaf, under a dotted path; an array element that is an object with a
//! string `name` (a span, an SLO verdict, a stream actor) is addressed by
//! that name, any other element by its index. Three rules decide how bad a
//! difference is, in this order:
//!
//! 1. **Timing.** A key that [`is_timing_name`] accepts holds wall-clock
//!    data: a span's `elapsed_us`, a `*_us` histogram (compared by its mean)
//!    or a `*_per_sec` rate (for which lower is worse). A slowdown beyond
//!    the tolerance, or a timing key on one side only, is a timing finding:
//!    advisory unless [`DiffConfig::strict_timing`].
//! 2. **Optional sections.** A top-level section present in one report only
//!    is advisory: a flag or the run kind differs.
//! 3. **Everything else** is a pure function of the seeded workload, so any
//!    difference is breaking: a key on one side only, an array length, or a
//!    value.

use crate::json::Json;
use crate::registry::{is_timing_name, RATE_SUFFIX};

/// Schema tag of the machine-readable verdict document.
pub const DIFF_SCHEMA: &str = "fexiot-obs-diff/v2";

/// How bad one finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Deterministic data drifted — the run changed behaviour.
    Breaking,
    /// Wall-clock data regressed beyond tolerance, or an optional section
    /// is present on one side only — worth a look.
    Advisory,
}

impl Severity {
    /// The severity's name in the verdict document.
    fn tag(self) -> &'static str {
        match self {
            Severity::Breaking => "breaking",
            Severity::Advisory => "advisory",
        }
    }
}

/// One observed difference between the two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub severity: Severity,
    /// Dotted location of the leaf, e.g. `counters.fed.sim.participants`
    /// or `spans[pipeline].children[pipeline.fuse].elapsed_us`.
    pub path: String,
    pub message: String,
}

/// Diff tuning knobs.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Fractional slowdown tolerated before a timing finding is raised
    /// (0.25 = current may be up to 25% slower than baseline).
    pub timing_tolerance: f64,
    /// Spans faster than this in the baseline are never timing-flagged
    /// (sub-millisecond spans are pure noise).
    pub timing_floor_us: u64,
    /// Promote timing findings to breaking (local perf gating; CI keeps
    /// them advisory because shared runners are noisy).
    pub strict_timing: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self {
            timing_tolerance: 0.25,
            timing_floor_us: 1000,
            strict_timing: false,
        }
    }
}

/// Findings cap — a badly divergent pair of reports should produce a
/// readable verdict, not thousands of lines.
const MAX_FINDINGS: usize = 100;

/// The diff verdict: all findings plus pass/fail.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    pub findings: Vec<Finding>,
    /// Findings discarded after [`MAX_FINDINGS`].
    pub truncated: usize,
}

impl DiffReport {
    fn push(&mut self, severity: Severity, path: String, message: String) {
        if self.findings.len() >= MAX_FINDINGS {
            self.truncated += 1;
            return;
        }
        self.findings.push(Finding {
            severity,
            path,
            message,
        });
    }

    pub fn breaking(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Breaking)
            .count()
    }

    pub fn advisory(&self) -> usize {
        self.findings.len() - self.breaking()
    }

    /// True when nothing breaking was found (advisory findings never fail).
    pub fn passed(&self) -> bool {
        self.breaking() == 0
    }

    /// The machine-readable verdict document (`fexiot-obs-diff/v2`).
    pub fn to_json(&self, baseline: &str, current: &str) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(DIFF_SCHEMA.into())),
            ("baseline".into(), Json::Str(baseline.into())),
            ("current".into(), Json::Str(current.into())),
            (
                "verdict".into(),
                Json::Str(if self.passed() { "pass" } else { "fail" }.into()),
            ),
            ("breaking".into(), Json::UInt(self.breaking() as u64)),
            ("advisory".into(), Json::UInt(self.advisory() as u64)),
            ("truncated".into(), Json::UInt(self.truncated as u64)),
            (
                "findings".into(),
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::Obj(vec![
                                ("severity".into(), Json::Str(f.severity.tag().into())),
                                ("path".into(), Json::Str(f.path.clone())),
                                ("message".into(), Json::Str(f.message.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Human-readable rendering, one finding per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Breaking => "BREAKING",
                Severity::Advisory => "advisory",
            };
            out.push_str(&format!("{tag:9} {}: {}\n", f.path, f.message));
        }
        if self.truncated > 0 {
            out.push_str(&format!("… {} more findings truncated\n", self.truncated));
        }
        out.push_str(&format!(
            "verdict: {} ({} breaking, {} advisory)\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.breaking(),
            self.advisory()
        ));
        out
    }
}

/// Compares two validated obs reports by the three rules in the module
/// docs.
pub fn diff_reports(baseline: &Json, current: &Json, cfg: &DiffConfig) -> DiffReport {
    let mut walk = Walk {
        cfg,
        out: DiffReport::default(),
    };
    walk.value("", baseline, current);
    walk.out
}

/// The joint walk over two documents, collecting findings as it goes.
struct Walk<'a> {
    cfg: &'a DiffConfig,
    out: DiffReport,
}

impl Walk<'_> {
    /// Compares two values found at `path`: objects member by member,
    /// arrays of equal length element by element, anything else as a leaf.
    fn value(&mut self, path: &str, a: &Json, b: &Json) {
        match (a, b) {
            (Json::Obj(members_a), Json::Obj(members_b)) => {
                for (key, va) in members_a {
                    self.member(path, key, Some(va), b.get(key));
                }
                for (key, vb) in members_b.iter().filter(|(k, _)| a.get(k).is_none()) {
                    self.member(path, key, None, Some(vb));
                }
            }
            (Json::Arr(a), Json::Arr(b)) if a.len() != b.len() => self.out.push(
                Severity::Breaking,
                path.to_string(),
                format!("{} items -> {}", a.len(), b.len()),
            ),
            (Json::Arr(a), Json::Arr(b)) => {
                for (i, (va, vb)) in a.iter().zip(b).enumerate() {
                    let here = match va.get("name").and_then(Json::as_str) {
                        Some(name) => format!("{path}[{name}]"),
                        None => format!("{path}[{i}]"),
                    };
                    self.value(&here, va, vb);
                }
            }
            _ if a == b => {}
            _ => self
                .out
                .push(Severity::Breaking, path.to_string(), format!("{a} -> {b}")),
        }
    }

    /// One object member, present on either side or both.
    fn member(&mut self, parent: &str, key: &str, a: Option<&Json>, b: Option<&Json>) {
        let path = if parent.is_empty() {
            key.to_string()
        } else {
            format!("{parent}.{key}")
        };
        let timing = is_timing_name(key);
        let (what, tense, v) = match (a, b) {
            (Some(a), Some(b)) if timing => return self.timing(path, key, a, b),
            (Some(a), Some(b)) => return self.value(&path, a, b),
            (Some(a), None) => ("disappeared", "was", a),
            (None, Some(b)) => ("appeared", "now", b),
            (None, None) => unreachable!("a member comes from one side"),
        };
        let severity = if timing {
            self.timing_severity()
        } else if parent.is_empty() {
            Severity::Advisory
        } else {
            Severity::Breaking
        };
        let message = match v {
            Json::Arr(_) | Json::Obj(_) => what.to_string(),
            scalar => format!("{what} ({tense} {scalar})"),
        };
        self.out.push(severity, path, message);
    }

    fn timing_severity(&self) -> Severity {
        if self.cfg.strict_timing {
            Severity::Breaking
        } else {
            Severity::Advisory
        }
    }

    /// A wall-clock member on both sides: a duration (higher is worse) or,
    /// under a `*_per_sec` key, a rate (lower is worse). Both are judged by
    /// one slowdown factor, how many times longer the current run takes
    /// per unit of work, flagged above `1 + tolerance`.
    fn timing(&mut self, path: String, key: &str, a: &Json, b: &Json) {
        let (Some(ma), Some(mb)) = (magnitude(a), magnitude(b)) else {
            return;
        };
        let tolerance = self.cfg.timing_tolerance;
        let rate = key.ends_with(RATE_SUFFIX);
        let (unit, slowdown) = if rate {
            ("/s", ma / mb)
        } else {
            ("us", mb / ma)
        };
        // A single measured duration under the floor is noise; a histogram's
        // mean and a rate are compared whatever their size.
        let floor = if !rate && a.is_number() {
            self.cfg.timing_floor_us as f64
        } else {
            0.0
        };
        if ma > 0.0 && ma >= floor && slowdown > 1.0 + tolerance {
            let shown = |v: &Json, m: f64| match v {
                Json::Obj(_) => format!("mean {m:.1}{unit}"),
                Json::UInt(_) => format!("{v}{unit}"),
                _ => format!("{m:.1}{unit}"),
            };
            self.out.push(
                self.timing_severity(),
                path,
                format!(
                    "{} -> {} ({:+.0}% slower, tolerance {:.0}%)",
                    shown(a, ma),
                    shown(b, mb),
                    (slowdown - 1.0) * 100.0,
                    tolerance * 100.0
                ),
            );
        }
    }
}

/// The magnitude a timing value is compared by: the number itself, or a
/// histogram's mean (`None` for an empty histogram).
fn magnitude(v: &Json) -> Option<f64> {
    if v.is_number() {
        return v.as_f64();
    }
    let count = v.get("count")?.as_u64()?;
    let sum = v.get("sum")?.as_f64()?;
    (count > 0).then(|| sum / count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report with one counter, the given gauges and one span, plus
    /// whatever top-level sections `extra` appends.
    fn report(counter: u64, gauges: &str, elapsed: u64, extra: &str) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"fexiot-obs/v4","run":"t","spans":[{{"name":"root","elapsed_us":{elapsed},"children":[]}}],"counters":{{"a.b":{counter}}},"gauges":{gauges},"histograms":{{}},"dropped_spans":0{extra}}}"#
        ))
        .expect("valid report")
    }

    fn base() -> Json {
        report(3, "{}", 100, "")
    }

    fn diff(a: &Json, b: &Json) -> DiffReport {
        diff_reports(a, b, &DiffConfig::default())
    }

    #[test]
    fn identical_reports_pass() {
        crate::report::validate_report(&base()).expect("test report validates");
        let d = diff(&base(), &base());
        assert!(d.passed(), "{}", d.render());
        assert!(d.findings.is_empty());
    }

    #[test]
    fn counter_drift_is_breaking() {
        let d = diff(&base(), &report(4, "{}", 100, ""));
        assert!(!d.passed());
        assert_eq!(d.findings[0].path, "counters.a.b");
        assert!(
            d.render().contains("BREAKING  counters.a.b: 3 -> 4"),
            "{}",
            d.render()
        );
    }

    #[test]
    fn deterministic_gauge_drift_stays_breaking() {
        let d = diff(
            &report(3, r#"{"fed.sim.mean_loss":0.5}"#, 100, ""),
            &report(3, r#"{"fed.sim.mean_loss":0.75}"#, 100, ""),
        );
        assert_eq!(d.breaking(), 1, "{}", d.render());
        assert_eq!(d.findings[0].path, "gauges.fed.sim.mean_loss");
        // A key on one side only and the run name are data too.
        let d = diff(&base(), &report(3, r#"{"x":1}"#, 100, ""));
        assert_eq!(d.breaking(), 1);
        assert_eq!(d.findings[0].message, "appeared (now 1)");
        let mut renamed = base();
        if let Json::Obj(members) = &mut renamed {
            members[1].1 = Json::Str("u".into());
        }
        let d = diff(&base(), &renamed);
        assert_eq!(d.breaking(), 1);
        assert_eq!(d.findings[0].path, "run");
    }

    #[test]
    fn timing_regression_is_advisory_unless_strict() {
        let fast = report(3, "{}", 10_000, "");
        let slow = report(3, "{}", 20_000, "");
        let lax = diff(&fast, &slow);
        assert!(lax.passed());
        assert_eq!(lax.advisory(), 1);
        assert_eq!(lax.findings[0].path, "spans[root].elapsed_us");
        let strict = diff_reports(
            &fast,
            &slow,
            &DiffConfig {
                strict_timing: true,
                ..DiffConfig::default()
            },
        );
        assert!(!strict.passed());
        // A speedup is never a finding.
        assert!(diff(&slow, &fast).findings.is_empty());
    }

    #[test]
    fn sub_floor_spans_never_flag_timing() {
        let d = diff(&base(), &report(3, "{}", 900, ""));
        assert!(d.findings.is_empty(), "{}", d.render());
    }

    #[test]
    fn rate_gauge_appearance_and_drift_are_advisory() {
        let d = diff(
            &base(),
            &report(
                3,
                r#"{"pipeline.featurize.sentences_per_sec":120.5}"#,
                100,
                "",
            ),
        );
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.advisory(), 1);
        // A >tolerance rate drop is flagged, but still advisory by default;
        // a rate increase is never a finding.
        let fast = report(3, r#"{"x_per_sec":1000.0}"#, 100, "");
        let slow = report(3, r#"{"x_per_sec":100.0}"#, 100, "");
        let d = diff(&fast, &slow);
        assert!(d.passed() && d.advisory() == 1, "{}", d.render());
        assert!(diff(&slow, &fast).findings.is_empty());
        // A `*_us` histogram is compared by its mean.
        let hist = |sum: u32| {
            let mut doc = base();
            if let Json::Obj(members) = &mut doc {
                members[5].1 = Json::parse(&format!(
                    r#"{{"step_us":{{"edges":[0,1],"counts":[2],"underflow":0,"overflow":0,"count":2,"sum":{sum},"min":1,"max":1,"rejected":0}}}}"#
                ))
                .unwrap();
            }
            doc
        };
        let d = diff(&hist(200), &hist(400));
        assert!(d.passed() && d.advisory() == 1, "{}", d.render());
        assert!(
            d.findings[0]
                .message
                .starts_with("mean 100.0us -> mean 200.0us"),
            "{}",
            d.render()
        );
    }

    #[test]
    fn rate_drop_is_stated_as_the_slowdown_the_rule_flags() {
        // A 22% drop in throughput is a 28% slowdown: beyond the default
        // 25% tolerance, and the message says so in those terms.
        let base = report(3, r#"{"x_per_sec":1000.0}"#, 100, "");
        let d = diff(&base, &report(3, r#"{"x_per_sec":780.0}"#, 100, ""));
        assert_eq!(d.advisory(), 1, "{}", d.render());
        assert_eq!(
            d.findings[0].message,
            "1000.0/s -> 780.0/s (+28% slower, tolerance 25%)"
        );
        // A 19% drop is a 23% slowdown, within tolerance.
        let d = diff(&base, &report(3, r#"{"x_per_sec":810.0}"#, 100, ""));
        assert!(d.findings.is_empty(), "{}", d.render());
        // A duration states its slowdown the same way.
        let d = diff(&report(3, "{}", 10_000, ""), &report(3, "{}", 20_000, ""));
        assert_eq!(
            d.findings[0].message,
            "10000us -> 20000us (+100% slower, tolerance 25%)"
        );
    }

    #[test]
    fn timeseries_and_slo_drift_between_v2_reports_is_breaking() {
        let telemetry = |values: &str, status: &str| {
            report(
                3,
                "{}",
                100,
                &format!(
                    r#","timeseries":{{"capacity":4096,"series":{{"fed.round.participants":{{"kind":"sample","rounds":[0,1],"values":{values},"dropped":0}}}}}},"slo":{{"failed":false,"verdicts":[{{"name":"r","status":"{status}"}}]}}"#
                ),
            )
        };
        let base = telemetry("[2,2]", "pass");
        assert!(diff(&base, &telemetry("[2,2]", "pass")).findings.is_empty());
        // Same cumulative counters, different per-round trajectory: caught.
        let d = diff(&base, &telemetry("[1,3]", "pass"));
        assert!(!d.passed());
        assert_eq!(
            d.findings[0].path,
            "timeseries.series.fed.round.participants.values[0]"
        );
        // An SLO verdict flip: caught, under the rule's name.
        let d = diff(&base, &telemetry("[2,2]", "fail"));
        assert_eq!(d.breaking(), 1, "{}", d.render());
        assert_eq!(d.findings[0].path, "slo.verdicts[r].status");
    }

    #[test]
    fn optional_sections_are_advisory_one_sided_and_exact_when_shared() {
        let stream = |digest: &str, shed: u64| {
            format!(
                r#","stream":{{"events":10,"detections_digest":"fnv1a:{digest}","actors":[{{"name":"maintain","shed":{shed}}}]}}"#
            )
        };
        let with = report(3, "{}", 100, &stream("deadbeef", 0));
        for (a, b) in [(&base(), &with), (&with, &base())] {
            let d = diff(a, b);
            assert!(d.passed(), "{}", d.render());
            assert_eq!(d.advisory(), 1);
            assert_eq!(d.findings[0].path, "stream");
        }
        // Both sides carrying the section compare leaf by leaf.
        let d = diff(&with, &report(3, "{}", 100, &stream("cafef00d", 0)));
        assert_eq!(d.breaking(), 1);
        assert!(
            d.render()
                .contains(r#"stream.detections_digest: "fnv1a:deadbeef" -> "fnv1a:cafef00d""#),
            "{}",
            d.render()
        );
        let d = diff(&with, &report(3, "{}", 100, &stream("deadbeef", 4)));
        assert_eq!(d.findings[0].path, "stream.actors[maintain].shed");
        // An array that changes length is one finding.
        let d = diff(
            &report(3, "{}", 100, r#","critical_path":[1,2]"#),
            &report(3, "{}", 100, r#","critical_path":[1,2,3]"#),
        );
        assert_eq!(d.breaking(), 1, "{}", d.render());
        assert_eq!(d.findings[0].message, "2 items -> 3");
    }

    #[test]
    fn findings_are_capped() {
        let many = |v: u64| {
            let gauges: Vec<String> = (0..MAX_FINDINGS + 5)
                .map(|i| format!(r#""g{i}":{v}"#))
                .collect();
            report(3, &format!("{{{}}}", gauges.join(",")), 100, "")
        };
        let d = diff(&many(1), &many(2));
        assert_eq!(d.findings.len(), MAX_FINDINGS);
        assert_eq!(d.truncated, 5);
        assert!(d.render().contains("5 more findings truncated"));
    }

    #[test]
    fn verdict_json_is_machine_readable() {
        let d = diff(&base(), &report(4, "{}", 100, ""));
        let doc = d.to_json("base.json", "cur.json");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(DIFF_SCHEMA));
        assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("fail"));
        assert_eq!(doc.get("breaking").and_then(Json::as_u64), Some(1));
        let finding = &doc.get("findings").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            finding.get("path").and_then(Json::as_str),
            Some("counters.a.b")
        );
    }
}
