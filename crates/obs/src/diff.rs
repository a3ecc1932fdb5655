//! Comparison of two obs run reports (`fexiot-obs/v4`, or the older v1–v3):
//! the engine behind the `obs-diff` binary and the CI regression gate.
//!
//! Severity model follows the determinism rule: everything except wall-clock
//! data is a pure function of the seeded workload, so **any** drift in
//! counters, gauges, non-timing histograms, span structure, or the critical
//! path is *breaking*. Span `elapsed_us` and `*_us` histograms are noisy by
//! nature, so regressions there are *advisory* by default and only fail the
//! diff beyond the configured tolerance with `strict_timing`.

use crate::json::Json;
use crate::registry::is_timing_name;

/// Schema tag of the machine-readable verdict document.
pub const DIFF_SCHEMA: &str = "fexiot-obs-diff/v1";

/// How bad one finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Deterministic data drifted — the run changed behaviour.
    Breaking,
    /// Wall-clock data regressed beyond tolerance — worth a look.
    Advisory,
}

/// One observed difference between the two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub severity: Severity,
    /// What kind of data drifted: `counter`, `gauge`, `histogram`, `span`,
    /// `timing`, `critical_path`, `timeseries`, `slo`, `stream`, `section`,
    /// or `report`.
    pub kind: &'static str,
    /// Dotted location, e.g. `counters.fed.sim.participants`.
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
    fn push(&mut self, severity: Severity, kind: &'static str, path: String, message: String) {
        if self.findings.len() >= MAX_FINDINGS {
            self.truncated += 1;
            return;
        }
        self.findings.push(Finding {
            severity,
            kind,
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

    /// The machine-readable verdict document (`fexiot-obs-diff/v1`).
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
                                (
                                    "severity".into(),
                                    Json::Str(
                                        match f.severity {
                                            Severity::Breaking => "breaking",
                                            Severity::Advisory => "advisory",
                                        }
                                        .into(),
                                    ),
                                ),
                                ("kind".into(), Json::Str(f.kind.into())),
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
            out.push_str(&format!("{tag:9} {:13} {}: {}\n", f.kind, f.path, f.message));
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

fn num(j: &Json) -> Option<f64> {
    match j {
        Json::UInt(v) => Some(*v as f64),
        Json::Num(v) => Some(*v),
        _ => None,
    }
}

fn obj_members(doc: &Json, key: &str) -> Vec<(String, Json)> {
    match doc.get(key) {
        Some(Json::Obj(members)) => members.clone(),
        _ => Vec::new(),
    }
}

/// Walks both maps' key unions in sorted order, invoking `on_pair` with the
/// values (`None` = absent on that side).
fn union_keys<'a>(
    a: &'a [(String, Json)],
    b: &'a [(String, Json)],
    mut on_pair: impl FnMut(&str, Option<&'a Json>, Option<&'a Json>),
) {
    let mut keys: Vec<&str> = a.iter().chain(b.iter()).map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    let find = |m: &'a [(String, Json)], k: &str| m.iter().find(|(mk, _)| mk == k).map(|(_, v)| v);
    for k in keys {
        on_pair(k, find(a, k), find(b, k));
    }
}

/// Compares two validated obs reports (either schema version; the schema
/// tag itself is not compared, so a v1 baseline diffs cleanly against a v2
/// report — the new sections get advisory one-sided handling below).
pub fn diff_reports(baseline: &Json, current: &Json, cfg: &DiffConfig) -> DiffReport {
    let mut out = DiffReport::default();
    let timing_sev = if cfg.strict_timing {
        Severity::Breaking
    } else {
        Severity::Advisory
    };

    let run = |doc: &Json| {
        doc.get("run")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    if run(baseline) != run(current) {
        out.push(
            Severity::Advisory,
            "report",
            "run".into(),
            format!("run name changed: {:?} -> {:?}", run(baseline), run(current)),
        );
    }

    // Counters and gauges: deterministic scalars, exact match required —
    // except gauges whose names mark them as wall-clock rates (`*_per_sec`),
    // which get the timing treatment: only a slowdown beyond tolerance is
    // reported, at timing severity.
    for (section, kind) in [("counters", "counter"), ("gauges", "gauge")] {
        let a = obj_members(baseline, section);
        let b = obj_members(current, section);
        union_keys(&a, &b, |k, va, vb| {
            let timing = section == "gauges" && is_timing_name(k);
            let path = format!("{section}.{k}");
            match (va, vb) {
                (Some(va), Some(vb)) => {
                    if timing {
                        if let (Some(ra), Some(rb)) = (num(va), num(vb)) {
                            // Rates: lower is worse.
                            if ra > 0.0 && rb < ra / (1.0 + cfg.timing_tolerance) {
                                out.push(
                                    timing_sev,
                                    "timing",
                                    path,
                                    format!(
                                        "rate {ra:.1}/s -> {rb:.1}/s (-{:.0}%, tolerance {:.0}%)",
                                        (1.0 - rb / ra) * 100.0,
                                        cfg.timing_tolerance * 100.0
                                    ),
                                );
                            }
                        }
                    } else if num(va) != num(vb) {
                        out.push(Severity::Breaking, kind, path, format!("{} -> {}", va, vb));
                    }
                }
                (Some(va), None) => out.push(
                    if timing { timing_sev } else { Severity::Breaking },
                    kind,
                    path,
                    format!("disappeared (was {})", va),
                ),
                (None, Some(vb)) => out.push(
                    if timing { timing_sev } else { Severity::Breaking },
                    kind,
                    path,
                    format!("appeared (now {})", vb),
                ),
                (None, None) => unreachable!("key came from the union"),
            }
        });
    }

    // Histograms: deterministic distributions unless the name marks them as
    // wall-clock data, in which case only mean drift beyond tolerance is
    // reported (at timing severity).
    let a = obj_members(baseline, "histograms");
    let b = obj_members(current, "histograms");
    union_keys(&a, &b, |k, va, vb| {
        let path = format!("histograms.{k}");
        match (va, vb) {
            (Some(va), Some(vb)) => {
                if is_timing_name(k) {
                    let mean = |h: &Json| -> Option<f64> {
                        let sum = h.get("sum").and_then(num)?;
                        let count = h.get("count").and_then(Json::as_u64)?;
                        (count > 0).then(|| sum / count as f64)
                    };
                    if let (Some(ma), Some(mb)) = (mean(va), mean(vb)) {
                        if ma > 0.0 && mb > ma * (1.0 + cfg.timing_tolerance) {
                            out.push(
                                timing_sev,
                                "timing",
                                path,
                                format!(
                                    "mean {:.1}us -> {:.1}us (+{:.0}%, tolerance {:.0}%)",
                                    ma,
                                    mb,
                                    (mb / ma - 1.0) * 100.0,
                                    cfg.timing_tolerance * 100.0
                                ),
                            );
                        }
                    }
                } else {
                    // Everything but f64 `sum`/`min`/`max` must match exactly;
                    // the float fields are deterministic too, so exact is right.
                    if va != vb {
                        let field = |h: &Json, f: &str| {
                            h.get(f).map(Json::to_string).unwrap_or_default()
                        };
                        let detail = ["count", "counts", "sum"]
                            .iter()
                            .find(|f| field(va, f) != field(vb, f))
                            .map(|f| format!("{f}: {} -> {}", field(va, f), field(vb, f)))
                            .unwrap_or_else(|| "distribution changed".into());
                        out.push(Severity::Breaking, "histogram", path, detail);
                    }
                }
            }
            (Some(_), None) => {
                let sev = if is_timing_name(k) { timing_sev } else { Severity::Breaking };
                out.push(sev, "histogram", path, "disappeared".into());
            }
            (None, Some(_)) => {
                let sev = if is_timing_name(k) { timing_sev } else { Severity::Breaking };
                out.push(sev, "histogram", path, "appeared".into());
            }
            (None, None) => unreachable!("key came from the union"),
        }
    });

    // Span trees: names and shape are deterministic; elapsed_us is advisory.
    let empty = Vec::new();
    let spans_a = baseline.get("spans").and_then(Json::as_arr).unwrap_or(&empty);
    let spans_b = current.get("spans").and_then(Json::as_arr).unwrap_or(&empty);
    diff_span_lists(spans_a, spans_b, "spans", cfg, timing_sev, &mut out);

    // Critical path: a pure function of the seeded fault plan.
    match (baseline.get("critical_path"), current.get("critical_path")) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            if a != b {
                out.push(
                    Severity::Breaking,
                    "critical_path",
                    "critical_path".into(),
                    "per-round critical path changed".into(),
                );
            }
        }
        (a, _) => out.push(
            Severity::Breaking,
            "critical_path",
            "critical_path".into(),
            if a.is_some() { "disappeared" } else { "appeared" }.to_string(),
        ),
    }

    // v2 sections. A report with a section vs one without is the expected
    // v1→v2 (or flag on/off) situation — advisory, never breaking, so a
    // committed v1 baseline keeps passing against v2 reports. When both
    // sides carry the section, its contents are deterministic by
    // construction and compared exactly.
    match (baseline.get("timeseries"), current.get("timeseries")) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            let sa = obj_members(a, "series");
            let sb = obj_members(b, "series");
            union_keys(&sa, &sb, |k, va, vb| {
                if is_timing_name(k) {
                    return; // Defensive: the store refuses these on entry.
                }
                let path = format!("timeseries.{k}");
                match (va, vb) {
                    (Some(va), Some(vb)) => {
                        if va != vb {
                            out.push(
                                Severity::Breaking,
                                "timeseries",
                                path,
                                "per-round series changed".into(),
                            );
                        }
                    }
                    (Some(_), None) => {
                        out.push(Severity::Breaking, "timeseries", path, "disappeared".into())
                    }
                    (None, Some(_)) => {
                        out.push(Severity::Breaking, "timeseries", path, "appeared".into())
                    }
                    (None, None) => unreachable!("key came from the union"),
                }
            });
        }
        (a, _) => out.push(
            Severity::Advisory,
            "timeseries",
            "timeseries".into(),
            format!(
                "section {} (v1 baseline or time-series flag change)",
                if a.is_some() { "disappeared" } else { "appeared" }
            ),
        ),
    }
    match (baseline.get("slo"), current.get("slo")) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            if a != b {
                out.push(
                    Severity::Breaking,
                    "slo",
                    "slo".into(),
                    "SLO verdicts changed".into(),
                );
            }
        }
        (a, _) => out.push(
            Severity::Advisory,
            "slo",
            "slo".into(),
            format!(
                "section {} (v1 baseline or SLO flag change)",
                if a.is_some() { "disappeared" } else { "appeared" }
            ),
        ),
    }

    match (baseline.get("stream"), current.get("stream")) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            if a != b {
                let what = if a.get("detections_digest") != b.get("detections_digest") {
                    "streaming detection outputs changed (digest mismatch)"
                } else {
                    "streaming actor stats changed"
                };
                out.push(Severity::Breaking, "stream", "stream".into(), what.into());
            }
        }
        (a, _) => out.push(
            Severity::Advisory,
            "stream",
            "stream".into(),
            format!(
                "section {} (pre-v4 baseline or serve flag change)",
                if a.is_some() { "disappeared" } else { "appeared" }
            ),
        ),
    }

    // Sections this engine has no dedicated comparison for (v3's
    // `root_cause`, and whatever later schemas add): a one-sided appearance
    // is the expected old-baseline-vs-new-report situation — advisory,
    // matching the v1→v2 precedent above — while a both-sided mismatch is
    // still breaking, since every report section holds deterministic data
    // by construction.
    const KNOWN_SECTIONS: &[&str] = &[
        "schema",
        "run",
        "spans",
        "counters",
        "gauges",
        "histograms",
        "dropped_spans",
        "critical_path",
        "timeseries",
        "slo",
        "stream",
    ];
    let unknown = |doc: &Json| -> Vec<(String, Json)> {
        match doc {
            Json::Obj(members) => members
                .iter()
                .filter(|(k, _)| !KNOWN_SECTIONS.contains(&k.as_str()))
                .cloned()
                .collect(),
            _ => Vec::new(),
        }
    };
    let (a, b) = (unknown(baseline), unknown(current));
    union_keys(&a, &b, |k, va, vb| {
        match (va, vb) {
            (Some(va), Some(vb)) => {
                if va != vb {
                    out.push(
                        Severity::Breaking,
                        "section",
                        k.to_string(),
                        "section contents changed".into(),
                    );
                }
            }
            (one, _) => out.push(
                Severity::Advisory,
                "section",
                k.to_string(),
                format!(
                    "section {} (older-schema baseline or flag change)",
                    if one.is_some() { "disappeared" } else { "appeared" }
                ),
            ),
        }
    });

    out
}

fn span_name(node: &Json) -> &str {
    node.get("name").and_then(Json::as_str).unwrap_or("?")
}

fn diff_span_lists(
    a: &[Json],
    b: &[Json],
    path: &str,
    cfg: &DiffConfig,
    timing_sev: Severity,
    out: &mut DiffReport,
) {
    if a.len() != b.len() {
        out.push(
            Severity::Breaking,
            "span",
            path.to_string(),
            format!("{} children -> {}", a.len(), b.len()),
        );
        return;
    }
    for (i, (na, nb)) in a.iter().zip(b).enumerate() {
        let here = format!("{path}[{i}].{}", span_name(na));
        if span_name(na) != span_name(nb) {
            out.push(
                Severity::Breaking,
                "span",
                here,
                format!("name {:?} -> {:?}", span_name(na), span_name(nb)),
            );
            continue;
        }
        let elapsed = |n: &Json| n.get("elapsed_us").and_then(Json::as_u64);
        if let (Some(ea), Some(eb)) = (elapsed(na), elapsed(nb)) {
            if ea >= cfg.timing_floor_us
                && eb as f64 > ea as f64 * (1.0 + cfg.timing_tolerance)
            {
                out.push(
                    timing_sev,
                    "timing",
                    here.clone(),
                    format!(
                        "{}us -> {}us (+{:.0}%, tolerance {:.0}%)",
                        ea,
                        eb,
                        (eb as f64 / ea as f64 - 1.0) * 100.0,
                        cfg.timing_tolerance * 100.0
                    ),
                );
            }
        }
        fn kids(n: &Json) -> &[Json] {
            n.get("children").and_then(Json::as_arr).unwrap_or(&[])
        }
        diff_span_lists(kids(na), kids(nb), &here, cfg, timing_sev, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(counter: u64, elapsed: u64) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"fexiot-obs/v1","run":"t","spans":[{{"name":"root","elapsed_us":{elapsed},"children":[]}}],"counters":{{"a.b":{counter}}},"gauges":{{}},"histograms":{{}},"dropped_spans":0}}"#
        ))
        .expect("valid report")
    }

    #[test]
    fn identical_reports_pass() {
        let d = diff_reports(&report(3, 100), &report(3, 100), &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        assert!(d.findings.is_empty());
    }

    #[test]
    fn counter_drift_is_breaking() {
        let d = diff_reports(&report(3, 100), &report(4, 100), &DiffConfig::default());
        assert!(!d.passed());
        assert_eq!(d.findings[0].kind, "counter");
        assert!(d.render().contains("counters.a.b"));
    }

    #[test]
    fn timing_regression_is_advisory_unless_strict() {
        let base = report(3, 10_000);
        let slow = report(3, 20_000);
        let lax = diff_reports(&base, &slow, &DiffConfig::default());
        assert!(lax.passed());
        assert_eq!(lax.advisory(), 1);
        let strict = diff_reports(
            &base,
            &slow,
            &DiffConfig {
                strict_timing: true,
                ..DiffConfig::default()
            },
        );
        assert!(!strict.passed());
    }

    #[test]
    fn sub_floor_spans_never_flag_timing() {
        let d = diff_reports(&report(3, 100), &report(3, 900), &DiffConfig::default());
        assert!(d.findings.is_empty(), "{}", d.render());
    }

    #[test]
    fn verdict_json_is_machine_readable() {
        let d = diff_reports(&report(3, 100), &report(4, 100), &DiffConfig::default());
        let doc = d.to_json("base.json", "cur.json");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(DIFF_SCHEMA));
        assert_eq!(doc.get("verdict").and_then(Json::as_str), Some("fail"));
        assert_eq!(doc.get("breaking").and_then(Json::as_u64), Some(1));
    }

    /// A v2 report: same shape as [`report`] plus `timeseries`/`slo`.
    fn report_v2(counter: u64, series_values: &str, slo_failed: bool) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"fexiot-obs/v2","run":"t","spans":[{{"name":"root","elapsed_us":100,"children":[]}}],"counters":{{"a.b":{counter}}},"gauges":{{}},"histograms":{{}},"dropped_spans":0,"timeseries":{{"capacity":4096,"series":{{"fed.round.participants":{{"kind":"sample","rounds":[0,1],"values":{series_values},"dropped":0}}}}}},"slo":{{"failed":{slo_failed},"verdicts":[{{"name":"r","rule":"r: mean(m) over all rounds <= 1","metric":"m","status":"{}","value":0.5,"rounds_evaluated":2,"rounds_failed":{},"first_failed_round":null}}]}}}}"#,
            if slo_failed { "fail" } else { "pass" },
            if slo_failed { 1 } else { 0 },
        ))
        .expect("valid v2 report")
    }

    #[test]
    fn v1_baseline_diffs_cleanly_against_v2_report() {
        // The v1→v2 compatibility contract: both versions validate, and a v1
        // baseline vs a v2 report (new sections appeared) yields advisory
        // findings only — no spurious breakage from the schema bump.
        let v1 = report(3, 100);
        let v2 = report_v2(3, "[2,2]", false);
        crate::report::validate_report(&v1).expect("v1 still validates");
        crate::report::validate_report(&v2).expect("v2 validates");
        let d = diff_reports(&v1, &v2, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.advisory(), 2, "{}", d.render()); // timeseries + slo appeared
        // And symmetrically when the baseline is the v2 report.
        let d = diff_reports(&v2, &v1, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
    }

    /// A v3 report: same shape as [`report_v2`] plus a `root_cause` section.
    fn report_v3(counter: u64, top_cause: &str) -> Json {
        let mut doc = report_v2(counter, "[2,2]", true);
        if let Json::Obj(members) = &mut doc {
            members[0].1 = Json::Str("fexiot-obs/v3".into());
            members.push((
                "root_cause".into(),
                Json::parse(&format!(
                    r#"{{"rules":[{{"rule":"r","window":[0,1],"causes":[{{"cause":"{top_cause}","events":3,"ticks":9,"share":1}}]}}]}}"#
                ))
                .expect("valid section"),
            ));
        }
        doc
    }

    #[test]
    fn v2_baseline_diffs_cleanly_against_v3_report() {
        // The v2→v3 compatibility contract, matching the v1→v2 precedent: a
        // v2 baseline vs a v3 report (root_cause section appeared) yields an
        // advisory finding only, in both directions.
        let v2 = report_v2(3, "[2,2]", true);
        let v3 = report_v3(3, "straggler");
        crate::report::validate_report(&v2).expect("v2 still validates");
        crate::report::validate_report(&v3).expect("v3 validates");
        let d = diff_reports(&v2, &v3, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.advisory(), 1, "{}", d.render()); // root_cause appeared
        assert_eq!(d.findings[0].kind, "section");
        let d = diff_reports(&v3, &v2, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        // Both sides carrying the section still compare exactly: a different
        // top cause is deterministic drift, hence breaking.
        let d = diff_reports(&report_v3(3, "straggler"), &report_v3(3, "agg_crash"), &DiffConfig::default());
        assert!(!d.passed(), "{}", d.render());
        assert_eq!(d.findings[0].kind, "section");
        assert_eq!(d.findings[0].path, "root_cause");
    }

    /// A v4 report: same shape as [`report_v2`] plus a `stream` section.
    fn report_v4(counter: u64, digest: &str, shed: u64) -> Json {
        let mut doc = report_v2(counter, "[2,2]", false);
        if let Json::Obj(members) = &mut doc {
            members[0].1 = Json::Str("fexiot-obs/v4".into());
            members.push((
                "stream".into(),
                Json::parse(&format!(
                    r#"{{"events":10,"detected":10,"vulnerable":2,"drifting":0,"shed":{shed},"stall_ticks":0,"rounds":1,"ticks":5,"detections_digest":"fnv1a:{digest}","actors":[{{"name":"maintain","capacity":32,"policy":"block","enqueued":10,"dequeued":10,"shed":0,"stall_ticks":0,"max_depth":3}}]}}"#
                ))
                .expect("valid section"),
            ));
        }
        doc
    }

    #[test]
    fn v2_baseline_diffs_cleanly_against_v4_stream_report() {
        // The pre-v4 compatibility contract: a baseline without the `stream`
        // section vs a streaming report yields an advisory finding only.
        let v2 = report_v2(3, "[2,2]", false);
        let v4 = report_v4(3, "00000000deadbeef", 0);
        crate::report::validate_report(&v4).expect("v4 validates");
        let d = diff_reports(&v2, &v4, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.advisory(), 1, "{}", d.render()); // stream appeared
        assert_eq!(d.findings[0].kind, "stream");
        let d = diff_reports(&v4, &v2, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        // Both sides carrying the section compare exactly — detection-output
        // drift names the digest, other drift names the actor stats.
        let d = diff_reports(
            &report_v4(3, "00000000deadbeef", 0),
            &report_v4(3, "00000000cafef00d", 0),
            &DiffConfig::default(),
        );
        assert!(!d.passed(), "{}", d.render());
        assert_eq!(d.findings[0].kind, "stream");
        assert!(d.findings[0].message.contains("digest"), "{}", d.render());
        let d = diff_reports(
            &report_v4(3, "00000000deadbeef", 0),
            &report_v4(3, "00000000deadbeef", 4),
            &DiffConfig::default(),
        );
        assert!(!d.passed(), "{}", d.render());
        assert!(
            d.findings[0].message.contains("actor stats"),
            "{}",
            d.render()
        );
    }

    #[test]
    fn timeseries_and_slo_drift_between_v2_reports_is_breaking() {
        let base = report_v2(3, "[2,2]", false);
        let d = diff_reports(&base, &report_v2(3, "[2,2]", false), &DiffConfig::default());
        assert!(d.passed() && d.findings.is_empty(), "{}", d.render());
        // Same cumulative counters, different per-round trajectory: caught.
        let d = diff_reports(&base, &report_v2(3, "[1,3]", false), &DiffConfig::default());
        assert!(!d.passed());
        assert_eq!(d.findings[0].kind, "timeseries");
        // SLO verdict flip: caught.
        let d = diff_reports(&base, &report_v2(3, "[2,2]", true), &DiffConfig::default());
        assert!(!d.passed());
        assert!(d.findings.iter().any(|f| f.kind == "slo"), "{}", d.render());
    }

    fn report_with_gauges(gauges: &str) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"fexiot-obs/v1","run":"t","spans":[],"counters":{{}},"gauges":{gauges},"histograms":{{}},"dropped_spans":0}}"#
        ))
        .expect("valid report")
    }

    #[test]
    fn rate_gauge_appearance_and_drift_are_advisory() {
        let base = report_with_gauges("{}");
        let cur = report_with_gauges(r#"{"pipeline.featurize.sentences_per_sec":120.5}"#);
        let d = diff_reports(&base, &cur, &DiffConfig::default());
        assert!(d.passed(), "{}", d.render());
        assert_eq!(d.advisory(), 1);

        // A >tolerance rate drop is flagged — but still advisory by default.
        let fast = report_with_gauges(r#"{"x_per_sec":1000.0}"#);
        let slow = report_with_gauges(r#"{"x_per_sec":100.0}"#);
        let d = diff_reports(&fast, &slow, &DiffConfig::default());
        assert!(d.passed());
        assert_eq!(d.findings[0].kind, "timing");
        // A rate *increase* is never a finding.
        let d = diff_reports(&slow, &fast, &DiffConfig::default());
        assert!(d.findings.is_empty(), "{}", d.render());
    }

    #[test]
    fn deterministic_gauge_drift_stays_breaking() {
        let a = report_with_gauges(r#"{"fed.sim.mean_loss":0.5}"#);
        let b = report_with_gauges(r#"{"fed.sim.mean_loss":0.75}"#);
        let d = diff_reports(&a, &b, &DiffConfig::default());
        assert!(!d.passed());
        assert_eq!(d.findings[0].kind, "gauge");
    }
}
