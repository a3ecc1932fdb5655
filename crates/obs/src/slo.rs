//! Declarative SLO rules evaluated deterministically against the per-round
//! time-series store.
//!
//! A rule binds a series to an aggregate over a trailing round window and a
//! comparison, e.g. *mean of `fed.round.quorum_aborted` over the last 20
//! rounds must be ≤ 0.05*. Rules are parsed from a committed TOML-subset or
//! JSON file, evaluated once per round, and their verdicts flow into
//! `RoundTelemetry`, the run report's `slo` section, and a nonzero CLI exit
//! code — the CI gate for fleet health.
//!
//! Evaluation reads only the (deterministic) time-series store, so same-seed
//! runs produce byte-identical verdicts at any thread count.

use crate::timeseries::TimeSeriesStore;
use crate::Json;

/// How the window of samples collapses to one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SloAgg {
    #[default]
    Mean,
    Min,
    Max,
    Sum,
    /// Newest sample in the window.
    Last,
}

impl SloAgg {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "mean" => Ok(SloAgg::Mean),
            "min" => Ok(SloAgg::Min),
            "max" => Ok(SloAgg::Max),
            "sum" => Ok(SloAgg::Sum),
            "last" => Ok(SloAgg::Last),
            other => Err(format!(
                "unknown aggregate {other:?} (mean|min|max|sum|last)"
            )),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            SloAgg::Mean => "mean",
            SloAgg::Min => "min",
            SloAgg::Max => "max",
            SloAgg::Sum => "sum",
            SloAgg::Last => "last",
        }
    }

    fn apply(&self, values: impl Iterator<Item = f64>) -> Option<f64> {
        let vals: Vec<f64> = values.collect();
        if vals.is_empty() {
            return None;
        }
        Some(match self {
            SloAgg::Mean => vals.iter().sum::<f64>() / vals.len() as f64,
            SloAgg::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
            SloAgg::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            SloAgg::Sum => vals.iter().sum(),
            SloAgg::Last => *vals.last().expect("non-empty"),
        })
    }
}

/// The comparison between the aggregated value and the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloOp {
    Le,
    Ge,
    Lt,
    Gt,
    Eq,
}

impl SloOp {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "<=" => Ok(SloOp::Le),
            ">=" => Ok(SloOp::Ge),
            "<" => Ok(SloOp::Lt),
            ">" => Ok(SloOp::Gt),
            "==" => Ok(SloOp::Eq),
            other => Err(format!("unknown comparison {other:?} (<=|>=|<|>|==)")),
        }
    }

    fn symbol(&self) -> &'static str {
        match self {
            SloOp::Le => "<=",
            SloOp::Ge => ">=",
            SloOp::Lt => "<",
            SloOp::Gt => ">",
            SloOp::Eq => "==",
        }
    }

    fn holds(&self, value: f64, threshold: f64) -> bool {
        match self {
            SloOp::Le => value <= threshold,
            SloOp::Ge => value >= threshold,
            SloOp::Lt => value < threshold,
            SloOp::Gt => value > threshold,
            SloOp::Eq => value == threshold,
        }
    }
}

/// One declarative rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Stable identifier surfaced in verdicts (defaults to the metric name).
    pub name: String,
    /// Series name in the time-series store (e.g. `fed.round.quorum_aborted`
    /// or `fed.round.loss.p90`).
    pub metric: String,
    pub agg: SloAgg,
    /// Trailing window in rounds (`0` = all retained samples).
    pub window: usize,
    pub op: SloOp,
    pub threshold: f64,
    /// Verdict stays `NoData` until the window holds at least this many
    /// samples — young runs never fail a long-window rule.
    pub min_samples: usize,
}

impl SloRule {
    /// Human-readable form, e.g.
    /// `quorum-health: mean(fed.round.quorum_aborted) over last 20 <= 0.05`.
    pub fn describe(&self) -> String {
        let window = if self.window == 0 {
            "all rounds".to_string()
        } else {
            format!("last {}", self.window)
        };
        format!(
            "{}: {}({}) over {} {} {}",
            self.name,
            self.agg.name(),
            self.metric,
            window,
            self.op.symbol(),
            self.threshold
        )
    }
}

/// Outcome of one rule at one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloStatus {
    Pass,
    Fail,
    /// The series is missing or below `min_samples` — not a failure.
    NoData,
}

impl SloStatus {
    pub fn name(&self) -> &'static str {
        match self {
            SloStatus::Pass => "pass",
            SloStatus::Fail => "fail",
            SloStatus::NoData => "no_data",
        }
    }
}

/// The latest evaluation of one rule, plus its per-run failure accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    pub rule: SloRule,
    pub status: SloStatus,
    /// Aggregated value at the latest evaluation (`None` on `NoData`).
    pub value: Option<f64>,
    /// Round of the latest evaluation (`None` before any).
    pub round: Option<u64>,
    pub rounds_evaluated: u64,
    pub rounds_failed: u64,
    /// First round at which the rule failed, if it ever did.
    pub first_failed_round: Option<u64>,
}

impl SloVerdict {
    fn new(rule: SloRule) -> Self {
        Self {
            rule,
            status: SloStatus::NoData,
            value: None,
            round: None,
            rounds_evaluated: 0,
            rounds_failed: 0,
            first_failed_round: None,
        }
    }

    /// One summary line, e.g.
    /// `SLO FAIL quorum-health: mean(fed.round.quorum_aborted) over last 20 <= 0.05 (value 0.4, failed 3/10 rounds)`.
    pub fn render(&self) -> String {
        let mut line = format!(
            "SLO {} {}",
            self.status.name().to_uppercase(),
            self.rule.describe()
        );
        if let Some(v) = self.value {
            line.push_str(&format!(" (value {v}"));
            if self.rounds_failed > 0 {
                line.push_str(&format!(
                    ", failed {}/{} rounds",
                    self.rounds_failed, self.rounds_evaluated
                ));
            }
            line.push(')');
        }
        line
    }
}

/// Parses rules and evaluates them each round against the series store.
#[derive(Debug, Clone, Default)]
pub struct SloEngine {
    verdicts: Vec<SloVerdict>,
}

impl SloEngine {
    pub fn new(rules: Vec<SloRule>) -> Self {
        Self {
            verdicts: rules.into_iter().map(SloVerdict::new).collect(),
        }
    }

    /// Parses a rules file. JSON documents (first non-space byte `{` or `[`)
    /// hold an array of rule objects (optionally under a `rule` key); anything
    /// else is read as the TOML subset: `[[rule]]` tables of `key = value`
    /// pairs with `#` comments. Keys: `metric` (required), `name`, `agg`,
    /// `window`, `op`, `threshold` (required), `min_samples`.
    pub fn parse(text: &str) -> Result<Self, String> {
        // `[[rule]]` (TOML array-of-tables) also starts with `[`; only a
        // single bracket or a brace marks the JSON form.
        let trimmed = text.trim_start();
        let json =
            trimmed.starts_with('{') || (trimmed.starts_with('[') && !trimmed.starts_with("[["));
        let rules = if json {
            parse_json_rules(text)?
        } else {
            parse_toml_rules(text)?
        };
        if rules.is_empty() {
            return Err("no [[rule]] entries in SLO file".into());
        }
        Ok(Self::new(rules))
    }

    pub fn rules(&self) -> impl Iterator<Item = &SloRule> {
        self.verdicts.iter().map(|v| &v.rule)
    }

    pub fn verdicts(&self) -> &[SloVerdict] {
        &self.verdicts
    }

    /// Evaluates every rule against the store's current series at `round`;
    /// returns how many rules are failing *now*.
    pub fn evaluate(&mut self, round: u64, store: &TimeSeriesStore) -> usize {
        let mut failing = 0;
        for v in &mut self.verdicts {
            let rule = &v.rule;
            let agg = store.series(&rule.metric).and_then(|s| {
                let n = s.tail(rule.window).count();
                (n >= rule.min_samples.max(1)).then(|| rule.agg.apply(s.tail(rule.window)))?
            });
            v.round = Some(round);
            match agg {
                None => {
                    v.status = SloStatus::NoData;
                    v.value = None;
                }
                Some(value) => {
                    v.rounds_evaluated += 1;
                    v.value = Some(value);
                    if rule.op.holds(value, rule.threshold) {
                        v.status = SloStatus::Pass;
                    } else {
                        v.status = SloStatus::Fail;
                        v.rounds_failed += 1;
                        if v.first_failed_round.is_none() {
                            v.first_failed_round = Some(round);
                        }
                        failing += 1;
                    }
                }
            }
        }
        failing
    }

    /// True when any rule failed at any evaluated round.
    pub fn any_failed(&self) -> bool {
        self.verdicts.iter().any(|v| v.rounds_failed > 0)
    }

    /// The report's `slo` section.
    pub fn to_json(&self) -> Json {
        let verdicts = self
            .verdicts
            .iter()
            .map(|v| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(v.rule.name.clone())),
                    ("rule".into(), Json::Str(v.rule.describe())),
                    ("metric".into(), Json::Str(v.rule.metric.clone())),
                    ("status".into(), Json::Str(v.status.name().to_string())),
                    ("value".into(), v.value.map(Json::Num).unwrap_or(Json::Null)),
                    ("rounds_evaluated".into(), Json::UInt(v.rounds_evaluated)),
                    ("rounds_failed".into(), Json::UInt(v.rounds_failed)),
                    (
                        "first_failed_round".into(),
                        v.first_failed_round.map(Json::UInt).unwrap_or(Json::Null),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("failed".into(), Json::Bool(self.any_failed())),
            ("verdicts".into(), Json::Arr(verdicts)),
        ])
    }
}

/// Validates a report's `slo` section.
pub fn validate_slo(doc: &Json) -> Result<(), String> {
    if !matches!(doc, Json::Obj(_)) {
        return Err("slo: not an object".into());
    }
    if !matches!(doc.get("failed"), Some(Json::Bool(_))) {
        return Err("slo: missing boolean `failed`".into());
    }
    let verdicts = match doc.get("verdicts") {
        Some(Json::Arr(v)) => v,
        _ => return Err("slo: missing `verdicts` array".into()),
    };
    for v in verdicts {
        for key in ["name", "rule", "metric", "status"] {
            if v.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("slo verdict: missing string `{key}`"));
            }
        }
        match v.get("status").and_then(Json::as_str) {
            Some("pass") | Some("fail") | Some("no_data") => {}
            other => return Err(format!("slo verdict: bad status {other:?}")),
        }
        for key in ["rounds_evaluated", "rounds_failed"] {
            if v.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("slo verdict: missing integer `{key}`"));
            }
        }
    }
    Ok(())
}

fn rule_from_pairs(pairs: &[(String, TomlValue)], at: &str) -> Result<SloRule, String> {
    let mut metric = None;
    let mut name = None;
    let mut agg = SloAgg::default();
    let mut window = 0usize;
    let mut op = SloOp::Le;
    let mut threshold = None;
    let mut min_samples = 1usize;
    for (key, value) in pairs {
        match key.as_str() {
            "metric" => metric = Some(value.expect_str(key, at)?.to_string()),
            "name" => name = Some(value.expect_str(key, at)?.to_string()),
            "agg" => agg = SloAgg::parse(value.expect_str(key, at)?)?,
            "window" => window = value.expect_num(key, at)? as usize,
            "op" => op = SloOp::parse(value.expect_str(key, at)?)?,
            "threshold" => threshold = Some(value.expect_num(key, at)?),
            "min_samples" => min_samples = value.expect_num(key, at)? as usize,
            other => return Err(format!("{at}: unknown key {other:?}")),
        }
    }
    let metric = metric.ok_or_else(|| format!("{at}: missing `metric`"))?;
    let threshold = threshold.ok_or_else(|| format!("{at}: missing `threshold`"))?;
    if !threshold.is_finite() {
        return Err(format!("{at}: non-finite threshold"));
    }
    Ok(SloRule {
        name: name.unwrap_or_else(|| metric.clone()),
        metric,
        agg,
        window,
        op,
        threshold,
        min_samples: min_samples.max(1),
    })
}

/// A scalar in the TOML subset.
#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Str(String),
    Num(f64),
}

impl TomlValue {
    fn expect_str<'a>(&'a self, key: &str, at: &str) -> Result<&'a str, String> {
        match self {
            TomlValue::Str(s) => Ok(s),
            TomlValue::Num(_) => Err(format!("{at}: `{key}` must be a string")),
        }
    }

    fn expect_num(&self, key: &str, at: &str) -> Result<f64, String> {
        match self {
            TomlValue::Num(v) => Ok(*v),
            TomlValue::Str(_) => Err(format!("{at}: `{key}` must be a number")),
        }
    }
}

/// Parses the committed-config TOML subset: `[[rule]]` array-of-table
/// headers, one `key = value` per line (quoted strings or bare numbers),
/// `#` comments, blank lines. That is all a rules file needs; anything else
/// is a parse error, not silently ignored.
fn parse_toml_rules(text: &str) -> Result<Vec<SloRule>, String> {
    let mut rules = Vec::new();
    let mut current: Option<Vec<(String, TomlValue)>> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let at = format!("SLO rules line {}", lineno + 1);
        let line = match raw.find('#') {
            // A `#` inside a quoted value is part of the value, not a
            // comment; only strip when no quote precedes it.
            Some(i) if !raw[..i].contains('"') => &raw[..i],
            _ => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[rule]]" {
            if let Some(pairs) = current.take() {
                rules.push(rule_from_pairs(&pairs, &at)?);
            }
            current = Some(Vec::new());
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("{at}: unsupported table {line:?} (only [[rule]])"));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("{at}: expected `key = value`, got {line:?}"))?;
        let key = key.trim().to_string();
        let value = value.trim();
        let parsed = if let Some(stripped) = value.strip_prefix('"') {
            let inner = stripped
                .strip_suffix('"')
                .ok_or_else(|| format!("{at}: unterminated string"))?;
            TomlValue::Str(inner.to_string())
        } else {
            TomlValue::Num(
                value
                    .parse::<f64>()
                    .map_err(|_| format!("{at}: bad value {value:?} (quoted string or number)"))?,
            )
        };
        current
            .as_mut()
            .ok_or_else(|| format!("{at}: key outside [[rule]]"))?
            .push((key, parsed));
    }
    if let Some(pairs) = current.take() {
        rules.push(rule_from_pairs(&pairs, "SLO rules (last table)")?);
    }
    Ok(rules)
}

/// Parses the JSON form: `[{...}, ...]` or `{"rule": [{...}, ...]}`.
fn parse_json_rules(text: &str) -> Result<Vec<SloRule>, String> {
    let doc = Json::parse(text).map_err(|e| format!("SLO rules JSON: {e:?}"))?;
    let arr = match &doc {
        Json::Arr(a) => a.as_slice(),
        Json::Obj(_) => doc
            .get("rule")
            .and_then(Json::as_arr)
            .ok_or("SLO rules JSON object must hold a `rule` array")?,
        _ => return Err("SLO rules JSON must be an array of rule objects".into()),
    };
    let mut rules = Vec::new();
    for (i, obj) in arr.iter().enumerate() {
        let at = format!("SLO rules JSON rule {i}");
        let members = match obj {
            Json::Obj(m) => m,
            _ => return Err(format!("{at}: not an object")),
        };
        let mut pairs = Vec::new();
        for (k, v) in members {
            let value = match v {
                Json::Str(s) => TomlValue::Str(s.clone()),
                _ => TomlValue::Num(
                    v.as_f64()
                        .ok_or_else(|| format!("{at}: `{k}` must be string or number"))?,
                ),
            };
            pairs.push((k.clone(), value));
        }
        rules.push(rule_from_pairs(&pairs, &at)?);
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES_TOML: &str = r#"
# Fleet health gates.
[[rule]]
name = "quorum-health"
metric = "fed.round.quorum_aborted"
agg = "mean"
window = 20
op = "<="
threshold = 0.05

[[rule]]
metric = "fed.round.participants"
agg = "min"
op = ">="
threshold = 1
"#;

    #[test]
    fn toml_subset_parses_rules() {
        let engine = SloEngine::parse(RULES_TOML).expect("parses");
        let rules: Vec<&SloRule> = engine.rules().collect();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].name, "quorum-health");
        assert_eq!(rules[0].window, 20);
        assert_eq!(rules[0].op, SloOp::Le);
        assert_eq!(
            rules[0].describe(),
            "quorum-health: mean(fed.round.quorum_aborted) over last 20 <= 0.05"
        );
        // Name defaults to the metric; window defaults to all rounds.
        assert_eq!(rules[1].name, "fed.round.participants");
        assert_eq!(rules[1].window, 0);
        assert_eq!(rules[1].agg, SloAgg::Min);
    }

    #[test]
    fn json_form_parses_the_same_rules() {
        let json = r#"[
            {"name":"quorum-health","metric":"fed.round.quorum_aborted","agg":"mean","window":20,"op":"<=","threshold":0.05},
            {"metric":"fed.round.participants","agg":"min","op":">=","threshold":1}
        ]"#;
        let a = SloEngine::parse(RULES_TOML).unwrap();
        let b = SloEngine::parse(json).unwrap();
        assert_eq!(a.rules().collect::<Vec<_>>(), b.rules().collect::<Vec<_>>());
    }

    #[test]
    fn malformed_rules_are_rejected() {
        for (text, why) in [
            ("", "empty"),
            ("[[rule]]\nthreshold = 1", "missing metric"),
            ("[[rule]]\nmetric = \"m\"", "missing threshold"),
            (
                "[[rule]]\nmetric = \"m\"\nthreshold = 1\nop = \"!=\"",
                "bad op",
            ),
            (
                "[[rule]]\nmetric = \"m\"\nthreshold = 1\nagg = \"p99\"",
                "bad agg",
            ),
            ("metric = \"m\"", "key outside table"),
            ("[rule]\nmetric = \"m\"", "non-array table"),
            (
                "[[rule]]\nmetric = \"m\"\nbogus = 1\nthreshold = 1",
                "unknown key",
            ),
        ] {
            assert!(SloEngine::parse(text).is_err(), "accepted: {why}");
        }
    }

    #[test]
    fn evaluation_windows_and_min_samples() {
        let mut store = TimeSeriesStore::new(64);
        let mut engine = SloEngine::parse(
            "[[rule]]\nmetric = \"fed.round.aborts\"\nagg = \"mean\"\nwindow = 2\nop = \"<=\"\nthreshold = 0.5\nmin_samples = 2",
        )
        .unwrap();
        // Round 0: one sample < min_samples → NoData, not a failure.
        store.push_sample(0, "fed.round.aborts", 1.0);
        assert_eq!(engine.evaluate(0, &store), 0);
        assert_eq!(engine.verdicts()[0].status, SloStatus::NoData);
        // Round 1: window [1, 1] mean 1.0 > 0.5 → Fail.
        store.push_sample(1, "fed.round.aborts", 1.0);
        assert_eq!(engine.evaluate(1, &store), 1);
        assert_eq!(engine.verdicts()[0].status, SloStatus::Fail);
        assert_eq!(engine.verdicts()[0].first_failed_round, Some(1));
        // Rounds 2-3: healthy samples roll the window → Pass again, but the
        // run-level gate remembers the failure.
        store.push_sample(2, "fed.round.aborts", 0.0);
        store.push_sample(3, "fed.round.aborts", 0.0);
        assert_eq!(engine.evaluate(3, &store), 0);
        assert_eq!(engine.verdicts()[0].status, SloStatus::Pass);
        assert!(engine.any_failed());
        assert_eq!(engine.verdicts()[0].rounds_failed, 1);
        assert_eq!(engine.verdicts()[0].rounds_evaluated, 2);
    }

    #[test]
    fn slo_section_validates_and_renders() {
        let mut store = TimeSeriesStore::new(8);
        let mut engine =
            SloEngine::parse("[[rule]]\nmetric = \"fed.x\"\nop = \"<=\"\nthreshold = 0.0").unwrap();
        store.push_sample(0, "fed.x", 1.0);
        engine.evaluate(0, &store);
        let doc = engine.to_json();
        validate_slo(&doc).expect("section validates");
        validate_slo(&Json::parse(&doc.to_string()).unwrap()).expect("reparse validates");
        assert!(doc.get("failed") == Some(&Json::Bool(true)));
        let line = engine.verdicts()[0].render();
        assert!(line.starts_with("SLO FAIL fed.x:"), "{line}");
        assert!(validate_slo(&Json::Null).is_err());
    }
}
