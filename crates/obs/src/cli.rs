//! Shared `--obs-*` command-line handling for every binary that exports the
//! global registry (`fexiot-cli` subcommands and the quickstart example).
//! One place defines the known flags, the unknown-flag rejection, and
//! the begin/finish lifecycle, so adding a flag (like `--obs-flame`) lands
//! everywhere at once.
//!
//! The non-obs flag namespace stays permissive — callers keep their own
//! parsers — but anything spelled `--obs-*` is validated here: a typo like
//! `--obs-steam` silently dropping an event stream would defeat the point of
//! asking for one.

use crate::timeseries::{FleetTelemetry, SampleSpec, TimeSeriesStore, DEFAULT_SERIES_CAPACITY};
use crate::trace::CriticalPathEntry;
use std::path::{Path, PathBuf};

/// The observability flags every instrumented binary accepts (without the
/// `--` prefix). Anything else spelled `--obs-*` is rejected with this list.
pub const OBS_FLAGS: &[&str] = &[
    "obs-summary",
    "obs-out",
    "obs-stream",
    "obs-stream-timing",
    "obs-flame",
    "obs-slo",
    "obs-timeseries",
    "obs-trace",
    "obs-trace-timing",
];

/// Parsed observability options plus the begin/finish export lifecycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsCli {
    /// `--obs-summary`: print the span tree and metric digests after the run.
    pub summary: bool,
    /// `--obs-out DIR`: write a `fexiot-obs/v4` report to `DIR/<run>.json`.
    pub out: Option<PathBuf>,
    /// `--obs-stream FILE`: stream `fexiot-obs-events/v1` JSONL live to FILE.
    pub stream: Option<PathBuf>,
    /// `--obs-stream-timing include|exclude` (default include): `exclude`
    /// drops wall-clock fields so same-seed streams are byte-identical.
    pub include_stream_timing: bool,
    /// `--obs-flame FILE`: write collapsed stacks (flamegraph input, value =
    /// exclusive µs per span path) to FILE after the run.
    pub flame: Option<PathBuf>,
    /// `--obs-slo FILE`: evaluate the SLO rules in FILE (TOML or JSON) each
    /// round; verdicts print after the run, land in the report's `slo`
    /// section, and a failing rule makes the run exit nonzero. Implies
    /// per-round time-series collection.
    pub slo: Option<PathBuf>,
    /// `--obs-timeseries [CAP]`: collect the per-round time-series (report
    /// section `timeseries`); optional CAP overrides the per-series ring
    /// capacity (default [`DEFAULT_SERIES_CAPACITY`]).
    pub timeseries: Option<usize>,
    /// `--obs-trace FILE`: write the causal trace graph
    /// (`fexiot-obs-causal/v1`) to FILE after the run. Federated runs feed it
    /// fault events; other runs write a run-span-only graph. Enables the
    /// `root_cause` report section when SLO rules are attached.
    pub trace: Option<PathBuf>,
    /// `--obs-trace-timing include|exclude` (default include): `exclude`
    /// drops the `wall_us` fields so same-seed graphs are byte-identical
    /// across thread widths (mirrors `--obs-stream-timing`).
    pub include_trace_timing: bool,
}

impl ObsCli {
    /// Builds from pre-parsed `(flag, value)` pairs (flag names without the
    /// `--` prefix; boolean flags carry an empty value). Non-obs pairs are
    /// ignored; malformed obs flags are an `Err` with the known-flag list.
    pub fn from_pairs(values: &[(String, String)]) -> Result<ObsCli, String> {
        for (key, _) in values {
            if key.starts_with("obs-") && !OBS_FLAGS.contains(&key.as_str()) {
                return Err(format!(
                    "unknown observability flag --{key}; known flags: {}",
                    OBS_FLAGS
                        .iter()
                        .map(|f| format!("--{f}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        let get = |name: &str| {
            values
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        let path_flag = |name: &str| -> Result<Option<PathBuf>, String> {
            match get(name) {
                None => Ok(None),
                Some("") => Err(format!("--{name} requires a value")),
                Some(v) => Ok(Some(PathBuf::from(v))),
            }
        };
        let include_stream_timing = match get("obs-stream-timing") {
            None | Some("include") => true,
            Some("exclude") => false,
            Some(other) => {
                return Err(format!(
                    "--obs-stream-timing must be 'include' or 'exclude', got {other:?}"
                ))
            }
        };
        let include_trace_timing = match get("obs-trace-timing") {
            None | Some("include") => true,
            Some("exclude") => false,
            Some(other) => {
                return Err(format!(
                    "--obs-trace-timing must be 'include' or 'exclude', got {other:?}"
                ))
            }
        };
        let timeseries = match get("obs-timeseries") {
            None => None,
            Some("") => Some(DEFAULT_SERIES_CAPACITY),
            Some(v) => match v.parse::<usize>() {
                Ok(cap) if cap > 0 => Some(cap),
                _ => {
                    return Err(format!(
                        "--obs-timeseries takes an optional positive capacity, got {v:?}"
                    ))
                }
            },
        };
        Ok(ObsCli {
            summary: get("obs-summary").is_some(),
            out: path_flag("obs-out")?,
            stream: path_flag("obs-stream")?,
            include_stream_timing,
            flame: path_flag("obs-flame")?,
            slo: path_flag("obs-slo")?,
            timeseries,
            trace: path_flag("obs-trace")?,
            include_trace_timing,
        })
    }

    /// Builds straight from raw argv tokens (for binaries without a flag
    /// parser, like the quickstart example). Only `--obs-*` tokens are
    /// interpreted; a token's value is the following token unless that also
    /// starts with `--`.
    pub fn from_argv(argv: &[String]) -> Result<ObsCli, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let Some(name) = argv[i].strip_prefix("--") else {
                i += 1;
                continue;
            };
            if !name.starts_with("obs-") {
                i += 1;
                continue;
            }
            match argv.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(value) => {
                    pairs.push((name.to_string(), value.clone()));
                    i += 2;
                }
                None => {
                    pairs.push((name.to_string(), String::new()));
                    i += 1;
                }
            }
        }
        Self::from_pairs(&pairs)
    }

    /// True when any export was requested (and the global registry should be
    /// enabled for the run).
    pub fn enabled(&self) -> bool {
        self.summary
            || self.out.is_some()
            || self.stream.is_some()
            || self.flame.is_some()
            || self.trace.is_some()
            || self.telemetry_enabled()
    }

    /// True when per-round telemetry collection was requested (`--obs-slo`
    /// implies it: rules need series to evaluate against).
    pub fn telemetry_enabled(&self) -> bool {
        self.slo.is_some() || self.timeseries.is_some()
    }

    /// Builds the fleet-telemetry bundle the run should carry: `None` when
    /// neither telemetry flag was given, otherwise a time-series store at the
    /// requested capacity — pre-loaded with the default snapshot-driven specs
    /// (loss quantiles) — plus the SLO engine parsed from `--obs-slo`'s file.
    pub fn fleet_telemetry(&self) -> Result<Option<FleetTelemetry>, String> {
        if !self.telemetry_enabled() {
            return Ok(None);
        }
        let mut store = TimeSeriesStore::new(self.timeseries.unwrap_or(DEFAULT_SERIES_CAPACITY));
        for q in [0.5, 0.9] {
            store
                .add_spec(SampleSpec::HistQuantile {
                    name: "fed.round.loss".into(),
                    q,
                })
                .expect("default specs are deterministic");
        }
        let slo = match &self.slo {
            None => None,
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read SLO rules {}: {e}", path.display()))?;
                Some(
                    crate::slo::SloEngine::parse(&text)
                        .map_err(|e| format!("{}: {e}", path.display()))?,
                )
            }
        };
        Ok(Some(FleetTelemetry::new(store, slo)))
    }

    /// Enables the global registry and opens the event stream, as requested.
    /// Call once before the instrumented work.
    pub fn begin(&self, run: &str) -> Result<(), String> {
        if !self.enabled() {
            return Ok(());
        }
        crate::set_global_enabled(true);
        if let Some(path) = &self.stream {
            crate::stream_global_to_file(path, run, self.include_stream_timing)
                .map_err(|e| format!("cannot open obs stream {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// Closes the stream and writes the requested exports: the summary and
    /// one line per SLO verdict to stdout, the causal trace, the report, and
    /// the collapsed stacks. Call once after the instrumented work. A run
    /// hands back what it built: the per-round critical path (federated
    /// runs), the fleet telemetry, the causal graph (when `--obs-trace` was
    /// given; runs that build none get a run-span-only placeholder), and
    /// the rendered streaming-service summary. The report carries each as a
    /// section, plus `root_cause` when a graph and SLO rules are both
    /// attached. Callers gate their exit code on
    /// [`FleetTelemetry::slo_failed`], not on this function's `Result`: a
    /// failed SLO is a run verdict, not an export error.
    pub fn finish(
        &self,
        run: &str,
        critical_path: Option<&[CriticalPathEntry]>,
        telemetry: Option<&FleetTelemetry>,
        trace: Option<&crate::causal::CausalGraph>,
        stream_section: Option<crate::json::Json>,
    ) -> Result<(), String> {
        if !self.enabled() {
            return Ok(());
        }
        if self.stream.is_some() {
            crate::close_global_stream();
        }
        let snap = crate::global().snapshot();
        if self.summary {
            println!("{}", crate::render_summary(&snap, critical_path));
        }
        if let Some(engine) = telemetry.and_then(|t| t.slo.as_ref()) {
            for verdict in engine.verdicts() {
                println!("{}", verdict.render());
            }
        }
        let placeholder;
        let graph = match (self.trace.as_ref(), trace) {
            (None, _) => None,
            (Some(_), Some(g)) => Some(g),
            (Some(_), None) => {
                placeholder = crate::causal::CausalBuilder::new(run, 0, 0).finish();
                Some(&placeholder)
            }
        };
        if let (Some(file), Some(graph)) = (&self.trace, graph) {
            let timing = if self.include_trace_timing {
                crate::report::Timing::Include
            } else {
                crate::report::Timing::Exclude
            };
            std::fs::write(file, format!("{}\n", graph.to_json(timing)))
                .map_err(|e| format!("cannot write causal trace to {}: {e}", file.display()))?;
            println!("causal trace written to {}", file.display());
        }
        if let Some(dir) = &self.out {
            let slo = telemetry.and_then(|t| t.slo.as_ref());
            let extras = crate::report::ReportExtras {
                critical_path: critical_path.map(crate::trace::critical_path_to_json),
                root_cause: graph.zip(slo).map(|(graph, engine)| {
                    crate::causal::root_cause_to_json(&crate::causal::root_cause(graph, engine))
                }),
                stream: stream_section,
                ..telemetry
                    .map(crate::report::ReportExtras::from_telemetry)
                    .unwrap_or_default()
            };
            let path = crate::report::write_report(dir, run, &snap, &extras)
                .map_err(|e| format!("cannot write obs report under {}: {e}", dir.display()))?;
            println!("obs report written to {}", path.display());
        }
        if let Some(file) = &self.flame {
            let path = crate::profile::write_flame(Path::new(file), &snap)
                .map_err(|e| format!("cannot write collapsed stacks to {}: {e}", file.display()))?;
            println!("collapsed stacks written to {}", path.display());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn known_flags_parse_into_fields() {
        let cli = ObsCli::from_pairs(&pairs(&[
            ("obs-summary", ""),
            ("obs-out", "results/obs"),
            ("obs-stream", "events.jsonl"),
            ("obs-stream-timing", "exclude"),
            ("obs-flame", "run.flame"),
            ("graphs", "100"),
        ]))
        .expect("all flags known");
        assert!(cli.summary);
        assert_eq!(cli.out.as_deref(), Some(Path::new("results/obs")));
        assert_eq!(cli.stream.as_deref(), Some(Path::new("events.jsonl")));
        assert!(!cli.include_stream_timing);
        assert_eq!(cli.flame.as_deref(), Some(Path::new("run.flame")));
        assert!(cli.enabled());
    }

    #[test]
    fn unknown_obs_flag_is_rejected_with_the_known_list() {
        let err = ObsCli::from_pairs(&pairs(&[("obs-steam", "x")])).unwrap_err();
        assert!(err.contains("--obs-steam"), "names the offender: {err}");
        for known in OBS_FLAGS {
            assert!(err.contains(known), "lists --{known}: {err}");
        }
    }

    #[test]
    fn bad_stream_timing_mode_and_missing_values_are_rejected() {
        let err = ObsCli::from_pairs(&pairs(&[("obs-stream-timing", "sometimes")])).unwrap_err();
        assert!(err.contains("sometimes"));
        let err = ObsCli::from_pairs(&pairs(&[("obs-flame", "")])).unwrap_err();
        assert!(err.contains("--obs-flame"));
        // Non-obs flags stay permissive; only the obs namespace is strict.
        let cli = ObsCli::from_pairs(&pairs(&[("definitely-not-a-flag", "x")])).unwrap();
        assert!(!cli.enabled());
    }

    #[test]
    fn telemetry_flags_parse_and_enable_collection() {
        let cli = ObsCli::from_pairs(&pairs(&[("obs-timeseries", "")])).unwrap();
        assert_eq!(cli.timeseries, Some(DEFAULT_SERIES_CAPACITY));
        assert!(cli.telemetry_enabled() && cli.enabled());
        let cli = ObsCli::from_pairs(&pairs(&[("obs-timeseries", "128")])).unwrap();
        assert_eq!(cli.timeseries, Some(128));
        let tel = cli.fleet_telemetry().unwrap().expect("telemetry on");
        assert_eq!(tel.store.capacity(), 128);
        assert!(tel.slo.is_none());
        assert!(ObsCli::from_pairs(&pairs(&[("obs-timeseries", "zero")])).is_err());
        assert!(ObsCli::from_pairs(&pairs(&[("obs-timeseries", "0")])).is_err());
        // --obs-slo needs a path; a missing file surfaces at build time.
        let cli = ObsCli::from_pairs(&pairs(&[("obs-slo", "/nonexistent/rules.toml")])).unwrap();
        assert!(cli.telemetry_enabled());
        assert!(cli.fleet_telemetry().unwrap_err().contains("rules.toml"));
        let cli = ObsCli::from_pairs(&pairs(&[])).unwrap();
        assert!(cli.fleet_telemetry().unwrap().is_none());
    }

    #[test]
    fn trace_flags_parse_and_enable_export() {
        let cli = ObsCli::from_pairs(&pairs(&[("obs-trace", "trace.json")])).unwrap();
        assert_eq!(cli.trace.as_deref(), Some(Path::new("trace.json")));
        assert!(cli.include_trace_timing, "defaults to include");
        assert!(cli.enabled());
        let cli = ObsCli::from_pairs(&pairs(&[
            ("obs-trace", "trace.json"),
            ("obs-trace-timing", "exclude"),
        ]))
        .unwrap();
        assert!(!cli.include_trace_timing);
        assert!(ObsCli::from_pairs(&pairs(&[("obs-trace", "")])).is_err());
        assert!(ObsCli::from_pairs(&pairs(&[("obs-trace-timing", "never")])).is_err());
    }

    #[test]
    fn argv_scan_only_interprets_obs_tokens() {
        let argv: Vec<String> = [
            "positional",
            "--graphs",
            "100",
            "--obs-flame",
            "q.flame",
            "--obs-summary",
            "--obs-out",
            "dir",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cli = ObsCli::from_argv(&argv).expect("parses");
        assert_eq!(cli.flame.as_deref(), Some(Path::new("q.flame")));
        assert!(cli.summary);
        assert_eq!(cli.out.as_deref(), Some(Path::new("dir")));
        assert!(cli.include_stream_timing, "defaults to include");
        // A boolean obs flag followed by another flag stays boolean.
        let argv: Vec<String> = ["--obs-summary", "--graphs"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(ObsCli::from_argv(&argv).expect("parses").summary);
    }
}
