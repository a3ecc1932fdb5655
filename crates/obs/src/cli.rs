//! The command-line boundary of every binary in the workspace: one
//! table-driven flag parser, and the shared `--obs-*` flags with their
//! begin/finish export lifecycle.
//!
//! A binary declares what it accepts as a [`Spec`]: tables of [`Flag`] rows
//! (name, kind with its range, and the value's name in the usage line) plus
//! its operands. [`parse`] reads the arguments against it and rejects an
//! unknown, repeated, stray, valueless or out-of-range argument with a
//! message naming it; [`Spec::usage`] renders the usage line from the same
//! tables. Values reach the program only through [`Args`], already checked.

use crate::timeseries::{FleetTelemetry, SampleSpec, TimeSeriesStore, DEFAULT_SERIES_CAPACITY};
use crate::trace::CriticalPathEntry;
use std::fmt::Debug;
use std::ops::{Bound, RangeBounds};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// What a flag takes, and which values it accepts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// No value: the flag is present or absent.
    Switch,
    /// Any non-empty word, such as a path.
    Text,
    /// One of these words.
    Choice(&'static [&'static str]),
    /// An integer no smaller than this minimum.
    Int(u64),
    /// A real within these bounds (NaN is in none).
    Real(Bound<f64>, Bound<f64>),
    /// A count of at least 1 that may be left out: the flag alone, or the
    /// flag and a count.
    OptCount,
}

/// One row of a flag table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flag {
    /// The name, without the `--` prefix.
    pub name: &'static str,
    pub kind: Kind,
    /// The value's name in the usage line, e.g. `DIR`.
    pub arg: &'static str,
}

impl Flag {
    pub const fn new(name: &'static str, kind: Kind, arg: &'static str) -> Flag {
        Flag { name, kind, arg }
    }

    /// Checks one value against the row's kind.
    fn check(&self, value: &str) -> Result<(), String> {
        let (ok, domain) = match self.kind {
            Kind::Switch | Kind::Text => (true, String::new()),
            Kind::Choice(words) => (
                words.contains(&value),
                format!("one of {}", words.join("|")),
            ),
            Kind::Int(min) => {
                let ok = value.parse::<u64>().is_ok_and(|n| n >= min);
                (ok, format!("an integer >= {min}"))
            }
            Kind::OptCount => return Flag::new(self.name, Kind::Int(1), "").check(value),
            Kind::Real(lo, hi) => {
                let ok = value.parse::<f64>().is_ok_and(|x| (lo, hi).contains(&x));
                let lo = match lo {
                    Bound::Included(x) => format!("[{x}"),
                    Bound::Excluded(x) => format!("({x}"),
                    Bound::Unbounded => "[-inf".into(),
                };
                let hi = match hi {
                    Bound::Included(x) => format!("{x}]"),
                    Bound::Excluded(x) => format!("{x})"),
                    Bound::Unbounded => "inf]".into(),
                };
                (ok, format!("a number in {lo}, {hi}"))
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!("--{} must be {domain}, got {value:?}", self.name))
        }
    }

    /// The row's item in the usage line.
    fn usage(&self) -> String {
        match self.kind {
            Kind::Switch => format!("[--{}]", self.name),
            Kind::Choice(words) => format!("[--{} {}]", self.name, words.join("|")),
            Kind::OptCount => format!("[--{} [{}]]", self.name, self.arg),
            _ => format!("[--{} {}]", self.name, self.arg),
        }
    }
}

/// One command line a binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The words that select it after the program name (`"store list"`);
    /// empty for a binary without commands.
    pub command: &'static str,
    /// Its flag tables. No two rows may share a name.
    pub flags: &'static [&'static [Flag]],
    /// The names of its operands, all required, in order.
    pub operands: &'static [&'static str],
}

impl Spec {
    /// A command line without operands.
    pub const fn new(command: &'static str, flags: &'static [&'static [Flag]]) -> Spec {
        Spec {
            command,
            flags,
            operands: &[],
        }
    }

    /// Every row of every table.
    pub fn rows(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|t| t.iter())
    }

    /// The usage line, generated from the tables and wrapped to leave room
    /// for a `usage: ` prefix within 80 columns.
    pub fn usage(&self, program: &str) -> String {
        let mut out = format!("{program} {}", self.command).trim_end().to_string();
        let mut width = out.len();
        let operands = self.operands.iter().map(|o| o.to_string());
        for item in self.rows().map(Flag::usage).chain(operands) {
            if width + 1 + item.len() > 72 {
                out.push_str("\n   ");
                width = 3;
            }
            out = out + " " + &item;
            width += 1 + item.len();
        }
        out
    }
}

/// The flags and operands of one parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    given: Vec<(&'static str, Option<String>)>,
    /// The operands, as many as the [`Spec`] names.
    pub operands: Vec<String>,
}

impl Args {
    /// True when the flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The flag's value, `None` when it is absent or was given without one.
    pub fn value(&self, name: &str) -> Option<&str> {
        let (_, value) = self.given.iter().find(|(n, _)| *n == name)?;
        value.as_deref()
    }

    /// A numeric flag's value; the parser has checked that it parses.
    pub fn num<T: FromStr<Err: Debug>>(&self, name: &str) -> Option<T> {
        let value = self.value(name)?;
        Some(value.parse().expect("the flag table checked it"))
    }
}

/// Reads `argv` (the arguments after the program name and command words)
/// against `spec`. An error names the offending argument.
pub fn parse(spec: &Spec, argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut tokens = argv.iter().peekable();
    let mut switch = None;
    while let Some(token) = tokens.next() {
        let after_switch = switch.take();
        let Some(name) = token.strip_prefix("--") else {
            if args.operands.len() < spec.operands.len() {
                args.operands.push(token.clone());
                continue;
            }
            return Err(match after_switch {
                Some(flag) => format!("--{flag} takes no value, got {token:?}"),
                None => format!("unexpected argument {token:?}"),
            });
        };
        let flag = spec.rows().find(|f| f.name == name);
        let flag = flag.ok_or_else(|| format!("unknown flag {token:?}"))?;
        if args.has(flag.name) {
            return Err(format!("{token} is given twice"));
        }
        let mut word = || tokens.next_if(|v| !v.starts_with("--")).cloned();
        let value = match flag.kind {
            Kind::Switch => {
                switch = Some(flag.name);
                None
            }
            Kind::OptCount => word(),
            _ => Some(
                word()
                    .filter(|v| !v.is_empty())
                    .ok_or_else(|| format!("{token} needs a value"))?,
            ),
        };
        if let Some(v) = &value {
            flag.check(v)?;
        }
        args.given.push((flag.name, value));
    }
    match spec.operands.get(args.operands.len()) {
        Some(missing) => Err(format!("missing {missing}")),
        None => Ok(args),
    }
}

/// The running program's name, from its path.
pub fn program() -> String {
    let argv0 = std::env::args().next().unwrap_or_default();
    let stem = Path::new(&argv0).file_stem().unwrap_or_default();
    stem.to_string_lossy().into_owned()
}

/// Parses this process's arguments against `spec`. A usage error prints
/// its message and the usage line and exits 2.
pub fn parse_env(spec: &Spec) -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    parse(spec, &argv).unwrap_or_else(|e| {
        let program = program();
        eprintln!("{program}: {e}\nusage: {}", spec.usage(&program));
        std::process::exit(2)
    })
}

/// `--threads N`: the parallel width for binaries that set one.
pub const THREADS: Flag = Flag::new("threads", Kind::Int(1), "N");

const TIMING: Kind = Kind::Choice(&["include", "exclude"]);

/// The observability flags every instrumented binary accepts.
pub const OBS_FLAGS: &[Flag] = &[
    Flag::new("obs-summary", Kind::Switch, ""),
    Flag::new("obs-out", Kind::Text, "DIR"),
    Flag::new("obs-stream", Kind::Text, "FILE"),
    Flag::new("obs-stream-timing", TIMING, ""),
    Flag::new("obs-flame", Kind::Text, "FILE"),
    Flag::new("obs-slo", Kind::Text, "FILE"),
    Flag::new("obs-timeseries", Kind::OptCount, "CAP"),
    Flag::new("obs-trace", Kind::Text, "FILE"),
    Flag::new("obs-trace-timing", TIMING, ""),
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
    /// Reads the [`OBS_FLAGS`] rows of a parsed command line.
    pub fn from_args(args: &Args) -> ObsCli {
        let path = |name| args.value(name).map(PathBuf::from);
        ObsCli {
            summary: args.has("obs-summary"),
            out: path("obs-out"),
            stream: path("obs-stream"),
            include_stream_timing: args.value("obs-stream-timing") != Some("exclude"),
            flame: path("obs-flame"),
            slo: path("obs-slo"),
            timeseries: args.has("obs-timeseries").then(|| {
                args.num("obs-timeseries")
                    .unwrap_or(DEFAULT_SERIES_CAPACITY)
            }),
            trace: path("obs-trace"),
            include_trace_timing: args.value("obs-trace-timing") != Some("exclude"),
        }
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
                placeholder = crate::causal::CausalBuilder::new(run, 0).finish();
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

    const QUICK: Spec = Spec::new("", &[&[THREADS], OBS_FLAGS]);

    fn parse_words(spec: &Spec, words: &str) -> Result<Args, String> {
        let argv: Vec<String> = words.split_whitespace().map(String::from).collect();
        parse(spec, &argv)
    }

    fn obs(words: &str) -> Result<ObsCli, String> {
        parse_words(&QUICK, words).map(|args| ObsCli::from_args(&args))
    }

    #[test]
    fn known_flags_parse_into_fields() {
        let args = parse_words(
            &QUICK,
            "--obs-summary --obs-out results/obs --obs-stream events.jsonl \
             --obs-stream-timing exclude --obs-flame run.flame --threads 2",
        )
        .expect("all flags known");
        assert_eq!(args.num::<usize>("threads"), Some(2));
        let cli = ObsCli::from_args(&args);
        assert!(cli.summary);
        assert_eq!(cli.out.as_deref(), Some(Path::new("results/obs")));
        assert_eq!(cli.stream.as_deref(), Some(Path::new("events.jsonl")));
        assert!(!cli.include_stream_timing);
        assert_eq!(cli.flame.as_deref(), Some(Path::new("run.flame")));
        assert!(cli.enabled());
        // A switch followed by another flag stays a switch.
        assert!(obs("--obs-summary --threads 1").unwrap().summary);
        assert_eq!(obs("").unwrap(), ObsCli::from_args(&Args::default()));
    }

    #[test]
    fn unknown_obs_flag_is_rejected_with_the_known_list() {
        let err = obs("--obs-steam x").unwrap_err();
        assert_eq!(err, "unknown flag \"--obs-steam\"");
        // The usage line printed with it lists every known flag.
        let usage = QUICK.usage("quickstart");
        for flag in OBS_FLAGS {
            let item = flag.usage();
            assert!(usage.contains(&item), "lists {item}: {usage}");
        }
    }

    #[test]
    fn bad_stream_timing_mode_and_missing_values_are_rejected() {
        for (words, named) in [
            ("--obs-stream-timing sometimes", "sometimes"),
            ("--obs-trace-timing never", "never"),
            ("--obs-flame", "--obs-flame needs a value"),
            ("--obs-flame --obs-summary", "--obs-flame needs a value"),
            ("--obs-trace", "--obs-trace needs a value"),
        ] {
            let err = obs(words).unwrap_err();
            assert!(err.contains(named), "{words}: {err}");
        }
        let empty = parse(&QUICK, &["--obs-out".into(), String::new()]);
        assert_eq!(empty.unwrap_err(), "--obs-out needs a value");
    }

    #[test]
    fn every_other_bad_argument_is_rejected_naming_it() {
        for (words, named) in [
            ("--definitely-not-a-flag x", "--definitely-not-a-flag"),
            ("stray", "unexpected argument \"stray\""),
            ("--obs-summary yes", "--obs-summary takes no value"),
            (
                "--obs-summary --obs-summary",
                "--obs-summary is given twice",
            ),
            ("--threads 2 --threads 2", "--threads is given twice"),
            ("--obs-timeseries zero", "zero"),
            ("--obs-timeseries 0", "--obs-timeseries"),
            ("--threads 0", "--threads"),
            ("--threads -1", "-1"),
        ] {
            let err = obs(words).unwrap_err();
            assert!(err.contains(named), "{words}: {err}");
        }
    }

    #[test]
    fn operands_and_real_ranges_are_checked() {
        use Bound::{Excluded, Included};
        const TABLE: &[Flag] = &[
            Flag::new(
                "tol",
                Kind::Real(Included(0.0), Excluded(f64::INFINITY)),
                "F",
            ),
            Flag::new("frac", Kind::Real(Excluded(0.0), Included(1.0)), "F"),
            Flag::new("json", Kind::Switch, ""),
        ];
        const DIFF: Spec = Spec {
            operands: &["<a>", "<b>"],
            ..Spec::new("diff", &[TABLE])
        };
        let args = parse_words(&DIFF, "--json a --tol 0.5 b --frac 1").unwrap();
        assert_eq!(args.operands, ["a", "b"]);
        assert_eq!(args.num::<f64>("tol"), Some(0.5));
        assert!(args.has("json") && args.value("json").is_none());
        for (words, named) in [
            ("a", "missing <b>"),
            ("a b c", "unexpected argument \"c\""),
            (
                "--tol inf a b",
                "--tol must be a number in [0, inf), got \"inf\"",
            ),
            ("--tol nan a b", "nan"),
            ("--tol -1 a b", "-1"),
            ("--frac 0 a b", "--frac must be a number in (0, 1]"),
            ("--frac 1.5 a b", "1.5"),
        ] {
            let err = parse_words(&DIFF, words).unwrap_err();
            assert!(err.contains(named), "{words}: {err}");
        }
    }

    #[test]
    fn usage_lists_every_row_within_72_columns() {
        let usage = QUICK.usage("quickstart");
        assert!(usage.starts_with("quickstart [--threads N] [--obs-summary] [--obs-out DIR]"));
        for item in [
            "[--obs-timeseries [CAP]]",
            "[--obs-stream-timing include|exclude]",
        ] {
            assert!(usage.contains(item), "{usage}");
        }
        assert!(usage.lines().all(|l| l.len() <= 72), "{usage}");
    }

    #[test]
    fn telemetry_flags_parse_and_enable_collection() {
        let cli = obs("--obs-timeseries").unwrap();
        assert_eq!(cli.timeseries, Some(DEFAULT_SERIES_CAPACITY));
        assert!(cli.telemetry_enabled() && cli.enabled());
        let cli = obs("--obs-timeseries 128").unwrap();
        assert_eq!(cli.timeseries, Some(128));
        let tel = cli.fleet_telemetry().unwrap().expect("telemetry on");
        assert_eq!(tel.store.capacity(), 128);
        assert!(tel.slo.is_none());
        // --obs-slo needs a path; a missing file surfaces at build time.
        let cli = obs("--obs-slo /nonexistent/rules.toml").unwrap();
        assert!(cli.telemetry_enabled());
        assert!(cli.fleet_telemetry().unwrap_err().contains("rules.toml"));
        let cli = obs("").unwrap();
        assert!(cli.fleet_telemetry().unwrap().is_none());
    }

    #[test]
    fn trace_flags_parse_and_enable_export() {
        let cli = obs("--obs-trace trace.json").unwrap();
        assert_eq!(cli.trace.as_deref(), Some(Path::new("trace.json")));
        assert!(cli.include_trace_timing, "defaults to include");
        assert!(cli.enabled());
        let cli = obs("--obs-trace trace.json --obs-trace-timing exclude").unwrap();
        assert!(!cli.include_trace_timing);
    }
}
