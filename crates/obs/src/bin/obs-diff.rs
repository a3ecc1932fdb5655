//! `obs-diff [flags] <baseline.json> <current.json>` — compares two obs
//! run reports (`fexiot-obs/v4`) by one structural rule (see
//! `fexiot_obs::diff`) and exits non-zero when deterministic data drifted
//! (or, with `--strict-timing`, when timings regressed beyond tolerance).
//! Each finding names its leaf by a dotted path. This is the CI behaviour
//! regression gate; a file with any other schema is a usage error.
//!
//! The flags are the rows of `SPEC` below, from which the usage line printed
//! on a usage error is generated. Their defaults are `DiffConfig`'s:
//! `--timing-tolerance` is the fractional slowdown allowed (0.25),
//! `--timing-floor-us` ignores spans faster than it in the baseline (1000),
//! and `--json` prints the `fexiot-obs-diff/v2` verdict document.
//!
//! Exit codes: 0 pass, 1 fail (breaking findings), 2 usage/IO error.

use fexiot_obs::cli::Kind::{Int, Real, Switch};
use fexiot_obs::cli::{parse_env, Flag, Spec};
use fexiot_obs::diff::{diff_reports, DiffConfig};
use fexiot_obs::{validate_report, Json};
use std::ops::Bound::{Excluded, Included};
use std::path::Path;
use std::process::ExitCode;

const FLAGS: &[Flag] = &[
    Flag::new(
        "timing-tolerance",
        Real(Included(0.0), Excluded(f64::INFINITY)),
        "FRAC",
    ),
    Flag::new("timing-floor-us", Int(0), "N"),
    Flag::new("strict-timing", Switch, ""),
    Flag::new("json", Switch, ""),
];
const SPEC: Spec = Spec {
    operands: &["<baseline.json>", "<current.json>"],
    ..Spec::new("", &[FLAGS])
};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    validate_report(&doc).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc)
}

fn main() -> ExitCode {
    let args = parse_env(&SPEC);
    let defaults = DiffConfig::default();
    let cfg = DiffConfig {
        timing_tolerance: args
            .num("timing-tolerance")
            .unwrap_or(defaults.timing_tolerance),
        timing_floor_us: args
            .num("timing-floor-us")
            .unwrap_or(defaults.timing_floor_us),
        strict_timing: args.has("strict-timing"),
    };
    let [baseline, current] = &args.operands[..] else {
        unreachable!("the spec names two operands")
    };
    let (base_doc, cur_doc) = match (load(baseline), load(current)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("obs-diff: {err}");
            }
            return ExitCode::from(2);
        }
    };
    let report = diff_reports(&base_doc, &cur_doc, &cfg);
    if args.has("json") {
        println!(
            "{}",
            report.to_json(
                &Path::new(baseline).display().to_string(),
                &Path::new(current).display().to_string()
            )
        );
    } else {
        print!("{}", report.render());
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
