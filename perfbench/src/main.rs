//! End-to-end benchmark of the FexIoT library: four workloads (`explain`,
//! `serve`, `federate`, `train`), each timed from outside through the same
//! public functions the `fexiot-cli` subcommands call.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explain|serve|federate|train|all [--seed 42] [--seconds 20] [--trace 0|1]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics of traced passes (span files land in `.bench_out/`). The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See README.md for what each workload and metric means.

mod common;
mod explain;
mod federate;
mod metrics;
mod reference;
mod serve;
mod trace;
mod train;
mod workload;

use common::{Scale, OUT_DIR};
use std::process::ExitCode;
use trace::Tracer;
use workload::{run_traced, run_untraced, Outcome, Workload};

pub const WORKLOADS: &[&str] = &["explain", "serve", "federate", "train"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} wants {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run_one<W: Workload>(args: &Args) -> (Outcome, Vec<(String, Tracer)>, usize) {
    // End-to-end timings run at width 1: at the default width, pool
    // fan-outs swing with a shared machine's load by more than any
    // regression bound. The traced run compares the default width with
    // width 1.
    let width = if args.trace {
        fexiot_par::ParPool::available()
    } else {
        1
    };
    let scale = Scale { tiny: false };
    let mut traces = Vec::new();
    fexiot_par::set_threads(width);
    let outcome = if args.trace {
        run_traced::<W>(scale, args.seed, args.seconds, width, &mut traces)
    } else {
        run_untraced::<W>(scale, args.seed, args.seconds)
    };
    (outcome, traces, width)
}

fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.correct,
        o.attempted,
        o.failed,
        o.metrics.to_json()
    )
}

/// Human-readable report on stderr, plus the span files of a traced run.
fn report(args: &Args, width: usize, o: &Outcome, traces: &[(String, Tracer)]) {
    eprintln!(
        "{} · seed {} · {} s · pool width {width} (available {})",
        args.workload,
        args.seed,
        args.seconds,
        fexiot_par::ParPool::available()
    );
    eprintln!(
        "ops attempted {} · failed {} · output digest {:016x}",
        o.attempted, o.failed, o.digest
    );
    for (d, v) in o.metrics.iter() {
        let better = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        eprintln!(
            "  {:<24} {v:>14.4} {:<8} ({better} is better)",
            d.name, d.unit
        );
    }
    for (label, t) in traces {
        eprintln!("spans at {label} (calls, total ms, self ms):");
        for (name, s) in t.summary() {
            eprintln!(
                "  {name:<22} {:>7} {:>12.3} {:>12.3}",
                s.calls,
                s.total_ms(),
                s.self_ns as f64 / 1e6
            );
        }
        let path = std::path::Path::new(OUT_DIR).join(format!(
            "trace-{}-seed{}-{label}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) =
            std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, t.to_jsonl()))
        {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    for p in &o.problems {
        eprintln!("INCORRECT: {p}");
    }
}

/// Runs every workload, each in its own process so peak memory stays
/// per workload, and prints their result lines.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            child_args.push(flag.clone());
            child_args.push(if flag == "--workload" {
                w.to_string()
            } else {
                value
            });
        }
        match std::process::Command::new(&exe).args(&child_args).output() {
            Ok(out) if out.status.success() => {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                let text = String::from_utf8_lossy(&out.stdout);
                println!("{w}: {}", text.lines().last().unwrap_or(""));
            }
            Ok(out) => {
                ok = false;
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                eprintln!("{w}: exited with {}", out.status);
            }
            Err(e) => {
                ok = false;
                eprintln!("{w}: cannot start: {e}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: --workload explain|serve|federate|train|all [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    fexiot_obs::set_global_enabled(false);
    let (outcome, traces, width) = match args.workload.as_str() {
        "explain" => run_one::<explain::Explain>(&args),
        "serve" => run_one::<serve::Serve>(&args),
        "federate" => run_one::<federate::Federate>(&args),
        "train" => run_one::<train::Train>(&args),
        _ => unreachable!("validated by parse"),
    };
    report(&args, width, &outcome, &traces);
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests;
