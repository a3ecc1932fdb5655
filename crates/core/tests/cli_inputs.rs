//! The CLI's input boundary, driven as a process: an unknown, repeated,
//! stray or valueless argument, a numeric flag or a `FEXIOT_THREADS` value
//! that does not parse, a count that is zero or out of range, a real value
//! outside its domain, or a word outside a flag's choices exits 2 with a
//! message that names it, before any work and instead of running with a
//! default or a clamped value; a hostile wire file exits 1 with an error,
//! never a crash.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fexiot-cli-inputs-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn cli(args: &[&str], threads_env: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fexiot-cli"));
    cmd.args(args);
    match threads_env {
        Some(v) => cmd.env("FEXIOT_THREADS", v),
        None => cmd.env_remove("FEXIOT_THREADS"),
    };
    cmd.output().expect("run fexiot-cli")
}

#[test]
fn unparsable_numeric_flag_exits_2_naming_the_flag() {
    let dir = fresh_dir("graphs");
    let model = dir.join("m.fex");
    let out = cli(
        &["train", "--graphs", "ten", "--out", model.to_str().unwrap()],
        None,
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(
        err.contains("--graphs") && err.contains("ten"),
        "stderr: {err}"
    );
    assert!(!model.exists(), "no model may be trained on a default");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unparsable_threads_env_exits_2_naming_the_variable() {
    let dir = fresh_dir("threads");
    let store = dir.to_str().unwrap();
    let out = cli(&["store", "list", "--store", store], Some("four"));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(
        err.contains("FEXIOT_THREADS") && err.contains("four"),
        "stderr: {err}"
    );

    for env in [None, Some("2")] {
        let out = cli(&["store", "list", "--store", store], env);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(0),
            "FEXIOT_THREADS={env:?}, stderr: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `args` and checks that it exits 2 naming `named` on stderr, with
/// nothing on stdout.
fn assert_usage_error(args: &[&str], named: &str) {
    let out = cli(args, Some("1"));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}, stderr: {err}");
    assert!(
        err.contains(named),
        "{args:?} must name {named}, stderr: {err}"
    );
    assert!(out.stdout.is_empty(), "{args:?} must do no work");
}

#[test]
fn serve_rejects_zero_counts_and_a_missing_slow_shard() {
    // Each case is checked before a fleet is built, so none needs a small
    // fleet, and no case gives a flag twice.
    let cases: &[(&[&str], &str)] = &[
        (&["--homes", "0"], "--homes"),
        (&["--home-size", "0"], "--home-size"),
        (&["--sim-scale", "0"], "--sim-scale"),
        (&["--shards", "0"], "--shards"),
        (&["--mailbox-cap", "0"], "--mailbox-cap"),
        (&["--ingest-rate", "0"], "--ingest-rate"),
        (&["--maintain-rate", "0"], "--maintain-rate"),
        (&["--detect-rate", "0"], "--detect-rate"),
        (&["--round-events", "0"], "--round-events"),
        (&["--slow-shard", "4"], "--slow-shard"),
        (&["--shards", "2", "--slow-shard", "2"], "--slow-shard"),
    ];
    for (flags, named) in cases {
        assert_usage_error(&[&["serve"], *flags].concat(), named);
    }

    // The smallest valid values still serve.
    let ok = "serve --homes 1 --home-size 1 --sim-scale 1 --shards 1 --mailbox-cap 1 \
              --ingest-rate 1 --maintain-rate 1 --detect-rate 1 --round-events 1 --slow-shard 0";
    let ok: Vec<&str> = ok.split_whitespace().collect();
    let out = cli(&ok, Some("1"));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
}

#[test]
fn every_malformed_argument_exits_2_naming_it_before_any_work() {
    let dir = fresh_dir("strict");
    let (store_dir, model_file) = (dir.join("store"), dir.join("m.fex"));
    let (store, model) = (store_dir.to_str().unwrap(), model_file.to_str().unwrap());
    // What any command rejects.
    let any: &[(&[&str], &str)] = &[
        (&["--bogus", "3"], "--bogus"),
        (
            &["--threads", "1", "--threads", "1"],
            "--threads is given twice",
        ),
        (&["--obs-summary", "yes"], "--obs-summary takes no value"),
        (&["--obs-out"], "--obs-out needs a value"),
        (&["--obs-steam", "e.jsonl"], "unknown flag \"--obs-steam\""),
        (&["stray"], "unexpected argument \"stray\""),
    ];
    let commands: &[&[&str]] = &[
        &["train"],
        &["eval"],
        &["detect"],
        &["explain"],
        &["federate"],
        &["serve"],
        &["store", "list"],
        &["store", "gc"],
    ];
    for command in commands {
        for (flags, named) in any {
            assert_usage_error(&[*command, *flags].concat(), named);
        }
    }
    // What one command rejects: a flag of another command or a misspelling,
    // a repeat, a text flag without a value, a word outside the choices
    // (even where `--model` makes it unused), a zero deadline, and two
    // flags that would silently override each other.
    let one: &[(&[&str], &str)] = &[
        (&["train", "--round", "1"], "--round"),
        (&["explain", "--beam", "0"], "--beam"),
        (&["serve", "--threshold", "2"], "--threshold"),
        (&["serve", "--replay"], "--replay"),
        (&["federate", "--homes", "2"], "--homes"),
        (&["train", "--graphs", "5", "--graphs", "6"], "--graphs"),
        (&["federate", "--seed", "1", "--seed", "2"], "--seed"),
        (&["train", "--out"], "--out"),
        (&["train", "--out", "--graphs", "5"], "--out"),
        (&["eval", "--model"], "--model"),
        (&["detect", "--model", ""], "--model"),
        (&["serve", "--input"], "--input"),
        (&["serve", "--record"], "--record"),
        (&["store", "list", "--store"], "--store"),
        (&["federate", "--checkpoint-dir"], "--checkpoint-dir"),
        (&["train", "--encoder", "gat", "--out", model], "--encoder"),
        (&["eval", "--encoder", "gat", "--model", model], "--encoder"),
        (
            &["serve", "--encoder", "gat", "--model", model],
            "--encoder",
        ),
        (&["federate", "--strategy", "fedprox"], "--strategy"),
        (&["federate", "--failover", "retry"], "--failover"),
        (&["serve", "--overflow", "drop"], "--overflow"),
        (
            &["federate", "--obs-stream-timing", "never"],
            "--obs-stream-timing",
        ),
        (&["federate", "--obs-timeseries", "0"], "--obs-timeseries"),
        (&["federate", "--deadline-ticks", "0"], "--deadline-ticks"),
        (
            &["federate", "--sample-k", "4", "--sample-frac", "0.5"],
            "--sample-frac",
        ),
        (
            &["federate", "--store", store, "--checkpoint-dir", store],
            "--checkpoint-dir",
        ),
        (&["store"], "usage:"),
        (&["store", "prune", "--store", store], "usage:"),
    ];
    for (args, named) in one {
        assert_usage_error(args, named);
    }
    assert!(
        !model_file.exists() && !store_dir.exists(),
        "nothing may be written"
    );

    // A misspelled observability flag is answered with every one of them.
    let out = cli(&["federate", "--obs-steam", "e.jsonl"], Some("1"));
    let err = String::from_utf8_lossy(&out.stderr);
    for flag in fexiot_obs::cli::OBS_FLAGS {
        assert!(err.contains(&format!("--{}", flag.name)), "stderr: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_dataset_and_client_counts_exit_2_naming_the_flag() {
    let dir = fresh_dir("zero-counts");
    let model = dir.join("m.fex");
    let model = model.to_str().unwrap();
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let cases: &[(&[&str], &str)] = &[
        (&["train", "--graphs", "0", "--out", model], "--graphs"),
        (&["eval", "--graphs", "0", "--model", model], "--graphs"),
        (&["detect", "--graphs", "0", "--model", model], "--graphs"),
        (&["explain", "--graphs", "0", "--model", model], "--graphs"),
        (&["federate", "--graphs", "0"], "--graphs"),
        (&["federate", "--clients", "0"], "--clients"),
        (
            &["eval", "--train-graphs", "0", "--store", store],
            "--train-graphs",
        ),
    ];
    for (args, named) in cases {
        assert_usage_error(args, named);
    }
    assert!(
        !dir.join("m.fex").exists(),
        "no model may be trained on zero graphs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_domain_federate_values_exit_2_naming_the_flag() {
    // `--alpha` > 0; counts ≥ 1; `--sample-frac` in (0, 1]; the fault
    // probabilities and `--quorum` in [0, 1]. NaN fails every range.
    let cases: &[(&str, &str)] = &[
        ("--alpha", "0"),
        ("--alpha", "-1"),
        ("--alpha", "nan"),
        ("--aggregators", "0"),
        ("--sample-k", "0"),
        ("--sample-frac", "0"),
        ("--sample-frac", "-1"),
        ("--sample-frac", "1.5"),
        ("--sample-frac", "nan"),
        ("--dropout", "1.5"),
        ("--msg-loss", "-0.5"),
        ("--straggler", "nan"),
        ("--corrupt", "2"),
        ("--agg-dropout", "-0.1"),
        ("--agg-crash", "1.01"),
        ("--agg-straggler", "inf"),
        ("--quorum", "2"),
    ];
    for (flag, value) in cases {
        let out = cli(&["federate", flag, value], Some("1"));
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}, stderr: {err}");
        assert!(
            err.contains(flag) && err.contains(value),
            "{flag} {value}, stderr: {err}"
        );
        assert!(out.stdout.is_empty(), "{flag} {value} must build nothing");
    }
}

#[test]
fn deeply_nested_wire_line_is_an_error_not_a_crash() {
    let dir = fresh_dir("deep-wire");
    let wire = dir.join("w.jsonl");
    let wire = wire.to_str().unwrap();
    let fleet = ["--homes", "2", "--sim-scale", "1", "--seed", "1"];
    let mut record = vec!["serve", "--record", wire];
    record.extend_from_slice(&fleet);
    let out = cli(&record, Some("1"));
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(wire).expect("read the recorded wire");
    let (header, rest) = text.split_once('\n').expect("a header line");
    let deep = format!("{header}\n{}\n{rest}", "[".repeat(300_000));
    std::fs::write(wire, deep).expect("write the deep wire");
    let mut replay = vec!["serve", "--input", wire];
    replay.extend_from_slice(&fleet);
    let out = cli(&replay, Some("1"));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(
        !err.contains("overflowed") && !err.contains("panicked"),
        "stderr: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
