//! The CLI's numeric input boundary, driven as a process: a numeric flag or
//! a `FEXIOT_THREADS` value that does not parse exits 2 with a message that
//! names it, instead of running with a default.

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
