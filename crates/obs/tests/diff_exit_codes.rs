//! Process-level test of the `obs-diff` exit codes: 0 when two obs reports
//! agree, 1 on deterministic drift, and 2 for anything that is not a pair
//! of readable obs reports (another schema, a missing file, an unknown flag).

use fexiot_obs::{write_report, Registry};
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fexiot-obs-diff-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Writes `<dir>/run.json` holding one counter and returns its path.
fn report(dir: &Path, counter: u64) -> PathBuf {
    let reg = Registry::new();
    reg.counter_add("test.diff.items", counter);
    write_report(dir, "run", &reg.snapshot(), &Default::default()).expect("write report")
}

fn obs_diff<S: AsRef<OsStr>>(args: &[S]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs-diff"))
        .args(args)
        .output()
        .expect("run obs-diff")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn identical_reports_exit_0() {
    let dir = temp_dir("same");
    let a = report(&dir.join("a"), 3);
    let b = report(&dir.join("b"), 3);
    let out = obs_diff(&[&a, &b]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stdout).contains("verdict: PASS (0 breaking, 0 advisory)"));
}

#[test]
fn counter_drift_exits_1() {
    let dir = temp_dir("drift");
    let a = report(&dir.join("a"), 3);
    let b = report(&dir.join("b"), 4);
    let out = obs_diff(&[&a, &b]);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.contains("BREAKING"), "{stdout}");
    assert!(
        stdout.contains("counters.test.diff.items: 3 -> 4"),
        "{stdout}"
    );
    assert!(stdout.contains("verdict: FAIL"), "{stdout}");
}

#[test]
fn bench_document_exits_2_with_unknown_schema() {
    let dir = temp_dir("schema");
    let bench = dir.join("featurize.json");
    std::fs::write(
        &bench,
        r#"{"schema":"fexiot-bench/v1","workload":"featurize","scale":"small","reps":5,"seed":42,"threads":1,"items":{},"alloc":{"tracked":false,"allocs":0,"bytes":0,"peak_live_bytes":0},"timing_us":{"mean":1,"p50":1,"p90":1,"p99":1,"min":1,"max":1,"total":5}}"#,
    )
    .expect("write bench document");
    // An obs report of an older schema is refused the same way.
    let current = report(&dir, 3);
    let older = dir.join("older.json");
    let text_v4 = std::fs::read_to_string(&current).expect("read report");
    std::fs::write(&older, text_v4.replace("fexiot-obs/v4", "fexiot-obs/v3"))
        .expect("write older report");
    for doc in [&bench, &older] {
        let out = obs_diff(&[doc, &current]);
        assert_eq!(out.status.code(), Some(2), "{}", text(&out.stdout));
        let stderr = text(&out.stderr);
        assert!(stderr.contains(&doc.display().to_string()), "{stderr}");
        assert!(stderr.contains("unknown schema"), "{stderr}");
    }
}

#[test]
fn missing_file_exits_2() {
    let dir = temp_dir("missing");
    let a = report(&dir, 3);
    let missing = dir.join("absent.json");
    let out = obs_diff(&[&a, &missing]);
    assert_eq!(out.status.code(), Some(2), "{}", text(&out.stdout));
    let stderr = text(&out.stderr);
    assert!(stderr.contains(&missing.display().to_string()), "{stderr}");
}

#[test]
fn unknown_flag_exits_2() {
    let dir = temp_dir("flag");
    let a = report(&dir, 3);
    let out = obs_diff(&[a.as_os_str(), OsStr::new("--bogus"), a.as_os_str()]);
    assert_eq!(out.status.code(), Some(2), "{}", text(&out.stdout));
    let stderr = text(&out.stderr);
    assert!(stderr.contains("unknown flag \"--bogus\""), "{stderr}");
    assert!(stderr.contains("usage: obs-diff"), "{stderr}");
}
