//! Process-level test of `obs-export --section`: it prints a section only
//! from a valid obs report and exits 2, naming the file and the reason, for
//! anything else.

use fexiot_obs::{write_report, Registry};
use std::path::PathBuf;
use std::process::{Command, Output};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fexiot-obs-export-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn section(name: &str, path: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs-export"))
        .args(["--section", name])
        .arg(path)
        .output()
        .expect("run obs-export")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn section_of_a_report_prints_it() {
    let reg = Registry::new();
    reg.counter_add("test.export.items", 3);
    let path = write_report(
        &temp_dir("good"),
        "run",
        &reg.snapshot(),
        &Default::default(),
    )
    .expect("write report");
    let out = section("counters", &path);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert_eq!(text(&out.stdout).trim(), r#"{"test.export.items":3}"#);
}

#[test]
fn section_of_a_non_report_exits_2() {
    let path = temp_dir("junk").join("junk.json");
    std::fs::write(&path, r#"{"schema":"junk","slo":1}"#).expect("write junk");
    let out = section("slo", &path);
    assert_eq!(out.status.code(), Some(2), "{}", text(&out.stdout));
    assert!(out.stdout.is_empty(), "{}", text(&out.stdout));
    let stderr = text(&out.stderr);
    assert!(stderr.contains(&path.display().to_string()), "{stderr}");
    assert!(stderr.contains("unknown schema"), "{stderr}");
}
