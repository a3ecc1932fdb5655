//! An experiment bin's one flag is `--full`: any other argument exits 2
//! naming it, before any experiment runs.

use std::process::Command;

#[test]
fn a_misspelled_flag_exits_2_naming_it() {
    for (args, named) in [
        (&["--ful"][..], "unknown flag \"--ful\""),
        (&["--full", "--full"], "--full is given twice"),
        (&["--full", "yes"], "--full takes no value"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_table2"))
            .args(args)
            .env_remove("FEXIOT_FULL")
            .output()
            .expect("run table2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}, stderr: {err}");
        assert!(err.contains(named), "{args:?}, stderr: {err}");
        assert!(err.contains("usage: table2 [--full]"), "stderr: {err}");
        assert!(out.stdout.is_empty(), "{args:?} must run nothing");
    }
}
