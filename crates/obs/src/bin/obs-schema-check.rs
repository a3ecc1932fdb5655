//! `obs-schema-check <dir-or-file>...` — validates that emitted obs run
//! reports parse and conform to the `fexiot-obs/v4` schema, the only one
//! accepted. Used by CI to fail the build when an instrumentation change
//! breaks the report format.
//!
//! Directory arguments expand to every `*.json` directly inside them; every
//! file is checked (reporting ALL failures, not just the first) and the
//! offending path leads each failure line. Exit codes: 0 all good, 1 any
//! report failed, 2 usage error.

use fexiot_obs::report::{check_report_file, collect_report_paths};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    if args.is_empty() {
        eprintln!("usage: obs-schema-check <report.json | dir>...");
        return ExitCode::from(2);
    }
    let files = match collect_report_paths(&args) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("obs-schema-check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for f in &files {
        match check_report_file(f) {
            Ok(()) => println!("ok: {}", f.display()),
            Err(e) => {
                eprintln!("FAIL: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
