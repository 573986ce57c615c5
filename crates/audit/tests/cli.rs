//! Command-line errors of the `pcm-audit` binary: a malformed command line
//! exits with status 2 and the usage line, an unwritable report exits
//! with status 1 and the I/O error, never with a panic.

use std::path::PathBuf;
use std::process::Command;

/// Runs `pcm-audit` with `args`, returning its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pcm-audit"))
        .args(args)
        .output()
        .expect("pcm-audit runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_fails(args: &[&str], code: i32, messages: &[&str]) {
    let (got, stderr) = run(args);
    assert_eq!(got, Some(code), "{args:?}: exit code, stderr:\n{stderr}");
    for message in messages {
        assert!(
            stderr.contains(message),
            "{args:?}: expected `{message}` in stderr:\n{stderr}"
        );
    }
    assert!(
        !stderr.contains("panicked"),
        "{args:?}: panicked:\n{stderr}"
    );
}

#[test]
fn unknown_argument_is_a_usage_error() {
    assert_fails(
        &["--no-such-flag"],
        2,
        &["unknown argument: --no-such-flag", "usage: pcm-audit"],
    );
}

#[test]
fn unwritable_report_is_an_io_error() {
    // A report path whose parent directory does not exist.
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("pcm-audit-cli-missing-dir")
        .join("r.json");
    let out = out.to_str().expect("utf-8 temp path");
    assert_fails(
        &["--fast", "--out", out],
        1,
        &[&format!("pcm-audit: cannot write {out}")],
    );
}
