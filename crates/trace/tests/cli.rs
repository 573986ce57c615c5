//! Command-line errors of the `pcm-trace` binary: a malformed command
//! line exits with status 2 and the usage line, an unwritable output exits
//! with status 1 and the I/O error, never with a panic.

use std::path::PathBuf;
use std::process::Command;

/// Runs `pcm-trace` with `args`, returning its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pcm-trace"))
        .args(args)
        .output()
        .expect("pcm-trace runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_fails(args: &[&str], code: i32, message: &str) {
    let (got, stderr) = run(args);
    assert_eq!(got, Some(code), "{args:?}: exit code, stderr:\n{stderr}");
    assert!(
        stderr.contains(message),
        "{args:?}: expected `{message}` in stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?}: panicked:\n{stderr}"
    );
}

fn assert_usage_error(args: &[&str], message: &str) {
    assert_fails(args, 2, message);
    assert_fails(args, 2, "usage: pcm-trace");
}

#[test]
fn trailing_out_is_a_usage_error() {
    assert_usage_error(&["--out"], "--out needs a path");
}

#[test]
fn trailing_trace_out_is_a_usage_error() {
    assert_usage_error(&["--trace-out"], "--trace-out needs a path");
}

#[test]
fn trailing_export_is_a_usage_error() {
    assert_usage_error(&["--export"], "--export needs a format");
}

#[test]
fn unknown_export_format_is_a_usage_error() {
    assert_usage_error(
        &["--export", "svg"],
        "unsupported export format `svg` (supported: chrome)",
    );
}

#[test]
fn unknown_argument_is_a_usage_error() {
    assert_usage_error(&["--no-such-flag"], "unknown argument: --no-such-flag");
}

#[test]
fn unwritable_report_is_an_io_error() {
    // A regular file where the report's parent directory should be.
    let blocker = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("pcm-trace-cli-blocker");
    std::fs::write(&blocker, b"not a directory").expect("blocker file written");
    let out = blocker.join("TRACE_report.json");
    let out = out.to_str().expect("utf-8 temp path");
    assert_fails(
        &["--out", out],
        1,
        &format!("pcm-trace: cannot write {out}"),
    );
}
