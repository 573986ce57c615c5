//! Command-line errors of the `reproduce` binary: a malformed command line
//! exits with status 2 and a message, never with a panic.

use std::process::Command;

/// Runs `reproduce` with `args`, returning its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_error(args: &[&str], message: &str) {
    let (code, stderr) = run(args);
    assert_eq!(code, Some(2), "{args:?}: exit code, stderr:\n{stderr}");
    assert!(
        stderr.contains(message),
        "{args:?}: expected `{message}` in stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?}: panicked:\n{stderr}"
    );
}

#[test]
fn non_integer_seed_is_a_usage_error() {
    assert_usage_error(&["--seed", "x", "fig01"], "--seed needs an integer");
}

#[test]
fn trailing_out_is_a_usage_error() {
    assert_usage_error(&["fig01", "--out"], "--out needs a directory");
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    assert_usage_error(&["no-such-figure"], "unknown experiment `no-such-figure`");
}
