//! Command-line errors of the `reproduce` binary: a malformed command line
//! exits with status 2 and a message, never with a panic.

use std::process::Command;

/// Runs `reproduce` with `args`, returning its exit code, stdout and
/// stderr.
fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `args` exit with status 2 and `message` on stderr, having run nothing:
/// stdout stays empty.
fn assert_usage_error(args: &[&str], message: &str) {
    let (code, stdout, stderr) = run(args);
    assert_eq!(code, Some(2), "{args:?}: exit code, stderr:\n{stderr}");
    assert!(stdout.is_empty(), "{args:?}: ran before failing:\n{stdout}");
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

#[test]
fn check_parses_its_flags_before_running() {
    // The usage line names every command, so it shows the error came
    // from the parser rather than from a run of `check`.
    assert_usage_error(&["check", "--seed", "x"], "usage: reproduce");
    assert_usage_error(&["check", "--seed", "x"], "--seed needs an integer");
}

#[test]
fn unknown_id_after_a_known_one_runs_nothing() {
    assert_usage_error(&["fig02", "nosuch"], "unknown experiment `nosuch`");
}

#[test]
fn check_takes_no_experiment_ids() {
    assert_usage_error(&["check", "fig01"], "take no experiment ids");
}
