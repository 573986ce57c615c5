//! `pcm-audit` — sweep every algorithm family × machine × `(n, p)` grid
//! point through the static schedule auditor and report findings.
//!
//! ```text
//! pcm-audit [--fast] [--out PATH]
//! ```
//!
//! `--fast` restricts each family to its first grid point on the MasPar
//! (the smoke configuration); `--out` writes the JSON findings report.
//! Exit status is 2 for a malformed command line, and 1 when the report
//! cannot be written or any finding fired, so CI can gate on it.

use pcm_audit::{render, render_json, sweep, SweepOptions};
use pcm_core::fsio::write_atomic;

const USAGE: &str = "usage: pcm-audit [--fast] [--out PATH]";

fn main() {
    let mut fast = false;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--out" => {
                out = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--out requires a path")),
                );
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }

    let outcome = sweep(SweepOptions { fast });
    let stats = outcome.stats;
    println!(
        "pcm-audit: {} machine(s) audited over {} grid point(s), \
         {} differential replay(s), {} contract shape(s) certified",
        stats.plans_audited, stats.grid_points, stats.differential_points, stats.shape_contracts
    );

    if let Some(path) = out {
        let json = render_json(&outcome, fast);
        if let Err(e) = write_atomic(&path, json) {
            eprintln!("pcm-audit: cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("pcm-audit: report written to {path}");
    }

    if outcome.findings.is_empty() {
        println!("pcm-audit: clean — every schedule certified");
    } else {
        eprintln!(
            "pcm-audit: {} finding(s):\n{}",
            outcome.findings.len(),
            render(&outcome.findings)
        );
        std::process::exit(1);
    }
}

/// Reports a malformed command line with the usage line and exits with
/// status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("pcm-audit: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}
