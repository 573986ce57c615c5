//! Determinism sweep: every `pcm_algos::catalog` variant x machine x the
//! family's analyzer grid runs through the `pcm-check` determinism
//! auditor — pooled closures vs. forced sequential, compared by state
//! digest (D01) and trace-stream digest (D02). It is a pair of runs of its
//! own: under an observer scope the machine's closures would not fan out.
//!
//! The same points run once under the protocol checker and the race
//! analyzer stacked in `tests/race.rs`; each family's `CostContract` is
//! checked on the same grid (and the rest of it) by `pcm-audit`'s A03, in
//! `tests/audit.rs`. Any determinism violation fails the sweep with the
//! rendered report.

#[macro_use]
mod common;

use pcm::algos::catalog::Variant;
use pcm::algos::RunResult;
use pcm_check::{audit_determinism, digest_run, render};

/// Runs one sweep point pooled and sequentially, and fails on any
/// divergence.
fn check_deterministic(label: &str, _v: &Variant, run: &dyn Fn() -> RunResult) {
    let violations = audit_determinism(label, || digest_run(&run()));
    assert!(
        violations.is_empty(),
        "{label}: determinism violations:\n{}",
        render(&violations)
    );
}

catalog_sweeps!(check_deterministic);
