//! Sanitizer sweep: every `pcm_algos::catalog` variant x machine x the
//! family's analyzer grid runs under all three `pcm-check` layers —
//!
//! 1. the runtime protocol checker, with the message [`Discipline`] the
//!    variant declares in the catalog (a deliberately naive schedule
//!    tolerates concurrent writes; a strict MP-BSP variant must stagger
//!    into permutation rounds),
//! 2. the model-conformance lint against the predictor's `CostContract`,
//! 3. the determinism auditor (rayon on vs. forced sequential).
//!
//! A non-empty violation list anywhere fails the sweep with the full
//! rendered report.

#[macro_use]
mod common;

use pcm::algos::catalog::{Family, Variant};
use pcm::algos::discipline::Discipline;
use pcm::algos::RunResult;
use pcm::models::contract;
use pcm::models::CostContract;
use pcm_check::{audit_determinism, check_conformance, check_protocol, digest_run, render};

/// Runs one sweep point through all three sanitizer layers.
fn sanitize(
    label: &str,
    discipline: Discipline,
    contract: Option<(&CostContract, usize, usize)>,
    run: impl Fn() -> RunResult,
) {
    // Layer 1: protocol.
    let (result, violations) = check_protocol(discipline, &run);
    assert!(result.verified, "{label}: result failed verification");
    assert!(
        violations.is_empty(),
        "{label}: protocol violations under '{}':\n{}",
        discipline.name,
        render(&violations)
    );

    // Layer 2: model conformance.
    if let Some((c, n, p)) = contract {
        let (_, violations) = check_conformance(c, n, p, &run);
        assert!(
            violations.is_empty(),
            "{label}: contract breaches for predictor '{}':\n{}",
            c.algorithm,
            render(&violations)
        );
    }

    // Layer 3: determinism.
    let violations = audit_determinism(label, || digest_run(&run()));
    assert!(
        violations.is_empty(),
        "{label}: determinism violations:\n{}",
        render(&violations)
    );
}

/// A catalog sweep point: the variant's declared discipline, and its
/// family's contract when the predictor ships one.
fn check_point(
    label: &str,
    family: &Family,
    v: &Variant,
    n: usize,
    p: usize,
    run: &dyn Fn() -> RunResult,
) {
    let contract = family.contract.as_ref().map(|c| (c, n, p));
    sanitize(label, v.discipline, contract, run);
}

catalog_sweeps!(check_point);

/// Every predictor module ships a contract, and the contract list stays in
/// sync with `predict/*`.
#[test]
fn every_predictor_has_a_contract() {
    let names: Vec<&str> = contract::all().iter().map(|c| c.algorithm).collect();
    for expected in [
        "matmul",
        "bitonic",
        "samplesort",
        "apsp",
        "lu",
        "parallel_radix",
    ] {
        assert!(names.contains(&expected), "missing contract for {expected}");
    }
    assert_eq!(names.len(), 6);
}
