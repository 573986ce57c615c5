//! # pcm-check — sanitizer for pcm runs
//!
//! Three layers of checking for the simulator and the algorithm suite:
//!
//! 1. **Runtime protocol checker** ([`protocol`]): a schedule-level
//!    `pcm_sim::SuperstepProbe` that watches every superstep and flags violations of the active
//!    model's message [`Discipline`] — out-of-range destinations (R01),
//!    unread deliveries (R02), disallowed message kinds (R03), concurrent
//!    writes under MP-BSP (R04), invalid charges (R05), block fan-in under
//!    the single-port MP-BPRAM (R06) and non-finite priced times (R07).
//! 2. **Model-conformance lint** ([`conformance`]): diffs a run's recorded
//!    `SuperstepTrace` stream against the `CostContract` its predictor in
//!    `pcm-models` declares — superstep count (C01), per-step h-relation
//!    bound (C02) and admissible message kinds (C03).
//! 3. **Determinism auditor** ([`determinism`]): runs an algorithm three
//!    times with the same seed — rayon on, forced sequential (the fused
//!    engine) and forced sharded exchange — and compares state digests
//!    (D01) and trace digests (D02).
//!
//! Every violation carries a stable [`RuleId`], the superstep index and,
//! where one can be named, the processor involved. `tests/sanitizer.rs` at
//! the workspace root sweeps every algorithm x machine x (n, p) point
//! through all three layers.
//!
//! A fourth layer lives in its own crate: the **happens-before race &
//! staleness analyzer** (`pcm-race`) consumes the same observer hook plus
//! the simulator's shadow-memory events and reports W01–W04 findings
//! through this crate's [`RuleId`]/[`Violation`] plumbing.

pub mod conformance;
pub mod determinism;
pub mod discipline;
pub mod protocol;
pub mod rules;

pub use conformance::{breach_to_violation, check_conformance, collect_traces};
pub use determinism::{audit_determinism, digest_traces, Digest};
pub use discipline::Discipline;
pub use protocol::{check_protocol, ProtocolChecker};
pub use rules::{RuleId, Severity, Violation};

/// Renders a violation list for test failure messages: one per line.
pub fn render(violations: &[Violation]) -> String {
    violations
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_joins_one_violation_per_line() {
        let vs = vec![
            Violation {
                rule: RuleId::DstRange,
                step: 0,
                pid: Some(1),
                detail: "a".into(),
            },
            Violation {
                rule: RuleId::BadCharge,
                step: 1,
                pid: None,
                detail: "b".into(),
            },
        ];
        let s = render(&vs);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("R01-dst-range") && s.contains("R05-bad-charge"));
    }
}
