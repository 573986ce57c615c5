//! # pcm-check — sanitizer for pcm runs
//!
//! Two layers of checking for the simulator and the algorithm suite:
//!
//! 1. **Runtime protocol checker** ([`protocol`]): a schedule-level
//!    `pcm_sim::SuperstepProbe` that watches every superstep and flags violations of the active
//!    model's message `Discipline` (declared per variant in
//!    `pcm_algos::catalog`) — out-of-range destinations (R01),
//!    disallowed message kinds (R03), concurrent writes under MP-BSP
//!    (R04), invalid charges (R05), block fan-in under the single-port
//!    MP-BPRAM (R06) and non-finite priced times (R07).
//! 2. **Determinism auditor** ([`determinism`]): runs an algorithm twice
//!    with the same seed — pooled closures and forced sequential — and
//!    compares state digests (D01) and trace digests (D02).
//!
//! Every violation carries a stable [`RuleId`], the superstep index and,
//! where one can be named, the processor involved. At the workspace root,
//! `tests/race.rs` sweeps every algorithm x machine x (n, p) point through
//! the protocol layer, with the race analyzer stacked on it, and
//! `tests/sanitizer.rs` through the determinism layer.
//!
//! Two rules live elsewhere, each stated once: unread and pending
//! deliveries are `pcm-audit`'s A01, and each family's `CostContract`
//! (superstep count and h-relation bound) is `pcm-audit`'s A03.
//!
//! The **happens-before race & staleness analyzer** (`pcm-race`) consumes
//! the same observer hook plus the simulator's shadow-memory events and
//! reports W01–W04 findings through this crate's
//! [`RuleId`]/[`Violation`] plumbing.

pub mod determinism;
pub mod protocol;
pub mod rules;

pub use determinism::{audit_determinism, digest_run, digest_traces, Digest};
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
