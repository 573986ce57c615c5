//! Layer 2: model-conformance lint.
//!
//! Each predictor in `pcm-models` declares a [`CostContract`] — the
//! superstep count, per-step h-relation bound and admissible message kinds
//! its closed form assumes. This module records the
//! [`pcm_sim::SuperstepTrace`] stream the machine computes for each priced
//! superstep (with [`pcm_sim::collect_traces`], a cost-only observer on
//! the same hook the protocol checker uses) and diffs it against the
//! contract, so a drifted implementation can no longer be silently
//! mispriced by its own formula.

use pcm_models::{ContractBreach, CostContract};
use pcm_sim::collect_traces;

use crate::rules::{RuleId, Violation};

/// Maps a contract breach onto the sanitizer's C-rules.
pub fn breach_to_violation(breach: &ContractBreach) -> Violation {
    match *breach {
        ContractBreach::Supersteps { observed, min, max } => Violation {
            rule: RuleId::ContractSupersteps,
            step: observed,
            pid: None,
            detail: format!("run took {observed} superstep(s), contract allows {min}..={max}"),
        },
        ContractBreach::HRelation {
            step,
            observed,
            bound,
        } => Violation {
            rule: RuleId::ContractHRelation,
            step,
            pid: None,
            detail: format!("h-relation {observed} exceeds the contract bound {bound}"),
        },
        ContractBreach::Kind { step, kind } => Violation {
            rule: RuleId::ContractKind,
            step,
            pid: None,
            detail: format!("{kind} messages are not priced by this predictor"),
        },
    }
}

/// Runs `body` under trace collection and checks the collected stream
/// against `contract` for problem size `n` on `p` processors.
pub fn check_conformance<R>(
    contract: &CostContract,
    n: usize,
    p: usize,
    body: impl FnOnce() -> R,
) -> (R, Vec<Violation>) {
    let (result, traces) = collect_traces(body);
    let violations = contract
        .check(n, p, &traces)
        .iter()
        .map(breach_to_violation)
        .collect();
    (result, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_models::KindMask;
    use pcm_sim::{IdealNetwork, Machine, UniformCompute};
    use std::sync::Arc;

    fn machine(p: usize) -> Machine<u32> {
        Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; p],
            3,
        )
    }

    /// A toy contract: exactly 2 supersteps, h <= 4, words only.
    fn toy_contract() -> CostContract {
        CostContract {
            algorithm: "toy",
            supersteps: |_n, _p| (2, 2),
            max_h: |_n, _p| 4,
            allowed_kinds: |_n, _p| KindMask {
                words: true,
                blocks: false,
                xnet: false,
            },
        }
    }

    fn ring_step(m: &mut Machine<u32>, words: usize) {
        m.superstep(move |ctx| {
            let _ = ctx.msgs();
            let p = ctx.nprocs();
            let payload = vec![7u32; words];
            ctx.send_words_u32((ctx.pid() + 1) % p, &payload);
        });
    }

    #[test]
    fn conformant_run_produces_no_violations() {
        let ((), v) = check_conformance(&toy_contract(), 8, 4, || {
            let mut m = machine(4);
            ring_step(&mut m, 2);
            ring_step(&mut m, 2);
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn c01_fires_on_a_superstep_count_mismatch() {
        let ((), v) = check_conformance(&toy_contract(), 8, 4, || {
            let mut m = machine(4);
            ring_step(&mut m, 2); // one step instead of two
        });
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::ContractSupersteps);
        assert!(v[0].detail.contains("2..=2"), "{}", v[0].detail);
    }

    #[test]
    fn c02_fires_and_names_the_offending_step() {
        let ((), v) = check_conformance(&toy_contract(), 8, 4, || {
            let mut m = machine(4);
            ring_step(&mut m, 2);
            ring_step(&mut m, 9); // h = 9 > 4 in superstep 1
        });
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].step), (RuleId::ContractHRelation, 1));
        assert!(v[0].detail.contains('9'), "{}", v[0].detail);
    }

    #[test]
    fn c03_fires_on_an_unpriced_message_kind() {
        let ((), v) = check_conformance(&toy_contract(), 8, 4, || {
            let mut m = machine(4);
            ring_step(&mut m, 2);
            m.superstep(|ctx| {
                let _ = ctx.msgs();
                let p = ctx.nprocs();
                ctx.send_block_u32((ctx.pid() + 1) % p, &[1, 2]);
            });
        });
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].step), (RuleId::ContractKind, 1));
        assert!(v[0].detail.contains("block"), "{}", v[0].detail);
    }

    #[test]
    fn collected_traces_match_the_machines_own_accounting() {
        let ((), traces) = collect_traces(|| {
            let mut m = machine(4);
            ring_step(&mut m, 3);
            ring_step(&mut m, 1);
        });
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].index, 0);
        assert_eq!(traces[0].h_send, 3);
        assert_eq!(traces[0].word_msgs, 12, "4 procs x 3 words");
        assert_eq!(traces[1].h_recv, 1);
        assert_eq!(traces[0].active, 4);
        assert_eq!(traces[0].block_msgs + traces[0].xnet_msgs, 0);
    }
}
