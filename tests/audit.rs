//! Static audit sweep: the `pcm-audit` abstract interpreter certifies
//! every algorithm family × machine × `(n, p)` grid point, and the
//! fixtures prove each rule actually bites — a mis-declared h-relation is
//! flagged A03, a broken buffer envelope A04, a smuggled message A01, an
//! undeclared packet size A05, a shuffled schedule A02 and a shrinking
//! closed form A06.

use pcm::algos::catalog::{families, SEED};
use pcm::algos::matmul::{self, MatmulVariant};
use pcm::models::contract;
use pcm::sim::{extract_plans, CommPattern, Message, MsgKind, RunPlan, StepPlan};
use pcm::Platform;
use pcm_audit::{
    audit_plan, certify_contract_shape, differential_gate, render, sweep, AuditRule, Finding,
    PlanAudit, SweepOptions,
};

/// The full sweep — every family, machine, grid point, variant, plus the
/// differential replays and contract shape certificates — must be clean.
#[test]
fn full_sweep_is_clean() {
    let outcome = sweep(SweepOptions { fast: false });
    assert!(
        outcome.findings.is_empty(),
        "static audit sweep found:\n{}",
        render(&outcome.findings)
    );
    // Every catalog family, variant, machine and grid point is visited.
    let fams = families();
    let grid_points: usize = fams.iter().map(|f| f.grid.len()).sum();
    let plans: usize = fams
        .iter()
        .map(|f| 3 * f.grid.len() * f.variants.len())
        .sum();
    let shapes = fams.iter().filter(|f| f.contract.is_some()).count();
    let stats = outcome.stats;
    assert_eq!(stats.grid_points, grid_points);
    assert_eq!(stats.plans_audited, plans);
    assert_eq!(stats.differential_points, grid_points);
    assert_eq!(stats.shape_contracts, shapes);
}

fn matmul_plan(n: usize, p: usize) -> (Platform, RunPlan) {
    let plat = Platform::maspar_with(p);
    let (result, mut plans) =
        extract_plans(|| matmul::run(&plat, n, MatmulVariant::BspStaggered, SEED));
    assert!(result.verified);
    assert_eq!(plans.len(), 1);
    (plat, plans.pop().expect("one machine, one plan"))
}

fn audit_matmul_plan(plan: &RunPlan, plat: &Platform, n: usize, p: usize) -> Vec<Finding> {
    let bounds = pcm::algos::bounds::matmul();
    let c = contract::matmul();
    audit_plan(
        plan,
        &PlanAudit {
            family: "matmul",
            variant: "BspStaggered",
            machine: plat.name(),
            n,
            p,
            word: plat.word(),
            bounds: &bounds,
            contract: Some(&c),
        },
    )
}

/// Acceptance fixture: a deliberately mis-declared h-relation — the
/// contract claims at most 1 word per processor per superstep — must be
/// flagged with rule A03 on a real extracted plan.
#[test]
fn misdeclared_h_relation_is_flagged_a03() {
    let (plat, plan) = matmul_plan(8, 16);
    let bounds = pcm::algos::bounds::matmul();
    let mut broken = contract::matmul();
    broken.max_h = |_, _| 1;
    let findings = audit_plan(
        &plan,
        &PlanAudit {
            family: "matmul",
            variant: "BspStaggered",
            machine: plat.name(),
            n: 8,
            p: 16,
            word: plat.word(),
            bounds: &bounds,
            contract: Some(&broken),
        },
    );
    assert!(
        findings.iter().any(|f| f.rule == AuditRule::HBound),
        "mis-declared h-relation was not flagged:\n{}",
        render(&findings)
    );
    assert!(findings.iter().any(|f| f.rule.id() == "A03-h-bound"));
    // The honest contract certifies the same plan clean.
    let clean = audit_matmul_plan(&plan, &plat, 8, 16);
    assert!(clean.is_empty(), "honest audit found:\n{}", render(&clean));
}

/// A mis-declared buffer envelope (1 byte per step) is flagged A04.
#[test]
fn misdeclared_buffer_envelope_is_flagged_a04() {
    let (plat, plan) = matmul_plan(8, 16);
    let mut bounds = pcm::algos::bounds::matmul();
    bounds.max_step_recv_bytes = |_, _, _| 1;
    let c = contract::matmul();
    let findings = audit_plan(
        &plan,
        &PlanAudit {
            family: "matmul",
            variant: "BspStaggered",
            machine: plat.name(),
            n: 8,
            p: 16,
            word: plat.word(),
            bounds: &bounds,
            contract: Some(&c),
        },
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule.id() == "A04-buffer-capacity"),
        "broken envelope was not flagged:\n{}",
        render(&findings)
    );
}

fn synthetic_cx<'a>(bounds: &'a pcm::algos::bounds::AuditBounds) -> PlanAudit<'a> {
    PlanAudit {
        family: "fixture",
        variant: "synthetic",
        machine: "none",
        n: 4,
        p: 2,
        word: 4,
        bounds,
        contract: None,
    }
}

fn word_record(src: usize, dst: usize, words: usize, word: usize) -> Message {
    Message::header(src, dst, MsgKind::Words, words, words * word)
}

/// A message delivered but never accounted for (and one never consumed)
/// violates conservation: A01.
#[test]
fn smuggled_and_unconsumed_messages_are_flagged_a01() {
    let bounds = pcm::algos::bounds::lu();
    let plan = RunPlan {
        p: 2,
        steps: vec![
            StepPlan::new(
                0,
                &CommPattern {
                    p: 2,
                    sends: vec![vec![word_record(0, 1, 2, 4)], vec![]],
                },
                vec![0, 0],
                vec![false, false],
            ),
            StepPlan::new(
                1,
                &CommPattern {
                    p: 2,
                    sends: vec![vec![], vec![]],
                },
                // Step 0 delivered 1 message to processor 1; claiming 3
                // (and never reading them) breaks conservation twice.
                vec![0, 3],
                vec![false, false],
            ),
        ],
        pending_inbox: vec![0, 0],
    };
    let findings = audit_plan(&plan, &synthetic_cx(&bounds));
    let a01: Vec<_> = findings
        .iter()
        .filter(|f| f.rule.id() == "A01-msg-conservation")
        .collect();
    assert!(
        a01.len() >= 2,
        "expected mismatch + unread findings:\n{}",
        render(&findings)
    );
}

/// Messages still pending when the machine drops are flagged A01.
#[test]
fn pending_inbox_at_drop_is_flagged_a01() {
    let bounds = pcm::algos::bounds::lu();
    let plan = RunPlan {
        p: 2,
        steps: vec![StepPlan::new(
            0,
            &CommPattern {
                p: 2,
                sends: vec![vec![word_record(0, 1, 1, 4)], vec![]],
            },
            vec![0, 0],
            vec![false, false],
        )],
        pending_inbox: vec![0, 1],
    };
    let findings = audit_plan(&plan, &synthetic_cx(&bounds));
    assert!(
        findings
            .iter()
            .any(|f| f.rule.id() == "A01-msg-conservation" && f.detail.contains("unconsumed")),
        "pending message was not flagged:\n{}",
        render(&findings)
    );
}

/// A shuffled superstep schedule (non-contiguous indices) is flagged A02.
#[test]
fn shuffled_schedule_is_flagged_a02() {
    let bounds = pcm::algos::bounds::lu();
    let plan = RunPlan {
        p: 2,
        steps: vec![StepPlan::new(
            5,
            &CommPattern {
                p: 2,
                sends: vec![vec![], vec![]],
            },
            vec![0, 0],
            vec![false, false],
        )],
        pending_inbox: vec![0, 0],
    };
    let findings = audit_plan(&plan, &synthetic_cx(&bounds));
    assert!(
        findings
            .iter()
            .any(|f| f.rule.id() == "A02-barrier-alignment"),
        "shuffled schedule was not flagged:\n{}",
        render(&findings)
    );
}

/// Word traffic with an undeclared per-message size (3 machine words in
/// one message, family declares no packets) is flagged A05.
#[test]
fn undeclared_packet_size_is_flagged_a05() {
    let bounds = pcm::algos::bounds::lu();
    assert!(bounds.packet_bytes.is_empty());
    let plan = RunPlan {
        p: 2,
        steps: vec![
            StepPlan::new(
                0,
                &CommPattern {
                    p: 2,
                    sends: vec![vec![Message::header(0, 1, MsgKind::Words, 1, 12)], vec![]],
                },
                vec![0, 0],
                vec![false, false],
            ),
            StepPlan::new(
                1,
                &CommPattern {
                    p: 2,
                    sends: vec![vec![], vec![]],
                },
                vec![0, 1],
                vec![false, true],
            ),
        ],
        pending_inbox: vec![0, 0],
    };
    let findings = audit_plan(&plan, &synthetic_cx(&bounds));
    assert!(
        findings.iter().any(|f| f.rule.id() == "A05-size-class"),
        "undeclared packet size was not flagged:\n{}",
        render(&findings)
    );
}

/// A closed form that shrinks with `n` is flagged A06 by the symbolic
/// shape certificate.
#[test]
fn shrinking_closed_form_is_flagged_a06() {
    let mut broken = contract::lu();
    broken.max_h = |n, _| 1000usize.saturating_sub(n);
    let findings = certify_contract_shape("lu", &broken, &[8, 16, 32, 64], &[16, 64], |n, p| {
        let side = p.isqrt();
        side * side == p && n % side == 0
    });
    assert!(
        findings.iter().any(|f| f.rule.id() == "A06-monotonicity"),
        "shrinking bound was not flagged:\n{}",
        render(&findings)
    );
    // The honest contract certifies clean on the same grid (the sweep
    // covers every other family's shape).
    let clean = certify_contract_shape(
        "lu",
        &contract::lu(),
        &[8, 16, 32, 64],
        &[16, 64],
        |n, p| {
            let side = p.isqrt();
            side * side == p && n % side == 0
        },
    );
    assert!(clean.is_empty(), "honest lu contract:\n{}", render(&clean));
}

/// The differential gate confirms the dry-run plan is exactly the priced
/// schedule and that the static bound dominates the observed trace.
#[test]
fn differential_gate_confirms_dominance() {
    let plat = Platform::gcel_with(16);
    let bounds = pcm::algos::bounds::matmul();
    let c = contract::matmul();
    let cx = PlanAudit {
        family: "matmul",
        variant: "BspNaive",
        machine: plat.name(),
        n: 8,
        p: 16,
        word: plat.word(),
        bounds: &bounds,
        contract: Some(&c),
    };
    let findings = differential_gate(&cx, &|| {
        matmul::run(&plat, 8, MatmulVariant::BspNaive, SEED).verified
    });
    assert!(
        findings.is_empty(),
        "differential gate found:\n{}",
        render(&findings)
    );
}
