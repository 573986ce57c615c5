//! Static audit sweep: the `pcm-audit` abstract interpreter certifies
//! every algorithm family × machine × `(n, p)` grid point, and the
//! fixtures prove each rule actually bites — a mis-declared h-relation or
//! superstep count is flagged A03, a broken buffer envelope A04, a smuggled message A01, an
//! undeclared packet size A05, a shuffled or too-wide schedule A02 and a
//! shrinking closed form A06. Hand-built schedules go straight to the
//! per-superstep checker; real runs go through `audit_run`'s dry-scope
//! observer.

use std::sync::Arc;

use pcm::algos::catalog::{families, SEED};
use pcm::algos::matmul::{self, MatmulVariant};
use pcm::models::{contract, DomainSpec};
use pcm::sim::{CommPattern, IdealNetwork, Machine, Message, MsgKind, UniformCompute};
use pcm::Platform;
use pcm_audit::{
    audit_run, certify_contract_shape, differential_gate, render, sweep, AuditRule, Finding,
    PlanAudit, StepAuditor, SweepOptions,
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
    let machines: usize = fams
        .iter()
        .map(|f| 3 * f.grid.len() * f.variants.len())
        .sum();
    let shapes = fams.iter().filter(|f| f.contract.is_some()).count();
    let stats = outcome.stats;
    assert_eq!(stats.grid_points, grid_points);
    assert_eq!(stats.plans_audited, machines);
    assert_eq!(stats.differential_points, grid_points);
    assert_eq!(stats.shape_contracts, shapes);
}

/// The audit context of the staggered matmul at `(n, p)` on `plat`.
fn matmul_cx(plat: &Platform, n: usize, p: usize) -> PlanAudit {
    PlanAudit {
        family: "matmul",
        variant: "BspStaggered",
        machine: plat.name(),
        n,
        p,
        word: plat.word(),
        bounds: pcm::algos::bounds::matmul(),
        contract: Some(contract::matmul()),
    }
}

/// Audits one real staggered matmul run against `cx`; the run must
/// verify and build exactly one machine.
fn audit_matmul(plat: &Platform, cx: PlanAudit) -> Vec<Finding> {
    let (result, run) = audit_run(cx, || {
        matmul::run(plat, cx.n, MatmulVariant::BspStaggered, SEED)
    });
    assert!(result.verified);
    assert_eq!(run.machines, 1, "one machine, one audit");
    assert!(run.supersteps > 0);
    run.findings
}

/// Acceptance fixture: a deliberately mis-declared h-relation — the
/// contract claims at most 1 word per processor per superstep — must be
/// flagged with rule A03 on a real dry run.
#[test]
fn misdeclared_h_relation_is_flagged_a03() {
    let plat = Platform::maspar_with(16);
    let mut broken = contract::matmul();
    broken.max_h = |_, _| 1;
    let findings = audit_matmul(
        &plat,
        PlanAudit {
            contract: Some(broken),
            ..matmul_cx(&plat, 8, 16)
        },
    );
    assert!(
        findings.iter().any(|f| f.rule == AuditRule::HBound),
        "mis-declared h-relation was not flagged:\n{}",
        render(&findings)
    );
    assert!(findings.iter().any(|f| f.rule.id() == "A03-h-bound"));
    // The honest contract certifies the same run clean.
    let clean = audit_matmul(&plat, matmul_cx(&plat, 8, 16));
    assert!(clean.is_empty(), "honest audit found:\n{}", render(&clean));
}

/// A mis-declared superstep count — the contract claims 4..=5 supersteps
/// where the matmul runs 3 — is flagged A03 when the machine drops.
#[test]
fn misdeclared_superstep_count_is_flagged_a03() {
    let plat = Platform::maspar_with(16);
    let mut broken = contract::matmul();
    broken.supersteps = |_, _| (4, 5);
    let findings = audit_matmul(
        &plat,
        PlanAudit {
            contract: Some(broken),
            ..matmul_cx(&plat, 8, 16)
        },
    );
    let got: Vec<_> = findings
        .iter()
        .map(|f| (f.rule, f.step, f.detail.as_str()))
        .collect();
    assert_eq!(
        got,
        [(
            AuditRule::HBound,
            None,
            "schedule has 3 superstep(s), contract allows 4..=5"
        )],
        "{}",
        render(&findings)
    );
}

/// A mis-declared buffer envelope (1 byte per step) is flagged A04.
#[test]
fn misdeclared_buffer_envelope_is_flagged_a04() {
    let plat = Platform::maspar_with(16);
    let mut bounds = pcm::algos::bounds::matmul();
    bounds.max_step_recv_bytes = |_, _, _| 1;
    let findings = audit_matmul(
        &plat,
        PlanAudit {
            bounds,
            ..matmul_cx(&plat, 8, 16)
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

/// A two-processor context with the LU bounds and no contract.
fn synthetic_cx() -> PlanAudit {
    PlanAudit {
        family: "fixture",
        variant: "synthetic",
        machine: "none",
        n: 4,
        p: 2,
        word: 4,
        bounds: pcm::algos::bounds::lu(),
        contract: None,
    }
}

fn word_record(src: usize, dst: usize, words: usize, word: usize) -> Message {
    Message::header(src, dst, MsgKind::Words, words, words * word)
}

/// A pattern of `p` processors whose only sends are `sends`.
fn pattern(p: usize, sends: Vec<Message>) -> CommPattern {
    let mut lists = vec![Vec::new(); p];
    for m in sends {
        lists[m.src].push(m);
    }
    CommPattern { p, sends: lists }
}

/// A message delivered but never accounted for (and one never consumed)
/// violates conservation: A01.
#[test]
fn smuggled_and_unconsumed_messages_are_flagged_a01() {
    let mut audit = StepAuditor::new(synthetic_cx(), 2);
    audit.step(
        0,
        &pattern(2, vec![word_record(0, 1, 2, 4)]),
        &[0, 0],
        &[false, false],
    );
    // Step 0 delivered 1 message to processor 1; claiming 3 (and never
    // reading them) breaks conservation twice.
    audit.step(1, &pattern(2, vec![]), &[0, 3], &[false, false]);
    let findings = audit.finish(&[0, 0]);
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
    let mut audit = StepAuditor::new(synthetic_cx(), 2);
    audit.step(
        0,
        &pattern(2, vec![word_record(0, 1, 1, 4)]),
        &[0, 0],
        &[false, false],
    );
    let findings = audit.finish(&[0, 1]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule.id() == "A01-msg-conservation" && f.detail.contains("unconsumed")),
        "pending message was not flagged:\n{}",
        render(&findings)
    );
}

/// A real two-processor machine that leaves a delivered word unread is
/// flagged A01 through `audit_run`'s observer, at the superstep that
/// ignored its inbox.
#[test]
fn unread_delivery_in_a_real_run_is_flagged_a01() {
    let ((), run) = audit_run(synthetic_cx(), || {
        let mut m = Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; 2],
            SEED,
        );
        m.superstep(|ctx| {
            if ctx.pid() == 0 {
                ctx.send_word_u32(1, 7);
            }
        });
        m.sync(); // processor 1 never reads the word
    });
    assert_eq!((run.machines, run.supersteps), (1, 2));
    let unread: Vec<_> = run
        .findings
        .iter()
        .map(|f| (f.rule, f.step, f.detail.as_str()))
        .collect();
    assert_eq!(
        unread,
        [(
            AuditRule::MsgConservation,
            Some(1),
            "processor 1 never read its 1 delivered message(s)"
        )],
        "{}",
        render(&run.findings)
    );
}

/// A shuffled superstep schedule (non-contiguous indices) is flagged A02.
#[test]
fn shuffled_schedule_is_flagged_a02() {
    let mut audit = StepAuditor::new(synthetic_cx(), 2);
    audit.step(5, &pattern(2, vec![]), &[0, 0], &[false, false]);
    let findings = audit.finish(&[0, 0]);
    assert!(
        findings
            .iter()
            .any(|f| f.rule.id() == "A02-barrier-alignment"),
        "shuffled schedule was not flagged:\n{}",
        render(&findings)
    );
}

/// A pattern wider than the machine is flagged A02, and the walk stops
/// there: the rules after it index per-processor slices of width `P`.
#[test]
fn pattern_wider_than_the_machine_is_flagged_a02() {
    let mut audit = StepAuditor::new(synthetic_cx(), 2);
    audit.step(
        0,
        &pattern(3, vec![word_record(2, 1, 1, 4)]),
        &[0, 0],
        &[false, false],
    );
    // Would be an A01 mismatch and an unread inbox on an aligned walk.
    audit.step(1, &pattern(2, vec![]), &[0, 5], &[false, false]);
    let findings = audit.finish(&[0, 5]);
    let got: Vec<_> = findings.iter().map(|f| (f.rule, f.step)).collect();
    assert_eq!(
        got,
        [(AuditRule::BarrierAlignment, Some(0))],
        "{}",
        render(&findings)
    );
    assert!(findings[0].detail.contains("pattern.p=3"));
}

/// Word traffic with an undeclared per-message size (3 machine words in
/// one message, family declares no packets) is flagged A05.
#[test]
fn undeclared_packet_size_is_flagged_a05() {
    let cx = synthetic_cx();
    assert!(cx.bounds.packet_bytes.is_empty());
    let mut audit = StepAuditor::new(cx, 2);
    let wide = Message::header(0, 1, MsgKind::Words, 1, 12);
    audit.step(0, &pattern(2, vec![wide]), &[0, 0], &[false, false]);
    audit.step(1, &pattern(2, vec![]), &[0, 1], &[false, true]);
    let findings = audit.finish(&[0, 0]);
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
    let findings = certify_contract_shape("lu", &broken, &DomainSpec::lu());
    assert!(
        findings.iter().any(|f| f.rule.id() == "A06-monotonicity"),
        "shrinking bound was not flagged:\n{}",
        render(&findings)
    );
    // The honest contract certifies clean on the same grid (the sweep
    // covers every other family's shape).
    let clean = certify_contract_shape("lu", &contract::lu(), &DomainSpec::lu());
    assert!(clean.is_empty(), "honest lu contract:\n{}", render(&clean));
}

/// The differential gate confirms every dry superstep matches the priced
/// one, so the dry run's A03 verdict holds for the priced trace.
#[test]
fn differential_gate_confirms_dominance() {
    let plat = Platform::gcel_with(16);
    let cx = PlanAudit {
        variant: "BspNaive",
        ..matmul_cx(&plat, 8, 16)
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
