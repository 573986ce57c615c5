//! The static plan auditor.
//!
//! [`audit_plan`] walks one extracted [`RunPlan`] — the superstep-by-
//! superstep communication schedule a dry run produced, with no network
//! pricing executed — and certifies rules A01–A05 against the family's
//! declared [`AuditBounds`] and (where one exists) its [`CostContract`].
//! [`certify_contract_shape`] covers the purely symbolic rule A06, and
//! [`differential_gate`] replays a point through the priced simulator to
//! assert the static plan *is* the schedule the simulator prices and that
//! every static bound dominates the observed trace.

use pcm_algos::bounds::AuditBounds;
use pcm_models::CostContract;
use pcm_sim::{extract_plans, MsgKind, RunPlan, INLINE_PAYLOAD, MAX_POOLED_PAYLOAD};

use crate::rules::{AuditRule, Finding};

/// The coordinate and declared envelopes one plan is audited against.
pub struct PlanAudit<'a> {
    /// Algorithm family name.
    pub family: &'a str,
    /// Variant within the family.
    pub variant: &'a str,
    /// Machine personality name.
    pub machine: &'a str,
    /// Problem size.
    pub n: usize,
    /// Processor count.
    pub p: usize,
    /// Machine word size in bytes.
    pub word: usize,
    /// The family's declared buffer envelope.
    pub bounds: &'a AuditBounds,
    /// The family's cost contract, when a predictor ships one.
    pub contract: Option<&'a CostContract>,
}

impl PlanAudit<'_> {
    fn finding(&self, rule: AuditRule, step: Option<usize>, detail: String) -> Finding {
        Finding {
            rule,
            family: self.family.to_string(),
            variant: self.variant.to_string(),
            machine: self.machine.to_string(),
            n: self.n,
            p: self.p,
            step,
            detail,
        }
    }
}

/// Certifies rules A01–A05 on one extracted plan.
pub fn audit_plan(plan: &RunPlan, cx: &PlanAudit<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let p = plan.p;

    // A02: structural barrier alignment. The remaining rules index into
    // the per-processor vectors, so misalignment aborts the walk.
    for (i, step) in plan.steps.iter().enumerate() {
        if step.step != i {
            findings.push(cx.finding(
                AuditRule::BarrierAlignment,
                Some(i),
                format!("superstep index {} at schedule position {i}", step.step),
            ));
        }
        let pattern = step.pattern();
        if pattern.p != p
            || pattern.sends.len() != p
            || step.inbox_count.len() != p
            || step.inbox_read.len() != p
        {
            findings.push(cx.finding(
                AuditRule::BarrierAlignment,
                Some(i),
                format!(
                    "plan width diverges from P={p}: pattern.p={}, {} send lists, \
                     {} inbox counts, {} read flags",
                    pattern.p,
                    pattern.sends.len(),
                    step.inbox_count.len(),
                    step.inbox_read.len()
                ),
            ));
            return findings;
        }
    }
    if plan.pending_inbox.len() != p {
        findings.push(cx.finding(
            AuditRule::BarrierAlignment,
            None,
            format!("{} pending-inbox slots for P={p}", plan.pending_inbox.len()),
        ));
        return findings;
    }

    // A01: message conservation. Each send record becomes exactly one
    // inbox message at the next barrier; the recorded inbox of step s must
    // therefore match the delivery counts of step s-1, every delivery must
    // be consumed in the step it arrives, and nothing may remain pending
    // when the machine drops.
    let mut delivered = vec![0usize; p];
    for step in &plan.steps {
        for (dst, (&have, &expect)) in step.inbox_count.iter().zip(&delivered).enumerate() {
            if have != expect {
                findings.push(cx.finding(
                    AuditRule::MsgConservation,
                    Some(step.step),
                    format!(
                        "processor {dst} holds {have} message(s) but the previous \
                         superstep delivered {expect}"
                    ),
                ));
            }
        }
        for (dst, (&have, &read)) in step.inbox_count.iter().zip(&step.inbox_read).enumerate() {
            if have > 0 && !read {
                findings.push(cx.finding(
                    AuditRule::MsgConservation,
                    Some(step.step),
                    format!("processor {dst} never read its {have} delivered message(s)"),
                ));
            }
        }
        for d in delivered.iter_mut() {
            *d = 0;
        }
        for recs in &step.pattern().sends {
            for r in recs {
                if r.dst < p {
                    delivered[r.dst] += 1;
                }
            }
        }
    }
    for (dst, (&pending, &expect)) in plan.pending_inbox.iter().zip(&delivered).enumerate() {
        if pending != expect {
            findings.push(cx.finding(
                AuditRule::MsgConservation,
                None,
                format!(
                    "processor {dst} dropped with {pending} pending message(s), \
                     final superstep delivered {expect}"
                ),
            ));
        }
        if pending > 0 {
            findings.push(cx.finding(
                AuditRule::MsgConservation,
                None,
                format!("processor {dst} dropped with {pending} unconsumed message(s)"),
            ));
        }
    }

    // A03: static h-relation and superstep count against the contract.
    if let Some(c) = cx.contract {
        let bound = c.h_bound(cx.n, cx.p);
        for step in &plan.steps {
            let pattern = step.pattern();
            let h = pattern.h_send().max(pattern.h_recv());
            if h > bound {
                findings.push(cx.finding(
                    AuditRule::HBound,
                    Some(step.step),
                    format!("static h-relation {h} exceeds contract bound {bound}"),
                ));
            }
        }
        let (min, max) = c.superstep_range(cx.n, cx.p);
        let steps = plan.steps.len();
        if steps < min || steps > max {
            findings.push(cx.finding(
                AuditRule::HBound,
                None,
                format!("schedule has {steps} superstep(s), contract allows {min}..={max}"),
            ));
        }
    }

    // A04: receive volume against the family's declared buffer envelope,
    // and every single transfer against the pooled payload classes.
    let envelope = (cx.bounds.max_step_recv_bytes)(cx.n, cx.p, cx.word);
    for step in &plan.steps {
        let pattern = step.pattern();
        let recv = pattern.bytes_received();
        if let Some((dst, &bytes)) = recv.iter().enumerate().max_by_key(|&(_, &b)| b) {
            if bytes > envelope {
                findings.push(cx.finding(
                    AuditRule::BufferCapacity,
                    Some(step.step),
                    format!(
                        "processor {dst} receives {bytes} bytes, declared envelope is \
                         {envelope}"
                    ),
                ));
            }
        }
        for recs in &pattern.sends {
            for r in recs {
                if r.logical_bytes as usize > MAX_POOLED_PAYLOAD {
                    findings.push(cx.finding(
                        AuditRule::BufferCapacity,
                        Some(step.step),
                        format!(
                            "a {} transfer of {} bytes exceeds the largest pool class \
                             ({MAX_POOLED_PAYLOAD} bytes)",
                            kind_name(r.kind),
                            r.logical_bytes
                        ),
                    ));
                }
            }
        }
    }

    // A05: word traffic must use the machine word or a declared packet
    // size, and stay inside the inline payload fast path.
    for step in &plan.steps {
        for recs in &step.pattern().sends {
            for r in recs {
                if r.kind != MsgKind::Words || r.logical_words == 0 {
                    continue;
                }
                let per_msg = r.logical_bytes.div_ceil(r.logical_words) as usize;
                let declared = per_msg == cx.word
                    || cx.bounds.packet_bytes.iter().any(|&b| per_msg <= b)
                    // A partial trailing packet prices below the word size.
                    || (!cx.bounds.packet_bytes.is_empty() && per_msg < cx.word);
                if !declared {
                    findings.push(cx.finding(
                        AuditRule::SizeClass,
                        Some(step.step),
                        format!(
                            "word message of {per_msg} bytes is neither the {}-byte \
                             machine word nor a declared packet size {:?}",
                            cx.word, cx.bounds.packet_bytes
                        ),
                    ));
                } else if per_msg > INLINE_PAYLOAD {
                    findings.push(cx.finding(
                        AuditRule::SizeClass,
                        Some(step.step),
                        format!(
                            "word message of {per_msg} bytes exceeds the inline payload \
                             class ({INLINE_PAYLOAD} bytes)"
                        ),
                    ));
                }
            }
        }
    }

    findings
}

fn kind_name(kind: MsgKind) -> &'static str {
    match kind {
        MsgKind::Words => "word",
        MsgKind::Block => "block",
        MsgKind::Xnet => "xnet",
    }
}

/// Certifies rule A06: the symbolic shape of a contract's closed-form
/// bounds over an `(ns × ps)` grid, restricted to `valid` points.
pub fn certify_contract_shape(
    family: &str,
    contract: &CostContract,
    ns: &[usize],
    ps: &[usize],
    valid: impl Fn(usize, usize) -> bool,
) -> Vec<Finding> {
    use pcm_models::contract::BoundAnomaly;
    contract
        .certify_shape(ns, ps, valid)
        .into_iter()
        .map(|a| {
            let (n, p) = match a {
                BoundAnomaly::NonMonotoneInN { p, n_hi, .. } => (n_hi, p),
                BoundAnomaly::ShrinkingVolumeInP { n, p_hi, .. } => (n, p_hi),
                BoundAnomaly::EmptySuperstepRange { n, p, .. } => (n, p),
            };
            Finding {
                rule: AuditRule::Monotonicity,
                family: family.to_string(),
                variant: String::new(),
                machine: String::new(),
                n,
                p,
                step: None,
                detail: a.to_string(),
            }
        })
        .collect()
}

/// The differential gate: replays one sweep point through the *priced*
/// simulator (same seed) and asserts that the dry-run plan is exactly the
/// schedule the simulator priced, and that the contract's static bound
/// dominates every observed superstep of the trace. A mismatch means the
/// static certificates do not transfer to real runs and is reported as
/// schedule divergence (A02) or a broken dominance claim (A03).
pub fn differential_gate(cx: &PlanAudit<'_>, run: &dyn Fn() -> bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let (verified_dry, plans) = extract_plans(run);
    let (verified_priced, traces) = pcm_sim::collect_traces(run);
    if !verified_dry || !verified_priced {
        findings.push(cx.finding(
            AuditRule::BarrierAlignment,
            None,
            format!(
                "result verification failed (dry-run verified={verified_dry}, \
                 priced verified={verified_priced})"
            ),
        ));
        return findings;
    }
    let plan_steps: Vec<_> = plans.iter().flat_map(|pl| pl.steps.iter()).collect();
    if plan_steps.len() != traces.len() {
        findings.push(cx.finding(
            AuditRule::BarrierAlignment,
            None,
            format!(
                "dry run extracted {} superstep(s), priced run traced {}",
                plan_steps.len(),
                traces.len()
            ),
        ));
        return findings;
    }
    for (step, (pl, tr)) in plan_steps.iter().zip(&traces).enumerate() {
        let pattern = pl.pattern();
        let (h_send, h_recv) = (pattern.h_send(), pattern.h_recv());
        let (messages, bytes) = (pattern.total_messages(), pattern.total_bytes());
        if h_send != tr.h_send
            || h_recv != tr.h_recv
            || messages != tr.messages
            || bytes != tr.bytes
        {
            findings.push(cx.finding(
                AuditRule::BarrierAlignment,
                Some(step),
                format!(
                    "plan/trace divergence: plan (h_s={h_send}, h_r={h_recv}, \
                     msgs={messages}, bytes={bytes}) vs trace (h_s={}, h_r={}, \
                     msgs={}, bytes={})",
                    tr.h_send, tr.h_recv, tr.messages, tr.bytes
                ),
            ));
        }
        if let Some(c) = cx.contract {
            let bound = c.h_bound(cx.n, cx.p);
            let observed = tr.h_send.max(tr.h_recv);
            if observed > bound {
                findings.push(cx.finding(
                    AuditRule::HBound,
                    Some(step),
                    format!("observed h-relation {observed} escapes static bound {bound}"),
                ));
            }
        }
    }
    findings
}
