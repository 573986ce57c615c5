//! The superstep auditor.
//!
//! [`StepAuditor`] reads one superstep's [`CommPattern`], inbox counts and
//! read flags, and keeps only the per-destination delivered counts and
//! the step count between supersteps; [`crate::plan::audit_run`] feeds it
//! every superstep of a dry run, and the rule fixtures call it directly on
//! hand-built patterns. [`certify_contract_shape`] covers the purely
//! symbolic rule A06, and [`differential_gate`] replays a point through
//! the priced simulator to assert the dry schedule *is* the schedule the
//! simulator prices, so the dry run's bounds hold for the priced trace.

use std::cell::RefCell;
use std::rc::Rc;

use pcm_algos::bounds::AuditBounds;
use pcm_models::{CostContract, DomainSpec};
use pcm_sim::{
    with_dry_probe, CommPattern, MsgKind, Needs, StepObs, SuperstepProbe, INLINE_PAYLOAD,
    MAX_POOLED_PAYLOAD,
};

use crate::rules::{AuditRule, Finding};
use crate::sweep::{shape_ns, SHAPE_PS};

/// The coordinate and declared envelopes a run is audited against. Owned
/// and `Copy`, so an observer factory can hold it.
#[derive(Clone, Copy)]
pub struct PlanAudit {
    /// Algorithm family name.
    pub family: &'static str,
    /// Variant within the family.
    pub variant: &'static str,
    /// Machine personality name.
    pub machine: &'static str,
    /// Problem size.
    pub n: usize,
    /// Processor count.
    pub p: usize,
    /// Machine word size in bytes.
    pub word: usize,
    /// The family's declared buffer envelope.
    pub bounds: AuditBounds,
    /// The family's cost contract, when a predictor ships one.
    pub contract: Option<CostContract>,
}

impl PlanAudit {
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

/// Rules A01–A05 over one machine's run, fed one superstep at a time:
/// [`StepAuditor::step`] as each superstep ends, then
/// [`StepAuditor::finish`] when the machine drops.
pub struct StepAuditor {
    cx: PlanAudit,
    /// Messages the previous superstep delivered to each processor; one
    /// slot per processor of the machine.
    delivered: Vec<usize>,
    /// Supersteps checked so far.
    pub(crate) steps: usize,
    /// An A02 width mismatch was found: the other rules index the
    /// per-processor slices, so the walk stops there.
    misaligned: bool,
    findings: Vec<Finding>,
}

impl StepAuditor {
    /// An auditor for a `p`-processor machine audited against `cx`.
    pub fn new(cx: PlanAudit, p: usize) -> Self {
        StepAuditor {
            cx,
            delivered: vec![0; p],
            steps: 0,
            misaligned: false,
            findings: Vec::new(),
        }
    }

    fn push(&mut self, rule: AuditRule, step: Option<usize>, detail: String) {
        let finding = self.cx.finding(rule, step, detail);
        self.findings.push(finding);
    }

    /// Checks superstep `index`, whose communication is `pattern`, in which
    /// processor `pid` held `inbox_count[pid]` messages delivered at the
    /// previous barrier and read its inbox iff `inbox_read[pid]`.
    pub fn step(
        &mut self,
        index: usize,
        pattern: &CommPattern,
        inbox_count: &[usize],
        inbox_read: &[bool],
    ) {
        if self.misaligned {
            return;
        }
        let (p, position) = (self.delivered.len(), self.steps);
        self.steps += 1;

        // A02: structural barrier alignment.
        if index != position {
            self.push(
                AuditRule::BarrierAlignment,
                Some(position),
                format!("superstep index {index} at schedule position {position}"),
            );
        }
        if pattern.p != p
            || pattern.sends.len() != p
            || inbox_count.len() != p
            || inbox_read.len() != p
        {
            self.push(
                AuditRule::BarrierAlignment,
                Some(position),
                format!(
                    "plan width diverges from P={p}: pattern.p={}, {} send lists, \
                     {} inbox counts, {} read flags",
                    pattern.p,
                    pattern.sends.len(),
                    inbox_count.len(),
                    inbox_read.len()
                ),
            );
            self.misaligned = true;
            return;
        }

        // A01: message conservation. Each send becomes exactly one inbox
        // message at the next barrier, so this step's inbox must match the
        // previous step's deliveries, and every delivery must be consumed
        // in the step it arrives.
        for dst in 0..p {
            let (have, expect) = (inbox_count[dst], self.delivered[dst]);
            if have != expect {
                self.push(
                    AuditRule::MsgConservation,
                    Some(index),
                    format!(
                        "processor {dst} holds {have} message(s) but the previous \
                         superstep delivered {expect}"
                    ),
                );
            }
            if have > 0 && !inbox_read[dst] {
                self.push(
                    AuditRule::MsgConservation,
                    Some(index),
                    format!("processor {dst} never read its {have} delivered message(s)"),
                );
            }
        }

        // A03: the static h-relation against the contract.
        if let Some(c) = self.cx.contract {
            let bound = c.h_bound(self.cx.n, self.cx.p);
            let h = pattern.h_send().max(pattern.h_recv());
            if h > bound {
                self.push(
                    AuditRule::HBound,
                    Some(index),
                    format!("static h-relation {h} exceeds contract bound {bound}"),
                );
            }
        }

        // A04: receive volume against the family's declared buffer
        // envelope.
        let envelope = (self.cx.bounds.max_step_recv_bytes)(self.cx.n, self.cx.p, self.cx.word);
        let recv = pattern.bytes_received();
        if let Some((dst, &bytes)) = recv.iter().enumerate().max_by_key(|&(_, &b)| b) {
            if bytes > envelope {
                self.push(
                    AuditRule::BufferCapacity,
                    Some(index),
                    format!(
                        "processor {dst} receives {bytes} bytes, declared envelope is \
                         {envelope}"
                    ),
                );
            }
        }

        self.delivered.fill(0);
        for m in pattern.sends.iter().flatten() {
            if m.dst < p {
                self.delivered[m.dst] += 1;
            }
            // A04: every single transfer against the pooled payload classes.
            if m.logical_bytes as usize > MAX_POOLED_PAYLOAD {
                self.push(
                    AuditRule::BufferCapacity,
                    Some(index),
                    format!(
                        "a {} transfer of {} bytes exceeds the largest pool class \
                         ({MAX_POOLED_PAYLOAD} bytes)",
                        kind_name(m.kind),
                        m.logical_bytes
                    ),
                );
            }
            // A05: word traffic must use the machine word or a declared
            // packet size, and stay inside the inline payload fast path.
            if m.kind != MsgKind::Words || m.logical_words == 0 {
                continue;
            }
            let (word, packets) = (self.cx.word, self.cx.bounds.packet_bytes);
            let per_msg = m.logical_bytes.div_ceil(m.logical_words) as usize;
            let declared = per_msg == word
                || packets.iter().any(|&b| per_msg <= b)
                // A partial trailing packet prices below the word size.
                || (!packets.is_empty() && per_msg < word);
            if !declared {
                self.push(
                    AuditRule::SizeClass,
                    Some(index),
                    format!(
                        "word message of {per_msg} bytes is neither the {word}-byte \
                         machine word nor a declared packet size {packets:?}"
                    ),
                );
            } else if per_msg > INLINE_PAYLOAD {
                self.push(
                    AuditRule::SizeClass,
                    Some(index),
                    format!(
                        "word message of {per_msg} bytes exceeds the inline payload \
                         class ({INLINE_PAYLOAD} bytes)"
                    ),
                );
            }
        }
    }

    /// Closes the run with `pending[pid]` messages still in `pid`'s inbox
    /// when the machine dropped: A01 for them, and A03 for the superstep
    /// count. Returns every finding of the run, in the order found.
    pub fn finish(&mut self, pending: &[usize]) -> Vec<Finding> {
        if !self.misaligned {
            self.close(pending);
        }
        std::mem::take(&mut self.findings)
    }

    fn close(&mut self, pending: &[usize]) {
        let p = self.delivered.len();
        if pending.len() != p {
            self.push(
                AuditRule::BarrierAlignment,
                None,
                format!("{} pending-inbox slots for P={p}", pending.len()),
            );
            return;
        }
        // A01: nothing may remain pending when the machine drops.
        for dst in 0..p {
            let (pending, expect) = (pending[dst], self.delivered[dst]);
            if pending != expect {
                self.push(
                    AuditRule::MsgConservation,
                    None,
                    format!(
                        "processor {dst} dropped with {pending} pending message(s), \
                         final superstep delivered {expect}"
                    ),
                );
            }
            if pending > 0 {
                self.push(
                    AuditRule::MsgConservation,
                    None,
                    format!("processor {dst} dropped with {pending} unconsumed message(s)"),
                );
            }
        }
        // A03: the superstep count against the contract.
        if let Some(c) = self.cx.contract {
            let (min, max) = c.superstep_range(self.cx.n, self.cx.p);
            let steps = self.steps;
            if steps < min || steps > max {
                self.push(
                    AuditRule::HBound,
                    None,
                    format!("schedule has {steps} superstep(s), contract allows {min}..={max}"),
                );
            }
        }
    }
}

fn kind_name(kind: MsgKind) -> &'static str {
    match kind {
        MsgKind::Words => "word",
        MsgKind::Block => "block",
        MsgKind::Xnet => "xnet",
    }
}

/// Certifies rule A06: the symbolic shape of a contract's closed-form
/// bounds over the [`shape_ns`] × [`SHAPE_PS`] grid, restricted to the
/// points `domain` admits.
pub fn certify_contract_shape(
    family: &str,
    contract: &CostContract,
    domain: &DomainSpec,
) -> Vec<Finding> {
    use pcm_models::contract::BoundAnomaly;
    contract
        .certify_shape(&shape_ns(domain), &SHAPE_PS, domain)
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

/// `(h_send, h_recv, messages, bytes)` of one superstep.
type StepShape = (usize, usize, usize, usize);

/// Records the [`StepShape`] of every dry superstep it sees.
struct ShapeRecorder {
    sink: Rc<RefCell<Vec<StepShape>>>,
}

impl SuperstepProbe for ShapeRecorder {
    fn needs(&self) -> Needs {
        Needs::Schedule
    }

    fn observe(&mut self, obs: &StepObs<'_>) {
        let pattern = obs
            .detail
            .expect("schedule observers get the detail")
            .pattern;
        self.sink.borrow_mut().push((
            pattern.h_send(),
            pattern.h_recv(),
            pattern.total_messages(),
            pattern.total_bytes(),
        ));
    }
}

/// The differential gate: replays one sweep point dry and through the
/// *priced* simulator (same seed) and asserts that every dry superstep has
/// the h-relation, message count and volume of the superstep the
/// simulator priced. Once they are equal, the A03 check of the dry run
/// has already judged the priced supersteps against the contract. A
/// mismatch means the static certificates do not transfer to real runs
/// and is reported as schedule divergence (A02).
pub fn differential_gate(cx: &PlanAudit, run: &dyn Fn() -> bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let sink: Rc<RefCell<Vec<StepShape>>> = Rc::default();
    let handle = sink.clone();
    let verified_dry = with_dry_probe(
        move |_p| {
            Box::new(ShapeRecorder {
                sink: handle.clone(),
            })
        },
        run,
    );
    let shapes = sink.take();
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
    if shapes.len() != traces.len() {
        findings.push(cx.finding(
            AuditRule::BarrierAlignment,
            None,
            format!(
                "dry run audited {} superstep(s), priced run traced {}",
                shapes.len(),
                traces.len()
            ),
        ));
        return findings;
    }
    for (step, (&(h_send, h_recv, messages, bytes), tr)) in shapes.iter().zip(&traces).enumerate() {
        if h_send != tr.h_send
            || h_recv != tr.h_recv
            || messages != tr.messages
            || bytes != tr.bytes
        {
            findings.push(cx.finding(
                AuditRule::BarrierAlignment,
                Some(step),
                format!(
                    "dry/priced divergence: dry (h_s={h_send}, h_r={h_recv}, \
                     msgs={messages}, bytes={bytes}) vs trace (h_s={}, h_r={}, \
                     msgs={}, bytes={})",
                    tr.h_send, tr.h_recv, tr.messages, tr.bytes
                ),
            ));
        }
    }
    findings
}
