//! Auditing a run's communication plan as it executes.
//!
//! [`audit_run`] runs a body in a dry observer scope
//! (`pcm_sim::with_dry_probe`: the closures run and messages carry their
//! real payloads, but no network pricing executes) and certifies rules
//! A01–A05 on every machine the body builds, one superstep at a time: as
//! each superstep ends, its live [`pcm_sim::CommPattern`], inbox counts
//! and read flags go to a [`StepAuditor`], and when the machine drops its
//! pending inbox closes the run. No superstep is stored.

use std::cell::RefCell;
use std::rc::Rc;

use pcm_sim::{with_dry_probe, Needs, RunEnd, StepObs, SuperstepProbe};

use crate::checker::{PlanAudit, StepAuditor};
use crate::rules::Finding;

/// What [`audit_run`] found over the machines its body built.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunAudit {
    /// Every finding, machine by machine in drop order.
    pub findings: Vec<Finding>,
    /// Machines audited.
    pub machines: usize,
    /// Supersteps audited, over all machines.
    pub supersteps: usize,
}

/// The dry-scope observer behind [`audit_run`]: one per machine, feeding
/// each superstep's detail to a [`StepAuditor`] through reused slices.
struct AuditProbe {
    auditor: StepAuditor,
    inbox_count: Vec<usize>,
    inbox_read: Vec<bool>,
    sink: Rc<RefCell<RunAudit>>,
}

impl SuperstepProbe for AuditProbe {
    fn needs(&self) -> Needs {
        Needs::Schedule
    }

    fn observe(&mut self, obs: &StepObs<'_>) {
        let d = obs.detail.expect("schedule observers get the detail");
        let procs = 0..d.nprocs();
        self.inbox_count.clear();
        self.inbox_count
            .extend(procs.clone().map(|pid| d.inbox_count(pid)));
        self.inbox_read.clear();
        self.inbox_read.extend(procs.map(|pid| d.inbox_read(pid)));
        self.auditor.step(
            obs.trace.index,
            d.pattern,
            &self.inbox_count,
            &self.inbox_read,
        );
    }

    fn finish(&mut self, end: &RunEnd<'_>) {
        self.inbox_count.clear();
        self.inbox_count
            .extend((0..end.nprocs()).map(|pid| end.pending_inbox(pid)));
        let findings = self.auditor.finish(&self.inbox_count);
        let mut run = self.sink.borrow_mut();
        run.findings.extend(findings);
        run.machines += 1;
        run.supersteps += self.auditor.steps;
    }
}

/// Runs `body` in a dry observer scope and certifies rules A01–A05 on
/// every machine it builds, superstep by superstep; returns the body's
/// result and what the audit found. A machine reports when it is dropped,
/// so `body` must drop its machines before it returns (every algorithm
/// entry point in `pcm-algos` does).
pub fn audit_run<R>(cx: PlanAudit, body: impl FnOnce() -> R) -> (R, RunAudit) {
    let sink: Rc<RefCell<RunAudit>> = Rc::default();
    let handle = sink.clone();
    let result = with_dry_probe(
        move |p| {
            Box::new(AuditProbe {
                auditor: StepAuditor::new(cx, p),
                inbox_count: Vec::with_capacity(p),
                inbox_read: Vec::with_capacity(p),
                sink: handle.clone(),
            })
        },
        body,
    );
    let run = sink.take();
    (result, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::AuditRule;
    use pcm_algos::bounds::AuditBounds;
    use pcm_core::SimTime;
    use pcm_sim::{IdealNetwork, Machine, UniformCompute};
    use std::sync::Arc;

    /// A `p`-processor, 4-byte-word context with no contract, whose
    /// envelope admits two words per processor per superstep.
    fn cx(p: usize) -> PlanAudit {
        PlanAudit {
            family: "fixture",
            variant: "plan",
            machine: "ideal",
            n: p,
            p,
            word: 4,
            bounds: AuditBounds {
                family: "fixture",
                max_step_recv_bytes: |_n, _p, word| 2 * word,
                packet_bytes: &[],
            },
            contract: None,
        }
    }

    fn machine(p: usize) -> Machine<u32> {
        Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; p],
            9,
        )
    }

    #[test]
    fn dry_run_skips_pricing_but_delivers_payloads() {
        let ((), run) = audit_run(cx(2), || {
            let mut m = machine(2);
            m.superstep(|ctx| {
                ctx.charge(3.0);
                if ctx.pid() == 0 {
                    ctx.send_word_u32(1, 42);
                }
            });
            m.superstep(|ctx| {
                if ctx.pid() == 1 {
                    // Payloads still flow: data-dependent schedules depend
                    // on them being exact.
                    assert_eq!(ctx.msgs()[0].word_u32(), 42);
                }
            });
            assert_eq!(m.time(), SimTime::ZERO, "the clock never advanced");
            assert_eq!(m.breakdown().supersteps, 0, "dry runs price no superstep");
        });
        assert_eq!(
            run,
            RunAudit {
                findings: Vec::new(),
                machines: 1,
                supersteps: 2,
            }
        );
    }

    /// Each superstep's own pattern reaches the auditor: of four
    /// supersteps, exactly the two whose receive volume breaks the
    /// envelope are flagged, at their own indices and destinations.
    #[test]
    fn extraction_captures_every_superstep_pattern() {
        let ((), run) = audit_run(cx(4), || {
            let mut m = machine(4);
            // Step 0: one word to processor 1. Steps 1 and 2: three words
            // each to processors 0 and 3. Step 3: nothing sent.
            let fan_in: [&[(usize, usize)]; 4] = [
                &[(0, 1)],
                &[(1, 0), (2, 0), (3, 0)],
                &[(0, 3), (1, 3), (2, 3)],
                &[],
            ];
            for sends in fan_in {
                m.superstep(|ctx| {
                    let _ = ctx.msgs();
                    for &(src, dst) in sends {
                        if ctx.pid() == src {
                            ctx.send_word_u32(dst, 1);
                        }
                    }
                });
            }
        });
        assert_eq!((run.machines, run.supersteps), (1, 4));
        let flagged: Vec<_> = run
            .findings
            .iter()
            .map(|f| (f.rule, f.step, f.detail.as_str()))
            .collect();
        assert_eq!(
            flagged,
            [
                (
                    AuditRule::BufferCapacity,
                    Some(1),
                    "processor 0 receives 12 bytes, declared envelope is 8"
                ),
                (
                    AuditRule::BufferCapacity,
                    Some(2),
                    "processor 3 receives 12 bytes, declared envelope is 8"
                ),
            ]
        );
    }
}
