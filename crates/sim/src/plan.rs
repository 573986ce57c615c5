//! Dry-run plan extraction: the static analyzer's view of a run.
//!
//! The `pcm-audit` crate proves per-superstep invariants over an
//! algorithm's *communication plan* — the sequence of [`CommPattern`]s a
//! run produces — without paying for network pricing. This module provides
//! the extraction mode: inside an [`extract_plans`] scope every
//! [`crate::Machine`] runs **dry** on its usual exchange engine:
//!
//! * the orchestration closures still execute and messages still carry
//!   their real payloads (data-dependent schedules — sample sort's bucket
//!   routing, radix's slice lengths — stay exact),
//! * but the network model is never invoked, the simulated clock stays at
//!   zero, and no [`crate::SuperstepTrace`]s are stored: the
//!   expensive *pricing* of each pattern is skipped entirely,
//! * and a plan recorder — an ordinary [`Needs::Schedule`] observer in
//!   a dry observer scope — records every superstep's full ordered
//!   [`CommPattern`] in a [`StepPlan`], together with the per-processor
//!   inbox occupancy and read flags the conservation rules (A01/A02)
//!   need. It keeps only what pricing reads of each send (destination,
//!   kind, logical words and bytes) in 16 bytes, and no payload:
//!   [`StepPlan::pattern`] rebuilds the pattern as payload-free
//!   [`Message::header`]s when the analyzer asks for it.
//!
//! A dry step has no cost, so only schedule observers see it (see
//! [`crate::probe`]). A machine's plan is finalized (pending inbox
//! recorded, [`RunPlan`] pushed to the scope's sink) when the machine is
//! dropped, so the closure passed to [`extract_plans`] must drop its
//! machines before returning — every algorithm entry point in `pcm-algos`
//! does.

use std::cell::RefCell;
use std::rc::Rc;

use crate::message::{Message, MsgKind};
use crate::pattern::CommPattern;
use crate::probe::{self, Needs, RunEnd, StepObs, SuperstepProbe};

/// Everything the static analyzer knows about one superstep.
#[derive(Clone, Debug, PartialEq)]
pub struct StepPlan {
    /// Superstep index (0-based).
    pub step: usize,
    /// Processor count of the recorded pattern.
    p: usize,
    /// Source `src`'s sends are `sends[ends[src - 1]..ends[src]]` (from 0
    /// for the first source); one entry per send list.
    ends: Vec<u32>,
    /// Every send in (src, send-order) order.
    sends: Vec<PlanSend>,
    /// Per-processor count of messages sitting in the inbox during this
    /// superstep (delivered at the previous barrier).
    pub inbox_count: Vec<usize>,
    /// Per-processor flag: did the processor read its inbox (any `msgs*`
    /// accessor) during this superstep?
    pub inbox_read: Vec<bool>,
}

/// What a plan keeps of one send. Plans of a whole run stay in memory
/// while they are audited (the parallel radix plan at `p` = 256 holds
/// 538K sends), so a send takes 16 bytes here against 64 for a message.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PlanSend {
    dst: u32,
    words: u32,
    bytes: u32,
    kind: MsgKind,
}

impl StepPlan {
    /// The plan of superstep `step` with communication `pattern` and the
    /// given per-processor inbox occupancy and read flags.
    ///
    /// # Panics
    /// Panics if a destination or the send count exceeds `u32::MAX`.
    pub fn new(
        step: usize,
        pattern: &CommPattern,
        inbox_count: Vec<usize>,
        inbox_read: Vec<bool>,
    ) -> Self {
        let narrow = |n: usize| u32::try_from(n).expect("plans index below 4 Gi");
        let sends: Vec<PlanSend> = pattern
            .sends
            .iter()
            .flatten()
            .map(|m| PlanSend {
                dst: narrow(m.dst),
                words: m.logical_words,
                bytes: m.logical_bytes,
                kind: m.kind,
            })
            .collect();
        let mut end = 0;
        let ends = pattern
            .sends
            .iter()
            .map(|list| {
                end += list.len();
                narrow(end)
            })
            .collect();
        StepPlan {
            step,
            p: pattern.p,
            ends,
            sends,
            inbox_count,
            inbox_read,
        }
    }

    /// The superstep's full ordered communication pattern, rebuilt as
    /// payload-free [`Message::header`]s (tag 0).
    pub fn pattern(&self) -> CommPattern {
        let mut start = 0;
        let sends = self
            .ends
            .iter()
            .enumerate()
            .map(|(src, &end)| {
                let list = &self.sends[start..end as usize];
                start = end as usize;
                list.iter()
                    .map(|s| {
                        let (words, bytes) = (s.words as usize, s.bytes as usize);
                        Message::header(src, s.dst as usize, s.kind, words, bytes)
                    })
                    .collect()
            })
            .collect();
        CommPattern { p: self.p, sends }
    }
}

/// The extracted communication plan of one machine's whole run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunPlan {
    /// Number of processors.
    pub p: usize,
    /// One entry per executed superstep, in order.
    pub steps: Vec<StepPlan>,
    /// Per-processor count of messages delivered at the last barrier and
    /// still unconsumed when the machine was dropped.
    pub pending_inbox: Vec<usize>,
}

type PlanSink = Rc<RefCell<Vec<RunPlan>>>;

/// Per-machine plan recorder; pushes its [`RunPlan`] to the scope's sink
/// when the machine is dropped.
struct PlanRecorder {
    sink: PlanSink,
    current: RunPlan,
}

impl SuperstepProbe for PlanRecorder {
    fn needs(&self) -> Needs {
        Needs::Schedule
    }

    fn observe(&mut self, obs: &StepObs<'_>) {
        let d = obs.detail.expect("schedule observers get the detail");
        let p = d.nprocs();
        self.current.steps.push(StepPlan::new(
            obs.trace.index,
            d.pattern,
            (0..p).map(|pid| d.inbox_count(pid)).collect(),
            (0..p).map(|pid| d.inbox_read(pid)).collect(),
        ));
    }

    fn finish(&mut self, end: &RunEnd<'_>) {
        let mut plan = std::mem::take(&mut self.current);
        plan.pending_inbox = (0..end.nprocs())
            .map(|pid| end.pending_inbox(pid))
            .collect();
        self.sink.borrow_mut().push(plan);
    }
}

/// Runs `body` in dry-run extraction mode and returns its result plus the
/// [`RunPlan`] of every machine it created (in drop order). Nests and
/// stacks with other observer scopes; ends on exit (also on panic).
pub fn extract_plans<R>(body: impl FnOnce() -> R) -> (R, Vec<RunPlan>) {
    let sink: PlanSink = Rc::default();
    let hook = sink.clone();
    let result = probe::scoped(
        Rc::new(move |p| {
            Box::new(PlanRecorder {
                sink: hook.clone(),
                current: RunPlan {
                    p,
                    ..RunPlan::default()
                },
            }) as Box<dyn SuperstepProbe>
        }),
        true,
        body,
    );
    let plans = sink.take();
    (result, plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::UniformCompute;
    use crate::network::TextbookBspNetwork;
    use crate::Machine;
    use pcm_core::SimTime;
    use std::sync::Arc;

    fn machine(p: usize) -> Machine<u32> {
        Machine::new(
            Box::new(TextbookBspNetwork {
                g: 2.0,
                l: 10.0,
                sigma: 0.0,
                ell: 0.0,
            }),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; p],
            5,
        )
    }

    #[test]
    fn extraction_captures_every_superstep_pattern() {
        let (time, plans) = extract_plans(|| {
            let mut m = machine(4);
            m.superstep(|ctx| {
                ctx.charge(3.0);
                ctx.send_words_u32((ctx.pid() + 1) % 4, &[1, 2]);
            });
            m.superstep(|ctx| {
                let _ = ctx.msgs();
            });
            m.time()
        });
        assert_eq!(plans.len(), 1);
        let plan = &plans[0];
        assert_eq!(plan.p, 4);
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.steps[0].step, 0);
        assert_eq!(plan.steps[0].pattern().h_send(), 2);
        assert_eq!(plan.steps[0].inbox_count, vec![0; 4]);
        assert_eq!(plan.steps[1].inbox_count, vec![1; 4]);
        assert_eq!(plan.steps[1].inbox_read, vec![true; 4]);
        assert_eq!(plan.pending_inbox, vec![0; 4]);
        // Dry run: the network was never priced, the clock never advanced.
        assert_eq!(time, SimTime::ZERO);
    }

    #[test]
    fn dry_run_skips_pricing_but_delivers_payloads() {
        let ((), plans) = extract_plans(|| {
            let mut m = machine(2);
            m.superstep(|ctx| {
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
            assert!(m.traces().is_empty(), "dry runs collect no traces");
        });
        assert_eq!(plans[0].steps.len(), 2);
    }

    #[test]
    fn plans_keep_the_pattern_without_payloads() {
        let ((), plans) = extract_plans(|| {
            let mut m = machine(3);
            m.superstep(|ctx| {
                // A heap payload, an inline word and a self-send.
                let pid = ctx.pid();
                ctx.send_block_u32((pid + 1) % 3, &[7; 40]);
                ctx.send_words_u32_tagged(pid, 9, &[1, 2]);
            });
            m.superstep(|ctx| {
                let _ = ctx.msgs();
            });
        });
        let pattern = plans[0].steps[0].pattern();
        assert_eq!(pattern.p, 3);
        for (src, list) in pattern.sends.iter().enumerate() {
            let got: Vec<_> = list
                .iter()
                .map(|m| (m.src, m.dst, m.kind, m.logical_words, m.data().len()))
                .collect();
            let want = [
                (src, (src + 1) % 3, MsgKind::Block, 40, 0),
                (src, src, MsgKind::Words, 2, 0),
            ];
            assert_eq!(got, want);
        }
        assert_eq!(pattern.total_bytes(), 3 * (160 + 8));
    }

    #[test]
    fn pending_messages_survive_into_the_plan() {
        let ((), plans) = extract_plans(|| {
            let mut m = machine(2);
            m.superstep(|ctx| {
                if ctx.pid() == 0 {
                    ctx.send_word_u32(1, 7);
                }
            });
            // Dropped with the message delivered but never consumed.
        });
        assert_eq!(plans[0].pending_inbox, vec![0, 1]);
    }

    #[test]
    fn extraction_scope_does_not_leak() {
        let ((), plans) = extract_plans(|| machine(2).sync());
        assert_eq!(plans.len(), 1);
        let mut m = machine(2);
        m.superstep(|ctx| ctx.charge(1.0));
        assert!(
            m.time() > SimTime::ZERO,
            "outside the scope the machine prices normally"
        );
    }

    #[test]
    fn plans_from_multiple_machines_arrive_in_drop_order() {
        let ((), plans) = extract_plans(|| {
            machine(2).sync();
            let mut m = machine(3);
            m.sync();
            m.sync();
        });
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].p, 2);
        assert_eq!(plans[1].p, 3);
        assert_eq!(plans[1].steps.len(), 2);
    }
}
