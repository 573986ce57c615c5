//! Layer 1: the runtime protocol checker.
//!
//! A [`ProtocolChecker`] is a `pcm_sim::SuperstepProbe` that declares
//! `Needs::Schedule` and inspects every superstep the machine executes,
//! on whichever exchange engine ran it. [`check_protocol`] installs one
//! for the duration of a closure (through `pcm_sim::with_probe`) and
//! returns every violation observed, so a test can run a whole algorithm
//! and assert the list is empty — or deliberately provoke one rule and
//! assert exactly that rule fired.

use std::cell::RefCell;
use std::rc::Rc;

use pcm_algos::discipline::Discipline;
use pcm_sim::{with_probe, BlockRoundView, Needs, PatternScratch, StepObs, SuperstepProbe};

use crate::rules::{RuleId, Violation};

/// Observes a machine's supersteps and records protocol violations.
pub struct ProtocolChecker {
    discipline: Discipline,
    sink: Rc<RefCell<Vec<Violation>>>,
}

impl ProtocolChecker {
    /// A checker appending to a shared violation list.
    pub fn new(discipline: Discipline, sink: Rc<RefCell<Vec<Violation>>>) -> Self {
        ProtocolChecker { discipline, sink }
    }

    fn push(&self, rule: RuleId, step: usize, pid: Option<usize>, detail: String) {
        self.sink.borrow_mut().push(Violation {
            rule,
            step,
            pid,
            detail,
        });
    }

    /// R06 for one block (or xnet) round: at most one block per
    /// destination.
    fn check_block_round(&self, step: usize, kind: &str, round: usize, r: &BlockRoundView<'_>) {
        let fan_in = r.max_in_degree();
        if fan_in > 1 {
            self.push(
                RuleId::BlockFanIn,
                step,
                hottest_dst(r.sends.iter().map(|&(_, dst, _)| dst)),
                format!(
                    "{kind} round {round}: {fan_in} blocks converge on one \
                     destination under single-port discipline '{}'",
                    self.discipline.name
                ),
            );
        }
    }
}

impl SuperstepProbe for ProtocolChecker {
    fn needs(&self) -> Needs {
        Needs::Schedule
    }

    fn observe(&mut self, obs: &StepObs<'_>) {
        let step = obs.trace.index;
        let d = self.discipline;
        let detail = obs.detail.expect("schedule observers get the detail");
        let (p, pattern) = (detail.nprocs(), detail.pattern);

        // R01: messages sent past the end of the machine.
        for pid in 0..p {
            for &dst in detail.oob_sends(pid) {
                self.push(
                    RuleId::DstRange,
                    step,
                    Some(pid),
                    format!("destination {dst} out of range for {p} processors"),
                );
            }
        }

        // R03: message kinds the discipline does not admit.
        let (words, blocks, xnets) = pattern.kind_counts();
        for (count, allowed, kind) in [
            (words, d.allow_words, "word"),
            (blocks, d.allow_blocks, "block"),
            (xnets, d.allow_xnet, "xnet"),
        ] {
            if count > 0 && !allowed {
                self.push(
                    RuleId::KindDiscipline,
                    step,
                    None,
                    format!(
                        "{count} {kind} message(s) sent under discipline '{}' \
                         which forbids that kind",
                        d.name
                    ),
                );
            }
        }

        // R04: word rounds must be permutations under MP-BSP.
        let mut scratch = PatternScratch::new();
        if d.forbid_concurrent_writes {
            let mut i = 0usize;
            pattern.visit_word_segments(&mut scratch, |seg| {
                let fan_in = seg.max_in_degree();
                if fan_in > 1 {
                    self.push(
                        RuleId::ConcurrentWrite,
                        step,
                        hottest_dst(seg.sends.iter().map(|&(_, dst)| dst)),
                        format!(
                            "word segment {i} ({} round(s)): {fan_in} senders \
                             target one destination per round under discipline '{}'",
                            seg.rounds, d.name
                        ),
                    );
                }
                i += 1;
            });
        }

        // R05: NaN / infinite / negative charges.
        for pid in 0..p {
            if !detail.charge_ok(pid) {
                self.push(
                    RuleId::BadCharge,
                    step,
                    Some(pid),
                    "a charge* call passed a NaN, infinite or negative amount".into(),
                );
            }
        }

        // R06: single-port block semantics.
        if d.single_port_blocks {
            let mut round = 0usize;
            pattern.visit_block_rounds(&mut scratch, |r| {
                self.check_block_round(step, "block", round, &r);
                round += 1;
            });
            let mut round = 0usize;
            pattern.visit_xnet_rounds(&mut scratch, |r| {
                self.check_block_round(step, "xnet", round, &r);
                round += 1;
            });
        }

        // R07: the priced times themselves must be finite.
        if !obs.trace.compute.as_micros().is_finite() {
            self.push(
                RuleId::NonfiniteTime,
                step,
                None,
                format!("compute time is {}", obs.trace.compute.as_micros()),
            );
        }
        if !obs.trace.comm.as_micros().is_finite() {
            self.push(
                RuleId::NonfiniteTime,
                step,
                None,
                format!("communication time is {}", obs.trace.comm.as_micros()),
            );
        }
    }
}

/// The destination receiving the most items — named in R04/R06 details.
fn hottest_dst(dsts: impl Iterator<Item = usize>) -> Option<usize> {
    let mut counts = std::collections::HashMap::new();
    for dst in dsts {
        *counts.entry(dst).or_insert(0usize) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(dst, n)| (n, std::cmp::Reverse(dst)))
        .map(|(dst, _)| dst)
}

/// Runs `body` with a [`ProtocolChecker`] watching every machine it
/// creates, and returns the body's result plus all recorded violations.
///
/// Violations are reported in superstep order per machine; when `body`
/// creates several machines their reports are interleaved in creation
/// order.
pub fn check_protocol<R>(discipline: Discipline, body: impl FnOnce() -> R) -> (R, Vec<Violation>) {
    let sink: Rc<RefCell<Vec<Violation>>> = Rc::default();
    let handle = sink.clone();
    let result = with_probe(
        move |_p| Box::new(ProtocolChecker::new(discipline, handle.clone())),
        body,
    );
    let violations = sink.borrow().clone();
    (result, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_sim::{IdealNetwork, Machine, UniformCompute};
    use std::sync::Arc;

    fn machine(p: usize) -> Machine<u32> {
        Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; p],
            7,
        )
    }

    fn rules(violations: &[Violation]) -> Vec<RuleId> {
        let mut rs: Vec<RuleId> = violations.iter().map(|v| v.rule).collect();
        rs.dedup();
        rs
    }

    // ---- R01 ------------------------------------------------------------

    #[test]
    fn r01_fires_on_out_of_range_destination() {
        let ((), v) = check_protocol(Discipline::any(), || {
            let mut m = machine(4);
            m.superstep(|ctx| {
                if ctx.pid() == 1 {
                    ctx.send_word_u32(9, 5);
                }
            });
        });
        assert_eq!(rules(&v), vec![RuleId::DstRange], "{v:?}");
        assert_eq!(v[0].pid, Some(1));
        assert!(v[0].detail.contains('9'), "{}", v[0].detail);
    }

    #[test]
    fn r01_clean_on_in_range_sends() {
        let ((), v) = check_protocol(Discipline::any(), || {
            let mut m = machine(4);
            m.superstep(|ctx| ctx.send_word_u32((ctx.pid() + 1) % 4, 5));
        });
        assert!(v.is_empty(), "{v:?}");
    }

    // ---- R03 ------------------------------------------------------------

    #[test]
    fn r03_fires_on_a_word_message_under_bpram() {
        let ((), v) = check_protocol(Discipline::bpram(), || {
            let mut m = machine(2);
            m.superstep(|ctx| {
                if ctx.pid() == 0 {
                    ctx.send_word_u32(1, 1);
                }
            });
        });
        assert_eq!(rules(&v), vec![RuleId::KindDiscipline], "{v:?}");
        assert!(v[0].detail.contains("word"), "{}", v[0].detail);
    }

    #[test]
    fn r03_fires_on_a_block_message_under_mp_bsp() {
        let ((), v) = check_protocol(Discipline::mp_bsp(), || {
            let mut m = machine(2);
            m.superstep(|ctx| {
                if ctx.pid() == 0 {
                    ctx.send_block_u32(1, &[1, 2, 3]);
                }
            });
        });
        assert_eq!(rules(&v), vec![RuleId::KindDiscipline], "{v:?}");
        assert!(v[0].detail.contains("block"), "{}", v[0].detail);
    }

    #[test]
    fn r03_clean_when_kinds_match_the_discipline() {
        let ((), v) = check_protocol(Discipline::bpram(), || {
            let mut m = machine(2);
            m.superstep(|ctx| {
                if ctx.pid() == 0 {
                    ctx.send_block_u32(1, &[1, 2, 3]);
                }
            });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    // ---- R04 ------------------------------------------------------------

    #[test]
    fn r04_fires_on_unstaggered_senders_under_mp_bsp() {
        let ((), v) = check_protocol(Discipline::mp_bsp(), || {
            let mut m = machine(4);
            m.superstep(|ctx| {
                // Procs 0 and 1 both hit dst 2 first: in-degree 2 rounds.
                if ctx.pid() < 2 {
                    ctx.send_words_u32(2, &[1, 2, 3]);
                    ctx.send_words_u32(3, &[1, 2, 3]);
                }
            });
        });
        assert_eq!(rules(&v), vec![RuleId::ConcurrentWrite], "{v:?}");
        assert_eq!(v[0].pid, Some(2), "names the contended destination");
    }

    #[test]
    fn r04_clean_on_a_staggered_schedule() {
        let ((), v) = check_protocol(Discipline::mp_bsp(), || {
            let mut m = machine(4);
            m.superstep(|ctx| {
                // Same h-relation, opposite send orders: permutation rounds.
                if ctx.pid() == 0 {
                    ctx.send_words_u32(2, &[1, 2, 3]);
                    ctx.send_words_u32(3, &[1, 2, 3]);
                } else if ctx.pid() == 1 {
                    ctx.send_words_u32(3, &[1, 2, 3]);
                    ctx.send_words_u32(2, &[1, 2, 3]);
                }
            });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r04_not_enforced_under_plain_bsp() {
        let ((), v) = check_protocol(Discipline::bsp_words(), || {
            let mut m = machine(4);
            m.superstep(|ctx| {
                if ctx.pid() < 2 {
                    ctx.send_words_u32(2, &[1, 2, 3]);
                }
            });
        });
        assert!(v.is_empty(), "contention is priced, not flagged: {v:?}");
    }

    // ---- R05 ------------------------------------------------------------

    #[test]
    fn r05_fires_on_nan_and_negative_charges() {
        let ((), v) = check_protocol(Discipline::any(), || {
            let mut m = machine(2);
            m.superstep(|ctx| {
                if ctx.pid() == 0 {
                    ctx.charge(f64::NAN);
                } else {
                    ctx.charge(-1.0);
                }
            });
        });
        assert_eq!(rules(&v), vec![RuleId::BadCharge], "{v:?}");
        assert_eq!(v.len(), 2, "both processors flagged: {v:?}");
    }

    #[test]
    fn r05_clean_on_finite_nonnegative_charges() {
        let ((), v) = check_protocol(Discipline::any(), || {
            let mut m = machine(2);
            m.superstep(|ctx| {
                ctx.charge(0.0);
                ctx.charge_ops(100);
            });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    // ---- R06 ------------------------------------------------------------

    #[test]
    fn r06_fires_on_two_blocks_converging_in_one_round() {
        let ((), v) = check_protocol(Discipline::bpram(), || {
            let mut m = machine(4);
            m.superstep(|ctx| {
                // First block of procs 0 and 1 both target proc 2.
                if ctx.pid() < 2 {
                    ctx.send_block_u32(2, &[1, 2, 3, 4]);
                }
            });
        });
        assert_eq!(rules(&v), vec![RuleId::BlockFanIn], "{v:?}");
        assert_eq!(v[0].pid, Some(2));
    }

    #[test]
    fn r06_clean_on_staggered_single_port_blocks() {
        let ((), v) = check_protocol(Discipline::bpram(), || {
            let mut m = machine(4);
            m.superstep(|ctx| {
                // Each proc's r-th block goes to pid + r + 1: permutations.
                let p = ctx.nprocs();
                let pid = ctx.pid();
                for r in 1..p {
                    ctx.send_block_u32((pid + r) % p, &[1, 2]);
                }
            });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r06_not_enforced_under_relaxed_blocks() {
        let ((), v) = check_protocol(Discipline::blocks_relaxed(), || {
            let mut m = machine(4);
            m.superstep(|ctx| {
                if ctx.pid() < 2 {
                    ctx.send_block_u32(2, &[1, 2, 3, 4]);
                }
            });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    // ---- R07 ------------------------------------------------------------

    #[test]
    fn r07_fires_when_charges_overflow_to_infinity() {
        let ((), v) = check_protocol(Discipline::any(), || {
            let mut m = machine(2);
            m.superstep(|ctx| {
                // Each charge is finite; their sum is not. R05 (per-proc
                // charge bookkeeping) and R07 (priced step time) both fire.
                ctx.charge(f64::MAX);
                ctx.charge(f64::MAX);
            });
        });
        let rs = rules(&v);
        assert!(rs.contains(&RuleId::NonfiniteTime), "{v:?}");
        assert!(rs.contains(&RuleId::BadCharge), "{v:?}");
    }

    #[test]
    fn r07_clean_on_ordinary_steps() {
        let ((), v) = check_protocol(Discipline::any(), || {
            let mut m = machine(2);
            m.superstep(|ctx| ctx.charge(1e6));
        });
        assert!(v.is_empty(), "{v:?}");
    }

    // ---- plumbing --------------------------------------------------------

    #[test]
    fn hottest_dst_prefers_the_most_loaded_then_lowest_pid() {
        assert_eq!(hottest_dst([2, 2, 3].into_iter()), Some(2));
        assert_eq!(hottest_dst([3, 2].into_iter()), Some(2), "tie -> lowest");
        assert_eq!(hottest_dst(std::iter::empty()), None);
    }

    #[test]
    fn xnet_traffic_obeys_r03_and_r06() {
        // Allowed and permutation-shaped under xnet_grid...
        let ((), v) = check_protocol(Discipline::xnet_grid(), || {
            let mut m = machine(4);
            m.superstep(|ctx| {
                let p = ctx.nprocs();
                ctx.send_xnet_u32((ctx.pid() + 1) % p, &[1, 2]);
            });
        });
        assert!(v.is_empty(), "{v:?}");
        // ...flagged as a kind violation under every discipline a
        // contract family's variants declare (no contract prices xnet)...
        for d in [
            Discipline::bsp_words(),
            Discipline::mp_bsp(),
            Discipline::bpram(),
            Discipline::blocks_relaxed(),
        ] {
            let ((), v) = check_protocol(d, || {
                let mut m = machine(4);
                m.superstep(|ctx| {
                    let p = ctx.nprocs();
                    ctx.send_xnet_u32((ctx.pid() + 1) % p, &[1, 2]);
                });
            });
            assert_eq!(rules(&v), vec![RuleId::KindDiscipline], "{}: {v:?}", d.name);
            assert!(v[0].detail.contains("xnet"), "{}", v[0].detail);
        }
        // ...and as fan-in when two xnet blocks converge.
        let ((), v) = check_protocol(Discipline::xnet_grid(), || {
            let mut m = machine(4);
            m.superstep(|ctx| {
                if ctx.pid() < 2 {
                    ctx.send_xnet_u32(2, &[1]);
                }
            });
        });
        assert_eq!(rules(&v), vec![RuleId::BlockFanIn], "{v:?}");
    }
}
