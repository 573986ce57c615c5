//! The happens-before checker: a schedule-level [`SuperstepProbe`] that
//! replays each superstep's shadow events against the declared
//! [`RaceConfig`].
//!
//! The checker maintains three pieces of state across supersteps:
//!
//! * **pending deliveries** — every deliverable send of superstep `s`
//!   becomes a pending delivery that the destination can consume during
//!   superstep `s+1` (the BSP contract). A pending delivery that no
//!   filter-compatible `msgs*` accessor ever observes before the next
//!   barrier clears the inbox is *dead*;
//! * **region shadow states** — the `touch_read`/`touch_write`/
//!   `touch_modify` stream per `(pid, region)`, checked for
//!   overwrite-before-read;
//! * **vector clocks** — one [`VClock`] per processor, joined at every
//!   barrier. A read attempt is *stale* when its filter would accept a
//!   send whose epoch the reader's clock does not yet see.
//!
//! Rule summary (stable ids in `pcm-check`):
//!
//! | rule | fires when |
//! |------|------------|
//! | W01  | under `exclusive_writes`, two *distinct* sources send into one `(dst, tag)` cell in one superstep |
//! | W02  | a dead delivery whose destination made a filter-compatible, zero-match read at the producing superstep (it acted on stale data), and any delivery still unconsumed when the machine drops after such a read |
//! | W03  | under `tagged_inbox`, an untagged `msgs()` read observed two or more distinct tags |
//! | W04  | a dead delivery with no stale-read attempt (wasted communication), or a region overwritten before anything read it |

use std::collections::HashMap;

use pcm_check::{RuleId, Violation};
use pcm_sim::shadow::{ConsumeFilter, RegionId, ShadowEvent};
use pcm_sim::{Needs, RunEnd, StepObs, SuperstepProbe};

use crate::vclock::{global_barrier, Epoch, VClock};
use crate::{RaceConfig, Sink};

/// One deliverable message in flight between the barrier that ends its
/// producing superstep and the barrier that clears it from the inbox.
struct Pending {
    src: usize,
    tag: u32,
    /// Superstep the send happened in.
    step: usize,
    /// The destination made a filter-compatible zero-match read during
    /// the producing superstep — before the barrier made the data
    /// visible. If the delivery additionally goes dead, that early read
    /// was the only read: the algorithm acted on stale data (W02).
    early: bool,
    consumed: bool,
}

/// Shadow state of one `(pid, region)` cell. The first access initializes
/// the region (initial state distributed at machine construction counts
/// as written), so a leading read is always legal.
enum RegionState {
    /// Last event was a write (or modify); nothing has read it since.
    WrittenUnread,
    /// The latest value has been read.
    Read,
}

/// The per-machine observer. Construct through
/// [`crate::check_races`], which installs it on every machine a closure
/// creates.
pub struct RaceChecker {
    config: RaceConfig,
    p: usize,
    pending: Vec<Vec<Pending>>,
    regions: HashMap<(usize, RegionId), RegionState>,
    clocks: Vec<VClock>,
    sink: Sink,
}

impl RaceChecker {
    /// A checker for a `p`-processor machine, pushing findings into
    /// `sink`.
    pub fn new(config: RaceConfig, p: usize, sink: Sink) -> Self {
        RaceChecker {
            config,
            p,
            pending: (0..p).map(|_| Vec::new()).collect(),
            regions: HashMap::new(),
            clocks: (0..p).map(|_| VClock::new(p)).collect(),
            sink,
        }
    }

    fn push(&self, rule: RuleId, step: usize, pid: Option<usize>, detail: String) {
        self.sink.borrow_mut().push(Violation {
            rule,
            step,
            pid,
            detail,
        });
    }

    /// Reports a delivery that was cleared from (or dropped with) the
    /// inbox without any compatible read.
    fn report_dead(&self, d: &Pending, dst: usize, step: usize) {
        if d.early {
            self.push(
                RuleId::StaleRead,
                step,
                Some(dst),
                format!(
                    "read of tag {} data attempted during producing superstep {} \
                     (before the barrier) and the delivery from pid {} was then \
                     dropped unread — the algorithm acted on stale data",
                    d.tag, d.step, d.src
                ),
            );
        } else {
            self.push(
                RuleId::DeadSend,
                step,
                Some(dst),
                format!(
                    "delivery from pid {} (tag {}, sent superstep {}) was never \
                     read before the inbox cleared",
                    d.src, d.tag, d.step
                ),
            );
        }
    }

    /// Applies one region touch to the shadow state machine.
    fn touch(&mut self, pid: usize, step: usize, event: ShadowEvent) {
        match event {
            ShadowEvent::Read { region } => {
                self.regions.insert((pid, region), RegionState::Read);
            }
            ShadowEvent::Modify { region } => {
                // Read-modify-write: consumes the previous value, leaves a
                // fresh unread one. Never a violation on its own.
                self.regions
                    .insert((pid, region), RegionState::WrittenUnread);
            }
            ShadowEvent::Write { region } => {
                let prev = self
                    .regions
                    .insert((pid, region), RegionState::WrittenUnread);
                if let Some(RegionState::WrittenUnread) = prev {
                    self.push(
                        RuleId::DeadSend,
                        step,
                        Some(pid),
                        format!("region {region} overwritten before anything read it"),
                    );
                }
            }
            ShadowEvent::Consume { .. } => {}
        }
    }
}

impl SuperstepProbe for RaceChecker {
    fn needs(&self) -> Needs {
        Needs::Schedule
    }

    fn observe(&mut self, obs: &StepObs<'_>) {
        let s = obs.step;
        let r = obs.detail.expect("schedule observers get the detail");

        // 1. Match this step's consumes against the deliveries that the
        //    barrier before this step made visible. A single compatible
        //    accessor call exposes every matching message.
        for pid in 0..self.p {
            debug_assert_eq!(
                self.pending[pid].len(),
                r.inbox_count(pid),
                "pending model out of sync with the machine's inboxes"
            );
            for e in r.events(pid) {
                if let ShadowEvent::Consume { filter, .. } = e {
                    for d in &mut self.pending[pid] {
                        if filter.accepts(d.tag, &[d.src]) {
                            debug_assert!(
                                self.clocks[pid].sees(Epoch {
                                    pid: d.src,
                                    step: d.step
                                }),
                                "a delivered message's send epoch must be visible"
                            );
                            d.consumed = true;
                        }
                    }
                }
            }
        }

        // 2. Whatever was delivered but not consumed dies at the barrier
        //    that ends this superstep.
        for pid in 0..self.p {
            for d in &self.pending[pid] {
                if !d.consumed {
                    self.report_dead(d, pid, s);
                }
            }
            self.pending[pid].clear();
        }

        // 3. W01: concurrent writes into one (dst, tag) cell. Two sends
        //    from the *same* source are ordered by send order and thus
        //    deterministic; only distinct sources race.
        if self.config.exclusive_writes {
            let mut writers: HashMap<(usize, u32), Vec<usize>> = HashMap::new();
            for src in 0..self.p {
                for m in r.sends(src) {
                    let srcs = writers.entry((m.dst, m.tag)).or_default();
                    if !srcs.contains(&src) {
                        srcs.push(src);
                    }
                }
            }
            let mut cells: Vec<(&(usize, u32), &Vec<usize>)> =
                writers.iter().filter(|(_, srcs)| srcs.len() >= 2).collect();
            cells.sort_by_key(|(cell, _)| **cell);
            for ((dst, tag), srcs) in cells {
                self.push(
                    RuleId::WwRace,
                    s,
                    Some(*dst),
                    format!(
                        "{} processors (pids {srcs:?}) wrote into the (dst {dst}, \
                         tag {tag}) cell in one superstep under exclusive writes",
                        srcs.len()
                    ),
                );
            }
        }

        // 4. W03: an untagged read observing several logical streams.
        if self.config.tagged_inbox {
            for pid in 0..self.p {
                for e in r.events(pid) {
                    if let ShadowEvent::Consume {
                        filter: ConsumeFilter::Any,
                        distinct_tags,
                        ..
                    } = e
                    {
                        if *distinct_tags >= 2 {
                            self.push(
                                RuleId::InboxAlias,
                                s,
                                Some(pid),
                                format!(
                                    "untagged msgs() read aliased {distinct_tags} \
                                     distinct tags under a tagged-inbox config"
                                ),
                            );
                        }
                    }
                }
            }
        }

        // 5. Region shadow state, in program order per processor.
        for pid in 0..self.p {
            for e in r.events(pid) {
                self.touch(pid, s, *e);
            }
        }

        // 6. This step's sends become the next step's pending deliveries.
        //    A send is flagged `early` if its destination already tried a
        //    compatible read this very superstep and came up empty while
        //    the send's epoch was not yet visible to it.
        for src in 0..self.p {
            for m in r.sends(src) {
                let epoch = Epoch { pid: src, step: s };
                let early = !self.clocks[m.dst].sees(epoch)
                    && r.events(m.dst).iter().any(|e| {
                        matches!(
                            e,
                            ShadowEvent::Consume { filter, matched: 0, .. }
                                if filter.accepts(m.tag, &[src])
                        )
                    });
                self.pending[m.dst].push(Pending {
                    src,
                    tag: m.tag,
                    step: s,
                    early,
                    consumed: false,
                });
            }
        }

        // 7. The barrier ending this superstep joins all clocks.
        global_barrier(&mut self.clocks, s);
    }

    fn finish(&mut self, end: &RunEnd<'_>) {
        // Deliveries still pending when the machine drops were never
        // readable: classify exactly like a cleared inbox.
        for pid in 0..self.p {
            debug_assert_eq!(self.pending[pid].len(), end.pending_inbox(pid));
            for d in &self.pending[pid] {
                self.report_dead(d, pid, end.supersteps);
            }
            self.pending[pid].clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pcm_sim::{IdealNetwork, Machine, UniformCompute};

    use crate::{check_races, errors, warnings, RaceConfig};
    use pcm_check::RuleId;

    fn machine(p: usize) -> Machine<u32> {
        Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; p],
            11,
        )
    }

    fn rules(v: &[pcm_check::Violation]) -> Vec<RuleId> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn w01_fires_on_two_sources_into_one_cell() {
        let ((), v) = check_races(RaceConfig::exclusive(), || {
            let mut m = machine(4);
            m.superstep(|ctx| {
                if ctx.pid() <= 1 {
                    ctx.send_word_u32(3, 9);
                }
            });
            m.superstep(|ctx| {
                let _ = ctx.msgs();
            });
        });
        assert_eq!(rules(&v), vec![RuleId::WwRace], "{v:?}");
    }

    #[test]
    fn w01_tolerates_one_source_sending_twice() {
        let ((), v) = check_races(RaceConfig::exclusive(), || {
            let mut m = machine(4);
            m.superstep(|ctx| {
                if ctx.pid() == 0 {
                    ctx.send_word_u32(3, 1);
                    ctx.send_word_u32(3, 2); // ordered after the first
                }
            });
            m.superstep(|ctx| {
                let _ = ctx.msgs();
            });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn w01_is_off_under_queued_configs() {
        let ((), v) = check_races(RaceConfig::queued(), || {
            let mut m = machine(4);
            m.superstep(|ctx| {
                if ctx.pid() <= 2 {
                    ctx.send_word_u32(3, 9);
                }
            });
            m.superstep(|ctx| {
                let _ = ctx.msgs();
            });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn w02_fires_when_a_barrierless_read_precedes_a_dropped_delivery() {
        // The broken fixture: the consumer "forgot" the barrier — it reads
        // in the same superstep the producer sends, then the run ends.
        let ((), v) = check_races(RaceConfig::exclusive(), || {
            let mut m = machine(2);
            m.superstep(|ctx| {
                if ctx.pid() == 0 {
                    ctx.send_word_u32(1, 42);
                } else {
                    assert!(ctx.msgs().is_empty(), "data not delivered yet");
                }
            });
        });
        assert_eq!(rules(&v), vec![RuleId::StaleRead], "{v:?}");
    }

    #[test]
    fn w02_clean_when_the_read_waits_for_the_barrier() {
        let ((), v) = check_races(RaceConfig::exclusive(), || {
            let mut m = machine(2);
            m.superstep(|ctx| {
                if ctx.pid() == 0 {
                    ctx.send_word_u32(1, 42);
                }
            });
            m.superstep(|ctx| {
                if ctx.pid() == 1 {
                    assert_eq!(ctx.msgs().len(), 1);
                }
            });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn early_read_followed_by_a_real_read_is_benign() {
        // Absorb-then-send (bitonic's steady state): reading an empty
        // inbox before sending is fine as long as the data is read after
        // the barrier.
        let ((), v) = check_races(RaceConfig::exclusive(), || {
            let mut m = machine(2);
            m.superstep(|ctx| {
                let _ = ctx.msgs(); // empty: nothing sent yet
                let peer = 1 - ctx.pid();
                ctx.send_word_u32(peer, 1);
            });
            m.superstep(|ctx| {
                assert_eq!(ctx.msgs().len(), 1);
            });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn w03_fires_on_untagged_read_of_mixed_tags() {
        let ((), v) = check_races(RaceConfig::exclusive(), || {
            let mut m = machine(2);
            m.superstep(|ctx| {
                if ctx.pid() == 0 {
                    ctx.send_words_u32_tagged(1, 7, &[1]);
                    ctx.send_words_u32_tagged(1, 8, &[2]);
                }
            });
            m.superstep(|ctx| {
                let _ = ctx.msgs(); // aliases tags 7 and 8
            });
        });
        assert_eq!(rules(&v), vec![RuleId::InboxAlias], "{v:?}");
    }

    #[test]
    fn w03_clean_with_tagged_reads_or_dispatch_config() {
        let ((), v) = check_races(RaceConfig::exclusive(), || {
            let mut m = machine(2);
            m.superstep(|ctx| {
                if ctx.pid() == 0 {
                    ctx.send_words_u32_tagged(1, 7, &[1]);
                    ctx.send_words_u32_tagged(1, 8, &[2]);
                }
            });
            m.superstep(|ctx| {
                let a = ctx.msgs_tagged(7).count();
                let b = ctx.msgs_tagged(8).count();
                assert_eq!(a + b, if ctx.pid() == 1 { 2 } else { 0 });
            });
        });
        assert!(v.is_empty(), "{v:?}");
        // The same mixed-tag msgs() read is fine when the config expects
        // dynamic-tag dispatch.
        let ((), v) = check_races(RaceConfig::exclusive_dispatch(), || {
            let mut m = machine(2);
            m.superstep(|ctx| {
                if ctx.pid() == 0 {
                    ctx.send_words_u32_tagged(1, 7, &[1]);
                    ctx.send_words_u32_tagged(1, 8, &[2]);
                }
            });
            m.superstep(|ctx| {
                let _ = ctx.msgs();
            });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn w04_fires_on_a_delivery_no_compatible_read_observes() {
        let ((), v) = check_races(RaceConfig::exclusive(), || {
            let mut m = machine(2);
            m.superstep(|ctx| {
                if ctx.pid() == 0 {
                    ctx.send_words_u32_tagged(1, 5, &[1]);
                }
            });
            m.superstep(|ctx| {
                // Reads the wrong stream: tag 6 never matches the tag-5
                // delivery, which dies at the next barrier.
                let _ = ctx.msgs_tagged(6).count();
            });
        });
        assert_eq!(rules(&v), vec![RuleId::DeadSend], "{v:?}");
        assert!(errors(&v).is_empty(), "W04 is a warning");
        assert_eq!(warnings(&v).len(), 1);
    }

    #[test]
    fn w04_fires_on_region_overwritten_before_read() {
        const BUF: u32 = 3;
        let ((), v) = check_races(RaceConfig::exclusive(), || {
            let mut m = machine(2);
            m.superstep(|ctx| ctx.touch_write(BUF));
            m.superstep(|ctx| ctx.touch_write(BUF)); // clobbers unread data
        });
        assert_eq!(rules(&v), vec![RuleId::DeadSend, RuleId::DeadSend]);
        assert!(v[0].detail.contains("region 3"), "{v:?}");
    }

    #[test]
    fn region_modify_and_read_write_cycles_are_clean() {
        const BUF: u32 = 3;
        let ((), v) = check_races(RaceConfig::exclusive(), || {
            let mut m = machine(2);
            m.superstep(|ctx| ctx.touch_read(BUF)); // initial state: legal
            m.superstep(|ctx| ctx.touch_modify(BUF));
            m.superstep(|ctx| ctx.touch_modify(BUF)); // append consumes previous
            m.superstep(|ctx| {
                ctx.touch_read(BUF);
                ctx.touch_write(BUF); // write after read: fine
            });
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn checker_is_inert_without_violations_across_many_steps() {
        let ((), v) = check_races(RaceConfig::queued_tagged(), || {
            let mut m = machine(8);
            for _ in 0..5 {
                m.superstep(|ctx| {
                    let sum: u32 = ctx.msgs().iter().map(|m| m.word_u32()).sum();
                    let dst = (ctx.pid() + 1) % ctx.nprocs();
                    ctx.send_word_u32(dst, sum + 1);
                });
            }
            m.superstep(|ctx| {
                let _ = ctx.msgs();
            });
        });
        assert!(v.is_empty(), "{v:?}");
    }
}
