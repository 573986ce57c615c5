//! Superstep observers: the simulator's one per-superstep hook.
//!
//! Every tool that watches a run implements [`SuperstepProbe`] and is
//! installed with [`with_probe`]: cost tracing (`pcm-trace`, the
//! benchmark's counters), the trace collector [`collect_traces`], the
//! protocol sanitizer (`pcm-check`), the happens-before analyzer
//! (`pcm-race`) and the dry-run plan recorder behind
//! [`crate::extract_plans`]. The machine
//! reports each superstep *after* the clock update and delivery, from
//! the one exchange engine every machine runs (the fused sweep), so the
//! analyzers certify exactly the code the figures run.
//!
//! * **Declarations.** An observer declares what it reads through
//!   [`SuperstepProbe::needs`]. [`Needs::Cost`] observers get the clock
//!   pair, the engine, phase timings, network counters and the
//!   superstep's [`SuperstepTrace`]. [`Needs::Schedule`] observers also
//!   get a [`StepDetail`]: the pattern, inbox counts and read flags,
//!   shadow events, send metadata, out-of-range sends and charge flags.
//!   The machine snapshots that detail, and `Ctx` records shadow events,
//!   only when an installed observer declared `Schedule`.
//! * **Stacking.** Scopes nest and stack: a machine gets one observer
//!   from every enclosing scope's factory (outermost first), so a cost
//!   tracer wrapped around an analyzer still sees the analyzer's
//!   machines. Scopes are thread-local because algorithms construct
//!   machines internally (via `Platform::machine`); observers therefore
//!   need no `Send` bound and can share state with their installer
//!   through `Rc<RefCell<..>>`.
//! * **Dry runs.** Inside [`crate::extract_plans`] machines run dry: no
//!   pricing, the clock stays at zero, no traces are stored. A dry step
//!   has no cost, so it is reported to `Schedule` observers only; cost
//!   observers are still built (one factory call per machine) but see
//!   nothing.
//! * **End of run.** [`SuperstepProbe::finish`] runs when the machine is
//!   dropped, with the messages still pending in each inbox.
//!
//! Observation never perturbs the simulation: observers run strictly after
//! the clock update and never touch the network rng, so simulated times,
//! golden digests and delivery order are bit-identical with and without
//! them (held by `tests/trace.rs`). An unobserved machine pays one
//! emptiness test per superstep and never calls `Instant::now()`; observed
//! steady-state supersteps stay allocation-free as long as the observers'
//! own storage is preallocated (see `pcm-trace`'s row log).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use pcm_core::SimTime;

use crate::cache::CacheStats;
use crate::ctx::ProcAux;
use crate::network::NetTerms;
use crate::pattern::CommPattern;
use crate::shadow::{SendMeta, ShadowEvent};
use crate::step::SuperstepTrace;

/// Which exchange engine ran the superstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangePath {
    /// Single-sweep sequential exchange: every superstep reports it.
    Fused,
    /// The former sharded parallel exchange. No engine produces it any
    /// more; the variant stays so existing exhaustive matches and report
    /// columns keep their meaning (they read zero).
    Sharded,
    /// The former sequential reference exchange. No engine produces it
    /// any more; the variant stays so existing exhaustive matches and
    /// report columns keep their meaning (they read zero).
    Reference,
}

impl ExchangePath {
    /// Stable lower-case label (used by trace exporters).
    pub fn label(self) -> &'static str {
        match self {
            ExchangePath::Fused => "fused",
            ExchangePath::Sharded => "sharded",
            ExchangePath::Reference => "reference",
        }
    }
}

/// Wall-clock nanoseconds per engine phase of one superstep. The fused
/// exchange folds pattern rebuild, delivery and recycling into `gather`,
/// so `scatter` and `recycle` are always zero; they stay so existing
/// readers of the phase breakdown keep their meaning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Processor execution (the user closure over all processors).
    pub compute: u64,
    /// Phase of the former sharded exchange; always zero.
    pub scatter: u64,
    /// Network pricing (`route`/`barrier`).
    pub price: u64,
    /// The fused sweep: payload recycling, pattern rebuild and delivery.
    pub gather: u64,
    /// Phase of the former sharded exchange; always zero.
    pub recycle: u64,
}

impl PhaseNanos {
    /// Total attributed wall time of the superstep.
    pub fn total(&self) -> u64 {
        self.compute + self.scatter + self.price + self.gather + self.recycle
    }
}

/// What an observer reads from each superstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Needs {
    /// The [`StepObs`] cost fields only; priced supersteps only.
    Cost,
    /// The cost fields plus the [`StepDetail`] schedule snapshot, on
    /// priced and dry supersteps alike.
    Schedule,
}

/// Everything the machine reports about one superstep, handed to every
/// installed [`SuperstepProbe`] *after* the clock update and delivery.
pub struct StepObs<'a> {
    /// The superstep's record: its index, the `compute`/`comm` pair it
    /// added to the clock, and its pattern statistics. The same value
    /// [`crate::Machine::traces`] stores, computed even when the
    /// machine's own tracing is off.
    pub trace: &'a SuperstepTrace,
    /// The machine clock *after* this superstep. Folding
    /// `trace.compute + trace.comm` per step in order reproduces this
    /// value bit-identically (same additions, same order).
    pub clock: SimTime,
    /// Total send records of the superstep (0 means the network priced a
    /// bare barrier).
    pub records: usize,
    /// Which exchange engine ran (always [`ExchangePath::Fused`]).
    pub path: ExchangePath,
    /// Wall-clock phase breakdown (non-deterministic; diagnostics only).
    pub phases: PhaseNanos,
    /// Cumulative route-memo statistics of the network model, if any.
    pub memo: Option<CacheStats>,
    /// Cumulative deterministic cost-term counters of the network model,
    /// if it implements [`crate::NetworkModel::cost_terms`].
    pub terms: Option<NetTerms>,
    /// Schedule detail; `Some` whenever an installed observer declared
    /// [`Needs::Schedule`].
    pub detail: Option<StepDetail<'a>>,
}

/// Per-processor schedule detail of one superstep, snapshotted before
/// delivery. Identical on pooled and sequential runs.
#[derive(Clone, Copy)]
pub struct StepDetail<'a> {
    /// The full ordered communication pattern of the superstep.
    pub pattern: &'a CommPattern,
    pub(crate) procs: &'a [ProcAux],
}

impl<'a> StepDetail<'a> {
    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// Messages that were in `pid`'s inbox this superstep (delivered at
    /// the previous barrier).
    pub fn inbox_count(&self, pid: usize) -> usize {
        self.procs[pid].inbox_seen
    }

    /// Whether `pid` read its inbox (any `msgs*` accessor) this superstep.
    pub fn inbox_read(&self, pid: usize) -> bool {
        self.procs[pid].read_inbox
    }

    /// `false` if any of `pid`'s `charge*` calls was NaN, infinite or
    /// negative.
    pub fn charge_ok(&self, pid: usize) -> bool {
        self.procs[pid].charge_ok
    }

    /// Out-of-range destinations `pid` sent to (recorded and dropped).
    pub fn oob_sends(&self, pid: usize) -> &'a [usize] {
        &self.procs[pid].oob_sends
    }

    /// `pid`'s shadow events (region touches and inbox consumes) in
    /// program order.
    pub fn events(&self, pid: usize) -> &'a [ShadowEvent] {
        &self.procs[pid].events
    }

    /// Metadata of every deliverable message `pid` sent, in send order
    /// (out-of-range and empty sends excluded).
    pub fn sends(&self, pid: usize) -> impl Iterator<Item = SendMeta> + 'a {
        let records = &self.pattern.sends[pid];
        let tags = &self.procs[pid].sent_tags;
        records.iter().zip(tags).map(|(r, &tag)| SendMeta {
            dst: r.dst,
            tag,
            kind: r.kind,
            words: r.words,
        })
    }
}

/// End-of-run view handed to [`SuperstepProbe::finish`] when the machine
/// is dropped.
pub struct RunEnd<'a> {
    /// Number of supersteps the machine executed.
    pub supersteps: usize,
    pub(crate) procs: &'a [ProcAux],
}

impl RunEnd<'_> {
    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// Messages delivered to `pid` at the last barrier and never consumed.
    pub fn pending_inbox(&self, pid: usize) -> usize {
        self.procs[pid].inbox.len()
    }
}

/// Observer of a machine's supersteps. Implementations live outside
/// `pcm-sim`; the simulator only defines the reporting contract.
pub trait SuperstepProbe {
    /// What this observer reads; fixed for the machine's lifetime.
    fn needs(&self) -> Needs {
        Needs::Cost
    }

    /// Called once per reported superstep, after the clock update and
    /// delivery.
    fn observe(&mut self, obs: &StepObs<'_>);

    /// Called when the machine is dropped.
    fn finish(&mut self, _end: &RunEnd<'_>) {}
}

/// Factory invoked by `Machine::new` with the processor count.
pub type ProbeFactory = Rc<dyn Fn(usize) -> Box<dyn SuperstepProbe>>;

struct Scope {
    factory: ProbeFactory,
    dry: bool,
}

thread_local! {
    static SCOPES: RefCell<Vec<Scope>> = const { RefCell::new(Vec::new()) };
}

/// Runs `body` with `factory` installed: every [`crate::Machine`] created
/// on this thread inside `body` gets its own observer from the factory,
/// next to the observers of any enclosing scopes. The scope ends on exit
/// (also on panic).
pub fn with_probe<R>(
    factory: impl Fn(usize) -> Box<dyn SuperstepProbe> + 'static,
    body: impl FnOnce() -> R,
) -> R {
    scoped(Rc::new(factory), false, body)
}

/// A cost observer that keeps the [`SuperstepTrace`] of every priced
/// superstep of every machine created in its scope.
struct TraceCollector {
    sink: Rc<RefCell<Vec<SuperstepTrace>>>,
}

impl SuperstepProbe for TraceCollector {
    fn observe(&mut self, obs: &StepObs<'_>) {
        self.sink.borrow_mut().push(*obs.trace);
    }
}

/// Runs `body` and returns its result plus the superstep traces of every
/// machine it created, interleaved in execution order.
pub fn collect_traces<R>(body: impl FnOnce() -> R) -> (R, Vec<SuperstepTrace>) {
    let sink: Rc<RefCell<Vec<SuperstepTrace>>> = Rc::default();
    let handle = sink.clone();
    let result = with_probe(
        move |_p| {
            Box::new(TraceCollector {
                sink: handle.clone(),
            })
        },
        body,
    );
    let traces = sink.take();
    (result, traces)
}

/// Whether any observer scope is active on this thread.
pub(crate) fn scoped_here() -> bool {
    SCOPES.with(|s| !s.borrow().is_empty())
}

/// Pushes one observer scope (a dry one for plan extraction) for the
/// duration of `body`.
pub(crate) fn scoped<R>(factory: ProbeFactory, dry: bool, body: impl FnOnce() -> R) -> R {
    SCOPES.with(|s| s.borrow_mut().push(Scope { factory, dry }));
    let _pop = ScopeGuard;
    body()
}

/// The observers of a machine constructed now, outermost scope first,
/// and whether it runs dry. Every factory is called once; in a dry run
/// the cost observers are dropped at once.
pub(crate) fn install(p: usize) -> (Vec<Box<dyn SuperstepProbe>>, bool) {
    // Cloned out first: the factories run with the stack unborrowed.
    let scopes: Vec<(ProbeFactory, bool)> = SCOPES.with(|s| {
        s.borrow()
            .iter()
            .map(|sc| (sc.factory.clone(), sc.dry))
            .collect()
    });
    let dry = scopes.iter().any(|&(_, d)| d);
    let observers = scopes
        .iter()
        .map(|(factory, _)| factory(p))
        .filter(|o| !dry || o.needs() == Needs::Schedule)
        .collect();
    (observers, dry)
}

/// Starts a wall-clock phase span — only when observed, so the
/// unobserved hot path never calls `Instant::now()`.
#[inline]
pub(crate) fn mark(observed: bool) -> Option<Instant> {
    observed.then(Instant::now)
}

/// Ends a phase span begun by [`mark`], in saturating nanoseconds.
#[inline]
pub(crate) fn since(t: Option<Instant>) -> u64 {
    t.map_or(0, |t| {
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
    })
}

struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPES.with(|s| s.borrow_mut().pop());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::UniformCompute;
    use crate::network::IdealNetwork;
    use crate::Machine;
    use std::cell::Cell;
    use std::sync::Arc;

    /// Records one line per observed superstep and one per finish.
    struct Recorder {
        needs: Needs,
        log: Rc<RefCell<Vec<String>>>,
    }

    impl SuperstepProbe for Recorder {
        fn needs(&self) -> Needs {
            self.needs
        }

        fn observe(&mut self, obs: &StepObs<'_>) {
            let read = obs.detail.map(|d| {
                (0..d.nprocs())
                    .map(|pid| d.inbox_read(pid))
                    .collect::<Vec<_>>()
            });
            self.log.borrow_mut().push(format!(
                "step {} records {} read {read:?}",
                obs.trace.index, obs.records
            ));
        }

        fn finish(&mut self, end: &RunEnd<'_>) {
            let pending: Vec<usize> = (0..end.nprocs())
                .map(|pid| end.pending_inbox(pid))
                .collect();
            self.log.borrow_mut().push(format!(
                "finish after {} pending {pending:?}",
                end.supersteps
            ));
        }
    }

    fn recording(needs: Needs, body: impl FnOnce()) -> Vec<String> {
        let log: Rc<RefCell<Vec<String>>> = Rc::default();
        let sink = log.clone();
        with_probe(
            move |_p| {
                Box::new(Recorder {
                    needs,
                    log: sink.clone(),
                })
            },
            body,
        );
        log.take()
    }

    fn machine(p: usize) -> Machine<u32> {
        Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; p],
            9,
        )
    }

    fn send_then_read(m: &mut Machine<u32>) {
        m.superstep(|ctx| {
            if ctx.pid() == 0 {
                ctx.send_word_u32(1, 7);
            }
        });
        m.superstep(|ctx| {
            let _ = ctx.msgs();
        });
    }

    #[test]
    fn probe_sees_every_superstep_and_the_finish() {
        let log = recording(Needs::Cost, || send_then_read(&mut machine(2)));
        assert_eq!(
            log,
            [
                "step 0 records 1 read None",
                "step 1 records 0 read None",
                "finish after 2 pending [0, 0]",
            ]
        );
    }

    #[test]
    fn schedule_observers_get_the_detail() {
        let log = recording(Needs::Schedule, || send_then_read(&mut machine(2)));
        assert_eq!(log[0], "step 0 records 1 read Some([false, false])");
        assert_eq!(log[1], "step 1 records 0 read Some([true, true])");
    }

    #[test]
    fn pending_messages_are_reported_at_drop() {
        let log = recording(Needs::Cost, || {
            let mut m = machine(2);
            m.superstep(|ctx| {
                if ctx.pid() == 0 {
                    ctx.send_word_u32(1, 7);
                }
            });
        });
        assert_eq!(log.last().unwrap(), "finish after 1 pending [0, 1]");
    }

    #[test]
    fn hook_does_not_leak_out_of_scope() {
        let log: Rc<RefCell<Vec<String>>> = Rc::default();
        let sink = log.clone();
        with_probe(
            move |_p| {
                Box::new(Recorder {
                    needs: Needs::Cost,
                    log: sink.clone(),
                })
            },
            || machine(2).sync(),
        );
        let after = log.borrow().len();
        machine(2).sync(); // outside the scope: not observed
        assert_eq!(log.borrow().len(), after);
    }

    #[test]
    fn scopes_stack_outermost_first() {
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        struct Tag(&'static str, Rc<RefCell<Vec<&'static str>>>);
        impl SuperstepProbe for Tag {
            fn observe(&mut self, _obs: &StepObs<'_>) {
                self.1.borrow_mut().push(self.0);
            }
        }
        let (outer, inner) = (order.clone(), order.clone());
        with_probe(
            move |_p| Box::new(Tag("outer", outer.clone())),
            || {
                with_probe(
                    move |_p| Box::new(Tag("inner", inner.clone())),
                    || machine(2).sync(),
                );
                machine(2).sync(); // the inner scope has ended
            },
        );
        assert_eq!(*order.borrow(), ["outer", "inner", "outer"]);
    }

    #[test]
    fn dry_steps_reach_schedule_observers_only() {
        let factory_calls = Rc::new(Cell::new(0usize));
        let calls = factory_calls.clone();
        let cost_log: Rc<RefCell<Vec<String>>> = Rc::default();
        let sink = cost_log.clone();
        let ((), plans) = with_probe(
            move |_p| {
                calls.set(calls.get() + 1);
                Box::new(Recorder {
                    needs: Needs::Cost,
                    log: sink.clone(),
                })
            },
            || crate::extract_plans(|| send_then_read(&mut machine(2))),
        );
        assert_eq!(factory_calls.get(), 1, "one factory call per machine");
        assert!(cost_log.borrow().is_empty(), "dry steps have no cost");
        assert_eq!(plans[0].steps.len(), 2);
        let schedule = recording(Needs::Schedule, || {
            crate::extract_plans(|| send_then_read(&mut machine(2)));
        });
        assert_eq!(schedule.len(), 3, "2 dry steps + finish: {schedule:?}");
    }

    #[test]
    fn probe_does_not_change_simulated_time() {
        let run = || {
            let mut m = machine(8);
            m.superstep(|ctx| {
                ctx.charge(2.0);
                let dst = (ctx.pid() + 1) % ctx.nprocs();
                ctx.send_word_u32(dst, 1);
            });
            m.superstep(|ctx| {
                let _ = ctx.msgs();
            });
            m.time()
        };
        let bare = run();
        for needs in [Needs::Cost, Needs::Schedule] {
            let probed = with_probe(
                move |_p| {
                    Box::new(Recorder {
                        needs,
                        log: Rc::default(),
                    })
                },
                run,
            );
            assert_eq!(
                bare, probed,
                "{needs:?} observer must not perturb the clock"
            );
        }
    }

    /// Cross-checks the detail accessors against each other on every step:
    /// the inbox counts of step `s` equal the per-destination deliverable
    /// send counts of step `s-1`, `inbox_read` agrees with the presence
    /// of `Consume` shadow events, and the pattern's message total equals
    /// the flattened send metadata.
    struct Consistency {
        prev_sends_per_dst: Vec<usize>,
        steps_seen: Rc<Cell<usize>>,
    }

    impl SuperstepProbe for Consistency {
        fn needs(&self) -> Needs {
            Needs::Schedule
        }

        fn observe(&mut self, obs: &StepObs<'_>) {
            let d = obs.detail.expect("schedule observers get the detail");
            let p = d.nprocs();
            let inbox: Vec<usize> = (0..p).map(|pid| d.inbox_count(pid)).collect();
            assert_eq!(
                inbox, self.prev_sends_per_dst,
                "step {}: inbox counts must match the previous step's sends",
                obs.trace.index
            );
            // A Words send is priced per word, a block once.
            let sent_total: usize = (0..p)
                .flat_map(|pid| d.sends(pid))
                .map(|s| match s.kind {
                    crate::message::MsgKind::Words => s.words,
                    crate::message::MsgKind::Block | crate::message::MsgKind::Xnet => 1,
                })
                .sum();
            assert_eq!(
                d.pattern.total_messages(),
                sent_total,
                "step {}",
                obs.trace.index
            );
            assert_eq!(obs.trace.messages, sent_total, "step {}", obs.trace.index);
            let mut per_dst = vec![0usize; p];
            for pid in 0..p {
                let consumed = d
                    .events(pid)
                    .iter()
                    .any(|e| matches!(e, ShadowEvent::Consume { .. }));
                assert_eq!(
                    d.inbox_read(pid),
                    consumed,
                    "step {} pid {pid}",
                    obs.trace.index
                );
                for s in d.sends(pid) {
                    per_dst[s.dst] += 1;
                }
            }
            self.prev_sends_per_dst = per_dst;
            self.steps_seen.set(self.steps_seen.get() + 1);
        }
    }

    #[test]
    fn step_detail_is_mutually_consistent() {
        let steps_seen = Rc::new(Cell::new(0usize));
        let counter = steps_seen.clone();
        with_probe(
            move |p| {
                Box::new(Consistency {
                    prev_sends_per_dst: vec![0; p],
                    steps_seen: counter.clone(),
                })
            },
            || {
                let mut m = machine(4);
                // An uneven pattern: 0 fans out, 3 stays silent.
                m.superstep(|ctx| {
                    if ctx.pid() == 0 {
                        ctx.send_words_u32(1, &[1, 2]);
                        ctx.send_word_u32(2, 3);
                    }
                });
                m.superstep(|ctx| {
                    if ctx.pid() <= 2 {
                        let n = u32::try_from(ctx.msgs().len()).unwrap();
                        ctx.send_word_u32(3, n);
                    }
                });
                m.superstep(|ctx| {
                    let _ = ctx.msgs_tagged(0).count();
                });
            },
        );
        assert_eq!(steps_seen.get(), 3, "observer saw every superstep");
    }
}
