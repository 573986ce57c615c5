//! The superstep machine.
//!
//! A [`Machine`] owns `P` virtual processors (each with a private state
//! `S`), a network model and a compute model. An *orchestrator* — ordinary
//! Rust code implementing a parallel algorithm — drives it through a
//! sequence of supersteps:
//!
//! ```
//! use pcm_sim::{Machine, IdealNetwork, UniformCompute};
//!
//! // Each processor holds one number; one superstep rotates them left.
//! let mut m = Machine::new(
//!     Box::new(IdealNetwork),
//!     std::sync::Arc::new(UniformCompute::test_model()),
//!     (0u32..8).collect::<Vec<_>>(),
//!     42,
//! );
//! m.superstep(|ctx| {
//!     let next = (ctx.pid() + 1) % ctx.nprocs();
//!     let v = *ctx.state;
//!     ctx.send_word_u32(next, v);
//! });
//! m.superstep(|ctx| {
//!     *ctx.state = ctx.msgs()[0].word_u32();
//! });
//! assert_eq!(m.states()[1], 0);
//! ```
//!
//! Within a superstep the processors are independent (the BSP contract), so
//! a machine of at least `PARALLEL_CUTOFF` processors splits them into one
//! contiguous chunk per pool thread and runs the chunks with the rayon
//! shim's `scoped_join`, the same primitive [`crate::map_ordered`] fans out
//! with. All randomness is seeded: the same seed gives bit-identical
//! simulated times and results.
//!
//! The exchange phase is one engine on every machine: a fused sequential
//! sweep that recycles the consumed payloads, rebuilds the pattern while
//! it delivers the new messages, then prices the pattern. Observers
//! installed with [`crate::with_probe`] see exactly that engine, so every
//! analyzer checks the code the figures run.

use std::sync::Arc;

use pcm_core::rng::{child_seed, seeded};
use pcm_core::SimTime;
use rand::rngs::StdRng;

use crate::compute::ComputeModel;
use crate::ctx::{Ctx, ProcAux};
use crate::message::MsgKind;
use crate::network::NetworkModel;
use crate::pattern::{CommPattern, SendRecord};
use crate::probe::{
    self, ExchangePath, Needs, PhaseNanos, RunEnd, StepDetail, StepObs, SuperstepProbe,
};
use crate::step::{RunBreakdown, SuperstepTrace};
use crate::strategy;

/// A simulated distributed-memory parallel machine.
pub struct Machine<S> {
    p: usize,
    states: Vec<S>,
    /// Per-processor scratch (inbox, outbox, event buffers, payload pool),
    /// reused across supersteps so the hot path stops allocating.
    procs: Vec<ProcAux>,
    net: Box<dyn NetworkModel>,
    compute: Arc<dyn ComputeModel>,
    clock: SimTime,
    seed: u64,
    net_rng: StdRng,
    step_count: usize,
    traces: Vec<SuperstepTrace>,
    tracing: bool,
    parallel: bool,
    /// The superstep's communication pattern, rebuilt in place each step.
    pattern: CommPattern,
    /// Tracing scratch: words received per processor.
    stat_recv: Vec<usize>,
    /// Tracing scratch: per-processor activity flags.
    stat_active: Vec<bool>,
    /// Tracing scratch: per-round max block bytes.
    stat_round_max: Vec<usize>,
    /// Observers installed via [`crate::probe::with_probe`] or
    /// [`crate::extract_plans`] at construction time, outermost scope
    /// first. Empty on the unobserved hot path — one emptiness test per
    /// superstep.
    observers: Vec<Box<dyn SuperstepProbe>>,
    /// Some observer declared [`Needs::Schedule`]: `Ctx` records shadow
    /// events and each processor snapshots its schedule detail.
    schedule: bool,
    /// Dry run (inside [`crate::extract_plans`]): nothing is priced and
    /// no traces are stored.
    dry: bool,
}

/// Smallest machine whose closures fan out across the pool: below it the
/// dispatch handshake costs more than the closures themselves.
const PARALLEL_CUTOFF: usize = 32;

impl<S: Send> Machine<S> {
    /// Creates a machine with one state per processor.
    pub fn new(
        net: Box<dyn NetworkModel>,
        compute: Arc<dyn ComputeModel>,
        states: Vec<S>,
        seed: u64,
    ) -> Self {
        let p = states.len();
        assert!(p > 0, "a machine needs at least one processor");
        let (observers, dry) = probe::install(p);
        let schedule = observers.iter().any(|o| o.needs() == Needs::Schedule);
        Machine {
            p,
            procs: (0..p).map(|_| ProcAux::default()).collect(),
            states,
            net,
            compute,
            clock: SimTime::ZERO,
            seed,
            net_rng: seeded(child_seed(seed, u64::MAX)),
            step_count: 0,
            traces: Vec::new(),
            tracing: true,
            parallel: !strategy::sequential_forced(),
            pattern: CommPattern {
                p,
                sends: (0..p).map(|_| Vec::new()).collect(),
            },
            stat_recv: vec![0; p],
            stat_active: vec![false; p],
            stat_round_max: Vec::new(),
            observers,
            schedule,
            dry,
        }
    }

    /// Disables per-superstep tracing (saves memory on very long runs).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.p
    }

    /// Simulated time elapsed so far.
    pub fn time(&self) -> SimTime {
        self.clock
    }

    /// Resets the simulated clock and traces (keeps states and inboxes).
    pub fn reset_clock(&mut self) {
        self.clock = SimTime::ZERO;
        self.traces.clear();
    }

    /// Number of supersteps executed.
    pub fn supersteps(&self) -> usize {
        self.step_count
    }

    /// Immutable view of the processor states.
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Mutable view of the processor states (for initialization).
    pub fn states_mut(&mut self) -> &mut [S] {
        &mut self.states
    }

    /// Consumes the machine, returning the final states. (The machine's
    /// `Drop` — which finishes the installed observers — still runs, on an
    /// empty state vector.)
    pub fn into_states(mut self) -> Vec<S> {
        std::mem::take(&mut self.states)
    }

    /// The per-superstep traces collected so far.
    pub fn traces(&self) -> &[SuperstepTrace] {
        &self.traces
    }

    /// Aggregated compute/communication breakdown of the run.
    pub fn breakdown(&self) -> RunBreakdown {
        RunBreakdown::from_traces(&self.traces)
    }

    /// The platform's compute model.
    pub fn compute_model(&self) -> &dyn ComputeModel {
        &*self.compute
    }

    /// Enables or disables the network model's route memo (models without
    /// one ignore the call). Memoization caches only deterministic pricing
    /// values, so toggling it never changes a simulated time.
    pub fn set_route_memo(&mut self, enabled: bool) {
        self.net.set_route_memo(enabled);
    }

    /// Hit/miss statistics of the network model's route memo, if any.
    pub fn route_memo_stats(&self) -> Option<crate::cache::CacheStats> {
        self.net.route_memo_stats()
    }

    /// Executes one superstep: runs `f` on every processor, prices the
    /// resulting communication pattern, advances the simulated clock and
    /// delivers the messages for the next superstep.
    pub fn superstep<F>(&mut self, f: F)
    where
        F: Fn(&mut Ctx<'_, S>) + Sync,
    {
        let p = self.p;
        let step = self.step_count;
        let seed = self.seed;
        let compute: &dyn ComputeModel = &*self.compute;
        let word = compute.word_bytes();
        let schedule = self.schedule;

        let run_one = |pid: usize, state: &mut S, aux: &mut ProcAux| {
            let rng_seed = child_seed(seed, (step * p + pid) as u64);
            let outcome = {
                let mut ctx = Ctx::new(pid, p, state, aux, compute, word, rng_seed, schedule);
                f(&mut ctx);
                ctx.finish()
            };
            aux.compute_us = outcome.compute_us;
            aux.charge_ok = outcome.charge_ok;
            aux.read_inbox = outcome.read_inbox;
            if schedule {
                aux.snapshot_schedule();
            }
        };

        let t_compute = probe::mark(!self.observers.is_empty());
        // One contiguous pid-ordered chunk per pool thread; a single chunk
        // (run inline) on small machines and under `with_sequential`. The
        // chunk table lives on the stack, so dispatch never touches the heap.
        let n = if self.parallel && p >= PARALLEL_CUTOFF {
            rayon::current_num_threads().min(p)
        } else {
            1
        };
        type Chunk<'a, S> = Option<(usize, &'a mut [S], &'a mut [ProcAux])>;
        let mut chunks: [Chunk<'_, S>; rayon::MAX_PIECES] = std::array::from_fn(|_| None);
        let mut states = self.states.as_mut_slice();
        let mut procs = self.procs.as_mut_slice();
        let mut base = 0;
        for (k, chunk) in chunks.iter_mut().enumerate().take(n) {
            let take = (p - base).div_ceil(n - k);
            let (sh, st) = std::mem::take(&mut states).split_at_mut(take);
            let (ph, pt) = std::mem::take(&mut procs).split_at_mut(take);
            (states, procs) = (st, pt);
            *chunk = Some((base, sh, ph));
            base += take;
        }
        rayon::scoped_join(&mut chunks[..n], |_, chunk| {
            let (base, states, procs) = chunk.as_mut().expect("chunk built");
            for (i, (state, aux)) in states.iter_mut().zip(procs.iter_mut()).enumerate() {
                run_one(*base + i, state, aux);
            }
        });

        let compute_ns = probe::since(t_compute);

        // Exchange: pattern rebuild, delivery, pricing, observation.
        self.exchange_fused(step, compute_ns);

        self.step_count += 1;
    }

    /// Prices the rebuilt pattern and advances the clock, returning the
    /// superstep's `(compute, comm)` pair. A dry run prices nothing.
    fn price(&mut self, total_records: usize, max_compute: f64) -> (SimTime, SimTime) {
        if self.dry {
            return (SimTime::ZERO, SimTime::ZERO);
        }
        let comm = if total_records == 0 {
            self.net.barrier()
        } else {
            self.net.route(&self.pattern, &mut self.net_rng)
        };
        let compute = SimTime::from_micros(max_compute);
        self.clock += compute + comm;
        (compute, comm)
    }

    /// Reports one finished superstep to the installed observers, then
    /// stores its trace. Runs after the clock update and delivery, reading
    /// only values the machine already computed, so it cannot perturb the
    /// simulation.
    fn record_step(&mut self, trace: SuperstepTrace, records: usize, phases: PhaseNanos) {
        if !self.observers.is_empty() {
            let obs = StepObs {
                trace: &trace,
                clock: self.clock,
                records,
                path: ExchangePath::Fused,
                phases,
                memo: self.net.route_memo_stats(),
                terms: self.net.cost_terms(),
                detail: self.schedule.then_some(StepDetail {
                    pattern: &self.pattern,
                    procs: &self.procs,
                }),
            };
            for observer in &mut self.observers {
                observer.observe(&obs);
            }
        }
        if self.tracing && !self.dry {
            self.traces.push(trace);
        }
    }

    /// Single-sweep sequential exchange: one pass over the outboxes both
    /// rebuilds the pattern records and moves each message to its
    /// destination inbox, instead of touching every message twice.
    /// Delivery runs before pricing here, which is unobservable — pricing
    /// reads only the finished pattern and the network rng, delivery only
    /// moves messages, and observers read the detail each processor
    /// snapshotted before delivery.
    fn exchange_fused(&mut self, step: usize, compute_ns: u64) {
        let observed = !self.observers.is_empty();
        let t = probe::mark(observed);
        let p = self.p;
        // Drop consumed inboxes first so delivery can append in place.
        // Recycling an inline payload is a no-op, so an inbox with no
        // heap payloads is cleared without visiting its messages.
        let mut max_compute = 0.0f64;
        for dst in 0..p {
            max_compute = max_compute.max(self.procs[dst].compute_us);
            if self.procs[dst].inbox_heap == 0 {
                self.procs[dst].inbox.clear();
            } else {
                let mut inbox = std::mem::take(&mut self.procs[dst].inbox);
                for msg in inbox.drain(..) {
                    let src = msg.src;
                    self.procs[src].pool.recycle(msg.into_payload());
                }
                let aux = &mut self.procs[dst];
                aux.inbox = inbox;
                aux.inbox_heap = 0;
            }
        }
        // One sweep: record each outbox message in the pattern and push it
        // to its inbox, preserving the (src, send-order) delivery order.
        let mut total_records = 0usize;
        for src in 0..p {
            if self.procs[src].outbox.is_empty() {
                self.pattern.sends[src].clear();
                continue;
            }
            let mut outbox = std::mem::take(&mut self.procs[src].outbox);
            let sends = &mut self.pattern.sends[src];
            sends.clear();
            total_records += outbox.len();
            for msg in outbox.drain(..) {
                sends.push(SendRecord {
                    dst: msg.dst,
                    words: msg.logical_words as usize,
                    bytes: msg.logical_bytes as usize,
                    kind: msg.kind,
                });
                let aux = &mut self.procs[msg.dst];
                aux.inbox_heap += usize::from(msg.payload_is_heap());
                aux.inbox.push(msg);
            }
            self.procs[src].outbox = outbox;
        }
        let gather_ns = probe::since(t);
        let t = probe::mark(observed);
        let (compute_time, comm) = self.price(total_records, max_compute);
        let price_ns = probe::since(t);
        if self.tracing || observed {
            let trace = self.pattern_trace(step, compute_time, comm);
            let phases = PhaseNanos {
                compute: compute_ns,
                scatter: 0,
                price: price_ns,
                gather: gather_ns,
                recycle: 0,
            };
            self.record_step(trace, total_records, phases);
        }
    }

    /// The superstep trace: all pattern statistics in one pass over the
    /// send records, using the machine's reusable scratch buffers.
    /// Semantics are identical to the `CommPattern` query methods.
    fn pattern_trace(
        &mut self,
        step: usize,
        compute_time: SimTime,
        comm: SimTime,
    ) -> SuperstepTrace {
        let pattern = &self.pattern;
        let recv = &mut self.stat_recv;
        let active = &mut self.stat_active;
        for v in recv.iter_mut() {
            *v = 0;
        }
        for a in active.iter_mut() {
            *a = false;
        }
        let mut messages = 0usize;
        let mut bytes = 0usize;
        let mut h_send = 0usize;
        let (mut word_msgs, mut block_msgs, mut xnet_msgs) = (0usize, 0usize, 0usize);
        for (src, recs) in pattern.sends.iter().enumerate() {
            let mut sent_words = 0usize;
            for r in recs {
                bytes += r.bytes;
                match r.kind {
                    MsgKind::Words => {
                        messages += r.words;
                        word_msgs += r.words;
                        sent_words += r.words;
                        recv[r.dst] += r.words;
                    }
                    MsgKind::Block => {
                        messages += 1;
                        block_msgs += 1;
                    }
                    MsgKind::Xnet => {
                        messages += 1;
                        xnet_msgs += 1;
                    }
                }
                if r.words > 0 {
                    active[src] = true;
                    active[r.dst] = true;
                }
            }
            h_send = h_send.max(sent_words);
        }
        let h_recv = recv.iter().copied().max().unwrap_or(0);
        let active = active.iter().filter(|&&a| a).count();
        // Block/xnet rounds: round `r` holds the `r`-th record of that
        // kind from each source; its cost driver is the largest block.
        let mut block_steps = 0usize;
        let mut block_bytes_sum = 0usize;
        for kind in [MsgKind::Block, MsgKind::Xnet] {
            let round_max = &mut self.stat_round_max;
            round_max.clear();
            for recs in &pattern.sends {
                for (round, r) in recs.iter().filter(|r| r.kind == kind).enumerate() {
                    if round == round_max.len() {
                        round_max.push(r.bytes);
                    } else {
                        round_max[round] = round_max[round].max(r.bytes);
                    }
                }
            }
            block_steps += round_max.len();
            block_bytes_sum += round_max.iter().sum::<usize>();
        }
        SuperstepTrace {
            index: step,
            compute: compute_time,
            comm,
            messages,
            bytes,
            h_send,
            h_recv,
            active,
            block_steps,
            block_bytes_sum,
            word_msgs,
            block_msgs,
            xnet_msgs,
        }
    }

    /// A barrier-only superstep.
    pub fn sync(&mut self) {
        self.superstep(|_| {});
    }
}

impl<S> Drop for Machine<S> {
    fn drop(&mut self) {
        let end = RunEnd {
            supersteps: self.step_count,
            procs: &self.procs,
        };
        for observer in &mut self.observers {
            observer.finish(&end);
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, clippy::cast_possible_truncation)] // tests assert exact simulated values
mod tests {
    use super::*;
    use crate::compute::UniformCompute;
    use crate::network::{IdealNetwork, TextbookBspNetwork};

    fn test_machine(p: usize) -> Machine<Vec<u32>> {
        Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            (0..p).map(|i| vec![i as u32]).collect(),
            7,
        )
    }

    #[test]
    fn messages_are_delivered_next_superstep() {
        let mut m = test_machine(4);
        m.superstep(|ctx| {
            let dst = (ctx.pid() + 1) % ctx.nprocs();
            let v = ctx.state[0];
            ctx.send_word_u32(dst, v * 10);
        });
        m.superstep(|ctx| {
            assert_eq!(ctx.msgs().len(), 1);
            let prev = (ctx.pid() + ctx.nprocs() - 1) % ctx.nprocs();
            assert_eq!(ctx.msgs()[0].src, prev);
            ctx.state.push(ctx.msgs()[0].word_u32());
        });
        assert_eq!(m.states()[0], vec![0, 30]);
        assert_eq!(m.states()[2], vec![2, 10]);
    }

    #[test]
    fn inbox_is_cleared_between_supersteps() {
        let mut m = test_machine(2);
        m.superstep(|ctx| {
            if ctx.pid() == 0 {
                ctx.send_word_u32(1, 5);
            }
        });
        m.superstep(|ctx| {
            if ctx.pid() == 1 {
                assert_eq!(ctx.msgs().len(), 1);
            }
        });
        m.superstep(|ctx| {
            assert!(ctx.msgs().is_empty(), "stale messages must not survive");
        });
    }

    #[test]
    fn inbox_is_cleared_between_supersteps_pooled() {
        // Pin a multi-thread pool width before the rayon shim latches it,
        // so a machine at or above `PARALLEL_CUTOFF` dispatches its
        // closures through the worker pool. Best-effort: if another test
        // latched the width first, the same delivery code still runs
        // sequentially.
        static FORCE: std::sync::Once = std::sync::Once::new();
        FORCE.call_once(|| {
            if std::env::var_os("RAYON_NUM_THREADS").is_none() {
                std::env::set_var("RAYON_NUM_THREADS", "4");
            }
        });
        let mut m = test_machine(64);
        m.superstep(|ctx| {
            if ctx.pid() == 0 {
                ctx.send_word_u32(1, 5);
            }
        });
        m.superstep(|ctx| {
            if ctx.pid() == 1 {
                assert_eq!(ctx.msgs().len(), 1);
            }
        });
        m.superstep(|ctx| {
            assert!(
                ctx.msgs().is_empty(),
                "stale messages must not survive the pooled path"
            );
        });
    }

    #[test]
    fn delivery_order_is_deterministic_by_source() {
        let mut m = test_machine(8);
        m.superstep(|ctx| {
            let pid = ctx.pid() as u32;
            ctx.send_words_u32(0, &[pid, pid + 100]);
        });
        m.superstep(|ctx| {
            if ctx.pid() == 0 {
                let srcs: Vec<usize> = ctx.msgs().iter().map(|m| m.src).collect();
                assert_eq!(srcs, (0..8).collect::<Vec<_>>());
            }
        });
    }

    #[test]
    fn clock_accumulates_compute_and_comm() {
        let mut m = Machine::new(
            Box::new(TextbookBspNetwork {
                g: 2.0,
                l: 10.0,
                sigma: 0.0,
                ell: 0.0,
            }),
            Arc::new(UniformCompute::test_model()),
            vec![(); 4],
            1,
        );
        m.superstep(|ctx| {
            ctx.charge(5.0);
            let dst = (ctx.pid() + 1) % 4;
            ctx.send_words_u32(dst, &[1, 2, 3]);
        });
        // compute 5 + g·3 + L = 5 + 6 + 10 = 21
        assert!((m.time().as_micros() - 21.0).abs() < 1e-9);
        m.sync(); // barrier only: +L
        assert!((m.time().as_micros() - 31.0).abs() < 1e-9);
        assert_eq!(m.supersteps(), 2);
    }

    #[test]
    fn compute_time_is_the_maximum_over_processors() {
        let mut m = test_machine(4);
        m.superstep(|ctx| {
            ctx.charge(ctx.pid() as f64 * 10.0);
        });
        assert!((m.time().as_micros() - 30.0).abs() < 1e-9);
        let b = m.breakdown();
        assert!((b.compute.as_micros() - 30.0).abs() < 1e-9);
        assert_eq!(b.comm, SimTime::ZERO);
    }

    #[test]
    fn traces_capture_pattern_statistics() {
        let mut m = test_machine(4);
        m.superstep(|ctx| {
            if ctx.pid() < 2 {
                ctx.send_words_u32(3, &[1, 2]);
            }
        });
        let t = &m.traces()[0];
        assert_eq!(t.messages, 4);
        assert_eq!(t.h_send, 2);
        assert_eq!(t.h_recv, 4);
        assert_eq!(t.active, 3, "procs 0, 1 and 3 participate");
    }

    #[test]
    fn sequential_and_parallel_execution_agree() {
        let run = |parallel: bool| {
            let mut m = if parallel {
                test_machine(16)
            } else {
                crate::with_sequential(|| test_machine(16))
            };
            m.superstep(|ctx| {
                ctx.charge(1.5);
                let dst = (ctx.pid() * 5 + 3) % 16;
                ctx.send_word_u32(dst, ctx.pid() as u32);
            });
            m.superstep(|ctx| {
                let sum: u32 = ctx.msgs().iter().map(|m| m.word_u32()).sum();
                ctx.state.push(sum);
            });
            (m.time(), m.into_states())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn per_proc_rng_is_deterministic_and_distinct() {
        let mut m = test_machine(4);
        m.superstep(|ctx| {
            let v: u32 = {
                use rand::RngExt;
                ctx.rng().random()
            };
            ctx.state.push(v);
        });
        let first: Vec<u32> = m.states().iter().map(|s| s[1]).collect();
        let mut m2 = test_machine(4);
        m2.superstep(|ctx| {
            let v: u32 = {
                use rand::RngExt;
                ctx.rng().random()
            };
            ctx.state.push(v);
        });
        let second: Vec<u32> = m2.states().iter().map(|s| s[1]).collect();
        assert_eq!(first, second, "same seed, same draws");
        assert!(
            first.windows(2).any(|w| w[0] != w[1]),
            "different procs draw differently"
        );
    }

    #[test]
    fn reset_clock_keeps_state() {
        let mut m = test_machine(2);
        m.superstep(|ctx| ctx.charge(10.0));
        m.reset_clock();
        assert_eq!(m.time(), SimTime::ZERO);
        assert!(m.traces().is_empty());
        assert_eq!(m.states()[1], vec![1]);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = Machine::<u32>::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![],
            0,
        );
    }
}
