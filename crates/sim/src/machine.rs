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
//! The exchange phase is one engine on every machine, and it moves no
//! message. Each processor has two outboxes that swap every superstep:
//! the one it writes now, and the pattern's send list holding its last
//! sends, which the receivers read now. A fused sequential sweep recycles
//! the consumed payloads of the previous send lists into their senders'
//! pools, swaps the new outboxes in as the pattern, and indexes them by
//! destination (see [`crate::inbox`]), counting the step's messages and
//! bytes as it goes; then it prices the pattern. Observers installed with
//! [`crate::with_probe`] see exactly that engine, so every analyzer checks
//! the code the figures run; the trace statistics only they read (send
//! and receive maxima, active processors, kind counts, block rounds) are
//! computed only for a machine that has one.

use std::sync::Arc;

use pcm_core::rng::{child_seed, seeded};
use pcm_core::SimTime;
use rand::rngs::StdRng;

use crate::compute::ComputeModel;
use crate::ctx::{Ctx, ProcAux};
use crate::inbox::DeliveryIndex;
use crate::message::MsgKind;
use crate::network::NetworkModel;
use crate::pattern::CommPattern;
use crate::probe::{
    self, ExchangePath, Needs, PhaseNanos, RunEnd, StepDetail, StepObs, SuperstepProbe,
};
use crate::step::{RunBreakdown, SuperstepTrace};
use crate::strategy;

/// A simulated distributed-memory parallel machine.
pub struct Machine<S> {
    p: usize,
    states: Vec<S>,
    /// Per-processor scratch (outbox, event buffers, payload pool),
    /// reused across supersteps so the hot path stops allocating.
    procs: Vec<ProcAux>,
    net: Box<dyn NetworkModel>,
    compute: Arc<dyn ComputeModel>,
    clock: SimTime,
    seed: u64,
    net_rng: StdRng,
    step_count: usize,
    /// Totals of the priced supersteps so far.
    breakdown: RunBreakdown,
    parallel: bool,
    /// The last superstep's communication pattern: each processor's
    /// outbox, swapped in whole. Its messages are the ones delivered for
    /// the current superstep.
    pattern: CommPattern,
    /// Per-destination index into `pattern.sends`: each processor's inbox.
    delivery: DeliveryIndex,
    /// Observer-only statistics scratch: words received per processor.
    /// Untouched on an unobserved machine.
    stat_recv: Vec<usize>,
    /// Observer-only statistics scratch: per-processor activity flags.
    stat_active: Vec<bool>,
    /// Observer-only statistics scratch: per-round max block bytes.
    stat_round_max: Vec<usize>,
    /// Observers installed via [`crate::with_probe`] or
    /// [`crate::with_dry_probe`] at construction time, outermost scope
    /// first. Empty on the unobserved hot path — one emptiness test per
    /// superstep, which also skips the observer-only trace statistics.
    observers: Vec<Box<dyn SuperstepProbe>>,
    /// Some observer declared [`Needs::Schedule`]: `Ctx` records shadow
    /// events and each processor snapshots its schedule detail.
    schedule: bool,
    /// Dry run (inside [`crate::with_dry_probe`]): nothing is priced and
    /// the breakdown stays empty.
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
            breakdown: RunBreakdown::default(),
            parallel: !strategy::sequential_forced(),
            pattern: CommPattern {
                p,
                sends: (0..p).map(|_| Vec::new()).collect(),
            },
            delivery: DeliveryIndex::new(p),
            stat_recv: vec![0; p],
            stat_active: vec![false; p],
            stat_round_max: Vec::new(),
            observers,
            schedule,
            dry,
        }
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.p
    }

    /// Simulated time elapsed so far.
    pub fn time(&self) -> SimTime {
        self.clock
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

    /// Aggregated compute/communication breakdown of the run, folded as
    /// each priced superstep ends. (A run's per-superstep traces come
    /// from [`crate::collect_traces`].)
    pub fn breakdown(&self) -> RunBreakdown {
        self.breakdown
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
        let (delivered, delivery) = (&self.pattern.sends, &self.delivery);

        let run_one = |pid: usize, state: &mut S, aux: &mut ProcAux| {
            let rng_seed = child_seed(seed, (step * p + pid) as u64);
            let inbox = delivery.inbox(delivered, pid);
            let sent = &delivered[pid];
            if schedule {
                aux.inbox_seen = inbox.len();
            }
            let outcome = {
                let mut ctx = Ctx::new(
                    pid, p, state, inbox, sent, aux, compute, word, rng_seed, schedule,
                );
                f(&mut ctx);
                ctx.finish()
            };
            aux.compute_us = outcome.compute_us;
            aux.charge_ok = outcome.charge_ok;
            aux.read_inbox = outcome.read_inbox;
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

    /// Reports one finished superstep to the installed observers. Runs
    /// after the clock update and delivery, reading only values the
    /// machine already computed, so it cannot perturb the simulation.
    fn report(&mut self, trace: &SuperstepTrace, records: usize, phases: PhaseNanos) {
        let obs = StepObs {
            trace,
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

    /// Single-sweep sequential exchange that moves no message: each
    /// processor's consumed send list hands its heap payloads back to the
    /// sender's pool and is swapped with the fresh outbox, and the new
    /// lists are indexed by destination for the next superstep's reads.
    /// Delivery runs before pricing here, which is unobservable — pricing
    /// reads only the finished pattern and the network rng, and observers
    /// read the detail each processor snapshotted before the exchange.
    /// The same sweep counts the step's messages and bytes, all the
    /// breakdown folds besides the priced pair; the statistics only
    /// observers read are computed only when one is installed.
    fn exchange_fused(&mut self, step: usize, compute_ns: u64) {
        let observed = !self.observers.is_empty();
        let t = probe::mark(observed);
        let mut max_compute = 0.0f64;
        let (mut total_records, mut messages, mut bytes) = (0usize, 0usize, 0usize);
        for (aux, sends) in self.procs.iter_mut().zip(&mut self.pattern.sends) {
            max_compute = max_compute.max(aux.compute_us);
            // Every receiver has read this list; recycling an inline
            // payload is a no-op, so only owned and last-held shared
            // buffers return.
            for msg in sends.drain(..) {
                aux.pool.recycle(msg.into_payload());
            }
            std::mem::swap(sends, &mut aux.outbox);
            total_records += sends.len();
            for msg in sends.iter() {
                // A word stream is one message per word; a block or an
                // xnet transfer is one message.
                messages += match msg.kind {
                    MsgKind::Words => msg.logical_words as usize,
                    MsgKind::Block | MsgKind::Xnet => 1,
                };
                bytes += msg.logical_bytes as usize;
            }
        }
        self.delivery.rebuild(&self.pattern.sends);
        let gather_ns = probe::since(t);
        let t = probe::mark(observed);
        let (compute, comm) = self.price(total_records, max_compute);
        let price_ns = probe::since(t);
        let mut trace = SuperstepTrace {
            index: step,
            compute,
            comm,
            messages,
            bytes,
            ..SuperstepTrace::default()
        };
        if observed {
            self.pattern_stats(&mut trace);
            let phases = PhaseNanos {
                compute: compute_ns,
                scatter: 0,
                price: price_ns,
                gather: gather_ns,
                recycle: 0,
            };
            self.report(&trace, total_records, phases);
        }
        if !self.dry {
            self.breakdown.add(&trace);
        }
    }

    /// Fills in the statistics of `trace` that only observers read —
    /// `h_send`, `h_recv`, `active`, the kind counts and the block rounds —
    /// in one pass over the sent messages, using the machine's reusable
    /// scratch buffers. (`messages` and `bytes` come from the exchange's
    /// sweep.) Semantics are identical to the `CommPattern` query methods
    /// (a property test in `tests/exchange_shard.rs` holds them equal).
    fn pattern_stats(&mut self, trace: &mut SuperstepTrace) {
        let pattern = &self.pattern;
        let recv = &mut self.stat_recv;
        let active = &mut self.stat_active;
        recv.fill(0);
        active.fill(false);
        let mut h_send = 0usize;
        let (mut word_msgs, mut block_msgs, mut xnet_msgs) = (0usize, 0usize, 0usize);
        for (src, recs) in pattern.sends.iter().enumerate() {
            let mut sent_words = 0usize;
            for r in recs {
                let words = r.logical_words as usize;
                match r.kind {
                    MsgKind::Words => {
                        word_msgs += words;
                        sent_words += words;
                        recv[r.dst] += words;
                    }
                    MsgKind::Block => block_msgs += 1,
                    MsgKind::Xnet => xnet_msgs += 1,
                }
                if words > 0 {
                    active[src] = true;
                    active[r.dst] = true;
                }
            }
            h_send = h_send.max(sent_words);
        }
        trace.h_send = h_send;
        trace.h_recv = recv.iter().copied().max().unwrap_or(0);
        trace.active = active.iter().filter(|&&a| a).count();
        (trace.word_msgs, trace.block_msgs, trace.xnet_msgs) = (word_msgs, block_msgs, xnet_msgs);
        // Block/xnet rounds: round `r` holds the `r`-th record of that
        // kind from each source; its cost driver is the largest block. A
        // kind that was not sent has no rounds, so its walk is skipped.
        for (kind, sent) in [(MsgKind::Block, block_msgs), (MsgKind::Xnet, xnet_msgs)] {
            if sent == 0 {
                continue;
            }
            let round_max = &mut self.stat_round_max;
            round_max.clear();
            for recs in &pattern.sends {
                for (round, r) in recs.iter().filter(|r| r.kind == kind).enumerate() {
                    let bytes = r.logical_bytes as usize;
                    if round == round_max.len() {
                        round_max.push(bytes);
                    } else {
                        round_max[round] = round_max[round].max(bytes);
                    }
                }
            }
            trace.block_steps += round_max.len();
            trace.block_bytes_sum += round_max.iter().sum::<usize>();
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
            delivery: &self.delivery,
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
        let ((), traces) = crate::collect_traces(|| {
            let mut m = test_machine(4);
            m.superstep(|ctx| {
                if ctx.pid() < 2 {
                    ctx.send_words_u32(3, &[1, 2]);
                }
            });
        });
        let t = &traces[0];
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
