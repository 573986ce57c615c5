//! Exchange checks across closure-chunk boundaries. A machine of at least
//! 32 processors runs its closures in one contiguous pid-ordered chunk
//! ("shard") of processors per pool thread, and the fused exchange then
//! delivers every message in one sequential sweep. These tests pin, with
//! the worker pool forced to width 4 (or an explicit `RAYON_NUM_THREADS`):
//!
//! * raw machines whose size divides the pool width, leaves a remainder
//!   or stays below the parallel cutoff produce the same `(time, states)`
//!   bits pooled and sequential;
//! * recycled payload buffers never leak stale values when messages cross
//!   shard boundaries, on uneven shards and over several long/short
//!   rounds;
//! * on random multi-superstep patterns, every receiver's `msgs()`,
//!   `msgs_from` and `msgs_tagged` equal a reference built by walking the
//!   sources in pid order and each source's sends in send order, pooled
//!   and sequential runs agree bit for bit, and every superstep trace's
//!   statistics equal the pattern's query methods;
//! * an unobserved machine, which skips the observer-only statistics,
//!   prices and counts those patterns (out-of-range sends among them)
//!   exactly as an observed one.

// Tests assert exact simulated values and cast small pids freely.
#![allow(clippy::cast_possible_truncation)]

use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, Once};

use pcm::algos::catalog::SEED;
use pcm_core::rng::seeded;
use pcm_sim::{
    with_probe, with_sequential, Ctx, IdealNetwork, Machine, Message, MsgKind, Needs, StepObs,
    SuperstepProbe, TextbookBspNetwork, UniformCompute,
};
use rand::{RngCore, RngExt};

/// Pins the pool width before the rayon shim latches it, so the closure
/// chunks dispatch across real workers even on a single-core runner.
fn force_pool() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        if std::env::var_os("RAYON_NUM_THREADS").is_none() {
            std::env::set_var("RAYON_NUM_THREADS", "4");
        }
    });
}

/// Machine sizes around the chunk partition: below the parallel cutoff,
/// at it, uneven (`p mod width != 0` at width 3 and 4), even, and large.
const SIZES: [usize; 6] = [16, 32, 37, 64, 67, 130];

fn machine<S: Clone + Send>(p: usize, init: S) -> Machine<S> {
    Machine::new(
        Box::new(IdealNetwork),
        Arc::new(UniformCompute::test_model()),
        vec![init; p],
        SEED,
    )
}

/// Raw machine with inline words, heap payloads that cross every shard
/// cut (a `+1` ring and a stride-7 scatter) and per-processor RNG draws:
/// `(time, states)` bit-identical to sequential at every size in
/// [`SIZES`].
#[test]
fn sharded_machine_matches_forced_sequential() {
    force_pool();
    let run = |p: usize| {
        let mut m = machine(p, 0u64);
        for round in 0..6u32 {
            m.superstep(move |ctx| {
                let draw = f64::from(ctx.rng().next_u32() % 8);
                ctx.charge(f64::from(round) + draw + ctx.pid() as f64 * 0.25);
                let dst = (ctx.pid() * 7 + 3) % ctx.nprocs();
                ctx.send_word_u32(dst, round * 1000 + ctx.pid() as u32);
                let len = 8 + (ctx.pid() as u32 + round) % 40;
                let block: Vec<u32> = (0..len).map(|i| i ^ round).collect();
                ctx.send_block_u32((ctx.pid() + 1) % ctx.nprocs(), &block);
            });
            m.superstep(|ctx| {
                let mut acc = *ctx.state;
                for msg in ctx.msgs() {
                    for &v in msg.u32s() {
                        acc = acc.wrapping_mul(31).wrapping_add(u64::from(v));
                    }
                }
                *ctx.state = acc;
            });
        }
        (m.time().as_micros().to_bits(), m.into_states())
    };
    for p in SIZES {
        let pooled = run(p);
        let sequential = with_sequential(|| run(p));
        assert_eq!(pooled, sequential, "p={p}: pooled diverged from sequential");
    }
}

/// Recycled payload buffers must never surface stale values when the
/// senders and receivers sit in different shards. A payload consumed in
/// superstep `k` returns to its sender's pool in that superstep's
/// exchange, so the sends of superstep `k + 1` reuse the buffers of
/// superstep `k - 1`. Every payload here is 68–128 bytes, one pool size
/// class, so each reuse hands a shorter message a buffer that held a
/// longer one; a quiet superstep must then observe empty inboxes.
#[test]
fn sharded_recycle_never_leaks_stale_data() {
    force_pool();
    for p in SIZES {
        let mut m = machine(p, 0u32);
        // (stride, payload length in u32s) per sending round; the stride
        // moves every message across at least one shard cut at p >= 32.
        let rounds: [(usize, u32); 4] = [(1, 32), (p / 2 + 1, 31), (p - 1, 18), (3, 24)];
        let expect = move |ctx: &mut Ctx<'_, u32>, r: usize| {
            let (stride, len) = rounds[r];
            let n = ctx.nprocs();
            let src = ((ctx.pid() + n - stride % n) % n) as u32;
            assert_eq!(ctx.msgs().len(), 1, "p={p} round {r}: inbox size");
            assert_eq!(
                ctx.msgs()[0].u32s().len(),
                len as usize,
                "p={p} round {r}: stale values leaked"
            );
            let want: Vec<u32> = (0..len).map(|i| src * 1000 + r as u32 * 100 + i).collect();
            assert_eq!(ctx.msgs()[0].u32s(), want, "p={p} round {r}: payload");
        };
        let send = move |ctx: &mut Ctx<'_, u32>, r: usize| {
            let (stride, len) = rounds[r];
            let pid = ctx.pid() as u32;
            let vals: Vec<u32> = (0..len).map(|i| pid * 1000 + r as u32 * 100 + i).collect();
            ctx.send_block_u32((ctx.pid() + stride) % ctx.nprocs(), &vals);
        };
        m.superstep(|ctx| send(ctx, 0));
        m.superstep(|ctx| {
            expect(ctx, 0);
            send(ctx, 1);
        });
        m.superstep(|ctx| {
            expect(ctx, 1);
            send(ctx, 2);
        });
        m.superstep(|ctx| {
            expect(ctx, 2);
            send(ctx, 3);
        });
        m.superstep(|ctx| expect(ctx, 3));
        m.superstep(|ctx| {
            assert!(ctx.msgs().is_empty(), "p={p}: stale messages survived");
        });
    }
}

/// One planned send: destination, tag, pricing kind and payload values.
/// Xnet payloads travel as `f64`s, the rest as `u32`s.
#[derive(Clone, Debug)]
struct PlannedSend {
    dst: usize,
    tag: u32,
    kind: MsgKind,
    vals: Vec<u32>,
}

impl PlannedSend {
    /// Whether `msg` carries exactly the values a receiver must see.
    fn carried_by(&self, msg: &Message) -> bool {
        match self.kind {
            MsgKind::Xnet => msg
                .f64s()
                .iter()
                .copied()
                .eq(self.vals.iter().map(|&v| f64::from(v))),
            MsgKind::Words | MsgKind::Block => msg.u32s() == self.vals,
        }
    }
}

/// The bits of every value `msg` carries, read as the type it was sent as.
fn value_bits(msg: &Message) -> Vec<u64> {
    match msg.kind {
        MsgKind::Xnet => msg.f64s().iter().map(|v| v.to_bits()).collect(),
        MsgKind::Words | MsgKind::Block => msg.u32s().iter().map(|&v| u64::from(v)).collect(),
    }
}

/// `plan[step][src]` is `src`'s sends in superstep `step`, in send order.
type Plan = Vec<Vec<Vec<PlannedSend>>>;

/// A random plan over `p` processors: 3–6 supersteps, about one in five
/// of them silent; 0–5 sends per processor with self-sends, all three
/// kinds, tags 0–3, and payloads of 0 values (dropped by the machine),
/// 1–4 values (inline up to 16 bytes) or 5–40 values (on the heap).
fn random_plan(p: usize, seed: u64) -> Plan {
    let mut rng = seeded(seed);
    let steps = rng.random_range(3..7usize);
    (0..steps)
        .map(|_| {
            let silent = rng.random_range(0..5u32) == 0;
            (0..p)
                .map(|src| {
                    let n = if silent {
                        0
                    } else {
                        rng.random_range(0..6usize)
                    };
                    (0..n)
                        .map(|_| {
                            let dst = if rng.random_range(0..4u32) == 0 {
                                src
                            } else {
                                rng.random_range(0..p)
                            };
                            let kind = [MsgKind::Words, MsgKind::Block, MsgKind::Xnet]
                                [rng.random_range(0..3usize)];
                            let len = match rng.random_range(0..3u32) {
                                0 => rng.random_range(0..5usize),
                                _ => rng.random_range(5..41usize),
                            };
                            let vals = (0..len).map(|_| rng.next_u32()).collect();
                            let tag = rng.random_range(0..4u32);
                            PlannedSend {
                                dst,
                                tag,
                                kind,
                                vals,
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// What `pid` must receive after superstep `step` of `plan`: the
/// deliverable sends addressed to it, sources in pid order, each source's
/// sends in send order, as `(src, send)`.
fn reference_inbox(plan: &Plan, step: usize, pid: usize) -> Vec<(usize, &PlannedSend)> {
    plan[step]
        .iter()
        .enumerate()
        .flat_map(|(src, sends)| sends.iter().map(move |s| (src, s)))
        .filter(|(_, s)| s.dst == pid && !s.vals.is_empty())
        .collect()
}

/// Whether the delivered `got` matches the reference, field by field.
fn same_messages<'a>(
    got: impl Iterator<Item = &'a Message>,
    want: &[(usize, &PlannedSend)],
    pid: usize,
) -> bool {
    let got: Vec<&Message> = got.collect();
    got.len() == want.len()
        && got.iter().zip(want).all(|(m, (src, s))| {
            m.src == *src
                && m.dst == pid
                && m.tag == s.tag
                && m.kind == s.kind
                && m.logical_words as usize == s.vals.len()
                && s.carried_by(m)
        })
}

/// A run's clock and `RunBreakdown`, with the times as bits.
type Costs = (u64, [u64; 2], [usize; 3]);

/// Runs `plan` on a priced machine of `p` processors. Each processor
/// checks its inbox against [`reference_inbox`] through all three
/// accessors and keeps a record of every mismatch and a checksum of the
/// bytes it read; returns the clock and breakdown and those states.
fn run_plan(p: usize, plan: &Plan) -> (Costs, Vec<(Vec<String>, u64)>) {
    let mut m = Machine::new(
        Box::new(TextbookBspNetwork {
            g: 2.0,
            l: 10.0,
            sigma: 0.5,
            ell: 3.0,
        }),
        Arc::new(UniformCompute::test_model()),
        vec![(Vec::<String>::new(), 0u64); p],
        SEED,
    );
    for step in 0..=plan.len() {
        m.superstep(|ctx| {
            let pid = ctx.pid();
            ctx.charge(1.0 + pid as f64 * 0.5);
            if step > 0 {
                let want = reference_inbox(plan, step - 1, pid);
                let inbox = ctx.msgs();
                if !same_messages(inbox.iter(), &want, pid) {
                    ctx.state.0.push(format!("step {step}: msgs() differ"));
                }
                for (i, &(src, s)) in want.iter().enumerate().take(inbox.len()) {
                    if inbox[i].src != src || !s.carried_by(&inbox[i]) {
                        ctx.state
                            .0
                            .push(format!("step {step}: msgs()[{i}] differs"));
                    }
                }
                if inbox.first().map(|m| m.src) != want.first().map(|w| w.0) {
                    ctx.state.0.push(format!("step {step}: first() differs"));
                }
                for src in 0..ctx.nprocs() {
                    let want_from: Vec<_> = want.iter().copied().filter(|w| w.0 == src).collect();
                    if !same_messages(ctx.msgs_from(src), &want_from, pid) {
                        ctx.state
                            .0
                            .push(format!("step {step}: msgs_from({src}) differs"));
                    }
                }
                for tag in 0..4 {
                    let want_tag: Vec<_> =
                        want.iter().copied().filter(|w| w.1.tag == tag).collect();
                    if !same_messages(ctx.msgs_tagged(tag), &want_tag, pid) {
                        ctx.state
                            .0
                            .push(format!("step {step}: msgs_tagged({tag}) differs"));
                    }
                }
                for msg in inbox {
                    for v in value_bits(msg) {
                        ctx.state.1 = ctx.state.1.wrapping_mul(31).wrapping_add(v);
                    }
                }
            }
            for s in plan.get(step).map_or(&[][..], |sends| &sends[pid]) {
                match s.kind {
                    MsgKind::Words => ctx.send_words_u32_tagged(s.dst, s.tag, &s.vals),
                    MsgKind::Block => ctx.send_block_u32_tagged(s.dst, s.tag, &s.vals),
                    MsgKind::Xnet => {
                        let vals: Vec<f64> = s.vals.iter().map(|&v| f64::from(v)).collect();
                        ctx.send_xnet_f64_tagged(s.dst, s.tag, &vals);
                    }
                }
            }
        });
    }
    let b = m.breakdown();
    let costs = (
        m.time().as_micros().to_bits(),
        [b.compute, b.comm].map(|t| t.as_micros().to_bits()),
        [b.supersteps, b.messages, b.bytes],
    );
    (costs, m.into_states())
}

/// `plan` with about one send in eight redirected to a destination at or
/// past `p`, which the machine records and drops.
fn with_out_of_range(mut plan: Plan, p: usize, seed: u64) -> Plan {
    let mut rng = seeded(seed);
    for send in plan.iter_mut().flatten().flatten() {
        if rng.random_range(0..8u32) == 0 {
            send.dst = p + rng.random_range(0..3usize);
        }
    }
    plan
}

/// `plan` without its out-of-range sends.
fn in_range(plan: &Plan, p: usize) -> Plan {
    let mut plan = plan.clone();
    for send in plan.iter_mut().flatten() {
        send.retain(|s| s.dst < p);
    }
    plan
}

/// Machine sizes for the random plans: a single processor, sizes below
/// the parallel cutoff, at it, and uneven and large ones above it.
const PLAN_SIZES: [usize; 6] = [1, 5, 31, 32, 37, 67];

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(6))]

    /// Every receiver reads exactly the reference delivery through
    /// `msgs()`, indexing, `first()`, `msgs_from` and `msgs_tagged`, and
    /// pooled execution equals `with_sequential` in time bits and states.
    #[test]
    fn delivery_matches_the_pid_order_reference(seed in proptest::any::<u64>()) {
        force_pool();
        for p in PLAN_SIZES {
            let plan = random_plan(p, seed ^ p as u64);
            let pooled = run_plan(p, &plan);
            for (pid, (errors, _)) in pooled.1.iter().enumerate() {
                proptest::prop_assert!(errors.is_empty(), "p={p} pid {pid}: {errors:?}");
            }
            let sequential = with_sequential(|| run_plan(p, &plan));
            proptest::prop_assert_eq!(&pooled, &sequential, "p={}: pooled != sequential", p);
        }
    }

    /// `SuperstepTrace`'s pattern statistics, computed in the exchange's
    /// one pass, equal the `CommPattern` query methods on every superstep
    /// of random plans.
    #[test]
    fn trace_statistics_equal_the_pattern_queries(seed in proptest::any::<u64>()) {
        for p in PLAN_SIZES {
            let plan = random_plan(p, seed ^ p as u64);
            let steps = Rc::new(Cell::new(0usize));
            let seen = steps.clone();
            with_probe(
                move |_p| Box::new(StatsCheck(seen.clone())),
                || run_plan(p, &plan),
            );
            proptest::prop_assert_eq!(steps.get(), plan.len() + 1);
        }
    }

    /// An unobserved machine skips the trace statistics only observers
    /// read, and nothing it prices or counts changes: the clock and every
    /// `RunBreakdown` field (times as bits) equal those of the same plan
    /// under a schedule observer, whose steps also check the full
    /// statistics. The plans mix all three kinds with empty and
    /// out-of-range sends. Unobserved debug runs fail fast on an
    /// out-of-range send, so there the unobserved leg runs the plan
    /// without them; they are dropped unpriced, so the costs must agree.
    #[test]
    fn unobserved_runs_price_and_count_as_observed_runs(seed in proptest::any::<u64>()) {
        for p in PLAN_SIZES {
            let plan = with_out_of_range(random_plan(p, seed ^ p as u64), p, seed);
            let steps = Rc::new(Cell::new(0usize));
            let seen = steps.clone();
            let observed = with_probe(
                move |_p| Box::new(StatsCheck(seen.clone())),
                || run_plan(p, &plan),
            );
            proptest::prop_assert_eq!(steps.get(), plan.len() + 1);
            for (pid, (errors, _)) in observed.1.iter().enumerate() {
                proptest::prop_assert!(errors.is_empty(), "p={p} pid {pid}: {errors:?}");
            }
            let unobserved = run_plan(p, &in_range(&plan, p));
            proptest::prop_assert_eq!(&observed, &unobserved, "p={}", p);
            if !cfg!(debug_assertions) {
                proptest::prop_assert_eq!(&observed, &run_plan(p, &plan), "p={}", p);
            }
        }
    }
}

/// A schedule observer asserting the trace/pattern agreement per step.
struct StatsCheck(Rc<Cell<usize>>);

impl SuperstepProbe for StatsCheck {
    fn needs(&self) -> Needs {
        Needs::Schedule
    }

    fn observe(&mut self, obs: &StepObs<'_>) {
        let pattern = obs
            .detail
            .expect("schedule observers get the detail")
            .pattern;
        let t = obs.trace;
        let at = t.index;
        assert_eq!(t.messages, pattern.total_messages(), "step {at}: messages");
        assert_eq!(t.bytes, pattern.total_bytes(), "step {at}: bytes");
        assert_eq!(t.h_send, pattern.h_send(), "step {at}: h_send");
        assert_eq!(t.h_recv, pattern.h_recv(), "step {at}: h_recv");
        assert_eq!(
            (t.word_msgs, t.block_msgs, t.xnet_msgs),
            pattern.kind_counts(),
            "step {at}: kind counts"
        );
        assert_eq!(
            obs.records,
            pattern.sends.iter().map(Vec::len).sum::<usize>()
        );
        self.0.set(self.0.get() + 1);
    }
}
