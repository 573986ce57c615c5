//! Copied, moved and shared payloads are one delivery. A send copies a
//! slice, moves an owned `Vec` or shares an `Arc`'d buffer (see
//! `pcm_sim::Values`); which one a sender picks must never show in a
//! simulated bit. These tests pin, with the worker pool forced to width 4
//! (or an explicit `RAYON_NUM_THREADS`):
//!
//! * on random multi-superstep plans of `u32` and `f64` blocks of random
//!   lengths, some fanned out to several destinations, every receiver
//!   reads exactly the planned values, every sender reads back exactly its
//!   own last sends through `ctx.sent()`, and the three modes give the
//!   same states and clock bits, pooled and under `with_sequential`;
//! * a recycled typed buffer that is moved into a shorter message never
//!   shows a stale value.

// Tests assert exact simulated values and cast small pids freely.
#![allow(clippy::cast_possible_truncation)]

use std::sync::{Arc, Once};

use pcm::algos::catalog::SEED;
use pcm_core::rng::seeded;
use pcm_sim::{
    with_sequential, Ctx, IdealNetwork, Machine, Message, MsgKind, TextbookBspNetwork,
    UniformCompute, Values,
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

/// How a sender hands its values to the machine.
#[derive(Clone, Copy, Debug)]
enum Mode {
    /// A slice, copied into the message.
    Copied,
    /// A buffer from the sender's payload pool, filled and moved.
    Moved,
    /// One `Arc` per value list, shared by all of its sends.
    Shared,
}

/// One value list of either type.
#[derive(Clone, Debug)]
enum Vals {
    U32(Vec<u32>),
    F64(Vec<f64>),
}

impl Vals {
    fn len(&self) -> usize {
        match self {
            Vals::U32(v) => v.len(),
            Vals::F64(v) => v.len(),
        }
    }

    /// Whether `msg` carries exactly these values, `f64`s compared by
    /// their bits.
    fn carried_by(&self, msg: &Message) -> bool {
        match self {
            Vals::U32(v) => msg.u32s() == v.as_slice(),
            Vals::F64(v) => msg
                .f64s()
                .iter()
                .map(|x| x.to_bits())
                .eq(v.iter().map(|x| x.to_bits())),
        }
    }
}

/// One value list and the `(dst, tag, kind)` of each of its sends.
#[derive(Clone, Debug)]
struct Group {
    vals: Vals,
    sends: Vec<(usize, u32, MsgKind)>,
}

/// `plan[step][src]` is `src`'s groups in superstep `step`, in send order.
type Plan = Vec<Vec<Vec<Group>>>;

/// A random plan over `p` processors: 3–6 supersteps; 0–3 groups per
/// processor, each with 1–3 destinations (self-sends included), tags 0–3,
/// `u32` lists as words or blocks and `f64` lists as words, blocks or xnet
/// blocks, of 0 values (dropped by the machine), 1–4 (inline when copied)
/// or 5–60 values. `f64`s are random bit patterns, NaNs included.
fn random_plan(p: usize, seed: u64) -> Plan {
    let mut rng = seeded(seed);
    let steps = rng.random_range(3..7usize);
    (0..steps)
        .map(|_| {
            (0..p)
                .map(|src| {
                    (0..rng.random_range(0..4usize))
                        .map(|_| {
                            let len = match rng.random_range(0..4u32) {
                                0 => rng.random_range(0..5usize),
                                _ => rng.random_range(5..61usize),
                            };
                            let f64s = rng.random_range(0..2u32) == 0;
                            let vals = if f64s {
                                Vals::F64(
                                    (0..len).map(|_| f64::from_bits(rng.next_u64())).collect(),
                                )
                            } else {
                                Vals::U32((0..len).map(|_| rng.next_u32()).collect())
                            };
                            let kinds: &[MsgKind] = if f64s {
                                &[MsgKind::Words, MsgKind::Block, MsgKind::Xnet]
                            } else {
                                &[MsgKind::Words, MsgKind::Block]
                            };
                            let sends = (0..rng.random_range(1..4usize))
                                .map(|_| {
                                    let dst = if rng.random_range(0..4u32) == 0 {
                                        src
                                    } else {
                                        rng.random_range(0..p)
                                    };
                                    let kind = kinds[rng.random_range(0..kinds.len())];
                                    (dst, rng.random_range(0..4u32), kind)
                                })
                                .collect();
                            Group { vals, sends }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Every delivered send of `src` in one superstep, in send order, as
/// `(dst, tag, kind, values)`.
fn delivered(groups: &[Group]) -> impl Iterator<Item = (usize, u32, MsgKind, &Vals)> {
    groups.iter().filter(|g| g.vals.len() > 0).flat_map(|g| {
        g.sends
            .iter()
            .map(move |&(dst, tag, kind)| (dst, tag, kind, &g.vals))
    })
}

/// Whether `msgs` are exactly `want` as `(src, dst, tag, kind, values)`.
fn same<'a>(
    msgs: impl ExactSizeIterator<Item = &'a Message>,
    want: &[(usize, usize, u32, MsgKind, &Vals)],
) -> bool {
    msgs.len() == want.len()
        && msgs.zip(want).all(|(m, &(src, dst, tag, kind, vals))| {
            (m.src, m.dst, m.tag, m.kind) == (src, dst, tag, kind)
                && m.logical_words as usize == vals.len()
                && vals.carried_by(m)
        })
}

/// Sends one group's values in `mode`.
fn send_group(ctx: &mut Ctx<'_, (Vec<String>, u64)>, group: &Group, mode: Mode) {
    match &group.vals {
        Vals::U32(v) => {
            let shared = Arc::new(v.clone());
            for &(dst, tag, kind) in &group.sends {
                let vals: Values<'_, u32> = match mode {
                    Mode::Copied => v.into(),
                    Mode::Moved => {
                        let mut buf = ctx.buffer_u32(v.len());
                        buf.extend_from_slice(v);
                        buf.into()
                    }
                    Mode::Shared => (&shared).into(),
                };
                match kind {
                    MsgKind::Words => ctx.send_words_u32_tagged(dst, tag, vals),
                    _ => ctx.send_block_u32_tagged(dst, tag, vals),
                }
            }
        }
        Vals::F64(v) => {
            let shared = Arc::new(v.clone());
            for &(dst, tag, kind) in &group.sends {
                let vals: Values<'_, f64> = match mode {
                    Mode::Copied => v.into(),
                    Mode::Moved => {
                        let mut buf = ctx.buffer_f64(v.len());
                        buf.extend_from_slice(v);
                        buf.into()
                    }
                    Mode::Shared => (&shared).into(),
                };
                match kind {
                    MsgKind::Words => ctx.send_words_f64_tagged(dst, tag, vals),
                    MsgKind::Block => ctx.send_block_f64_tagged(dst, tag, vals),
                    MsgKind::Xnet => ctx.send_xnet_f64_tagged(dst, tag, vals),
                }
            }
        }
    }
}

/// Folds a message's header and values into `acc`, reading the values
/// as the type the plan sent (`f64`s by their bits).
fn fold(acc: u64, msg: &Message, planned: &Vals) -> u64 {
    let bits: Vec<u64> = match planned {
        Vals::U32(_) => msg.u32s().iter().map(|&v| u64::from(v)).collect(),
        Vals::F64(_) => msg.f64s().iter().map(|v| v.to_bits()).collect(),
    };
    let head = [msg.src as u64, msg.dst as u64, u64::from(msg.tag)];
    head.into_iter()
        .chain(bits)
        .fold(acc, |acc, v| acc.wrapping_mul(31).wrapping_add(v))
}

/// Runs `plan` in `mode` on a priced machine of `p` processors. Each
/// processor checks its inbox and its `ctx.sent()` against the plan,
/// records every mismatch and folds what it read; returns the clock bits
/// and those states.
fn run_plan(p: usize, plan: &Plan, mode: Mode) -> (u64, Vec<(Vec<String>, u64)>) {
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
                let last = &plan[step - 1];
                let inbox: Vec<_> = (0..p)
                    .flat_map(|src| {
                        delivered(&last[src]).map(move |(d, t, k, v)| (src, d, t, k, v))
                    })
                    .filter(|s| s.1 == pid)
                    .collect();
                if !same(ctx.msgs().iter(), &inbox) {
                    ctx.state.0.push(format!("step {step}: inbox differs"));
                }
                let sent: Vec<_> = delivered(&last[pid])
                    .map(|(d, t, k, v)| (pid, d, t, k, v))
                    .collect();
                if !same(ctx.sent().iter(), &sent) {
                    ctx.state.0.push(format!("step {step}: sent() differs"));
                }
                let read = ctx
                    .msgs()
                    .iter()
                    .zip(&inbox)
                    .chain(ctx.sent().iter().zip(&sent));
                let acc = read.fold(ctx.state.1, |acc, (msg, want)| fold(acc, msg, want.4));
                ctx.state.1 = acc;
            }
            for group in plan.get(step).map_or(&[][..], |groups| &groups[pid]) {
                send_group(ctx, group, mode);
            }
        });
    }
    (m.time().as_micros().to_bits(), m.into_states())
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(4))]

    /// Every mode delivers the plan exactly, and all three give the same
    /// states and clock bits, pooled and sequential.
    #[test]
    fn copied_moved_and_shared_payloads_agree(seed in proptest::any::<u64>()) {
        force_pool();
        for p in SIZES {
            let plan = random_plan(p, seed ^ p as u64);
            let copied = run_plan(p, &plan, Mode::Copied);
            for (pid, (errors, _)) in copied.1.iter().enumerate() {
                proptest::prop_assert!(errors.is_empty(), "p={p} pid {pid}: {errors:?}");
            }
            for mode in [Mode::Copied, Mode::Moved, Mode::Shared] {
                let pooled = run_plan(p, &plan, mode);
                proptest::prop_assert_eq!(&pooled, &copied, "p={} {:?} != copied", p, mode);
                let sequential = with_sequential(|| run_plan(p, &plan, mode));
                proptest::prop_assert_eq!(&sequential, &copied, "p={} {:?} sequential", p, mode);
            }
        }
    }
}

/// Moved buffers come from the sender's pool, where the exchange recycled
/// the buffers of earlier, longer messages: a superstep's sends reuse the
/// buffers consumed two supersteps before. Every list here shrinks or
/// stays inside one size class, and every receiver checks the exact
/// values, so a stale value or length would show; a quiet superstep must
/// then observe empty inboxes.
#[test]
fn moved_buffers_never_show_stale_values() {
    force_pool();
    // (stride, list length) per sending round: lengths 48, 40, 9 and 33
    // reuse the 256-byte `f64` and 128-byte `u32` classes.
    let rounds: [(usize, usize); 6] = [(1, 48), (5, 40), (2, 48), (3, 9), (1, 33), (4, 40)];
    let value = |src: usize, r: usize, i: usize| (src * 10_000 + r * 100 + i) as u32;
    for p in SIZES {
        let mut m = Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![(); p],
            SEED,
        );
        for r in 0..=rounds.len() {
            m.superstep(|ctx| {
                let (pid, n) = (ctx.pid(), ctx.nprocs());
                if r > 0 {
                    let (stride, len) = rounds[r - 1];
                    let src = (pid + n - stride % n) % n;
                    let want: Vec<u32> = (0..len).map(|i| value(src, r - 1, i)).collect();
                    let inbox = ctx.msgs();
                    assert_eq!(inbox.len(), 2, "p={p} round {r}: inbox size");
                    assert_eq!(inbox[0].u32s(), want, "p={p} round {r}: u32 values");
                    let want: Vec<f64> = want.iter().map(|&v| f64::from(v)).collect();
                    assert_eq!(inbox[1].f64s(), want, "p={p} round {r}: f64 values");
                    assert_eq!(ctx.sent().len(), 2, "p={p} round {r}: own sends");
                }
                if let Some(&(stride, len)) = rounds.get(r) {
                    let dst = (pid + stride) % n;
                    let mut words = ctx.buffer_u32(len);
                    words.extend((0..len).map(|i| value(pid, r, i)));
                    let mut reals = ctx.buffer_f64(len);
                    reals.extend(words.iter().map(|&v| f64::from(v)));
                    ctx.send_block_u32(dst, words);
                    ctx.send_block_f64(dst, reals);
                }
            });
        }
        m.superstep(|ctx| {
            assert!(ctx.msgs().is_empty(), "p={p}: stale messages survived");
            assert!(ctx.sent().is_empty(), "p={p}: stale own sends survived");
        });
    }
}
