//! Exchange checks across closure-chunk boundaries. A machine of at least
//! 32 processors runs its closures in one contiguous pid-ordered chunk
//! ("shard") of processors per pool thread, and the fused exchange then
//! delivers every message in one sequential sweep. These tests pin, with
//! the worker pool forced to width 4 (or an explicit `RAYON_NUM_THREADS`):
//!
//! * raw machines whose size divides the pool width, leaves a remainder
//!   or stays below the parallel cutoff produce the same `(time, states)`
//!   bits pooled and sequential;
//! * recycled payload buffers never leak stale bytes when messages cross
//!   shard boundaries, on uneven shards and over several long/short
//!   rounds.

// Tests assert exact simulated values and cast small pids freely.
#![allow(clippy::cast_possible_truncation)]

use std::sync::{Arc, Once};

use pcm::algos::catalog::SEED;
use pcm_sim::{with_sequential, Ctx, IdealNetwork, Machine, UniformCompute};
use rand::RngCore;

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
                    for b in msg.data() {
                        acc = acc.wrapping_mul(31).wrapping_add(u64::from(*b));
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

/// Recycled payload buffers must never surface stale bytes when the
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
                ctx.msgs()[0].data().len(),
                4 * len as usize,
                "p={p} round {r}: stale bytes leaked"
            );
            let want: Vec<u32> = (0..len).map(|i| src * 1000 + r as u32 * 100 + i).collect();
            assert_eq!(ctx.msgs()[0].as_u32s(), want, "p={p} round {r}: payload");
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
