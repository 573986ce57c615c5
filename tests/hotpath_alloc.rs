//! Zero-allocation guarantee for the superstep hot path.
//!
//! With tracing off and no observer installed, steady-state supersteps
//! carrying word-sized traffic (inline payloads, <= 16 bytes) must not
//! touch the heap at all: outboxes, inboxes, the communication pattern
//! and the delivery pre-pass all reuse buffers warmed up in the first few
//! supersteps, and the pooled executor keeps its scratch on the caller's
//! stack.
//!
//! The sharded parallel exchange preserves the property with >1 worker:
//! lane vectors keep their capacity across supersteps (the transpose
//! moves `Vec` headers, never elements), task descriptors live in stack
//! arrays, and heap payloads circulate sender-affine through the
//! recycle lanes back into the per-processor pools.
//!
//! The binary installs a counting global allocator and runs without the
//! libtest harness (`harness = false` in Cargo.toml): other tests in the
//! same process — and libtest's own channel machinery, which allocates
//! nondeterministically while the harness thread parks — would pollute
//! the counter.

// Tests cast small pids freely.
#![allow(clippy::cast_possible_truncation)]

use std::sync::{Arc, Once};

use pcm_machines::Platform;
use pcm_sim::{Ctx, IdealNetwork, Machine, UniformCompute};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Pool width 4 at `p >= 32` engages the pooled dispatch path even on a
/// single-core runner.
fn force_pool() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        if std::env::var_os("RAYON_NUM_THREADS").is_none() {
            std::env::set_var("RAYON_NUM_THREADS", "4");
        }
    });
}

/// One superstep of word traffic: read the inbox, send two inline-payload
/// word messages. Mirrors the `word_exchange` throughput benchmark.
fn word_step(ctx: &mut Ctx<'_, u64>) {
    ctx.charge(1.0);
    let mut sum = 0u32;
    for msg in ctx.msgs() {
        sum = sum.wrapping_add(msg.word_u32());
    }
    *ctx.state = ctx.state.wrapping_add(u64::from(sum));
    let p = ctx.nprocs();
    let pid = ctx.pid();
    let word = (pid as u32).wrapping_add(sum);
    // 16 bytes: exactly at the inline-payload boundary.
    ctx.send_words_u32((pid * 7 + 3) % p, &[word, word ^ 1, word ^ 2, word ^ 3]);
    ctx.send_word_u32((pid + 1) % p, word);
}

/// One superstep of mixed traffic: inline words plus a 128-byte heap
/// block drawn from the sender's payload pool. Exercises the sharded
/// exchange's recycle lanes (heap payloads staged back to their senders).
fn mixed_step(ctx: &mut Ctx<'_, u64>) {
    ctx.charge(1.0);
    let mut sum = 0u32;
    for msg in ctx.msgs() {
        for b in msg.data() {
            sum = sum.wrapping_add(u32::from(*b));
        }
    }
    *ctx.state = ctx.state.wrapping_add(u64::from(sum));
    let p = ctx.nprocs();
    let pid = ctx.pid();
    let word = (pid as u32).wrapping_add(sum);
    ctx.send_word_u32((pid * 7 + 3) % p, word);
    let block = [word; 32]; // 128 bytes: a pooled heap payload.
    ctx.send_block_u32((pid + 1) % p, &block);
}

fn steady_state_delta(parallel: bool, shards: Option<usize>, heap_traffic: bool) -> u64 {
    let p = 256;
    let mut m = Machine::new(
        Box::new(IdealNetwork),
        Arc::new(UniformCompute::test_model()),
        vec![0u64; p],
        99,
    );
    m.set_tracing(false);
    m.set_parallel(parallel);
    if let Some(s) = shards {
        m.set_exchange_shards(s);
        assert_eq!(m.exchange_shards(), s, "forced shard count must stick");
    }
    let step: fn(&mut Ctx<'_, u64>) = if heap_traffic { mixed_step } else { word_step };
    // Warm-up: grows outbox/inbox/pattern/lane capacities, spawns the
    // pool workers and latches per-thread parker state. The sharded
    // lane capacities ping-pong between the src- and dst-major views,
    // so they need two supersteps per configuration to stabilize.
    for _ in 0..50 {
        m.superstep(step);
    }
    let before = alloc_counter::allocations();
    for _ in 0..100 {
        m.superstep(step);
    }
    alloc_counter::allocations() - before
}

/// A priced superstep on a real machine model: fixed word traffic (a
/// shifted permutation of 4-word inline messages), inbox consumed every
/// step. The communication pattern repeats, so after warm-up the pricing
/// layer must run entirely on memoized outcomes and reused scratch — the
/// pattern fingerprint key, the route memo slots and the router's
/// stamp-keyed occupancy arrays all hold their capacity.
fn priced_delta(plat: &Platform) -> u64 {
    let p = plat.p();
    let mut m = plat.machine(vec![0u64; p], 7);
    m.set_tracing(false);
    let step = |ctx: &mut Ctx<'_, u64>| {
        ctx.charge(1.0);
        let mut sum = 0u32;
        for msg in ctx.msgs() {
            sum = sum.wrapping_add(msg.word_u32());
        }
        *ctx.state = ctx.state.wrapping_add(u64::from(sum));
        let pid = ctx.pid();
        let word = (pid as u32).wrapping_add(sum);
        ctx.send_words_u32(
            (pid * 7 + 3) % ctx.nprocs(),
            &[word, word ^ 1, word ^ 2, word ^ 3],
        );
    };
    for _ in 0..50 {
        m.superstep(step);
    }
    let before = alloc_counter::allocations();
    for _ in 0..100 {
        m.superstep(step);
    }
    alloc_counter::allocations() - before
}

fn main() {
    force_pool();
    let sequential = steady_state_delta(false, None, false);
    assert_eq!(
        sequential, 0,
        "sequential hot path allocated {sequential} times in 100 supersteps"
    );
    // With RAYON_NUM_THREADS=4 and p=256 the default heuristic engages
    // the sharded exchange at 4 shards; pin it explicitly so the test
    // keeps meaning the same thing if the heuristic moves.
    let pooled = steady_state_delta(true, Some(4), false);
    assert_eq!(
        pooled, 0,
        "sharded hot path allocated {pooled} times in 100 supersteps"
    );
    // Uneven shard cut (7 does not divide 256) plus heap payloads: the
    // recycle lanes and sender-affine pools must also reach a
    // zero-allocation steady state.
    let heap = steady_state_delta(true, Some(7), true);
    assert_eq!(
        heap, 0,
        "sharded heap-payload path allocated {heap} times in 100 supersteps"
    );
    // Priced supersteps: the full pricing stack (pattern fingerprinting,
    // route memo, delta-router scratch, port-load folds) on each machine
    // must be allocation-free once its memos are warm.
    for plat in [Platform::maspar_with(64), Platform::gcel(), Platform::cm5()] {
        let priced = priced_delta(&plat);
        assert_eq!(
            priced,
            0,
            "{} priced hot path allocated {priced} times in 100 supersteps",
            plat.name()
        );
    }
    // Tracing ON must preserve the property: the probe's row log is
    // preallocated when the machine is constructed, so observed
    // supersteps stay allocation-free too.
    let (traced_seq, cap) = pcm::trace::capture(|| steady_state_delta(false, None, false));
    assert_eq!(
        traced_seq, 0,
        "traced sequential hot path allocated {traced_seq} times in 100 supersteps"
    );
    assert!(
        cap.runs.iter().all(|r| r.attribution_exact()),
        "traced steady state must also attribute exactly"
    );
    let (traced_sharded, _) = pcm::trace::capture(|| steady_state_delta(true, Some(4), true));
    assert_eq!(
        traced_sharded, 0,
        "traced sharded heap-payload path allocated {traced_sharded} times in 100 supersteps"
    );
    for plat in [Platform::maspar_with(64), Platform::gcel(), Platform::cm5()] {
        let (traced_priced, cap) = pcm::trace::capture(|| priced_delta(&plat));
        assert_eq!(
            traced_priced,
            0,
            "{} traced priced hot path allocated {traced_priced} times in 100 supersteps",
            plat.name()
        );
        assert!(cap.runs.iter().all(|r| r.attribution_exact()));
    }
    println!("hotpath_alloc: all legs allocation-free (tracing off and on)");
}
