//! Zero-allocation guarantee for the superstep hot path.
//!
//! With no observer installed, steady-state supersteps
//! carrying word-sized traffic (inline payloads, <= 16 bytes) must not
//! touch the heap at all: both outboxes of every processor (one is the
//! communication pattern's send list) and the per-destination delivery
//! index reuse buffers warmed up in the first few supersteps, and the
//! pooled executor keeps its scratch on the caller's stack. The
//! trace-statistics scratch is filled only on observed machines, where
//! it too is reused: the traced legs hold the same bound.
//!
//! Pooled closures preserve the property with >1 worker: the chunk table
//! lives on the stack, and heap payloads drawn from a sender's pool
//! return to it when the exchange recycles the sender's consumed send
//! list.
//!
//! The binary installs a counting global allocator and runs without the
//! libtest harness (`harness = false` in Cargo.toml): other tests in the
//! same process — and libtest's own channel machinery, which allocates
//! nondeterministically while the harness thread parks — would pollute
//! the counter.

// Tests cast small pids freely.
#![allow(clippy::cast_possible_truncation)]

use std::sync::{Arc, Once};

use pcm::algos::apsp::{self, ApspVariant};
use pcm::algos::sort::bitonic::{merge_phases, ExchangeMode, SortState};
use pcm::algos::sort::parallel_radix::{self, RadixVariant};
use pcm_machines::Platform;
use pcm_sim::{with_sequential, Ctx, IdealNetwork, Machine, UniformCompute};

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
/// word messages.
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
/// block drawn from the sender's payload pool. Exercises the exchange's
/// recycling of consumed heap payloads back to their senders' pools.
fn mixed_step(ctx: &mut Ctx<'_, u64>) {
    ctx.charge(1.0);
    let mut sum = 0u32;
    for msg in ctx.msgs() {
        for &v in msg.u32s() {
            sum = sum.wrapping_add(v);
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

/// `pooled: false` runs the closures sequentially on the calling thread;
/// `true` fans them out in one chunk per pool thread.
fn steady_state_delta(pooled: bool, heap_traffic: bool) -> u64 {
    let p = 256;
    let build = || {
        Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u64; p],
            99,
        )
    };
    let mut m = if pooled {
        build()
    } else {
        with_sequential(build)
    };
    let step: fn(&mut Ctx<'_, u64>) = if heap_traffic { mixed_step } else { word_step };
    // Warm-up: grows both outboxes, the delivery index and the payload
    // pools, spawns the pool workers and latches per-thread parker state.
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

/// A whole APSP run, setup and verification included, on the fused
/// exchange: allocations and supersteps. The scatter, doubling and ring
/// closures move every piece through reused buffers, so the count grows
/// by a small constant per superstep, not by one per processor.
fn apsp_allocations(plat: &Platform, n: usize, variant: ApspVariant) -> (u64, usize) {
    let before = alloc_counter::allocations();
    let r = with_sequential(|| apsp::run(plat, n, variant, 1996));
    let allocs = alloc_counter::allocations() - before;
    assert!(r.verified, "{} APSP n={n} failed", plat.name());
    (allocs, r.breakdown.supersteps)
}

/// Bitonic merge phases on a 256-processor MasPar, on the calling thread:
/// allocations and supersteps of a sort on a machine that one earlier
/// sort has warmed (lists, merge buffers, outboxes and payload pools).
fn bitonic_allocations(mode: ExchangeMode) -> (u64, usize) {
    let plat = Platform::maspar_with(256);
    let m = 512;
    let mut rng = pcm::core::rng::seeded(1996);
    let mut sorted_lists = || -> Vec<Vec<u32>> {
        (0..plat.p())
            .map(|_| {
                let mut keys = pcm::core::rng::random_keys(m, &mut rng);
                keys.sort_unstable();
                keys
            })
            .collect()
    };
    let states = sorted_lists()
        .into_iter()
        .map(|keys| SortState {
            keys,
            ..SortState::default()
        })
        .collect();
    let fresh = sorted_lists();
    with_sequential(|| {
        let mut machine = plat.machine(states, 1996);
        merge_phases(&mut machine, mode);
        for (state, keys) in machine.states_mut().iter_mut().zip(&fresh) {
            state.keys.copy_from_slice(keys);
        }
        let steps = machine.supersteps();
        let before = alloc_counter::allocations();
        merge_phases(&mut machine, mode);
        let allocs = alloc_counter::allocations() - before;
        (allocs, machine.supersteps() - steps)
    })
}

/// A whole parallel radix run of 16 word-routed keys per processor,
/// setup and verification included, on the calling thread: allocations.
fn radix_allocations(plat: &Platform) -> u64 {
    let before = alloc_counter::allocations();
    let r = with_sequential(|| parallel_radix::run(plat, 16, RadixVariant::Words, 1996));
    let allocs = alloc_counter::allocations() - before;
    assert!(r.verified, "{} parallel radix failed", plat.name());
    allocs
}

fn main() {
    force_pool();

    let sequential = steady_state_delta(false, false);
    assert_eq!(
        sequential, 0,
        "sequential hot path allocated {sequential} times in 100 supersteps"
    );
    // At p=256 the closures fan out in one chunk per pool thread (uneven
    // under `make pool-odd`'s width 3).
    let pooled = steady_state_delta(true, false);
    assert_eq!(
        pooled, 0,
        "pooled hot path allocated {pooled} times in 100 supersteps"
    );
    // Pooled closures plus heap payloads: payloads drawn on the workers
    // and recycled by the exchange must also reach a zero-allocation
    // steady state.
    let heap = steady_state_delta(true, true);
    assert_eq!(
        heap, 0,
        "pooled heap-payload path allocated {heap} times in 100 supersteps"
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
    // APSP closures: fewer than 8 allocations per superstep over a whole
    // run on each machine, word and block traffic alike.
    for plat in [
        Platform::maspar_with(256),
        Platform::gcel_with(64),
        Platform::cm5_with(64),
    ] {
        for variant in [ApspVariant::Words, ApspVariant::Blocks] {
            let (allocs, steps) = apsp_allocations(&plat, 64, variant);
            assert!(
                allocs < 8 * steps as u64,
                "{} APSP {variant:?} allocated {allocs} times in {steps} supersteps",
                plat.name()
            );
        }
    }
    // Bitonic compare-splits reuse their buffers: on a warm machine a
    // whole sort makes fewer than one allocation per superstep.
    for mode in [ExchangeMode::Block, ExchangeMode::Packets { bytes: 16 }] {
        let (allocs, steps) = bitonic_allocations(mode);
        assert!(
            allocs < steps as u64,
            "MasPar bitonic {mode:?} allocated {allocs} times in {steps} supersteps"
        );
    }
    // Parallel radix sends its counts, replies and routed keys as slices
    // of per-processor scratch that every pass reuses. At p=256 (one
    // bucket per processor) a run makes 5,064 allocations, nearly all of
    // them setup and the first pass's growth of outboxes and scratch (four
    // more passes would add 86); building a `Vec` per destination made
    // 1,360,904. The bound leaves a 58% margin over the measured count
    // and stays 170x below the old one.
    let radix = radix_allocations(&Platform::maspar_with(256));
    assert!(
        radix < 8_000,
        "MasPar p=256 parallel radix allocated {radix} times"
    );
    // Tracing ON must preserve the property: the probe's row log is
    // preallocated when the machine is constructed, so observed
    // supersteps stay allocation-free too.
    let (traced_seq, cap) = pcm::trace::capture(|| steady_state_delta(false, false));
    assert_eq!(
        traced_seq, 0,
        "traced sequential hot path allocated {traced_seq} times in 100 supersteps"
    );
    assert!(
        cap.runs.iter().all(|r| r.attribution_exact()),
        "traced steady state must also attribute exactly"
    );
    let (traced_pooled, _) = pcm::trace::capture(|| steady_state_delta(true, true));
    assert_eq!(
        traced_pooled, 0,
        "traced pooled heap-payload path allocated {traced_pooled} times in 100 supersteps"
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
    println!("hotpath_alloc: all legs allocation-free (unobserved and traced)");
}
