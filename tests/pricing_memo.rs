//! Differential gate for the pattern memo: with memoization on or off,
//! every machine must produce bit-identical simulated clocks.
//!
//! Each machine memoizes the deterministic part of a superstep's price,
//! keyed on the full send-record list (the MasPar stores the cost
//! coefficient of every jitter draw); jitter is always drawn live from
//! the machine's sequential rng. If a cached entry ever leaked a jitter
//! draw — or a collision returned the wrong entry — the clocks would
//! drift. The sweep below repeats patterns (to force warm hits),
//! interleaves distinct shapes (to force evictions and re-misses) and
//! mixes word with block traffic.

// Tests cast small pids freely and compare exact simulated times.
#![allow(clippy::cast_possible_truncation, clippy::float_cmp)]

use pcm_core::SimTime;
use pcm_machines::Platform;
use pcm_sim::Ctx;

/// One sweep: a shifting permutation, a repeated fixed permutation, a
/// fan-in step and a block-traffic step, four rounds each.
fn run_sweep(plat: &Platform, memo: bool) -> (Vec<SimTime>, u64) {
    let p = plat.p();
    let mut m = plat.machine(vec![0u64; p], 41);
    m.set_route_memo(memo);
    let mut clocks = Vec::new();
    for round in 0..4usize {
        // Shifting permutation: a fresh pattern every superstep (misses).
        m.superstep(|ctx| {
            let dst = (ctx.pid() + 2 * round + 1) % ctx.nprocs();
            ctx.send_words_u32(dst, &[1, 2, 3, 4]);
        });
        clocks.push(m.time());
        // Fixed permutation: the same pattern every superstep (hits).
        m.superstep(|ctx| {
            let dst = (ctx.pid() * 7 + 3) % ctx.nprocs();
            ctx.send_word_u32(dst, round as u32);
        });
        clocks.push(m.time());
        // Fan-in: skewed port loads, distinct from both permutations.
        m.superstep(|ctx| {
            if ctx.pid() % 4 == round % 4 {
                ctx.send_words_u32(ctx.pid() / 2, &[9, 9, 9, 9]);
            }
        });
        clocks.push(m.time());
        // Block traffic: exercises the block-round pricing path.
        m.superstep(|ctx: &mut Ctx<'_, u64>| {
            let block = [0xabcd_ef01u32; 32];
            ctx.send_block_u32((ctx.pid() + 5) % ctx.nprocs(), &block);
        });
        clocks.push(m.time());
    }
    let hits = m.route_memo_stats().map_or(0, |s| s.hits);
    (clocks, hits)
}

#[test]
fn route_memo_is_observationally_transparent() {
    for plat in [Platform::maspar_with(64), Platform::gcel(), Platform::cm5()] {
        let (with_memo, hits) = run_sweep(&plat, true);
        let (without_memo, _) = run_sweep(&plat, false);
        assert_eq!(
            with_memo,
            without_memo,
            "{}: clocks diverged between memo on and off",
            plat.name()
        );
        assert!(
            hits > 0,
            "{}: sweep never hit the route memo — the differential is vacuous",
            plat.name()
        );
    }
}
