//! Pooled-executor equivalence: with the worker pool forced on (every
//! test here pins `RAYON_NUM_THREADS=4` before the shim can latch its
//! width), machines at `p >= 32` dispatch supersteps through the
//! persistent pool. These tests pin the contract that pooling is purely
//! an execution strategy:
//!
//! * pooled and forced-sequential runs produce bit-identical simulated
//!   times, states and run digests on all three machines;
//! * recycled inboxes and payload buffers never leak stale bytes,
//!   messages or shadow events into a later superstep;
//! * the `pcm-race` analyzer stays clean on the pooled path;
//! * `map_ordered` fan-outs keep every unit inside the caller's
//!   thread-local scopes, and fanned-out figures equal their sequential
//!   runs;
//! * the closures run in one contiguous pid-ordered chunk per pool
//!   thread, and a closure's panic reaches `Machine::superstep`'s caller
//!   with its original payload without wedging the pool.

// Tests assert exact simulated values and cast small pids freely.
#![allow(clippy::cast_possible_truncation)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Arc, Once};

use pcm::algos::catalog::SEED;
use pcm::algos::discipline::RaceConfig;
use pcm::algos::matmul::{self, MatmulVariant};
use pcm::algos::sort::bitonic::{self, ExchangeMode};
use pcm::algos::RunResult;
use pcm::calibrate::microbench;
use pcm::core::stats::Summary;
use pcm::experiments::{apsp_figs, Output, Scale};
use pcm::Platform;
use pcm_check::{digest_run, render};
use pcm_race::{check_races, errors};
use pcm_sim::{
    map_ordered, with_exchange_shards, with_probe, with_sequential, Ctx, IdealNetwork, Machine,
    StepObs, SuperstepProbe, UniformCompute,
};

/// Pool width 4 at or above `p = 32` engages the pooled path even on a
/// single-core runner. Every test calls this before any fan-out so the
/// shim's latched width is deterministic for the whole binary. An explicit
/// `RAYON_NUM_THREADS` wins, so CI also runs this binary at an odd width.
fn force_pool() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        if std::env::var_os("RAYON_NUM_THREADS").is_none() {
            std::env::set_var("RAYON_NUM_THREADS", "4");
        }
    });
}

type KernelRun<'a> = Box<dyn Fn() -> RunResult + 'a>;

/// Pooled vs forced-sequential whole-kernel runs: identical times and
/// digests on all three machines at a pool-engaging processor count.
#[test]
fn pooled_kernels_match_forced_sequential() {
    force_pool();
    for plat in Platform::all_with(64) {
        let runs: Vec<(&str, KernelRun<'_>)> = vec![
            (
                "bitonic words m=24",
                Box::new(|| bitonic::run(&plat, 24, ExchangeMode::Words, SEED)),
            ),
            (
                "matmul naive n=16",
                Box::new(|| matmul::run(&plat, 16, MatmulVariant::BspNaive, SEED)),
            ),
        ];
        for (label, run) in runs {
            let pooled = run();
            let sequential = with_sequential(&run);
            assert!(
                pooled.verified,
                "{label} on {}: pooled run failed",
                plat.name()
            );
            assert_eq!(
                pooled.time.as_micros().to_bits(),
                sequential.time.as_micros().to_bits(),
                "{label} on {}: simulated time diverged",
                plat.name()
            );
            assert_eq!(
                digest_run(&pooled),
                digest_run(&sequential),
                "{label} on {}: run digest diverged",
                plat.name()
            );
        }
    }
}

/// Pooled vs forced-sequential raw machine: identical `(time, states)`
/// for a workload that exercises inline words, pooled block payloads and
/// the per-processor RNG streams.
#[test]
fn pooled_machine_matches_forced_sequential() {
    force_pool();
    let run = || {
        let p = 64;
        let mut m = Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u64; p],
            SEED,
        );
        for round in 0..10u32 {
            m.superstep(move |ctx| {
                ctx.charge(f64::from(round) + ctx.pid() as f64 * 0.25);
                let dst = (ctx.pid() * 7 + 3) % ctx.nprocs();
                ctx.send_word_u32(dst, round * 1000 + ctx.pid() as u32);
                // 32 u32s: heap payload drawn from the sender's pool.
                let block: Vec<u32> = (0..32).map(|i| i + round).collect();
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
    let pooled = run();
    let sequential = with_sequential(run);
    assert_eq!(pooled, sequential);
}

/// Recycled inboxes and pooled payload buffers must never surface stale
/// bytes: after large heap payloads are consumed and their buffers
/// recycled, later (shorter) messages must carry exactly their own data,
/// and quiet supersteps must observe empty inboxes.
#[test]
fn recycled_buffers_never_leak_stale_data() {
    force_pool();
    let p = 64;
    let mut m = Machine::new(
        Box::new(IdealNetwork),
        Arc::new(UniformCompute::test_model()),
        vec![0u32; p],
        SEED,
    );
    // Round 1: long, distinctive heap payloads (128 bytes each).
    m.superstep(|ctx| {
        let pid = ctx.pid() as u32;
        let vals: Vec<u32> = (0..32).map(|i| pid * 100 + i).collect();
        ctx.send_block_u32((ctx.pid() + 1) % ctx.nprocs(), &vals);
    });
    m.superstep(|ctx| {
        let prev = ((ctx.pid() + ctx.nprocs() - 1) % ctx.nprocs()) as u32;
        assert_eq!(ctx.msgs().len(), 1);
        let expected: Vec<u32> = (0..32).map(|i| prev * 100 + i).collect();
        assert_eq!(ctx.msgs()[0].as_u32s(), expected);
        // Round 2: shorter payloads that reuse the recycled buffers. Any
        // stale suffix from the 128-byte round would change the length or
        // the decoded values.
        let pid = ctx.pid() as u32;
        let vals: Vec<u32> = (0..10).map(|i| pid * 7 + i).collect();
        ctx.send_block_u32((ctx.pid() + 1) % ctx.nprocs(), &vals);
    });
    m.superstep(|ctx| {
        let prev = ((ctx.pid() + ctx.nprocs() - 1) % ctx.nprocs()) as u32;
        assert_eq!(ctx.msgs().len(), 1);
        assert_eq!(ctx.msgs()[0].data().len(), 40, "stale bytes leaked");
        let expected: Vec<u32> = (0..10).map(|i| prev * 7 + i).collect();
        assert_eq!(ctx.msgs()[0].as_u32s(), expected);
    });
    // Quiet round: recycled inboxes must come back empty.
    m.superstep(|ctx| {
        assert!(ctx.msgs().is_empty(), "stale messages survived delivery");
    });
}

/// The happens-before analyzer (which also shadows every send/consume
/// event) stays clean when supersteps run on the worker pool.
#[test]
fn race_analyzer_is_clean_on_pooled_path() {
    force_pool();
    for plat in Platform::all_with(64) {
        let label = format!("bitonic words m=24 on {} p=64 (pooled)", plat.name());
        let (result, violations) = check_races(RaceConfig::exclusive(), || {
            bitonic::run(&plat, 24, ExchangeMode::Words, SEED)
        });
        assert!(result.verified, "{label}: result failed verification");
        let errs = errors(&violations);
        assert!(
            errs.is_empty(),
            "{label}: race findings:\n{}",
            render(&violations)
        );
    }
}

/// Shadow events are drained every superstep even on the pooled path: a
/// second analyzed run on the same thread starts from a clean slate and
/// reports the same (empty) finding set.
#[test]
fn shadow_events_do_not_leak_across_analyzed_runs() {
    force_pool();
    let workload = || {
        let p = 64;
        let mut m = Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; p],
            SEED,
        );
        m.superstep(|ctx: &mut Ctx<'_, u32>| {
            let pid = ctx.pid() as u32;
            ctx.send_word_u32((ctx.pid() + 1) % ctx.nprocs(), pid);
        });
        m.superstep(|ctx: &mut Ctx<'_, u32>| {
            *ctx.state = ctx.msgs()[0].word_u32();
        });
    };
    let ((), first) = check_races(RaceConfig::exclusive(), workload);
    let ((), second) = check_races(RaceConfig::exclusive(), workload);
    assert!(errors(&first).is_empty(), "{}", render(&first));
    assert_eq!(
        first.len(),
        second.len(),
        "stale shadow events changed a repeated run's findings"
    );
}

/// A 64-processor machine with one superstep run on it.
fn stepped_machine(seed: u64) -> Machine<u32> {
    let mut m = Machine::new(
        Box::new(IdealNetwork),
        Arc::new(UniformCompute::test_model()),
        vec![0u32; 64],
        seed,
    );
    m.superstep(|ctx| {
        let dst = (ctx.pid() + 1) % ctx.nprocs();
        ctx.send_word_u32(dst, ctx.pid() as u32);
    });
    m
}

struct Quiet;

impl SuperstepProbe for Quiet {
    fn observe(&mut self, _obs: &StepObs<'_>) {}
}

/// An observer scope sees every machine a fanned-out sweep builds: the
/// units run on the scope's thread instead of escaping to pool workers.
#[test]
fn probe_scope_observes_every_fanned_out_machine() {
    force_pool();
    let built = Rc::new(Cell::new(0usize));
    let counter = built.clone();
    let units = 12;
    with_probe(
        move |_| {
            counter.set(counter.get() + 1);
            Box::new(Quiet)
        },
        || {
            map_ordered((0..units as u64).collect(), |_, seed| {
                stepped_machine(seed).time()
            })
        },
    );
    assert_eq!(built.get(), units, "machines escaped the observer scope");
}

/// A shard override reaches the machine of every fanned-out unit.
#[test]
fn shard_scope_reaches_every_fanned_out_machine() {
    force_pool();
    let shards = with_exchange_shards(3, || {
        map_ordered((0..12u64).collect(), |_, seed| {
            stepped_machine(seed).exchange_shards()
        })
    });
    assert_eq!(shards, vec![3; 12]);
}

/// Bit patterns of every point of a figure.
fn figure_bits(out: &Output) -> Vec<(String, Vec<[u64; 2]>)> {
    let Output::Fig(f) = out else {
        panic!("expected a figure")
    };
    f.series
        .iter()
        .map(|s| {
            let pts = s.points.iter().map(|p| [p.x.to_bits(), p.y.to_bits()]);
            (s.label.clone(), pts.collect())
        })
        .collect()
}

/// Fanned-out trials and figure points equal their sequential runs bit
/// for bit.
#[test]
fn fanned_out_figures_match_forced_sequential() {
    force_pool();
    let plat = Platform::maspar();
    let trials = || microbench::one_h_relation(&plat, 8, 6, SEED);
    let (fanned, sequential) = (trials(), with_sequential(trials));
    let bits = |s: Summary| [s.mean, s.std_dev, s.min, s.max].map(f64::to_bits);
    assert_eq!(fanned.n, sequential.n);
    assert_eq!(bits(fanned), bits(sequential), "one_h_relation diverged");

    let fig = || apsp_figs::fig13(Scale::Quick, SEED);
    assert_eq!(
        figure_bits(&fig()),
        figure_bits(&with_sequential(fig)),
        "fig13 diverged"
    );
}

/// Per-processor record of the closure-dispatch test: how often the pid
/// ran, the thread it ran on and that thread's running call count.
#[derive(Clone, Copy, Default)]
struct Visit {
    runs: u32,
    thread: Option<std::thread::ThreadId>,
    seq: u64,
}

thread_local! {
    /// Closure calls made on this thread so far.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The contiguous chunk partition the machine fans its closures out by:
/// one chunk per pool thread, the first `p mod n` one processor longer.
fn closure_chunks(p: usize) -> Vec<std::ops::Range<usize>> {
    let n = rayon::current_num_threads().min(p);
    let mut chunks = Vec::with_capacity(n);
    let mut start = 0;
    for k in 0..n {
        let len = (p - start).div_ceil(n - k);
        chunks.push(start..start + len);
        start += len;
    }
    chunks
}

/// Each closure chunk (`[0,16)`, `[16,32)`, `[32,48)`, `[48,64)` at width
/// 4) runs on a single thread in pid order, and every pid runs once.
#[test]
fn closure_chunks_run_on_one_thread_in_pid_order() {
    force_pool();
    let p = 64;
    let chunks = closure_chunks(p);
    if rayon::current_num_threads() == 4 {
        assert_eq!(chunks, [0..16, 16..32, 32..48, 48..64]);
    }
    let mut m = Machine::new(
        Box::new(IdealNetwork),
        Arc::new(UniformCompute::test_model()),
        vec![Visit::default(); p],
        SEED,
    );
    m.superstep(|ctx| {
        let seq = CALLS.with(|c| {
            c.set(c.get() + 1);
            c.get()
        });
        ctx.state.runs += 1;
        ctx.state.thread = Some(std::thread::current().id());
        ctx.state.seq = seq;
    });
    let visits = m.states();
    assert!(
        visits.iter().all(|v| v.runs == 1),
        "a pid ran twice or never"
    );
    for chunk in chunks {
        let first = visits[chunk.start];
        for pid in chunk.clone() {
            assert_eq!(
                visits[pid].thread, first.thread,
                "chunk {chunk:?} split across threads at pid {pid}"
            );
            assert_eq!(
                visits[pid].seq,
                first.seq + (pid - chunk.start) as u64,
                "chunk {chunk:?} left pid order at pid {pid}"
            );
        }
    }
}

/// The text of a caught panic payload.
fn panic_text(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-text payload>")
}

/// A closure panic in a queued chunk (pid 63) or in the caller's own
/// chunk (pid 0) surfaces from `Machine::superstep` with its original
/// payload, and a fresh machine's superstep still completes on the pool.
#[test]
fn closure_panics_surface_from_superstep() {
    force_pool();
    let p = 64;
    for bad in [p - 1, 0] {
        let mut m = Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; p],
            SEED,
        );
        let result = catch_unwind(AssertUnwindSafe(|| {
            m.superstep(|ctx| {
                assert!(ctx.pid() != bad, "intentional: pid {}", ctx.pid());
            });
        }));
        let payload = result.expect_err("the closure's panic must propagate");
        assert_eq!(panic_text(&*payload), format!("intentional: pid {bad}"));
        assert!(
            !rayon::in_pool_worker(),
            "nesting depth restored after the panic at pid {bad}"
        );

        let mut fresh = stepped_machine(SEED);
        fresh.superstep(|ctx| *ctx.state = ctx.msgs()[0].word_u32());
        let expect: Vec<u32> = (0..p as u32).map(|pid| (pid + 63) % 64).collect();
        assert_eq!(
            fresh.states(),
            expect,
            "superstep after the panic at pid {bad}"
        );
    }
}
