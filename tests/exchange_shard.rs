//! Sharded-exchange equivalence: the destination-sharded parallel
//! exchange engine must be a pure execution strategy, bit-identical to
//! the sequential delivery path for *any* shard count. These tests pin
//! that contract (with the worker pool forced to width 4 so the lane
//! fan-out really dispatches):
//!
//! * every algorithm family × machine × shard count ∈ {1, 2, 7, p}
//!   produces the same simulated time and run digest as the forced
//!   sequential reference;
//! * a heap-payload-heavy raw machine run matches sequentially bit-for-bit
//!   across shard counts, and recycled (sender-affine) payload buffers
//!   never leak stale bytes into later supersteps;
//! * the shard-count plumbing (default heuristic, thread-local override
//!   and its clamping) resolves as documented;
//! * every analyzer (determinism auditor, protocol checker, race checker,
//!   trace collector, plan extraction) runs on the sharded engine when
//!   sharding is forced, and reports the same findings, traces and plans
//!   at any shard count.

// Tests assert exact simulated values and cast small pids freely.
#![allow(clippy::cast_possible_truncation)]

use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, Once};

use pcm::algos::apsp::{self, ApspVariant};
use pcm::algos::catalog::SEED;
use pcm::algos::discipline::{Discipline, RaceConfig};
use pcm::algos::lu::{self, LuVariant};
use pcm::algos::matmul::{self, MatmulVariant};
use pcm::algos::sort::bitonic::{self, ExchangeMode};
use pcm::algos::sort::parallel_radix::{self, RadixVariant};
use pcm::algos::sort::sample::{self, SampleVariant};
use pcm::algos::vendor;
use pcm::algos::RunResult;
use pcm::Platform;
use pcm_check::{audit_determinism, check_protocol, digest_run, render, Digest};
use pcm_race::check_races;
use pcm_sim::{
    collect_traces, extract_plans, with_exchange_shards, with_probe, with_sequential, ExchangePath,
    IdealNetwork, Machine, Needs, StepObs, SuperstepProbe, TextbookBspNetwork, UniformCompute,
    MAX_SHARDS,
};

/// Pins the pool width before the rayon shim latches it, so the lane
/// fan-out dispatches across real workers even on a single-core runner.
fn force_pool() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        if std::env::var_os("RAYON_NUM_THREADS").is_none() {
            std::env::set_var("RAYON_NUM_THREADS", "4");
        }
    });
}

type KernelRun<'a> = Box<dyn Fn() -> RunResult + 'a>;

/// One representative point per algorithm family at `p = 16` (the golden
/// grid): words, blocks and xnet exchange modes, inline and heap
/// payloads, vendor schedules.
fn family_runs(plat: &Platform) -> Vec<(&'static str, KernelRun<'_>)> {
    vec![
        (
            "matmul staggered n=16",
            Box::new(|| matmul::run(plat, 16, MatmulVariant::BspStaggered, SEED)),
        ),
        (
            "bitonic words m=32",
            Box::new(|| bitonic::run(plat, 32, ExchangeMode::Words, SEED)),
        ),
        (
            "samplesort bpram m=32",
            Box::new(|| sample::run(plat, 32, 4, SampleVariant::Bpram, SEED)),
        ),
        (
            "radix blocks m=32",
            Box::new(|| parallel_radix::run(plat, 32, RadixVariant::Blocks, SEED)),
        ),
        (
            "apsp words n=16",
            Box::new(|| apsp::run(plat, 16, ApspVariant::Words, SEED)),
        ),
        (
            "lu blocks n=16",
            Box::new(|| lu::run(plat, 16, LuVariant::Blocks, SEED)),
        ),
        (
            "vendor maspar_matmul n=8",
            Box::new(|| vendor::maspar_matmul(plat, 8, SEED)),
        ),
        (
            "vendor cmssl_matmul n=8",
            Box::new(|| vendor::cmssl_matmul(plat, 8, SEED)),
        ),
    ]
}

/// Every algorithm family × machine × shard count produces the same
/// simulated time and digest as the forced sequential reference. Shard
/// count 1 keeps the sequential delivery path (control), 2 and 7 cut the
/// 16-processor machines unevenly, and `p` puts every processor in its
/// own shard.
#[test]
fn sharded_exchange_is_bit_identical_across_families() {
    force_pool();
    let p = 16;
    for plat in Platform::all_with(p) {
        for (label, run) in family_runs(&plat) {
            let reference = with_sequential(&run);
            assert!(
                reference.verified,
                "{label} on {}: sequential reference failed",
                plat.name()
            );
            let ref_digest = digest_run(&reference);
            for shards in [1usize, 2, 7, p] {
                let sharded = with_exchange_shards(shards, &run);
                assert_eq!(
                    sharded.time.as_micros().to_bits(),
                    reference.time.as_micros().to_bits(),
                    "{label} on {} shards={shards}: simulated time diverged",
                    plat.name()
                );
                assert_eq!(
                    digest_run(&sharded),
                    ref_digest,
                    "{label} on {} shards={shards}: run digest diverged",
                    plat.name()
                );
            }
        }
    }
}

/// Raw machine with mixed inline/heap payloads and per-processor RNG
/// draws: `(time, states)` bit-identical to sequential for shard counts
/// that divide `p`, leave a remainder, and exceed [`MAX_SHARDS`].
#[test]
fn sharded_machine_matches_forced_sequential() {
    force_pool();
    let p = 64;
    let workload = |m: &mut Machine<u64>| {
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
    };
    let build = || {
        Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u64; p],
            SEED,
        )
    };
    let run = |mut m: Machine<u64>| {
        workload(&mut m);
        (m.time().as_micros().to_bits(), m.into_states())
    };
    let sequential = run(with_sequential(build));
    for shards in [2usize, 7, 64, 1000] {
        assert_eq!(
            run(with_exchange_shards(shards, build)),
            sequential,
            "shards={shards} diverged from sequential"
        );
    }
}

/// Sender-affine recycled payload buffers must never surface stale
/// bytes under the sharded exchange: after long heap payloads are
/// consumed and recycled shard-parallel, later (shorter) messages carry
/// exactly their own data and quiet supersteps observe empty inboxes.
#[test]
fn sharded_recycle_never_leaks_stale_data() {
    force_pool();
    let p = 64;
    let mut m = with_exchange_shards(7, || {
        Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; p],
            SEED,
        )
    });
    // Round 1: long, distinctive heap payloads (128 bytes each) crossing
    // shard boundaries (the +1 ring wraps through every shard cut).
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
        // Round 2: shorter payloads reusing the recycled buffers. Any
        // stale suffix from the 128-byte round would change the length
        // or the decoded values.
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
    // Quiet round: lanes and inboxes must come back empty.
    m.superstep(|ctx| {
        assert!(ctx.msgs().is_empty(), "stale messages survived delivery");
    });
}

/// The shard-count plumbing: the default heuristic follows the pool
/// width on big machines and stays sequential on small ones; the
/// thread-local override wins over the heuristic and is clamped to
/// `[1, min(p, MAX_SHARDS)]`.
#[test]
fn shard_count_resolution_is_documented_behavior() {
    force_pool();
    let machine = |p: usize| {
        Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u8; p],
            SEED,
        )
    };
    // Heuristic: pool width (4) on machines with p >= 64, 1 below.
    assert_eq!(machine(64).exchange_shards(), 4);
    assert_eq!(machine(16).exchange_shards(), 1);
    // The override wins over the heuristic, clamped to p.
    with_exchange_shards(7, || {
        assert_eq!(machine(64).exchange_shards(), 7);
        assert_eq!(machine(3).exchange_shards(), 3);
    });
    // Outside the scope the heuristic applies again.
    assert_eq!(machine(16).exchange_shards(), 1);
    // The override clamps to [1, min(p, MAX_SHARDS)].
    assert_eq!(
        with_exchange_shards(1000, || machine(64)).exchange_shards(),
        MAX_SHARDS
    );
    assert_eq!(with_exchange_shards(0, || machine(64)).exchange_shards(), 1);
    assert_eq!(
        with_exchange_shards(1000, || machine(8)).exchange_shards(),
        8
    );
}

/// A p=64 run that trips analyzer rules on purpose, so the comparisons
/// below are over non-empty findings: odd processors never read their
/// inbox (R02, W04) and overwrite a region nobody reads (W04), every
/// eighth processor also writes into one shared `(dst 0, tag 3)` cell
/// (W01), untagged reads see several tags (W03), and the last superstep's
/// messages are still pending at drop. Word, heap-block and xnet traffic
/// all cross the shard cuts.
fn analyzed_run() -> u64 {
    let p = 64;
    let mut m = Machine::new(
        Box::new(TextbookBspNetwork {
            g: 2.0,
            l: 10.0,
            sigma: 0.5,
            ell: 3.0,
        }),
        Arc::new(UniformCompute::test_model()),
        vec![0u64; p],
        SEED,
    );
    for round in 0..4u32 {
        m.superstep(move |ctx| {
            let pid = ctx.pid();
            let p = ctx.nprocs();
            ctx.charge(f64::from(round) + pid as f64 * 0.5);
            if pid % 2 == 0 {
                let mut acc = *ctx.state;
                for msg in ctx.msgs() {
                    for b in msg.data() {
                        acc = acc.wrapping_mul(31).wrapping_add(u64::from(*b));
                    }
                }
                *ctx.state = acc;
                ctx.touch_read(0);
            }
            ctx.touch_write(0);
            let word = round * 1000 + pid as u32;
            ctx.send_words_u32_tagged((pid * 7 + 3) % p, 1, &[word, word + 1]);
            let block: Vec<u32> = (0..32).map(|i| i + word).collect();
            ctx.send_block_u32_tagged((pid + 1) % p, 2, &block);
            if pid % 8 == 0 {
                ctx.send_words_u32_tagged(0, 3, &[word]);
            }
            if round == 2 {
                ctx.send_xnet_u32((pid + 8) % p, &[word; 4]);
            }
        });
    }
    let mut d = Digest::new();
    d.push_f64(m.time().as_micros());
    for s in m.states() {
        d.push_u64(*s);
    }
    d.finish()
}

/// Supersteps observed per exchange engine.
#[derive(Clone, Copy, Debug, Default)]
struct PathCounts {
    fused: usize,
    sharded: usize,
    reference: usize,
}

struct PathCounter {
    needs: Needs,
    counts: Rc<Cell<PathCounts>>,
}

impl SuperstepProbe for PathCounter {
    fn needs(&self) -> Needs {
        self.needs
    }

    fn observe(&mut self, obs: &StepObs<'_>) {
        let mut c = self.counts.get();
        match obs.path {
            ExchangePath::Fused => c.fused += 1,
            ExchangePath::Sharded => c.sharded += 1,
            ExchangePath::Reference => c.reference += 1,
        }
        self.counts.set(c);
    }
}

/// Runs `body` under a path counter declaring `needs` (plan extraction's
/// dry steps reach schedule observers only).
fn count_paths(needs: Needs, body: impl FnOnce()) -> PathCounts {
    let counts = Rc::new(Cell::new(PathCounts::default()));
    let hook = counts.clone();
    with_probe(
        move |_p| {
            Box::new(PathCounter {
                needs,
                counts: hook.clone(),
            })
        },
        body,
    );
    counts.get()
}

type AnalyzerRun = Box<dyn Fn()>;

/// With sharding forced, every analyzer observes the sharded engine —
/// the one the figures run — and never a separate reference path.
#[test]
fn analyzers_observe_the_sharded_engine() {
    force_pool();
    let analyzers: [(&str, Needs, AnalyzerRun); 5] = [
        (
            "audit_determinism",
            Needs::Cost,
            Box::new(|| {
                let v = audit_determinism("analyzed run", analyzed_run);
                assert!(v.is_empty(), "{}", render(&v));
            }),
        ),
        (
            "check_protocol",
            Needs::Cost,
            Box::new(|| {
                check_protocol(Discipline::any(), analyzed_run);
            }),
        ),
        (
            "check_races",
            Needs::Cost,
            Box::new(|| {
                check_races(RaceConfig::exclusive(), analyzed_run);
            }),
        ),
        (
            "collect_traces",
            Needs::Cost,
            Box::new(|| {
                collect_traces(analyzed_run);
            }),
        ),
        (
            "extract_plans",
            Needs::Schedule,
            Box::new(|| {
                extract_plans(analyzed_run);
            }),
        ),
    ];
    for (label, needs, run) in &analyzers {
        let counts = with_exchange_shards(3, || count_paths(*needs, run));
        assert!(counts.sharded > 0, "{label}: no sharded steps: {counts:?}");
        assert_eq!(counts.reference, 0, "{label}: reference steps: {counts:?}");
        if *label == "audit_determinism" {
            // The sequential leg is the fused oracle the two sharded legs
            // are compared with.
            assert_eq!((counts.fused, counts.sharded), (4, 8), "{counts:?}");
        }
    }
}

/// Findings, traces and plans do not depend on the exchange engine or
/// its shard count (64 clamps to `MAX_SHARDS`).
#[test]
fn analyzer_reports_are_identical_at_any_shard_count() {
    force_pool();
    let reports = |shards: usize| {
        with_exchange_shards(shards, || {
            let (_, protocol) = check_protocol(Discipline::any(), analyzed_run);
            let (_, races) = check_races(RaceConfig::exclusive(), analyzed_run);
            let (_, traces) = collect_traces(analyzed_run);
            let (_, plans) = extract_plans(analyzed_run);
            (protocol, races, traces, plans)
        })
    };
    let fused = reports(1);
    let (protocol, races, traces, plans) = &fused;
    assert!(
        !protocol.is_empty() && !races.is_empty(),
        "findings must not be vacuous"
    );
    assert_eq!((traces.len(), plans.len()), (4, 1));
    for shards in [3usize, 64] {
        assert_eq!(
            reports(shards),
            fused,
            "shards={shards} diverged from the fused engine"
        );
    }
}
