//! Tracing-layer gates: exact cost attribution and zero perturbation.
//!
//! The tracing contract has two sides, both checked here end-to-end on
//! real algorithm runs:
//!
//! * **exact attribution** — folding each observed superstep's
//!   `(compute, comm)` pair in program order reproduces the machine's
//!   total priced cost *bit-identically* (the probe sees the very values
//!   the simulator added to its clock, and the fold repeats the same f64
//!   additions in the same order);
//! * **zero perturbation** — running under a trace scope changes nothing
//!   observable: simulated times and run digests are bit-identical with
//!   and without the probe, on every machine, and pooled and sequential
//!   runs record identical rows;
//! * **one record** — each row carries the machine's own
//!   [`pcm_sim::SuperstepTrace`], so the row log and
//!   [`pcm_sim::Machine::traces`] agree step for step.

use pcm::algos::catalog::SEED;
use pcm::algos::matmul::{self, MatmulVariant};
use pcm::algos::sort::bitonic::{self, merge_phases, BitonicList, ExchangeMode, SortState};
use pcm::algos::sort::radix::radix_sort;
use pcm::algos::RunResult;
use pcm::models::account_run;
use pcm::trace::{capture, capture_sized, ChromeRun};
use pcm::Platform;
use pcm_sim::with_sequential;

fn bits(t: pcm::SimTime) -> u64 {
    t.as_micros().to_bits()
}

#[test]
fn attribution_reproduces_total_cost_bit_identically() {
    for plat in Platform::all_with(16) {
        for (name, run) in [
            (
                "matmul",
                Box::new(|| matmul::run(&plat, 8, MatmulVariant::BspStaggered, SEED))
                    as Box<dyn Fn() -> RunResult>,
            ),
            (
                "bitonic",
                Box::new(|| bitonic::run(&plat, 16, ExchangeMode::Words, SEED)),
            ),
        ] {
            let (result, cap) = capture(run);
            assert!(result.verified, "{name} on {} must verify", plat.name());
            let mrun = cap
                .run_matching(result.time)
                .unwrap_or_else(|| panic!("{name} on {}: no machine matches", plat.name()));
            assert!(
                mrun.attribution_exact(),
                "{name} on {}: fold {:?} != clock {:?}",
                plat.name(),
                mrun.folded_clock(),
                mrun.final_clock()
            );
            assert_eq!(
                bits(mrun.folded_clock()),
                bits(result.time),
                "{name} on {}: per-step attribution must sum to the priced total exactly",
                plat.name()
            );
            assert!(!mrun.rows.is_empty());
        }
    }
}

#[test]
fn tracing_does_not_perturb_time_or_digest() {
    for plat in Platform::all_with(16) {
        let bare = matmul::run(&plat, 8, MatmulVariant::BspStaggered, SEED);
        let (traced, _cap) = capture(|| matmul::run(&plat, 8, MatmulVariant::BspStaggered, SEED));
        assert_eq!(
            bits(bare.time),
            bits(traced.time),
            "{}: probe must not change the simulated clock",
            plat.name()
        );
        assert_eq!(bare.verified, traced.verified);
        assert_eq!(
            bare.breakdown.messages,
            traced.breakdown.messages,
            "{}: probe must not change message accounting",
            plat.name()
        );
        assert_eq!(bare.breakdown.bytes, traced.breakdown.bytes);
    }
}

/// Pool width 4 before the rayon shim latches it, so `p = 64` machines
/// fan their closures out even on a single-core runner. Best-effort: if
/// another test latched the width first, a multi-core host still fans out.
fn force_pool() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        if std::env::var_os("RAYON_NUM_THREADS").is_none() {
            std::env::set_var("RAYON_NUM_THREADS", "4");
        }
    });
}

#[test]
fn pooled_and_sequential_runs_record_identical_rows() {
    force_pool();
    for plat in Platform::all_with(64) {
        let run = || bitonic::run(&plat, 24, ExchangeMode::Words, SEED);
        let (pooled, cp) = capture(run);
        let (sequential, cs) = with_sequential(|| capture(run));
        assert_eq!(
            bits(pooled.time),
            bits(sequential.time),
            "{}: pooling is an execution strategy, not a cost",
            plat.name()
        );
        let mp = cp.run_matching(pooled.time).expect("pooled run");
        let ms = cs.run_matching(sequential.time).expect("sequential run");
        assert!(mp.attribution_exact() && ms.attribution_exact());
        assert_eq!(mp.rows.len(), ms.rows.len(), "{}", plat.name());
        for (a, b) in mp.rows.iter().zip(&ms.rows) {
            let step = a.trace.index;
            assert_eq!(bits(a.clock), bits(b.clock), "{} step {step}", plat.name());
            assert_eq!(a.trace, b.trace, "{} step {step}", plat.name());
            assert_eq!(
                (a.machine, a.records, a.path, a.memo, a.terms),
                (b.machine, b.records, b.path, b.memo, b.terms),
                "{} step {step}: rows differ outside wall time",
                plat.name()
            );
        }
    }
}

#[test]
fn row_log_is_the_machines_record() {
    let (p, m) = (16, 16);
    for plat in Platform::all_with(p) {
        let params = plat.model_params();
        let (traces, cap) = capture(|| {
            let mut rng = pcm::core::rng::seeded(SEED);
            let keys = pcm::core::rng::random_keys(p * m, &mut rng);
            let states: Vec<SortState> = keys
                .chunks(m)
                .map(|c| SortState {
                    keys: c.to_vec(),
                    stash: Vec::new(),
                })
                .collect();
            let mut machine = plat.machine(states, SEED);
            machine.superstep(|ctx| {
                radix_sort(ctx.state.list_mut());
                ctx.charge_radix_sort(m, 32, 8);
            });
            merge_phases(&mut machine, ExchangeMode::Block);
            machine.traces().to_vec()
        });
        let [mrun] = &cap.runs[..] else {
            panic!("{}: one machine, one row log", plat.name());
        };
        assert!(mrun.attribution_exact(), "{}", plat.name());
        assert_eq!(mrun.rows.len(), traces.len(), "{}", plat.name());
        for (row, trace) in mrun.rows.iter().zip(&traces) {
            assert_eq!(
                row.trace,
                *trace,
                "{} step {}: the row must carry the stored trace",
                plat.name(),
                trace.index
            );
        }
        assert!(
            traces.iter().any(|t| t.block_steps > 0),
            "{}: the block merge prices block rounds",
            plat.name()
        );
        assert_eq!(
            account_run(&params, mrun.rows.iter().map(|r| &r.trace)),
            account_run(&params, &traces),
            "{}: the rows account exactly as the machine's traces",
            plat.name()
        );
    }
}

#[test]
fn cost_terms_accumulate_in_the_rows() {
    let plat = Platform::maspar_with(16);
    let (result, cap) = capture(|| matmul::run(&plat, 8, MatmulVariant::BspStaggered, SEED));
    assert!(result.verified);
    let mrun = cap.run_matching(result.time).expect("traced run");
    let terms = mrun
        .rows
        .last()
        .and_then(|r| r.terms)
        .expect("MasPar reports cost terms");
    assert!(terms.routes > 0, "matmul routes at least one pattern");
    assert!(terms.barrier_us > 0.0, "barrier term accumulates");
    assert!(
        terms.router_passes >= terms.router_min_passes,
        "greedy passes are bounded below by the congestion lower bound"
    );
}

#[test]
fn chrome_export_tiles_the_simulated_timeline() {
    let plat = Platform::cm5_with(16);
    let (result, cap) = capture(|| matmul::run(&plat, 8, MatmulVariant::BspStaggered, SEED));
    let mrun = cap.run_matching(result.time).expect("traced run");
    let doc = pcm::trace::chrome::render(&[ChromeRun {
        name: String::from("matmul/BspStaggered @ CM-5"),
        run: mrun,
    }]);
    assert_eq!(
        doc.matches("\"ph\":\"X\"").count(),
        2 * mrun.rows.len(),
        "one compute and one comm slice per superstep"
    );
    assert_eq!(doc.matches("\"ph\":\"C\"").count(), mrun.rows.len());
    assert!(doc.contains("\"traceEvents\""));
    assert!(doc.ends_with("]\n}\n"), "document must close cleanly");
}

#[test]
fn tiny_row_logs_drop_rows_and_void_exactness() {
    let plat = Platform::cm5_with(16);
    let (result, cap) = capture_sized(2, || bitonic::run(&plat, 16, ExchangeMode::Words, SEED));
    assert!(result.verified, "tracing overflow must not affect the run");
    let mrun = cap.runs.last().expect("a machine ran");
    assert!(mrun.dropped > 0, "bitonic runs more than 2 supersteps");
    assert!(
        !mrun.attribution_exact(),
        "dropped rows must void the exactness claim"
    );
}
