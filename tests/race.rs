//! Observer sweep: every `pcm_algos::catalog` variant x machine x the
//! family's analyzer grid runs once, in one priced scope, under two
//! observers stacked:
//!
//! 1. the `pcm-check` protocol checker, with the message `Discipline`
//!    the variant declares in the catalog (a deliberately naive schedule
//!    tolerates concurrent writes; a strict MP-BSP variant must stagger
//!    into permutation rounds);
//! 2. the `pcm-race` happens-before analyzer, with the [`RaceConfig`] the
//!    variant declares:
//!    * `exclusive` — single writer per `(dst, tag)` cell, tag-separated
//!      streams (bitonic, LU, the vendor kernels);
//!    * `exclusive-dispatch` — single writer, but the receiver decodes
//!      tags from the messages (APSP's dynamic `2·idx+axis` tag space,
//!      the collectives' pid-tagged gathers);
//!    * `queued-tagged` — declared fan-in per cell, streams still
//!      tag-separated (matmul's slab gathers, radix's count managers);
//!    * `queued` — fan-in with dynamic dispatch (sample sort's bucket
//!      routing).
//!
//! Any protocol violation, or any W01 (write-write race), W02 (stale read)
//! or W03 (inbox aliasing) finding, fails the sweep with the rendered
//! report; W04 dead-send warnings are tolerated — they grade efficiency,
//! not correctness. The determinism pair for the same points is
//! `tests/sanitizer.rs`; each family's `CostContract` is checked on the
//! same grid (and the rest of it) by `pcm-audit`'s A03, in
//! `tests/audit.rs`.

use std::sync::Arc;

#[macro_use]
mod common;

use pcm::algos::catalog::{self, Variant, SEED};
use pcm::algos::discipline::RaceConfig;
use pcm::algos::primitives::collectives;
use pcm::algos::RunResult;
use pcm::Platform;
use pcm_check::{check_protocol, render};
use pcm_race::{check_races, errors};
use pcm_sim::{IdealNetwork, Machine, UniformCompute};

/// Runs `run` once with the protocol checker and the race analyzer
/// stacked, under the discipline and race config `v` declares, and fails
/// on any protocol violation or error-grade race finding.
fn check_observed(label: &str, v: &Variant, run: &dyn Fn() -> RunResult) {
    let (discipline, race) = (v.discipline, v.race);
    let ((result, races), protocol) = check_protocol(discipline, || check_races(race, run));
    assert!(result.verified, "{label}: result failed verification");
    assert!(
        protocol.is_empty(),
        "{label}: protocol violations under '{}':\n{}",
        discipline.name,
        render(&protocol)
    );
    assert!(
        errors(&races).is_empty(),
        "{label}: race findings under '{}':\n{}",
        race.name,
        render(&races)
    );
}

catalog_sweeps!(check_observed);

/// The catalog's broadcast starts at root 0; this is the one run from a
/// non-zero root.
#[test]
fn broadcast_from_root_1_is_race_free() {
    let family = catalog::family("collectives").expect("collectives in the catalog");
    let v = family.variant("broadcast").expect("broadcast variant");
    for &(_, p) in family.analyzer_grid() {
        for plat in Platform::all_with(p) {
            let label = format!("broadcast root=1 on {} p={p}", plat.name());
            check_observed(&label, v, &|| {
                let mut data = vec![Vec::new(); p];
                data[1] = (0..16).collect();
                let expect = data[1].clone();
                let mut m = collectives::machine_with(&plat, data, SEED);
                collectives::broadcast(&mut m, 1);
                let ok = m.states().iter().all(|s| s.out == expect);
                RunResult::new(m.time(), m.breakdown(), ok)
            });
        }
    }
}

/// A deliberately broken kernel: the reader consumes its inbox in the
/// *same* superstep as the send — the barrier that would publish the data
/// has been removed. The analyzer must flag the stale read.
#[test]
fn broken_fixture_missing_barrier_is_detected() {
    let ((), violations) = check_races(RaceConfig::exclusive(), || {
        let mut m = Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; 4],
            SEED,
        );
        m.superstep(|ctx| {
            if ctx.pid() == 0 {
                ctx.send_word_u32(1, 42);
            } else if ctx.pid() == 1 {
                // BUG: reads before the barrier delivers — observes nothing.
                assert!(ctx.msgs().is_empty());
            }
        });
        // The run ends here; the delivery dies unread.
    });
    let errs = errors(&violations);
    assert!(
        errs.iter().any(|v| v.rule == pcm_check::RuleId::StaleRead),
        "expected a W02 stale-read finding, got:\n{}",
        render(&violations)
    );
}

/// The same kernel with the barrier restored is clean.
#[test]
fn fixed_fixture_with_barrier_is_clean() {
    let ((), violations) = check_races(RaceConfig::exclusive(), || {
        let mut m = Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; 4],
            SEED,
        );
        m.superstep(|ctx| {
            if ctx.pid() == 0 {
                ctx.send_word_u32(1, 42);
            }
        });
        m.superstep(|ctx| {
            if ctx.pid() == 1 {
                assert_eq!(ctx.msgs().len(), 1);
            }
        });
    });
    assert!(violations.is_empty(), "{}", render(&violations));
}
