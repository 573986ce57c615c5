//! The full verification sweep: every rule over every registered
//! predictor, grid, lemma and crossover.
//!
//! The S03 lemma certifications and S06 crossover replays are the
//! expensive, mutually independent units, so the sweep fans them across
//! cores with [`pcm_sim::map_ordered`]; ordered collection keeps
//! the findings stream (and `SYM_report.json`) byte-identical to the
//! sequential sweep at any pool width.

use pcm_models::MachineParams;
use pcm_sim::map_ordered;

use crate::checker::{
    check_contract_shape, check_crossover, check_differential, check_domains, check_leading,
    check_lemma, check_units,
};
use crate::lemmas::{crossovers, lemmas};
use crate::rules::Finding;

/// Deterministic seed for the differential parameter grids and the
/// crossover replays — the same convention every analyzer in the
/// workspace uses.
pub const SEED: u64 = 2026;

/// Sweep configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepOptions {
    /// Smoke configuration: fewer differential rounds, no priced-simulator
    /// crossover replays.
    pub fast: bool,
}

/// Work counters for the report and the console summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Registered predictors (family × model pairs).
    pub predictors: usize,
    /// S01 unit checks performed (predictors × machines).
    pub unit_checks: usize,
    /// S02 experiment grid points checked.
    pub grid_points: usize,
    /// S03 dominance lemmas certified.
    pub lemmas_certified: usize,
    /// S04 randomized differential evaluation points.
    pub differential_points: usize,
    /// Largest symbolic-vs-Rust ulp distance observed across S04.
    pub max_ulp: u64,
    /// S05 leading-term certificates (predictors × machines).
    pub leading_terms: usize,
    /// S06 crossovers certified.
    pub crossovers: usize,
}

/// Everything one sweep produced.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Findings across all rules, in rule order.
    pub findings: Vec<Finding>,
    /// Work counters.
    pub stats: SweepStats,
}

/// Runs rules S01–S06 over the production registries and the three
/// Table 1 machines.
pub fn sweep(opts: SweepOptions) -> SweepOutcome {
    let preds = pcm_models::symbolic::all();
    let machines: Vec<MachineParams> =
        vec![pcm_models::maspar(), pcm_models::gcel(), pcm_models::cm5()];
    let grids = pcm_experiments::domains::grids();
    let rounds = if opts.fast { 2 } else { 8 };

    let mut findings = Vec::new();
    let mut stats = SweepStats {
        predictors: preds.len(),
        unit_checks: preds.len() * machines.len(),
        grid_points: grids.iter().map(|g| g.ns.len()).sum(),
        differential_points: preds.len() * machines.len() * rounds,
        leading_terms: preds.len() * machines.len(),
        ..SweepStats::default()
    };

    findings.extend(check_units(&preds, &machines));
    findings.extend(check_domains(&preds, &grids));
    for fnds in map_ordered(lemmas(), |_, lemma| check_lemma(&lemma, &preds)) {
        findings.extend(fnds);
        stats.lemmas_certified += 1;
    }
    let (diff_findings, max_ulp) = check_differential(&preds, &machines, rounds, SEED);
    findings.extend(diff_findings);
    stats.max_ulp = max_ulp;
    findings.extend(check_leading(&preds, &machines));
    findings.extend(check_contract_shape(&preds));
    for fnds in map_ordered(crossovers(), |_, x| {
        check_crossover(&x, &preds, !opts.fast, SEED)
    }) {
        findings.extend(fnds);
        stats.crossovers += 1;
    }

    SweepOutcome { findings, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_sweep_is_clean_and_counts_work() {
        let outcome = sweep(SweepOptions { fast: true });
        assert!(
            outcome.findings.is_empty(),
            "{}",
            crate::rules::render(&outcome.findings)
        );
        assert_eq!(outcome.stats.predictors, 16);
        assert_eq!(outcome.stats.unit_checks, 48);
        assert_eq!(outcome.stats.lemmas_certified, 8);
        assert_eq!(outcome.stats.crossovers, 3);
        assert!(outcome.stats.grid_points > 50);
        assert!(outcome.stats.max_ulp <= 1);
    }
}
