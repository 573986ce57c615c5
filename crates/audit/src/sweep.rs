//! The full audit sweep: every `pcm_algos::catalog` family × machine ×
//! `(n, p)` grid point.
//!
//! For each point the sweep runs every variant under [`audit_run`] (a dry
//! run — no network pricing executes — whose machines are audited
//! superstep by superstep against rules A01–A05), certifies the contract
//! shape (A06) once per family, and replays a sample of the grid through
//! the priced simulator to confirm the dry schedule is the one the
//! simulator prices.
//!
//! Grid × machine audit units and differential replays are independent,
//! so the sweep fans them across cores with
//! [`pcm_sim::map_ordered`]; results come back in input order,
//! which keeps the findings stream (and hence `AUDIT_report.json`)
//! byte-identical to the sequential sweep at any pool width. The observer
//! scopes (the dry audit scope, the trace collector) are thread-local,
//! and each unit installs and tears its own down on the worker that runs
//! it; under an enclosing scope the whole sweep runs on the caller's
//! thread.

use crate::checker::{certify_contract_shape, differential_gate, PlanAudit};
use crate::plan::audit_run;
use crate::rules::{AuditRule, Finding};
use pcm_algos::catalog::{families, Family, SEED};
use pcm_machines::Platform;
use pcm_models::DomainSpec;
use pcm_sim::map_ordered;

/// Problem sizes every family's A06 grid starts from.
pub const SHAPE_NS: [usize; 6] = [8, 16, 32, 64, 128, 256];
/// Processor counts of the symbolic A06 grid.
pub const SHAPE_PS: [usize; 4] = [16, 64, 256, 1024];

/// The problem sizes of a family's A06 grid: [`SHAPE_NS`] plus, at every
/// [`SHAPE_PS`] point, the domain's least `n` times 1, 2, 4 and 8, so
/// that each processor count the domain admits has sizes to compare
/// (no power of two is a multiple of the matmul's `q²` = 36 or 100).
pub fn shape_ns(domain: &DomainSpec) -> Vec<usize> {
    let mut ns = SHAPE_NS.to_vec();
    for p in SHAPE_PS {
        ns.extend([1, 2, 4, 8].map(|k| k * domain.least_n(p)));
    }
    ns.sort_unstable();
    ns.dedup();
    ns
}

/// Sweep configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepOptions {
    /// Restrict to the first grid point and the MasPar per family — the
    /// smoke configuration for quick local runs.
    pub fast: bool,
}

/// Sweep volume counters, for the report.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepStats {
    /// Machines audited in dry runs (one per family × machine × point ×
    /// variant), under the name the JSON report and the benchmark read.
    pub plans_audited: usize,
    /// Family × `(n, p)` grid points visited.
    pub grid_points: usize,
    /// Points replayed through the priced simulator.
    pub differential_points: usize,
    /// Contracts whose symbolic shape was certified.
    pub shape_contracts: usize,
}

/// Everything one sweep produced.
pub struct SweepOutcome {
    /// All findings, in sweep order (empty = certified clean).
    pub findings: Vec<Finding>,
    /// Volume counters.
    pub stats: SweepStats,
}

/// Audits one family × machine × `(n, p)` unit; returns the findings and
/// the number of machines audited (for the stats).
fn audit_point(family: &Family, plat: &Platform, n: usize, p: usize) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let mut machines = 0usize;
    for variant in &family.variants {
        let cx = PlanAudit {
            family: family.name,
            variant: variant.name,
            machine: plat.name(),
            n,
            p,
            word: plat.word(),
            bounds: family.bounds,
            contract: family.contract,
        };
        let (verified, run) = audit_run(cx, || (variant.run)(plat, n, SEED).verified);
        if !verified {
            findings.push(Finding {
                rule: AuditRule::MsgConservation,
                family: family.name.to_string(),
                variant: variant.name.to_string(),
                machine: plat.name().to_string(),
                n,
                p,
                step: None,
                detail: "dry run failed result verification".into(),
            });
        }
        findings.extend(run.findings);
        machines += run.machines;
    }
    (findings, machines)
}

/// Runs the sweep.
pub fn sweep(opts: SweepOptions) -> SweepOutcome {
    let mut findings = Vec::new();
    let mut stats = SweepStats::default();

    for family in families() {
        // A06: symbolic shape of the contract, once per family.
        if let Some(c) = family.contract.as_ref() {
            findings.extend(certify_contract_shape(family.name, c, &family.domain));
            stats.shape_contracts += 1;
        }

        let grid = if opts.fast {
            &family.grid[..1]
        } else {
            family.grid
        };
        let mut units: Vec<(usize, usize, Platform)> = Vec::new();
        for &(n, p) in grid {
            stats.grid_points += 1;
            let plats = Platform::all_with(p);
            let take = if opts.fast { 1 } else { plats.len() };
            for plat in plats.into_iter().take(take) {
                units.push((n, p, plat));
            }
        }
        // Fan the independent units across cores; `map_ordered` returns
        // them in input order, so the findings stream matches the
        // sequential sweep exactly.
        for (fnds, machines) in
            map_ordered(units, |_, (n, p, plat)| audit_point(&family, &plat, n, p))
        {
            findings.extend(fnds);
            stats.plans_audited += machines;
        }

        // Differential gate: replay through the priced simulator on the
        // first variant × MasPar, across the (restricted) grid.
        let variant = &family.variants[0];
        for fnds in map_ordered(grid.to_vec(), |_, (n, p)| {
            let plat = &Platform::all_with(p)[0];
            let cx = PlanAudit {
                family: family.name,
                variant: variant.name,
                machine: plat.name(),
                n,
                p,
                word: plat.word(),
                bounds: family.bounds,
                contract: family.contract,
            };
            differential_gate(&cx, &|| (variant.run)(plat, n, SEED).verified)
        }) {
            findings.extend(fnds);
            stats.differential_points += 1;
        }
    }

    SweepOutcome { findings, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_grid_has_sizes_at_every_admitted_processor_count() {
        for family in families() {
            if family.contract.is_none() {
                continue;
            }
            let domain = &family.domain;
            let ns = shape_ns(domain);
            for p in SHAPE_PS {
                if domain.check(domain.least_n(p), p).is_err() {
                    // Only parallel radix stops short of a grid point.
                    assert_eq!((family.name, p), ("parallel_radix", 1024));
                    continue;
                }
                let checked = ns.iter().filter(|&&n| domain.check(n, p).is_ok()).count();
                assert!(
                    checked >= 1,
                    "{}: A06 checks no size at p = {p}",
                    family.name
                );
                // On SHAPE_NS alone the matmul had no size at p = 256
                // (q² = 36) or p = 1024 (q² = 100).
                if family.name == "matmul" && p >= 256 {
                    assert_eq!(checked, 4, "matmul at p = {p}");
                }
            }
        }
    }
}
