//! The full audit sweep: every `pcm_algos::catalog` family × machine ×
//! `(n, p)` grid point.
//!
//! For each point the sweep extracts the communication plan of every
//! variant with `pcm_sim::extract_plans` (a dry run — no network pricing
//! executes), certifies rules A01–A05 on it, certifies the contract shape
//! (A06) once per family, and replays a sample of the grid through the
//! priced simulator to confirm the static bounds dominate observed traces.
//!
//! Grid × machine audit units and differential replays are independent,
//! so the sweep fans them across cores with
//! [`pcm_sim::map_ordered`]; results come back in input order,
//! which keeps the findings stream (and hence `AUDIT_report.json`)
//! byte-identical to the sequential sweep at any pool width. The observer
//! scopes (plan recorder, trace collector) are thread-local, and each unit
//! installs and tears its own down on the worker that runs it; under an
//! enclosing scope the whole sweep runs on the caller's thread.

use crate::checker::{audit_plan, certify_contract_shape, differential_gate, PlanAudit};
use crate::rules::{AuditRule, Finding};
use pcm_algos::catalog::{families, Family, SEED};
use pcm_machines::Platform;
use pcm_sim::{extract_plans, map_ordered};

/// Problem sizes of the symbolic A06 grid.
pub const SHAPE_NS: [usize; 6] = [8, 16, 32, 64, 128, 256];
/// Processor counts of the symbolic A06 grid.
pub const SHAPE_PS: [usize; 4] = [16, 64, 256, 1024];

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
    /// Dry-run plans audited (one per family × machine × point × variant).
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
/// the number of plans audited (for the stats).
fn audit_point(family: &Family, plat: &Platform, n: usize, p: usize) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let mut plans_audited = 0usize;
    for variant in &family.variants {
        let cx = PlanAudit {
            family: family.name,
            variant: variant.name,
            machine: plat.name(),
            n,
            p,
            word: plat.word(),
            bounds: &family.bounds,
            contract: family.contract.as_ref(),
        };
        let (verified, plans) = extract_plans(|| (variant.run)(plat, n, SEED).verified);
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
        for plan in &plans {
            findings.extend(audit_plan(plan, &cx));
            plans_audited += 1;
        }
    }
    (findings, plans_audited)
}

/// Runs the sweep.
pub fn sweep(opts: SweepOptions) -> SweepOutcome {
    let mut findings = Vec::new();
    let mut stats = SweepStats::default();

    for family in families() {
        // A06: symbolic shape of the contract, once per family.
        if let Some(c) = family.contract.as_ref() {
            findings.extend(certify_contract_shape(
                family.name,
                c,
                &SHAPE_NS,
                &SHAPE_PS,
                family.valid,
            ));
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
        for (fnds, plans) in map_ordered(units, |_, (n, p, plat)| audit_point(&family, &plat, n, p))
        {
            findings.extend(fnds);
            stats.plans_audited += plans;
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
                bounds: &family.bounds,
                contract: family.contract.as_ref(),
            };
            differential_gate(&cx, &|| (variant.run)(plat, n, SEED).verified)
        }) {
            findings.extend(fnds);
            stats.differential_points += 1;
        }
    }

    SweepOutcome { findings, stats }
}
