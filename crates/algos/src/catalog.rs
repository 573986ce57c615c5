//! The workload catalog: every algorithm family the analyzers sweep,
//! declared once.
//!
//! The paper's evidence is one matrix — each algorithm variant × MasPar,
//! GCel and CM-5 × `(n, p)`. Each [`Family`] here names its variants and
//! what they declare: the static buffer envelope ([`AuditBounds`]), the
//! predictor's [`CostContract`] where one exists, the `(n, p)` grid, and
//! the domain the family runs on. Each [`Variant`] carries its run
//! function, the protocol [`Discipline`] it follows and the
//! happens-before [`RaceConfig`] it claims.
//!
//! Every sweep iterates this list: the `pcm-audit` static sweep visits the
//! whole grid, the sanitizer and race sweeps take each family's
//! [`Family::analyzer_grid`], and `pcm-trace` looks its replay points up
//! by `(family, variant)` name. A new family is one entry here.

use pcm_core::units::sqrt_exact;
use pcm_machines::Platform;
use pcm_models::contract;
use pcm_models::predict::matmul::q_for;
use pcm_models::CostContract;

use crate::apsp::{self, ApspVariant};
use crate::bounds::{self, AuditBounds};
use crate::discipline::{Discipline, RaceConfig};
use crate::lu::{self, LuVariant};
use crate::matmul::{self, MatmulVariant};
use crate::primitives::collectives::{self, CollState};
use crate::sort::bitonic::{self, ExchangeMode};
use crate::sort::parallel_radix::{self, RadixVariant};
use crate::sort::sample::{self, SampleVariant};
use crate::vendor;
use crate::RunResult;

/// Fixed seed for every swept run: the schedule, not the seed, is under
/// test, and a fixed seed keeps every sweep deterministic.
pub const SEED: u64 = 2026;

/// Runs one variant at `(platform, n, seed)`.
pub type RunFn = fn(&Platform, usize, u64) -> RunResult;

/// One runnable schedule of a family.
pub struct Variant {
    /// Variant name, as reports and test labels spell it.
    pub name: &'static str,
    /// Executes the variant and verifies it against its sequential
    /// reference.
    pub run: RunFn,
    /// The message protocol the variant follows (checked by `pcm-check`).
    pub discipline: Discipline,
    /// The happens-before guarantees it claims (checked by `pcm-race`).
    pub race: RaceConfig,
}

/// One algorithm family.
pub struct Family {
    /// Family name, matching [`AuditBounds::family`].
    pub name: &'static str,
    /// Declared static buffer envelope.
    pub bounds: AuditBounds,
    /// Cost contract, when a predictor ships one (the vendor kernels and
    /// the standalone collectives have none).
    pub contract: Option<CostContract>,
    /// `(n, p)` sweep grid, cheapest point first. Every `p` is valid on
    /// all three machines.
    pub grid: &'static [(usize, usize)],
    /// The `(n, p)` points the family can run on.
    pub valid: fn(n: usize, p: usize) -> bool,
    /// Runnable schedules.
    pub variants: Vec<Variant>,
}

/// How many of each family's grid points the runtime analyzers (sanitizer
/// and race sweeps) replay: the cheapest ones.
const ANALYZER_POINTS: usize = 2;

impl Family {
    /// The grid points the runtime analyzers sweep: the first two of
    /// [`Family::grid`].
    pub fn analyzer_grid(&self) -> &'static [(usize, usize)] {
        &self.grid[..self.grid.len().min(ANALYZER_POINTS)]
    }

    /// The variant called `name`.
    pub fn variant(&self, name: &str) -> Option<&Variant> {
        self.variants.iter().find(|v| v.name == name)
    }
}

/// The family called `name`.
pub fn family(name: &str) -> Option<Family> {
    families().into_iter().find(|f| f.name == name)
}

fn coll_machine(plat: &Platform, data: Vec<Vec<u32>>, seed: u64) -> pcm_sim::Machine<CollState> {
    collectives::machine_with(plat, data, seed)
}

/// A standalone collective's result: the machine's clock and breakdown,
/// and whether every processor ended with the expected output.
fn coll_result(m: &pcm_sim::Machine<CollState>, verified: bool) -> RunResult {
    RunResult::new(m.time(), m.breakdown(), verified)
}

/// Valid for square processor grids that tile `n` exactly (APSP and LU).
fn square_blocked(n: usize, p: usize) -> bool {
    let side = p.isqrt();
    side * side == p && side > 0 && n.is_multiple_of(side)
}

/// The whole catalog, one entry per algorithm family.
#[allow(clippy::cast_possible_truncation)] // grid sizes fit in u32
pub fn families() -> Vec<Family> {
    vec![
        Family {
            name: "matmul",
            bounds: bounds::matmul(),
            contract: Some(contract::matmul()),
            grid: &[(8, 16), (16, 64), (32, 64)],
            valid: |n, p| {
                let q = q_for(p);
                q > 0 && n % (q * q) == 0
            },
            // Every slab gather has q sources per (dst, tag) cell, folded
            // by sender coordinate: declared fan-in, tag-separated streams.
            variants: vec![
                Variant {
                    name: "BspNaive",
                    run: |plat, n, seed| matmul::run(plat, n, MatmulVariant::BspNaive, seed),
                    // The naive schedule contends by design (Fig. 4): R04 off.
                    discipline: Discipline::bsp_words(),
                    race: RaceConfig::queued_tagged(),
                },
                Variant {
                    name: "BspStaggered",
                    run: |plat, n, seed| matmul::run(plat, n, MatmulVariant::BspStaggered, seed),
                    discipline: Discipline::mp_bsp(),
                    race: RaceConfig::queued_tagged(),
                },
                Variant {
                    name: "Bpram",
                    run: |plat, n, seed| matmul::run(plat, n, MatmulVariant::Bpram, seed),
                    discipline: Discipline::bpram(),
                    race: RaceConfig::queued_tagged(),
                },
            ],
        },
        Family {
            name: "bitonic",
            bounds: bounds::bitonic(),
            contract: Some(contract::bitonic()),
            grid: &[(16, 16), (24, 64), (16, 256)],
            valid: |_n, p| p.is_power_of_two(),
            // One partner per exchange step: the strictest race config.
            variants: vec![
                Variant {
                    name: "Words",
                    run: |plat, m, seed| bitonic::run(plat, m, ExchangeMode::Words, seed),
                    discipline: Discipline::mp_bsp(),
                    race: RaceConfig::exclusive(),
                },
                Variant {
                    name: "WordsResync8",
                    run: |plat, m, seed| {
                        bitonic::run(plat, m, ExchangeMode::WordsResync { interval: 8 }, seed)
                    },
                    discipline: Discipline::mp_bsp(),
                    race: RaceConfig::exclusive(),
                },
                Variant {
                    name: "Packets16",
                    run: |plat, m, seed| {
                        bitonic::run(plat, m, ExchangeMode::Packets { bytes: 16 }, seed)
                    },
                    discipline: Discipline::mp_bsp(),
                    race: RaceConfig::exclusive(),
                },
                Variant {
                    name: "Block",
                    run: |plat, m, seed| bitonic::run(plat, m, ExchangeMode::Block, seed),
                    discipline: Discipline::bpram(),
                    race: RaceConfig::exclusive(),
                },
            ],
        },
        Family {
            name: "samplesort",
            bounds: bounds::samplesort(),
            contract: Some(contract::samplesort()),
            grid: &[(16, 16), (24, 64), (16, 256)],
            valid: |_n, p| p.is_power_of_two(),
            // Bucket routing fans keys from every source into each
            // destination and the receiver folds the queue
            // order-insensitively: the queued race config.
            variants: vec![
                Variant {
                    name: "BspWords",
                    run: |plat, m, seed| sample::run(plat, m, 2, SampleVariant::BspWords, seed),
                    // Bucket routing slices are data-dependent: senders
                    // cannot align their word rounds, so contention is
                    // priced, not flagged.
                    discipline: Discipline::bsp_words(),
                    race: RaceConfig::queued(),
                },
                Variant {
                    name: "Bpram",
                    run: |plat, m, seed| sample::run(plat, m, 2, SampleVariant::Bpram, seed),
                    // The padded schedule keeps every phase single-port.
                    discipline: Discipline::bpram(),
                    race: RaceConfig::queued(),
                },
                Variant {
                    name: "BpramStaggered",
                    run: |plat, m, seed| {
                        sample::run(plat, m, 2, SampleVariant::BpramStaggered, seed)
                    },
                    // The unpadded schedule skips empty slices, which
                    // shifts later blocks into earlier rounds: single-port
                    // is deliberately bent.
                    discipline: Discipline::blocks_relaxed(),
                    race: RaceConfig::queued(),
                },
            ],
        },
        Family {
            name: "parallel_radix",
            bounds: bounds::parallel_radix(),
            contract: Some(contract::parallel_radix()),
            grid: &[(32, 16), (16, 64), (16, 256)],
            valid: |_n, p| p.is_power_of_two() && p <= 256,
            // Routing slice lengths are data-dependent in both variants,
            // and count slices from every processor fan into each bucket
            // manager on one tag.
            variants: vec![
                Variant {
                    name: "Words",
                    run: |plat, m, seed| parallel_radix::run(plat, m, RadixVariant::Words, seed),
                    discipline: Discipline::bsp_words(),
                    race: RaceConfig::queued_tagged(),
                },
                Variant {
                    name: "Blocks",
                    run: |plat, m, seed| parallel_radix::run(plat, m, RadixVariant::Blocks, seed),
                    discipline: Discipline::blocks_relaxed(),
                    race: RaceConfig::queued_tagged(),
                },
            ],
        },
        Family {
            name: "apsp",
            bounds: bounds::apsp(),
            contract: Some(contract::apsp()),
            grid: &[(8, 16), (16, 64), (16, 256)],
            valid: square_blocked,
            // Row and column broadcasts overlap in the same superstep, so
            // a processor can receive both streams at once: a priced
            // 2-relation. Single writer per cell, but piece tags
            // (`2·idx+axis`) are decoded by the receiver from an untagged
            // read.
            variants: vec![
                Variant {
                    name: "Words",
                    run: |plat, n, seed| apsp::run(plat, n, ApspVariant::Words, seed),
                    discipline: Discipline::bsp_words(),
                    race: RaceConfig::exclusive_dispatch(),
                },
                Variant {
                    name: "Blocks",
                    run: |plat, n, seed| apsp::run(plat, n, ApspVariant::Blocks, seed),
                    discipline: Discipline::blocks_relaxed(),
                    race: RaceConfig::exclusive_dispatch(),
                },
            ],
        },
        Family {
            name: "lu",
            bounds: bounds::lu(),
            contract: Some(contract::lu()),
            grid: &[(8, 16), (16, 64), (16, 256)],
            valid: square_blocked,
            // Same overlap as APSP: L-row and U-column broadcasts share
            // steps. Pivot, L-panel and U-panel travel on distinct tags
            // with one owner each, read through `msgs_tagged` filters.
            variants: vec![
                Variant {
                    name: "Words",
                    run: |plat, n, seed| lu::run(plat, n, LuVariant::Words, seed),
                    discipline: Discipline::bsp_words(),
                    race: RaceConfig::exclusive(),
                },
                Variant {
                    name: "Blocks",
                    run: |plat, n, seed| lu::run(plat, n, LuVariant::Blocks, seed),
                    discipline: Discipline::blocks_relaxed(),
                    race: RaceConfig::exclusive(),
                },
            ],
        },
        Family {
            name: "vendor",
            bounds: bounds::vendor(),
            contract: None,
            grid: &[(8, 16), (16, 64)],
            // Cannon and SUMMA lay processors out on a square grid and pad
            // blocks, so any `n` runs.
            valid: |_n, p| sqrt_exact(p).is_some(),
            // Cannon/SUMMA shift at most one A and one B panel per step,
            // read through per-tag filters.
            variants: vec![
                Variant {
                    name: "maspar_matmul",
                    run: vendor::maspar_matmul,
                    discipline: Discipline::xnet_grid(),
                    race: RaceConfig::exclusive(),
                },
                Variant {
                    name: "cmssl_matmul",
                    run: vendor::cmssl_matmul,
                    // SUMMA broadcasts are deliberately unstaggered blocks.
                    discipline: Discipline::blocks_relaxed(),
                    race: RaceConfig::exclusive(),
                },
            ],
        },
        Family {
            name: "collectives",
            bounds: bounds::collectives(),
            contract: None,
            grid: &[(16, 16), (32, 64)],
            // The collectives run on any machine size; all-gather numbers
            // its `n·p` words in `u32`.
            valid: |n, p| p > 0 && u32::try_from(n * p).is_ok(),
            variants: vec![
                Variant {
                    name: "broadcast",
                    run: |plat, n, seed| {
                        let p = plat.p();
                        let mut data = vec![Vec::new(); p];
                        data[0] = (0..n as u32).collect();
                        let expect = data[0].clone();
                        let mut m = coll_machine(plat, data, seed);
                        collectives::broadcast(&mut m, 0);
                        let ok = m.states().iter().all(|s| s.out == expect);
                        coll_result(&m, ok)
                    },
                    // Scatter and re-broadcast walk staggered targets:
                    // every word round is a permutation.
                    discipline: Discipline::mp_bsp(),
                    // Re-broadcast pid-tagged pieces that the assembly
                    // step decodes from an untagged read.
                    race: RaceConfig::exclusive_dispatch(),
                },
                Variant {
                    name: "all_gather",
                    run: |plat, n, seed| {
                        let p = plat.p();
                        let data: Vec<Vec<u32>> = (0..p)
                            .map(|i| {
                                let base = (i * n) as u32;
                                (base..base + n as u32).collect()
                            })
                            .collect();
                        let expect: Vec<u32> = (0..(p * n) as u32).collect();
                        let mut m = coll_machine(plat, data, seed);
                        collectives::all_gather(&mut m);
                        let ok = m.states().iter().all(|s| s.out == expect);
                        coll_result(&m, ok)
                    },
                    discipline: Discipline::mp_bsp(),
                    race: RaceConfig::exclusive_dispatch(),
                },
                Variant {
                    name: "multi_scan",
                    run: |plat, _n, seed| {
                        let p = plat.p();
                        let data = vec![vec![1u32; p]; p];
                        let mut m = coll_machine(plat, data, seed);
                        collectives::multi_scan(&mut m);
                        let ok = m
                            .states()
                            .iter()
                            .enumerate()
                            .all(|(i, s)| s.out == vec![i as u32; p]);
                        coll_result(&m, ok)
                    },
                    discipline: Discipline::mp_bsp(),
                    // Funnels untagged count words from every source into
                    // each component owner.
                    race: RaceConfig::queued(),
                },
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_totals_are_pinned() {
        let fams = families();
        let variants: usize = fams.iter().map(|f| f.variants.len()).sum();
        let points: usize = fams.iter().map(|f| f.grid.len()).sum();
        assert_eq!((fams.len(), variants, points), (8, 21, 22));
    }

    #[test]
    fn families_are_unique_and_runnable() {
        let fams = families();
        for (i, f) in fams.iter().enumerate() {
            assert!(!f.variants.is_empty() && !f.grid.is_empty());
            assert!(
                fams[..i].iter().all(|g| g.name != f.name),
                "{} twice",
                f.name
            );
            assert!(family(f.name).is_some());
        }
    }

    #[test]
    fn contracts_cover_exactly_the_predictor_families() {
        let with: Vec<&str> = families()
            .iter()
            .filter(|f| f.contract.is_some())
            .map(|f| f.name)
            .collect();
        let predictors: Vec<&str> = contract::all().iter().map(|c| c.algorithm).collect();
        assert_eq!(
            with,
            [
                "matmul",
                "bitonic",
                "samplesort",
                "parallel_radix",
                "apsp",
                "lu"
            ]
        );
        assert!(with.iter().all(|f| predictors.contains(f)));
    }

    #[test]
    fn grids_satisfy_each_family_validity_predicate() {
        for f in families() {
            for &(n, p) in f.grid {
                assert!((f.valid)(n, p), "{}: invalid grid point ({n}, {p})", f.name);
            }
            assert!(
                f.grid.windows(2).all(|w| w[0].1 <= w[1].1),
                "{}: grid not ordered by p",
                f.name
            );
        }
    }

    #[test]
    fn analyzer_grids_take_the_two_cheapest_points() {
        for f in families() {
            assert_eq!(f.analyzer_grid(), &f.grid[..2], "{}", f.name);
        }
    }
}
