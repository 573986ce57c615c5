//! The workload catalog: every algorithm family the analyzers sweep,
//! declared once.
//!
//! The paper's evidence is one matrix — each algorithm variant × MasPar,
//! GCel and CM-5 × `(n, p)`. Each [`Family`] here names its variants and
//! what they declare: the static buffer envelope ([`AuditBounds`]), the
//! predictor's [`CostContract`] where one exists, the `(n, p)` grid, and
//! the [`DomainSpec`] the family runs on (for a predictor family, the one
//! its closed forms and run function use). Each [`Variant`] carries its run
//! function, the protocol [`Discipline`] it follows and the
//! happens-before [`RaceConfig`] it claims.
//!
//! Every sweep iterates this list: the `pcm-audit` static sweep visits the
//! whole grid, the sanitizer sweep takes each family's
//! [`Family::analyzer_grid`], and `pcm-trace` looks its replay points up
//! by `(family, variant)` name. A new family is one entry here.

use pcm_machines::Platform;
use pcm_models::contract;
use pcm_models::{CostContract, DomainSpec};

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
    /// `(n, p)` sweep grid, cheapest point first. Every `p` builds all
    /// three machines.
    pub grid: &'static [(usize, usize)],
    /// The `(n, p)` points the family runs on.
    pub domain: DomainSpec,
    /// Runnable schedules.
    pub variants: Vec<Variant>,
}

/// How many of each family's grid points the runtime analyzers (the
/// sanitizer sweep's protocol, race and determinism checks) replay: the
/// cheapest ones.
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

/// The collectives run on any machine size and any `n ≥ 1`.
const COLLECTIVES: DomainSpec = DomainSpec::any();

/// A collectives machine for a run at size `n`, after the entry check.
fn coll_machine(
    plat: &Platform,
    n: usize,
    data: Vec<Vec<u32>>,
    seed: u64,
) -> pcm_sim::Machine<CollState> {
    COLLECTIVES.require("collectives", n, plat.p());
    collectives::machine_with(plat, data, seed)
}

/// A standalone collective's result: the machine's clock and breakdown,
/// and whether every processor ended with the expected output.
fn coll_result(m: &pcm_sim::Machine<CollState>, verified: bool) -> RunResult {
    RunResult::new(m.time(), m.breakdown(), verified)
}

/// The whole catalog, one entry per algorithm family.
pub fn families() -> Vec<Family> {
    vec![
        Family {
            name: "matmul",
            bounds: bounds::matmul(),
            contract: Some(contract::matmul()),
            grid: &[(8, 16), (16, 64), (32, 64)],
            domain: DomainSpec::matmul(),
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
            domain: DomainSpec::bitonic(),
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
            domain: DomainSpec::samplesort(),
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
            domain: DomainSpec::parallel_radix(),
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
            domain: DomainSpec::apsp(),
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
            domain: DomainSpec::lu(),
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
            domain: vendor::DOMAIN,
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
            domain: COLLECTIVES,
            variants: vec![
                Variant {
                    name: "broadcast",
                    run: |plat, n, seed| {
                        let p = plat.p();
                        let words = u32::try_from(n).expect("broadcast numbers its n words in u32");
                        let mut data = vec![Vec::new(); p];
                        data[0] = (0..words).collect();
                        let expect = data[0].clone();
                        let mut m = coll_machine(plat, n, data, seed);
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
                        let words =
                            u32::try_from(p * n).expect("all_gather numbers its n·p words in u32");
                        let expect: Vec<u32> = (0..words).collect();
                        let data = (0..p)
                            .map(|i| expect[i * n..(i + 1) * n].to_vec())
                            .collect();
                        let mut m = coll_machine(plat, n, data, seed);
                        collectives::all_gather(&mut m);
                        let ok = m.states().iter().all(|s| s.out == expect);
                        coll_result(&m, ok)
                    },
                    discipline: Discipline::mp_bsp(),
                    race: RaceConfig::exclusive_dispatch(),
                },
                Variant {
                    name: "multi_scan",
                    run: |plat, n, seed| {
                        let p = plat.p();
                        let data = vec![vec![1u32; p]; p];
                        let mut m = coll_machine(plat, n, data, seed);
                        collectives::multi_scan(&mut m);
                        let ok = (0u32..).zip(m.states()).all(|(i, s)| s.out == vec![i; p]);
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
        // One contract per predictor module, and the two sets are equal:
        // every family with a contract has a predictor, and every
        // predictor's contract is some family's.
        assert_eq!(predictors.len(), 6, "one contract per predict/* module");
        assert!(with.iter().all(|f| predictors.contains(f)));
        assert!(
            predictors.iter().all(|p| with.contains(p)),
            "a predictor contract names no catalog family: {predictors:?}"
        );
    }

    /// No contract prices xnet traffic, so the protocol checker's R03
    /// must reject it in every variant a contract covers.
    #[test]
    fn contract_families_forbid_xnet() {
        for f in families().iter().filter(|f| f.contract.is_some()) {
            for v in &f.variants {
                assert!(
                    !v.discipline.allow_xnet,
                    "{} {}: discipline '{}' admits xnet",
                    f.name, v.name, v.discipline.name
                );
            }
        }
    }

    #[test]
    fn grids_satisfy_each_family_validity_predicate() {
        for f in families() {
            for &(n, p) in f.grid {
                if let Err(v) = f.domain.check(n, p) {
                    panic!("{}: grid point ({n}, {p}) outside the domain: {v}", f.name);
                }
            }
            assert!(
                f.grid.windows(2).all(|w| w[0].1 <= w[1].1),
                "{}: grid not ordered by p",
                f.name
            );
        }
    }

    #[test]
    fn every_variant_runs_wherever_its_family_is_valid() {
        // Off-grid processor counts, square and not, down to one
        // processor: wherever the domain admits a point at the family's
        // first grid `n`, every variant must run there and verify.
        for f in families() {
            let n = f.grid[0].0;
            for p in [1, 2, 4, 8, 32, 64, 128] {
                if f.domain.check(n, p).is_err() {
                    continue;
                }
                let mut plats = vec![Platform::cm5_with(p)];
                if p >= 16 {
                    plats.push(Platform::maspar_with(p));
                }
                for plat in plats {
                    for v in &f.variants {
                        let r = (v.run)(&plat, n, SEED);
                        assert!(
                            r.verified,
                            "{}/{} failed at n = {n} on {} p = {p}",
                            f.name,
                            v.name,
                            plat.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_variant_refuses_a_point_just_outside_its_domain() {
        // One point per family just across an edge of its domain: every
        // variant's entry point must panic with the violation's text.
        let outside = [
            ("matmul", 9, 16),           // q² = 4 does not divide n
            ("bitonic", 16, 24),         // p is not a power of two
            ("samplesort", 16, 32),      // a power of two, not a square
            ("parallel_radix", 16, 512), // more processors than buckets
            ("apsp", 9, 16),             // sqrt(p) = 4 does not divide n
            ("lu", 9, 16),
            ("vendor", 8, 32), // p is not a square
            ("collectives", 0, 16),
        ];
        assert_eq!(outside.len(), families().len());
        for (name, n, p) in outside {
            let f = family(name).expect("catalog family");
            let violation = f.domain.check(n, p).expect_err("point lies outside");
            let plat = Platform::cm5_with(p);
            for v in &f.variants {
                let run = std::panic::AssertUnwindSafe(|| (v.run)(&plat, n, SEED));
                let payload = std::panic::catch_unwind(run).expect_err("ran outside its domain");
                let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
                assert!(
                    msg.contains(&violation.to_string()),
                    "{name}/{} at ({n}, {p}) panicked with {msg:?}, not with \"{violation}\"",
                    v.name
                );
            }
        }
    }

    #[test]
    fn analyzer_grids_take_the_two_cheapest_points() {
        for f in families() {
            assert_eq!(f.analyzer_grid(), &f.grid[..2], "{}", f.name);
        }
    }
}
