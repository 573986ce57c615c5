//! The catalog-driven sweep harness shared by `tests/sanitizer.rs` and
//! `tests/race.rs`: one test per `pcm_algos::catalog` family, each running
//! every variant on the three machines over the family's analyzer grid.

use pcm::algos::catalog::{self, Family, Variant, SEED};
use pcm::algos::RunResult;
use pcm::Platform;

/// Checks one sweep point: `(label, family, variant, n, p, run)`.
pub type PointCheck = fn(&str, &Family, &Variant, usize, usize, &dyn Fn() -> RunResult);

/// Points one family contributes: its analyzer grid × the three machines
/// × its variants.
pub fn expected_points(family: &Family) -> usize {
    family.analyzer_grid().len() * 3 * family.variants.len()
}

/// Runs `check` on every variant × machine × analyzer grid point of the
/// catalog family `name`, and fails if it ran fewer points than the
/// catalog declares.
pub fn sweep_family(name: &str, check: PointCheck) {
    let family = catalog::family(name).expect("swept family is in the catalog");
    let mut points = 0;
    for &(n, p) in family.analyzer_grid() {
        for plat in Platform::all_with(p) {
            for v in &family.variants {
                let label = format!("{name} {} n={n} on {} p={p}", v.name, plat.name());
                check(&label, &family, v, n, p, &|| (v.run)(&plat, n, SEED));
                points += 1;
            }
        }
    }
    assert_eq!(
        points,
        expected_points(&family),
        "{name}: sweep skipped points"
    );
}

/// Fails unless `swept` names every catalog family in catalog order, and
/// pins the sweep's total point count.
pub fn assert_covers_catalog(swept: &[&str]) {
    let families = catalog::families();
    let names: Vec<&str> = families.iter().map(|f| f.name).collect();
    assert_eq!(
        swept,
        names.as_slice(),
        "a catalog family has no sweep test"
    );
    let points: usize = families.iter().map(expected_points).sum();
    assert_eq!(points, 126);
}

/// Defines one `sweep_<family>` test per catalog family, all running
/// `$check`, plus `sweeps_cover_the_catalog`.
macro_rules! catalog_sweeps {
    ($check:path) => {
        catalog_sweeps!($check;
            sweep_matmul => "matmul",
            sweep_bitonic => "bitonic",
            sweep_samplesort => "samplesort",
            sweep_parallel_radix => "parallel_radix",
            sweep_apsp => "apsp",
            sweep_lu => "lu",
            sweep_vendor => "vendor",
            sweep_collectives => "collectives",
        );
    };
    ($check:path; $($test:ident => $family:literal),* $(,)?) => {
        $(#[test]
        fn $test() {
            common::sweep_family($family, $check);
        })*

        #[test]
        fn sweeps_cover_the_catalog() {
            common::assert_covers_catalog(&[$($family),*]);
        }
    };
}
