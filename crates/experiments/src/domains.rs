//! The parameter grids the figure drivers sweep, in machine-checkable form.
//!
//! Every figure iterates some `(machine, family, n)` grid that must lie in
//! its family's domain (divisibility by the block side, power-of-two
//! processor counts, ...). [`grids`] restates those sweeps as data so the
//! `pcm-sym` verifier's S02 rule can check each grid point against the
//! family's [`pcm_models::DomainSpec`], which its run function also
//! checks at entry.

use pcm_machines::Platform;

use crate::report::Scale;
use crate::{apsp_figs, matmul_figs, sort_figs};

/// One figure's sweep: which algorithm family runs on which machine at
/// which problem sizes.
#[derive(Clone, Debug)]
pub struct GridSpec {
    /// Figure label ("Fig. 3", ...).
    pub figure: &'static str,
    /// Algorithm family name matching [`pcm_models::ClosedForm::family`]
    /// ("matmul", "bitonic", "samplesort", "apsp").
    pub family: &'static str,
    /// Machine name ("MasPar", "GCel", "CM-5").
    pub machine: &'static str,
    /// Processor count the figure runs with.
    pub p: usize,
    /// Problem sizes swept at full (paper) scale: matrix side N for
    /// matmul/APSP, keys per processor M for the sorts.
    pub ns: Vec<usize>,
}

fn spec(figure: &'static str, family: &'static str, plat: &Platform, ns: Vec<usize>) -> GridSpec {
    GridSpec {
        figure,
        family,
        machine: plat.name(),
        p: plat.p(),
        ns,
    }
}

/// Every full-scale figure sweep that exercises a family with a closed-form
/// predictor, one entry per figure.
pub fn grids() -> Vec<GridSpec> {
    let maspar = Platform::maspar();
    let gcel = Platform::gcel();
    let cm5 = Platform::cm5();
    let s = Scale::Full;
    vec![
        spec("Fig. 3", "matmul", &maspar, matmul_figs::maspar_ns(s)),
        spec("Fig. 4", "matmul", &cm5, matmul_figs::cm5_ns(s)),
        spec("Fig. 8", "matmul", &maspar, matmul_figs::maspar_ns(s)),
        spec("Fig. 9", "matmul", &cm5, matmul_figs::cm5_ns(s)),
        spec("Fig. 16", "matmul", &cm5, matmul_figs::cm5_ns(s)),
        spec("Fig. 19", "matmul", &maspar, matmul_figs::maspar_ns(s)),
        spec("Fig. 20", "matmul", &cm5, matmul_figs::cm5_ns(s)),
        spec("Fig. 5", "bitonic", &maspar, sort_figs::maspar_ms(s)),
        spec("Fig. 6", "bitonic", &gcel, sort_figs::gcel_ms(s)),
        spec("Fig. 10", "bitonic", &maspar, sort_figs::maspar_ms(s)),
        spec("Fig. 11", "bitonic", &gcel, sort_figs::gcel_ms(s)),
        spec("Fig. 17", "bitonic", &maspar, sort_figs::maspar_ms(s)),
        spec("Fig. 18", "bitonic", &gcel, sort_figs::fig18_ms(s)),
        spec("Fig. 18", "samplesort", &gcel, sort_figs::fig18_ms(s)),
        spec("Fig. 12", "apsp", &maspar, apsp_figs::full_ns()),
        spec("Fig. 13", "apsp", &gcel, apsp_figs::full_ns()),
        spec("Fig. 15", "apsp", &cm5, apsp_figs::full_ns()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_cover_all_machines_and_families() {
        let gs = grids();
        for machine in ["MasPar", "GCel", "CM-5"] {
            assert!(gs.iter().any(|g| g.machine == machine));
        }
        for family in ["matmul", "bitonic", "samplesort", "apsp"] {
            assert!(gs.iter().any(|g| g.family == family));
        }
    }
}
