//! All-pairs shortest path figures: 12 (MasPar, E-BSP), 13 (GCel,
//! multinode-scatter refinement) and 15 (CM-5, BSP accurate).

use pcm_algos::apsp::{self, ApspVariant};
use pcm_core::{Figure, Series};
use pcm_machines::Platform;
use pcm_models::predict;
use pcm_sim::map_ordered;

use crate::report::{Output, Scale};

/// Matrix sides swept by the full-scale APSP figures (12, 13, 15) on all
/// three machines: power-of-two multiples of the block grid side.
pub fn full_ns() -> Vec<usize> {
    vec![64, 128, 256, 512]
}

/// The simulated APSP times at each `N`, in input order. The sizes run
/// side by side, one machine per task, largest first: the pool hands
/// tasks out in order, so the longest run starts at once.
fn measured_series(plat: &Platform, ns: &[usize], seed: u64) -> Series {
    let mut order: Vec<usize> = (0..ns.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(ns[i]));
    let mut secs = vec![0.0; ns.len()];
    let timed = map_ordered(order, |_, i| {
        let n = ns[i];
        let r = apsp::run(plat, n, ApspVariant::Words, seed);
        assert!(r.verified, "APSP result check failed at N = {n}");
        (i, r.time.as_secs())
    });
    for (i, t) in timed {
        secs[i] = t;
    }
    Series::from_points("Measured", ns.iter().map(|&n| n as f64).zip(secs))
}

/// Fig. 12: APSP on the MasPar — MP-BSP overestimates badly (unbalanced
/// communication), E-BSP with `T_unb` lands close.
pub fn fig12(scale: Scale, seed: u64) -> Output {
    let plat = Platform::maspar();
    // On the MasPar M = N/32 must be a power of two for the doubling
    // phase, so the sweep uses power-of-two multiples of 32.
    let ns: Vec<usize> = match scale {
        Scale::Full => full_ns(),
        Scale::Quick => vec![128, 256],
    };
    let params = plat.model_params();
    let measured = measured_series(&plat, &ns, seed);
    let mp_bsp = Series::from_points(
        "Predicted (MP-BSP)",
        ns.iter()
            .map(|&n| (n as f64, predict::apsp::mp_bsp(&params, n).as_secs())),
    );
    let ebsp = Series::from_points(
        "Predicted (E-BSP)",
        ns.iter()
            .map(|&n| (n as f64, predict::apsp::ebsp(&params, n).as_secs())),
    );
    Output::Fig(
        Figure::new(
            "Fig. 12",
            "Predicted and measured execution times of APSP on the MasPar",
            "N",
            "s",
        )
        .with(measured)
        .with(mp_bsp)
        .with(ebsp),
    )
}

/// Fig. 13: APSP on the GCel — plain BSP vs the `g_mscat`-refined
/// prediction.
pub fn fig13(scale: Scale, seed: u64) -> Output {
    let plat = Platform::gcel();
    let ns: Vec<usize> = match scale {
        Scale::Full => full_ns(),
        Scale::Quick => vec![64, 128],
    };
    let params = plat.model_params();
    let measured = measured_series(&plat, &ns, seed);
    let bsp = Series::from_points(
        "Predicted (BSP)",
        ns.iter()
            .map(|&n| (n as f64, predict::apsp::bsp(&params, n).as_secs())),
    );
    let refined = Series::from_points(
        "Predicted (g_mscat refined)",
        ns.iter()
            .map(|&n| (n as f64, predict::apsp::gcel_refined(&params, n).as_secs())),
    );
    Output::Fig(
        Figure::new(
            "Fig. 13",
            "Predicted and measured execution times of APSP on the GCel",
            "N",
            "s",
        )
        .with(measured)
        .with(bsp)
        .with(refined),
    )
}

/// Fig. 15: APSP on the CM-5 — BSP predicts accurately thanks to the fat
/// tree's bisection bandwidth.
pub fn fig15(scale: Scale, seed: u64) -> Output {
    let plat = Platform::cm5();
    let ns: Vec<usize> = match scale {
        Scale::Full => full_ns(),
        Scale::Quick => vec![64, 128],
    };
    let params = plat.model_params();
    let measured = measured_series(&plat, &ns, seed);
    let bsp = Series::from_points(
        "Predicted (BSP)",
        ns.iter()
            .map(|&n| (n as f64, predict::apsp::bsp(&params, n).as_secs())),
    );
    Output::Fig(
        Figure::new(
            "Fig. 15",
            "Predicted and measured execution times of APSP on the CM-5",
            "N",
            "s",
        )
        .with(measured)
        .with(bsp),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_ebsp_beats_mp_bsp() {
        let Output::Fig(f) = fig12(Scale::Quick, 2) else {
            panic!()
        };
        let m = f.series_named("Measured").unwrap();
        let mp = f.series_named("Predicted (MP-BSP)").unwrap();
        let eb = f.series_named("Predicted (E-BSP)").unwrap();
        let mp_err = mp.max_relative_deviation(m);
        let eb_err = eb.max_relative_deviation(m);
        assert!(
            eb_err < mp_err,
            "E-BSP ({eb_err:.2}) must beat MP-BSP ({mp_err:.2})"
        );
        assert!(mp_err > 0.3, "MP-BSP should err substantially: {mp_err:.2}");
        assert!(eb_err < 0.35, "E-BSP should be close: {eb_err:.2}");
    }

    #[test]
    fn fig13_refinement_improves_gcel_prediction() {
        let Output::Fig(f) = fig13(Scale::Quick, 3) else {
            panic!()
        };
        let m = f.series_named("Measured").unwrap();
        let bsp = f.series_named("Predicted (BSP)").unwrap();
        let refined = f.series_named("Predicted (g_mscat refined)").unwrap();
        assert!(
            refined.max_relative_deviation(m) < bsp.max_relative_deviation(m),
            "the scatter refinement must improve the estimate"
        );
    }

    #[test]
    fn fig15_bsp_is_accurate_on_cm5() {
        let Output::Fig(f) = fig15(Scale::Quick, 4) else {
            panic!()
        };
        let m = f.series_named("Measured").unwrap();
        let p = f.series_named("Predicted (BSP)").unwrap();
        assert!(p.max_relative_deviation(m) < 0.25);
    }
}
