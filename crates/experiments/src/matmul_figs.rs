//! Matrix-multiplication figures: 3, 4, 8, 9 (evaluation), 16
//! (model comparison), 19 and 20 (vendor-library comparison).

use pcm_algos::matmul::MatmulVariant;
use pcm_core::{Figure, Series};
use pcm_machines::Platform;
use pcm_models::predict;
use pcm_sim::ComputeModel as _;

use crate::report::{Output, Scale};
use crate::runs::{sweep, Algo};

/// Matrix sides swept by the MasPar matmul figures (3, 8, 19).
/// q = 10 on the MasPar: N must be a multiple of 100.
pub fn maspar_ns(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => vec![100, 200, 300, 400, 500, 600, 700],
        Scale::Quick => vec![100, 300],
    }
}

/// Matrix sides swept by the CM-5 matmul figures (4, 9, 16, 20).
/// q = 4 on the CM-5: N must be a multiple of 16.
pub fn cm5_ns(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => vec![64, 128, 256, 512, 1024],
        Scale::Quick => vec![64, 128, 256],
    }
}

/// Fig. 3: measured vs predicted MP-BSP matmul on the MasPar.
pub fn fig03(scale: Scale, seed: u64) -> Output {
    let plat = Platform::maspar();
    let ns = maspar_ns(scale);
    let mut measured = Series::new("Measured");
    let mut predicted = Series::new("Predicted (MP-BSP)");
    let runs = sweep(plat, &ns, [Algo::Matmul(MatmulVariant::BspStaggered)], seed);
    for (&n, [r]) in ns.iter().zip(runs) {
        measured.push(pcm_core::DataPoint::new(n as f64, r.time.as_secs()));
        predicted.push(pcm_core::DataPoint::new(
            n as f64,
            predict::eval(predict::matmul::mp_bsp, &plat.model_params(), n).as_secs(),
        ));
    }
    Output::Fig(
        Figure::new(
            "Fig. 3",
            "Measured and predicted MP-BSP matrix multiplication on the MasPar",
            "N",
            "s",
        )
        .with(measured)
        .with(predicted),
    )
}

/// Fig. 4: naive vs staggered vs predicted BSP matmul on the CM-5 — the
/// receiver-contention error.
pub fn fig04(scale: Scale, seed: u64) -> Output {
    let plat = Platform::cm5();
    let ns = cm5_ns(scale);
    let mut naive = Series::new("Measured (naive)");
    let mut staggered = Series::new("Staggered");
    let mut predicted = Series::new("Predicted (BSP)");
    let algos = [MatmulVariant::BspNaive, MatmulVariant::BspStaggered].map(Algo::Matmul);
    for (&n, [rn, rs]) in ns.iter().zip(sweep(plat, &ns, algos, seed)) {
        naive.push(pcm_core::DataPoint::new(n as f64, rn.time.as_millis()));
        staggered.push(pcm_core::DataPoint::new(n as f64, rs.time.as_millis()));
        predicted.push(pcm_core::DataPoint::new(
            n as f64,
            predict::eval(predict::matmul::bsp, &plat.model_params(), n).as_millis(),
        ));
    }
    Output::Fig(
        Figure::new(
            "Fig. 4",
            "Measured and predicted BSP matrix multiplication on the CM-5",
            "N",
            "ms",
        )
        .with(naive)
        .with(staggered)
        .with(predicted),
    )
}

/// Fig. 8: measured vs predicted MP-BPRAM matmul on the MasPar.
pub fn fig08(scale: Scale, seed: u64) -> Output {
    let plat = Platform::maspar();
    let ns = maspar_ns(scale);
    let mut measured = Series::new("Measured");
    let mut predicted = Series::new("Predicted (MP-BPRAM)");
    let runs = sweep(plat, &ns, [Algo::Matmul(MatmulVariant::Bpram)], seed);
    for (&n, [r]) in ns.iter().zip(runs) {
        measured.push(pcm_core::DataPoint::new(n as f64, r.time.as_secs()));
        predicted.push(pcm_core::DataPoint::new(
            n as f64,
            predict::eval(predict::matmul::bpram, &plat.model_params(), n).as_secs(),
        ));
    }
    Output::Fig(
        Figure::new(
            "Fig. 8",
            "Measured and predicted MP-BPRAM matrix multiplication on the MasPar",
            "N",
            "s",
        )
        .with(measured)
        .with(predicted),
    )
}

/// Fig. 9: measured vs predicted MP-BPRAM matmul on the CM-5, with both
/// the nominal `alpha = 0.29` prediction and the cache-aware one.
pub fn fig09(scale: Scale, seed: u64) -> Output {
    let plat = Platform::cm5();
    let ns = cm5_ns(scale);
    let mut measured = Series::new("Measured");
    let mut predicted = Series::new("Predicted (alpha = 0.29)");
    let mut cache_aware = Series::new("Predicted (measured kernel)");
    let runs = sweep(plat, &ns, [Algo::Matmul(MatmulVariant::Bpram)], seed);
    for (&n, [r]) in ns.iter().zip(runs) {
        measured.push(pcm_core::DataPoint::new(n as f64, r.time.as_millis()));
        let params = plat.model_params();
        predicted.push(pcm_core::DataPoint::new(
            n as f64,
            predict::eval(predict::matmul::bpram, &params, n).as_millis(),
        ));
        // Replace alpha with the kernel model's effective rate at the
        // local block shape — "provided that the local computations are
        // precisely modeled".
        let q = predict::matmul::q_for(plat.p());
        let mut precise = params.clone();
        precise.alpha_mm = pcm_machines::Cm5Compute::new().matmul_op_time(n / q, n / q, n / q);
        cache_aware.push(pcm_core::DataPoint::new(
            n as f64,
            predict::eval(predict::matmul::bpram, &precise, n).as_millis(),
        ));
    }
    Output::Fig(
        Figure::new(
            "Fig. 9",
            "Measured and predicted MP-BPRAM matrix multiplication on the CM-5",
            "N",
            "ms",
        )
        .with(measured)
        .with(predicted)
        .with(cache_aware),
    )
}

/// Fig. 16: Mflops of the staggered BSP vs MP-BPRAM variants on the CM-5.
pub fn fig16(scale: Scale, seed: u64) -> Output {
    let plat = Platform::cm5();
    let ns = cm5_ns(scale);
    let mut bsp = Series::new("BSP (staggered, short messages)");
    let mut bpram = Series::new("MP-BPRAM (block transfers)");
    let algos = [MatmulVariant::BspStaggered, MatmulVariant::Bpram].map(Algo::Matmul);
    for (&n, [rs, rb]) in ns.iter().zip(sweep(plat, &ns, algos, seed)) {
        bsp.push(pcm_core::DataPoint::new(n as f64, rs.stats.mflops));
        bpram.push(pcm_core::DataPoint::new(n as f64, rb.stats.mflops));
    }
    Output::Fig(
        Figure::new(
            "Fig. 16",
            "BSP vs MP-BPRAM matrix multiplication on the CM-5",
            "N",
            "Mflops",
        )
        .with(bsp)
        .with(bpram),
    )
}

/// Fig. 19: model-derived matmuls vs the `matmul` intrinsic analogue
/// (Cannon on the xnet) on the MasPar, in Mflops.
pub fn fig19(scale: Scale, seed: u64) -> Output {
    let plat = Platform::maspar();
    let ns = maspar_ns(scale);
    let mut mp_bsp = Series::new("MP-BSP (words)");
    let mut bpram = Series::new("MP-BPRAM (blocks)");
    let mut intrinsic = Series::new("matmul intrinsic (xnet Cannon)");
    let algos = [
        Algo::Matmul(MatmulVariant::BspStaggered),
        Algo::Matmul(MatmulVariant::Bpram),
        Algo::MplMatmul,
    ];
    for (&n, [rw, rb, ri]) in ns.iter().zip(sweep(plat, &ns, algos, seed)) {
        mp_bsp.push(pcm_core::DataPoint::new(n as f64, rw.stats.mflops));
        bpram.push(pcm_core::DataPoint::new(n as f64, rb.stats.mflops));
        intrinsic.push(pcm_core::DataPoint::new(n as f64, ri.stats.mflops));
    }
    Output::Fig(
        Figure::new(
            "Fig. 19",
            "Model-derived matrix multiplications vs the matmul intrinsic on the MasPar",
            "N",
            "Mflops",
        )
        .with(mp_bsp)
        .with(bpram)
        .with(intrinsic),
    )
}

/// Fig. 20: model-derived matmuls vs the CMSSL `gen_matrix_mult` analogue
/// on the CM-5, in Mflops.
pub fn fig20(scale: Scale, seed: u64) -> Output {
    let plat = Platform::cm5();
    let ns = cm5_ns(scale);
    let mut bsp = Series::new("BSP (staggered)");
    let mut bpram = Series::new("MP-BPRAM");
    let mut cmssl = Series::new("gen_matrix_mult (CMSSL)");
    let algos = [
        Algo::Matmul(MatmulVariant::BspStaggered),
        Algo::Matmul(MatmulVariant::Bpram),
        Algo::CmsslMatmul,
    ];
    for (&n, [rs, rb, rc]) in ns.iter().zip(sweep(plat, &ns, algos, seed)) {
        bsp.push(pcm_core::DataPoint::new(n as f64, rs.stats.mflops));
        bpram.push(pcm_core::DataPoint::new(n as f64, rb.stats.mflops));
        cmssl.push(pcm_core::DataPoint::new(n as f64, rc.stats.mflops));
    }
    Output::Fig(
        Figure::new(
            "Fig. 20",
            "Model-derived matrix multiplications vs CMSSL gen_matrix_mult on the CM-5",
            "N",
            "Mflops",
        )
        .with(bsp)
        .with(bpram)
        .with(cmssl),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_prediction_tracks_measurement() {
        let Output::Fig(f) = fig03(Scale::Quick, 3) else {
            panic!()
        };
        let m = f.series_named("Measured").unwrap();
        let p = f.series_named("Predicted (MP-BSP)").unwrap();
        let dev = p.max_relative_deviation(m);
        assert!(dev < 0.25, "deviation {dev} (paper: < 14%)");
    }

    #[test]
    fn fig04_naive_is_slower_than_staggered_and_prediction() {
        let Output::Fig(f) = fig04(Scale::Quick, 4) else {
            panic!()
        };
        let naive = f.series_named("Measured (naive)").unwrap();
        let stag = f.series_named("Staggered").unwrap();
        let pred = f.series_named("Predicted (BSP)").unwrap();
        for &n in &[128.0, 256.0] {
            assert!(naive.y_at(n).unwrap() > stag.y_at(n).unwrap());
        }
        // The contention error at N = 256 is in the paper's ballpark.
        let err =
            (naive.y_at(256.0).unwrap() - pred.y_at(256.0).unwrap()) / pred.y_at(256.0).unwrap();
        assert!(err > 0.08 && err < 0.40, "contention error = {err}");
    }

    #[test]
    fn fig16_bpram_wins() {
        let Output::Fig(f) = fig16(Scale::Quick, 5) else {
            panic!()
        };
        let bsp = f.series_named("BSP (staggered, short messages)").unwrap();
        let bpram = f.series_named("MP-BPRAM (block transfers)").unwrap();
        assert!(bsp.dominated_by(bpram), "block transfers must win Mflops");
    }
}
