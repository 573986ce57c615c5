//! Sorting figures: 5, 6, 10, 11 (evaluation), 17 and 18 (comparison).
//! All plot "time per key" — total time divided by the keys per processor.

use pcm_algos::sort::bitonic::ExchangeMode;
use pcm_algos::sort::sample::SampleVariant;
use pcm_algos::RunResult;
use pcm_core::{Figure, Series};
use pcm_machines::Platform;
use pcm_models::predict;

use crate::report::{Output, Scale};
use crate::runs::{sweep, Algo};

/// Keys per processor swept by the MasPar bitonic figures (5, 10, 17).
pub fn maspar_ms(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => vec![64, 128, 256, 512, 1024, 2048],
        Scale::Quick => vec![64, 256],
    }
}

/// Keys per processor swept by the GCel bitonic figures (6, 11).
pub fn gcel_ms(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => vec![256, 512, 1024, 2048, 4096],
        Scale::Quick => vec![256, 1024],
    }
}

/// Keys per processor swept by the Fig. 18 sample-sort comparison.
pub fn fig18_ms(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Full => vec![64, 128, 256, 512, 1024],
        Scale::Quick => vec![128, 512, 1024],
    }
}

/// The time per key of the runs at `ms` keys per processor, in order.
fn per_key_series<'a>(
    label: &str,
    ms: &[usize],
    runs: impl IntoIterator<Item = &'a RunResult>,
) -> Series {
    Series::from_points(
        label,
        ms.iter()
            .zip(runs)
            .map(|(&m, r)| (m as f64, r.time.as_micros() / m as f64)),
    )
}

/// One per-key series of bitonic sort in `mode` at `ms`.
fn bitonic_series(
    label: &str,
    plat: Platform,
    ms: &[usize],
    mode: ExchangeMode,
    seed: u64,
) -> Series {
    let runs = sweep(plat, ms, [Algo::Bitonic(mode)], seed);
    per_key_series(label, ms, runs.iter().map(|[r]| r))
}

fn predicted_series(label: &str, ms: &[usize], f: impl Fn(usize) -> pcm_core::SimTime) -> Series {
    Series::from_points(
        label,
        ms.iter().map(|&m| (m as f64, f(m).as_micros() / m as f64)),
    )
}

/// Fig. 5: measured vs MP-BSP-predicted time per key of bitonic sort on
/// the MasPar — the model overestimates by ~2x because the bit-flip
/// exchange is cheap on the router.
pub fn fig05(scale: Scale, seed: u64) -> Output {
    let plat = Platform::maspar();
    let ms = maspar_ms(scale);
    let params = plat.model_params();
    let measured = bitonic_series("Measured", plat, &ms, ExchangeMode::Words, seed);
    let predicted = predicted_series("Predicted (MP-BSP)", &ms, |m| {
        predict::eval(predict::bitonic::mp_bsp, &params, m)
    });
    Output::Fig(
        Figure::new(
            "Fig. 5",
            "Measured and predicted times per key of bitonic sort on the MasPar",
            "keys per processor",
            "µs/key",
        )
        .with(measured)
        .with(predicted),
    )
}

/// Fig. 6: bitonic time per key on the GCel — unsynchronized BSP drifts;
/// a barrier every 256 messages restores the prediction.
pub fn fig06(scale: Scale, seed: u64) -> Output {
    let plat = Platform::gcel();
    let ms = gcel_ms(scale);
    let params = plat.model_params();
    let modes = [
        ExchangeMode::Words,
        ExchangeMode::WordsResync { interval: 256 },
    ];
    let runs = sweep(plat, &ms, modes.map(Algo::Bitonic), seed);
    let unsynced = per_key_series("Measured (no resync)", &ms, runs.iter().map(|[u, _]| u));
    let synced = per_key_series(
        "Measured (barrier every 256)",
        &ms,
        runs.iter().map(|[_, s]| s),
    );
    let predicted = predicted_series("Predicted (BSP)", &ms, |m| {
        predict::eval(predict::bitonic::bsp, &params, m)
    });
    Output::Fig(
        Figure::new(
            "Fig. 6",
            "Measured and predicted times per key of bitonic sort on the GCel",
            "keys per processor",
            "µs/key",
        )
        .with(unsynced)
        .with(synced)
        .with(predicted),
    )
}

/// Fig. 10: MP-BPRAM bitonic on the MasPar — blocks are less sensitive to
/// the pattern, so the overestimate shrinks but does not vanish.
pub fn fig10(scale: Scale, seed: u64) -> Output {
    let plat = Platform::maspar();
    let ms = maspar_ms(scale);
    let params = plat.model_params();
    let measured = bitonic_series("Measured", plat, &ms, ExchangeMode::Block, seed);
    let predicted = predicted_series("Predicted (MP-BPRAM)", &ms, |m| {
        predict::eval(predict::bitonic::bpram, &params, m)
    });
    Output::Fig(
        Figure::new(
            "Fig. 10",
            "Measured and predicted times per key of MP-BPRAM bitonic sort on the MasPar",
            "keys per processor",
            "µs/key",
        )
        .with(measured)
        .with(predicted),
    )
}

/// Fig. 11: MP-BPRAM bitonic on the GCel — the predictions "almost
/// coincide with the measured data points".
pub fn fig11(scale: Scale, seed: u64) -> Output {
    let plat = Platform::gcel();
    let ms = gcel_ms(scale);
    let params = plat.model_params();
    let measured = bitonic_series("Measured", plat, &ms, ExchangeMode::Block, seed);
    let predicted = predicted_series("Predicted (MP-BPRAM)", &ms, |m| {
        predict::eval(predict::bitonic::bpram, &params, m)
    });
    Output::Fig(
        Figure::new(
            "Fig. 11",
            "Measured and estimated times per key of bitonic sort on the GCel",
            "keys per processor",
            "µs/key",
        )
        .with(measured)
        .with(predicted),
    )
}

/// Fig. 17: MP-BSP vs MP-BPRAM bitonic on the MasPar — the bulk-transfer
/// gain, about 2.1x against the 3.3x bound.
pub fn fig17(scale: Scale, seed: u64) -> Output {
    let plat = Platform::maspar();
    let ms = maspar_ms(scale);
    let modes = [ExchangeMode::Words, ExchangeMode::Block];
    let runs = sweep(plat, &ms, modes.map(Algo::Bitonic), seed);
    let words = per_key_series("MP-BSP (words)", &ms, runs.iter().map(|[w, _]| w));
    let blocks = per_key_series("MP-BPRAM (blocks)", &ms, runs.iter().map(|[_, b]| b));
    Output::Fig(
        Figure::new(
            "Fig. 17",
            "MP-BSP vs MP-BPRAM bitonic sort on the MasPar",
            "keys per processor",
            "µs/key",
        )
        .with(words)
        .with(blocks),
    )
}

/// Fig. 18: MP-BPRAM bitonic vs sample sort (padded single-port routing)
/// vs the staggered direct variant, on the GCel.
///
/// The sweep covers the startup-dominated regime the paper plots (the
/// `4·sqrt(P)·ell` term of the send phase); at several thousand keys per
/// processor the per-key startup amortizes and sample sort catches up with
/// bitonic — see EXPERIMENTS.md.
pub fn fig18(scale: Scale, seed: u64) -> Output {
    let plat = Platform::gcel();
    let ms = fig18_ms(scale);
    let sample = |variant| Algo::Sample {
        variant,
        oversampling: 64,
    };
    let algos = [
        Algo::Bitonic(ExchangeMode::Block),
        sample(SampleVariant::Bpram),
        sample(SampleVariant::BpramStaggered),
    ];
    let runs = sweep(plat, &ms, algos, seed);
    let bitonic_s = per_key_series("Bitonic (MP-BPRAM)", &ms, runs.iter().map(|[b, _, _]| b));
    let sample_s = per_key_series(
        "Sample sort (MP-BPRAM)",
        &ms,
        runs.iter().map(|[_, s, _]| s),
    );
    let staggered_s = per_key_series(
        "Sample sort (staggered direct)",
        &ms,
        runs.iter().map(|[_, _, s]| s),
    );
    Output::Fig(
        Figure::new(
            "Fig. 18",
            "Measured times per key of MP-BPRAM bitonic and sample sort on the GCel",
            "keys per processor",
            "µs/key",
        )
        .with(bitonic_s)
        .with(sample_s)
        .with(staggered_s),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig05_model_overestimates_by_about_two() {
        let Output::Fig(f) = fig05(Scale::Quick, 2) else {
            panic!()
        };
        let m = f.series_named("Measured").unwrap();
        let p = f.series_named("Predicted (MP-BSP)").unwrap();
        let ratio = p.y_at(256.0).unwrap() / m.y_at(256.0).unwrap();
        assert!(
            ratio > 1.5 && ratio < 2.8,
            "MP-BSP should overestimate ~2x, got {ratio}"
        );
    }

    #[test]
    fn fig06_resync_restores_the_prediction() {
        let Output::Fig(f) = fig06(Scale::Quick, 3) else {
            panic!()
        };
        let synced = f.series_named("Measured (barrier every 256)").unwrap();
        let pred = f.series_named("Predicted (BSP)").unwrap();
        let dev = pred.max_relative_deviation(synced);
        assert!(dev < 0.25, "synced deviation = {dev}");
        let unsynced = f.series_named("Measured (no resync)").unwrap();
        assert!(
            unsynced.y_at(1024.0).unwrap() > 1.3 * synced.y_at(1024.0).unwrap(),
            "drift should show at M = 1024"
        );
    }

    #[test]
    fn fig11_bpram_is_accurate_on_gcel() {
        let Output::Fig(f) = fig11(Scale::Quick, 4) else {
            panic!()
        };
        let m = f.series_named("Measured").unwrap();
        let p = f.series_named("Predicted (MP-BPRAM)").unwrap();
        assert!(p.max_relative_deviation(m) < 0.15);
    }

    #[test]
    fn fig17_bulk_gain_within_bound() {
        let Output::Fig(f) = fig17(Scale::Quick, 5) else {
            panic!()
        };
        let w = f.series_named("MP-BSP (words)").unwrap();
        let b = f.series_named("MP-BPRAM (blocks)").unwrap();
        let ratio = w.y_at(256.0).unwrap() / b.y_at(256.0).unwrap();
        assert!(ratio > 1.3 && ratio < 3.3, "gain {ratio}, bound 3.3");
    }
}
