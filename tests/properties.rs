//! Property-based tests across the stack: the algorithms must compute
//! correct results and deterministic timings for arbitrary small
//! configurations on every machine model.

use proptest::prelude::*;

use pcm::algos::apsp::{self, ApspVariant};
use pcm::algos::matmul::{self, MatmulVariant};
use pcm::algos::sort::bitonic::{self, ExchangeMode};
use pcm::algos::sort::sample::{self, SampleVariant};
use pcm::Platform;

fn platforms16() -> Vec<Platform> {
    vec![
        Platform::maspar_with(16),
        Platform::gcel_with(16),
        Platform::cm5_with(16),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bitonic_sorts_any_configuration(
        m in 1usize..96,
        seed in 0u64..1000,
        mode_pick in 0usize..3,
        plat_pick in 0usize..3,
    ) {
        let plat = platforms16()[plat_pick];
        let mode = [
            ExchangeMode::Words,
            ExchangeMode::WordsResync { interval: 16 },
            ExchangeMode::Block,
        ][mode_pick];
        let r = bitonic::run(&plat, m, mode, seed);
        prop_assert!(r.verified, "{} failed with M={m} mode={mode:?}", plat.name());
        prop_assert!(r.time.as_micros() > 0.0);
    }

    #[test]
    fn sample_sort_sorts_any_configuration(
        m in 4usize..128,
        s in 1usize..32,
        seed in 0u64..1000,
        variant_pick in 0usize..3,
    ) {
        let plat = Platform::gcel_with(16);
        let variant = [
            SampleVariant::BspWords,
            SampleVariant::Bpram,
            SampleVariant::BpramStaggered,
        ][variant_pick];
        let r = sample::run(&plat, m, s, variant, seed);
        prop_assert!(r.verified, "M={m} S={s} {variant:?}");
        // Buckets always cover all keys: the biggest bucket holds at least
        // the average.
        prop_assert!(r.stats.max_bucket >= m);
    }

    #[test]
    fn matmul_is_correct_for_any_aligned_size(
        blocks in 1usize..5,
        seed in 0u64..1000,
        plat_pick in 0usize..3,
        variant_pick in 0usize..3,
    ) {
        // 16-processor platforms have q = 2, so N must be a multiple of 4.
        let plat = platforms16()[plat_pick];
        let n = 4 * blocks;
        let variant = [
            MatmulVariant::BspNaive,
            MatmulVariant::BspStaggered,
            MatmulVariant::Bpram,
        ][variant_pick];
        let r = matmul::run(&plat, n, variant, seed);
        prop_assert!(r.verified, "{} N={n} {variant:?}", plat.name());
    }

    #[test]
    fn apsp_matches_floyd_for_any_aligned_size(
        blocks in 1usize..8,
        seed in 0u64..1000,
        plat_pick in 0usize..3,
    ) {
        let plat = platforms16()[plat_pick];
        let n = 4 * blocks; // sqrt(16) = 4, so M = blocks
        // The MasPar (pick 0) doubles pieces, so M < sqrt(P) must leave
        // sqrt(P)/M a power of two (`run` documents a panic otherwise);
        // with sqrt(P) = 4 that holds exactly when M divides 4.
        if plat_pick == 0 && blocks < 4 && 4 % blocks != 0 {
            let run = std::panic::catch_unwind(|| apsp::run(&plat, n, ApspVariant::Words, seed));
            prop_assert!(run.is_err(), "{} N={n} must reject M={blocks}", plat.name());
        } else {
            let r = apsp::run(&plat, n, ApspVariant::Words, seed);
            prop_assert!(r.verified, "{} N={n}", plat.name());
        }
    }

    #[test]
    fn simulated_time_is_deterministic(
        seed in 0u64..1000,
        m in 1usize..64,
    ) {
        let plat = Platform::gcel_with(16);
        let a = bitonic::run(&plat, m, ExchangeMode::Block, seed);
        let b = bitonic::run(&plat, m, ExchangeMode::Block, seed);
        prop_assert_eq!(a.time, b.time);
        prop_assert_eq!(a.breakdown.messages, b.breakdown.messages);
    }

    #[test]
    fn different_seeds_only_jitter_the_time(
        m in 16usize..64,
    ) {
        // Two seeds give different jitter draws but the same communication
        // structure: times differ by at most a few percent.
        let plat = Platform::cm5_with(16);
        let a = bitonic::run(&plat, m, ExchangeMode::Block, 1);
        let b = bitonic::run(&plat, m, ExchangeMode::Block, 2);
        prop_assert!(a.verified && b.verified);
        let ratio = a.time / b.time;
        prop_assert!(ratio > 0.9 && ratio < 1.1, "ratio = {ratio}");
        prop_assert_eq!(a.breakdown.messages, b.breakdown.messages);
    }

    #[test]
    fn block_transfers_never_lose_on_the_gcel(
        m in 32usize..128,
        seed in 0u64..100,
    ) {
        // The g/(w·sigma) ≈ 120 gap means the block bitonic always beats
        // the word bitonic on the GCel, whatever the size.
        let plat = Platform::gcel_with(16);
        let words = bitonic::run(&plat, m, ExchangeMode::Words, seed);
        let blocks = bitonic::run(&plat, m, ExchangeMode::Block, seed);
        prop_assert!(blocks.time < words.time);
    }
}
