//! Golden-trace regression: one (algorithm, machine, n, p) point per
//! family, digested by `pcm_check::digest_run` (FNV) over everything a run
//! reports (time bits, verification, breakdown, stats). The constants
//! below pin the simulator's behavior: any change to pricing, message
//! schedules or algorithm structure shows up as a digest mismatch here
//! before it silently shifts the paper's figures.
//!
//! The digests fold exact `f64` bit patterns, which is safe because every
//! simulated run is deterministic by construction (seeded RNG, fixed
//! reduction orders — see the determinism auditor in `pcm-check`).
//!
//! If a change is *intended* to alter behavior, re-run with
//! `GOLDEN_PRINT=1 cargo test --test golden -- --nocapture` and update
//! the constants with the printed values.

use pcm::algos::apsp::{self, ApspVariant};
use pcm::algos::catalog::SEED;
use pcm::algos::lu::{self, LuVariant};
use pcm::algos::matmul::{self, MatmulVariant};
use pcm::algos::sort::bitonic::{self, ExchangeMode};
use pcm::algos::sort::parallel_radix::{self, RadixVariant};
use pcm::algos::sort::sample::{self, SampleVariant};
use pcm::algos::vendor;
use pcm::algos::RunResult;
use pcm::Platform;
use pcm_check::digest_run;

fn check(label: &str, expected: u64, run: impl FnOnce() -> RunResult) {
    let r = run();
    assert!(r.verified, "{label}: run failed verification");
    let got = digest_run(&r);
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("(\"{label}\", {got:#018x})");
        return;
    }
    assert_eq!(
        got, expected,
        "{label}: golden digest changed (got {got:#018x}, pinned {expected:#018x}) — \
         if intended, refresh with GOLDEN_PRINT=1"
    );
}

#[test]
fn golden_matmul() {
    check(
        "matmul staggered n=16 maspar p=16",
        0x1ef34afd8d5184fd,
        || {
            matmul::run(
                &Platform::maspar_with(16),
                16,
                MatmulVariant::BspStaggered,
                SEED,
            )
        },
    );
}

#[test]
fn golden_bitonic() {
    check("bitonic words m=32 gcel p=16", 0xfba95fadbd49e86c, || {
        bitonic::run(&Platform::gcel_with(16), 32, ExchangeMode::Words, SEED)
    });
}

#[test]
fn golden_samplesort() {
    check(
        "samplesort bpram m=32 gcel p=16",
        0x548ad4c763162a3d,
        || sample::run(&Platform::gcel_with(16), 32, 4, SampleVariant::Bpram, SEED),
    );
}

#[test]
fn golden_parallel_radix() {
    check("radix blocks m=32 cm5 p=16", 0x25831bd6a7a65965, || {
        parallel_radix::run(&Platform::cm5_with(16), 32, RadixVariant::Blocks, SEED)
    });
}

#[test]
fn golden_apsp() {
    check("apsp words n=16 cm5 p=16", 0xb7365459f94f1e1d, || {
        apsp::run(&Platform::cm5_with(16), 16, ApspVariant::Words, SEED)
    });
}

#[test]
fn golden_lu() {
    check("lu blocks n=16 gcel p=16", 0x7b7af3d765fd0da7, || {
        lu::run(&Platform::gcel_with(16), 16, LuVariant::Blocks, SEED)
    });
}

#[test]
fn golden_vendor() {
    check("maspar_matmul n=8 maspar p=16", 0x4f4498c03edaa949, || {
        vendor::maspar_matmul(&Platform::maspar_with(16), 8, SEED)
    });
    check("cmssl_matmul n=8 cm5 p=16", 0x3c67f77ae5e754a1, || {
        vendor::cmssl_matmul(&Platform::cm5_with(16), 8, SEED)
    });
}
