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

/// Bitonic at MasPar scale, `p` = 256, in the three modes whose partner
/// list arrives as one message; and the resynchronized mode, whose list
/// arrives in chunks over several supersteps, on a 64-processor GCel.
#[test]
fn golden_bitonic_maspar_256() {
    let pins = [
        (64, ExchangeMode::Words, 0x23d48dee9c436926),
        (64, ExchangeMode::Block, 0x0425e4c7f69540eb),
        (64, ExchangeMode::Packets { bytes: 16 }, 0x8e84db1bd44cc510),
        (512, ExchangeMode::Words, 0xfb0b0aeeb832d571),
        (512, ExchangeMode::Block, 0xd15e9a511661ce41),
        (512, ExchangeMode::Packets { bytes: 16 }, 0xaf81be67e1aa45c6),
    ];
    for (m, mode, expected) in pins {
        check(
            &format!("bitonic {mode:?} m={m} maspar p=256"),
            expected,
            || bitonic::run(&Platform::maspar_with(256), m, mode, SEED),
        );
    }
    check(
        "bitonic resync16 m=64 gcel p=64",
        0xb793df705bb66e9d,
        || {
            bitonic::run(
                &Platform::gcel_with(64),
                64,
                ExchangeMode::WordsResync { interval: 16 },
                SEED,
            )
        },
    );
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

/// Parallel radix where each processor manages few buckets: 4 at `p` = 64
/// and 1 at `p` = 256, so both all-to-all supersteps of every pass send
/// one short count message to each other processor.
#[test]
fn golden_parallel_radix_many_procs() {
    let pins = [
        ("maspar", 64, RadixVariant::Words, 0x841c8f04a349d6a1),
        ("maspar", 64, RadixVariant::Blocks, 0x0e5427225d978c04),
        ("gcel", 64, RadixVariant::Words, 0xcb95e3da0c7f4697),
        ("gcel", 64, RadixVariant::Blocks, 0xaadd80deae695360),
        ("cm5", 64, RadixVariant::Words, 0x2ed7dc429ff14fe7),
        ("cm5", 64, RadixVariant::Blocks, 0xee8f0aac96784e0b),
        ("maspar", 256, RadixVariant::Words, 0xdddaa8d4e2475bbd),
        ("maspar", 256, RadixVariant::Blocks, 0xcb10e4717fd47b7e),
        ("gcel", 256, RadixVariant::Words, 0x841f6023e130e51e),
        ("gcel", 256, RadixVariant::Blocks, 0x2ccf369cdf37376c),
        ("cm5", 256, RadixVariant::Words, 0x5cf9d3f717fcc3a4),
        ("cm5", 256, RadixVariant::Blocks, 0xcbba2338d39e5b4d),
    ];
    for (machine, p, variant, expected) in pins {
        let plat = match machine {
            "maspar" => Platform::maspar_with(p),
            "gcel" => Platform::gcel_with(p),
            _ => Platform::cm5_with(p),
        };
        check(
            &format!("radix {variant:?} m=16 {machine} p={p}"),
            expected,
            || parallel_radix::run(&plat, 16, variant, SEED),
        );
    }
}

#[test]
fn golden_apsp() {
    check("apsp words n=16 cm5 p=16", 0xb7365459f94f1e1d, || {
        apsp::run(&Platform::cm5_with(16), 16, ApspVariant::Words, SEED)
    });
}

/// The MasPar path: n = 8 gives M = 2 < sqrt(P) = 4 (doubling, then the
/// ring); n = 32 gives M = 8 (ring only).
#[test]
fn golden_apsp_maspar() {
    let pins = [
        (8, ApspVariant::Words, 0x3ef39ed587bc6018),
        (8, ApspVariant::Blocks, 0x9ff5da668670cf6a),
        (32, ApspVariant::Words, 0xd37a4261f98a1f7b),
        (32, ApspVariant::Blocks, 0x8cd649eb56ffe46e),
    ];
    for (n, variant, expected) in pins {
        check(
            &format!("apsp {variant:?} n={n} maspar p=16"),
            expected,
            || apsp::run(&Platform::maspar_with(16), n, variant, SEED),
        );
    }
}

/// The MasPar path at `p` = 256 (`side` 16, scrambled embedding): n = 32
/// and 64 give M = 2 and 4 (doubling steps, then ring rotations); n = 256
/// gives M = `side` (ring rotations only). Width 3 splits these 256
/// closures into uneven chunks.
#[test]
fn golden_apsp_maspar_256() {
    let pins = [
        (32, ApspVariant::Words, 0x8e25f5ecf93755c4),
        (32, ApspVariant::Blocks, 0x291e76196ecb60ef),
        (64, ApspVariant::Words, 0xeb6c026c12edf489),
        (64, ApspVariant::Blocks, 0x4b772f5b4915340f),
        (256, ApspVariant::Words, 0xa63aec5e7401be12),
        (256, ApspVariant::Blocks, 0x135967cd674bbcbc),
    ];
    for (n, variant, expected) in pins {
        check(
            &format!("apsp {variant:?} n={n} maspar p=256"),
            expected,
            || apsp::run(&Platform::maspar_with(256), n, variant, SEED),
        );
    }
}

/// The pipelined all-gather at `p` = 64 on both pipelined machines.
#[test]
fn golden_apsp_pipelined_64() {
    let pins = [
        ("gcel", ApspVariant::Words, 0x3433f879a770e787),
        ("gcel", ApspVariant::Blocks, 0x2f794ce476e6751c),
        ("cm5", ApspVariant::Words, 0x31b30b9cf6f9d927),
        ("cm5", ApspVariant::Blocks, 0x4c2226b46cb3a132),
    ];
    for (machine, variant, expected) in pins {
        let plat = if machine == "gcel" {
            Platform::gcel_with(64)
        } else {
            Platform::cm5_with(64)
        };
        check(
            &format!("apsp {variant:?} n=64 {machine} p=64"),
            expected,
            || apsp::run(&plat, 64, variant, SEED),
        );
    }
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
