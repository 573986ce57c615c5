//! The declared cross-model facts rules S03 and S06 certify.
//!
//! A [`Lemma`] states that one model's closed form dominates another's for
//! every in-domain `n ≥ from_n` on one machine — the qualitative claims of
//! the paper's Section 5 comparison ("block transfers win on the GCel",
//! "MP-BSP pays `L` per word so plain BSP is never slower", "`T_unb` only
//! helps"). A [`Crossover`] states the quantitative refinement: where a
//! word variant and a block variant cross, and a pair of in-domain sizes
//! that straddle the crossing.
//!
//! Both registries are *claims*, not computations: the checker derives the
//! certificates from the symbolic IR and reports an S03/S06 finding when a
//! claim cannot be certified. The constants below (machines, `from_n`,
//! brackets) encode what the paper's Table 1 parameters imply; changing a
//! machine parameter that flips one of these facts is exactly the kind of
//! drift the verifier exists to catch.

use pcm_algos::matmul::{self, MatmulVariant};
use pcm_algos::sort::bitonic::{self, ExchangeMode};
use pcm_core::SimTime;
use pcm_machines::Platform;

/// One dominance claim: `lesser ≤ greater` (as running times) for every
/// in-domain `n ≥ from_n` on `machine`.
#[derive(Clone, Copy, Debug)]
pub struct Lemma {
    /// Short stable name for reports.
    pub name: &'static str,
    /// Algorithm family both models belong to.
    pub family: &'static str,
    /// Model expected to be at most as expensive.
    pub lesser: &'static str,
    /// Model expected to be at least as expensive.
    pub greater: &'static str,
    /// Machine name the claim holds on ("MasPar", "GCel", "CM-5").
    pub machine: &'static str,
    /// The claim holds for in-domain `n ≥ from_n` (and the symbolic
    /// certificate is built with the formulas frozen at this hint).
    pub from_n: usize,
}

/// Replays one crossover point through the priced simulator: returns
/// `(word_time, block_time)`, or `None` if a run failed verification.
pub type ReplayFn = fn(n: usize, seed: u64) -> Option<(SimTime, SimTime)>;

/// One word/block crossover claim on one machine: the cost difference
/// `word − block` changes sign exactly once in `bracket`, `word_model`
/// wins at `word_n` (below the crossing) and `block_model` wins at
/// `block_n` (above it). When `replay` is set, the same flip must show up
/// in priced simulator runs at those two sizes.
#[derive(Clone, Copy)]
pub struct Crossover {
    /// Short stable name for reports.
    pub name: &'static str,
    /// Algorithm family of both variants.
    pub family: &'static str,
    /// The word-granularity model (cheap at small `n`).
    pub word_model: &'static str,
    /// The block-transfer model (cheap at large `n`).
    pub block_model: &'static str,
    /// Machine name the crossover occurs on.
    pub machine: &'static str,
    /// `(lo, hi)` range the crossing must lie in.
    pub bracket: (f64, f64),
    /// In-domain size below the crossing where the word model wins.
    pub word_n: usize,
    /// In-domain size above the crossing where the block model wins.
    pub block_n: usize,
    /// Priced-simulator replay of the two sizes, when the workspace has
    /// runnable variants for both models on this machine.
    pub replay: Option<ReplayFn>,
}

/// The dominance lemmas rule S03 certifies.
///
/// The `from_n` values are the smallest in-domain sizes from which the
/// symbolic difference certifies non-negative; the derivations live with
/// the checker's tests.
pub fn lemmas() -> Vec<Lemma> {
    vec![
        // MP-BSP charges L per word message; pipelined BSP never loses.
        Lemma {
            name: "matmul-bsp-le-mp-bsp-maspar",
            family: "matmul",
            lesser: "bsp",
            greater: "mp_bsp",
            machine: "MasPar",
            from_n: 100,
        },
        Lemma {
            name: "bitonic-bsp-le-mp-bsp-maspar",
            family: "bitonic",
            lesser: "bsp",
            greater: "mp_bsp",
            machine: "MasPar",
            from_n: 1,
        },
        // The GCel's bulk gain (~120) makes block transfers win from the
        // first key; the CM-5's small gain (~4.2) needs 8 keys.
        Lemma {
            name: "bitonic-bpram-le-bsp-gcel",
            family: "bitonic",
            lesser: "bpram",
            greater: "bsp",
            machine: "GCel",
            from_n: 1,
        },
        Lemma {
            name: "bitonic-bpram-le-bsp-cm5",
            family: "bitonic",
            lesser: "bpram",
            greater: "bsp",
            machine: "CM-5",
            from_n: 8,
        },
        Lemma {
            name: "matmul-bpram-le-bsp-cm5",
            family: "matmul",
            lesser: "bpram",
            greater: "bsp",
            machine: "CM-5",
            from_n: 32,
        },
        Lemma {
            name: "matmul-bpram-le-bsp-gcel",
            family: "matmul",
            lesser: "bpram",
            greater: "bsp",
            machine: "GCel",
            from_n: 16,
        },
        // T_unb prices partial permutations below (g+L) full relations on
        // the MasPar once the doubling phase has vanished (M ≥ sqrt(P),
        // i.e. n ≥ 1024).
        Lemma {
            name: "apsp-ebsp-le-mp-bsp-maspar",
            family: "apsp",
            lesser: "ebsp",
            greater: "mp_bsp",
            machine: "MasPar",
            from_n: 1024,
        },
        Lemma {
            name: "lu-bpram-le-bsp-gcel",
            family: "lu",
            lesser: "bpram",
            greater: "bsp",
            machine: "GCel",
            from_n: 16,
        },
    ]
}

fn replay_matmul_cm5(n: usize, seed: u64) -> Option<(SimTime, SimTime)> {
    let plat = Platform::cm5();
    let w = matmul::run(&plat, n, MatmulVariant::BspStaggered, seed);
    let b = matmul::run(&plat, n, MatmulVariant::Bpram, seed);
    (w.verified && b.verified).then_some((w.time, b.time))
}

fn replay_bitonic_cm5(m: usize, seed: u64) -> Option<(SimTime, SimTime)> {
    let plat = Platform::cm5();
    let w = bitonic::run(&plat, m, ExchangeMode::Words, seed);
    let b = bitonic::run(&plat, m, ExchangeMode::Block, seed);
    (w.verified && b.verified).then_some((w.time, b.time))
}

/// The word/block crossovers rule S06 certifies.
pub fn crossovers() -> Vec<Crossover> {
    vec![
        // 1.30125·n² − 810 on the CM-5: short messages win below n* ≈ 25,
        // block transfers above.
        Crossover {
            name: "matmul-word-block-cm5",
            family: "matmul",
            word_model: "bsp",
            block_model: "bpram",
            machine: "CM-5",
            bracket: (16.0, 200.0),
            word_n: 16,
            block_n: 64,
            replay: Some(replay_matmul_cm5),
        },
        // 6.94·m − 30 per merge step on the CM-5: n* ≈ 4.3 keys per
        // processor.
        Crossover {
            name: "bitonic-word-block-cm5",
            family: "bitonic",
            word_model: "bsp",
            block_model: "bpram",
            machine: "CM-5",
            bracket: (1.0, 1024.0),
            word_n: 1,
            block_n: 1024,
            replay: Some(replay_bitonic_cm5),
        },
        // 7774.9·n − 83757 per iteration on the GCel: n* ≈ 10.8. No
        // simulator replay — the workspace has no block-transfer LU
        // schedule to run, so this one stays closed-form only.
        Crossover {
            name: "lu-word-block-gcel",
            family: "lu",
            word_model: "bsp",
            block_model: "bpram",
            machine: "GCel",
            bracket: (2.0, 512.0),
            word_n: 8,
            block_n: 16,
            replay: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_claim_references_a_registered_predictor() {
        let preds = pcm_models::symbolic::all();
        let exists = |family: &str, model: &str| {
            preds
                .iter()
                .any(|c| c.family() == family && c.model() == model)
        };
        for l in lemmas() {
            assert!(exists(l.family, l.lesser), "{}: lesser missing", l.name);
            assert!(exists(l.family, l.greater), "{}: greater missing", l.name);
        }
        for x in crossovers() {
            assert!(exists(x.family, x.word_model), "{}: word missing", x.name);
            assert!(exists(x.family, x.block_model), "{}: block missing", x.name);
        }
    }

    #[test]
    fn crossover_points_straddle_the_bracket() {
        for x in crossovers() {
            let (lo, hi) = x.bracket;
            assert!(lo < hi, "{}: empty bracket", x.name);
            assert!(
                (x.word_n as f64) < hi && (x.block_n as f64) > lo,
                "{}: points outside bracket",
                x.name
            );
            assert!(x.word_n < x.block_n, "{}: points not ordered", x.name);
        }
    }

    #[test]
    fn registries_have_the_expected_size() {
        assert_eq!(lemmas().len(), 8);
        assert_eq!(crossovers().len(), 3);
    }
}
