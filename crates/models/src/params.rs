//! Machine parameters as the cost models see them.
//!
//! [`MachineParams`] bundles everything the closed-form predictions of
//! Section 4 of the paper need: the (MP-)BSP parameters `g`, `L`, the
//! MP-BPRAM parameters `sigma`, `ell`, the word size `w`, local-computation
//! coefficients, and the machine-specific E-BSP refinements. The
//! [`maspar`], [`gcel`] and [`cm5`] constructors carry the paper's Table 1
//! values together with the secondary constants the paper reports in the
//! text (`T_unb`, `g_mscat`).
//!
//! Every field's unit is stated in its rustdoc **and** declared machine-
//! readably by [`unit_env`]; the `pcm-sym` verifier's S01 rule type-checks
//! the closed forms against those declarations rather than guessing.

use pcm_core::dim::Dim;
use pcm_core::symexpr::UnitEnv;
use pcm_core::units::exact_f64;

/// E-BSP refinement: how a machine prices *unbalanced* communication.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EbspParams {
    /// MasPar-style: a partial permutation with `P'` active processors
    /// costs `T_unb(P') = a·P' + b·sqrt(P') + c` µs.
    PartialPermutation {
        /// Linear coefficient, µs per active PE (PE counts are
        /// dimensionless, so the term `a·P'` is µs).
        a: f64,
        /// Square-root coefficient, µs per `sqrt(active PEs)`.
        b: f64,
        /// Constant offset in µs.
        c: f64,
    },
    /// GCel-style: a multinode scatter (few senders, spread receivers)
    /// costs `g_mscat·h + L` instead of `g·h + L`.
    MultinodeScatter {
        /// Effective per-message cost of the scatter pattern (µs).
        g_mscat: f64,
    },
    /// High-bisection network (CM-5 fat tree): partial relations cost about
    /// the same as full relations; E-BSP degenerates to BSP.
    Uniform,
}

impl EbspParams {
    /// `T_unb(active)` where applicable; falls back to `None` for machines
    /// without a partial-permutation refinement.
    pub fn t_unb(&self, active: f64) -> Option<f64> {
        match *self {
            EbspParams::PartialPermutation { a, b, c } => Some(a * active + b * active.sqrt() + c),
            _ => None,
        }
    }
}

/// Everything a cost model needs to know about a machine.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineParams {
    /// Machine name ("MasPar", "GCel", "CM-5").
    pub name: &'static str,
    /// Number of processors `P`.
    pub p: usize,
    /// Word size `w` in bytes (message granularity of the BSP variants).
    pub w: usize,
    /// BSP bandwidth factor `g` — µs per word message in an h-relation.
    pub g: f64,
    /// BSP synchronization/latency cost `L` in µs.
    pub l: f64,
    /// MP-BPRAM per-byte transfer cost `sigma` in µs/byte.
    pub sigma: f64,
    /// MP-BPRAM message startup `ell` in µs.
    pub ell: f64,
    /// Compound-op (multiply+add) time of the tuned local matmul kernel,
    /// in µs per operation.
    pub alpha_mm: f64,
    /// Compound-op time for generic scalar work (APSP updates, merges),
    /// in µs per operation.
    pub alpha: f64,
    /// Data rearrangement cost `beta` in the matmul expressions, in µs
    /// per word copied.
    pub copy: f64,
    /// Radix-sort coefficient `beta`, in µs per bucket slot per pass.
    pub radix_beta: f64,
    /// Radix-sort coefficient `gamma`, in µs per key inspected per pass.
    pub radix_gamma: f64,
    /// `true` if remote accesses pipeline (plain BSP); `false` for the
    /// MasPar-style MP-BSP machine where each word message is its own
    /// communication step costing `g + L`.
    pub memory_pipelining: bool,
    /// Machine-specific unbalanced-communication refinement.
    pub ebsp: EbspParams,
}

impl MachineParams {
    /// The ratio `g / (w·sigma)` — the paper's indicator of the maximum
    /// gain obtainable by grouping data into long messages (about 120 on
    /// the GCel, 4.2 on the CM-5).
    pub fn bulk_gain(&self) -> f64 {
        self.g / (exact_f64(self.w) * self.sigma)
    }

    /// The MP-BSP variant of the bulk gain, `(g+L) / (w·sigma)` — 3.3 on
    /// the MasPar, where every word message pays the synchronization cost.
    pub fn bulk_gain_mp(&self) -> f64 {
        (self.g + self.l) / (exact_f64(self.w) * self.sigma)
    }
}

/// Declared units of every symbol the predictors' symbolic forms use —
/// the single source of truth S01 type-checks against.
///
/// The problem-size symbol `n` (matrix side for matmul/APSP/LU, keys per
/// processor for the sorts) and all processor/step counts are
/// dimensionless; casts inside the expressions state explicitly when a
/// count travels as words or is charged as local operations.
pub fn unit_env() -> UnitEnv {
    let mut env = UnitEnv::new();
    env.declare("g", Dim::US_PER_WORD);
    env.declare("L", Dim::US);
    env.declare("sigma", Dim::US_PER_BYTE);
    env.declare("ell", Dim::US);
    env.declare("w", Dim::BYTES_PER_WORD);
    env.declare("alpha", Dim::US_PER_OP);
    env.declare("alpha_mm", Dim::US_PER_OP);
    env.declare("copy", Dim::US_PER_WORD);
    env.declare("radix_beta", Dim::US_PER_OP);
    env.declare("radix_gamma", Dim::US_PER_OP);
    env.declare("g_mscat", Dim::US_PER_WORD);
    env.declare("t_unb_a", Dim::US);
    env.declare("t_unb_b", Dim::US);
    env.declare("t_unb_c", Dim::US);
    env.declare("n", Dim::NONE);
    env
}

/// Table 1 parameters of the 1024-PE MasPar MP-1 (plus the text's secondary
/// constants: `T_unb` polynomial, optimized local kernel).
pub fn maspar() -> MachineParams {
    MachineParams {
        name: "MasPar",
        p: 1024,
        w: 4,
        g: 32.2,
        l: 1400.0,
        sigma: 107.0,
        ell: 630.0,
        // 75 Mflops aggregate peak over 1024 PEs, single precision, with the
        // register-blocked kernel running at ~86% of peak.
        alpha_mm: 32.0,
        alpha: 44.8,
        copy: 8.0,
        radix_beta: 10.0,
        radix_gamma: 22.0,
        memory_pipelining: false,
        ebsp: EbspParams::PartialPermutation {
            a: 0.84,
            b: 11.8,
            c: 73.3,
        },
    }
}

/// Table 1 parameters of the 64-node Parsytec GCel under HPVM.
pub fn gcel() -> MachineParams {
    MachineParams {
        name: "GCel",
        p: 64,
        w: 4,
        g: 4480.0,
        l: 5100.0,
        sigma: 9.3,
        ell: 6900.0,
        // T805 @ 30 MHz, ~0.45 Mflops sustained on the inner product; the
        // generic per-element rate (merge step, bucket scan) is slower.
        alpha_mm: 4.4,
        alpha: 20.0,
        copy: 0.9,
        radix_beta: 1.2,
        radix_gamma: 2.4,
        memory_pipelining: true,
        ebsp: EbspParams::MultinodeScatter { g_mscat: 492.0 },
    }
}

/// Table 1 parameters of the 64-node CM-5 under Split-C (no vector units).
pub fn cm5() -> MachineParams {
    MachineParams {
        name: "CM-5",
        p: 64,
        w: 8,
        g: 9.1,
        l: 45.0,
        sigma: 0.27,
        ell: 75.0,
        // alpha = 2/(7.0e6) s — the paper's choice for predictions.
        alpha_mm: 0.29,
        alpha: 0.35,
        copy: 0.06,
        radix_beta: 0.45,
        radix_gamma: 0.55,
        memory_pipelining: true,
        ebsp: EbspParams::Uniform,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_are_the_papers() {
        let mp = maspar();
        assert_eq!(
            (mp.p, mp.g, mp.l, mp.sigma, mp.ell),
            (1024, 32.2, 1400.0, 107.0, 630.0)
        );
        let gc = gcel();
        assert_eq!(
            (gc.p, gc.g, gc.l, gc.sigma, gc.ell),
            (64, 4480.0, 5100.0, 9.3, 6900.0)
        );
        let c5 = cm5();
        assert_eq!(
            (c5.p, c5.g, c5.l, c5.sigma, c5.ell),
            (64, 9.1, 45.0, 0.27, 75.0)
        );
    }

    #[test]
    fn bulk_gain_ratios_match_the_paper() {
        // "For the GCel, this ratio is about 120."
        assert!((gcel().bulk_gain() - 120.0).abs() < 1.0);
        // "On this architecture, the ratio ... is about 4.2 for 8-byte
        // messages."
        assert!((cm5().bulk_gain() - 4.2).abs() < 0.05);
        // "the maximum improvement is (g+L)/(w·sigma) = 3.3" (MasPar).
        assert!((maspar().bulk_gain_mp() - 3.3).abs() < 0.05);
    }

    #[test]
    fn t_unb_matches_the_fitted_polynomial() {
        let mp = maspar();
        let full = mp.ebsp.t_unb(1024.0).unwrap();
        // T_unb(1024) = 0.84·1024 + 11.8·32 + 73.3 ≈ 1311 µs — consistent
        // with "the time taken by a 1-1 relation is about 1300 µs".
        assert!((full - 1311.26).abs() < 0.5, "full = {full}");
        // "when there are 32 active PEs, a partial permutation takes about
        // 13% of the time required by a full permutation."
        let partial = mp.ebsp.t_unb(32.0).unwrap();
        let ratio = partial / full;
        assert!((ratio - 0.13).abs() < 0.02, "ratio = {ratio}");
        assert_eq!(gcel().ebsp.t_unb(32.0), None);
    }

    #[test]
    fn gcel_scatter_is_9x_cheaper() {
        // A multinode scatter on the GCel costs about 9.1 times less per
        // message than a full h-relation (Fig. 14).
        let gc = gcel();
        let EbspParams::MultinodeScatter { g_mscat } = gc.ebsp else {
            panic!("the GCel refines E-BSP with a multinode scatter");
        };
        let factor = gc.g / g_mscat;
        assert!((factor - 9.1).abs() < 0.1, "factor = {factor}");
    }

    #[test]
    fn unit_env_declares_every_formula_symbol() {
        let env = unit_env();
        for name in [
            "g",
            "L",
            "sigma",
            "ell",
            "w",
            "alpha",
            "alpha_mm",
            "copy",
            "radix_beta",
            "radix_gamma",
            "g_mscat",
            "t_unb_a",
            "t_unb_b",
            "t_unb_c",
            "n",
        ] {
            assert!(env.get(name).is_some(), "missing unit for {name}");
        }
        // The load-bearing distinctions: g is per word, sigma per byte.
        assert_eq!(env.get("g"), Some(Dim::US_PER_WORD));
        assert_eq!(env.get("sigma"), Some(Dim::US_PER_BYTE));
        assert_eq!(env.get("w"), Some(Dim::BYTES_PER_WORD));
        assert_eq!(env.get("n"), Some(Dim::NONE));
    }
}
