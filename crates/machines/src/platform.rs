//! Platform registry: one constructor per experimental machine.
//!
//! A [`Platform`] bundles a network model, a compute model and the
//! analytic [`MachineParams`] so that experiments can run an algorithm on
//! the simulator *and* evaluate the paper's closed-form predictions from
//! the same object. Downsized variants (`maspar_with(64)`, ...) exist for
//! fast tests; they keep the full machine's cost constants and only shrink
//! the processor count.

use std::sync::Arc;

use pcm_models::{cm5 as cm5_params, gcel as gcel_params, maspar as maspar_params, MachineParams};
use pcm_sim::{ComputeModel, Machine, NetworkModel};

use crate::cm5::{Cm5Compute, Cm5Network};
use crate::gcel::GcelNetwork;
use crate::maspar::MasParNetwork;

/// A compute model driven directly by [`MachineParams`] (MasPar, GCel).
#[derive(Clone, Copy, Debug)]
pub struct ParamCompute {
    alpha: f64,
    alpha_mm: f64,
    word: usize,
    copy: f64,
    radix: (f64, f64),
}

impl ParamCompute {
    /// Builds the compute model from a machine's parameters.
    pub fn from_params(p: &MachineParams) -> Self {
        ParamCompute {
            alpha: p.alpha,
            alpha_mm: p.alpha_mm,
            word: p.w,
            copy: p.copy,
            radix: (p.radix_beta, p.radix_gamma),
        }
    }
}

impl ComputeModel for ParamCompute {
    fn alpha(&self) -> f64 {
        self.alpha
    }

    fn word_bytes(&self) -> usize {
        self.word
    }

    fn matmul_op_time(&self, _m: usize, _n: usize, _k: usize) -> f64 {
        // The tuned (register-blocked) kernel rate.
        self.alpha_mm
    }

    fn copy_word_time(&self) -> f64 {
        self.copy
    }

    fn radix_coeffs(&self) -> (f64, f64) {
        self.radix
    }
}

/// Which machine a platform models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlatformKind {
    /// MasPar MP-1 (SIMD, delta router, no memory pipelining).
    MasPar,
    /// Parsytec GCel (T805 mesh under HPVM).
    Gcel,
    /// Thinking Machines CM-5 (fat tree, Split-C).
    Cm5,
}

/// One of the paper's three experimental machines (possibly downsized).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Platform {
    kind: PlatformKind,
    p: usize,
}

impl Platform {
    /// The full 1024-PE MasPar MP-1.
    pub fn maspar() -> Self {
        Self::maspar_with(1024)
    }

    /// A MasPar with `p` PEs (power of two, at least 16).
    pub fn maspar_with(p: usize) -> Self {
        assert!(
            p >= 16 && p.is_power_of_two(),
            "MasPar variant needs a power-of-two PE count >= 16"
        );
        Platform {
            kind: PlatformKind::MasPar,
            p,
        }
    }

    /// The full 64-node Parsytec GCel.
    pub fn gcel() -> Self {
        Self::gcel_with(64)
    }

    /// A GCel with `p` nodes (perfect square).
    pub fn gcel_with(p: usize) -> Self {
        assert!(
            pcm_core::units::sqrt_exact(p).is_some(),
            "GCel variant needs a square node count"
        );
        Platform {
            kind: PlatformKind::Gcel,
            p,
        }
    }

    /// The full 64-node CM-5.
    pub fn cm5() -> Self {
        Self::cm5_with(64)
    }

    /// A CM-5 with `p` nodes.
    pub fn cm5_with(p: usize) -> Self {
        assert!(p > 0);
        Platform {
            kind: PlatformKind::Cm5,
            p,
        }
    }

    /// All three machines scaled to `p` processors, in the paper's order
    /// (MasPar, GCel, CM-5). `p` must suit every constructor: a power of
    /// two, at least 16, and a perfect square (e.g. 16, 64, 256, 1024).
    pub fn all_with(p: usize) -> [Platform; 3] {
        [Self::maspar_with(p), Self::gcel_with(p), Self::cm5_with(p)]
    }

    /// The machine's name as the paper spells it.
    pub fn name(&self) -> &'static str {
        match self.kind {
            PlatformKind::MasPar => "MasPar",
            PlatformKind::Gcel => "GCel",
            PlatformKind::Cm5 => "CM-5",
        }
    }

    /// Which machine this is.
    pub fn kind(&self) -> PlatformKind {
        self.kind
    }

    /// Processor count.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Machine word size in bytes.
    pub fn word(&self) -> usize {
        self.model_params().w
    }

    /// The analytic model parameters (Table 1), with `p` adjusted for
    /// downsized variants.
    pub fn model_params(&self) -> MachineParams {
        let mut params = match self.kind {
            PlatformKind::MasPar => maspar_params(),
            PlatformKind::Gcel => gcel_params(),
            PlatformKind::Cm5 => cm5_params(),
        };
        params.p = self.p;
        params
    }

    /// A fresh network model instance.
    pub fn network(&self) -> Box<dyn NetworkModel> {
        match self.kind {
            PlatformKind::MasPar => Box::new(MasParNetwork::new(self.p)),
            PlatformKind::Gcel => Box::new(GcelNetwork::new(self.p)),
            PlatformKind::Cm5 => Box::new(Cm5Network::new(self.p)),
        }
    }

    /// The platform's compute model.
    pub fn compute(&self) -> Arc<dyn ComputeModel> {
        match self.kind {
            PlatformKind::Cm5 => Arc::new(Cm5Compute::new()),
            _ => Arc::new(ParamCompute::from_params(&self.model_params())),
        }
    }

    /// Builds a machine over this platform with one state per processor.
    ///
    /// # Panics
    /// Panics unless `states.len()` equals the platform's processor count.
    pub fn machine<S: Send>(&self, states: Vec<S>, seed: u64) -> Machine<S> {
        assert_eq!(states.len(), self.p, "need exactly one state per processor");
        Machine::new(self.network(), self.compute(), states, seed)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact simulated values
mod tests {
    use super::*;

    #[test]
    fn full_platforms_have_paper_sizes() {
        assert_eq!(Platform::maspar().p(), 1024);
        assert_eq!(Platform::gcel().p(), 64);
        assert_eq!(Platform::cm5().p(), 64);
        assert_eq!(Platform::maspar().word(), 4);
        assert_eq!(Platform::cm5().word(), 8);
    }

    #[test]
    fn downsized_variants_adjust_params() {
        let p = Platform::maspar_with(64);
        assert_eq!(p.model_params().p, 64);
        assert_eq!(p.model_params().g, 32.2, "cost constants unchanged");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn maspar_variant_validates() {
        Platform::maspar_with(60);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn gcel_variant_validates() {
        Platform::gcel_with(60);
    }

    #[test]
    fn machine_construction_round_trip() {
        let plat = Platform::cm5_with(4);
        let mut m = plat.machine(vec![0u32; 4], 1);
        m.superstep(|ctx| {
            ctx.send_word_u32((ctx.pid() + 1) % 4, 9);
        });
        m.superstep(|ctx| {
            *ctx.state = ctx.msgs()[0].word_u32();
        });
        assert_eq!(m.states(), &[9, 9, 9, 9]);
        assert!(m.time().as_micros() > 0.0);
    }

    #[test]
    #[should_panic(expected = "one state per processor")]
    fn machine_checks_state_count() {
        Platform::cm5_with(4).machine(vec![0u8; 3], 0);
    }

    #[test]
    fn compute_models_expose_word_sizes() {
        assert_eq!(Platform::maspar().compute().word_bytes(), 4);
        assert_eq!(Platform::gcel().compute().word_bytes(), 4);
        assert_eq!(Platform::cm5().compute().word_bytes(), 8);
    }

    #[test]
    fn maspar_matmul_kernel_is_register_blocked() {
        // The tuned kernel (alpha_mm = 32) is ~40% faster than the naive
        // scalar rate (alpha = 44.8) — paper Section 4.1.1.
        let c = Platform::maspar().compute();
        let speedup = c.alpha() / c.matmul_op_time(32, 32, 32);
        assert!((speedup - 1.4).abs() < 0.02, "speedup = {speedup}");
    }
}
