//! The closed-form registry the `pcm-sym` verifier consumes.
//!
//! Each predictor in [`crate::predict`] appears here as a [`ClosedForm`]:
//! its family and model name, its family's [`DomainSpec`] from
//! [`crate::domain`] — the divisibility and processor-shape preconditions
//! under which the formula is meaningful and the algorithm runs (rule
//! S02) — and its [`crate::predict`] builder, the one statement of the
//! formula. The verifier certifies that expression (rules S01, S03,
//! S05, S06) and checks its values against a pinned table of the values
//! the figures have always plotted (S04); the figures evaluate the same
//! builder with [`crate::predict::eval`].

use crate::domain::DomainSpec;
use crate::params::{EbspParams, MachineParams};
use crate::predict::{self, apsp, bitonic, lu, matmul, parallel_radix, samplesort, Build};
use pcm_core::symexpr::{Bindings, Expr};
use pcm_core::units::exact_f64;
use pcm_core::SimTime;

/// One closed form of one family under one model.
pub struct ClosedForm {
    family: &'static str,
    model: &'static str,
    domain: DomainSpec,
    build: Build,
}

impl ClosedForm {
    /// Builds a predictor record. The verifier's broken-fixture tests use
    /// this to construct deliberately wrong formulas; production
    /// predictors come from [`all`].
    pub fn new(
        family: &'static str,
        model: &'static str,
        domain: DomainSpec,
        build: Build,
    ) -> ClosedForm {
        ClosedForm {
            family,
            model,
            domain,
            build,
        }
    }

    /// Algorithm family name ("matmul", "bitonic", ...).
    pub fn family(&self) -> &'static str {
        self.family
    }

    /// Model name ("bsp", "mp_bsp", "bpram", "ebsp", "gcel_refined").
    pub fn model(&self) -> &'static str {
        self.model
    }

    /// Declared domain preconditions.
    pub fn domain(&self) -> DomainSpec {
        self.domain
    }

    /// The closed form as a typed expression over [`crate::params::unit_env`]
    /// symbols, with machine constants baked in and the problem size left
    /// as the free symbol `n`. Piecewise step counts (APSP's doubling
    /// phase) are frozen at `n_hint`.
    pub fn symbolic(&self, m: &MachineParams, n_hint: usize) -> Expr {
        (self.build)(m, n_hint)
    }

    /// The closed form evaluated at `(m, n)` with [`predict::eval`] (no
    /// domain check).
    pub fn eval(&self, m: &MachineParams, n: usize) -> SimTime {
        predict::eval(self.build, m, n)
    }
}

/// Numeric bindings for one machine and problem size, matching
/// [`crate::params::unit_env`]'s symbol set. E-BSP refinement symbols are
/// bound only where the machine defines them.
pub fn bindings(m: &MachineParams, n: usize) -> Bindings {
    let mut b = Bindings::new();
    b.bind("g", m.g)
        .bind("L", m.l)
        .bind("sigma", m.sigma)
        .bind("ell", m.ell)
        .bind("w", exact_f64(m.w))
        .bind("alpha", m.alpha)
        .bind("alpha_mm", m.alpha_mm)
        .bind("copy", m.copy)
        .bind("radix_beta", m.radix_beta)
        .bind("radix_gamma", m.radix_gamma)
        .bind("n", exact_f64(n));
    match m.ebsp {
        EbspParams::PartialPermutation { a, b: sb, c } => {
            b.bind("t_unb_a", a).bind("t_unb_b", sb).bind("t_unb_c", c);
        }
        EbspParams::MultinodeScatter { g_mscat } => {
            b.bind("g_mscat", g_mscat);
        }
        EbspParams::Uniform => {}
    }
    b
}

// ---- registry -------------------------------------------------------------

/// Every closed-form predictor in the workspace: 6 families × their
/// models, 16 predictors in all, each family's models sharing its one
/// [`DomainSpec`]. Ordering is fixed (family-major, model order bsp /
/// mp_bsp / bpram / ebsp-refinements) so report output is deterministic.
pub fn all() -> Vec<ClosedForm> {
    type Models = &'static [(&'static str, Build)];
    let families: [(&str, DomainSpec, Models); 6] = [
        (
            "matmul",
            DomainSpec::matmul(),
            &[
                ("bsp", matmul::bsp),
                ("mp_bsp", matmul::mp_bsp),
                ("bpram", matmul::bpram),
            ],
        ),
        (
            "bitonic",
            DomainSpec::bitonic(),
            &[
                ("bsp", bitonic::bsp),
                ("mp_bsp", bitonic::mp_bsp),
                ("bpram", bitonic::bpram),
            ],
        ),
        (
            "samplesort",
            DomainSpec::samplesort(),
            &[("bsp", samplesort::bsp), ("bpram", samplesort::bpram)],
        ),
        (
            "apsp",
            DomainSpec::apsp(),
            &[
                ("bsp", apsp::bsp),
                ("mp_bsp", apsp::mp_bsp),
                ("ebsp", apsp::ebsp),
                ("gcel_refined", apsp::gcel_refined),
            ],
        ),
        (
            "lu",
            DomainSpec::lu(),
            &[("bsp", lu::bsp), ("bpram", lu::bpram)],
        ),
        (
            "parallel_radix",
            DomainSpec::parallel_radix(),
            &[
                ("bsp", parallel_radix::bsp),
                ("bpram", parallel_radix::bpram),
            ],
        ),
    ];
    families
        .into_iter()
        .flat_map(|(family, domain, models)| {
            models.iter().map(move |&(model, build)| ClosedForm {
                family,
                model,
                domain,
                build,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainViolation;
    use crate::params::{cm5, gcel, maspar, unit_env};
    use pcm_core::dim::Dim;

    fn machines() -> Vec<MachineParams> {
        vec![maspar(), gcel(), cm5()]
    }

    #[test]
    fn every_predictor_types_as_microseconds() {
        let env = unit_env();
        for m in machines() {
            for pred in all() {
                let n = 4 * pred.domain().least_n(m.p);
                let dim = pred.symbolic(&m, n).dim(&env).unwrap_or_else(|e| {
                    panic!("{}/{} on {}: {e}", pred.family(), pred.model(), m.name)
                });
                assert_eq!(
                    dim,
                    Dim::US,
                    "{}/{} on {} has dimension {dim}",
                    pred.family(),
                    pred.model(),
                    m.name
                );
            }
        }
    }

    #[test]
    fn predict_enforces_the_declared_domain() {
        let preds = all();
        let domain = |family: &str| {
            let pred = preds.iter().find(|p| p.family() == family);
            pred.expect("family registered").domain()
        };
        // On the GCel (p = 64) q_for(64) = 4: n must be a multiple of 16.
        assert!(domain("matmul").check(64, 64).is_ok());
        assert_eq!(
            domain("matmul").check(65, 64),
            Err(DomainViolation::NotDivisible { n: 65, divisor: 16 })
        );
        assert!(domain("apsp").check(64, 64).is_ok());
        assert_eq!(
            domain("apsp").check(63, 64),
            Err(DomainViolation::NotDivisible { n: 63, divisor: 8 })
        );
        // A 6-processor machine breaks every shape requirement.
        assert_eq!(
            domain("bitonic").check(128, 6),
            Err(DomainViolation::PNotPowerOfTwo { p: 6 })
        );
        assert_eq!(
            domain("apsp").check(128, 6),
            Err(DomainViolation::PNotPerfectSquare { p: 6 })
        );
        // Parallel radix manages 256 buckets: at most 256 processors.
        assert_eq!(
            domain("parallel_radix").check(16, 512),
            Err(DomainViolation::PTooLarge { p: 512, max: 256 })
        );
        assert_eq!(
            domain("matmul").check(16, 0),
            Err(DomainViolation::PTooSmall { p: 0, min: 1 })
        );
    }

    #[test]
    fn registry_is_complete_and_deterministically_ordered() {
        let preds = all();
        assert_eq!(preds.len(), 16);
        let names: Vec<String> = preds
            .iter()
            .map(|p| format!("{}/{}", p.family(), p.model()))
            .collect();
        let mut sorted_pairs = names.clone();
        sorted_pairs.dedup();
        assert_eq!(sorted_pairs.len(), 16, "duplicate predictor registered");
        assert_eq!(names[0], "matmul/bsp");
        assert_eq!(names[15], "parallel_radix/bpram");
    }

    #[test]
    fn apsp_hint_freezes_the_doubling_phase() {
        // MasPar, sqrt(P) = 32: n = 512 has one doubling step, n = 1024
        // has none — the two hints must build different expressions.
        let m = maspar();
        let preds = all();
        let apsp_bsp = preds
            .iter()
            .find(|p| p.family() == "apsp" && p.model() == "bsp")
            .expect("apsp/bsp registered");
        let with = apsp_bsp.symbolic(&m, 512);
        let without = apsp_bsp.symbolic(&m, 1024);
        assert_ne!(with, without);
        // Evaluation builds at its own size: at n = 512 that is the
        // expression with the doubling step, which the one frozen at
        // n = 1024 undercounts.
        let at_512 = apsp_bsp.eval(&m, 512).as_micros();
        let with_512 = with.eval(&bindings(&m, 512)).expect("eval");
        assert_eq!(with_512.to_bits(), at_512.to_bits());
        assert!(without.eval(&bindings(&m, 512)).expect("eval") < at_512);
    }
}
