//! The closed-form registry the `pcm-sym` verifier consumes.
//!
//! Each predictor in [`crate::predict`] appears here as a [`ClosedForm`]:
//! its family and model name, its [`DomainSpec`] — the divisibility and
//! processor-shape preconditions under which the formula is meaningful
//! (rule S02) — and its [`crate::predict`] builder, the one statement of
//! the formula. The verifier certifies that expression (rules S01, S03,
//! S05, S06) and checks its values against a pinned table of the values
//! the figures have always plotted (S04); the figures evaluate the same
//! builder with [`crate::predict::eval`].

use crate::params::{EbspParams, MachineParams};
use crate::predict::{self, apsp, bitonic, lu, matmul, parallel_radix, samplesort, Build};
use pcm_core::symexpr::{Bindings, Expr};
use pcm_core::units::exact_f64;
use pcm_core::SimTime;
use std::fmt;

/// A violated domain precondition (rule S02).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DomainViolation {
    /// `n` is below the declared minimum.
    NTooSmall {
        /// Requested size.
        n: usize,
        /// Declared minimum.
        min: usize,
    },
    /// `n` is not a multiple of the declared divisor for this `p`.
    NotDivisible {
        /// Requested size.
        n: usize,
        /// Required divisor.
        divisor: usize,
    },
    /// `p` is below the declared minimum.
    PTooSmall {
        /// Requested processor count.
        p: usize,
        /// Declared minimum.
        min: usize,
    },
    /// The formula needs a power-of-two processor count.
    PNotPowerOfTwo {
        /// Requested processor count.
        p: usize,
    },
    /// The formula needs a perfect-square processor count.
    PNotPerfectSquare {
        /// Requested processor count.
        p: usize,
    },
}

impl fmt::Display for DomainViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainViolation::NTooSmall { n, min } => write!(f, "n = {n} below minimum {min}"),
            DomainViolation::NotDivisible { n, divisor } => {
                write!(f, "n = {n} is not a multiple of {divisor}")
            }
            DomainViolation::PTooSmall { p, min } => write!(f, "p = {p} below minimum {min}"),
            DomainViolation::PNotPowerOfTwo { p } => write!(f, "p = {p} is not a power of two"),
            DomainViolation::PNotPerfectSquare { p } => {
                write!(f, "p = {p} is not a perfect square")
            }
        }
    }
}

/// Declared domain preconditions of one closed form (rule S02).
#[derive(Clone, Copy, Debug)]
pub struct DomainSpec {
    /// Smallest meaningful problem size.
    pub min_n: usize,
    /// `n` must be a positive multiple of this (as a function of `p`);
    /// e.g. `q²` for the cube-blocked matmul, `sqrt(p)` for APSP/LU.
    pub n_divisor: fn(p: usize) -> usize,
    /// Smallest meaningful processor count.
    pub min_p: usize,
    /// The formula's step structure needs `p` to be a power of two.
    pub power_of_two_p: bool,
    /// The formula's blocking needs `p` to be a perfect square.
    pub perfect_square_p: bool,
}

impl DomainSpec {
    /// Checks a `(n, p)` point against the declared preconditions.
    ///
    /// # Errors
    /// The first violated precondition, in a fixed check order
    /// (`p` shape before `n` divisibility, so messages point at the root
    /// cause when both fail).
    pub fn check(&self, n: usize, p: usize) -> Result<(), DomainViolation> {
        if p < self.min_p {
            return Err(DomainViolation::PTooSmall { p, min: self.min_p });
        }
        if self.power_of_two_p && !p.is_power_of_two() {
            return Err(DomainViolation::PNotPowerOfTwo { p });
        }
        if self.perfect_square_p {
            let s = p.isqrt();
            if s * s != p {
                return Err(DomainViolation::PNotPerfectSquare { p });
            }
        }
        if n < self.min_n {
            return Err(DomainViolation::NTooSmall { n, min: self.min_n });
        }
        let d = (self.n_divisor)(p);
        if d == 0 || n == 0 || !n.is_multiple_of(d) {
            return Err(DomainViolation::NotDivisible { n, divisor: d });
        }
        Ok(())
    }
}

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

    /// Domain-checked evaluation: the closed form where the preconditions
    /// hold, a [`DomainViolation`] otherwise.
    ///
    /// # Errors
    /// The first violated [`DomainSpec`] precondition.
    pub fn predict(&self, m: &MachineParams, n: usize) -> Result<SimTime, DomainViolation> {
        self.domain.check(n, m.p)?;
        Ok(self.eval(m, n))
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

fn any_n(_p: usize) -> usize {
    1
}

fn matmul_divisor(p: usize) -> usize {
    let q = matmul::q_for(p);
    q * q
}

fn sqrt_p_divisor(p: usize) -> usize {
    p.isqrt()
}

fn matmul_domain() -> DomainSpec {
    DomainSpec {
        min_n: 2,
        n_divisor: matmul_divisor,
        min_p: 8,
        power_of_two_p: false,
        perfect_square_p: false,
    }
}

fn sort_domain() -> DomainSpec {
    DomainSpec {
        min_n: 1,
        n_divisor: any_n,
        min_p: 2,
        power_of_two_p: true,
        perfect_square_p: false,
    }
}

fn samplesort_domain() -> DomainSpec {
    DomainSpec {
        min_n: 1,
        n_divisor: any_n,
        min_p: 4,
        power_of_two_p: true,
        // The JáJá–Ryu block routing tiles the processors sqrt(P)-wise.
        perfect_square_p: true,
    }
}

fn blocked_domain() -> DomainSpec {
    DomainSpec {
        min_n: 2,
        n_divisor: sqrt_p_divisor,
        min_p: 4,
        power_of_two_p: false,
        perfect_square_p: true,
    }
}

/// Every closed-form predictor in the workspace: 6 families × their
/// models, 16 predictors in all. Ordering is fixed (family-major, model
/// order bsp / mp_bsp / bpram / ebsp-refinements) so report output is
/// deterministic.
pub fn all() -> Vec<ClosedForm> {
    vec![
        ClosedForm {
            family: "matmul",
            model: "bsp",
            domain: matmul_domain(),
            build: matmul::bsp,
        },
        ClosedForm {
            family: "matmul",
            model: "mp_bsp",
            domain: matmul_domain(),
            build: matmul::mp_bsp,
        },
        ClosedForm {
            family: "matmul",
            model: "bpram",
            domain: matmul_domain(),
            build: matmul::bpram,
        },
        ClosedForm {
            family: "bitonic",
            model: "bsp",
            domain: sort_domain(),
            build: bitonic::bsp,
        },
        ClosedForm {
            family: "bitonic",
            model: "mp_bsp",
            domain: sort_domain(),
            build: bitonic::mp_bsp,
        },
        ClosedForm {
            family: "bitonic",
            model: "bpram",
            domain: sort_domain(),
            build: bitonic::bpram,
        },
        ClosedForm {
            family: "samplesort",
            model: "bsp",
            domain: samplesort_domain(),
            build: samplesort::bsp,
        },
        ClosedForm {
            family: "samplesort",
            model: "bpram",
            domain: samplesort_domain(),
            build: samplesort::bpram,
        },
        ClosedForm {
            family: "apsp",
            model: "bsp",
            domain: blocked_domain(),
            build: apsp::bsp,
        },
        ClosedForm {
            family: "apsp",
            model: "mp_bsp",
            domain: blocked_domain(),
            build: apsp::mp_bsp,
        },
        ClosedForm {
            family: "apsp",
            model: "ebsp",
            domain: blocked_domain(),
            build: apsp::ebsp,
        },
        ClosedForm {
            family: "apsp",
            model: "gcel_refined",
            domain: blocked_domain(),
            build: apsp::gcel_refined,
        },
        ClosedForm {
            family: "lu",
            model: "bsp",
            domain: blocked_domain(),
            build: lu::bsp,
        },
        ClosedForm {
            family: "lu",
            model: "bpram",
            domain: blocked_domain(),
            build: lu::bpram,
        },
        ClosedForm {
            family: "parallel_radix",
            model: "bsp",
            domain: sort_domain(),
            build: parallel_radix::bsp,
        },
        ClosedForm {
            family: "parallel_radix",
            model: "bpram",
            domain: sort_domain(),
            build: parallel_radix::bpram,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{cm5, gcel, maspar, unit_env};
    use pcm_core::dim::Dim;

    fn machines() -> Vec<MachineParams> {
        vec![maspar(), gcel(), cm5()]
    }

    fn in_domain_n(p: &ClosedForm, machine_p: usize) -> usize {
        let d = (p.domain().n_divisor)(machine_p);
        (d * 4).max(p.domain().min_n.next_multiple_of(d))
    }

    #[test]
    fn every_predictor_types_as_microseconds() {
        let env = unit_env();
        for m in machines() {
            for pred in all() {
                let n = in_domain_n(&pred, m.p);
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
        let m = gcel(); // p = 64
        let preds = all();
        let matmul_bsp = &preds[0];
        // q_for(64) = 4 -> n must be a multiple of 16.
        assert!(matmul_bsp.predict(&m, 64).is_ok());
        assert_eq!(
            matmul_bsp.predict(&m, 65),
            Err(DomainViolation::NotDivisible { n: 65, divisor: 16 })
        );
        let apsp_bsp = preds
            .iter()
            .find(|p| p.family() == "apsp" && p.model() == "bsp")
            .expect("apsp/bsp registered");
        assert!(apsp_bsp.predict(&m, 64).is_ok());
        assert_eq!(
            apsp_bsp.predict(&m, 63),
            Err(DomainViolation::NotDivisible { n: 63, divisor: 8 })
        );
        // A 6-processor machine breaks every shape requirement.
        let mut tiny = gcel();
        tiny.p = 6;
        let bitonic_bsp = preds
            .iter()
            .find(|p| p.family() == "bitonic")
            .expect("bitonic registered");
        assert_eq!(
            bitonic_bsp.predict(&tiny, 128),
            Err(DomainViolation::PNotPowerOfTwo { p: 6 })
        );
        assert_eq!(
            apsp_bsp.predict(&tiny, 128),
            Err(DomainViolation::PNotPerfectSquare { p: 6 })
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
