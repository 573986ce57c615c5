//! The `(n, p)` domain of each algorithm family, stated once.
//!
//! Each of the paper's closed forms holds only on its family's lattice:
//! `q² | N` for the 3D matmul, `√P | N` for APSP and LU, `P = 2^k` for
//! the sorts. The same lattice is where the algorithm runs, so one
//! [`DomainSpec`] per family serves every reader: the family's run
//! function in `pcm-algos` checks it at entry, the workload catalog
//! carries it as the family's domain, the `pcm-audit` A06 certificate
//! restricts its shape grid to it, and `pcm-sym` checks every figure
//! grid point against it (rule S02) through [`crate::ClosedForm::domain`].

use crate::predict::matmul::q_for;
use std::fmt;

/// A violated domain precondition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DomainViolation {
    /// `n` is not a positive multiple of the declared divisor for this `p`.
    NotDivisible {
        /// Requested size.
        n: usize,
        /// Required divisor.
        divisor: usize,
    },
    /// `p` is below the minimum of one processor.
    PTooSmall {
        /// Requested processor count.
        p: usize,
        /// The minimum, 1.
        min: usize,
    },
    /// `p` is above the declared maximum.
    PTooLarge {
        /// Requested processor count.
        p: usize,
        /// Declared maximum.
        max: usize,
    },
    /// The family needs a power-of-two processor count.
    PNotPowerOfTwo {
        /// Requested processor count.
        p: usize,
    },
    /// The family needs a perfect-square processor count.
    PNotPerfectSquare {
        /// Requested processor count.
        p: usize,
    },
}

impl fmt::Display for DomainViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainViolation::NotDivisible { n, divisor } => {
                write!(f, "n = {n} is not a multiple of {divisor}")
            }
            DomainViolation::PTooSmall { p, min } => write!(f, "p = {p} below minimum {min}"),
            DomainViolation::PTooLarge { p, max } => write!(f, "p = {p} above maximum {max}"),
            DomainViolation::PNotPowerOfTwo { p } => write!(f, "p = {p} is not a power of two"),
            DomainViolation::PNotPerfectSquare { p } => {
                write!(f, "p = {p} is not a perfect square")
            }
        }
    }
}

/// The `(n, p)` points one family runs on and its closed forms hold at.
/// Every family needs at least one processor and a positive `n`.
#[derive(Clone, Copy, Debug)]
pub struct DomainSpec {
    /// `n` must be a positive multiple of this (as a function of `p`);
    /// e.g. `q²` for the cube-blocked matmul, `sqrt(p)` for APSP/LU.
    pub n_divisor: fn(p: usize) -> usize,
    /// Largest processor count the family runs on.
    pub max_p: usize,
    /// The step structure needs `p` to be a power of two.
    pub power_of_two_p: bool,
    /// The blocking needs `p` to be a perfect square.
    pub perfect_square_p: bool,
}

impl DomainSpec {
    /// Every `n ≥ 1` on every `p ≥ 1`.
    pub const fn any() -> DomainSpec {
        DomainSpec {
            n_divisor: |_| 1,
            max_p: usize::MAX,
            power_of_two_p: false,
            perfect_square_p: false,
        }
    }

    /// The 3D matmul: `n` a multiple of `q²`, `q = ⌊∛p⌋`. Below `p = 8`
    /// the cube is one processor (`q = 1`).
    pub const fn matmul() -> DomainSpec {
        DomainSpec {
            n_divisor: |p| q_for(p) * q_for(p),
            ..DomainSpec::any()
        }
    }

    /// Bitonic sort: a power-of-two `p`, any number of keys per processor.
    pub const fn bitonic() -> DomainSpec {
        DomainSpec {
            power_of_two_p: true,
            ..DomainSpec::any()
        }
    }

    /// Sample sort: its splitter phase is a bitonic sort (`p = 2^k`), and
    /// the JáJá–Ryu block routing tiles the processors `sqrt(p)`-wise.
    pub const fn samplesort() -> DomainSpec {
        DomainSpec {
            power_of_two_p: true,
            perfect_square_p: true,
            ..DomainSpec::any()
        }
    }

    /// Parallel radix sort: every processor manages `256/p` of the 256
    /// buckets, so `p` is a power of two no larger than 256.
    pub const fn parallel_radix() -> DomainSpec {
        DomainSpec {
            max_p: 256,
            power_of_two_p: true,
            ..DomainSpec::any()
        }
    }

    /// Blocked Floyd APSP: a square processor grid that tiles `n` exactly.
    pub const fn apsp() -> DomainSpec {
        DomainSpec {
            n_divisor: |p| p.isqrt(),
            perfect_square_p: true,
            ..DomainSpec::any()
        }
    }

    /// Blocked LU: the same square grid as [`DomainSpec::apsp`].
    pub const fn lu() -> DomainSpec {
        DomainSpec::apsp()
    }

    /// Checks a `(n, p)` point against the declared preconditions.
    ///
    /// # Errors
    /// The first violated precondition, in a fixed check order
    /// (`p` shape before `n` divisibility, so messages point at the root
    /// cause when both fail).
    pub fn check(&self, n: usize, p: usize) -> Result<(), DomainViolation> {
        if p == 0 {
            return Err(DomainViolation::PTooSmall { p, min: 1 });
        }
        if p > self.max_p {
            return Err(DomainViolation::PTooLarge { p, max: self.max_p });
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
        let d = (self.n_divisor)(p);
        if d == 0 || n == 0 || !n.is_multiple_of(d) {
            return Err(DomainViolation::NotDivisible { n, divisor: d });
        }
        Ok(())
    }

    /// The smallest `n` the domain admits at an admitted `p`.
    pub fn least_n(&self, p: usize) -> usize {
        (self.n_divisor)(p).max(1)
    }

    /// The entry check of a run function.
    ///
    /// # Panics
    /// With the [`DomainViolation`]'s text, prefixed by `family`, when
    /// `(n, p)` lies outside the domain.
    #[track_caller]
    pub fn require(&self, family: &str, n: usize, p: usize) {
        if let Err(v) = self.check(n, p) {
            panic!("{family} outside its domain: {v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_n_and_zero_p_are_outside_every_domain() {
        for (name, d) in [
            ("any", DomainSpec::any()),
            ("matmul", DomainSpec::matmul()),
            ("bitonic", DomainSpec::bitonic()),
            ("samplesort", DomainSpec::samplesort()),
            ("parallel_radix", DomainSpec::parallel_radix()),
            ("apsp", DomainSpec::apsp()),
            ("lu", DomainSpec::lu()),
        ] {
            for p in [1, 16, 64] {
                let n = d.least_n(p);
                assert_eq!(d.check(n, p), Ok(()), "{name}: least n at p = {p}");
                assert!(d.check(0, p).is_err(), "{name}: n = 0 at p = {p}");
                assert_eq!(
                    d.check(n, 0),
                    Err(DomainViolation::PTooSmall { p: 0, min: 1 }),
                    "{name}: p = 0 at n = {n}"
                );
            }
        }
    }
}
