//! Per-algorithm closed-form running-time predictions — the formulas of
//! Section 4 of the paper, each stated once as a typed [`Expr`] over the
//! [`crate::params::unit_env`] symbols.
//!
//! A builder takes the machine and an `n_hint` and returns the formula
//! with the machine's structural counts (`P`, `q`, merge steps) baked in
//! as constants and the problem size left as the free symbol `n`. The
//! figures evaluate a builder with [`eval`]; the `pcm-sym` verifier
//! certifies the same expression (units, dominance, leading terms,
//! crossovers) through [`crate::symbolic::all`].
//!
//! [`Expr::eval`] folds sums and products left to right, so a builder's
//! term order is its floating-point operation order. `pcm-sym` pins the
//! resulting bits (rule S04 and the `max_ulp` of `SYM_report.json`), so a
//! reordering that moves a plotted value's last bit shows up there.
//!
//! One formula is not a fixed polynomial in `n`: the APSP broadcast adds a
//! `log2(sqrt(P)/M)`-step doubling phase whose step count varies with `n`.
//! The builders therefore freeze that step count at `n_hint`, and [`eval`]
//! builds each expression at the size it evaluates.

use crate::params::MachineParams;
use crate::symbolic::bindings;
use pcm_core::symexpr::Expr;
use pcm_core::SimTime;

pub mod apsp;
pub mod bitonic;
pub mod lu;
pub mod matmul;
pub mod parallel_radix;
pub mod samplesort;

/// A closed-form builder: the formula on machine `m`, with any piecewise
/// step count frozen at the size hint.
pub type Build = fn(&MachineParams, usize) -> Expr;

/// The predicted running time of `build` on `m` at size `n`: the
/// expression built at `n_hint = n`, evaluated under [`bindings`]`(m, n)`.
pub fn eval(build: Build, m: &MachineParams, n: usize) -> SimTime {
    let us = build(m, n)
        .eval(&bindings(m, n))
        .expect("bindings() binds every symbol a builder uses on its machine");
    SimTime::from_micros(us)
}

/// The problem-size symbol.
fn n_sym() -> Expr {
    Expr::sym("n")
}

fn num(v: f64) -> Expr {
    Expr::num(v)
}

/// Evaluates a sub-expression on `m` at size `n` (the unit tests' view of
/// a formula's phases).
#[cfg(test)]
fn eval_at(e: &Expr, m: &MachineParams, n: usize) -> f64 {
    e.eval(&bindings(m, n)).expect("bound")
}
