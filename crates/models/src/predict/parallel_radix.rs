//! Closed-form predictions for the parallel radix sort extension.
//!
//! Each of the `32/r` passes performs: a local histogram (`gamma`-rate scan
//! of `M` keys plus `2^r` bucket slots), a count exchange and its reply
//! (two supersteps moving `2^r` words per processor), the key routing
//! (`2·M` words per processor — `(position, key)` pairs), and the local
//! placement of the `M` received keys.

use super::{n_sym, num};
use crate::params::MachineParams;
use pcm_core::symexpr::Expr;
use pcm_core::units::exact_f64;

/// Radix width used by the implementation.
pub const RADIX_BITS: usize = 8;

fn passes() -> f64 {
    32.0 / exact_f64(RADIX_BITS)
}

fn radix() -> f64 {
    exact_f64(1usize << RADIX_BITS)
}

/// Local histogram of one pass: `gamma·M + beta·2^r`.
fn histogram() -> Expr {
    Expr::add(vec![
        Expr::mul(vec![Expr::sym("radix_gamma"), Expr::ops(n_sym())]),
        Expr::mul(vec![Expr::sym("radix_beta"), Expr::ops(num(radix()))]),
    ])
}

/// `32/r` passes of histogram, count scans, routing and placing.
fn over_passes(scans: Expr, routing: Expr) -> Expr {
    let placing = Expr::mul(vec![Expr::sym("copy"), Expr::words(n_sym())]);
    Expr::mul(vec![
        num(passes()),
        Expr::add(vec![histogram(), scans, routing, placing]),
    ])
}

/// BSP prediction: per pass the counts go out and the prefixes and totals
/// come back (`2·(g·2^r + L)`), and the keys travel as `(position, key)`
/// pairs (`g·2·M + L`).
pub fn bsp(_m: &MachineParams, _n_hint: usize) -> Expr {
    let scans = Expr::mul(vec![
        num(2.0),
        Expr::add(vec![
            Expr::mul(vec![Expr::sym("g"), Expr::words(num(radix()))]),
            Expr::sym("L"),
        ]),
    ]);
    let routing = Expr::add(vec![
        Expr::mul(vec![Expr::sym("g"), Expr::words(num(2.0)), n_sym()]),
        Expr::sym("L"),
    ]);
    over_passes(scans, routing)
}

/// MP-BPRAM prediction: the exchanges become at most `P - 1` staggered
/// blocks per processor.
pub fn bpram(m: &MachineParams, _n_hint: usize) -> Expr {
    let p = exact_f64(m.p);
    let bps = p - 1.0;
    let scans = Expr::mul(vec![
        num(2.0),
        num(bps),
        Expr::add(vec![
            Expr::div(
                Expr::mul(vec![
                    Expr::sym("sigma"),
                    Expr::sym("w"),
                    Expr::words(num(radix())),
                ]),
                num(p),
            ),
            Expr::sym("ell"),
        ]),
    ]);
    let routing = Expr::mul(vec![
        num(bps),
        Expr::add(vec![
            Expr::div(
                Expr::mul(vec![
                    Expr::sym("sigma"),
                    Expr::sym("w"),
                    Expr::words(num(2.0)),
                    n_sym(),
                ]),
                num(p),
            ),
            Expr::sym("ell"),
        ]),
    ]);
    over_passes(scans, routing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{cm5, gcel};
    use crate::predict::{bitonic, eval};

    #[test]
    fn radix_beats_bitonic_for_large_inputs_on_the_cm5() {
        let p = cm5();
        // Radix moves Theta(M) words per pass x 4 passes = 8M words total;
        // bitonic moves 21·M — the constant-pass structure wins.
        let m = 4096;
        assert!(eval(bpram, &p, m) < eval(bitonic::bpram, &p, m));
        assert!(eval(bsp, &p, m) < eval(bitonic::bsp, &p, m));
    }

    #[test]
    fn startup_costs_dominate_small_inputs_on_the_gcel() {
        let p = gcel();
        // With 63 block startups per exchange and three exchanges per
        // pass, tiny inputs are painful.
        let small = eval(bpram, &p, 16).as_micros();
        assert!(small > 4.0 * 3.0 * 63.0 * p.ell * 0.5, "small = {small}");
    }

    #[test]
    fn predictions_grow_linearly_in_m() {
        let p = cm5();
        let t1 = eval(bsp, &p, 1000).as_micros();
        let t2 = eval(bsp, &p, 2000).as_micros();
        let ratio = t2 / t1;
        assert!(ratio > 1.5 && ratio < 2.1, "ratio = {ratio}");
    }
}
