//! Closed-form predictions for the blocked LU decomposition extension.
//!
//! The paper notes APSP's communication structure "is similar to many
//! other important algorithms such as LU decomposition"; the cost
//! expressions mirror the APSP ones: per iteration one pivot broadcast
//! down a processor column, one multiplier-column broadcast along the
//! rows, one pivot-row broadcast down the columns, and an `M²` rank-1
//! update — summed over the `N` iterations, with `M = N/sqrt(P)`.

use super::{n_sym, num};
use crate::params::MachineParams;
use pcm_core::symexpr::Expr;
use pcm_core::units::exact_f64;

/// `M = N/sqrt(P)` and the `max(sqrt(P) - 1, 1)` segment-broadcast
/// fan-out.
fn block_side_and_steps(m: &MachineParams) -> (Expr, f64) {
    let sq = exact_f64(m.p).sqrt();
    (Expr::div(n_sym(), num(sq)), (sq - 1.0).max(1.0))
}

/// BSP prediction: per iteration the pivot broadcast is a 1-relation down
/// `sqrt(P)` processors (`g + L`), and the two segment broadcasts are
/// `(sqrt(P)-1)`-fold sends of `M` words (`g·M·(sqrt(P)-1)/sqrt(P)`-ish,
/// charged as the full `g·M + L` superstep the implementation uses).
pub fn bsp(m: &MachineParams, _n_hint: usize) -> Expr {
    let (mm, steps) = block_side_and_steps(m);
    let per_iter = Expr::add(vec![
        // Pivot broadcast: a 1-relation superstep.
        Expr::add(vec![
            Expr::mul(vec![Expr::sym("g"), Expr::words(num(1.0))]),
            Expr::sym("L"),
        ]),
        // L and U broadcasts.
        Expr::mul(vec![
            num(2.0),
            Expr::add(vec![
                Expr::mul(vec![Expr::sym("g"), Expr::words(mm.clone()), num(steps)]),
                Expr::sym("L"),
            ]),
        ]),
        // Rank-1 update.
        Expr::mul(vec![Expr::sym("alpha"), Expr::ops(mm.clone()), mm]),
    ]);
    Expr::mul(vec![n_sym(), per_iter])
}

/// MP-BPRAM prediction: each broadcast is `sqrt(P)-1` staggered block
/// steps of `M` words.
pub fn bpram(m: &MachineParams, _n_hint: usize) -> Expr {
    let (mm, steps) = block_side_and_steps(m);
    let per_iter = Expr::add(vec![
        // Pivot block.
        Expr::add(vec![
            Expr::mul(vec![
                Expr::sym("sigma"),
                Expr::sym("w"),
                Expr::words(num(1.0)),
            ]),
            Expr::sym("ell"),
        ]),
        Expr::mul(vec![
            num(2.0),
            num(steps),
            Expr::add(vec![
                Expr::mul(vec![
                    Expr::sym("sigma"),
                    Expr::sym("w"),
                    Expr::words(mm.clone()),
                ]),
                Expr::sym("ell"),
            ]),
        ]),
        Expr::mul(vec![Expr::sym("alpha"), Expr::ops(mm.clone()), mm]),
    ]);
    Expr::mul(vec![n_sym(), per_iter])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{cm5, gcel};
    use crate::predict::eval;

    #[test]
    fn predictions_scale_cubically_in_n() {
        let m = cm5();
        let t1 = eval(bsp, &m, 64).as_micros();
        let t2 = eval(bsp, &m, 128).as_micros();
        // Compute term is alpha·N·M² = alpha·N³/P: doubling N multiplies
        // the compute part by 8 and the communication part by 4.
        assert!(t2 / t1 > 3.5 && t2 / t1 < 8.5, "ratio = {}", t2 / t1);
    }

    #[test]
    fn blocks_beat_words_on_the_gcel() {
        let m = gcel();
        assert!(eval(bpram, &m, 128) < eval(bsp, &m, 128));
    }
}
