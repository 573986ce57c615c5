//! Closed-form predictions for bitonic sort with `M = N/P` keys per
//! processor (paper Section 4.2).
//!
//! The algorithm first radix-sorts locally, then runs `log P` merge
//! stages; stage `d` comprises `d` merge steps, each a linear merge plus a
//! full pairwise exchange of `M` keys:
//! `sum_{d=1}^{log P} d = log P (log P + 1)/2` steps in total.

use super::{n_sym, num};
use crate::params::MachineParams;
use pcm_core::symexpr::Expr;
use pcm_core::units::exact_f64;
use pcm_core::units::log2_exact;
use pcm_core::SimTime;

/// Number of merge steps: `log P · (log P + 1) / 2`.
pub fn merge_steps(p: usize) -> usize {
    let lg = log2_exact(p) as usize;
    lg * (lg + 1) / 2
}

/// Key width used throughout the reproduction (32-bit keys, 8-bit radix).
pub const KEY_BITS: usize = 32;
/// Radix width of the local sort.
pub const RADIX_BITS: usize = 8;

/// Cost of the local radix sort of `count` keys (paper Section 4.2.1):
/// `T_local_sort = (b/r)·(beta·2^r + gamma·count)` with the workspace-wide
/// 32-bit keys and 8-bit radix.
pub(crate) fn local_sort(count: Expr) -> Expr {
    let passes = exact_f64(KEY_BITS) / exact_f64(RADIX_BITS);
    let radix = exact_f64(1usize << RADIX_BITS);
    Expr::mul(vec![
        num(passes),
        Expr::add(vec![
            Expr::mul(vec![Expr::sym("radix_beta"), Expr::ops(num(radix))]),
            Expr::mul(vec![Expr::sym("radix_gamma"), Expr::ops(count)]),
        ]),
    ])
}

/// BSP cost of bitonic-sorting `count` keys per processor.
pub(crate) fn bsp_with(m: &MachineParams, count: Expr) -> Expr {
    let s = exact_f64(merge_steps(m.p));
    Expr::add(vec![
        local_sort(count.clone()),
        Expr::mul(vec![
            num(s),
            Expr::add(vec![
                Expr::mul(vec![Expr::sym("alpha"), Expr::ops(count.clone())]),
                Expr::mul(vec![Expr::sym("g"), Expr::words(count)]),
                Expr::sym("L"),
            ]),
        ]),
    ])
}

/// MP-BPRAM cost of bitonic-sorting `count` keys per processor.
pub(crate) fn bpram_with(m: &MachineParams, count: Expr) -> Expr {
    let s = exact_f64(merge_steps(m.p));
    Expr::add(vec![
        local_sort(count.clone()),
        Expr::mul(vec![
            num(s),
            Expr::add(vec![
                Expr::mul(vec![Expr::sym("alpha"), Expr::ops(count.clone())]),
                Expr::mul(vec![Expr::sym("sigma"), Expr::sym("w"), Expr::words(count)]),
                Expr::sym("ell"),
            ]),
        ]),
    ])
}

/// BSP prediction:
/// `T = T_local_sort + S·(alpha·M + g·M + L)` with `S = merge_steps(P)`.
pub fn bsp(m: &MachineParams, _n_hint: usize) -> Expr {
    bsp_with(m, n_sym())
}

/// MP-BSP prediction: each exchanged key is its own communication step:
/// `T = T_local_sort + S·(alpha·M + (g+L)·M)`.
pub fn mp_bsp(m: &MachineParams, _n_hint: usize) -> Expr {
    let s = exact_f64(merge_steps(m.p));
    Expr::add(vec![
        local_sort(n_sym()),
        Expr::mul(vec![
            num(s),
            Expr::add(vec![
                Expr::mul(vec![Expr::sym("alpha"), Expr::ops(n_sym())]),
                Expr::mul(vec![
                    Expr::add(vec![Expr::sym("g"), Expr::per_word(Expr::sym("L"))]),
                    Expr::words(n_sym()),
                ]),
            ]),
        ]),
    ])
}

/// MP-BPRAM prediction: each merge step exchanges one block of `M` words:
/// `T = T_local_sort + S·(alpha·M + sigma·w·M + ell)`.
pub fn bpram(m: &MachineParams, _n_hint: usize) -> Expr {
    bpram_with(m, n_sym())
}

/// "Time per key" as the figures plot it: total time divided by the number
/// of keys per processor.
pub fn per_key(total: SimTime, keys_per_proc: usize) -> f64 {
    total.as_micros() / exact_f64(keys_per_proc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{cm5, gcel, maspar};
    use crate::predict::{eval, eval_at};

    #[test]
    fn merge_step_counts() {
        assert_eq!(merge_steps(64), 21, "log 64 = 6, 6·7/2 = 21");
        assert_eq!(merge_steps(1024), 55, "log 1024 = 10, 10·11/2 = 55");
        assert_eq!(merge_steps(2), 1);
    }

    #[test]
    fn local_sort_formula() {
        let t = eval_at(&local_sort(num(1000.0)), &cm5(), 1000);
        let expect = 4.0 * (0.45 * 256.0 + 0.55 * 1000.0);
        assert!((t - expect).abs() < 1e-9);
        // The free symbol counts the keys when the sort is the local one.
        assert!((eval_at(&local_sort(n_sym()), &cm5(), 1000) - expect).abs() < 1e-9);
    }

    #[test]
    fn gcel_bsp_per_key_anchor() {
        // "With 4K keys per processor, the measured time per key of the
        // synchronized BSP version is 86.1 milliseconds" — the prediction
        // is close to that: 21·(alpha + g) ≈ 94 ms/key.
        let pk_ms = per_key(eval(bsp, &gcel(), 4096), 4096) / 1e3;
        assert!(pk_ms > 80.0 && pk_ms < 105.0, "per-key = {pk_ms} ms");
    }

    #[test]
    fn gcel_bpram_per_key_anchor() {
        // "whereas the MP-BPRAM variation requires only 1.36 milliseconds
        // per key" — almost two orders of magnitude difference.
        let pk_ms = per_key(eval(bpram, &gcel(), 4096), 4096) / 1e3;
        assert!(pk_ms > 0.8 && pk_ms < 1.8, "per-key = {pk_ms} ms");
        let ratio = per_key(eval(bsp, &gcel(), 4096), 4096) / (pk_ms * 1e3);
        assert!(ratio > 40.0, "BSP/BPRAM ratio = {ratio}");
    }

    #[test]
    fn maspar_bulk_gain_bound() {
        // Fig. 17: the MP-BPRAM version improves on MP-BSP by about 2.1,
        // bounded by (g+L)/(w·sigma) = 3.3.
        let m = maspar();
        let big = 4096;
        let ratio = eval(mp_bsp, &m, big) / eval(bpram, &m, big);
        assert!(ratio > 1.5 && ratio < 3.3, "ratio = {ratio}");
    }

    #[test]
    fn cm5_bpram_advantage_is_modest() {
        // On the CM-5 the ratio g/(w·sigma) is only 4.2, and local work
        // matters, so the gap stays small.
        let m = cm5();
        let ratio = eval(bsp, &m, 4096) / eval(bpram, &m, 4096);
        assert!(ratio > 1.0 && ratio < 4.2, "ratio = {ratio}");
    }

    #[test]
    fn per_key_divides_by_keys() {
        let t = SimTime::from_micros(1000.0);
        assert!((per_key(t, 10) - 100.0).abs() < 1e-12);
    }
}
