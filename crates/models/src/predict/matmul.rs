//! Closed-form running-time predictions for the 3D matrix multiplication
//! algorithm (paper Section 4.1).
//!
//! The algorithm uses `P = q³` processors arranged as a `q x q x q` cube.
//! On machines whose processor count is not a perfect cube (the 1024-PE
//! MasPar) the largest embedded cube is used: `q = 10`, `P_eff = 1000`.

use super::{n_sym, num};
use crate::params::MachineParams;
use pcm_core::symexpr::Expr;
use pcm_core::units::exact_f64;
use pcm_core::SimTime;

/// The cube side `q` used on a machine with `p` processors: the largest
/// `q` with `q³ <= p`.
pub fn q_for(p: usize) -> usize {
    // cbrt(usize::MAX) < 2^22, so the estimate always fits.
    #[allow(clippy::cast_possible_truncation)]
    let mut q = (p as f64).cbrt().floor() as usize;
    // Guard against floating point under/overshoot.
    while (q + 1) * (q + 1) * (q + 1) <= p {
        q += 1;
    }
    while q > 1 && q * q * q > p {
        q -= 1;
    }
    q.max(1)
}

/// Shared compute part: `alpha_mm·N³/P_eff + copy·N²/q²`.
fn compute(q: usize) -> Expr {
    let p_eff = exact_f64(q * q * q);
    let qf = exact_f64(q);
    Expr::add(vec![
        Expr::div(
            Expr::mul(vec![
                Expr::sym("alpha_mm"),
                Expr::ops(Expr::powi(n_sym(), 3)),
            ]),
            num(p_eff),
        ),
        Expr::div(
            Expr::mul(vec![Expr::sym("copy"), Expr::words(n_sym()), n_sym()]),
            num(qf * qf),
        ),
    ])
}

/// BSP prediction:
/// `T = alpha·N³/P + beta·N²/q² + 3·g·N²/q² + 2·L`.
pub fn bsp(m: &MachineParams, _n_hint: usize) -> Expr {
    let q = q_for(m.p);
    let qf = exact_f64(q);
    Expr::add(vec![
        compute(q),
        Expr::add(vec![
            Expr::div(
                Expr::mul(vec![
                    num(3.0),
                    Expr::sym("g"),
                    Expr::words(n_sym()),
                    n_sym(),
                ]),
                num(qf * qf),
            ),
            Expr::mul(vec![num(2.0), Expr::sym("L")]),
        ]),
    ])
}

/// MP-BSP prediction (every word message is its own communication step):
/// `T = alpha·N³/P + beta·N²/q² + 3·(g+L)·N²/q²`.
pub fn mp_bsp(m: &MachineParams, _n_hint: usize) -> Expr {
    let q = q_for(m.p);
    let qf = exact_f64(q);
    Expr::add(vec![
        compute(q),
        Expr::div(
            Expr::mul(vec![
                num(3.0),
                Expr::add(vec![Expr::sym("g"), Expr::per_word(Expr::sym("L"))]),
                Expr::words(n_sym()),
                n_sym(),
            ]),
            num(qf * qf),
        ),
    ])
}

/// MP-BPRAM prediction (block transfers of `N²/P` words):
/// `T = alpha·N³/P + beta·N²/q² + 3·q·(sigma·w·N²/P + ell)`.
pub fn bpram(m: &MachineParams, _n_hint: usize) -> Expr {
    let q = q_for(m.p);
    let p_eff = exact_f64(q * q * q);
    Expr::add(vec![
        compute(q),
        Expr::mul(vec![
            num(3.0),
            num(exact_f64(q)),
            Expr::add(vec![
                Expr::div(
                    Expr::mul(vec![
                        Expr::sym("sigma"),
                        Expr::sym("w"),
                        Expr::words(n_sym()),
                        n_sym(),
                    ]),
                    num(p_eff),
                ),
                Expr::sym("ell"),
            ]),
        ]),
    ])
}

/// Megaflops implied by a prediction (`2·N³` flops).
pub fn mflops(n: usize, t: SimTime) -> f64 {
    pcm_core::units::mflops(pcm_core::units::matmul_flops(n), t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{cm5, maspar};
    use crate::predict::eval;

    #[test]
    fn q_for_common_machine_sizes() {
        assert_eq!(q_for(64), 4);
        assert_eq!(q_for(1024), 10, "largest cube inside 1024 PEs is 1000");
        assert_eq!(q_for(1000), 10);
        assert_eq!(q_for(8), 2);
        assert_eq!(q_for(1), 1);
        assert_eq!(q_for(7), 1);
        assert_eq!(q_for(27), 3);
    }

    #[test]
    fn cm5_bsp_prediction_matches_the_paper_anchor() {
        // "even for N = 256, the BSP model predicts an execution time of
        // 188 milliseconds". With alpha = 0.29 the compute part alone is
        // 0.29·256³/64 ≈ 76 ms and the communication part 3·9.1·256²/16
        // ≈ 112 ms.
        let ms = eval(bsp, &cm5(), 256).as_millis();
        assert!((ms - 188.0).abs() < 8.0, "predicted {ms} ms");
    }

    #[test]
    fn bpram_beats_bsp_on_cm5_at_large_n() {
        // Fig. 16: the long-message version is faster.
        let m = cm5();
        for n in [128usize, 256, 512, 1024] {
            assert!(eval(bpram, &m, n) < eval(bsp, &m, n), "n = {n}");
        }
    }

    #[test]
    fn mp_bsp_dominates_bsp_on_maspar() {
        // Without memory pipelining each word pays L: MP-BSP ≥ BSP cost.
        let m = maspar();
        assert!(eval(mp_bsp, &m, 300) > eval(bsp, &m, 300));
    }

    #[test]
    fn maspar_bpram_mflops_anchor() {
        // Fig. 19: "At N = 700, the measured performance of the MP-BPRAM
        // version is 39.9 Mflops".
        let mf = mflops(700, eval(bpram, &maspar(), 700));
        assert!((mf - 39.9).abs() < 4.0, "predicted {mf} Mflops");
    }

    #[test]
    fn cm5_bpram_mflops_anchor() {
        // Fig. 16/20: the MP-BPRAM version reaches ~370-400 Mflops at
        // N = 512 (measured 366, peaking at 372).
        let mf = mflops(512, eval(bpram, &cm5(), 512));
        assert!(mf > 330.0 && mf < 440.0, "predicted {mf} Mflops");
    }
}
