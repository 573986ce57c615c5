//! Closed-form predictions for sample sort (paper Section 4.3).
//!
//! Sample sort proceeds in three phases:
//!
//! 1. **splitter** — every processor draws `S` samples; the `P·S` samples
//!    are sorted with bitonic sort and `P-1` splitters are broadcast;
//! 2. **send** — keys are sorted locally, bucket boundaries found in
//!    `Theta(M + P)` time, destinations exchanged via a multi-scan, and the
//!    keys routed to their buckets;
//! 3. **sort buckets** — each bucket (at most `M_max` keys) is sorted
//!    locally.
//!
//! The MP-BPRAM variant replaces the irregular word traffic with block
//! transfers: the splitter broadcast becomes a `P x P` transpose
//! (`2·sqrt(P)` block steps), the multi-scan `4·sqrt(P)` block steps, and
//! the send substep uses the JáJá–Ryu routing scheme costing
//! `4·sqrt(P)·(4·sigma·w·N/P^1.5 + ell)`.
//!
//! Both predictions take `S` = [`SAMPLE_OVERSAMPLING`] and the bucket
//! bound `M_max = 2·M`.

use super::bitonic::{self, local_sort};
use super::{n_sym, num};
use crate::params::MachineParams;
use pcm_core::symexpr::Expr;
use pcm_core::units::exact_f64;

/// Oversampling ratio the sample-sort predictors assume (keys per
/// processor in the splitter bitonic sort).
pub const SAMPLE_OVERSAMPLING: usize = 64;

/// `M_max = 2·M` — the bucket-size convention the predictions use (a
/// factor-2 oversampling-quality bound).
fn m_max() -> Expr {
    Expr::mul(vec![num(2.0), n_sym()])
}

/// Local part of the send phase: `T_local_sort(M) + alpha·(M + P)`.
fn send_local(p: f64) -> Expr {
    Expr::add(vec![
        local_sort(n_sym()),
        Expr::mul(vec![
            Expr::sym("alpha"),
            Expr::ops(Expr::add(vec![n_sym(), num(p)])),
        ]),
    ])
}

/// BSP prediction: the splitter phase `T_bsp_bitonic(P·S) + g·(P-1) + L`,
/// the send phase `T_local_sort(M) + alpha·(M+P) + 2·(g·P + L) +
/// g·M_max + L`, and the bucket sort `T_local_sort(M_max)`.
pub fn bsp(m: &MachineParams, _n_hint: usize) -> Expr {
    let p = exact_f64(m.p);
    let splitter = Expr::add(vec![
        bitonic::bsp_with(m, num(exact_f64(SAMPLE_OVERSAMPLING))),
        Expr::add(vec![
            Expr::mul(vec![Expr::sym("g"), Expr::words(num(p - 1.0))]),
            Expr::sym("L"),
        ]),
    ]);
    let scan = Expr::mul(vec![
        num(2.0),
        Expr::add(vec![
            Expr::mul(vec![Expr::sym("g"), Expr::words(num(p))]),
            Expr::sym("L"),
        ]),
    ]);
    let send = Expr::add(vec![
        send_local(p),
        scan,
        Expr::add(vec![
            Expr::mul(vec![Expr::sym("g"), Expr::words(m_max())]),
            Expr::sym("L"),
        ]),
    ]);
    Expr::add(vec![splitter, send, local_sort(m_max())])
}

/// `k·sqrt(P)` block steps of `sqrt(P)` words each:
/// `k·sqrt(P)·(sigma·w·sqrt(P) + ell)` — the splitter transpose (`k = 2`)
/// and the multi-scan (`k = 4`).
fn block_steps(k: f64, sq: f64) -> Expr {
    Expr::mul(vec![
        num(k),
        num(sq),
        Expr::add(vec![
            Expr::mul(vec![
                Expr::sym("sigma"),
                Expr::sym("w"),
                Expr::words(num(sq)),
            ]),
            Expr::sym("ell"),
        ]),
    ])
}

/// Block-transfer cost of routing the keys to their buckets
/// (JáJá–Ryu): `4·sqrt(P)·(4·sigma·w·N/P^1.5 + ell)` with `N = M·P`.
fn send_to_buckets(p: f64) -> Expr {
    let sq = p.sqrt();
    Expr::mul(vec![
        num(4.0),
        num(sq),
        Expr::add(vec![
            Expr::div(
                Expr::mul(vec![
                    num(4.0),
                    Expr::sym("sigma"),
                    Expr::sym("w"),
                    Expr::words(Expr::mul(vec![n_sym(), num(p)])),
                ]),
                num(p * sq),
            ),
            Expr::sym("ell"),
        ]),
    ])
}

/// MP-BPRAM prediction: `T_bpram_bitonic(P·S)` plus the splitter
/// transpose, the send phase's local part, the block multi-scan, the
/// JáJá–Ryu routing and the bucket sort `T_local_sort(M_max)`.
pub fn bpram(m: &MachineParams, _n_hint: usize) -> Expr {
    let p = exact_f64(m.p);
    let sq = p.sqrt();
    let splitters = Expr::add(vec![
        bitonic::bpram_with(m, num(exact_f64(SAMPLE_OVERSAMPLING))),
        block_steps(2.0, sq),
    ]);
    Expr::add(vec![
        splitters,
        send_local(p),
        block_steps(4.0, sq),
        send_to_buckets(p),
        local_sort(m_max()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::gcel;
    use crate::predict::{eval, eval_at};

    #[test]
    fn send_substep_dominates_on_gcel() {
        // Section 6: "The send substep alone ... requires about
        // 16·sigma·w·N/P µs" — 4·sqrt(P)·4·sigma·w·N/P^1.5 = 16·sigma·w·N/P
        // for any P.
        let m = gcel();
        let keys = 4096;
        let n = 64 * keys;
        let t = eval_at(&send_to_buckets(exact_f64(m.p)), &m, keys);
        let dominant = 16.0 * m.sigma * exact_f64(m.w) * exact_f64(n) / exact_f64(m.p);
        let startup = 4.0 * 8.0 * m.ell;
        assert!((t - (dominant + startup)).abs() < 1e-6);
        // Bitonic's communication term is ~21·sigma·w·N/P (plus startups),
        // so sample sort's send phase alone is within a factor of the whole
        // bitonic exchange volume — that is why sample sort disappoints.
        let bitonic_comm = 21.0 * m.sigma * exact_f64(m.w) * 4096.0;
        assert!(dominant > 0.5 * bitonic_comm);
    }

    #[test]
    fn totals_are_monotone_in_keys() {
        let m = gcel();
        assert!(eval(bpram, &m, 4096) > eval(bpram, &m, 1024));
        assert!(eval(bsp, &m, 4096) > eval(bsp, &m, 1024));
    }

    #[test]
    fn block_phase_costs_scale_with_sqrt_p() {
        let m = gcel();
        let sq = 8.0;
        let expect = 2.0 * sq * (m.sigma * 4.0 * sq + m.ell);
        // The splitter transpose and the multi-scan do not depend on n.
        for n in [1, 4096] {
            assert!((eval_at(&block_steps(2.0, sq), &m, n) - expect).abs() < 1e-9);
            assert!((eval_at(&block_steps(4.0, sq), &m, n) - 2.0 * expect).abs() < 1e-9);
        }
    }
}
