//! # pcm-models — analytic parallel computation cost models
//!
//! The models compared by Juurlink & Wijshoff (SPAA'96):
//!
//! * BSP — Bulk-Synchronous Parallel (Valiant): superstep cost
//!   `c + g·max{h_s, h_r} + L`;
//! * MP-BSP — the paper's MasPar variant without memory pipelining: every
//!   word message is a communication step costing `L + g·h`;
//! * MP-BPRAM — the Message-Passing Block PRAM: block transfers of `m`
//!   bytes cost `sigma·m + ell`, one message per processor per step;
//! * E-BSP — BSP extended with unbalanced `(M, h1, h2)`-relations
//!   (`T_unb` on the MasPar, `g_mscat` on the GCel, plain BSP on the CM-5);
//! * [`logp`] — LogP/LogGP as an extension for the model shoot-out.
//!
//! Where each model's charge lives: per superstep in [`account`], which
//! prices a run's superstep traces under all four models; and per
//! algorithm in [`predict`], the closed-form running times of Section 4,
//! each stated once as a typed expression that the figures evaluate and
//! the `pcm-sym` verifier certifies through the [`symbolic`] registry.
//! [`params`] holds the Table 1 machine parameters, [`contract`] the
//! cost contracts the auditor certifies schedules against, and [`domain`]
//! each family's `(n, p)` domain, which its closed forms, its run
//! function and every analyzer sweep share.

pub mod account;
pub mod contract;
pub mod domain;
pub mod logp;
pub mod params;
pub mod predict;
pub mod symbolic;

pub use account::{account_run, account_step, ModelAccount};
pub use contract::CostContract;
pub use domain::{DomainSpec, DomainViolation};
pub use logp::{LogGP, LogP};
pub use params::{cm5, gcel, maspar, unit_env, EbspParams, MachineParams};
pub use symbolic::{bindings, ClosedForm};

// One test module per model: each pins the charge `account_step` makes at
// the Table 1 parameters where the paper quotes that model's formula.

#[cfg(test)]
mod bsp {
    mod tests {
        use crate::account::account_step;
        use crate::params::cm5;
        use pcm_core::SimTime;
        use pcm_sim::SuperstepTrace;

        #[test]
        fn superstep_cost_formula() {
            let m = cm5();
            let f = SuperstepTrace {
                h_send: 3,
                h_recv: 7,
                active: 64,
                compute: SimTime::from_micros(100.0),
                ..Default::default()
            };
            // c + g·max{3, 7} + L = 100 + 9.1·7 + 45
            let a = account_step(&m, &f);
            assert!((a.bsp.as_micros() - (9.1 * 7.0 + 45.0)).abs() < 1e-9);
            let (name, total) = a.totals()[0];
            assert_eq!(name, "BSP");
            assert!((total.as_micros() - (100.0 + 9.1 * 7.0 + 45.0)).abs() < 1e-9);
        }

        #[test]
        fn h_relation_is_g_h_plus_l() {
            let m = cm5();
            let f = SuperstepTrace {
                h_send: 10,
                h_recv: 10,
                active: 64,
                ..Default::default()
            };
            assert!((account_step(&m, &f).bsp.as_micros() - 136.0).abs() < 1e-9);
            // A barrier alone costs L.
            let barrier = account_step(&m, &SuperstepTrace::default());
            assert!((barrier.bsp.as_micros() - 45.0).abs() < 1e-9);
        }
    }
}

#[cfg(test)]
mod mp_bsp {
    mod tests {
        use crate::account::{account_run, account_step};
        use crate::params::maspar;
        use pcm_sim::SuperstepTrace;

        #[test]
        fn permutation_step_costs_g_plus_l() {
            let m = maspar();
            let perm = SuperstepTrace {
                h_send: 1,
                h_recv: 1,
                active: 1024,
                ..Default::default()
            };
            // g + L = 1432.2 µs — the paper's per-word MP-BSP cost on the
            // MasPar ("g + L ≈ 1430 µs").
            assert!((account_step(&m, &perm).mp_bsp.as_micros() - 1432.2).abs() < 1e-9);
            let ten = vec![perm; 10];
            assert!((account_run(&m, &ten).mp_bsp.as_micros() - 14322.0).abs() < 1e-6);
        }
    }
}

#[cfg(test)]
mod bpram {
    mod tests {
        use crate::account::account_step;
        use crate::params::gcel;
        use pcm_sim::SuperstepTrace;

        #[test]
        fn block_transfer_cost() {
            let m = gcel();
            let one = SuperstepTrace {
                block_steps: 1,
                block_bytes_sum: 1000,
                ..Default::default()
            };
            // sigma·m + ell = 9.3·1000 + 6900
            assert!((account_step(&m, &one).bpram.as_micros() - 16200.0).abs() < 1e-9);
            // Three rounds of 250-word blocks: words are 4 bytes on the GCel.
            let three = SuperstepTrace {
                block_steps: 3,
                block_bytes_sum: 3 * 250 * m.w,
                ..Default::default()
            };
            assert!((account_step(&m, &three).bpram.as_micros() - 48600.0).abs() < 1e-6);
        }
    }
}

#[cfg(test)]
mod ebsp {
    mod tests {
        use crate::account::account_step;
        use crate::params::maspar;
        use pcm_sim::SuperstepTrace;

        fn partial_permutation(active: usize) -> SuperstepTrace {
            SuperstepTrace {
                h_send: 1,
                h_recv: 1,
                active,
                ..Default::default()
            }
        }

        #[test]
        fn maspar_partial_permutations_use_t_unb() {
            let m = maspar();
            let full = account_step(&m, &partial_permutation(1024))
                .ebsp
                .as_micros();
            let partial = account_step(&m, &partial_permutation(32)).ebsp.as_micros();
            assert!(partial / full < 0.15, "32 active PEs ≈ 13% of full");
            // Cheaper than the MP-BSP estimate g + L = 1432.
            assert!(full < 1432.0);
        }
    }
}
