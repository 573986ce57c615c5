//! # pcm-models — analytic parallel computation cost models
//!
//! The models compared by Juurlink & Wijshoff (SPAA'96):
//!
//! * [`bsp`] — Bulk-Synchronous Parallel (Valiant): superstep cost
//!   `c + g·max{h_s, h_r} + L`;
//! * [`mp_bsp`] — the paper's MasPar variant without memory pipelining:
//!   every word message is a communication step costing `L + g·h`;
//! * [`bpram`] — the Message-Passing Block PRAM: block transfers of `m`
//!   bytes cost `sigma·m + ell`, one message per processor per step;
//! * [`ebsp`] — E-BSP: BSP extended with unbalanced `(M, h1, h2)`-relations
//!   (`T_unb` on the MasPar, `g_mscat` on the GCel);
//! * [`logp`] — LogP/LogGP as an extension for the model shoot-out.
//!
//! [`params`] holds the Table 1 machine parameters and [`predict`] the
//! closed-form per-algorithm running times of Section 4.

pub mod account;
pub mod bpram;
pub mod bsp;
pub mod contract;
pub mod ebsp;
pub mod logp;
pub mod mp_bsp;
pub mod params;
pub mod predict;
pub mod symbolic;

pub use account::{account_run, account_step, ModelAccount};
pub use bpram::Bpram;
pub use bsp::Bsp;
pub use contract::{ContractBreach, CostContract, KindMask};
pub use ebsp::Ebsp;
pub use logp::{LogGP, LogP};
pub use mp_bsp::MpBsp;
pub use params::{cm5, gcel, maspar, unit_env, EbspParams, MachineParams};
pub use symbolic::{bindings, ClosedForm, DomainSpec, DomainViolation, Predictor};
