//! # pcm-sym — symbolic cost-IR verifier for the analytic models
//!
//! Every closed-form predictor in `pcm-models` states its formula once, as
//! a typed symbolic expression ([`Expr`], built by `pcm_models::predict`
//! and registered in `pcm_models::symbolic::all`); the figures evaluate
//! that expression, and this crate certifies it. Six rules:
//!
//! * **S01 units** — each formula must reduce to µs under the machine-
//!   readable unit declarations of `pcm_models::params::unit_env`;
//!   words/bytes confusion is a type error, not a plausible number.
//! * **S02 domains** — every grid point the `pcm-experiments` figures
//!   sweep must satisfy the predictor's declared [`DomainSpec`]
//!   (divisibility, minimum sizes, processor shape).
//! * **S03 dominance** — declared cross-model lemmas ("plain BSP never
//!   loses to MP-BSP on the MasPar") are certified from the polynomial
//!   difference of the two formulas, then spot-checked numerically.
//! * **S04 differential** — the evaluated expression must match, to
//!   ≤ 1 ulp, a pinned table of the values the hand-coded formulas it
//!   replaced gave at randomized perturbations of the Table 1 parameters
//!   (`data/s04_pinned.txt`); any divergence means a formula moved.
//! * **S05 leading terms** — the communication part's leading power of `n`
//!   must match the growth of the family's `CostContract` volume bound.
//!   (The contract's bound shape is certified once, by `pcm-audit`'s
//!   A06, over the same domains.)
//! * **S06 crossovers** — where a word variant and a block variant cross,
//!   the crossing must lie in its declared bracket, the closed-form winner
//!   must flip across it, and (full sweep only) replaying both sides
//!   through the priced simulator must show the same flip.
//!
//! [`sweep::sweep`] runs all six over every registered predictor × the
//! three Table 1 machines; the `pcm-sym` binary writes the committed
//! `SYM_report.json`.
//!
//! [`DomainSpec`]: pcm_models::DomainSpec

pub mod checker;
pub mod lemmas;
pub mod report;
pub mod rules;
pub mod sweep;

pub use checker::{
    check_crossover, check_differential, check_domains, check_leading, check_lemma, check_units,
    machine_by_name, pinned_table, ulp_diff,
};
pub use lemmas::{crossovers, lemmas, Crossover, Lemma, ReplayFn};
pub use pcm_core::dim::Dim;
pub use pcm_core::symexpr::{Bindings, Expr, Poly, SymError, UnitEnv};
pub use report::render_json;
pub use rules::{render, Finding, SymRule};
pub use sweep::{sweep, SweepOptions, SweepOutcome, SweepStats, SEED};
