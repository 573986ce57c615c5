//! # pcm — Parallel Computation Models, quantitatively compared
//!
//! A Rust reproduction of **Juurlink & Wijshoff, "A Quantitative Comparison
//! of Parallel Computation Models" (SPAA 1996)**.
//!
//! The paper validates the BSP, MP-BSP, MP-BPRAM and E-BSP cost models
//! against measurements on three 1990s parallel machines — a 1024-PE MasPar
//! MP-1, a 64-node Parsytec GCel and a 64-node CM-5. This workspace rebuilds
//! the whole experimental apparatus in Rust:
//!
//! * [`sim`] — a superstep-oriented simulator of distributed-memory
//!   machines (virtual processors, ordered message schedules, pluggable
//!   network and compute models),
//! * [`machines`] — calibrated mechanistic models of the three platforms,
//! * [`models`] — the analytic cost models and per-algorithm closed-form
//!   predictors from Section 4 of the paper,
//! * [`algos`] — the model-derived algorithms (matrix multiplication,
//!   bitonic sort, sample sort, all-pairs shortest path) and the
//!   vendor-library analogues of Section 7,
//! * [`calibrate`] — microbenchmarks and least-squares fits that recover
//!   the Table 1 machine parameters,
//! * [`experiments`] — one driver per paper table/figure plus the
//!   `reproduce` CLI,
//! * [`check`] — the sanitizer: runtime protocol rules, model-conformance
//!   linting against each predictor's cost contract, and a determinism
//!   auditor (see the "Sanitizer" section of DESIGN.md),
//! * [`audit`] — the static superstep-schedule verifier: abstract
//!   interpretation of extracted communication plans with cost-bound
//!   certification (see the "Static audit" section of DESIGN.md),
//! * [`sym`] — the symbolic cost-IR verifier: every closed-form predictor
//!   re-expressed as a typed expression and certified for units, domains,
//!   dominance lemmas, ≤ 1 ulp differential agreement, leading terms and
//!   word/block crossovers (see the "Symbolic model verification" section
//!   of DESIGN.md),
//! * [`trace`] — zero-overhead superstep tracing: a preallocated
//!   per-machine row log of superstep traces, exact cost attribution and
//!   Chrome-trace/Perfetto export (see the "Observability" section of
//!   DESIGN.md).
//!
//! ## Quickstart
//!
//! ```
//! use pcm::machines::Platform;
//! use pcm::algos::matmul::{self, MatmulVariant};
//! use pcm::models::predict;
//!
//! // Multiply two 128x128 matrices on a simulated 64-node CM-5 with the
//! // staggered BSP algorithm, and compare against the BSP prediction.
//! let cm5 = Platform::cm5();
//! let run = matmul::run(&cm5, 128, MatmulVariant::BspStaggered, 42);
//! let predicted = predict::matmul::bsp(&cm5.model_params(), 128);
//! let err = predicted.relative_error(run.time);
//! assert!(err < 0.35, "BSP prediction should be in the right ballpark");
//! ```

pub use pcm_algos as algos;
pub use pcm_audit as audit;
pub use pcm_calibrate as calibrate;
pub use pcm_check as check;
pub use pcm_core as core;
pub use pcm_experiments as experiments;
pub use pcm_machines as machines;
pub use pcm_models as models;
pub use pcm_sim as sim;
pub use pcm_sym as sym;
pub use pcm_trace as trace;

// Convenient re-exports of the most commonly used types.
pub use pcm_core::{Figure, Series, SimTime, Table};
pub use pcm_machines::Platform;
