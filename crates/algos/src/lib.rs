//! # pcm-algos — the model-derived algorithms of the paper
//!
//! Real, verified implementations of every algorithm Juurlink & Wijshoff
//! measure, running on the simulated machines of `pcm-machines`:
//!
//! * [`matmul`] — the 3D (q³-processor) matrix multiplication in naive,
//!   staggered and block-transfer variants (Sec. 4.1);
//! * [`sort::bitonic`] — Batcher's bitonic sort with word, resynchronized
//!   and block exchanges (Sec. 4.2);
//! * [`sort::sample`] — sample sort with BSP word routing, the padded
//!   single-port block scheme, and the staggered direct scheme (Sec. 4.3);
//! * [`apsp`] — blocked parallel Floyd with two-phase row/column
//!   broadcasts (Sec. 4.4);
//! * [`lu`] — blocked LU decomposition, the extension the paper names as
//!   sharing APSP's communication structure;
//! * [`vendor`] — analogues of the MPL `matmul` intrinsic and CMSSL's
//!   `gen_matrix_mult` (Sec. 7);
//! * [`primitives`] — the BSP communication primitives (broadcast,
//!   all-gather, multi-scan) of the paper's reference \[16\];
//! * [`verify`] — sequential references; every run is checked;
//! * [`catalog`] — every family and variant above, declared once with its
//!   run function, grid, domain, [`bounds`] and [`discipline`]: the list
//!   every analyzer sweep iterates.

pub mod apsp;
pub mod bounds;
pub mod catalog;
pub mod discipline;
pub mod lu;
pub mod matmul;
pub mod primitives;
pub mod regions;
pub mod run;
pub mod sort;
pub mod vendor;
pub mod verify;

pub use run::{RunResult, RunStats};
