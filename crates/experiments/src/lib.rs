//! # pcm-experiments — the reproduction harness
//!
//! One driver per table and figure of Juurlink & Wijshoff (SPAA'96),
//! returning typed [`pcm_core::Figure`]/[`pcm_core::Table`] artifacts that
//! render as aligned plain text. The `reproduce` binary runs them:
//!
//! ```text
//! reproduce all            # every table and figure, paper-scale
//! reproduce --quick fig04  # reduced sweep of one figure
//! reproduce list           # what exists
//! ```
//!
//! [`paper`] carries the paper's reported anchor values for side-by-side
//! comparison in EXPERIMENTS.md.

pub mod apsp_figs;
pub mod calib_figs;
pub mod check;
pub mod domains;
pub mod granularity;
pub mod matmul_figs;
pub mod model_fit;
pub mod paper;
pub mod report;
pub mod runs;
pub mod sort_figs;
pub mod table1;

pub use report::{find, registry, Experiment, Output, Scale};
