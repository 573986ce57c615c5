//! # pcm-audit — static superstep-schedule verifier
//!
//! The fifth analyzer layer of the workspace (after `pcm-check`'s R/C/D
//! rules and `pcm-race`'s W rules): an *abstract interpreter* over
//! algorithm communication schedules. It drives every algorithm variant
//! through `pcm_sim::extract_plans` — a dry-run mode in which the machine
//! records each superstep's [`pcm_sim::CommPattern`] and inbox state but
//! never executes network pricing — and certifies the extracted plan
//! against declared envelopes:
//!
//! * **A01 message conservation** — every send is delivered at the next
//!   barrier, consumed in the step it arrives, and nothing is pending at
//!   machine drop;
//! * **A02 barrier alignment** — the schedule is structurally sound: step
//!   indices are contiguous and every per-processor vector has width `P`;
//! * **A03 h-relation soundness** — the static per-step
//!   `max(h_send, h_recv)` and the superstep count stay inside the
//!   family's `pcm_models::CostContract`;
//! * **A04 buffer capacity** — per-step receive volume respects the
//!   family's declared envelope (`pcm_algos::bounds`) and no transfer
//!   exceeds the simulator's largest pooled payload class;
//! * **A05 size-class consistency** — word traffic uses the machine word
//!   or a declared packet size, inside the inline payload fast path;
//! * **A06 monotonicity** — the contract's closed forms have a sane
//!   symbolic shape (non-decreasing in `n`; total volume non-decreasing
//!   in `p`; non-empty superstep ranges).
//!
//! A **differential gate** replays a sample of the grid through the priced
//! simulator and asserts the dry-run plan is exactly the schedule the
//! simulator priced, so every static certificate transfers to real runs.
//!
//! The `pcm-audit` binary sweeps every family of `pcm_algos::catalog` ×
//! machine × `(n, p)` grid point and emits a machine-readable JSON
//! findings report (see [`report::render_json`]); `make audit` and CI run
//! it.

pub mod checker;
pub mod report;
pub mod rules;
pub mod sweep;

pub use checker::{audit_plan, certify_contract_shape, differential_gate, PlanAudit};
pub use report::render_json;
pub use rules::{render, AuditRule, Finding};
pub use sweep::{sweep, SweepOptions, SweepOutcome, SweepStats};
