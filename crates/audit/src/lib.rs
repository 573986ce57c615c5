//! # pcm-audit — static superstep-schedule verifier
//!
//! The fourth analyzer layer of the workspace (after `pcm-check`'s R and
//! D rules and `pcm-race`'s W rules): an *abstract interpreter* over
//! algorithm communication schedules. It drives every algorithm variant
//! through [`audit_run`], a `Needs::Schedule` observer in a dry scope
//! (`pcm_sim::with_dry_probe`): the machine never executes network
//! pricing, and as each superstep ends the observer certifies its
//! [`pcm_sim::CommPattern`] and inbox state against declared envelopes,
//! keeping only the per-destination delivered counts between supersteps.
//! Every cost model of the paper charges one superstep at a time, so each
//! rule is a property of one superstep plus that running count:
//!
//! * **A01 message conservation** — every send is delivered at the next
//!   barrier, consumed in the step it arrives, and nothing is pending at
//!   machine drop; the workspace's one unread-delivery rule;
//! * **A02 barrier alignment** — the schedule is structurally sound: step
//!   indices are contiguous and every per-processor vector has width `P`;
//! * **A03 h-relation soundness** — the static per-step
//!   `max(h_send, h_recv)` and the superstep count stay inside the
//!   family's `pcm_models::CostContract`; the workspace's one check of a
//!   run against its contract;
//! * **A04 buffer capacity** — per-step receive volume respects the
//!   family's declared envelope (`pcm_algos::bounds`) and no transfer
//!   exceeds the simulator's largest pooled payload class;
//! * **A05 size-class consistency** — word traffic uses the machine word
//!   or a declared packet size, inside the inline payload fast path;
//! * **A06 monotonicity** — the contract's closed forms have a sane
//!   symbolic shape (non-decreasing in `n`; total volume non-decreasing
//!   in `p`; non-empty superstep ranges) at every point of the
//!   [`sweep::shape_ns`] × [`sweep::SHAPE_PS`] grid in the family's
//!   domain; the workspace's one contract-shape certificate.
//!
//! A **differential gate** replays a sample of the grid through the priced
//! simulator and asserts every dry superstep has the h-relation, message
//! count and volume of the superstep the simulator priced, so every static
//! certificate, A03 included, transfers to real runs.
//!
//! The `pcm-audit` binary sweeps every family of `pcm_algos::catalog` ×
//! machine × `(n, p)` grid point and emits a machine-readable JSON
//! findings report (see [`report::render_json`]); `make audit` and CI run
//! it.

pub mod checker;
pub mod plan;
pub mod report;
pub mod rules;
pub mod sweep;

pub use checker::{certify_contract_shape, differential_gate, PlanAudit, StepAuditor};
pub use plan::{audit_run, RunAudit};
pub use report::render_json;
pub use rules::{render, AuditRule, Finding};
pub use sweep::{sweep, SweepOptions, SweepOutcome, SweepStats};
