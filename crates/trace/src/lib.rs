//! # pcm-trace — zero-overhead superstep tracing and cost attribution
//!
//! Observability for the simulator: when (and only when) a trace scope is
//! open, every priced superstep is recorded as one row in a preallocated
//! per-machine log. A row embeds the machine's own [`pcm_sim::SuperstepTrace`]
//! (the exact `compute`/`comm` contribution to the simulated clock plus
//! the step's h-relation and block-round statistics) next to the clock,
//! the exchange engine that ran, wall time per engine phase, and the
//! route-memo and network cost-term counters. The rows
//! are then attributed and exported.
//!
//! The crate's three invariants, in order of importance:
//!
//! 1. **Zero overhead when off.** Tracing rides `pcm-sim`'s observer hook
//!    as a cost-only observer: a machine with no observer installed pays
//!    one emptiness test per superstep. Golden digests, `AUDIT_report.json` and `SYM_report.json` are
//!    byte-identical with the crate compiled in.
//! 2. **Exact attribution.** Folding each row's `(compute, comm)` pair in
//!    order reproduces the machine clock *bit-identically* — the same f64
//!    additions in the same order, checked by [`MachineRun::attribution_exact`]
//!    and gated by `tests/trace.rs` and the `pcm-trace` binary itself.
//! 3. **No steady-state allocation.** A machine's row log is preallocated
//!    when the machine is constructed; recording a superstep allocates
//!    nothing (`tests/hotpath_alloc.rs` holds with tracing ON).
//!
//! Layers: [`mod@capture`] (the probe wiring and the row log), [`report`]
//! (deterministic `TRACE_report.json`), [`chrome`] (Chrome trace-event /
//! Perfetto export). The `pcm-trace` binary replays pinned grid points and
//! writes the committed report plus optional Chrome traces.

pub mod capture;
pub mod chrome;
pub mod report;

pub use capture::{capture, capture_sized, Capture, MachineRun, StepRow};
pub use chrome::ChromeRun;
pub use report::{RunRecord, TraceReport, SCHEMA};
