//! # pcm-trace — zero-overhead superstep tracing and cost attribution
//!
//! Observability for the simulator: when (and only when) a trace scope is
//! open, every priced superstep is recorded — its exact `compute`/`comm`
//! contribution to the simulated clock, which exchange engine ran, wall
//! time per engine phase, shard imbalance, route-memo and network
//! cost-term counters — into preallocated ring buffers, then attributed
//! and exported.
//!
//! The crate's three invariants, in order of importance:
//!
//! 1. **Zero overhead when off.** Tracing rides `pcm-sim`'s observer hook
//!    as a cost-only observer: a machine with no observer installed pays
//!    one emptiness test per superstep. Golden digests, `AUDIT_report.json` and `SYM_report.json` are
//!    byte-identical with the crate compiled in.
//! 2. **Exact attribution.** Folding each step's `(compute, comm)` pair in
//!    order reproduces the machine clock *bit-identically* — the same f64
//!    additions in the same order, checked by [`MachineRun::attribution_exact`]
//!    and gated by `tests/trace.rs` and the `pcm-trace` binary itself.
//! 3. **No steady-state allocation.** Rows, lanes and counters are
//!    preallocated when a machine is constructed; recording a superstep
//!    allocates nothing (`tests/hotpath_alloc.rs` holds with tracing ON).
//!
//! Layers: [`event`]/[`sink`] (ring-buffer event storage with global
//! sequence stamps), [`metrics`] (saturating counters + log2 histograms),
//! [`mod@capture`] (the probe wiring), [`report`] (deterministic
//! `TRACE_report.json`), [`chrome`] (Chrome trace-event / Perfetto
//! export). The `pcm-trace` binary replays pinned grid points and writes
//! the committed report plus optional Chrome traces.

pub mod capture;
pub mod chrome;
pub mod event;
pub mod metrics;
pub mod report;
pub mod sink;

pub use capture::{capture, capture_sized, Capture, MachineRun, StepRow};
pub use chrome::ChromeRun;
pub use event::{EventKind, Lane, TraceEvent};
pub use metrics::{Counter, Log2Histogram, Metrics, MetricsSnapshot, HIST_BUCKETS};
pub use report::{RunRecord, TraceReport, SCHEMA};
pub use sink::TraceSink;
