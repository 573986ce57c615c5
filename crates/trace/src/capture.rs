//! The bridge between `pcm-sim`'s probe hook and this crate's storage:
//! a preallocated per-machine row log filled by a [`SuperstepProbe`]
//! implementation.
//!
//! Each row log was allocated when its machine was constructed, so the
//! simulator's zero-allocation steady state holds with tracing enabled —
//! the property `tests/hotpath_alloc.rs` gates.

use std::cell::RefCell;
use std::rc::Rc;

use pcm_core::SimTime;
use pcm_sim::cache::CacheStats;
use pcm_sim::{
    with_probe, ExchangePath, NetTerms, PhaseNanos, StepObs, SuperstepProbe, SuperstepTrace,
};

/// Default per-machine row capacity — far above any replayed grid point
/// (the largest sweeps run a few hundred supersteps).
pub const DEFAULT_ROW_CAP: usize = 4096;

/// One observed superstep, as recorded for attribution and export.
#[derive(Clone, Copy, Debug)]
pub struct StepRow {
    /// Machine index within the capture (factories are invoked per machine).
    pub machine: u32,
    /// The machine's own record of the step: its index, the
    /// `compute`/`comm` pair added to the clock, and its pattern
    /// statistics — the value [`pcm_sim::Machine::traces`] stores.
    pub trace: SuperstepTrace,
    /// Machine clock after the step.
    pub clock: SimTime,
    /// Send records priced this step.
    pub records: u64,
    /// Exchange engine that ran.
    pub path: ExchangePath,
    /// Wall-clock engine-phase breakdown (diagnostics only).
    pub phases: PhaseNanos,
    /// Cumulative route-memo stats after the step, if the model memoizes.
    pub memo: Option<CacheStats>,
    /// Cumulative network cost-term counters after the step, if reported.
    pub terms: Option<NetTerms>,
}

/// The per-machine row log of one capture.
#[derive(Debug)]
pub struct MachineRun {
    /// Processor count the machine was built with.
    pub p: usize,
    /// Observed supersteps, in order.
    pub rows: Vec<StepRow>,
    /// Rows discarded because the preallocated log filled up. Non-zero
    /// voids the exactness guarantee (and fails [`MachineRun::attribution_exact`]).
    pub dropped: u64,
}

impl MachineRun {
    /// Replays the machine's clock from the per-step attribution, using
    /// the exact expression the simulator uses (`clock += compute + comm`)
    /// so f64 rounding matches addition for addition.
    pub fn folded_clock(&self) -> SimTime {
        let mut t = SimTime::ZERO;
        for r in &self.rows {
            t += r.trace.compute + r.trace.comm;
        }
        t
    }

    /// The machine clock after the last observed step.
    pub fn final_clock(&self) -> SimTime {
        self.rows.last().map_or(SimTime::ZERO, |r| r.clock)
    }

    /// `true` iff the per-step attribution reproduces the machine clock
    /// *bit-identically* and no rows were dropped.
    pub fn attribution_exact(&self) -> bool {
        self.dropped == 0
            && self.folded_clock().as_micros().to_bits() == self.final_clock().as_micros().to_bits()
    }

    /// Sum of compute times (reported µs; not part of the exactness gate).
    pub fn compute_us(&self) -> f64 {
        self.rows.iter().map(|r| r.trace.compute.as_micros()).sum()
    }

    /// Sum of communication times (reported µs).
    pub fn comm_us(&self) -> f64 {
        self.rows.iter().map(|r| r.trace.comm.as_micros()).sum()
    }

    /// Total wall nanoseconds per engine phase across steps.
    pub fn wall_phase_totals(&self) -> PhaseNanos {
        let mut t = PhaseNanos::default();
        for r in &self.rows {
            t.compute += r.phases.compute;
            t.scatter += r.phases.scatter;
            t.price += r.phases.price;
            t.gather += r.phases.gather;
            t.recycle += r.phases.recycle;
        }
        t
    }
}

/// Everything one traced scope produced: the per-machine row logs.
#[derive(Debug)]
pub struct Capture {
    /// One entry per machine constructed in the scope, in order.
    pub runs: Vec<MachineRun>,
    row_cap: usize,
}

impl Capture {
    /// The run whose final clock bit-equals `time`, if any — how callers
    /// find "the machine that produced this result" when an algorithm
    /// constructs more than one.
    pub fn run_matching(&self, time: SimTime) -> Option<&MachineRun> {
        let bits = time.as_micros().to_bits();
        self.runs
            .iter()
            .rev()
            .find(|r| r.final_clock().as_micros().to_bits() == bits)
    }
}

/// The probe installed per machine: appends one row per superstep to its
/// machine's preallocated log in the shared [`Capture`].
struct RowProbe {
    shared: Rc<RefCell<Capture>>,
    /// Index of this probe's `MachineRun`.
    machine: usize,
}

impl SuperstepProbe for RowProbe {
    fn observe(&mut self, obs: &StepObs<'_>) {
        let mut cap = self.shared.borrow_mut();
        let run = &mut cap.runs[self.machine];
        if run.rows.len() < run.rows.capacity() {
            run.rows.push(StepRow {
                machine: u32::try_from(self.machine).unwrap_or(u32::MAX),
                trace: *obs.trace,
                clock: obs.clock,
                records: obs.records as u64, // usize fits in u64
                path: obs.path,
                phases: obs.phases,
                memo: obs.memo,
                terms: obs.terms,
            });
        } else {
            run.dropped += 1;
        }
    }
}

/// Runs `body` with tracing installed and returns its result plus the
/// filled [`Capture`]. Every machine constructed inside `body` gets its
/// own row log (allocated at machine construction, not per step).
///
/// Machines must not outlive `body` — the capture is single-owner again
/// when this returns.
pub fn capture<R>(body: impl FnOnce() -> R) -> (R, Capture) {
    capture_sized(DEFAULT_ROW_CAP, body)
}

/// [`capture`] with an explicit per-machine row capacity (tests use tiny
/// logs).
pub fn capture_sized<R>(row_cap: usize, body: impl FnOnce() -> R) -> (R, Capture) {
    let shared = Rc::new(RefCell::new(Capture {
        runs: Vec::new(),
        row_cap,
    }));
    let hook = shared.clone();
    let out = with_probe(
        move |p| {
            let mut cap = hook.borrow_mut();
            let machine = cap.runs.len();
            let row_cap = cap.row_cap;
            cap.runs.push(MachineRun {
                p,
                rows: Vec::with_capacity(row_cap),
                dropped: 0,
            });
            Box::new(RowProbe {
                shared: hook.clone(),
                machine,
            })
        },
        body,
    );
    let cap = Rc::try_unwrap(shared)
        .expect("machines must not outlive the capture scope")
        .into_inner();
    (out, cap)
}
