//! Common result type for algorithm executions.

use pcm_core::SimTime;
use pcm_sim::RunBreakdown;

/// Outcome of running an algorithm on a simulated machine.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Total simulated time.
    pub time: SimTime,
    /// Compute/communication split and message counts.
    pub breakdown: RunBreakdown,
    /// `true` if the computed result matched the sequential reference
    /// (always checked — a reproduction that computes garbage fast is not
    /// a reproduction).
    pub verified: bool,
    /// Algorithm-specific extra measurements (e.g. the observed maximum
    /// bucket size `M_max` in sample sort).
    pub stats: RunStats,
}

/// Optional per-algorithm measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunStats {
    /// Maximum keys in any bucket (sample sort).
    pub max_bucket: usize,
    /// Megaflops achieved (matrix multiplication).
    pub mflops: f64,
}

impl RunResult {
    /// Builds a result, asserting nothing.
    pub fn new(time: SimTime, breakdown: RunBreakdown, verified: bool) -> Self {
        RunResult {
            time,
            breakdown,
            verified,
            stats: RunStats::default(),
        }
    }

    /// Attaches stats.
    pub fn with_stats(mut self, stats: RunStats) -> Self {
        self.stats = stats;
        self
    }
}
