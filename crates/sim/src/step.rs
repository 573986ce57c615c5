//! The per-superstep record: one [`SuperstepTrace`] per executed
//! superstep, and its fold over a run.
//!
//! The evaluation figures need more than a total running time — e.g.
//! Fig. 16 reports Mflops, which requires knowing compute vs. communication
//! split, and the E-BSP analysis inspects per-superstep pattern shapes.
//! The same record is what [`crate::Machine::traces`] stores, what every
//! observer receives as [`crate::StepObs::trace`], and what the model
//! accountant in `pcm-models` charges.

use pcm_core::SimTime;

/// Cost breakdown of one executed superstep.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SuperstepTrace {
    /// Superstep index.
    pub index: usize,
    /// Maximum local computation time over all processors.
    pub compute: SimTime,
    /// Communication + barrier time charged by the network model.
    pub comm: SimTime,
    /// Total logical messages routed.
    pub messages: usize,
    /// Total bytes routed.
    pub bytes: usize,
    /// `h_s` — maximum words sent by any processor.
    pub h_send: usize,
    /// `h_r` — maximum words received by any processor.
    pub h_recv: usize,
    /// Number of processors that sent or received anything.
    pub active: usize,
    /// Number of block-transfer rounds (MP-BPRAM steps) in the superstep.
    pub block_steps: usize,
    /// Sum over the block rounds of the longest transfer, in bytes — the
    /// quantity an MP-BPRAM accountant multiplies by `sigma`.
    pub block_bytes_sum: usize,
    /// Logical word messages routed (each word counts once).
    pub word_msgs: usize,
    /// Block messages routed (each block counts once).
    pub block_msgs: usize,
    /// Xnet (neighbour-grid) messages routed.
    pub xnet_msgs: usize,
}

/// Aggregate of a full run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunBreakdown {
    /// Sum of per-superstep compute maxima.
    pub compute: SimTime,
    /// Sum of communication + synchronization time.
    pub comm: SimTime,
    /// Number of supersteps.
    pub supersteps: usize,
    /// Total messages.
    pub messages: usize,
    /// Total bytes.
    pub bytes: usize,
}

impl RunBreakdown {
    /// Folds a sequence of traces into totals.
    pub fn from_traces(traces: &[SuperstepTrace]) -> Self {
        let mut b = RunBreakdown::default();
        for t in traces {
            b.compute += t.compute;
            b.comm += t.comm;
            b.supersteps += 1;
            b.messages += t.messages;
            b.bytes += t.bytes;
        }
        b
    }

    /// Total simulated time.
    pub fn total(&self) -> SimTime {
        self.compute + self.comm
    }

    /// Fraction of time spent communicating, in `[0, 1]`.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.total();
        if total.is_zero() {
            0.0
        } else {
            self.comm / total
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact simulated values
mod tests {
    use super::*;

    #[test]
    fn breakdown_sums_traces() {
        let traces = vec![
            SuperstepTrace {
                index: 0,
                compute: SimTime::from_micros(10.0),
                comm: SimTime::from_micros(5.0),
                messages: 3,
                bytes: 12,
                ..Default::default()
            },
            SuperstepTrace {
                index: 1,
                compute: SimTime::from_micros(20.0),
                comm: SimTime::from_micros(15.0),
                messages: 7,
                bytes: 28,
                ..Default::default()
            },
        ];
        let b = RunBreakdown::from_traces(&traces);
        assert_eq!(b.compute.as_micros(), 30.0);
        assert_eq!(b.comm.as_micros(), 20.0);
        assert_eq!(b.supersteps, 2);
        assert_eq!(b.messages, 10);
        assert_eq!(b.bytes, 40);
        assert_eq!(b.total().as_micros(), 50.0);
        assert!((b.comm_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown() {
        let b = RunBreakdown::from_traces(&[]);
        assert_eq!(b.total(), SimTime::ZERO);
        assert_eq!(b.comm_fraction(), 0.0);
    }
}
