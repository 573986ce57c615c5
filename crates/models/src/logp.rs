//! LogP / LogGP cost models (extension).
//!
//! The paper references LogP (Culler et al. 1993) as the model that
//! captures finite network capacity, and LogGP (Alexandrov et al. 1995) as
//! "another model that has many of the aspects of the MP-BPRAM". They are
//! not part of the paper's measured comparison, but including them lets the
//! model-shootout example place BSP/MP-BPRAM predictions side by side with
//! the LogP family.

use crate::params::MachineParams;
use pcm_core::SimTime;

/// LogP parameters: latency `L`, overhead `o`, gap `g`, processors `P`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogP {
    /// Network latency for a small message (µs).
    pub latency: f64,
    /// CPU overhead per send or receive (µs).
    pub overhead: f64,
    /// Gap: minimum interval between consecutive messages of a processor
    /// (reciprocal of per-processor bandwidth), in µs.
    pub gap: f64,
    /// Number of processors.
    pub p: usize,
}

/// LogGP adds `G`: time per byte for long messages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogGP {
    /// The short-message parameters.
    pub logp: LogP,
    /// Per-byte gap for long messages (µs/byte).
    pub big_gap: f64,
}

impl LogP {
    /// Derives LogP parameters from the paper's BSP measurements.
    ///
    /// The BSP `g` bundles overhead and gap (a word message costs `g` at
    /// the sender in an h-relation), and the BSP `L` bundles latency and
    /// barrier cost. We split them with the conventional reading
    /// `o ≈ g/2`, `gap ≈ g`, `latency ≈ L/2` and document the heuristic —
    /// exact LogP microbenchmarks are outside the paper's scope.
    pub fn from_machine(m: &MachineParams) -> Self {
        LogP {
            latency: m.l / 2.0,
            overhead: m.g / 2.0,
            gap: m.g,
            p: m.p,
        }
    }

    /// Time for a processor to send `n` back-to-back small messages
    /// (pipelined): `o + (n-1)·max(g, o) + L + o`.
    pub fn send_sequence(&self, n: usize) -> SimTime {
        if n == 0 {
            return SimTime::ZERO;
        }
        let per = self.gap.max(self.overhead);
        SimTime::from_micros(self.overhead + (n as f64 - 1.0) * per + self.latency + self.overhead)
    }

    /// Capacity constraint: the maximum number of messages in flight to a
    /// single destination, `ceil(L/g)` — exceeding it stalls senders,
    /// which is exactly the effect the unstaggered matrix multiplication
    /// triggered on the CM-5.
    pub fn capacity(&self) -> usize {
        // L/g is a small message count (both are microsecond-scale).
        #[allow(clippy::cast_possible_truncation)]
        let cap = (self.latency / self.gap).ceil().max(1.0) as usize;
        cap
    }
}

impl LogGP {
    /// Derives LogGP parameters from the machine's BSP + BPRAM
    /// measurements (`G = sigma`).
    pub fn from_machine(m: &MachineParams) -> Self {
        LogGP {
            logp: LogP::from_machine(m),
            big_gap: m.sigma,
        }
    }

    /// Time for one long message of `bytes` bytes:
    /// `o + (bytes-1)·G + L + o`.
    pub fn long_message(&self, bytes: usize) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        let l = &self.logp;
        SimTime::from_micros(
            l.overhead + (bytes as f64 - 1.0) * self.big_gap + l.latency + l.overhead,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::cm5;

    #[test]
    fn derived_parameters_are_consistent() {
        let m = cm5();
        let lp = LogP::from_machine(&m);
        assert_eq!(lp.p, 64);
        assert!((lp.gap - 9.1).abs() < 1e-9);
        assert!((lp.overhead - 4.55).abs() < 1e-9);
        assert!((lp.latency - 22.5).abs() < 1e-9);
    }

    #[test]
    fn send_sequence_pipelines() {
        let m = cm5();
        let lp = LogP::from_machine(&m);
        let one = lp.send_sequence(1).as_micros();
        let ten = lp.send_sequence(10).as_micros();
        // Ten messages cost far less than ten times one message.
        assert!(ten < 10.0 * one * 0.5);
        assert_eq!(lp.send_sequence(0), SimTime::ZERO);
    }

    #[test]
    fn capacity_is_positive_and_small_on_cm5() {
        let lp = LogP::from_machine(&cm5());
        let c = lp.capacity();
        assert!((1..10).contains(&c), "capacity = {c}");
    }

    #[test]
    fn long_messages_amortize_overhead() {
        let gg = LogGP::from_machine(&cm5());
        let t = gg.long_message(1000).as_micros();
        // Dominated by G·bytes = 0.27·1000.
        assert!(t > 270.0 && t < 350.0, "t = {t}");
        assert_eq!(gg.long_message(0), SimTime::ZERO);
    }
}
