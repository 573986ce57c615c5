//! Network model interface and reference implementations.
//!
//! A [`NetworkModel`] prices the communication pattern of a superstep in
//! simulated microseconds, including the barrier synchronization that ends
//! the superstep. The three machine models in `pcm-machines` implement this
//! trait; the reference models here are used for unit tests and for the
//! "what would an ideal textbook BSP machine do" comparisons.

use pcm_core::SimTime;
use rand::rngs::StdRng;

use crate::cache::CacheStats;
use crate::pattern::{CommPattern, PatternScratch};

/// Cumulative deterministic cost-term counters of a network model, for
/// observability tooling (the `pcm-trace` crate). Every field is a pure
/// count or a sum of *deterministic* model constants — jittered values
/// never enter, so these counters are bit-reproducible across runs and
/// never feed back into pricing.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetTerms {
    /// `route` calls (supersteps with at least one send record).
    pub routes: u64,
    /// `barrier` calls (supersteps with no communication).
    pub barriers: u64,
    /// Cumulative deterministic barrier/latency term across both, in µs —
    /// the model's `L` contribution before jitter.
    pub barrier_us: f64,
    /// Communication rounds the model's router actually priced (pattern
    /// memo hits skip the router entirely, so this counts router *work*,
    /// not supersteps). Zero for models without a pass-based router.
    pub router_rounds: u64,
    /// Cumulative router passes of those rounds.
    pub router_passes: u64,
    /// Cumulative information-theoretic minimum passes of those rounds.
    pub router_min_passes: u64,
}

/// Prices superstep communication for a particular machine.
pub trait NetworkModel: Send {
    /// Simulated time for routing `pattern` followed by a barrier.
    ///
    /// Network models may keep internal state (memoization caches, drift
    /// accumulators) and may draw jitter from `rng`.
    fn route(&mut self, pattern: &CommPattern, rng: &mut StdRng) -> SimTime;

    /// Cost of a barrier with no communication.
    fn barrier(&mut self) -> SimTime;

    /// Human-readable model name.
    fn name(&self) -> &str;

    /// Enables or disables the model's route memo, if it has one. Because
    /// only deterministic pricing values are memoized (jitter is always
    /// drawn live from the sequential rng), toggling the memo must not
    /// change any simulated time — the differential test in
    /// `tests/pricing_memo.rs` holds every machine to that.
    fn set_route_memo(&mut self, _enabled: bool) {}

    /// Hit/miss statistics of the model's route memo, if it has one.
    fn route_memo_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Cumulative deterministic cost-term counters, if the model tracks
    /// them. Reference models return `None`; the three machine
    /// personalities in `pcm-machines` all implement this for the tracing
    /// layer. Counting must never change pricing arithmetic or rng draws.
    fn cost_terms(&self) -> Option<NetTerms> {
        None
    }
}

/// A zero-cost network: communication and barriers are free. Useful for
/// testing algorithm correctness in isolation from timing.
#[derive(Debug, Default, Clone)]
pub struct IdealNetwork;

impl NetworkModel for IdealNetwork {
    fn route(&mut self, _pattern: &CommPattern, _rng: &mut StdRng) -> SimTime {
        SimTime::ZERO
    }

    fn barrier(&mut self) -> SimTime {
        SimTime::ZERO
    }

    fn name(&self) -> &str {
        "ideal"
    }
}

/// A textbook BSP network: every superstep costs exactly
/// `g · max{h_s, h_r} + L` for word traffic plus
/// `sigma · max_bytes + ell` per block round — i.e. the *model* used as a
/// *machine*. Experiments use it to show what a perfectly BSP-behaved
/// machine would measure.
#[derive(Debug, Clone)]
pub struct TextbookBspNetwork {
    /// Time per word message (µs).
    pub g: f64,
    /// Barrier/latency cost (µs).
    pub l: f64,
    /// Time per block byte (µs).
    pub sigma: f64,
    /// Block startup (µs).
    pub ell: f64,
}

impl NetworkModel for TextbookBspNetwork {
    fn route(&mut self, pattern: &CommPattern, _rng: &mut StdRng) -> SimTime {
        let h = pattern.h_send().max(pattern.h_recv());
        let mut t = self.g * h as f64 + self.l;
        pattern.visit_block_rounds(&mut PatternScratch::new(), |round| {
            t += self.sigma * round.max_bytes() as f64 + self.ell;
        });
        SimTime::from_micros(t)
    }

    fn barrier(&mut self) -> SimTime {
        SimTime::from_micros(self.l)
    }

    fn name(&self) -> &str {
        "textbook-bsp"
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact simulated values
mod tests {
    use super::*;
    use crate::message::{Message, MsgKind};
    use pcm_core::rng::seeded;

    fn pattern() -> CommPattern {
        CommPattern {
            p: 4,
            sends: vec![
                vec![Message::header(0, 1, MsgKind::Words, 10, 40)],
                vec![Message::header(1, 0, MsgKind::Words, 4, 16)],
                vec![Message::header(2, 3, MsgKind::Block, 25, 100)],
                vec![],
            ],
        }
    }

    #[test]
    fn ideal_network_is_free() {
        let mut net = IdealNetwork;
        let mut rng = seeded(0);
        assert_eq!(net.route(&pattern(), &mut rng), SimTime::ZERO);
        assert_eq!(net.barrier(), SimTime::ZERO);
    }

    #[test]
    fn textbook_bsp_network_is_schedule_blind() {
        // Two schedules of the same h-relation: staggered (permutation
        // rounds) vs naive (all senders hit one destination per round).
        // A textbook BSP machine prices only `h`, so it cannot tell them
        // apart.
        let make = |staggered: bool| -> CommPattern {
            let sends = (0..4usize)
                .map(|src| {
                    (0..4usize)
                        .map(|t| {
                            let dst = if staggered { 4 + (src + t) % 4 } else { 4 + t };
                            Message::header(src, dst, MsgKind::Words, 50, 400)
                        })
                        .collect()
                })
                .chain((4..8).map(|_| Vec::new()))
                .collect();
            CommPattern { p: 8, sends }
        };
        let mut bsp = TextbookBspNetwork {
            g: 9.1,
            l: 45.0,
            sigma: 0.27,
            ell: 75.0,
        };
        let mut rng = seeded(1);
        assert_eq!(
            bsp.route(&make(true), &mut rng),
            bsp.route(&make(false), &mut rng)
        );
    }

    #[test]
    fn textbook_bsp_charges_the_formula() {
        let mut net = TextbookBspNetwork {
            g: 2.0,
            l: 100.0,
            sigma: 0.5,
            ell: 30.0,
        };
        let mut rng = seeded(0);
        // h = max(h_s, h_r) = 10 words; one block round with max 100 bytes.
        let t = net.route(&pattern(), &mut rng);
        let expect = 2.0 * 10.0 + 100.0 + 0.5 * 100.0 + 30.0;
        assert!((t.as_micros() - expect).abs() < 1e-9);
        assert_eq!(net.barrier().as_micros(), 100.0);
    }
}
