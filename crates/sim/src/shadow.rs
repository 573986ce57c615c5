//! Shadow-memory instrumentation for the happens-before analyzer.
//!
//! When an observer declaring [`crate::Needs::Schedule`] is installed,
//! every processor records a stream of [`ShadowEvent`]s during its
//! superstep: inbox consumes (which `msgs*` accessor ran, what it matched)
//! and explicit region touches (`ctx.touch_read` / `ctx.touch_write` /
//! `ctx.touch_modify`), and its sends are read back as per-source
//! [`SendMeta`] from the pattern. Both streams ride on the superstep's
//! [`crate::StepDetail`], so an external analyzer (the `pcm-race` crate)
//! can reconstruct the run's dataflow across barriers without the
//! simulator itself knowing any of the race rules.
//!
//! Recording is gated on that declaration: runs without a schedule
//! observer pay nothing beyond a branch per accessor call.

use crate::message::{MsgKind, ProcId};

/// Identifier of a logical region of a processor's private state (a key
/// list, a stash, an assembly buffer). Region ids are algorithm-local
/// conventions — the simulator only transports them. Regions are
/// per-processor: processor 3's region 0 and processor 4's region 0 are
/// different memories.
pub type RegionId = u32;

/// Which inbox filter a consume used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConsumeFilter {
    /// `ctx.msgs()` — the whole inbox.
    Any,
    /// `ctx.msgs_tagged(tag)`.
    Tag(u32),
    /// `ctx.msgs_from(src)`.
    From(ProcId),
}

impl ConsumeFilter {
    /// Whether a message with this `tag`, sent by one of `srcs`, would be
    /// visible through the filter.
    pub fn accepts(self, tag: u32, srcs: &[ProcId]) -> bool {
        match self {
            ConsumeFilter::Any => true,
            ConsumeFilter::Tag(t) => t == tag,
            ConsumeFilter::From(s) => srcs.contains(&s),
        }
    }
}

/// One recorded shadow event, in program order within a superstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShadowEvent {
    /// `ctx.touch_read(region)`: the processor read the region this
    /// superstep.
    Read {
        /// The region read.
        region: RegionId,
    },
    /// `ctx.touch_write(region)`: the processor overwrote the region.
    Write {
        /// The region written.
        region: RegionId,
    },
    /// `ctx.touch_modify(region)`: a combined read-modify-write (append,
    /// accumulate) — consumes the previous value and produces a new one.
    Modify {
        /// The region modified.
        region: RegionId,
    },
    /// A `msgs*` accessor ran against the inbox.
    Consume {
        /// The filter the accessor applied.
        filter: ConsumeFilter,
        /// How many delivered messages the filter matched.
        matched: usize,
        /// Distinct tags among the matched messages.
        distinct_tags: usize,
    },
}

/// Metadata of one sent (and deliverable) message, snapshotted by the
/// machine from the outboxes before delivery. Out-of-range and empty
/// sends never appear here — they are dropped before the outbox.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendMeta {
    /// Receiving processor.
    pub dst: ProcId,
    /// The algorithm's tag.
    pub tag: u32,
    /// Pricing kind.
    pub kind: MsgKind,
    /// Logical words carried.
    pub words: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_acceptance_matches_the_accessors() {
        assert!(ConsumeFilter::Any.accepts(7, &[]));
        assert!(ConsumeFilter::Tag(7).accepts(7, &[1, 2]));
        assert!(!ConsumeFilter::Tag(7).accepts(8, &[1, 2]));
        assert!(ConsumeFilter::From(2).accepts(0, &[1, 2]));
        assert!(!ConsumeFilter::From(3).accepts(0, &[1, 2]));
    }
}
