//! Communication disciplines: what a model's runtime rules allow, and
//! which happens-before guarantees an algorithm claims.
//!
//! The paper's models are not just cost formulas — each implies a message
//! *protocol*. MP-BSP programs on the MasPar must decompose every
//! h-relation into permutation rounds (router steps accept one word per
//! destination); the MP-BPRAM is single-port (one block in, one block out,
//! per processor per step). A [`Discipline`] captures the subset of those
//! rules a given algorithm variant has signed up for, so the protocol
//! checker knows which observations are violations and which are simply
//! priced (a deliberately naive schedule *contends*, and the simulator
//! charges it for that — see Fig. 4 of the paper).
//!
//! A [`RaceConfig`] is the dataflow counterpart that the `pcm-race`
//! analyzer checks: whether each `(destination, tag)` cell has a single
//! writer per superstep, and whether logical streams stay tag-separated.
//!
//! Both are plain data an algorithm declares, like the buffer envelopes of
//! [`crate::bounds`]; the [`crate::catalog`] pairs every variant with its
//! declarations, and the analyzers only read them.

/// The runtime protocol an algorithm variant promises to follow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Discipline {
    /// Short label used in violation details and test output.
    pub name: &'static str,
    /// Individual word messages allowed (rule R03).
    pub allow_words: bool,
    /// Bulk block transfers allowed (rule R03).
    pub allow_blocks: bool,
    /// Xnet neighbour-grid transfers allowed (rule R03).
    pub allow_xnet: bool,
    /// Every word round must be a (partial) permutation — no destination
    /// receives two words in one round (rule R04, MP-BSP).
    pub forbid_concurrent_writes: bool,
    /// Every block/xnet round must be single-port on the receive side —
    /// at most one block converging on a destination (rule R06, MP-BPRAM).
    pub single_port_blocks: bool,
}

impl Discipline {
    /// Plain BSP word traffic: concurrent arrivals are priced, not wrong.
    pub fn bsp_words() -> Self {
        Discipline {
            name: "bsp-words",
            allow_words: true,
            allow_blocks: false,
            allow_xnet: false,
            forbid_concurrent_writes: false,
            single_port_blocks: false,
        }
    }

    /// Strict MP-BSP: word traffic only, staggered into permutation rounds.
    pub fn mp_bsp() -> Self {
        Discipline {
            name: "mp-bsp",
            allow_words: true,
            allow_blocks: false,
            allow_xnet: false,
            forbid_concurrent_writes: true,
            single_port_blocks: false,
        }
    }

    /// Strict MP-BPRAM: block transfers only, single-port per round.
    pub fn bpram() -> Self {
        Discipline {
            name: "bpram",
            allow_words: false,
            allow_blocks: true,
            allow_xnet: false,
            forbid_concurrent_writes: false,
            single_port_blocks: true,
        }
    }

    /// Block transfers without the single-port promise (e.g. the vendor
    /// SUMMA's deliberately unstaggered broadcasts, or data-dependent
    /// routing where senders cannot align their rounds).
    pub fn blocks_relaxed() -> Self {
        Discipline {
            name: "blocks-relaxed",
            allow_words: false,
            allow_blocks: true,
            allow_xnet: false,
            forbid_concurrent_writes: false,
            single_port_blocks: false,
        }
    }

    /// Xnet neighbour-grid traffic (MasPar Cannon): shifts are
    /// permutations, so single-port is enforced.
    pub fn xnet_grid() -> Self {
        Discipline {
            name: "xnet-grid",
            allow_words: false,
            allow_blocks: false,
            allow_xnet: true,
            forbid_concurrent_writes: true,
            single_port_blocks: true,
        }
    }

    /// Everything allowed, nothing enforced beyond the universal rules
    /// (R01/R05/R07 always apply).
    pub fn any() -> Self {
        Discipline {
            name: "any",
            allow_words: true,
            allow_blocks: true,
            allow_xnet: true,
            forbid_concurrent_writes: false,
            single_port_blocks: false,
        }
    }
}

/// What happens-before guarantees an algorithm declares, mirroring
/// [`Discipline`] for the protocol layer.
#[derive(Clone, Copy, Debug)]
pub struct RaceConfig {
    /// Name for diagnostics.
    pub name: &'static str,
    /// Every `(destination, tag)` cell has at most one writing processor
    /// per superstep. Off for declared fan-in patterns (count
    /// accumulation, broadcast gathers), where the receiver folds the
    /// queue order-insensitively.
    pub exclusive_writes: bool,
    /// Logical streams are separated by tag and read through
    /// `msgs_tagged` (or carry a single tag). Off for dynamic-tag
    /// dispatchers that decode the tag from each message.
    pub tagged_inbox: bool,
}

impl RaceConfig {
    /// Exclusive writes, tagged inbox — the strictest config: single
    /// writer per cell, streams never alias.
    pub fn exclusive() -> Self {
        RaceConfig {
            name: "exclusive",
            exclusive_writes: true,
            tagged_inbox: true,
        }
    }

    /// Exclusive writes, but the receiver dispatches on tags it decodes
    /// from the messages (dynamic tag spaces like APSP's `2·idx+axis`),
    /// so untagged reads of mixed tags are expected.
    pub fn exclusive_dispatch() -> Self {
        RaceConfig {
            name: "exclusive-dispatch",
            exclusive_writes: true,
            tagged_inbox: false,
        }
    }

    /// Declared fan-in (several sources per cell, folded
    /// order-insensitively), streams still tag-separated.
    pub fn queued_tagged() -> Self {
        RaceConfig {
            name: "queued-tagged",
            exclusive_writes: false,
            tagged_inbox: true,
        }
    }

    /// Declared fan-in with dynamic dispatch — the loosest config; only
    /// W02 and W04 remain active.
    pub fn queued() -> Self {
        RaceConfig {
            name: "queued",
            exclusive_writes: false,
            tagged_inbox: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_encode_the_models() {
        assert!(Discipline::mp_bsp().forbid_concurrent_writes);
        assert!(!Discipline::bsp_words().forbid_concurrent_writes);
        assert!(Discipline::bpram().single_port_blocks);
        assert!(!Discipline::blocks_relaxed().single_port_blocks);
        assert!(Discipline::xnet_grid().allow_xnet);
        assert!(!Discipline::bpram().allow_words);
        let any = Discipline::any();
        assert!(any.allow_words && any.allow_blocks && any.allow_xnet);
        assert!(!any.forbid_concurrent_writes && !any.single_port_blocks);
    }

    #[test]
    fn configs_declare_the_documented_flags() {
        assert!(RaceConfig::exclusive().exclusive_writes);
        assert!(RaceConfig::exclusive().tagged_inbox);
        assert!(RaceConfig::exclusive_dispatch().exclusive_writes);
        assert!(!RaceConfig::exclusive_dispatch().tagged_inbox);
        assert!(!RaceConfig::queued_tagged().exclusive_writes);
        assert!(RaceConfig::queued_tagged().tagged_inbox);
        assert!(!RaceConfig::queued().exclusive_writes);
        assert!(!RaceConfig::queued().tagged_inbox);
    }
}
