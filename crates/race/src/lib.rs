//! # pcm-race — happens-before race & staleness analyzer
//!
//! `pcm-check` lints message *discipline* per superstep; this crate adds
//! the missing *dataflow across supersteps*. It consumes the simulator's
//! observer hook ([`pcm_sim::probe`], at the schedule level) plus the
//! shadow-memory event stream ([`pcm_sim::shadow`]) that instrumented
//! algorithms emit, on whichever exchange engine ran the step, and
//! checks a vector-clocked happens-before relation over every send,
//! inbox read and private-region touch:
//!
//! * **W01 write-write race** — two distinct processors wrote into the
//!   same `(destination, tag)` cell within one superstep while the
//!   algorithm declared exclusive writes. The delivered order (and thus
//!   the read-back value stream) depends on processor interleaving the
//!   simulator happens to serialize deterministically — real hardware
//!   would not.
//! * **W02 stale read** — a processor consumed data whose producing send
//!   had not crossed a barrier. Detected as a filter-compatible,
//!   zero-match read attempt in the producing superstep paired with the
//!   delivery subsequently dying unread: the early read was the only
//!   read, so the algorithm acted on stale (absent) data. This is the
//!   bug class a wall-clock simulator silently hides.
//! * **W03 inbox aliasing** — an untagged `msgs()` read observed two or
//!   more distinct tags under a config that declares a tagged inbox: two
//!   logical streams aliased into one read.
//! * **W04 dead send** (warning) — data delivered but never read before
//!   the next barrier cleared the inbox, or a private region overwritten
//!   before anything read it: wasted communication, the "cheap pattern"
//!   smell the paper attributes mispredictions to.
//!
//! The [`RaceConfig`] declares which guarantees an algorithm claims, in
//! the spirit of `pcm_check::Discipline`: concurrent-write algorithms
//! (fan-in accumulations) run with `exclusive_writes` off, dynamic-tag
//! dispatchers with `tagged_inbox` off.
//!
//! ```
//! use pcm_race::{check_races, errors, RaceConfig};
//! use pcm_sim::{IdealNetwork, Machine, UniformCompute};
//! use std::sync::Arc;
//!
//! let ((), findings) = check_races(RaceConfig::exclusive(), || {
//!     let mut m = Machine::new(
//!         Box::new(IdealNetwork),
//!         Arc::new(UniformCompute::test_model()),
//!         vec![0u32; 4],
//!         1,
//!     );
//!     m.superstep(|ctx| {
//!         let dst = (ctx.pid() + 1) % ctx.nprocs();
//!         ctx.send_word_u32(dst, 7);
//!     });
//!     m.superstep(|ctx| {
//!         let _ = ctx.msgs();
//!     });
//! });
//! assert!(errors(&findings).is_empty());
//! ```

#![warn(clippy::pedantic)]
#![allow(
    // The checker's prose-heavy reports read better unmangled.
    clippy::doc_markdown,
    // Stylistic pedantic lints the surrounding workspace does not follow.
    clippy::module_name_repetitions,
    clippy::must_use_candidate,
    clippy::missing_panics_doc,
    clippy::redundant_closure_for_method_calls,
    // check_step is one cohesive 7-phase replay; splitting it would
    // scatter the per-superstep protocol across helpers.
    clippy::too_many_lines
)]

use std::cell::RefCell;
use std::rc::Rc;

use pcm_check::{Severity, Violation};
use pcm_sim::with_probe;

pub mod checker;
pub mod vclock;

pub use checker::RaceChecker;
pub use vclock::{Epoch, VClock};

/// Shared violation sink the per-machine checkers push into.
pub(crate) type Sink = Rc<RefCell<Vec<Violation>>>;

/// What happens-before guarantees an algorithm declares, mirroring
/// `pcm_check::Discipline` for the protocol layer.
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

/// Runs `body` with a [`RaceChecker`] installed on every machine it
/// creates (via the thread-local observer hook) and returns `body`'s
/// result alongside every finding, in detection order.
pub fn check_races<R>(config: RaceConfig, body: impl FnOnce() -> R) -> (R, Vec<Violation>) {
    let sink: Sink = Rc::default();
    let hook_sink = sink.clone();
    let result = with_probe(
        move |p| Box::new(RaceChecker::new(config, p, hook_sink.clone())),
        body,
    );
    let violations = sink.take();
    (result, violations)
}

/// The error-severity findings (W01–W03): findings that invalidate the
/// run.
pub fn errors(violations: &[Violation]) -> Vec<&Violation> {
    violations
        .iter()
        .filter(|v| v.rule.severity() == Severity::Error)
        .collect()
}

/// The warning-severity findings (W04): smells that do not invalidate
/// the run.
pub fn warnings(violations: &[Violation]) -> Vec<&Violation> {
    violations
        .iter()
        .filter(|v| v.rule.severity() == Severity::Warning)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
