//! Batcher's bitonic sort over `P` processors with `M = N/P` keys each
//! (paper Section 4.2).
//!
//! Every processor keeps a sorted list of `M` keys. The sort runs
//! `log P` merge stages; stage `d` has `d` compare-split steps, and in each
//! step a processor exchanges its whole list with the partner whose address
//! differs in one bit, then keeps the lower or upper half of the merge.
//! The exchange pattern — a bit-flip permutation — is exactly the pattern
//! the MasPar router handles at half the predicted cost (Figs. 5/10).
//!
//! Exchange modes:
//!
//! * [`ExchangeMode::Words`] — each key is its own message (BSP/MP-BSP);
//! * [`ExchangeMode::WordsResync`] — words with a barrier every `interval`
//!   keys, the paper's fix for the GCel's drift (Figs. 6/7);
//! * [`ExchangeMode::Block`] — one block transfer per step (MP-BPRAM).

use pcm_core::units::log2_exact;
use pcm_machines::Platform;
use pcm_models::DomainSpec;
use pcm_sim::topology::hypercube_partner;
use pcm_sim::{Ctx, Machine, Message, RegionId};

use super::radix::{compare_split, radix_sort, KEY_BITS, RADIX_BITS};
use crate::regions;
use crate::run::RunResult;
use crate::verify::SortInput;

/// How the per-step exchange is realized on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeMode {
    /// One word message per key.
    Words,
    /// Word messages with a synchronizing barrier every `interval` keys.
    WordsResync {
        /// Keys between barriers (the paper uses 256).
        interval: usize,
    },
    /// Fixed-size packets of several keys each — the "short messages, but
    /// larger than one computational word" of the paper's Section 8
    /// conclusions.
    Packets {
        /// Packet size in bytes (a multiple of the machine word size).
        bytes: usize,
    },
    /// One block transfer per compare-split step.
    Block,
}

/// State shapes that can host the bitonic phases (the sorting state itself,
/// or sample sort's sample list).
pub trait BitonicList: Send {
    /// The processor's sorted list.
    fn list_mut(&mut self) -> &mut Vec<u32>;
    /// Scratch buffer for partially received partner lists.
    fn stash_mut(&mut self) -> &mut Vec<u32>;
    /// Merge output buffer of the chunked (`WordsResync`) exchange,
    /// swapped with the list after each compare-split. Its contents
    /// between steps are scratch, so it has no shadow region.
    fn spare_mut(&mut self) -> &mut Vec<u32>;
    /// Shadow region id of the list (see [`crate::regions`]).
    fn list_region(&self) -> RegionId;
    /// Shadow region id of the stash.
    fn stash_region(&self) -> RegionId;
}

/// Plain sorting state.
#[derive(Clone, Debug, Default)]
pub struct SortState {
    /// The processor's keys (kept ascending between steps).
    pub keys: Vec<u32>,
    /// Receive stash.
    pub stash: Vec<u32>,
    /// Merge output buffer of the chunked exchange.
    pub spare: Vec<u32>,
}

impl BitonicList for SortState {
    fn list_mut(&mut self) -> &mut Vec<u32> {
        &mut self.keys
    }

    fn stash_mut(&mut self) -> &mut Vec<u32> {
        &mut self.stash
    }

    fn spare_mut(&mut self) -> &mut Vec<u32> {
        &mut self.spare
    }

    fn list_region(&self) -> RegionId {
        regions::BITONIC_KEYS
    }

    fn stash_region(&self) -> RegionId {
        regions::BITONIC_STASH
    }
}

/// The compare-split schedule: `(stage, bit)` pairs in execution order.
pub fn schedule(p: usize) -> Vec<(u32, u32)> {
    let lg = log2_exact(p);
    let mut steps = Vec::with_capacity((lg * (lg + 1) / 2) as usize);
    for stage in 1..=lg {
        for bit in (0..stage).rev() {
            steps.push((stage, bit));
        }
    }
    steps
}

/// Whether the processor keeps the lower half in step `(stage, bit)`.
fn keeps_low(pid: usize, stage: u32, bit: u32) -> bool {
    let ascending = (pid >> stage) & 1 == 0;
    let is_lower = (pid >> bit) & 1 == 0;
    ascending == is_lower
}

/// Runs the compare-split phases on a machine whose lists are already
/// locally sorted. Afterwards the concatenation of the lists in pid order
/// is globally sorted.
///
/// # Panics
/// Panics if the processors' lists differ in length: a compare-split keeps
/// as many keys as the processor sent, so unequal lists would lose or
/// duplicate keys.
pub fn merge_phases<S: BitonicList>(machine: &mut Machine<S>, mode: ExchangeMode) {
    let m = equal_list_len(machine);
    let p = machine.nprocs();
    if p == 1 {
        return;
    }
    let steps = schedule(p);

    // Number of chunk-supersteps per exchange.
    let (chunked, nchunks) = match mode {
        ExchangeMode::WordsResync { interval } => (true, m.div_ceil(interval).max(1)),
        _ => (false, 1),
    };

    for (s, &(_, bit)) in steps.iter().enumerate() {
        // The merge of step s-1 happens at the start of the first chunk
        // superstep of step s (when the partner list has fully arrived).
        let prev = if s > 0 { Some(steps[s - 1]) } else { None };
        for c in 0..nchunks {
            machine.superstep(|ctx| {
                receive(ctx, if c == 0 { prev } else { None }, chunked);
                let partner = hypercube_partner(ctx.pid(), bit);
                ctx.touch_read(ctx.state.list_region());
                // The list leaves the state while it is sent: a whole list
                // moves into its message, where the next superstep's merge
                // reads it back through `ctx.sent()`; a chunk is copied
                // out, and the list returns to the state.
                let list = std::mem::take(ctx.state.list_mut());
                match mode {
                    ExchangeMode::Block => ctx.send_block_u32(partner, list),
                    ExchangeMode::Packets { bytes } => ctx.send_packets_u32(partner, list, bytes),
                    ExchangeMode::Words => ctx.send_words_u32(partner, list),
                    ExchangeMode::WordsResync { .. } => {
                        let chunk =
                            &list[(c * m).div_ceil(nchunks)..((c + 1) * m).div_ceil(nchunks)];
                        ctx.send_words_u32(partner, chunk);
                        *ctx.state.list_mut() = list;
                    }
                }
            });
        }
    }

    // Final merge.
    let last = *steps.last().unwrap();
    machine.superstep(|ctx| receive(ctx, Some(last), chunked));
}

/// The common length of every processor's list.
///
/// # Panics
/// Panics if two lists differ in length.
fn equal_list_len<S: BitonicList>(machine: &mut Machine<S>) -> usize {
    let mut lens = machine.states_mut().iter_mut().map(|s| s.list_mut().len());
    let m = lens.next().unwrap_or(0);
    if let Some((pid, len)) = lens.enumerate().find(|&(_, len)| len != m) {
        panic!(
            "bitonic merge phases need equal list lengths: processor 0 holds {m} keys, \
             processor {} holds {len}",
            pid + 1
        );
    }
    m
}

/// Takes in the partner's keys that arrived at the last barrier and, when
/// `merge` names the step `(stage, bit)` they complete, compare-splits the
/// own list with the partner's.
///
/// A whole-list exchange (the `Words`, `Block` and `Packets` modes) moved
/// both lists into their messages, so the merge reads the own list in
/// place through `ctx.sent()` and the partner's in the inbox, and writes
/// the new list into a buffer from the processor's payload pool: the
/// list that an earlier exchange carried and recycled. Only `chunked`
/// lists (`WordsResync`), which arrive over several supersteps, are
/// gathered onto the stash and merged with the list kept in the state.
/// The shadow touches and the merge charge are the same on both paths.
fn receive<S: BitonicList>(ctx: &mut Ctx<'_, S>, merge: Option<(u32, u32)>, chunked: bool) {
    let msgs = ctx.msgs();
    let in_place = merge.is_some() && !chunked;
    if !in_place {
        let stash = ctx.state.stash_mut();
        for msg in msgs {
            stash.extend_from_slice(msg.u32s());
        }
    }
    if msgs.iter().any(|msg| !msg.u32s().is_empty()) {
        ctx.touch_modify(ctx.state.stash_region());
    }
    let Some((stage, bit)) = merge else {
        return;
    };
    let low = keeps_low(ctx.pid(), stage, bit);
    ctx.touch_read(ctx.state.stash_region());
    ctx.touch_modify(ctx.state.list_region());
    let keep = if in_place {
        let mine = ctx.sent().first().map_or(&[][..], Message::u32s);
        let theirs = msgs.first().map_or(&[][..], Message::u32s);
        debug_assert_eq!(theirs.len(), mine.len(), "partner list must be complete");
        let mut list = ctx.buffer_u32(mine.len());
        compare_split(mine, theirs, low, &mut list);
        *ctx.state.list_mut() = list;
        mine.len()
    } else {
        let mut spare = std::mem::take(ctx.state.spare_mut());
        let mut stash = std::mem::take(ctx.state.stash_mut());
        let list = ctx.state.list_mut();
        debug_assert_eq!(stash.len(), list.len(), "partner list must be complete");
        compare_split(list, &stash, low, &mut spare);
        std::mem::swap(list, &mut spare);
        stash.clear();
        *ctx.state.stash_mut() = stash;
        *ctx.state.spare_mut() = spare;
        ctx.state.list_mut().len()
    };
    // The paper charges alpha·M for the linear merge of each step.
    ctx.charge_merge(keep as u64);
}

/// Full bitonic sort benchmark: deterministic random keys, local radix
/// sort, merge phases, verification. `keys_per_proc` may be any positive
/// size.
///
/// # Panics
/// Outside [`DomainSpec::bitonic`]: unless the processor count is a power
/// of two.
pub fn run(platform: &Platform, keys_per_proc: usize, mode: ExchangeMode, seed: u64) -> RunResult {
    let input = SortInput::random(platform.p() * keys_per_proc, seed);
    run_on(platform, &input, mode, seed)
}

/// [`run`] on the given input, split evenly over the processors; the
/// machine draws from `seed`.
///
/// # Panics
/// Outside [`DomainSpec::bitonic`], and unless the processor count
/// divides the number of keys.
pub fn run_on(platform: &Platform, input: &SortInput, mode: ExchangeMode, seed: u64) -> RunResult {
    let p = platform.p();
    let keys_per_proc = input.per_proc(p);
    DomainSpec::bitonic().require("bitonic", keys_per_proc, p);
    let states: Vec<SortState> = (0..p)
        .map(|i| SortState {
            keys: input.share(i, p),
            ..SortState::default()
        })
        .collect();

    let mut machine = platform.machine(states, seed);

    // Local sort (radix), charged with the platform coefficients.
    machine.superstep(|ctx| {
        ctx.touch_modify(ctx.state.list_region());
        radix_sort(ctx.state.list_mut());
        ctx.charge_radix_sort(keys_per_proc, KEY_BITS, RADIX_BITS);
    });

    merge_phases(&mut machine, mode);

    let time = machine.time();
    let breakdown = machine.breakdown();
    let verified = input.check(machine.states().iter().map(|s| &s.keys[..]));
    RunResult::new(time, breakdown, verified)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_has_the_right_length() {
        assert_eq!(schedule(2).len(), 1);
        assert_eq!(schedule(64).len(), 21);
        assert_eq!(schedule(1024).len(), 55);
        // Stage d contributes d steps, highest bit first.
        assert_eq!(schedule(8)[..3], [(1, 0), (2, 1), (2, 0)]);
    }

    #[test]
    fn sorts_on_every_platform_kind() {
        for plat in [
            Platform::cm5_with(8),
            Platform::gcel_with(16),
            Platform::maspar_with(16),
        ] {
            let r = run(&plat, 32, ExchangeMode::Words, 3);
            assert!(r.verified, "{} word-mode sort failed", plat.name());
            let r = run(&plat, 32, ExchangeMode::Block, 3);
            assert!(r.verified, "{} block-mode sort failed", plat.name());
        }
    }

    #[test]
    fn resync_mode_sorts_and_adds_barriers() {
        let plat = Platform::gcel_with(16);
        let plain = run(&plat, 64, ExchangeMode::Words, 5);
        let resync = run(&plat, 64, ExchangeMode::WordsResync { interval: 16 }, 5);
        assert!(plain.verified && resync.verified);
        assert!(
            resync.breakdown.supersteps > plain.breakdown.supersteps,
            "chunked exchange must add supersteps"
        );
    }

    #[test]
    fn block_mode_is_much_faster_on_gcel() {
        let plat = Platform::gcel();
        let words = run(&plat, 64, ExchangeMode::Words, 7);
        let blocks = run(&plat, 64, ExchangeMode::Block, 7);
        assert!(words.verified && blocks.verified);
        let ratio = words.time / blocks.time;
        assert!(ratio > 10.0, "bulk transfer gain on the GCel was {ratio}");
    }

    #[test]
    fn single_key_per_processor() {
        let plat = Platform::cm5_with(16);
        let r = run(&plat, 1, ExchangeMode::Words, 11);
        assert!(r.verified);
    }

    #[test]
    fn odd_list_lengths_sort_too() {
        let plat = Platform::cm5_with(8);
        let r = run(&plat, 37, ExchangeMode::Block, 13);
        assert!(r.verified);
    }

    #[test]
    fn packet_mode_sorts_and_interpolates_between_words_and_blocks() {
        let plat = Platform::gcel_with(16);
        let m = 128;
        let words = run(&plat, m, ExchangeMode::Words, 5);
        let packets = run(&plat, m, ExchangeMode::Packets { bytes: 16 }, 5);
        let blocks = run(&plat, m, ExchangeMode::Block, 5);
        assert!(words.verified && packets.verified && blocks.verified);
        assert!(packets.time < words.time, "packets beat single words");
        assert!(blocks.time < packets.time, "full blocks beat packets");
    }

    #[test]
    #[should_panic(expected = "equal list lengths")]
    fn unequal_lists_are_rejected() {
        let states = (0..4)
            .map(|i| SortState {
                keys: (0..4 + u32::from(i == 2)).collect(),
                ..SortState::default()
            })
            .collect();
        let mut machine = Platform::cm5_with(4).machine(states, 1);
        merge_phases(&mut machine, ExchangeMode::Block);
    }

    #[test]
    fn keeps_low_is_antisymmetric_in_the_partner_bit() {
        for stage in 1..=4u32 {
            for bit in 0..stage {
                for pid in 0..16usize {
                    let partner = hypercube_partner(pid, bit);
                    assert_ne!(
                        keeps_low(pid, stage, bit),
                        keeps_low(partner, stage, bit),
                        "one side keeps low, the other high"
                    );
                }
            }
        }
    }
}
