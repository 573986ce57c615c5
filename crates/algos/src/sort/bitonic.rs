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
use pcm_sim::topology::hypercube_partner;
use pcm_sim::{Machine, RegionId};

use super::radix::{merge_split_into, radix_sort, KEY_BITS, RADIX_BITS};
use crate::regions;
use crate::run::RunResult;
use crate::verify::check_sorted_permutation;

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
}

impl BitonicList for SortState {
    fn list_mut(&mut self) -> &mut Vec<u32> {
        &mut self.keys
    }

    fn stash_mut(&mut self) -> &mut Vec<u32> {
        &mut self.stash
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
    let nchunks = match mode {
        ExchangeMode::WordsResync { interval } => m.div_ceil(interval).max(1),
        _ => 1,
    };

    for (s, &(_, bit)) in steps.iter().enumerate() {
        // The merge of step s-1 happens at the start of the first chunk
        // superstep of step s (when the partner list has fully arrived).
        let prev = if s > 0 { Some(steps[s - 1]) } else { None };
        for c in 0..nchunks {
            machine.superstep(|ctx| {
                // Absorb whatever arrived at the last barrier.
                absorb(ctx);
                if c == 0 {
                    if let Some((ps, pb)) = prev {
                        finish_merge(ctx, ps, pb);
                    }
                }
                // Send chunk c of the (current) list to this step's partner.
                // The list leaves the state while it is sent: the send
                // borrows the context mutably.
                let partner = hypercube_partner(ctx.pid(), bit);
                ctx.touch_read(ctx.state.list_region());
                let list = std::mem::take(ctx.state.list_mut());
                let chunk = &list[(c * m).div_ceil(nchunks)..((c + 1) * m).div_ceil(nchunks)];
                match mode {
                    ExchangeMode::Block => ctx.send_block_u32(partner, chunk),
                    ExchangeMode::Packets { bytes } => ctx.send_packets_u32(partner, chunk, bytes),
                    _ => ctx.send_words_u32(partner, chunk),
                }
                *ctx.state.list_mut() = list;
            });
        }
    }

    // Final merge.
    let last = *steps.last().unwrap();
    machine.superstep(|ctx| {
        absorb(ctx);
        finish_merge(ctx, last.0, last.1);
    });
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

/// Decodes the keys that arrived at the last barrier onto the stash.
fn absorb<S: BitonicList>(ctx: &mut pcm_sim::Ctx<'_, S>) {
    let mut stash = std::mem::take(ctx.state.stash_mut());
    let before = stash.len();
    for msg in ctx.msgs() {
        stash.extend(msg.u32s());
    }
    if stash.len() > before {
        ctx.touch_modify(ctx.state.stash_region());
    }
    *ctx.state.stash_mut() = stash;
}

/// Compare-splits the list with the partner's list in the stash. The merge
/// is written behind the partner's keys in the stash buffer and copied
/// back, so after the first step neither buffer allocates.
fn finish_merge<S: BitonicList>(ctx: &mut pcm_sim::Ctx<'_, S>, stage: u32, bit: u32) {
    let low = keeps_low(ctx.pid(), stage, bit);
    ctx.touch_read(ctx.state.stash_region());
    ctx.touch_modify(ctx.state.list_region());
    let mut stash = std::mem::take(ctx.state.stash_mut());
    let list = ctx.state.list_mut();
    let keep = list.len();
    debug_assert_eq!(stash.len(), keep, "partner list must be complete");
    stash.resize(2 * keep, 0);
    let (theirs, merged) = stash.split_at_mut(keep);
    merge_split_into(list, theirs, low, merged);
    list.copy_from_slice(merged);
    stash.clear();
    *ctx.state.stash_mut() = stash;
    // The paper charges alpha·M for the linear merge of each step.
    ctx.charge_merge(keep as u64);
}

/// Full bitonic sort benchmark: deterministic random keys, local radix
/// sort, merge phases, verification. `keys_per_proc` may be any size.
pub fn run(platform: &Platform, keys_per_proc: usize, mode: ExchangeMode, seed: u64) -> RunResult {
    let p = platform.p();
    let mut rng = pcm_core::rng::seeded(seed);
    let all_keys = pcm_core::rng::random_keys(p * keys_per_proc, &mut rng);
    let states: Vec<SortState> = (0..p)
        .map(|i| SortState {
            keys: all_keys[i * keys_per_proc..(i + 1) * keys_per_proc].to_vec(),
            stash: Vec::new(),
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
    let sorted: Vec<u32> = machine
        .states()
        .iter()
        .flat_map(|s| s.keys.iter().copied())
        .collect();
    let verified = check_sorted_permutation(&all_keys, &sorted);
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
                stash: Vec::new(),
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
