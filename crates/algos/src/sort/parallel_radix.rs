//! Parallel radix sort — an extension beyond the paper's two sorting
//! algorithms.
//!
//! The paper's sample sort follows Blelloch et al.'s CM-2 study, whose
//! third contender was a counting-based radix sort. This module implements
//! it on the simulator: each 8-bit pass computes local digit histograms,
//! resolves global bucket offsets with the multi-scan primitive the paper
//! analyzes (`T_scan = 2·(g·P + L)` — reference \[16\]), and routes every key
//! to its globally ranked position. Four passes leave the keys globally
//! sorted by processor order.
//!
//! Keys travel as `(position, key)` word pairs so each receiver can place
//! them exactly; the routing is staggered per destination like every other
//! algorithm in this crate.

use pcm_core::units::tag_u32;
use pcm_machines::Platform;
use pcm_models::DomainSpec;
use pcm_sim::Machine;

use super::{copy_u32s, u32_pairs};
use crate::primitives::plan::staggered;
use crate::regions;
use crate::run::RunResult;
use crate::verify::SortInput;

/// Digit width per pass.
const RADIX_BITS: usize = 8;
/// Number of buckets per pass.
const RADIX: usize = 1 << RADIX_BITS;

/// Word or block transfers for the key routing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RadixVariant {
    /// Word-message routing.
    Words,
    /// Block-transfer routing.
    Blocks,
}

#[derive(Clone, Debug, Default)]
struct RadixState {
    keys: Vec<u32>,
    counts: Vec<u32>,
    /// Exclusive prefix over lower-ranked processors, per local bucket.
    prefix: Vec<u32>,
    /// Global start offset of each bucket.
    base: Vec<u32>,
    incoming: Vec<(u32, u32)>,
}

/// Runs parallel radix sort on `keys_per_proc` keys per processor and
/// verifies the global order.
///
/// # Panics
/// Outside [`DomainSpec::parallel_radix`]: unless the processor count is
/// a power of two that divides the bucket count (so every processor
/// manages `256/P` buckets), i.e. `P <= 256`.
pub fn run(
    platform: &Platform,
    keys_per_proc: usize,
    variant: RadixVariant,
    seed: u64,
) -> RunResult {
    let input = SortInput::random(platform.p() * keys_per_proc, seed);
    run_on(platform, &input, variant, seed)
}

/// [`run`] on the given input, split evenly over the processors; the
/// machine draws from `seed`.
///
/// # Panics
/// As [`run`], and unless the processor count divides the number of keys.
pub fn run_on(
    platform: &Platform,
    input: &SortInput,
    variant: RadixVariant,
    seed: u64,
) -> RunResult {
    let p = platform.p();
    let m = input.per_proc(p);
    DomainSpec::parallel_radix().require("parallel_radix", m, p);
    let buckets_per_proc = RADIX / p;

    let states: Vec<RadixState> = (0..p)
        .map(|i| RadixState {
            keys: input.share(i, p),
            ..Default::default()
        })
        .collect();
    let mut machine = platform.machine(states, seed);

    for pass in 0..(32 / RADIX_BITS) {
        let shift = pass * RADIX_BITS;
        radix_pass(&mut machine, p, m, buckets_per_proc, shift, variant);
    }

    let time = machine.time();
    let breakdown = machine.breakdown();
    let verified = input.check(machine.states().iter().map(|s| &s.keys[..]));
    RunResult::new(time, breakdown, verified)
}

fn radix_pass(
    machine: &mut Machine<RadixState>,
    p: usize,
    m: usize,
    buckets_per_proc: usize,
    shift: usize,
    variant: RadixVariant,
) {
    let digit = move |k: u32| ((k >> shift) as usize) & (RADIX - 1);

    // Superstep 1: local histogram; ship each manager its bucket counts.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        let mut counts = vec![0u32; RADIX];
        ctx.touch_read(regions::RADIX_KEYS);
        ctx.touch_write(regions::RADIX_COUNTS);
        for &k in ctx.state.keys.iter() {
            counts[digit(k)] += 1;
        }
        ctx.charge_radix_sort(ctx.state.keys.len(), RADIX_BITS, RADIX_BITS);
        for t in staggered(pid, p) {
            let slice: Vec<u32> = (0..buckets_per_proc)
                .map(|b| counts[t * buckets_per_proc + b])
                .collect();
            if t == pid {
                ctx.state.prefix = slice; // temporarily hold own slice
            } else {
                match variant {
                    RadixVariant::Blocks => ctx.send_block_u32(t, &slice),
                    RadixVariant::Words => ctx.send_words_u32(t, &slice),
                }
            }
        }
        ctx.state.counts = counts;
    });

    // Superstep 2: each manager prefixes its buckets over the processors
    // and returns the per-processor prefix plus its bucket totals.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        // rows[i][b] = counts of processor i for my b-th bucket.
        let mut rows = vec![vec![0u32; buckets_per_proc]; p];
        ctx.touch_read(regions::RADIX_COUNTS);
        rows[pid].copy_from_slice(&ctx.state.prefix);
        for msg in ctx.msgs() {
            copy_u32s(&mut rows[msg.src], msg);
        }
        let mut totals = vec![0u32; buckets_per_proc];
        let mut prefixes = vec![vec![0u32; buckets_per_proc]; p];
        for b in 0..buckets_per_proc {
            let mut acc = 0u32;
            for i in 0..p {
                prefixes[i][b] = acc;
                acc += rows[i][b];
            }
            totals[b] = acc;
        }
        ctx.charge_ops((p * buckets_per_proc) as u64);
        // Reply: [prefix for you ..., my totals ...] to every processor.
        ctx.touch_write(regions::RADIX_COUNTS);
        for t in staggered(pid, p) {
            let mut payload = prefixes[t].clone();
            payload.extend_from_slice(&totals);
            if t == pid {
                ctx.state.prefix = payload;
            } else {
                match variant {
                    RadixVariant::Blocks => ctx.send_block_u32(t, &payload),
                    RadixVariant::Words => ctx.send_words_u32(t, &payload),
                }
            }
        }
    });

    // Superstep 3: assemble bases, compute every key's global position,
    // route (position, key) pairs.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        let mut prefix = vec![0u32; RADIX];
        let mut totals = vec![0u32; RADIX];
        ctx.touch_read(regions::RADIX_COUNTS);
        let own = ctx.state.prefix.clone();
        let place = |store: &mut [u32], manager: usize, vals: &[u32]| {
            for b in 0..buckets_per_proc {
                store[manager * buckets_per_proc + b] = vals[b];
            }
        };
        place(&mut prefix, pid, &own[..buckets_per_proc]);
        place(&mut totals, pid, &own[buckets_per_proc..]);
        // Each reply is [prefix ..., totals ...]: decode it in place.
        for msg in ctx.msgs() {
            let words = msg.u32s();
            assert_eq!(words.len(), 2 * buckets_per_proc, "payload length mismatch");
            let at = msg.src * buckets_per_proc..(msg.src + 1) * buckets_per_proc;
            let slots = prefix[at.clone()].iter_mut().chain(&mut totals[at]);
            for (slot, &v) in slots.zip(words) {
                *slot = v;
            }
        }
        // Exclusive scan of the totals gives each bucket's global base.
        let mut base = vec![0u32; RADIX];
        let mut acc = 0u32;
        for b in 0..RADIX {
            base[b] = acc;
            acc += totals[b];
        }
        ctx.charge_ops(RADIX as u64);

        // Global position of each key, preserving local order (stability).
        ctx.touch_read(regions::RADIX_KEYS);
        let keys = std::mem::take(&mut ctx.state.keys);
        ctx.touch_modify(regions::RADIX_BUCKET);
        let mut cursor = vec![0u32; RADIX];
        let mut outgoing: Vec<Vec<(u32, u32)>> = vec![Vec::new(); p];
        for &k in &keys {
            let d = digit(k);
            let pos = base[d] + prefix[d] + cursor[d];
            cursor[d] += 1;
            let dest = (pos as usize) / m;
            outgoing[dest].push((pos % tag_u32(m), k));
        }
        ctx.charge_ops(keys.len() as u64);
        for t in staggered(pid, p) {
            if outgoing[t].is_empty() {
                continue;
            }
            let mut payload = Vec::with_capacity(outgoing[t].len() * 2);
            for &(pos, k) in &outgoing[t] {
                payload.push(pos);
                payload.push(k);
            }
            if t == pid {
                ctx.state.incoming.extend_from_slice(&outgoing[t]);
            } else {
                match variant {
                    RadixVariant::Blocks => ctx.send_block_u32(t, &payload),
                    RadixVariant::Words => ctx.send_words_u32(t, &payload),
                }
            }
        }
        ctx.touch_modify(regions::RADIX_BASE);
        ctx.state.base = base;
    });

    // Superstep 4: place the received keys.
    machine.superstep(move |ctx| {
        let mut placed = vec![0u32; m];
        ctx.touch_read(regions::RADIX_BUCKET);
        let mut pairs = std::mem::take(&mut ctx.state.incoming);
        for msg in ctx.msgs() {
            pairs.extend(u32_pairs(msg.u32s()));
        }
        debug_assert_eq!(pairs.len(), m, "every slot must be filled");
        for (pos, k) in pairs {
            placed[pos as usize] = k;
        }
        ctx.charge_copy_words(m as u64);
        ctx.touch_write(regions::RADIX_KEYS);
        ctx.state.keys = placed;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::bitonic::{self, ExchangeMode};

    #[test]
    fn sorts_on_all_platforms() {
        for plat in [
            Platform::cm5_with(16),
            Platform::gcel_with(16),
            Platform::maspar_with(16),
        ] {
            for variant in [RadixVariant::Words, RadixVariant::Blocks] {
                let r = run(&plat, 64, variant, 5);
                assert!(r.verified, "{} {variant:?} failed", plat.name());
            }
        }
    }

    #[test]
    fn full_sized_machines() {
        let r = run(&Platform::cm5(), 128, RadixVariant::Blocks, 7);
        assert!(r.verified);
        let r = run(&Platform::gcel(), 128, RadixVariant::Blocks, 7);
        assert!(r.verified);
    }

    #[test]
    fn uneven_key_distributions_survive() {
        // All-equal keys stress a single bucket.
        let plat = Platform::cm5_with(16);
        let r = run(&plat, 32, RadixVariant::Blocks, 999);
        assert!(r.verified);
    }

    #[test]
    fn beats_bitonic_on_the_cm5_at_scale() {
        // Radix does Theta(1) passes instead of Theta(log² P) exchanges —
        // on the CM-5 it wins for large inputs, consistent with the CM-2
        // study the paper's sample sort derives from.
        let plat = Platform::cm5();
        let m = 4096;
        let radix = run(&plat, m, RadixVariant::Blocks, 11);
        let bit = bitonic::run(&plat, m, ExchangeMode::Block, 11);
        assert!(radix.verified && bit.verified);
        assert!(
            radix.time < bit.time,
            "radix {} vs bitonic {}",
            radix.time,
            bit.time
        );
    }

    #[test]
    fn single_key_per_processor() {
        let r = run(&Platform::cm5_with(16), 1, RadixVariant::Words, 13);
        assert!(r.verified);
    }

    #[test]
    #[should_panic(expected = "p = 512 above maximum 256")]
    fn rejects_oversized_processor_counts() {
        run(&Platform::cm5_with(512), 4, RadixVariant::Words, 0);
    }
}
