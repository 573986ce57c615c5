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
use pcm_sim::{Ctx, Machine};

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

/// One processor's keys and the scratch of a pass, reused by every pass so
/// that no superstep allocates per destination.
#[derive(Clone, Debug, Default)]
struct RadixState {
    keys: Vec<u32>,
    /// The local histogram (superstep 1); as a manager, row `i` holds
    /// processor `i`'s counts for my buckets, scanned in place into its
    /// prefix (superstep 2); then each bucket's next global position
    /// (superstep 3). Row `i` is `counts[i·(256/P)..(i + 1)·(256/P)]`.
    counts: Vec<u32>,
    /// Bucket totals: my buckets' (superstep 2), then every manager's
    /// (superstep 3).
    totals: Vec<u32>,
    /// `(position, key)` word pairs grouped by destination (superstep 3).
    route: Vec<u32>,
    /// Destination `t`'s pairs are `route[2·starts[t]..2·starts[t + 1]]`.
    starts: Vec<u32>,
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

/// One pass over the digit at `shift`; each processor manages `bpp`
/// consecutive buckets.
fn radix_pass(
    machine: &mut Machine<RadixState>,
    p: usize,
    m: usize,
    bpp: usize,
    shift: usize,
    variant: RadixVariant,
) {
    let digit = move |k: u32| ((k >> shift) as usize) & (RADIX - 1);
    let send = move |ctx: &mut Ctx<'_, RadixState>, t: usize, words: &[u32]| match variant {
        RadixVariant::Blocks => ctx.send_block_u32(t, words),
        RadixVariant::Words => ctx.send_words_u32(t, words),
    };

    // Superstep 1: local histogram; ship each manager its bucket counts.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        ctx.touch_read(regions::RADIX_KEYS);
        ctx.touch_write(regions::RADIX_COUNTS);
        let mut counts = std::mem::take(&mut ctx.state.counts);
        counts.clear();
        counts.resize(RADIX, 0);
        for &k in &ctx.state.keys {
            counts[digit(k)] += 1;
        }
        ctx.charge_radix_sort(ctx.state.keys.len(), RADIX_BITS, RADIX_BITS);
        for t in staggered(pid, p) {
            if t != pid {
                send(ctx, t, &counts[t * bpp..(t + 1) * bpp]);
            }
        }
        ctx.state.counts = counts;
    });

    // Superstep 2: each manager prefixes its buckets over the processors
    // and returns the per-processor prefix plus its bucket totals.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        ctx.touch_read(regions::RADIX_COUNTS);
        let inbox = ctx.msgs();
        let st = &mut *ctx.state;
        // My own row is already in place.
        for msg in inbox {
            copy_u32s(&mut st.counts[msg.src * bpp..(msg.src + 1) * bpp], msg);
        }
        st.totals.resize(RADIX, 0);
        for b in 0..bpp {
            let mut acc = 0u32;
            for row in st.counts.chunks_exact_mut(bpp) {
                let count = row[b];
                row[b] = acc;
                acc += count;
            }
            st.totals[pid * bpp + b] = acc;
        }
        ctx.charge_ops((p * bpp) as u64);
        // Reply: [prefix for you ..., my totals ...] to every processor.
        ctx.touch_write(regions::RADIX_COUNTS);
        let mut reply = [0u32; 2 * RADIX];
        let reply = &mut reply[..2 * bpp];
        reply[bpp..].copy_from_slice(&ctx.state.totals[pid * bpp..(pid + 1) * bpp]);
        for t in staggered(pid, p) {
            if t != pid {
                reply[..bpp].copy_from_slice(&ctx.state.counts[t * bpp..(t + 1) * bpp]);
                send(ctx, t, reply);
            }
        }
    });

    // Superstep 3: assemble bases, compute every key's global position,
    // route (position, key) pairs.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        ctx.touch_read(regions::RADIX_COUNTS);
        let inbox = ctx.msgs();
        let st = &mut *ctx.state;
        // Each reply is [prefix ..., totals ...] for its manager's buckets;
        // my own prefix and totals are already in place.
        for msg in inbox {
            let words = msg.u32s();
            assert_eq!(words.len(), 2 * bpp, "payload length mismatch");
            let at = msg.src * bpp..(msg.src + 1) * bpp;
            st.counts[at.clone()].copy_from_slice(&words[..bpp]);
            st.totals[at].copy_from_slice(&words[bpp..]);
        }
        // Exclusive scan of the totals gives each bucket's global base;
        // my first key in a bucket goes to its base plus my prefix.
        let mut acc = 0u32;
        for (next, &total) in st.counts.iter_mut().zip(&st.totals) {
            *next += acc;
            acc += total;
        }
        ctx.charge_ops(RADIX as u64);

        // Global position of each key, preserving local order (stability):
        // a counting sort of the (position, key) pairs by destination.
        ctx.touch_read(regions::RADIX_KEYS);
        ctx.touch_modify(regions::RADIX_BUCKET);
        let st = &mut *ctx.state;
        st.starts.clear();
        st.starts.resize(p + 1, 0);
        for &k in &st.keys {
            let d = digit(k);
            st.starts[st.counts[d] as usize / m] += 1;
            st.counts[d] += 1;
        }
        let mut acc = 0u32;
        for start in &mut st.starts {
            acc += *start;
            *start = acc;
        }
        // Backwards, so each destination's pairs keep the keys' order.
        st.route.resize(2 * st.keys.len(), 0);
        for &k in st.keys.iter().rev() {
            let d = digit(k);
            st.counts[d] -= 1;
            let pos = st.counts[d];
            let dest = pos as usize / m;
            st.starts[dest] -= 1;
            let at = 2 * st.starts[dest] as usize;
            st.route[at] = pos % tag_u32(m);
            st.route[at + 1] = k;
        }
        ctx.charge_ops(ctx.state.keys.len() as u64);
        let route = std::mem::take(&mut ctx.state.route);
        let starts = std::mem::take(&mut ctx.state.starts);
        for t in staggered(pid, p) {
            let pairs = 2 * starts[t] as usize..2 * starts[t + 1] as usize;
            if t != pid && !pairs.is_empty() {
                send(ctx, t, &route[pairs]);
            }
        }
        ctx.touch_modify(regions::RADIX_BASE);
        ctx.state.route = route;
        ctx.state.starts = starts;
    });

    // Superstep 4: place my own keys and the received ones.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        ctx.touch_read(regions::RADIX_BUCKET);
        let inbox = ctx.msgs();
        let st = &mut *ctx.state;
        let own = &st.route[2 * st.starts[pid] as usize..2 * st.starts[pid + 1] as usize];
        let received = inbox.iter().flat_map(|msg| u32_pairs(msg.u32s()));
        let mut placed = 0;
        for (pos, k) in u32_pairs(own).chain(received) {
            st.keys[pos as usize] = k;
            placed += 1;
        }
        debug_assert_eq!(placed, m, "every slot must be filled");
        ctx.charge_copy_words(m as u64);
        ctx.touch_write(regions::RADIX_KEYS);
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
