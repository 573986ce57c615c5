//! Sample sort (paper Section 4.3, after Blelloch et al.).
//!
//! Three phases: (1) *splitter* — every processor draws `S` samples, the
//! `P·S` samples are bitonic-sorted and the samples at global ranks
//! `S, 2S, ..., (P-1)S` become splitters, broadcast to everyone;
//! (2) *send* — keys are sorted locally, bucketed against the splitters, a
//! multi-scan computes receive addresses (the `pp_rsend` artifact of MPL),
//! and the keys are routed to their buckets; (3) each bucket is sorted
//! locally.
//!
//! Variants:
//!
//! * [`SampleVariant::BspWords`] — word-message routing (BSP/MP-BSP);
//! * [`SampleVariant::Bpram`] — the block-transfer scheme: splitter
//!   broadcast and multi-scan as `sqrt(P)`-step block transposes, and the
//!   key routing as a 4-phase balanced two-hop scheme with *padded* blocks
//!   (fixed slots of twice the average load), which respects the
//!   MP-BPRAM's one-message-per-step restriction and reproduces the
//!   paper's `4·sqrt(P)·(4·sigma·w·N/P^1.5 + ell)` send cost — the reason
//!   sample sort disappoints on the GCel (Fig. 18);
//! * [`SampleVariant::BpramStaggered`] — each processor packs the keys per
//!   destination and sends them directly in staggered order, the ~2x
//!   faster variant that bends the single-port rule.

use pcm_core::units::{sqrt_exact, tag_u32};
use pcm_machines::Platform;
use pcm_sim::{Ctx, Machine, RegionId};

use super::bitonic::{merge_phases, BitonicList, ExchangeMode};
use super::radix::{radix_sort, KEY_BITS, RADIX_BITS};
use crate::primitives::plan::{bucket_counts, staggered};
use crate::regions;
use crate::run::{RunResult, RunStats};
use crate::verify::check_sorted_permutation;

/// Which routing scheme to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleVariant {
    /// Word messages throughout.
    BspWords,
    /// Block transfers with the single-port-respecting padded scheme.
    Bpram,
    /// Direct per-destination blocks, staggered.
    BpramStaggered,
}

/// Sentinel bucket id used to pad fixed-size routing slots.
const PAD: u32 = u32::MAX;

#[derive(Clone, Debug, Default)]
struct SampleState {
    keys: Vec<u32>,
    samples: Vec<u32>,
    stash: Vec<u32>,
    splitters: Vec<u32>,
    counts: Vec<u32>,
    offsets: Vec<u32>,
    hold: Vec<(u32, u32)>,
    bucket: Vec<u32>,
}

impl BitonicList for SampleState {
    fn list_mut(&mut self) -> &mut Vec<u32> {
        &mut self.samples
    }

    fn stash_mut(&mut self) -> &mut Vec<u32> {
        &mut self.stash
    }

    fn list_region(&self) -> RegionId {
        regions::SAMPLE_SAMPLES
    }

    fn stash_region(&self) -> RegionId {
        regions::SAMPLE_STASH
    }
}

/// Runs sample sort and verifies the result. `oversampling` is the `S` of
/// the paper; the observed maximum bucket size is reported in the stats.
///
/// # Panics
/// Panics if the platform's processor count is not a power of two (bitonic
/// splitter sort), or not a perfect square for the block variants.
pub fn run(
    platform: &Platform,
    keys_per_proc: usize,
    oversampling: usize,
    variant: SampleVariant,
    seed: u64,
) -> RunResult {
    let p = platform.p();
    assert!(
        p.is_power_of_two(),
        "sample sort's splitter phase needs 2^k processors"
    );
    assert!(oversampling >= 1);
    let use_blocks = variant != SampleVariant::BspWords;
    let side = if use_blocks {
        sqrt_exact(p).expect("block variants need a square processor count")
    } else {
        0
    };

    let mut rng = pcm_core::rng::seeded(seed);
    let all_keys = pcm_core::rng::random_keys(p * keys_per_proc, &mut rng);
    let states: Vec<SampleState> = (0..p)
        .map(|i| SampleState {
            keys: all_keys[i * keys_per_proc..(i + 1) * keys_per_proc].to_vec(),
            ..Default::default()
        })
        .collect();
    let mut machine = platform.machine(states, seed);

    // ---- Phase 1: splitters ---------------------------------------------
    machine.superstep(|ctx| {
        let nkeys = ctx.state.keys.len().max(1);
        let idxs: Vec<usize> = {
            use rand::RngExt;
            (0..oversampling)
                .map(|_| ctx.rng().random_range(0..nkeys))
                .collect()
        };
        ctx.touch_read(regions::SAMPLE_KEYS);
        ctx.touch_write(regions::SAMPLE_SAMPLES);
        let s = &mut *ctx.state;
        for idx in idxs {
            let v = *s.keys.get(idx).unwrap_or(&0);
            s.samples.push(v);
        }
        radix_sort(&mut s.samples);
        ctx.charge(ctx.compute().alpha() * oversampling as f64);
        ctx.charge_radix_sort(oversampling, KEY_BITS, RADIX_BITS);
    });
    let bitonic_mode = if use_blocks {
        ExchangeMode::Block
    } else {
        ExchangeMode::Words
    };
    merge_phases(&mut machine, bitonic_mode);

    // Broadcast the splitters (the sample with global rank r·S lives at
    // processor r, position 0).
    if use_blocks {
        // Two-phase block all-gather over a sqrt(P) x sqrt(P) grouping.
        machine.superstep(move |ctx| {
            let pid = ctx.pid();
            let group = pid / side;
            ctx.touch_read(regions::SAMPLE_SAMPLES);
            let cand = ctx.state.samples[0];
            for t in staggered(pid % side, side) {
                let member = group * side + t;
                if member != pid {
                    ctx.send_block_u32(member, &[cand]);
                }
            }
        });
        machine.superstep(move |ctx| {
            let pid = ctx.pid();
            let group = pid / side;
            let idx = pid % side;
            // Assemble this group's candidates in pid order.
            let mut cands = vec![0u32; side];
            ctx.touch_read(regions::SAMPLE_SAMPLES);
            cands[idx] = ctx.state.samples[0];
            for msg in ctx.msgs() {
                cands[msg.src % side] = msg.word_u32();
            }
            // Stagger by group: processors sharing a position in different
            // groups must hit distinct groups each round.
            for t in staggered(group, side) {
                let dst = t * side + idx;
                if dst != pid {
                    ctx.send_block_u32_tagged(dst, tag_u32(group), &cands);
                }
            }
            ctx.touch_write(regions::SAMPLE_STASH);
            ctx.state.stash = cands; // keep own group's vector
        });
        machine.superstep(move |ctx| {
            let pid = ctx.pid();
            let group = pid / side;
            let mut all = vec![0u32; p];
            ctx.touch_read(regions::SAMPLE_STASH);
            all[group * side..(group + 1) * side].copy_from_slice(&ctx.state.stash);
            for msg in ctx.msgs() {
                let g = msg.tag as usize;
                all[g * side..(g + 1) * side].copy_from_slice(&msg.as_u32s());
            }
            ctx.state.stash.clear();
            // Drop processor 0's candidate: splitters are ranks S..(P-1)S.
            ctx.touch_write(regions::SAMPLE_SPLITTERS);
            ctx.state.splitters = all[1..].to_vec();
        });
    } else {
        machine.superstep(|ctx| {
            let pid = ctx.pid();
            if pid > 0 {
                ctx.touch_read(regions::SAMPLE_SAMPLES);
                let cand = ctx.state.samples[0];
                for t in staggered(pid, p) {
                    if t != pid {
                        ctx.send_word_u32(t, cand);
                    }
                }
            }
        });
        machine.superstep(|ctx| {
            let pid = ctx.pid();
            let mut spl: Vec<(usize, u32)> = ctx
                .msgs()
                .iter()
                .filter(|m| m.src > 0)
                .map(|m| (m.src, m.word_u32()))
                .collect();
            if pid > 0 {
                ctx.touch_read(regions::SAMPLE_SAMPLES);
                spl.push((pid, ctx.state.samples[0]));
            }
            spl.sort_unstable();
            ctx.touch_write(regions::SAMPLE_SPLITTERS);
            ctx.state.splitters = spl.into_iter().map(|(_, v)| v).collect();
        });
    }

    // ---- Phase 2: send ---------------------------------------------------
    machine.superstep(|ctx| {
        ctx.touch_modify(regions::SAMPLE_KEYS);
        ctx.touch_read(regions::SAMPLE_SPLITTERS);
        ctx.touch_write(regions::SAMPLE_COUNTS);
        let s = &mut *ctx.state;
        radix_sort(&mut s.keys);
        let counts = bucket_counts(&s.keys, &s.splitters);
        s.counts = counts.into_iter().map(tag_u32).collect();
        ctx.charge_radix_sort(keys_per_proc, KEY_BITS, RADIX_BITS);
        ctx.charge(ctx.compute().alpha() * (keys_per_proc + p) as f64);
    });

    // Multi-scan: exchange the counts matrix so every processor learns the
    // receive offsets (the pp_rsend addressing artifact, paper Sec. 4.3).
    if use_blocks {
        multiscan_blocks(&mut machine, p, side);
    } else {
        multiscan_words(&mut machine, p);
    }

    // Route the keys to their buckets.
    match variant {
        SampleVariant::BspWords => {
            machine.superstep(|ctx| {
                let pid = ctx.pid();
                ctx.touch_read(regions::SAMPLE_COUNTS);
                let counts = ctx.state.counts.clone();
                ctx.touch_read(regions::SAMPLE_KEYS);
                let keys = std::mem::take(&mut ctx.state.keys);
                ctx.touch_modify(regions::SAMPLE_BUCKET);
                let mut start = vec![0usize; p + 1];
                for j in 0..p {
                    start[j + 1] = start[j] + counts[j] as usize;
                }
                for j in staggered(pid, p) {
                    let slice = &keys[start[j]..start[j + 1]];
                    if j == pid {
                        ctx.state.bucket.extend_from_slice(slice);
                    } else if !slice.is_empty() {
                        ctx.send_words_u32(j, slice);
                    }
                }
            });
            machine.superstep(absorb_bucket);
        }
        SampleVariant::BpramStaggered => {
            machine.superstep(|ctx| {
                let pid = ctx.pid();
                ctx.touch_read(regions::SAMPLE_COUNTS);
                let counts = ctx.state.counts.clone();
                ctx.touch_read(regions::SAMPLE_KEYS);
                let keys = std::mem::take(&mut ctx.state.keys);
                ctx.touch_modify(regions::SAMPLE_BUCKET);
                let mut start = vec![0usize; p + 1];
                for j in 0..p {
                    start[j + 1] = start[j] + counts[j] as usize;
                }
                ctx.state
                    .bucket
                    .extend_from_slice(&keys[start[pid]..start[pid + 1]]);
                for t in 1..p {
                    let j = (pid + t) % p;
                    let slice = &keys[start[j]..start[j + 1]];
                    if !slice.is_empty() {
                        ctx.send_block_u32(j, slice);
                    }
                }
            });
            machine.superstep(absorb_bucket);
        }
        SampleVariant::Bpram => {
            route_padded(&mut machine, p, side, keys_per_proc);
        }
    }

    // ---- Phase 3: sort the buckets ----------------------------------------
    machine.superstep(|ctx| {
        ctx.touch_modify(regions::SAMPLE_BUCKET);
        let n = ctx.state.bucket.len();
        radix_sort(&mut ctx.state.bucket);
        ctx.charge_radix_sort(n, KEY_BITS, RADIX_BITS);
    });

    let time = machine.time();
    let breakdown = machine.breakdown();
    let max_bucket = machine
        .states()
        .iter()
        .map(|s| s.bucket.len())
        .max()
        .unwrap_or(0);
    let sorted: Vec<u32> = machine
        .states()
        .iter()
        .flat_map(|s| s.bucket.iter().copied())
        .collect();
    let verified = check_sorted_permutation(&all_keys, &sorted);
    RunResult::new(time, breakdown, verified).with_stats(RunStats {
        max_bucket,
        ..Default::default()
    })
}

/// Appends every key that arrived at the last barrier to the bucket.
fn absorb_bucket(ctx: &mut Ctx<'_, SampleState>) {
    let mut bucket = std::mem::take(&mut ctx.state.bucket);
    for msg in ctx.msgs() {
        bucket.extend(msg.u32s());
    }
    ctx.touch_modify(regions::SAMPLE_BUCKET);
    ctx.state.bucket = bucket;
}

/// Word-message multi-scan: 2 supersteps of `P`-relations, cost
/// `2·(g·P + L)` — the optimal BSP multi-scan of the paper's reference
/// \[16\].
fn multiscan_words(machine: &mut Machine<SampleState>, p: usize) {
    machine.superstep(|ctx| {
        let pid = ctx.pid();
        ctx.touch_read(regions::SAMPLE_COUNTS);
        let counts = ctx.state.counts.clone();
        for j in staggered(pid, p) {
            if j != pid {
                ctx.send_word_u32(j, counts[j]);
            }
        }
    });
    machine.superstep(|ctx| {
        let pid = ctx.pid();
        // Assemble per-source counts destined to me, prefix-sum, reply.
        let mut incoming = vec![0u32; p];
        ctx.touch_read(regions::SAMPLE_COUNTS);
        incoming[pid] = ctx.state.counts[pid];
        for msg in ctx.msgs() {
            incoming[msg.src] = msg.word_u32();
        }
        let mut acc = 0u32;
        let mut offsets = vec![0u32; p];
        for i in 0..p {
            offsets[i] = acc;
            acc += incoming[i];
        }
        for i in staggered(pid, p) {
            if i != pid {
                ctx.send_word_u32(i, offsets[i]);
            }
        }
        ctx.touch_write(regions::SAMPLE_OFFSETS);
        ctx.state.offsets = vec![0; p];
        ctx.state.offsets[pid] = offsets[pid];
    });
    machine.superstep(|ctx| {
        let incoming: Vec<(usize, u32)> =
            ctx.msgs().iter().map(|m| (m.src, m.word_u32())).collect();
        ctx.touch_modify(regions::SAMPLE_OFFSETS);
        for (src, v) in incoming {
            ctx.state.offsets[src] = v;
        }
    });
}

/// Block multi-scan: the counts matrix is transposed with a two-phase
/// `sqrt(P)`-step block scheme, offsets are computed, and the transpose is
/// run in reverse — `4·sqrt(P)` block steps, cost
/// `4·sqrt(P)·(sigma·w·sqrt(P) + ell)`.
fn multiscan_blocks(machine: &mut Machine<SampleState>, p: usize, side: usize) {
    // Forward phase A: send, per destination row r', my counts for that row.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        let (r, c) = (pid / side, pid % side);
        ctx.touch_read(regions::SAMPLE_COUNTS);
        let counts = ctx.state.counts.clone();
        ctx.touch_write(regions::SAMPLE_STASH);
        for t in staggered(c, side) {
            let dst = r * side + t; // (r, t) collects counts for row t
            let block: Vec<u32> = (0..side).map(|cj| counts[t * side + cj]).collect();
            if dst == pid {
                ctx.state.stash = block;
            } else {
                ctx.send_block_u32_tagged(dst, tag_u32(c), &block);
            }
        }
    });
    // Forward phase B: forward to the final owner (x, cj).
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        let (r, x) = (pid / side, pid % side);
        // rowdata[c][cj] = counts of sender (r, c) for bucket (x, cj).
        let mut rowdata = vec![vec![0u32; side]; side];
        ctx.touch_read(regions::SAMPLE_STASH);
        rowdata[x].copy_from_slice(&ctx.state.stash);
        for msg in ctx.msgs() {
            rowdata[msg.tag as usize].copy_from_slice(&msg.as_u32s());
        }
        ctx.state.stash.clear();
        // Stagger by (x + r): intermediates sharing x live in different
        // rows and must target distinct buckets each round.
        for t in staggered((x + r) % side, side) {
            let dst = x * side + t; // bucket (x, t)
            let block: Vec<u32> = (0..side).map(|c| rowdata[c][t]).collect();
            // tag = my row, so the receiver knows which senders these are.
            ctx.send_block_u32_tagged(dst, tag_u32(r), &block);
        }
    });
    // Compute offsets at the bucket owner and start the reverse transpose.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        let (_, _c) = (pid / side, pid % side);
        let mut counts_by_src = vec![0u32; p];
        for msg in ctx.msgs() {
            let sender_row = msg.tag as usize;
            for (c, v) in msg.as_u32s().into_iter().enumerate() {
                counts_by_src[sender_row * side + c] = v;
            }
        }
        let mut acc = 0u32;
        let mut offsets = vec![0u32; p];
        for i in 0..p {
            offsets[i] = acc;
            acc += counts_by_src[i];
        }
        // Reverse phase A: send offset blocks back, grouped by source row.
        ctx.touch_write(regions::SAMPLE_STASH);
        for t in staggered(pid % side, side) {
            let dst = (pid / side) * side + t; // intermediate in my row
            let block: Vec<u32> = (0..side).map(|c| offsets[t * side + c]).collect();
            if dst == pid {
                ctx.state.stash = block;
            } else {
                ctx.send_block_u32_tagged(dst, tag_u32(pid % side), &block);
            }
        }
        let _ = &offsets;
    });
    // Reverse phase B: deliver each source its offsets.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        let (r, x) = (pid / side, pid % side);
        let mut per_bucketcol = vec![vec![0u32; side]; side];
        ctx.touch_read(regions::SAMPLE_STASH);
        per_bucketcol[x].copy_from_slice(&ctx.state.stash);
        for msg in ctx.msgs() {
            per_bucketcol[msg.tag as usize].copy_from_slice(&msg.as_u32s());
        }
        ctx.state.stash.clear();
        for t in staggered((x + r) % side, side) {
            let dst = x * side + t;
            let block: Vec<u32> = (0..side).map(|bc| per_bucketcol[bc][t]).collect();
            ctx.send_block_u32_tagged(dst, tag_u32(r), &block);
        }
    });
    machine.superstep(move |ctx| {
        let mut offsets = vec![0u32; p];
        for msg in ctx.msgs() {
            let bucket_row = msg.tag as usize;
            for (bc, v) in msg.as_u32s().into_iter().enumerate() {
                offsets[bucket_row * side + bc] = v;
            }
        }
        ctx.touch_write(regions::SAMPLE_OFFSETS);
        ctx.state.offsets = offsets;
    });
}

/// The 4-phase balanced block routing with padded slots (the JáJá–Ryu
/// scheme the paper charges as `4·sqrt(P)·(4·sigma·w·N/P^1.5 + ell)`).
/// Keys travel as `(bucket, key)` word pairs; every round ships a
/// fixed-size slot so the schedule respects the one-message-per-step rule
/// regardless of bucket skew.
fn route_padded(machine: &mut Machine<SampleState>, p: usize, side: usize, m: usize) {
    let cap_balance = m.div_ceil(side); // pairs per balancing slot
    let cap_route = 2 * m.div_ceil(side); // pairs per routed slot (2x average)

    let pack = |pairs: &[(u32, u32)], cap: usize| -> Vec<u32> {
        let mut block = Vec::with_capacity(2 * pairs.len().max(cap));
        for &(b, k) in pairs {
            block.push(b);
            block.push(k);
        }
        while block.len() < 2 * cap {
            block.push(PAD);
            block.push(0);
        }
        block
    };
    let unpack = |msgs: &mut Vec<(u32, u32)>, data: &[u32]| {
        for ch in data.chunks_exact(2) {
            if ch[0] != PAD {
                msgs.push((ch[0], ch[1]));
            }
        }
    };

    // Phase A: balance pairs across the row.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        let (r, c) = (pid / side, pid % side);
        ctx.touch_read(regions::SAMPLE_COUNTS);
        let counts = ctx.state.counts.clone();
        ctx.touch_read(regions::SAMPLE_KEYS);
        let keys = std::mem::take(&mut ctx.state.keys);
        let mut start = vec![0usize; p + 1];
        for j in 0..p {
            start[j + 1] = start[j] + counts[j] as usize;
        }
        let pairs: Vec<(u32, u32)> = (0..p)
            .flat_map(|j| {
                keys[start[j]..start[j + 1]]
                    .iter()
                    .map(move |&k| (tag_u32(j), k))
            })
            .collect();
        ctx.charge_copy_words(2 * pairs.len() as u64);
        for t in staggered(c, side) {
            let slice: Vec<(u32, u32)> = pairs.iter().skip(t).step_by(side).copied().collect();
            let dst = r * side + t;
            if dst == pid {
                ctx.state.hold.extend_from_slice(&slice);
            } else {
                ctx.send_block_u32(dst, &pack(&slice, cap_balance));
            }
        }
    });
    // Phase B: to the destination column.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        let (r, c) = (pid / side, pid % side);
        let mut held = std::mem::take(&mut ctx.state.hold);
        for msg in ctx.msgs() {
            unpack(&mut held, &msg.as_u32s());
        }
        for t in staggered(c, side) {
            let slice: Vec<(u32, u32)> = held
                .iter()
                .filter(|&&(b, _)| (b as usize) % side == t)
                .copied()
                .collect();
            let dst = r * side + t;
            if dst == pid {
                ctx.state.hold = slice;
            } else {
                ctx.send_block_u32(dst, &pack(&slice, cap_route));
            }
        }
    });
    // Phase C: balance down the column.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        let (r, c) = (pid / side, pid % side);
        let mut held = std::mem::take(&mut ctx.state.hold);
        for msg in ctx.msgs() {
            unpack(&mut held, &msg.as_u32s());
        }
        for t in staggered(r, side) {
            let slice: Vec<(u32, u32)> = held.iter().skip(t).step_by(side).copied().collect();
            let dst = t * side + c;
            if dst == pid {
                ctx.state.hold = slice.clone();
            } else {
                ctx.send_block_u32(dst, &pack(&slice, cap_route));
            }
        }
    });
    // Phase D: deliver to the destination row.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        let (r, c) = (pid / side, pid % side);
        let mut held = std::mem::take(&mut ctx.state.hold);
        for msg in ctx.msgs() {
            unpack(&mut held, &msg.as_u32s());
        }
        for t in staggered(r, side) {
            let slice: Vec<(u32, u32)> = held
                .iter()
                .filter(|&&(b, _)| (b as usize) / side == t)
                .copied()
                .collect();
            let dst = t * side + c;
            if dst == pid {
                ctx.touch_modify(regions::SAMPLE_BUCKET);
                for (b, k) in slice {
                    debug_assert_eq!(b as usize, pid);
                    ctx.state.bucket.push(k);
                }
            } else {
                ctx.send_block_u32(dst, &pack(&slice, cap_route));
            }
        }
    });
    // Collect the final deliveries.
    machine.superstep(move |ctx| {
        let pid = ctx.pid();
        let mut held = Vec::new();
        for msg in ctx.msgs() {
            unpack(&mut held, &msg.as_u32s());
        }
        ctx.touch_modify(regions::SAMPLE_BUCKET);
        for (b, k) in held {
            debug_assert_eq!(b as usize, pid, "key delivered to the wrong bucket");
            ctx.state.bucket.push(k);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_sort_correctly() {
        let plat = Platform::gcel_with(16);
        for variant in [
            SampleVariant::BspWords,
            SampleVariant::Bpram,
            SampleVariant::BpramStaggered,
        ] {
            let r = run(&plat, 128, 16, variant, 5);
            assert!(r.verified, "{variant:?} failed to sort");
            assert!(r.stats.max_bucket >= 128, "buckets cover all keys");
        }
    }

    #[test]
    fn works_on_the_full_gcel() {
        let r = run(&Platform::gcel(), 64, 8, SampleVariant::Bpram, 9);
        assert!(r.verified);
    }

    #[test]
    fn staggered_routing_beats_the_padded_scheme() {
        // Fig. 18: packing keys per destination and sending directly is
        // about a factor 2 faster on the GCel.
        let plat = Platform::gcel();
        let padded = run(&plat, 4096, 64, SampleVariant::Bpram, 3);
        let direct = run(&plat, 4096, 64, SampleVariant::BpramStaggered, 3);
        assert!(padded.verified && direct.verified);
        let ratio = padded.time / direct.time;
        assert!(
            ratio > 1.3 && ratio < 5.0,
            "staggered should win by roughly 2x, got {ratio}"
        );
    }

    #[test]
    fn oversampling_controls_bucket_expansion() {
        let plat = Platform::gcel_with(16);
        let coarse = run(&plat, 512, 4, SampleVariant::BpramStaggered, 11);
        let fine = run(&plat, 512, 64, SampleVariant::BpramStaggered, 11);
        assert!(coarse.verified && fine.verified);
        assert!(
            fine.stats.max_bucket <= coarse.stats.max_bucket,
            "more samples => more even buckets ({} vs {})",
            fine.stats.max_bucket,
            coarse.stats.max_bucket
        );
    }

    #[test]
    fn tiny_inputs_survive() {
        let plat = Platform::gcel_with(4);
        let r = run(&plat, 2, 2, SampleVariant::Bpram, 1);
        assert!(r.verified);
    }
}
