//! The MasPar MP-1 machine model.
//!
//! A 1024-PE SIMD machine: an array control unit (ACU) drives every PE in
//! lockstep, PEs communicate either through the global router (an
//! expanded-delta circuit-switched network, one channel per 16-PE cluster,
//! see [`router`]) or through the xnet neighbour grid. There is no memory
//! pipelining: each PE has at most one outstanding message, so every word
//! exchanged is a full communication step — the machine the paper's
//! MP-BSP model describes.

pub mod router;

use pcm_core::rng::jitter;
use pcm_core::units::sqrt_exact;
use pcm_core::SimTime;
use rand::rngs::StdRng;

use pcm_sim::cache::{CacheStats, PricingCache};
use pcm_sim::{CommPattern, NetTerms, NetworkModel, PatternScratch};

use crate::loads::PortLoads;
use router::{DeltaRouter, RouteOutcome, CLUSTER};

/// Pattern-memo slots (direct-mapped; see `pcm_sim::cache`).
const MEMO_SLOTS: usize = 4096;
/// Longest cacheable pattern fingerprint, in key words. A pattern bigger
/// than this bypasses the memo instead of pinning megabytes of key
/// storage; the bypass is counted, not silent.
const MEMO_MAX_KEY: usize = 1 << 14;

/// Tunable cost constants of the MasPar model, chosen so that the
/// calibration microbenchmarks recover the paper's Table 1 parameters
/// (`g = 32.2`, `L = 1400`, `sigma = 107`, `ell = 630`) and text anchors
/// (random permutation ≈ 1300 µs, bit-flip permutation ≈ 590 µs,
/// `T_unb` polynomial).
#[derive(Clone, Copy, Debug)]
pub struct MasParCosts {
    /// Fixed ACU overhead per communication round (µs).
    pub round_overhead: f64,
    /// Time per mandatory router pass (port/PE serialization), µs.
    pub pass_time: f64,
    /// Time per *retry* pass caused by internal circuit conflicts, µs.
    pub retry_time: f64,
    /// Per-byte streaming rate of a cluster port for block transfers
    /// (µs/byte of effective port load).
    pub block_byte: f64,
    /// Startup of a block-transfer round (µs).
    pub block_overhead: f64,
    /// Cost of one xnet unit shift, per byte (µs/byte) — SIMD lockstep,
    /// independent of how many PEs participate.
    pub xnet_byte: f64,
    /// xnet shift setup (µs).
    pub xnet_overhead: f64,
    /// Streaming cost per payload byte beyond the first word of a packet
    /// round (µs/byte). Anchors the paper's Section 8 observation that a
    /// 16-byte message costs ~2.3 ms on the MasPar router.
    pub stream_byte: f64,
    /// ACU barrier overhead for an empty superstep (µs).
    pub barrier: f64,
    /// Multiplicative jitter (coefficient of variation).
    pub jitter_cv: f64,
}

impl Default for MasParCosts {
    fn default() -> Self {
        MasParCosts {
            round_overhead: 125.0,
            pass_time: 29.0,
            retry_time: 54.6,
            block_byte: 5.57,
            block_overhead: 630.0,
            xnet_byte: 0.15,
            xnet_overhead: 40.0,
            stream_byte: 86.8,
            barrier: 50.0,
            jitter_cv: 0.02,
        }
    }
}

/// The MasPar router network model.
///
/// Owns all pricing scratch: the pattern-iteration buffers, the reusable
/// `(src, dst)` pair list, the canonical-fingerprint buffer and the
/// collision-safe pattern memo. After a warm-up superstep, pricing a
/// repeated pattern performs no heap allocation.
pub struct MasParNetwork {
    p: usize,
    router: DeltaRouter,
    costs: MasParCosts,
    grid_side: Option<usize>,
    scratch: PatternScratch,
    pairs: Vec<(usize, usize)>,
    /// Pattern-level memo: full record list → the deterministic cost
    /// coefficient of every jitter draw, in draw order. A hit skips the
    /// pattern walk entirely and re-rolls only the jitters.
    pat_memo: PricingCache<Vec<f64>>,
    pat_key: Vec<u64>,
    /// Coefficient scratch for the memo-disabled path.
    coeffs: Vec<f64>,
    memo_enabled: bool,
    loads: PortLoads,
    /// Cumulative deterministic cost-term counters (observability only;
    /// the router pass totals are filled in at read time).
    terms: NetTerms,
}

/// Cost of one word round given the router outcome. Mixed intra/inter
/// cluster rounds can finish in fewer passes than the port-load bound
/// suggests (the local crossbar and the network run concurrently), so
/// the retry term saturates at zero.
fn word_round_cost(costs: &MasParCosts, out: RouteOutcome) -> f64 {
    let base = out.passes.min(out.min_passes);
    let retries = out.passes.saturating_sub(out.min_passes);
    costs.round_overhead + costs.pass_time * base as f64 + costs.retry_time * retries as f64
}

/// Detects rounds that are a composition of up to `max_groups` distinct
/// unit torus shifts (Cannon's skew shifts A and B simultaneously).
/// Returns the number of distinct shifts the SIMD machine executes back
/// to back, or `None` if the round cannot be realized over the xnet.
fn xnet_shift_groups(
    grid_side: Option<usize>,
    sends: &[(usize, usize)],
    max_groups: usize,
) -> Option<usize> {
    let side = grid_side? as i64;
    if sends.is_empty() {
        return None;
    }
    assert!(max_groups <= 8, "unit-shift compositions are tiny");
    let unit = |x: i64| x == 0 || x == 1 || x == side - 1;
    let mut deltas = [(0i64, 0i64); 8];
    let mut groups = 0usize;
    for &(s, dst) in sends {
        let (sr, sc) = (s as i64 / side, s as i64 % side);
        let (dr, dc) = (dst as i64 / side, dst as i64 % side);
        let d = ((dr - sr).rem_euclid(side), (dc - sc).rem_euclid(side));
        if !(unit(d.0) && unit(d.1)) || d == (0, 0) {
            return None;
        }
        if !deltas[..groups].contains(&d) {
            if groups == max_groups {
                return None;
            }
            deltas[groups] = d;
            groups += 1;
        }
    }
    Some(groups)
}

/// Deterministic cost coefficient of one block round (its price before
/// the jitter factor), from its `(src, dst, bytes)` triples.
fn block_round_coeff(
    costs: &MasParCosts,
    router: &mut DeltaRouter,
    loads: &mut PortLoads,
    pairs: &mut Vec<(usize, usize)>,
    sends: &[(usize, usize, usize)],
) -> f64 {
    pairs.clear();
    loads.begin(router.ports());
    for &(src, dst, bytes) in sends {
        pairs.push((src, dst));
        loads.add(src / CLUSTER, dst / CLUSTER, bytes);
    }
    // Circuit conflicts slow block rounds too, but long messages stream
    // across passes, so the sensitivity is damped relative to words.
    let out = router.route(pairs);
    let conflict = if out.min_passes == 0 {
        1.0
    } else {
        out.passes as f64 / out.min_passes as f64
    };
    let conflict_factor = 0.75 + 0.25 * conflict;
    // Effective port load: halfway between the mean over active ports
    // (perfect pipelining across passes) and the hottest port (full
    // serialization) — long messages stream through the circuit, so the
    // router is "somewhat less sensitive to the actual communication
    // pattern when long messages are being sent" (paper, Sec. 5.2).
    let load = loads.eff_max();
    costs.block_overhead + costs.block_byte * load * conflict_factor
}

/// Walks the pattern once and records the deterministic cost coefficient
/// of every jitter draw, in draw order: word segments, then block rounds,
/// then xnet rounds. The final price is `Σ coeff_i · jitter_i + barrier`,
/// which is bit-identical to pricing inline because every term of the
/// original formulation was `(deterministic) * jitter`.
#[allow(clippy::too_many_arguments)] // threads the machine-owned scratch set
fn collect_coeffs(
    costs: &MasParCosts,
    router: &mut DeltaRouter,
    grid_side: Option<usize>,
    scratch: &mut PatternScratch,
    pairs: &mut Vec<(usize, usize)>,
    loads: &mut PortLoads,
    pattern: &CommPattern,
    coeffs: &mut Vec<f64>,
) {
    pattern.visit_word_segments(scratch, |seg| {
        let out = router.route(seg.sends);
        let mut per_round = word_round_cost(costs, out);
        // Packets larger than one word keep their circuits open to
        // stream the extra payload.
        if seg.msg_bytes > 4 {
            per_round += costs.stream_byte * (seg.msg_bytes - 4) as f64;
        }
        coeffs.push(seg.rounds as f64 * per_round);
    });
    pattern.visit_block_rounds(scratch, |round| {
        coeffs.push(block_round_coeff(costs, router, loads, pairs, round.sends));
    });
    // Explicit xnet rounds: the SIMD machine runs each distinct unit
    // displacement back to back; rounds that are not a composition of
    // unit shifts fall back to router pricing as a bound (the ACU would
    // decompose them).
    pattern.visit_xnet_rounds(scratch, |round| {
        pairs.clear();
        for &(src, dst, _) in round.sends {
            pairs.push((src, dst));
        }
        coeffs.push(match xnet_shift_groups(grid_side, pairs, 4) {
            Some(groups) => {
                let bytes = round.max_bytes() as f64;
                groups as f64 * (costs.xnet_overhead + costs.xnet_byte * bytes)
            }
            None => block_round_coeff(costs, router, loads, pairs, round.sends),
        });
    });
}

impl MasParNetwork {
    /// Builds the network for `p` PEs (power of two, at least 16).
    pub fn new(p: usize) -> Self {
        MasParNetwork {
            p,
            router: DeltaRouter::new(p),
            costs: MasParCosts::default(),
            grid_side: sqrt_exact(p),
            scratch: PatternScratch::new(),
            pairs: Vec::new(),
            pat_memo: PricingCache::new(MEMO_SLOTS, MEMO_MAX_KEY),
            pat_key: Vec::new(),
            coeffs: Vec::new(),
            memo_enabled: true,
            loads: PortLoads::new(),
            terms: NetTerms::default(),
        }
    }

    /// Detects a uniform xnet torus shift: every send goes to the PE at the
    /// same displacement `(dr, dc)` on the PE grid, with unit distance.
    #[cfg_attr(not(test), allow(dead_code))]
    fn xnet_shift(&self, sends: &[(usize, usize)]) -> Option<(i64, i64)> {
        let side = self.grid_side? as i64;
        let (s0, d0) = *sends.first()?;
        let delta = |s: usize, d: usize| {
            let (sr, sc) = (s as i64 / side, s as i64 % side);
            let (dr, dc) = (d as i64 / side, d as i64 % side);
            ((dr - sr).rem_euclid(side), (dc - sc).rem_euclid(side))
        };
        let d = delta(s0, d0);
        let unit = |x: i64| x == 0 || x == 1 || x == side - 1;
        if !(unit(d.0) && unit(d.1)) || d == (0, 0) {
            return None;
        }
        sends
            .iter()
            .all(|&(s, dst)| delta(s, dst) == d)
            .then_some(d)
    }

    /// See [`xnet_shift_groups`] (kept as a method for the unit tests).
    #[cfg(test)]
    fn xnet_shift_groups(&self, sends: &[(usize, usize)], max_groups: usize) -> Option<usize> {
        xnet_shift_groups(self.grid_side, sends, max_groups)
    }
}

impl NetworkModel for MasParNetwork {
    fn route(&mut self, pattern: &CommPattern, rng: &mut StdRng) -> SimTime {
        debug_assert_eq!(pattern.p, self.p);
        let MasParNetwork {
            router,
            costs,
            grid_side,
            scratch,
            pairs,
            pat_memo,
            pat_key,
            coeffs,
            memo_enabled,
            loads,
            terms,
            ..
        } = self;
        terms.routes += 1;
        terms.barrier_us += costs.barrier;
        let grid_side = *grid_side;
        let terms: &[f64] = if *memo_enabled {
            crate::fingerprint::pattern_key(pat_key, pattern);
            pat_memo.get_or_insert_with(pat_key, || {
                let mut cs = Vec::new();
                collect_coeffs(
                    costs, router, grid_side, scratch, pairs, loads, pattern, &mut cs,
                );
                cs
            })
        } else {
            coeffs.clear();
            collect_coeffs(
                costs, router, grid_side, scratch, pairs, loads, pattern, coeffs,
            );
            coeffs
        };
        // Re-roll the per-draw jitters in pattern order; the rng stream is
        // identical whether the coefficients came from the memo or from a
        // fresh pattern walk.
        let mut t = 0.0;
        for &c in terms {
            t += c * jitter(costs.jitter_cv, rng);
        }
        SimTime::from_micros(t + costs.barrier)
    }

    fn barrier(&mut self) -> SimTime {
        self.terms.barriers += 1;
        self.terms.barrier_us += self.costs.barrier;
        SimTime::from_micros(self.costs.barrier)
    }

    fn name(&self) -> &str {
        "maspar-mp1"
    }

    fn set_route_memo(&mut self, enabled: bool) {
        self.memo_enabled = enabled;
    }

    fn route_memo_stats(&self) -> Option<CacheStats> {
        Some(self.pat_memo.stats())
    }

    fn cost_terms(&self) -> Option<NetTerms> {
        let r = self.router.totals();
        Some(NetTerms {
            router_rounds: r.rounds,
            router_passes: r.passes,
            router_min_passes: r.min_passes,
            ..self.terms
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_core::rng::{random_permutation, seeded};
    use pcm_sim::topology::hypercube_partner;
    use pcm_sim::{Message, MsgKind};

    fn word_perm_pattern(p: usize, dests: &[usize]) -> CommPattern {
        CommPattern {
            p,
            sends: dests
                .iter()
                .enumerate()
                .map(|(src, &d)| vec![Message::header(src, d, MsgKind::Words, 1, 4)])
                .collect(),
        }
    }

    fn route_us(net: &mut MasParNetwork, pat: &CommPattern, seed: u64) -> f64 {
        let mut rng = seeded(seed);
        net.route(pat, &mut rng).as_micros() - net.costs.barrier
    }

    #[test]
    fn random_permutation_costs_about_1300us() {
        let mut net = MasParNetwork::new(1024);
        let mut rng = seeded(3);
        let mut total = 0.0;
        let trials = 10;
        for i in 0..trials {
            let perm = random_permutation(1024, &mut rng);
            let pat = word_perm_pattern(1024, &perm);
            total += route_us(&mut net, &pat, i);
        }
        let avg = total / trials as f64;
        assert!(
            (avg - 1300.0).abs() < 200.0,
            "average random permutation = {avg} µs (paper: ~1300)"
        );
    }

    #[test]
    fn bit_flip_permutation_costs_about_590us() {
        let mut net = MasParNetwork::new(1024);
        for bit in [2u32, 5, 8] {
            let dests: Vec<usize> = (0..1024).map(|i| hypercube_partner(i, bit)).collect();
            let pat = word_perm_pattern(1024, &dests);
            let t = route_us(&mut net, &pat, bit as u64);
            assert!(
                (t - 590.0).abs() < 120.0,
                "bit-flip (bit {bit}) permutation = {t} µs (paper: ~590)"
            );
        }
    }

    #[test]
    fn repeated_rounds_scale_linearly() {
        let mut net = MasParNetwork::new(64);
        let dests: Vec<usize> = (0..64).map(|i| hypercube_partner(i, 3)).collect();
        let one = {
            let pat = word_perm_pattern(64, &dests);
            route_us(&mut net, &pat, 1)
        };
        let many = {
            let pat = CommPattern {
                p: 64,
                sends: dests
                    .iter()
                    .enumerate()
                    .map(|(src, &d)| vec![Message::header(src, d, MsgKind::Words, 50, 200)])
                    .collect(),
            };
            route_us(&mut net, &pat, 2)
        };
        let ratio = many / one;
        assert!((ratio - 50.0).abs() < 5.0, "ratio = {ratio}");
    }

    #[test]
    fn block_permutation_matches_sigma_ell() {
        // Full random block permutations of m bytes should cost about
        // sigma·m + ell = 107·m + 630.
        let mut net = MasParNetwork::new(1024);
        let mut rng = seeded(9);
        for &m in &[256usize, 1024, 4096] {
            let perm = random_permutation(1024, &mut rng);
            let pat = CommPattern {
                p: 1024,
                sends: perm
                    .iter()
                    .enumerate()
                    .map(|(src, &d)| vec![Message::header(src, d, MsgKind::Block, m / 4, m)])
                    .collect(),
            };
            let t = route_us(&mut net, &pat, m as u64);
            let expect = 107.0 * m as f64 + 630.0;
            let err = (t - expect).abs() / expect;
            assert!(err < 0.25, "m={m}: {t} vs {expect} (err {err:.2})");
        }
    }

    #[test]
    fn explicit_xnet_blocks_are_cheap() {
        let mut net = MasParNetwork::new(1024);
        let side = 32usize;
        // Shift one block to the right neighbour (torus) over the xnet.
        let pat = CommPattern {
            p: 1024,
            sends: (0..1024usize)
                .map(|i| {
                    let (r, c) = (i / side, i % side);
                    vec![Message::header(
                        i,
                        r * side + (c + 1) % side,
                        MsgKind::Xnet,
                        100,
                        400,
                    )]
                })
                .collect(),
        };
        let t = route_us(&mut net, &pat, 4);
        assert!(
            t < 150.0,
            "xnet shift should be far cheaper than the router, got {t}"
        );
    }

    #[test]
    fn router_words_are_not_xnet_priced_even_when_neighbourly() {
        // A +1-column shift sent as *router* words costs router time — the
        // programmer chose the router, as the MPL bitonic did.
        let mut net = MasParNetwork::new(1024);
        let side = 32usize;
        let dests: Vec<usize> = (0..1024)
            .map(|i| {
                let (r, c) = (i / side, i % side);
                r * side + (c + 1) % side
            })
            .collect();
        let pat = word_perm_pattern(1024, &dests);
        let t = route_us(&mut net, &pat, 4);
        assert!(t > 400.0, "router pricing must apply, got {t}");
    }

    #[test]
    fn shift_group_detection() {
        let net = MasParNetwork::new(64);
        let mut sends: Vec<(usize, usize)> = (0..64)
            .map(|i| {
                let (r, c) = (i / 8, i % 8);
                (i, r * 8 + (c + 1) % 8)
            })
            .collect();
        assert!(net.xnet_shift(&sends).is_some());
        assert_eq!(net.xnet_shift_groups(&sends, 2), Some(1));
        // Mix in an up-shift: two groups.
        sends[5] = (5, (5 + 64 - 8));
        assert_eq!(net.xnet_shift(&sends), None);
        assert_eq!(net.xnet_shift_groups(&sends, 2), Some(2));
        // A long-distance jump disqualifies the round.
        sends[6] = (6, 6 + 16);
        assert_eq!(net.xnet_shift_groups(&sends, 4), None);
        // Identity displacement is not a shift.
        let idents: Vec<(usize, usize)> = (0..64).map(|i| (i, i)).collect();
        assert!(net.xnet_shift(&idents).is_none());
        assert!(net.xnet_shift_groups(&idents, 2).is_none());
    }

    #[test]
    fn route_cache_is_consistent() {
        let mut net = MasParNetwork::new(64);
        let dests: Vec<usize> = (0..64).map(|i| hypercube_partner(i, 2)).collect();
        let pat = word_perm_pattern(64, &dests);
        let a = route_us(&mut net, &pat, 1);
        let b = route_us(&mut net, &pat, 1);
        assert!((a - b).abs() < 1e-9, "same pattern, same seed, same price");
    }
}
