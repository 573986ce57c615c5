//! The Thinking Machines CM-5 machine model.
//!
//! 64 SPARC nodes under Split-C: a fat-tree data network with high
//! bisection bandwidth, plus a dedicated control network that makes
//! barriers almost free (`L = 45 µs`). Three mechanisms matter:
//!
//! * **pipelined fine-grain messages** — a processor can keep `h` word
//!   messages in flight, so an h-relation costs `g·h + L` with a small
//!   `g = 9.1 µs` (memory pipelining — this is where the CM-5 differs from
//!   the MasPar);
//! * **receiver contention** — when several processors follow the *same*
//!   send schedule (everyone hits destination `<i,j,0>` first), the
//!   receiver becomes a transient hot spot and senders stall; the paper
//!   measured a 21% end-to-end penalty for the unstaggered matrix
//!   multiplication (Fig. 4). The model charges a per-round factor
//!   `1 + rho·(c-1)` where `c` is the in-degree of the round, capped at
//!   full serialization `c`;
//! * **cache-sensitive local compute** — the assembly matmul kernel runs
//!   at 6.5–7.5 Mflops between 32 and 256, but degrades below 32 (loop
//!   overhead) and above ~256 KB working set (5.2 Mflops at 512, the
//!   64 KB direct-mapped cache), which produces the small-N/large-N
//!   prediction errors of Figs. 4 and 9.

use pcm_core::rng::jitter;
use pcm_core::SimTime;
use rand::rngs::StdRng;

use crate::loads::PortLoads;
use pcm_sim::cache::{CacheStats, PricingCache};
use pcm_sim::{CommPattern, ComputeModel, MsgKind, NetTerms, NetworkModel, PatternScratch};

/// Slots in the whole-pattern pricing memo.
const MEMO_SLOTS: usize = 1024;
/// Patterns with fingerprints longer than this bypass the memo.
const MEMO_MAX_KEY: usize = 1 << 14;

/// Tunable cost constants of the CM-5 model.
#[derive(Clone, Copy, Debug)]
pub struct Cm5Costs {
    /// Gap per word message (µs) — the BSP `g`.
    pub gap: f64,
    /// Barrier via the control network (µs) — the BSP `L`.
    pub barrier: f64,
    /// Per-byte cost of bulk transfers (µs/byte) — the BPRAM `sigma`.
    pub byte: f64,
    /// Startup of a bulk transfer (µs) — the BPRAM `ell`.
    pub block_overhead: f64,
    /// Receiver-contention factor per extra concurrent sender into the
    /// same destination within a round.
    pub rho: f64,
    /// Contention factor for concurrent blocks into one destination.
    pub rho_block: f64,
    /// Multiplicative jitter.
    pub jitter_cv: f64,
}

impl Default for Cm5Costs {
    fn default() -> Self {
        Cm5Costs {
            gap: 9.1,
            barrier: 45.0,
            byte: 0.27,
            block_overhead: 75.0,
            rho: 0.117,
            rho_block: 0.117,
            jitter_cv: 0.01,
        }
    }
}

/// The CM-5 fat-tree network model.
pub struct Cm5Network {
    p: usize,
    costs: Cm5Costs,
    scratch: PatternScratch,
    loads: PortLoads,
    key_buf: Vec<u64>,
    memo: PricingCache<f64>,
    memo_enabled: bool,
    /// Cumulative deterministic cost-term counters (observability only).
    terms: NetTerms,
}

/// Prices the deterministic `words + blocks` total of one pattern using
/// the network's scratch buffers; no allocation after warm-up.
fn price_pattern(
    c: &Cm5Costs,
    p: usize,
    scratch: &mut PatternScratch,
    loads: &mut PortLoads,
    pattern: &CommPattern,
) -> f64 {
    // Word traffic: rounds pipeline at the gap; a round whose
    // destinations collide pays the contention factor. A sustained
    // imbalance is bounded below by the receiver's drain time g·h_r.
    let mut words = 0.0;
    pattern.visit_word_segments(scratch, |seg| {
        let f = Cm5Network::factor(c.rho, seg.max_in_degree());
        words += c.gap * seg.rounds as f64 * f;
    });
    loads.begin(p);
    for (src, recs) in pattern.sends.iter().enumerate() {
        for rec in recs {
            if rec.kind == MsgKind::Words {
                loads.add(src, rec.dst, rec.logical_words as usize);
            }
        }
    }
    words = words.max(c.gap * loads.max_in() as f64);

    // Block traffic: per block round, the longest transfer (plus
    // contention) determines the step; the hottest receiver bounds it.
    // Block rounds first, then xnet rounds (no xnet on a CM-5) — the
    // same accumulation order as the original vector-based walk.
    let mut blocks = 0.0;
    let mut price_round = |round: pcm_sim::BlockRoundView<'_>| {
        let f = Cm5Network::factor(c.rho_block, round.max_in_degree());
        let step = (c.byte * round.max_bytes() as f64 * f)
            .max(c.byte * round.max_recv_bytes() as f64)
            + c.block_overhead;
        blocks += step;
    };
    pattern.visit_block_rounds(scratch, &mut price_round);
    pattern.visit_xnet_rounds(scratch, &mut price_round);

    words + blocks
}

impl Cm5Network {
    /// Builds the network for `p` nodes.
    pub fn new(p: usize) -> Self {
        assert!(p > 0);
        Cm5Network {
            p,
            costs: Cm5Costs::default(),
            scratch: PatternScratch::new(),
            loads: PortLoads::new(),
            key_buf: Vec::new(),
            memo: PricingCache::new(MEMO_SLOTS, MEMO_MAX_KEY),
            memo_enabled: true,
            terms: NetTerms::default(),
        }
    }

    /// Contention factor for in-degree `c`: `min(c, 1 + rho·(c-1))`.
    fn factor(rho: f64, c: usize) -> f64 {
        if c <= 1 {
            1.0
        } else {
            (1.0 + rho * (c as f64 - 1.0)).min(c as f64)
        }
    }
}

impl NetworkModel for Cm5Network {
    fn route(&mut self, pattern: &CommPattern, rng: &mut StdRng) -> SimTime {
        debug_assert_eq!(pattern.p, self.p);
        let Cm5Network {
            p,
            costs,
            scratch,
            loads,
            key_buf,
            memo,
            memo_enabled,
            terms,
        } = self;
        let (p, c) = (*p, *costs);
        terms.routes += 1;
        terms.barrier_us += c.barrier;
        // The jitter draw stays outside the memo: the rng stream (and the
        // golden digests) are identical with the memo on or off.
        let deterministic = if *memo_enabled {
            crate::fingerprint::pattern_key(key_buf, pattern);
            *memo.get_or_insert_with(key_buf, || price_pattern(&c, p, scratch, loads, pattern))
        } else {
            price_pattern(&c, p, scratch, loads, pattern)
        };
        let t = deterministic * jitter(c.jitter_cv, rng) + c.barrier;
        SimTime::from_micros(t)
    }

    fn barrier(&mut self) -> SimTime {
        self.terms.barriers += 1;
        self.terms.barrier_us += self.costs.barrier;
        SimTime::from_micros(self.costs.barrier)
    }

    fn name(&self) -> &str {
        "cm5-fat-tree"
    }

    fn set_route_memo(&mut self, enabled: bool) {
        self.memo_enabled = enabled;
    }

    fn route_memo_stats(&self) -> Option<CacheStats> {
        Some(self.memo.stats())
    }

    fn cost_terms(&self) -> Option<NetTerms> {
        Some(self.terms)
    }
}

/// The CM-5 compute model: nominal `alpha` for generic work plus the
/// measured Mflops curve of the assembly matmul kernel.
#[derive(Clone, Copy, Debug)]
pub struct Cm5Compute {
    /// Generic compound-op time (µs) used by `charge_ops`.
    pub alpha: f64,
    /// Copy cost per word (µs).
    pub copy: f64,
    /// Radix-sort coefficients (µs).
    pub radix: (f64, f64),
}

impl Cm5Compute {
    /// The default CM-5 node (paper values).
    pub fn new() -> Self {
        Cm5Compute {
            alpha: 0.35,
            copy: 0.06,
            radix: (0.45, 0.55),
        }
    }

    /// Sustained Mflops of the local matmul kernel for an
    /// `m x k · k x n` multiplication.
    pub fn kernel_mflops(m: usize, n: usize, k: usize) -> f64 {
        let max_dim = m.max(n).max(k);
        // Largest operand panel in bytes (8-byte doubles): the cache-blocked
        // kernel tolerates panels up to ~1 MB; beyond that the 64 KB
        // direct-mapped cache thrashes on the power-of-two strides.
        let panel = 8 * (m * k).max(k * n).max(m * n);
        if max_dim <= 16 {
            4.5 // loop overhead dominates tiny blocks
        } else if max_dim <= 24 {
            5.5
        } else if max_dim <= 32 {
            6.5
        } else if panel > 1024 * 1024 {
            5.2 // the paper's square-512 pathology
        } else if max_dim <= 64 {
            7.0
        } else {
            7.3
        }
    }
}

impl Default for Cm5Compute {
    fn default() -> Self {
        Self::new()
    }
}

impl ComputeModel for Cm5Compute {
    fn alpha(&self) -> f64 {
        self.alpha
    }

    fn word_bytes(&self) -> usize {
        8
    }

    fn matmul_op_time(&self, m: usize, n: usize, k: usize) -> f64 {
        // One compound op = 2 flops; Mflops = flops/µs.
        2.0 / Self::kernel_mflops(m, n, k)
    }

    fn copy_word_time(&self) -> f64 {
        self.copy
    }

    fn radix_coeffs(&self) -> (f64, f64) {
        self.radix
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact simulated values
mod tests {
    use super::*;
    use pcm_core::rng::{random_h_relation, seeded};
    use pcm_sim::{Message, MsgKind};

    fn route_us(net: &mut Cm5Network, pat: &CommPattern, seed: u64) -> f64 {
        let mut rng = seeded(seed);
        net.route(pat, &mut rng).as_micros() - net.costs.barrier
    }

    #[test]
    fn h_relation_costs_g_h() {
        let mut net = Cm5Network::new(64);
        let mut rng = seeded(2);
        for &h in &[1usize, 8, 64] {
            let dests = random_h_relation(64, h, &mut rng);
            let pat = CommPattern {
                p: 64,
                sends: dests
                    .into_iter()
                    .enumerate()
                    .map(|(src, ds)| {
                        ds.into_iter()
                            .map(|d| Message::header(src, d, MsgKind::Words, 1, 8))
                            .collect()
                    })
                    .collect(),
            };
            let t = route_us(&mut net, &pat, h as u64);
            let expect = 9.1 * h as f64;
            assert!((t - expect).abs() / expect < 0.05, "h={h}: {t} vs {expect}");
        }
    }

    #[test]
    fn identical_schedules_pay_contention() {
        // 4 senders all send 100 words to dst 0, then 100 to dst 1, ... —
        // the unstaggered matmul schedule.
        let naive: Vec<Vec<Message>> = (0..4)
            .map(|i| {
                (0..4usize)
                    .map(|d| Message::header(i, 8 + d, MsgKind::Words, 100, 800))
                    .collect()
            })
            .collect();
        // Staggered: sender i starts at destination i.
        let staggered: Vec<Vec<Message>> = (0..4usize)
            .map(|i| {
                (0..4usize)
                    .map(|d| Message::header(i, 8 + (i + d) % 4, MsgKind::Words, 100, 800))
                    .collect()
            })
            .collect();
        let mut net = Cm5Network::new(64);
        let mut pad = vec![Vec::new(); 60];
        let mut naive_sends = naive;
        naive_sends.append(&mut pad);
        let t_naive = route_us(
            &mut net,
            &CommPattern {
                p: 64,
                sends: naive_sends,
            },
            1,
        );
        let mut pad = vec![Vec::new(); 60];
        let mut stag_sends = staggered;
        stag_sends.append(&mut pad);
        let t_stag = route_us(
            &mut net,
            &CommPattern {
                p: 64,
                sends: stag_sends,
            },
            1,
        );
        let ratio = t_naive / t_stag;
        // 1 + rho·3 = 1.35 — the Fig. 4 contention factor for q = 4.
        assert!((ratio - 1.35).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn sustained_hot_receiver_is_drain_bound() {
        // 63 procs send 10 words each to proc 0: receiver must drain 630.
        let sends: Vec<Vec<Message>> = (0..64)
            .map(|i| {
                if i == 0 {
                    Vec::new()
                } else {
                    vec![Message::header(i, 0, MsgKind::Words, 10, 80)]
                }
            })
            .collect();
        let mut net = Cm5Network::new(64);
        let t = route_us(&mut net, &CommPattern { p: 64, sends }, 1);
        assert!(t >= 9.1 * 630.0 * 0.95, "drain bound: {t}");
    }

    #[test]
    fn block_permutation_costs_sigma_m_plus_ell() {
        let mut net = Cm5Network::new(64);
        for &m in &[1024usize, 32768] {
            let sends: Vec<Vec<Message>> = (0..64)
                .map(|i| vec![Message::header(i, (i + 7) % 64, MsgKind::Block, m / 8, m)])
                .collect();
            let t = route_us(&mut net, &CommPattern { p: 64, sends }, m as u64);
            let expect = 0.27 * m as f64 + 75.0;
            assert!((t - expect).abs() / expect < 0.05, "m={m}: {t} vs {expect}");
        }
    }

    #[test]
    fn kernel_curve_matches_the_paper() {
        // "6.5 to 7.5 Mflops for square matrices of size 32x32 to 256x256"
        for n in [32usize, 64, 128] {
            let mf = Cm5Compute::kernel_mflops(n, n, n);
            assert!((6.5..=7.5).contains(&mf), "n={n}: {mf}");
        }
        // "When N = 512, the performance drops to 5.2 Mflops."
        let big = Cm5Compute::kernel_mflops(512, 512, 512);
        assert!((5.0..=5.6).contains(&big), "512: {big}");
        // Tiny blocks are slow.
        assert!(Cm5Compute::kernel_mflops(8, 8, 8) < 5.0);
        // Nominal alpha ≈ 0.29 µs in the sweet spot.
        let c = Cm5Compute::new();
        let op = c.matmul_op_time(64, 64, 64);
        assert!((op - 0.2857).abs() < 0.01, "op time = {op}");
    }

    #[test]
    fn contention_factor_caps_at_full_serialization() {
        assert_eq!(Cm5Network::factor(0.117, 1), 1.0);
        assert!((Cm5Network::factor(0.117, 4) - 1.351).abs() < 1e-9);
        // With a huge rho the factor cannot exceed c.
        assert_eq!(Cm5Network::factor(10.0, 3), 3.0);
    }
}
