//! Cost contracts: what a predictor's closed form assumes about a run.
//!
//! Every closed-form predictor in [`crate::predict`] prices a specific
//! superstep structure — a number of supersteps, an h-relation volume per
//! superstep, and a set of message kinds (words, blocks, xnet). If the
//! implementation in `pcm-algos` drifts away from that structure, the
//! prediction silently stops describing the program it claims to price.
//!
//! A [`CostContract`] makes the assumptions explicit as functions of the
//! problem size `n` and the processor count `p`, and
//! [`CostContract::check`] diffs them against the [`SuperstepTrace`]
//! stream an actual run recorded. The `pcm-check` crate reports breaches
//! under rule ids C01 (superstep count), C02 (h-relation bound) and C03
//! (disallowed message kind).
//!
//! Bounds are *contracts*, not predictions: the superstep range is exact
//! where the algorithm is rigid (matrix multiplication runs in exactly 3
//! supersteps) and an envelope where a variant legitimately varies it
//! (bitonic's resynchronized exchange adds chunk supersteps).

use pcm_core::units::log2_exact;
use pcm_sim::SuperstepTrace;

use crate::domain::DomainSpec;
use crate::predict::matmul::q_for;

/// Message kinds a predictor's cost expressions account for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KindMask {
    /// Word messages (the `g`-term traffic of BSP/MP-BSP).
    pub words: bool,
    /// Block transfers (the `sigma`-term traffic of MP-BPRAM).
    pub blocks: bool,
    /// Xnet neighbour-grid transfers (only the vendor Cannon uses these).
    pub xnet: bool,
}

impl KindMask {
    /// Words and blocks allowed, xnet forbidden — every model-derived
    /// algorithm of the paper.
    pub const WORDS_AND_BLOCKS: KindMask = KindMask {
        words: true,
        blocks: true,
        xnet: false,
    };
}

/// The structural assumptions behind one predictor module.
///
/// `n` is the problem size in the same units the predictor's cost
/// functions use (matrix side for `matmul`/`lu`, graph size for `apsp`,
/// keys per processor for the sorts).
#[derive(Clone, Copy)]
pub struct CostContract {
    /// The predictor this contract belongs to (module name).
    pub algorithm: &'static str,
    /// Inclusive `(min, max)` bound on the run's superstep count.
    pub supersteps: fn(n: usize, p: usize) -> (usize, usize),
    /// Upper bound on any superstep's `max(h_send, h_recv)`, in words.
    pub max_h: fn(n: usize, p: usize) -> usize,
    /// Kinds the cost expressions account for.
    pub allowed_kinds: fn(n: usize, p: usize) -> KindMask,
}

/// One way a recorded run departed from its predictor's contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContractBreach {
    /// The run's superstep count fell outside the contract range.
    Supersteps {
        /// Supersteps the run executed.
        observed: usize,
        /// Contract minimum.
        min: usize,
        /// Contract maximum.
        max: usize,
    },
    /// A superstep moved more words per processor than the contract allows.
    HRelation {
        /// Offending superstep index.
        step: usize,
        /// Observed `max(h_send, h_recv)`.
        observed: usize,
        /// Contract bound.
        bound: usize,
    },
    /// A superstep used a message kind the predictor does not price.
    Kind {
        /// Offending superstep index.
        step: usize,
        /// The disallowed kind ("words", "blocks" or "xnet").
        kind: &'static str,
    },
}

impl std::fmt::Display for ContractBreach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContractBreach::Supersteps { observed, min, max } => write!(
                f,
                "ran {observed} supersteps, contract allows {min}..={max}"
            ),
            ContractBreach::HRelation {
                step,
                observed,
                bound,
            } => write!(
                f,
                "superstep {step} moved h = {observed} words, contract bound is {bound}"
            ),
            ContractBreach::Kind { step, kind } => {
                write!(
                    f,
                    "superstep {step} sent {kind} messages, which the predictor does not price"
                )
            }
        }
    }
}

/// One way a contract's closed-form bounds fail *shape* certification —
/// anomalies in the symbolic `(n, p)` behaviour of the bound itself,
/// independent of any executed run. The `pcm-audit` static analyzer
/// reports these under rule A06.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundAnomaly {
    /// The h-relation bound shrank when the problem grew at fixed `p`.
    NonMonotoneInN {
        /// Fixed processor count.
        p: usize,
        /// Smaller problem size.
        n_lo: usize,
        /// Larger problem size.
        n_hi: usize,
        /// Bound at `n_lo`.
        lo: usize,
        /// Bound at `n_hi`.
        hi: usize,
    },
    /// The total communication volume bound `p·max_h` shrank when
    /// processors were added at fixed `n`: the contract claims adding
    /// processors removes words from the wire, which no algorithm in the
    /// suite does.
    ShrinkingVolumeInP {
        /// Fixed problem size.
        n: usize,
        /// Smaller processor count.
        p_lo: usize,
        /// Larger processor count.
        p_hi: usize,
        /// Volume bound at `p_lo`.
        lo: usize,
        /// Volume bound at `p_hi`.
        hi: usize,
    },
    /// The superstep range is empty (`min > max`) at an in-domain grid point.
    EmptySuperstepRange {
        /// Problem size.
        n: usize,
        /// Processor count.
        p: usize,
        /// Contract minimum.
        min: usize,
        /// Contract maximum.
        max: usize,
    },
}

impl std::fmt::Display for BoundAnomaly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BoundAnomaly::NonMonotoneInN {
                p,
                n_lo,
                n_hi,
                lo,
                hi,
            } => write!(
                f,
                "h bound shrinks in n at p={p}: h({n_lo})={lo} > h({n_hi})={hi}"
            ),
            BoundAnomaly::ShrinkingVolumeInP {
                n,
                p_lo,
                p_hi,
                lo,
                hi,
            } => write!(
                f,
                "volume bound p·h shrinks in p at n={n}: {p_lo}·h={lo} > {p_hi}·h={hi}"
            ),
            BoundAnomaly::EmptySuperstepRange { n, p, min, max } => {
                write!(f, "empty superstep range {min}..={max} at n={n} p={p}")
            }
        }
    }
}

impl CostContract {
    /// The h-relation bound at one grid point, in words.
    pub fn h_bound(&self, n: usize, p: usize) -> usize {
        (self.max_h)(n, p)
    }

    /// The inclusive superstep-count range at one grid point.
    pub fn superstep_range(&self, n: usize, p: usize) -> (usize, usize) {
        (self.supersteps)(n, p)
    }

    /// Certifies the symbolic *shape* of the contract's bounds over the
    /// `ns × ps` grid, restricted to the points `domain` admits
    /// (algorithms impose divisibility constraints; comparing bounds at
    /// points the algorithm cannot run on would be meaningless):
    ///
    /// * `max_h` is non-decreasing in `n` at fixed `p` (a bigger problem
    ///   never moves fewer words per processor),
    /// * the volume bound `p·max_h` is non-decreasing in `p` at fixed `n`
    ///   (adding processors never shrinks the total wire volume the
    ///   contract admits — the per-processor bound itself may shrink),
    /// * the superstep range is non-empty at every admitted point.
    pub fn certify_shape(
        &self,
        ns: &[usize],
        ps: &[usize],
        domain: &DomainSpec,
    ) -> Vec<BoundAnomaly> {
        let mut anomalies = Vec::new();
        for &p in ps {
            let mut prev: Option<(usize, usize)> = None;
            for &n in ns {
                if domain.check(n, p).is_err() {
                    continue;
                }
                let (min, max) = self.superstep_range(n, p);
                if min > max {
                    anomalies.push(BoundAnomaly::EmptySuperstepRange { n, p, min, max });
                }
                let h = self.h_bound(n, p);
                if let Some((n_lo, lo)) = prev {
                    if h < lo {
                        anomalies.push(BoundAnomaly::NonMonotoneInN {
                            p,
                            n_lo,
                            n_hi: n,
                            lo,
                            hi: h,
                        });
                    }
                }
                prev = Some((n, h));
            }
        }
        for &n in ns {
            let mut prev: Option<(usize, usize)> = None;
            for &p in ps {
                if domain.check(n, p).is_err() {
                    continue;
                }
                let volume = p.saturating_mul(self.h_bound(n, p));
                if let Some((p_lo, lo)) = prev {
                    if volume < lo {
                        anomalies.push(BoundAnomaly::ShrinkingVolumeInP {
                            n,
                            p_lo,
                            p_hi: p,
                            lo,
                            hi: volume,
                        });
                    }
                }
                prev = Some((p, volume));
            }
        }
        anomalies
    }

    /// Diffs the contract against a recorded trace stream; returns every
    /// breach (empty = conformant).
    pub fn check(&self, n: usize, p: usize, traces: &[SuperstepTrace]) -> Vec<ContractBreach> {
        let mut breaches = Vec::new();
        let (min, max) = (self.supersteps)(n, p);
        if traces.len() < min || traces.len() > max {
            breaches.push(ContractBreach::Supersteps {
                observed: traces.len(),
                min,
                max,
            });
        }
        let bound = (self.max_h)(n, p);
        let kinds = (self.allowed_kinds)(n, p);
        for t in traces {
            let h = t.h_send.max(t.h_recv);
            if h > bound {
                breaches.push(ContractBreach::HRelation {
                    step: t.index,
                    observed: h,
                    bound,
                });
            }
            for (used, allowed, kind) in [
                (t.word_msgs > 0, kinds.words, "words"),
                (t.block_msgs > 0, kinds.blocks, "blocks"),
                (t.xnet_msgs > 0, kinds.xnet, "xnet"),
            ] {
                if used && !allowed {
                    breaches.push(ContractBreach::Kind {
                        step: t.index,
                        kind,
                    });
                }
            }
        }
        breaches
    }
}

fn words_and_blocks(_n: usize, _p: usize) -> KindMask {
    KindMask::WORDS_AND_BLOCKS
}

/// `sqrt(P)` for the grid algorithms (truncating; their domain admits
/// only square `P`).
fn grid_side(p: usize) -> usize {
    p.isqrt()
}

/// Compare-split steps of a `P`-processor bitonic sort:
/// `lg·(lg+1)/2`.
fn bitonic_steps(p: usize) -> usize {
    let lg = log2_exact(p) as usize;
    lg * (lg + 1) / 2
}

/// Contract of [`crate::predict::matmul`]: exactly 3 supersteps
/// (replicate, multiply + redistribute, sum), each moving at most
/// `2·N²/q²` words per processor.
pub fn matmul() -> CostContract {
    CostContract {
        algorithm: "matmul",
        supersteps: |_n, _p| (3, 3),
        max_h: |n, p| {
            let q = q_for(p);
            2 * n * n / (q * q)
        },
        allowed_kinds: words_and_blocks,
    }
}

/// Contract of [`crate::predict::bitonic`]: local sort + `lg·(lg+1)/2`
/// exchange supersteps + final merge; the resynchronized mode may split
/// each exchange into up to `M` chunk supersteps. Every exchange moves at
/// most the whole `M`-key list.
pub fn bitonic() -> CostContract {
    CostContract {
        algorithm: "bitonic",
        supersteps: |n, p| {
            if p <= 1 {
                (1, 1)
            } else {
                let s = bitonic_steps(p);
                (2 + s, 2 + s * n.max(1))
            }
        },
        max_h: |n, _p| n,
        allowed_kinds: words_and_blocks,
    }
}

/// Contract of [`crate::predict::samplesort`]: sample + bitonic splitter
/// sort + splitter broadcast (2–3 supersteps) + local sort + multi-scan
/// (3–5) + routing (2–5) + bucket sort. The h bound is the total key count
/// `N = n·P` — bucket sizes are data-dependent and only bounded by `N`.
pub fn samplesort() -> CostContract {
    CostContract {
        algorithm: "samplesort",
        supersteps: |_n, p| {
            let s = bitonic_steps(p);
            (s + 10, s + 17)
        },
        max_h: |n, p| n * p + p,
        allowed_kinds: words_and_blocks,
    }
}

/// Contract of [`crate::predict::apsp`]: `N` iterations of scatter +
/// absorb + gather. Pipelined machines run 4 supersteps per iteration;
/// the MP-BSP path runs `2 + log2(sqrt(P)/pieces) + pieces` with
/// `pieces = min(M, sqrt(P))`. Each broadcast superstep moves at most
/// `2·(M + sqrt(P))` words per processor (both axes).
pub fn apsp() -> CostContract {
    CostContract {
        algorithm: "apsp",
        supersteps: |n, p| {
            let side = grid_side(p);
            let log_side = side.next_power_of_two().trailing_zeros() as usize;
            (4 * n, n * (2 + side + log_side))
        },
        max_h: |n, p| {
            let side = grid_side(p);
            2 * (n / side.max(1) + side)
        },
        allowed_kinds: words_and_blocks,
    }
}

/// Contract of [`crate::predict::lu`]: exactly `3·N` supersteps (pivot,
/// broadcasts, update per iteration), each moving at most `2·N` words
/// (the two `(sqrt(P)-1)·M`-word broadcasts can share a processor).
pub fn lu() -> CostContract {
    CostContract {
        algorithm: "lu",
        supersteps: |n, _p| (3 * n, 3 * n),
        max_h: |n, _p| 2 * n,
        allowed_kinds: words_and_blocks,
    }
}

/// Contract of [`crate::predict::parallel_radix`]: `32/r` passes of 4
/// supersteps each (histogram, prefix reply, routing, placement). Routing
/// moves at most `2·M` words (`(position, key)` pairs) plus the `2·2^r`
/// count words.
pub fn parallel_radix() -> CostContract {
    CostContract {
        algorithm: "parallel_radix",
        supersteps: |_n, _p| {
            let passes = 32 / crate::predict::parallel_radix::RADIX_BITS;
            (4 * passes, 4 * passes)
        },
        max_h: |n, _p| 2 * n + 2 * (1 << crate::predict::parallel_radix::RADIX_BITS),
        allowed_kinds: words_and_blocks,
    }
}

/// All six predictor contracts, for sweeping.
pub fn all() -> Vec<CostContract> {
    vec![
        matmul(),
        bitonic(),
        samplesort(),
        apsp(),
        lu(),
        parallel_radix(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_core::SimTime;

    fn trace(index: usize, h: usize, words: usize, blocks: usize, xnet: usize) -> SuperstepTrace {
        SuperstepTrace {
            index,
            compute: SimTime::ZERO,
            comm: SimTime::ZERO,
            messages: words + blocks + xnet,
            bytes: 0,
            h_send: h,
            h_recv: h,
            active: 0,
            block_steps: blocks.min(1),
            block_bytes_sum: 0,
            word_msgs: words,
            block_msgs: blocks,
            xnet_msgs: xnet,
        }
    }

    #[test]
    fn conformant_matmul_trace_passes() {
        let c = matmul();
        // 64 procs -> q = 4; n = 16 -> bound 2·256/16 = 32 words.
        let traces = vec![
            trace(0, 30, 100, 0, 0),
            trace(1, 16, 50, 0, 0),
            trace(2, 0, 0, 0, 0),
        ];
        assert!(c.check(16, 64, &traces).is_empty());
    }

    #[test]
    fn superstep_count_breach_is_reported() {
        let c = matmul();
        let traces = vec![trace(0, 0, 0, 0, 0); 5];
        let b = c.check(16, 64, &traces);
        assert_eq!(
            b,
            vec![ContractBreach::Supersteps {
                observed: 5,
                min: 3,
                max: 3
            }]
        );
    }

    #[test]
    fn h_bound_breach_names_the_step() {
        let c = lu();
        let mut traces: Vec<SuperstepTrace> = (0..12).map(|i| trace(i, 1, 1, 0, 0)).collect();
        traces[7] = trace(7, 99, 99, 0, 0); // bound for n = 4 is 8
        let b = c.check(4, 16, &traces);
        assert_eq!(
            b,
            vec![ContractBreach::HRelation {
                step: 7,
                observed: 99,
                bound: 8
            }]
        );
    }

    #[test]
    fn xnet_kind_is_disallowed_everywhere() {
        for c in all() {
            let (min, _) = (c.supersteps)(4, 16);
            let mut traces: Vec<SuperstepTrace> = (0..min).map(|i| trace(i, 0, 0, 0, 0)).collect();
            if let Some(t) = traces.first_mut() {
                *t = trace(0, 0, 0, 0, 3);
            }
            let b = c.check(4, 16, &traces);
            assert!(
                b.contains(&ContractBreach::Kind {
                    step: 0,
                    kind: "xnet"
                }),
                "{} must forbid xnet",
                c.algorithm
            );
        }
    }

    #[test]
    fn breaches_render_human_readably() {
        let b = ContractBreach::HRelation {
            step: 3,
            observed: 10,
            bound: 5,
        };
        let s = format!("{b}");
        assert!(s.contains("superstep 3") && s.contains("h = 10"), "{s}");
    }
}
