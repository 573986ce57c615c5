//! Cost contracts: what a predictor's closed form assumes about a run.
//!
//! Every closed-form predictor in [`crate::predict`] prices a specific
//! superstep structure — a number of supersteps and an h-relation volume
//! per superstep. If the implementation in `pcm-algos` drifts away from
//! that structure, the prediction silently stops describing the program
//! it claims to price.
//!
//! A [`CostContract`] makes the assumptions explicit as functions of the
//! problem size `n` and the processor count `p`. The `pcm-audit` static
//! analyzer checks every superstep of every catalog run against them
//! (rule A03, through [`CostContract::h_bound`] and
//! [`CostContract::superstep_range`]) and certifies their symbolic shape
//! (rule A06, [`CostContract::certify_shape`]). Which message kinds a
//! run may send is the variant's `Discipline` in `pcm-algos`, checked by
//! `pcm-check`'s protocol rule R03.
//!
//! Bounds are *contracts*, not predictions: the superstep range is exact
//! where the algorithm is rigid (matrix multiplication runs in exactly 3
//! supersteps) and an envelope where a variant legitimately varies it
//! (bitonic's resynchronized exchange adds chunk supersteps).

use pcm_core::units::log2_exact;

use crate::domain::DomainSpec;
use crate::predict::matmul::q_for;

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
