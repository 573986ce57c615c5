//! Declared static buffer bounds per algorithm family.
//!
//! The `pcm-audit` static analyzer certifies that every algorithm's
//! communication plan stays inside the simulator's pooled buffer sizing
//! (rule A04) and the inline payload fast path (rule A05). Those
//! certificates are only meaningful against *declared* envelopes: each
//! family states here, as closed forms of the problem size `n` and the
//! processor count `p`, the worst-case logical bytes any single processor
//! may receive in one superstep, and the packet sizes its word traffic is
//! allowed to use beyond one machine word.
//!
//! The bounds are contracts in the same spirit as
//! `pcm_models::CostContract`: loose enough that a legitimate schedule
//! never trips them, tight enough that a mis-declared h-relation or an
//! unpadded bucket explosion is caught without executing the pricing
//! path. `n` uses the same units as the matching predictor (matrix side
//! for `matmul`/`lu`/`apsp`, keys per processor for the sorts, words per
//! processor for the collectives).

use pcm_models::predict::matmul::q_for;

/// Static buffer envelope one algorithm family declares to the auditor.
#[derive(Clone, Copy)]
pub struct AuditBounds {
    /// The family the bounds belong to.
    pub family: &'static str,
    /// Worst-case logical bytes received by any single processor in one
    /// superstep, as a function of `(n, p, word)`.
    pub max_step_recv_bytes: fn(n: usize, p: usize, word: usize) -> usize,
    /// Fixed per-message packet sizes (bytes) the family's word traffic
    /// may use besides the machine word itself (Section 8 granularity
    /// study). Empty for families that only send single-word messages.
    pub packet_bytes: &'static [usize],
}

/// Bounds of the 3D matrix multiplication: the replicate and redistribute
/// supersteps each move two `(N/q)²`-word operand blocks per processor.
pub fn matmul() -> AuditBounds {
    AuditBounds {
        family: "matmul",
        max_step_recv_bytes: |n, p, word| {
            let q = q_for(p);
            2 * (n / q) * (n / q) * word
        },
        packet_bytes: &[],
    }
}

/// Bounds of bitonic sort: every compare-split exchange moves at most the
/// whole `M`-key local list (words, 16-byte packets or one block).
pub fn bitonic() -> AuditBounds {
    AuditBounds {
        family: "bitonic",
        max_step_recv_bytes: |n, _p, word| n * word,
        packet_bytes: &[16],
    }
}

/// Bounds of sample sort: bucket sizes are data-dependent and only bounded
/// by the total key count `N = n·P` (plus the `P` splitter words); the
/// padded block scheme additionally pads every slice to the maximum, so
/// a factor-2 envelope covers both schedules.
pub fn samplesort() -> AuditBounds {
    AuditBounds {
        family: "samplesort",
        max_step_recv_bytes: |n, p, word| 2 * (n * p + p) * word,
        packet_bytes: &[],
    }
}

/// Bounds of the parallel radix sort: routing delivers `(position, key)`
/// pairs — two words per local key — plus the `2·2^r` histogram words of
/// the counting phases.
pub fn parallel_radix() -> AuditBounds {
    AuditBounds {
        family: "parallel_radix",
        max_step_recv_bytes: |n, _p, word| {
            let radix = 1usize << pcm_models::predict::parallel_radix::RADIX_BITS;
            (2 * n + 2 * radix) * word
        },
        packet_bytes: &[],
    }
}

/// Bounds of blocked Floyd APSP: a broadcast superstep delivers at most a
/// row piece and a column piece — `2·(M + sqrt(P))` words per processor.
pub fn apsp() -> AuditBounds {
    AuditBounds {
        family: "apsp",
        max_step_recv_bytes: |n, p, word| {
            let side = p.isqrt().max(1);
            2 * (n / side + side) * word
        },
        packet_bytes: &[],
    }
}

/// Bounds of blocked LU: the pivot-row and pivot-column broadcasts can
/// land on one processor in the same superstep — at most `2·N` words.
pub fn lu() -> AuditBounds {
    AuditBounds {
        family: "lu",
        max_step_recv_bytes: |n, _p, word| 2 * n * word,
        packet_bytes: &[],
    }
}

/// Bounds of the vendor kernels (MPL `matmul`, CMSSL SUMMA): every skew or
/// broadcast step moves at most the two `N²/P`-word operand panels into a
/// processor.
pub fn vendor() -> AuditBounds {
    AuditBounds {
        family: "vendor",
        max_step_recv_bytes: |n, p, word| 2 * (n * n).div_ceil(p) * word,
        packet_bytes: &[],
    }
}

/// Bounds of the standalone collectives: all-gather concentrates every
/// processor's `n`-word vector — `n·(P+1)` words plus the `P` bookkeeping
/// words of the multi-scan.
pub fn collectives() -> AuditBounds {
    AuditBounds {
        family: "collectives",
        max_step_recv_bytes: |n, p, word| (n * (p + 1) + p) * word,
        packet_bytes: &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::families;

    fn all() -> Vec<AuditBounds> {
        families().into_iter().map(|f| f.bounds).collect()
    }

    #[test]
    fn every_family_declares_bounds() {
        for f in families() {
            assert_eq!(
                f.bounds.family, f.name,
                "bounds declared under another name"
            );
        }
    }

    #[test]
    fn bounds_are_positive_on_real_grid_points() {
        for f in families() {
            for &(n, p) in f.grid {
                for word in [4usize, 8] {
                    let bytes = (f.bounds.max_step_recv_bytes)(n, p, word);
                    assert!(bytes > 0, "{} bound vanished at n={n} p={p}", f.name);
                }
            }
        }
    }

    #[test]
    fn packet_sizes_fit_the_inline_fast_path() {
        for b in all() {
            for &bytes in b.packet_bytes {
                assert!(
                    bytes <= pcm_sim::INLINE_PAYLOAD,
                    "{}: declared packet size {bytes} exceeds the inline class",
                    b.family
                );
            }
        }
    }
}
