//! The 8-bit LSD radix sort used as the local sort on every platform
//! (paper Section 4.2.1): `T_local_sort = (b/r)·(beta·2^r + gamma·n)` with
//! `b = 32` key bits and radix `2^8`.

/// Key width in bits.
pub const KEY_BITS: usize = 32;
/// Digit width in bits.
pub const RADIX_BITS: usize = 8;

/// Sorts `keys` in place with a least-significant-digit radix sort,
/// 8 bits per pass.
pub fn radix_sort(keys: &mut Vec<u32>) {
    let n = keys.len();
    if n <= 1 {
        return;
    }
    let mut aux: Vec<u32> = vec![0; n];
    let radix = 1usize << RADIX_BITS;
    let mask = pcm_core::units::tag_u32(radix - 1);
    for pass in 0..(KEY_BITS / RADIX_BITS) {
        let shift = pass * RADIX_BITS;
        let mut counts = vec![0usize; radix];
        for &k in keys.iter() {
            counts[((k >> shift) & mask) as usize] += 1;
        }
        let mut pos = 0usize;
        for c in counts.iter_mut() {
            let start = pos;
            pos += *c;
            *c = start;
        }
        for &k in keys.iter() {
            let d = ((k >> shift) & mask) as usize;
            aux[counts[d]] = k;
            counts[d] += 1;
        }
        std::mem::swap(keys, &mut aux);
    }
}

/// Merges two ascending lists and keeps the `keep` smallest
/// (`low = true`) or largest (`low = false`) elements — the compare-split
/// step of bitonic sort on blocks. Returns `min(keep, a.len() + b.len())`
/// elements in ascending order.
///
/// The split runs in two steps instead of one branchy merge loop:
///
/// 1. A merge-path binary search (`merge_path`) finds the split `i` such
///    that `a[..i]` and `b[..s - i]` hold the `s` smallest keys, with
///    `s = keep` for the low half and `s = total - keep` for the high half
///    (whose keys are then `a[i..]` and `b[s - i..]`).
/// 2. A branch-free select merge of exactly those keys: each step loads
///    both heads, compares, and picks with a conditional move, so there is
///    no data-dependent branch to mispredict. It runs as two independent
///    chains — one fills the output from the front with the smallest
///    remaining keys, the other from the back with the largest — so the
///    load-compare-advance latencies of the two overlap.
///
/// The output is the same sequence, element for element, as any merge of
/// the same selection: the `s` smallest (or largest) keys of a multiset
/// form one multiset whichever way ties between `a` and `b` are broken, and
/// an ascending `u32` sequence is determined by its multiset. So the two
/// chains need not agree on tie order, and each output slot gets the key
/// of that rank.
pub fn merge_split(a: &[u32], b: &[u32], keep: usize, low: bool) -> Vec<u32> {
    let mut out = vec![0; keep.min(a.len() + b.len())];
    merge_split_into(a, b, low, &mut out);
    out
}

/// [`merge_split`] into a caller-owned buffer: keeps `out.len()` keys.
///
/// # Panics
/// Panics if `out` is longer than `a` and `b` together.
pub(crate) fn merge_split_into(a: &[u32], b: &[u32], low: bool, out: &mut [u32]) {
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]));
    let total = a.len() + b.len();
    assert!(
        out.len() <= total,
        "cannot keep more keys than both lists hold"
    );
    let s = if low { out.len() } else { total - out.len() };
    let i = merge_path(a, b, s);
    if low {
        merge_into(&a[..i], &b[..s - i], out);
    } else {
        merge_into(&a[i..], &b[s - i..], out);
    }
}

/// How many of the `s` smallest keys of `a ∪ b` come from `a` (ties taken
/// from `a` first), by binary search on the merge path: the answer is the
/// first `i` at which `a[i]` would follow `b[s - i - 1]` in the merge.
fn merge_path(a: &[u32], b: &[u32], s: usize) -> usize {
    let (mut lo, mut hi) = (s.saturating_sub(b.len()), s.min(a.len()));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if a[mid] <= b[s - mid - 1] {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Merges ascending `a` and `b` into `out` (`out.len() == a.len() +
/// b.len()`) with two branch-free select chains, one from each end.
fn merge_into(a: &[u32], b: &[u32], out: &mut [u32]) {
    let n = out.len();
    debug_assert_eq!(n, a.len() + b.len());
    // The front chain has taken `a[..fa]` and `b[..fb]` (the `k` smallest
    // keys, ties from `a` first); the back chain `a[ea..]` and `b[eb..]`
    // (the `k` largest). Both follow one total order, so the taken sets
    // never overlap while `2k <= n`, and the keys left are exactly
    // `out[k..n - k]`.
    let (mut fa, mut fb, mut ea, mut eb) = (0, 0, a.len(), b.len());
    let mut k = 0;
    loop {
        // Each step advances one cursor per chain, so for `run` steps no
        // cursor can leave its list and the loop needs no exhaustion test.
        let run = (a.len() - fa)
            .min(b.len() - fb)
            .min(ea)
            .min(eb)
            .min(n / 2 - k);
        if run == 0 {
            break;
        }
        let (head, rest) = out[k..n - k].split_at_mut(run);
        let tail = &mut rest[n - 2 * k - 2 * run..];
        for (lo, hi) in head.iter_mut().zip(tail.iter_mut().rev()) {
            let (x, y) = (a[fa], b[fb]);
            let take_a = x <= y;
            *lo = if take_a { x } else { y };
            fa += usize::from(take_a);
            fb += usize::from(!take_a);

            let (x, y) = (a[ea - 1], b[eb - 1]);
            let take_a = x > y;
            *hi = if take_a { x } else { y };
            ea -= usize::from(take_a);
            eb -= usize::from(!take_a);
        }
        k += run;
    }
    // One chain ran a list dry (or the chains met): at most one list has
    // keys left, and they fill the middle in order.
    debug_assert!(fa == ea || fb == eb);
    out[k..n - k].copy_from_slice(if fa == ea { &b[fb..eb] } else { &a[fa..ea] });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_core::rng::{random_keys, seeded};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The sequential merge loop `merge_split` replaced, kept as the
    /// reference it must match element for element.
    fn reference_merge_split(a: &[u32], b: &[u32], keep: usize, low: bool) -> Vec<u32> {
        let mut out = Vec::with_capacity(keep);
        if low {
            let (mut i, mut j) = (0usize, 0usize);
            while out.len() < keep {
                if i < a.len() && (j >= b.len() || a[i] <= b[j]) {
                    out.push(a[i]);
                    i += 1;
                } else if j < b.len() {
                    out.push(b[j]);
                    j += 1;
                } else {
                    break;
                }
            }
        } else {
            let (mut i, mut j) = (a.len(), b.len());
            while out.len() < keep {
                if i > 0 && (j == 0 || a[i - 1] >= b[j - 1]) {
                    out.push(a[i - 1]);
                    i -= 1;
                } else if j > 0 {
                    out.push(b[j - 1]);
                    j -= 1;
                } else {
                    break;
                }
            }
            out.reverse();
        }
        out
    }

    /// Shapes raw random lists (of independent lengths) into one of the
    /// adversarial inputs of a compare-split, both sorted ascending.
    fn adversarial_pair(shape: usize, mut a: Vec<u32>, mut b: Vec<u32>) -> (Vec<u32>, Vec<u32>) {
        let high = 1u32 << 31;
        match shape {
            // Duplicate-heavy: four distinct keys in all.
            0 => a.iter_mut().chain(b.iter_mut()).for_each(|v| *v %= 4),
            // All equal, across both lists.
            1 => {
                let v = a.first().or(b.first()).copied().unwrap_or(7);
                a.fill(v);
                b.fill(v);
            }
            // Disjoint ranges, `a` entirely below `b`, then entirely above.
            2 | 3 => {
                a.iter_mut().for_each(|v| *v >>= 1);
                b.iter_mut().for_each(|v| *v = (*v >> 1) | high);
                if shape == 3 {
                    std::mem::swap(&mut a, &mut b);
                }
            }
            // Perfectly interleaved: evens against odds.
            4 => {
                a = (0u32..).step_by(2).take(a.len()).collect();
                b = (1u32..).step_by(2).take(b.len()).collect();
            }
            // Uniform random keys.
            _ => {}
        }
        a.sort_unstable();
        b.sort_unstable();
        (a, b)
    }

    #[test]
    fn radix_sorts_random_keys() {
        let mut rng = seeded(4);
        for n in [0usize, 1, 2, 100, 4096] {
            let mut keys = random_keys(n, &mut rng);
            let mut expect = keys.clone();
            expect.sort_unstable();
            radix_sort(&mut keys);
            assert_eq!(keys, expect, "n = {n}");
        }
    }

    #[test]
    fn radix_handles_extremes() {
        let mut keys = vec![u32::MAX, 0, u32::MAX, 1, 0];
        radix_sort(&mut keys);
        assert_eq!(keys, vec![0, 0, 1, u32::MAX, u32::MAX]);
    }

    #[test]
    fn merge_split_keeps_extremes() {
        let a = vec![1u32, 4, 7];
        let b = vec![2u32, 3, 9];
        assert_eq!(merge_split(&a, &b, 3, true), vec![1, 2, 3]);
        assert_eq!(merge_split(&a, &b, 3, false), vec![4, 7, 9]);
        // Union of both halves is the whole multiset.
        let mut all = merge_split(&a, &b, 3, true);
        all.extend(merge_split(&a, &b, 3, false));
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3, 4, 7, 9]);
    }

    #[test]
    fn merge_split_short_inputs() {
        assert_eq!(merge_split(&[5], &[], 1, true), vec![5]);
        assert_eq!(merge_split(&[], &[7], 1, false), vec![7]);
        assert_eq!(merge_split(&[], &[], 0, true), Vec::<u32>::new());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn merge_split_matches_the_sequential_merge(
            shape in 0usize..6,
            raw_a in vec(any::<u32>(), 0..64),
            raw_b in vec(any::<u32>(), 0..64),
            keep_pick in 0usize..6,
            r in any::<usize>(),
        ) {
            let (a, b) = adversarial_pair(shape, raw_a, raw_b);
            let total = a.len() + b.len();
            let keep = [0, a.len(), b.len(), total, total + 1 + r % 8, r % (total + 1)][keep_pick];
            for low in [true, false] {
                prop_assert_eq!(
                    merge_split(&a, &b, keep, low),
                    reference_merge_split(&a, &b, keep, low),
                    "shape {} keep {} low {}",
                    shape,
                    keep,
                    low
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn radix_matches_std_sort(mut keys in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..500)) {
            let mut expect = keys.clone();
            expect.sort_unstable();
            radix_sort(&mut keys);
            proptest::prop_assert_eq!(keys, expect);
        }

        #[test]
        fn merge_split_is_a_partition(mut a in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..100),
                                      mut b in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..100)) {
            a.sort_unstable();
            b.sort_unstable();
            let keep = a.len();
            let lo = merge_split(&a, &b, keep, true);
            let hi = merge_split(&a, &b, a.len() + b.len() - keep, false);
            let mut union: Vec<u32> = lo.iter().chain(hi.iter()).copied().collect();
            union.sort_unstable();
            let mut expect: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
            expect.sort_unstable();
            proptest::prop_assert_eq!(union, expect);
            // Every low element <= every high element.
            if let (Some(&max_lo), Some(&min_hi)) = (lo.last(), hi.first()) {
                proptest::prop_assert!(max_lo <= min_hi);
            }
        }
    }
}
