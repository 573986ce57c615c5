//! The 8-bit LSD radix sort used as the local sort on every platform
//! (paper Section 4.2.1): `T_local_sort = (b/r)·(beta·2^r + gamma·n)` with
//! `b = 32` key bits and radix `2^8`.

use std::ops::Range;

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
    let keep = keep.min(a.len() + b.len());
    let (from_a, from_b) = split_ranges(a, b, keep, low);
    let mut out = vec![0; keep];
    merge_into(&a[from_a], &b[from_b], &mut out);
    out
}

/// Compare-splits `list` in place against the ascending list `theirs`:
/// afterwards `list` holds what [`merge_split`]`(list, theirs,
/// list.len(), low)` returns.
///
/// When one list alone holds every kept key, nothing is merged: `list`
/// is left as it is, or `theirs`' keys are written over it. Otherwise the
/// merge is written to `spare`, which is then swapped with `list`, so a
/// caller that keeps `spare` between calls allocates only on the first.
/// `spare`'s contents on entry and on return are scratch.
pub(crate) fn compare_split(
    list: &mut Vec<u32>,
    theirs: impl Keys,
    low: bool,
    spare: &mut Vec<u32>,
) {
    let keep = list.len();
    let (mine, from_theirs) = split_ranges(list, theirs, keep, low);
    if from_theirs.is_empty() {
        return;
    }
    if mine.is_empty() {
        theirs.slice(from_theirs).write_to(list);
        return;
    }
    spare.resize(keep, 0);
    merge_into(&list[mine], theirs.slice(from_theirs), spare);
    std::mem::swap(list, spare);
}

/// An ascending key list that a compare-split reads where it lies: a
/// slice of keys, or the payload of the message that carried them.
pub(crate) trait Keys: Copy {
    /// Number of keys.
    fn len(self) -> usize;
    /// The key at index `i`.
    fn key(self, i: usize) -> u32;
    /// The keys in `range`.
    fn slice(self, range: Range<usize>) -> Self;
    /// Writes every key to `out`.
    ///
    /// # Panics
    /// Panics unless `out` holds exactly `self.len()` keys.
    fn write_to(self, out: &mut [u32]);
}

impl Keys for &[u32] {
    fn len(self) -> usize {
        <[u32]>::len(self)
    }

    fn key(self, i: usize) -> u32 {
        self[i]
    }

    fn slice(self, range: Range<usize>) -> Self {
        &self[range]
    }

    fn write_to(self, out: &mut [u32]) {
        out.copy_from_slice(self);
    }
}

/// Keys as little-endian `u32` bytes, the encoding `Ctx::send_*_u32`
/// puts in a message payload; each key is decoded when it is read.
#[derive(Clone, Copy)]
pub(crate) struct LeKeys<'a>(&'a [u8]);

impl<'a> LeKeys<'a> {
    /// Reads `bytes` as keys, without decoding them.
    ///
    /// # Panics
    /// Panics if the length of `bytes` is not a multiple of 4.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        assert!(
            bytes.chunks_exact(4).remainder().is_empty(),
            "payload is not u32-aligned"
        );
        LeKeys(bytes)
    }
}

impl Keys for LeKeys<'_> {
    fn len(self) -> usize {
        self.0.len() / 4
    }

    fn key(self, i: usize) -> u32 {
        let b = &self.0[4 * i..4 * i + 4];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    fn slice(self, range: Range<usize>) -> Self {
        LeKeys(&self.0[4 * range.start..4 * range.end])
    }

    fn write_to(self, out: &mut [u32]) {
        assert_eq!(out.len(), self.len(), "output must hold every key");
        for (o, b) in out.iter_mut().zip(self.0.chunks_exact(4)) {
            *o = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
}

/// The ranges of `a` and `b` that together hold the `keep` smallest
/// (`low`) or largest keys of both lists (`keep <= a.len() + b.len()`).
fn split_ranges(a: &[u32], b: impl Keys, keep: usize, low: bool) -> (Range<usize>, Range<usize>) {
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!((1..b.len()).all(|j| b.key(j - 1) <= b.key(j)));
    let total = a.len() + b.len();
    let s = if low { keep } else { total - keep };
    // Keys equal across the split stay on `a`'s side of it, so a list
    // whose keys all belong there is kept whole even at a tie.
    let i = merge_path(a, b, s, low);
    if low {
        (0..i, 0..s - i)
    } else {
        (i..a.len(), s - i..b.len())
    }
}

/// How many of the `s` smallest keys of `a ∪ b` come from `a`, ties taken
/// from `a` first if `a_first` and from `b` first otherwise, by binary
/// search on the merge path: the answer is the first `i` at which `a[i]`
/// would follow `b[s - i - 1]` in the merge.
fn merge_path(a: &[u32], b: impl Keys, s: usize, a_first: bool) -> usize {
    let (mut lo, mut hi) = (s.saturating_sub(b.len()), s.min(a.len()));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let (x, y) = (a[mid], b.key(s - mid - 1));
        if x < y || (a_first && x == y) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Merges ascending `a` and `b` into `out` (`out.len() == a.len() +
/// b.len()`) with two branch-free select chains, one from each end.
fn merge_into(a: &[u32], b: impl Keys, out: &mut [u32]) {
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
            let (x, y) = (a[fa], b.key(fb));
            let take_a = x <= y;
            *lo = if take_a { x } else { y };
            fa += usize::from(take_a);
            fb += usize::from(!take_a);

            let (x, y) = (a[ea - 1], b.key(eb - 1));
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
    let middle = &mut out[k..n - k];
    if fa == ea {
        b.slice(fb..eb).write_to(middle);
    } else {
        middle.copy_from_slice(&a[fa..ea]);
    }
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

    /// What `spare` holds before each test compare-split: unsorted, so no
    /// list can equal it, and it stays as it is unless a merge runs.
    const UNTOUCHED: [u32; 3] = [u32::MAX, 0, 1];

    /// Compare-splits `a` against `b` read in place, first from a key
    /// slice and then from the payload bytes the wire encoder makes of it.
    /// Returns each resulting list with the spare buffer after the call.
    fn compare_split_both_sources(a: &[u32], b: &[u32], low: bool) -> [(Vec<u32>, Vec<u32>); 2] {
        let payload = pcm_sim::message::encode_u32s(b);
        let run = |split: &dyn Fn(&mut Vec<u32>, &mut Vec<u32>)| {
            let (mut list, mut spare) = (a.to_vec(), UNTOUCHED.to_vec());
            split(&mut list, &mut spare);
            (list, spare)
        };
        [
            run(&|list, spare| compare_split(list, b, low, spare)),
            run(&|list, spare| compare_split(list, LeKeys::new(&payload), low, spare)),
        ]
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

    #[test]
    fn compare_split_skips_the_merge_when_one_side_wins() {
        // Keys tied across the split stay with the own list, so it is kept
        // whole at a tie; the partner's list is taken whole only when all
        // of it lies strictly beyond the own list.
        let below = vec![1u32, 2, 3, 3, 5];
        let above = vec![5u32, 8, 8, 9, 12];
        let beyond = vec![6u32, 8, 8, 9, 12];
        let equal = vec![7u32; 5];
        // (own list, partner's list, low half, kept keys)
        let cases = [
            (&below, &above, true, &below),
            (&above, &below, false, &above),
            (&equal, &equal, true, &equal),
            (&equal, &equal, false, &equal),
            (&below, &beyond, false, &beyond),
            (&beyond, &below, true, &below),
        ];
        for (a, b, low, kept) in cases {
            for (list, spare) in compare_split_both_sources(a, b, low) {
                assert_eq!(&list, kept, "{a:?} against {b:?}, low {low}");
                assert_eq!(
                    spare, UNTOUCHED,
                    "{a:?} against {b:?}, low {low}: a merge ran"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn compare_split_matches_the_sequential_merge(
            shape in 0usize..6,
            raw_a in vec(any::<u32>(), 0..64),
            raw_b in vec(any::<u32>(), 0..64),
        ) {
            let (a, b) = adversarial_pair(shape, raw_a, raw_b);
            for low in [true, false] {
                let expect = reference_merge_split(&a, &b, a.len(), low);
                for (source, (list, spare)) in
                    ["slice", "payload"].into_iter().zip(compare_split_both_sources(&a, &b, low))
                {
                    prop_assert_eq!(
                        &list, &expect, "shape {} low {} from the {}", shape, low, source
                    );
                    // A merge swaps the old list into the spare; a side
                    // that wins outright leaves the spare alone.
                    prop_assert!(
                        spare == UNTOUCHED || spare == a,
                        "shape {} low {} from the {}: spare {:?}", shape, low, source, spare
                    );
                }
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
