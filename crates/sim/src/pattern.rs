//! Communication patterns.
//!
//! At the end of each superstep the machine collects every processor's
//! *ordered* send list into a [`CommPattern`] and hands it to the network
//! model for pricing. Order matters: the `r`-th word sent by each processor
//! forms communication *round* `r`, which is how a staggered schedule and a
//! naive schedule of the same h-relation end up with different costs
//! (Section 5.1 of the paper, Fig. 4).
//!
//! Because algorithms usually send long runs of words to the same
//! destination, the round structure is piecewise-constant. The
//! [`CommPattern::visit_word_segments`] view exploits this: it splits the round
//! axis into maximal *segments* during which the (src → dst) round pattern
//! does not change, so a network model can price one round and multiply —
//! which is what makes simulating a 10⁶-round bitonic exchange affordable.

use crate::message::{Message, MsgKind, ProcId};

/// Reusable scratch for the allocation-free pattern iteration APIs
/// ([`CommPattern::visit_word_segments`], [`CommPattern::visit_block_rounds`],
/// [`CommPattern::visit_xnet_rounds`]).
///
/// A network model owns one `PatternScratch` and hands it to every visit
/// call. All buffers are grown on demand and reused across supersteps, so
/// after a warm-up step the pricing path performs no heap allocation. The
/// per-destination counters are stamp-keyed: advancing the stamp
/// invalidates every entry without clearing the arrays.
#[derive(Debug, Default)]
pub struct PatternScratch {
    /// Sorted, deduped cumulative record boundaries on the round axis.
    boundaries: Vec<usize>,
    /// Flattened per-proc word spans, grouped by source processor.
    spans: Vec<Span>,
    /// `spans` range of proc `i` is `span_off[i]..span_off[i + 1]`.
    span_off: Vec<u32>,
    /// Per-proc monotone cursor into `spans` (absolute indices).
    cursors: Vec<u32>,
    /// Active `(src, dst)` pairs of the segment under construction.
    seg_sends: Vec<(ProcId, ProcId)>,
    /// Active `(src, dst, bytes)` triples of the round under construction.
    round_sends: Vec<(ProcId, ProcId, usize)>,
    /// Flattened per-proc `(dst, bytes)` records of one block kind.
    blocks: Vec<(ProcId, usize)>,
    /// `blocks` range of proc `i` is `block_off[i]..block_off[i + 1]`.
    block_off: Vec<u32>,
    /// Stamp-keyed per-destination in-degree counters.
    deg: Vec<u32>,
    /// Stamp-keyed per-destination byte counters.
    recv_bytes: Vec<usize>,
    /// Stamp an entry of `deg`/`recv_bytes` was last reset at.
    stamp_of: Vec<u32>,
    /// Current stamp; entries with an older stamp read as zero.
    stamp: u32,
}

/// One contiguous run of word rounds from a single source record.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: usize,
    end: usize,
    src: ProcId,
    dst: ProcId,
    per_msg: usize,
}

impl PatternScratch {
    /// A fresh scratch; buffers grow to fit the first pattern visited.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the per-destination arrays to cover `p` processors.
    fn ensure_p(&mut self, p: usize) {
        if self.deg.len() < p {
            self.deg.resize(p, 0);
            self.recv_bytes.resize(p, 0);
            self.stamp_of.resize(p, 0);
        }
        if self.cursors.len() < p {
            self.cursors.resize(p, 0);
        }
    }

    /// Advances to a fresh stamp, invalidating every counter entry.
    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            // Wrap: physically clear so stale stamps cannot alias.
            self.stamp_of.fill(0);
            self.deg.fill(0);
            self.recv_bytes.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        self.stamp
    }

    /// Counts one message into `dst`, returning its new in-degree.
    #[inline]
    fn touch(&mut self, dst: ProcId, bytes: usize) -> (u32, usize) {
        if self.stamp_of[dst] != self.stamp {
            self.stamp_of[dst] = self.stamp;
            self.deg[dst] = 0;
            self.recv_bytes[dst] = 0;
        }
        self.deg[dst] += 1;
        self.recv_bytes[dst] += bytes;
        (self.deg[dst], self.recv_bytes[dst])
    }
}

/// Borrowed view of one word segment — a maximal run of rounds during
/// which every processor keeps sending to the same destination — as
/// produced by [`CommPattern::visit_word_segments`]. The send list lives in
/// the caller's [`PatternScratch`] and the in-degree is precomputed
/// incrementally (no sort, no allocation).
#[derive(Debug)]
pub struct SegmentView<'a> {
    /// Number of identical rounds in this segment.
    pub rounds: usize,
    /// The active (src, dst) pairs of each round, sorted by src.
    pub sends: &'a [(ProcId, ProcId)],
    /// The largest per-message payload in the segment, in bytes (equals
    /// the machine word size for ordinary word traffic; larger for the
    /// fixed-size packets of the Section 8 granularity study).
    pub msg_bytes: usize,
    max_in_degree: usize,
}

impl SegmentView<'_> {
    /// Maximum number of senders targeting a single destination in one
    /// round of this segment (1 for a permutation round).
    pub fn max_in_degree(&self) -> usize {
        self.max_in_degree
    }

    /// `true` when each round of the segment is a (partial) permutation:
    /// no destination receives more than one word per round.
    pub fn is_permutation(&self) -> bool {
        self.max_in_degree <= 1
    }
}

/// Borrowed view of one block (or xnet) round — the `r`-th block of each
/// processor — as produced by [`CommPattern::visit_block_rounds`], with the
/// aggregate statistics precomputed incrementally.
#[derive(Debug)]
pub struct BlockRoundView<'a> {
    /// `(src, dst, bytes)` triples active in this round, sorted by src.
    pub sends: &'a [(ProcId, ProcId, usize)],
    max_bytes: usize,
    max_recv_bytes: usize,
    max_in_degree: usize,
}

impl BlockRoundView<'_> {
    /// Largest block in the round, in bytes.
    pub fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Total bytes received by the most loaded destination.
    pub fn max_recv_bytes(&self) -> usize {
        self.max_recv_bytes
    }

    /// Maximum number of blocks converging on one destination.
    pub fn max_in_degree(&self) -> usize {
        self.max_in_degree
    }
}

/// The complete communication pattern of one superstep.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommPattern {
    /// Number of processors.
    pub p: usize,
    /// Per-source ordered sends. Pricing reads each message's `dst`,
    /// `kind`, `logical_words` and `logical_bytes`; `sends[src]` holds
    /// only messages sent by `src`.
    pub sends: Vec<Vec<Message>>,
}

impl CommPattern {
    /// Total number of logical messages `M` being routed (each word counts
    /// once, each block counts once) — the `M` of an `(M, h1, h2)`-relation.
    pub fn total_messages(&self) -> usize {
        let (words, blocks, xnets) = self.kind_counts();
        words + blocks + xnets
    }

    /// Total bytes on the wire.
    pub fn total_bytes(&self) -> usize {
        self.sends
            .iter()
            .flatten()
            .map(|r| r.logical_bytes as usize)
            .sum()
    }

    /// Logical message counts by kind: `(words, blocks, xnets)`. Each word
    /// counts once; each block or xnet transfer counts once.
    pub fn kind_counts(&self) -> (usize, usize, usize) {
        let (mut words, mut blocks, mut xnets) = (0usize, 0usize, 0usize);
        for r in self.sends.iter().flatten() {
            match r.kind {
                MsgKind::Words => words += r.logical_words as usize,
                MsgKind::Block => blocks += 1,
                MsgKind::Xnet => xnets += 1,
            }
        }
        (words, blocks, xnets)
    }

    /// `h_s`: the maximum number of words sent by any processor (blocks
    /// excluded).
    pub fn h_send(&self) -> usize {
        self.sends
            .iter()
            .map(|recs| {
                recs.iter()
                    .filter(|r| r.kind == MsgKind::Words)
                    .map(|r| r.logical_words as usize)
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }

    /// `h_r`: the maximum number of words received by any processor
    /// (blocks excluded).
    pub fn h_recv(&self) -> usize {
        let mut recv = vec![0usize; self.p];
        for r in self.sends.iter().flatten() {
            if r.kind == MsgKind::Words {
                recv[r.dst] += r.logical_words as usize;
            }
        }
        recv.into_iter().max().unwrap_or(0)
    }

    /// Bytes received per processor, including blocks.
    pub fn bytes_received(&self) -> Vec<usize> {
        let mut recv = vec![0usize; self.p];
        for r in self.sends.iter().flatten() {
            recv[r.dst] += r.logical_bytes as usize;
        }
        recv
    }

    /// Splits the word rounds into maximal constant-pattern segments and
    /// visits them in round order, without allocating: the segment send
    /// lists live in `scratch` and are only valid for the duration of each
    /// callback. Block records are ignored here (see
    /// [`CommPattern::visit_block_rounds`]).
    pub fn visit_word_segments<F>(&self, scratch: &mut PatternScratch, mut f: F)
    where
        F: FnMut(SegmentView<'_>),
    {
        scratch.ensure_p(self.p);
        scratch.spans.clear();
        scratch.span_off.clear();
        scratch.boundaries.clear();
        scratch.boundaries.push(0);
        // Uniform fast path: when every sending proc contributes exactly
        // one span and all spans end on the same round, the pattern is a
        // single segment — the shape of every pairwise exchange — and the
        // boundary sort can be skipped entirely.
        let mut uniform = true;
        let mut common_end = 0usize;
        for (src, recs) in self.sends.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)] // span count fits u32
            scratch.span_off.push(scratch.spans.len() as u32);
            let first = scratch.spans.len();
            let mut pos = 0usize;
            for r in recs {
                let words = r.logical_words as usize;
                if r.kind != MsgKind::Words || words == 0 {
                    continue;
                }
                let per_msg = (r.logical_bytes as usize).div_ceil(words);
                scratch.spans.push(Span {
                    start: pos,
                    end: pos + words,
                    src,
                    dst: r.dst,
                    per_msg,
                });
                pos += words;
                scratch.boundaries.push(pos);
            }
            match scratch.spans.len() - first {
                0 => {}
                1 if common_end == 0 || common_end == pos => common_end = pos,
                _ => uniform = false,
            }
        }
        #[allow(clippy::cast_possible_truncation)] // span count fits u32
        scratch.span_off.push(scratch.spans.len() as u32);
        if scratch.spans.is_empty() {
            return;
        }

        if uniform {
            // One segment spanning rounds 0..common_end; spans are already
            // grouped by src, one per sending proc.
            scratch.seg_sends.clear();
            let mut msg_bytes = 0usize;
            scratch.next_stamp();
            let mut max_deg = 0u32;
            for i in 0..scratch.spans.len() {
                let Span {
                    src, dst, per_msg, ..
                } = scratch.spans[i];
                scratch.seg_sends.push((src, dst));
                msg_bytes = msg_bytes.max(per_msg);
                max_deg = max_deg.max(scratch.touch(dst, 0).0);
            }
            f(SegmentView {
                rounds: common_end,
                sends: &scratch.seg_sends,
                msg_bytes,
                max_in_degree: max_deg as usize,
            });
            return;
        }

        scratch.boundaries.sort_unstable();
        scratch.boundaries.dedup();
        for src in 0..self.sends.len() {
            scratch.cursors[src] = scratch.span_off[src];
        }
        for w in 1..scratch.boundaries.len() {
            let (start, end) = (scratch.boundaries[w - 1], scratch.boundaries[w]);
            scratch.seg_sends.clear();
            let mut msg_bytes = 0usize;
            scratch.next_stamp();
            let mut max_deg = 0u32;
            for src in 0..self.sends.len() {
                let hi = scratch.span_off[src + 1];
                let mut cur = scratch.cursors[src];
                while cur < hi && scratch.spans[cur as usize].end <= start {
                    cur += 1;
                }
                scratch.cursors[src] = cur;
                if cur < hi {
                    let span = scratch.spans[cur as usize];
                    if span.start <= start && start < span.end {
                        scratch.seg_sends.push((src, span.dst));
                        msg_bytes = msg_bytes.max(span.per_msg);
                        max_deg = max_deg.max(scratch.touch(span.dst, 0).0);
                    }
                }
            }
            if !scratch.seg_sends.is_empty() {
                f(SegmentView {
                    rounds: end - start,
                    sends: &scratch.seg_sends,
                    msg_bytes,
                    max_in_degree: max_deg as usize,
                });
            }
        }
    }

    /// Groups block records into rounds — the `r`-th block of each
    /// processor forms round `r` (MP-BPRAM single-port semantics) — and
    /// visits them without allocating; round send lists live in `scratch`
    /// and are valid for the duration of each callback.
    pub fn visit_block_rounds<F>(&self, scratch: &mut PatternScratch, f: F)
    where
        F: FnMut(BlockRoundView<'_>),
    {
        self.visit_rounds_of(MsgKind::Block, scratch, f);
    }

    /// Visits the rounds of explicit xnet (neighbour-grid) transfers
    /// without allocating.
    pub fn visit_xnet_rounds<F>(&self, scratch: &mut PatternScratch, f: F)
    where
        F: FnMut(BlockRoundView<'_>),
    {
        self.visit_rounds_of(MsgKind::Xnet, scratch, f);
    }

    fn visit_rounds_of<F>(&self, kind: MsgKind, scratch: &mut PatternScratch, mut f: F)
    where
        F: FnMut(BlockRoundView<'_>),
    {
        scratch.ensure_p(self.p);
        scratch.blocks.clear();
        scratch.block_off.clear();
        let mut max_blocks = 0usize;
        for recs in &self.sends {
            #[allow(clippy::cast_possible_truncation)] // record count fits u32
            scratch.block_off.push(scratch.blocks.len() as u32);
            let first = scratch.blocks.len();
            for r in recs {
                if r.kind == kind {
                    scratch.blocks.push((r.dst, r.logical_bytes as usize));
                }
            }
            max_blocks = max_blocks.max(scratch.blocks.len() - first);
        }
        #[allow(clippy::cast_possible_truncation)] // record count fits u32
        scratch.block_off.push(scratch.blocks.len() as u32);

        for r in 0..max_blocks {
            scratch.round_sends.clear();
            scratch.next_stamp();
            let mut max_bytes = 0usize;
            let mut max_recv = 0usize;
            let mut max_deg = 0u32;
            for src in 0..self.sends.len() {
                let off = scratch.block_off[src] as usize + r;
                if off < scratch.block_off[src + 1] as usize {
                    let (dst, bytes) = scratch.blocks[off];
                    scratch.round_sends.push((src, dst, bytes));
                    max_bytes = max_bytes.max(bytes);
                    let (deg, recv) = scratch.touch(dst, bytes);
                    max_deg = max_deg.max(deg);
                    max_recv = max_recv.max(recv);
                }
            }
            f(BlockRoundView {
                sends: &scratch.round_sends,
                max_bytes,
                max_recv_bytes: max_recv,
                max_in_degree: max_deg as usize,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record of `kind` sized in words and bytes. Its `src` is set by
    /// [`pattern`], from the send list it lands in.
    fn rec(dst: ProcId, kind: MsgKind, words: usize, bytes: usize) -> Message {
        Message::header(0, dst, kind, words, bytes)
    }

    fn words(dst: ProcId, words: usize) -> Message {
        rec(dst, MsgKind::Words, words, words * 4)
    }

    fn block(dst: ProcId, bytes: usize) -> Message {
        rec(dst, MsgKind::Block, bytes / 4, bytes)
    }

    /// A pattern over `p` processors whose `sends[src]` are `sends[src]`
    /// sent by `src`.
    fn pattern(p: usize, mut sends: Vec<Vec<Message>>) -> CommPattern {
        for (src, recs) in sends.iter_mut().enumerate() {
            for r in recs {
                r.src = src;
            }
        }
        CommPattern { p, sends }
    }

    /// Words sent per processor (blocks excluded).
    fn words_sent(pattern: &CommPattern) -> Vec<usize> {
        pattern
            .sends
            .iter()
            .map(|recs| {
                recs.iter()
                    .filter(|r| r.kind == MsgKind::Words)
                    .map(|r| r.logical_words as usize)
                    .sum()
            })
            .collect()
    }

    /// Owned copy of one visited word segment.
    #[derive(Debug)]
    struct Seg {
        rounds: usize,
        sends: Vec<(ProcId, ProcId)>,
        max_in_degree: usize,
        is_permutation: bool,
    }

    /// Owned copy of one visited block or xnet round.
    #[derive(Debug)]
    struct Round {
        sends: Vec<(ProcId, ProcId, usize)>,
        max_bytes: usize,
        max_recv_bytes: usize,
        max_in_degree: usize,
    }

    fn segments(pattern: &CommPattern, scratch: &mut PatternScratch) -> Vec<Seg> {
        let mut out = Vec::new();
        pattern.visit_word_segments(scratch, |seg| {
            out.push(Seg {
                rounds: seg.rounds,
                sends: seg.sends.to_vec(),
                max_in_degree: seg.max_in_degree(),
                is_permutation: seg.is_permutation(),
            });
        });
        out
    }

    fn rounds(pattern: &CommPattern, kind: MsgKind, scratch: &mut PatternScratch) -> Vec<Round> {
        let mut out = Vec::new();
        let push = |round: BlockRoundView<'_>| {
            out.push(Round {
                sends: round.sends.to_vec(),
                max_bytes: round.max_bytes(),
                max_recv_bytes: round.max_recv_bytes(),
                max_in_degree: round.max_in_degree(),
            });
        };
        match kind {
            MsgKind::Block => pattern.visit_block_rounds(scratch, push),
            MsgKind::Xnet => pattern.visit_xnet_rounds(scratch, push),
            MsgKind::Words => unreachable!("word traffic forms segments"),
        }
        out
    }

    fn segments_of(pattern: &CommPattern) -> Vec<Seg> {
        segments(pattern, &mut PatternScratch::new())
    }

    fn blocks_per_round(pattern: &CommPattern) -> Vec<Round> {
        rounds(pattern, MsgKind::Block, &mut PatternScratch::new())
    }

    #[test]
    fn h_relation_statistics() {
        // 0 -> 1 (3 words), 1 -> 0 (1 word), 2 -> 1 (2 words)
        let p = pattern(
            3,
            vec![vec![words(1, 3)], vec![words(0, 1)], vec![words(1, 2)]],
        );
        assert_eq!(p.h_send(), 3);
        assert_eq!(p.h_recv(), 5, "proc 1 receives 3 + 2 words");
        assert_eq!(p.total_messages(), 6);
        assert_eq!(p.total_bytes(), 24);
    }

    #[test]
    fn empty_pattern() {
        let p = pattern(4, vec![vec![]; 4]);
        assert_eq!(p.h_send(), 0);
        assert_eq!(p.h_recv(), 0);
        assert!(segments_of(&p).is_empty());
        assert!(blocks_per_round(&p).is_empty());
    }

    #[test]
    fn single_segment_for_uniform_exchange() {
        // Pairwise exchange of 100 words — the bitonic pattern.
        let p = pattern(
            4,
            vec![
                vec![words(1, 100)],
                vec![words(0, 100)],
                vec![words(3, 100)],
                vec![words(2, 100)],
            ],
        );
        let segs = segments_of(&p);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].rounds, 100);
        assert!(segs[0].is_permutation);
        assert_eq!(segs[0].sends.len(), 4);
    }

    #[test]
    fn staggered_schedule_produces_permutation_segments() {
        // Two procs send to two destinations in opposite (staggered) order.
        let p = pattern(
            4,
            vec![
                vec![words(2, 10), words(3, 10)],
                vec![words(3, 10), words(2, 10)],
                vec![],
                vec![],
            ],
        );
        let segs = segments_of(&p);
        assert_eq!(segs.len(), 2);
        for s in &segs {
            assert_eq!(s.rounds, 10);
            assert!(s.is_permutation, "staggering avoids conflicts");
        }
    }

    #[test]
    fn naive_schedule_produces_contended_segments() {
        // Both procs hit destination 2 first: in-degree 2 in segment 1.
        let p = pattern(
            4,
            vec![
                vec![words(2, 10), words(3, 10)],
                vec![words(2, 10), words(3, 10)],
                vec![],
                vec![],
            ],
        );
        let segs = segments_of(&p);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].max_in_degree, 2);
        assert!(!segs[0].is_permutation);
    }

    #[test]
    fn unequal_word_counts_split_segments() {
        let p = pattern(3, vec![vec![words(1, 5)], vec![words(2, 2)], vec![]]);
        let segs = segments_of(&p);
        // Rounds 0..2 have both senders; rounds 2..5 only proc 0.
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].rounds, 2);
        assert_eq!(segs[0].sends.len(), 2);
        assert_eq!(segs[1].rounds, 3);
        assert_eq!(segs[1].sends, vec![(0, 1)]);
    }

    #[test]
    fn block_rounds_group_by_rank() {
        let p = pattern(
            3,
            vec![
                vec![block(1, 400), block(2, 100)],
                vec![block(2, 400)],
                vec![],
            ],
        );
        let rounds = blocks_per_round(&p);
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].sends.len(), 2);
        assert_eq!(rounds[0].max_bytes, 400);
        assert_eq!(rounds[0].max_in_degree, 1);
        assert_eq!(rounds[1].sends, vec![(0, 2, 100)]);
        // Round 0: proc1 and proc0 both send 400B? proc0->1: 400, proc1->2: 400.
        assert_eq!(rounds[0].max_recv_bytes, 400);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The segment view partitions the round axis exactly: the sum of
        /// segment lengths equals the longest word stream, and each
        /// processor appears in precisely the rounds its records span.
        #[test]
        fn segments_partition_the_round_axis(
            word_counts in proptest::collection::vec(
                proptest::collection::vec(0usize..20, 0..4), 1..8)
        ) {
            let p = word_counts.len();
            let sends: Vec<Vec<Message>> = word_counts
                .iter()
                .enumerate()
                .map(|(src, recs)| {
                    recs.iter()
                        .enumerate()
                        .map(|(i, &wcount)| words((src + i + 1) % p, wcount))
                        .collect()
                })
                .collect();
            let pattern = pattern(p, sends);
            let segs = segments_of(&pattern);
            let max_words = words_sent(&pattern).into_iter().max().unwrap_or(0);
            let total_rounds: usize = segs.iter().map(|s| s.rounds).sum();
            proptest::prop_assert_eq!(total_rounds, max_words);
            // Per-processor coverage: the rounds a processor participates
            // in must equal its total word count.
            for src in 0..p {
                let mine = words_sent(&pattern)[src];
                let mut covered = 0usize;
                for seg in &segs {
                    if seg.sends.iter().any(|&(s, _)| s == src) {
                        covered += seg.rounds;
                    }
                }
                proptest::prop_assert_eq!(covered, mine, "proc {}", src);
            }
            // Segment sends are sorted by src and unique.
            for seg in &segs {
                proptest::prop_assert!(seg.sends.windows(2).all(|w| w[0].0 < w[1].0));
                proptest::prop_assert!(seg.rounds > 0);
            }
        }

        /// The stamp-keyed statistics the machines price with agree with a
        /// brute-force multiset reference on random mixed patterns: segment
        /// in-degree against a per-destination hash count, round
        /// `max_bytes` / `max_recv_bytes` / `max_in_degree` against
        /// per-destination hash sums. One scratch serves every visit, so a
        /// stale counter surviving a stamp change would show.
        #[test]
        fn degree_fast_paths_match_brute_force(
            recs in proptest::collection::vec(
                // Each record is one integer: dst in 0..6, words in 1..12,
                // kind word/block/xnet (the shim has no tuple strategies).
                proptest::collection::vec(0usize..198, 0..5), 1..7)
        ) {
            let p = 6usize;
            let kinds = [MsgKind::Words, MsgKind::Block, MsgKind::Xnet];
            let sends: Vec<Vec<Message>> = recs
                .iter()
                .map(|rs| {
                    rs.iter()
                        .map(|&v| {
                            let w = v / 6 % 11 + 1;
                            rec(v % 6, kinds[v / 66], w, w * 4)
                        })
                        .collect()
                })
                .collect();
            let pattern = pattern(p, sends);
            let mut scratch = PatternScratch::new();

            for seg in segments(&pattern, &mut scratch) {
                let mut counts = std::collections::HashMap::new();
                for &(_, dst) in &seg.sends {
                    *counts.entry(dst).or_insert(0usize) += 1;
                }
                let expect = counts.values().copied().max().unwrap_or(0);
                proptest::prop_assert_eq!(seg.max_in_degree, expect);
                proptest::prop_assert_eq!(seg.is_permutation, expect <= 1);
            }

            for kind in [MsgKind::Block, MsgKind::Xnet] {
                for round in rounds(&pattern, kind, &mut scratch) {
                    let mut loads = std::collections::HashMap::new();
                    let mut counts = std::collections::HashMap::new();
                    for &(_, dst, b) in &round.sends {
                        *loads.entry(dst).or_insert(0usize) += b;
                        *counts.entry(dst).or_insert(0usize) += 1;
                    }
                    let max_bytes = round.sends.iter().map(|&(_, _, b)| b).max().unwrap_or(0);
                    let max_load = loads.values().copied().max().unwrap_or(0);
                    let max_count = counts.values().copied().max().unwrap_or(0);
                    proptest::prop_assert_eq!(round.max_bytes, max_bytes);
                    proptest::prop_assert_eq!(round.max_recv_bytes, max_load);
                    proptest::prop_assert_eq!(round.max_in_degree, max_count);
                }
            }
        }

        /// Block rounds respect per-processor order and cover every block.
        #[test]
        fn block_rounds_cover_all_blocks(
            blocks in proptest::collection::vec(
                proptest::collection::vec(1usize..200, 0..5), 1..8)
        ) {
            let p = blocks.len();
            let sends: Vec<Vec<Message>> = blocks
                .iter()
                .enumerate()
                .map(|(src, bs)| {
                    bs.iter()
                        .map(|&bytes| rec((src + 1) % p, MsgKind::Block, bytes.div_ceil(4), bytes))
                        .collect()
                })
                .collect();
            let pattern = pattern(p, sends);
            let rounds = blocks_per_round(&pattern);
            let total: usize = rounds.iter().map(|r| r.sends.len()).sum();
            let expect: usize = blocks.iter().map(|b| b.len()).sum();
            proptest::prop_assert_eq!(total, expect);
            let max_per_proc = blocks.iter().map(|b| b.len()).max().unwrap_or(0);
            proptest::prop_assert_eq!(rounds.len(), max_per_proc);
            // Single-port on the send side: each processor appears at most
            // once per round.
            for round in &rounds {
                let mut srcs: Vec<usize> = round.sends.iter().map(|&(s, _, _)| s).collect();
                srcs.dedup();
                proptest::prop_assert_eq!(srcs.len(), round.sends.len());
            }
        }
    }

    #[test]
    fn mixed_words_and_blocks_are_separated() {
        let p = pattern(2, vec![vec![words(1, 3), block(1, 40)], vec![]]);
        assert_eq!(segments_of(&p).len(), 1);
        assert_eq!(blocks_per_round(&p).len(), 1);
        assert_eq!(p.total_messages(), 4, "3 words + 1 block");
        assert_eq!(p.bytes_received()[1], 3 * 4 + 40);
    }
}
