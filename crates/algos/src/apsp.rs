//! All-pairs shortest path: blocked parallel Floyd (paper Section 4.4).
//!
//! The `N x N` distance matrix is split into `P` blocks of `M x M`
//! (`M = N/sqrt(P)`) on a `sqrt(P) x sqrt(P)` processor grid. Iteration `k`
//! broadcasts the active column `D[*,k]` along the rows and the active row
//! `D[k,*]` along the columns, then every processor relaxes its block:
//! `D[i,j] = min(D[i,j], X[i] + Y[j])`.
//!
//! Two broadcast realizations, following the paper:
//!
//! * **pipelined machines** (GCel, CM-5): a two-superstep scatter +
//!   all-gather, costing `2·(g·M + L)` per broadcast. The scatter
//!   superstep has only `sqrt(P)` senders — the unbalanced pattern behind
//!   the `g_mscat` refinement of Fig. 13;
//! * **MP-BSP machines** (MasPar): the scatter runs as staggered
//!   1-relations; when `M < sqrt(P)` a doubling phase replicates each
//!   element to `sqrt(P)/M` processors (`log(sqrt(P)/M)` supersteps — the
//!   `sum_i T_unb(2^i N)` term of the E-BSP analysis), and the gather is a
//!   ring rotation over the piece holders (`M` communication steps — the
//!   `M·T_unb(P)` term of Fig. 12).

use std::ops::Range;

use pcm_core::units::{log2_exact, tag_u32};
use pcm_machines::Platform;
use pcm_models::DomainSpec;
use pcm_sim::topology::Grid;

use crate::primitives::embed::Embedding;
use crate::primitives::plan::{chunk, staggered};
use crate::regions;
use crate::run::RunResult;
use crate::verify::{check_distances, floyd_reference};

/// Word or block transfers for the broadcast traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApspVariant {
    /// Word messages (BSP / MP-BSP / E-BSP evaluation).
    Words,
    /// Block transfers (MP-BPRAM).
    Blocks,
}

#[derive(Clone, Debug, Default)]
struct ApspState {
    /// My `M x M` block, row-major.
    d: Vec<f64>,
    /// Assembled active column segment (length M).
    x: Vec<f64>,
    /// Assembled active row segment (length M).
    y: Vec<f64>,
    /// The index among the `sqrt(P)` chunks of the piece travelling the
    /// row ring, `None` while the processor holds none. Its values are
    /// `x[chunk(m, side, idx)]`: every piece of one index on one row
    /// carries the same values.
    x_piece: Option<usize>,
    /// Likewise for the column ring and `y`.
    y_piece: Option<usize>,
    /// Scratch for the segment a scatter owner splits into pieces.
    seg: Vec<f64>,
}

impl ApspState {
    /// The assembled segment and the travelling piece's index on `axis`.
    fn axis_mut(&mut self, axis: u32) -> (&mut Vec<f64>, &mut Option<usize>) {
        if axis == TAG_COL {
            (&mut self.x, &mut self.x_piece)
        } else {
            (&mut self.y, &mut self.y_piece)
        }
    }
}

/// Tag axis bits: a piece travels on tag `2·index + axis`.
const TAG_COL: u32 = 0;
const TAG_ROW: u32 = 1;

fn send(
    ctx: &mut pcm_sim::Ctx<'_, ApspState>,
    variant: ApspVariant,
    dst: usize,
    tag: u32,
    vals: &[f64],
) {
    match variant {
        ApspVariant::Blocks => ctx.send_block_f64_tagged(dst, tag, vals),
        ApspVariant::Words => ctx.send_words_f64_tagged(dst, tag, vals),
    }
}

/// Sends my piece on `axis` (if I hold one) to each of `dsts`, straight
/// from the assembled segment; the piece stays mine. `send` borrows
/// `ctx`, so the segment is lent out of the state meanwhile.
fn forward(
    ctx: &mut pcm_sim::Ctx<'_, ApspState>,
    variant: ApspVariant,
    axis: u32,
    ranges: &[Range<usize>],
    dsts: impl IntoIterator<Item = usize>,
) {
    let (seg, piece) = ctx.state.axis_mut(axis);
    let Some(idx) = *piece else {
        return;
    };
    let seg = std::mem::take(seg);
    for dst in dsts {
        send(
            ctx,
            variant,
            dst,
            2 * tag_u32(idx) + axis,
            &seg[ranges[idx].clone()],
        );
    }
    *ctx.state.axis_mut(axis).0 = seg;
}

/// Per-run lookup tables. The hot closures, above all the MasPar ring
/// rotations (most of every `k`'s supersteps), look a processor's place,
/// partners and piece ranges up here instead of redoing
/// `grid.coords(embed.to_logical(pid))` and the ring arithmetic in every
/// call.
struct Layout {
    /// Each processor's grid place `(r, c)`.
    place: Vec<(usize, usize)>,
    /// `chunk(m, side, idx)` for every piece index `idx < side`.
    ranges: Vec<Range<usize>>,
    /// MasPar path: each processor's successor on its row ring
    /// (`TAG_COL`) and on its column ring (`TAG_ROW`), over subgroups of
    /// `pieces` consecutive holders.
    ring: Vec<[usize; 2]>,
    /// MasPar path: `p` entries per doubling span `pieces << j`, in step
    /// order; each holds the column and row partner, `None` where the
    /// processor sends nothing on that axis.
    doubling: Vec<[Option<usize>; 2]>,
    /// Pipelined path: each processor's all-gather destinations in
    /// staggered order without itself, `side - 1` along its row and then
    /// `side - 1` down its column.
    gather: Vec<usize>,
}

impl Layout {
    fn new(grid: Grid, embed: &Embedding, m: usize, pipelining: bool) -> Self {
        let side = grid.side;
        let p = side * side;
        let at = |r: usize, c: usize| embed.to_machine(grid.id(r, c));
        let place: Vec<(usize, usize)> = (0..p)
            .map(|pid| grid.coords(embed.to_logical(pid)))
            .collect();
        let ranges = (0..side).map(|idx| chunk(m, side, idx)).collect();
        let (mut ring, mut doubling, mut gather) = (Vec::new(), Vec::new(), Vec::new());
        if pipelining {
            gather.reserve(p * 2 * side.saturating_sub(1));
            for &(r, c) in &place {
                gather.extend(staggered(c, side).skip(1).map(|t| at(r, t)));
                gather.extend(staggered(r, side).skip(1).map(|t| at(t, c)));
            }
        } else if m > 0 {
            let pieces = m.min(side);
            let next = |i: usize| {
                let base = (i / pieces) * pieces;
                base + (i - base + 1) % pieces
            };
            ring = place
                .iter()
                .map(|&(r, c)| [at(r, next(c)), at(next(r), c)])
                .collect();
            for j in 0..log2_exact(side / pieces) {
                let span = pieces << j;
                doubling.extend(place.iter().map(|&(r, c)| {
                    [
                        (c < span).then(|| at(r, c + span)),
                        (r < span).then(|| at(r + span, c)),
                    ]
                }));
            }
        }
        Layout {
            place,
            ranges,
            ring,
            doubling,
            gather,
        }
    }

    /// The all-gather destinations of `pid`: along its row, down its
    /// column.
    fn gather(&self, pid: usize) -> (&[usize], &[usize]) {
        let per = self.gather.len() / self.place.len();
        self.gather[pid * per..(pid + 1) * per].split_at(per / 2)
    }
}

/// Runs blocked Floyd on a deterministic random digraph and verifies the
/// full result against the sequential reference.
///
/// # Panics
/// Outside [`DomainSpec::apsp`]: unless the platform's processor count is
/// a perfect square and `n` is a multiple of `sqrt(P)`. On machines
/// without memory pipelining (the MasPar) it also panics when
/// `M = N/sqrt(P)` is below `sqrt(P)` and `sqrt(P)/M` is not a power of
/// two: the doubling phase replicates each piece by powers of two.
pub fn run(platform: &Platform, n: usize, variant: ApspVariant, seed: u64) -> RunResult {
    let p = platform.p();
    DomainSpec::apsp().require("apsp", n, p);
    let side = p.isqrt();
    let grid = Grid { side };
    let m = n / side;
    let pipelining = platform.model_params().memory_pipelining;
    // Pieces each active segment splits into on the MasPar ring.
    let pieces = m.min(side);
    assert!(
        pipelining || n == 0 || (side.is_multiple_of(pieces) && (side / pieces).is_power_of_two()),
        "the doubling phase needs sqrt(P)/M to be a power of two when M < sqrt(P); \
         choose N so that M = N/sqrt(P) is a power of two \
         (got M = {m}, sqrt(P) = {side})"
    );
    // Blocked grid layouts do not align with the MasPar's router clusters
    // (see `primitives::embed`); pipelined machines keep the natural
    // embedding, which also preserves mesh locality on the GCel.
    let embed = if pipelining {
        Embedding::identity(p)
    } else {
        Embedding::scrambled(p, seed ^ 0xA9_5D)
    };
    let embed = &embed;
    let layout = Layout::new(grid, embed, m, pipelining);
    let layout = &layout;
    let ranges = &layout.ranges[..];

    let mut rng = pcm_core::rng::seeded(seed);
    let d0 = pcm_core::rng::random_digraph(n, 0.25, 100.0, &mut rng);

    let states: Vec<ApspState> = layout
        .place
        .iter()
        .map(|&(r, c)| {
            let mut block = Vec::with_capacity(m * m);
            for i in 0..m {
                let gr = r * m + i;
                block.extend_from_slice(&d0[gr * n + c * m..gr * n + c * m + m]);
            }
            ApspState {
                d: block,
                ..Default::default()
            }
        })
        .collect();

    let mut machine = platform.machine(states, seed);

    for k in 0..n {
        let owner = k / m; // processor column (resp. row) holding k
        let local_k = k % m;

        // Superstep 1: scatter. The column owners split the active column
        // into pieces across their row; the row owners likewise down their
        // column. Only 2·sqrt(P) processors send.
        machine.superstep(|ctx| {
            let pid = ctx.pid();
            let (r, c) = layout.place[pid];
            ctx.state.x_piece = None;
            ctx.state.y_piece = None;
            // `send` borrows `ctx`, so the segment is split from a buffer
            // moved out of the state.
            let mut seg = std::mem::take(&mut ctx.state.seg);
            if c == owner {
                seg.clear();
                seg.extend((0..m).map(|i| ctx.state.d[i * m + local_k]));
                for t in staggered(r, side) {
                    let piece = &seg[ranges[t].clone()];
                    if piece.is_empty() {
                        continue;
                    }
                    let dst = embed.to_machine(grid.id(r, t));
                    if dst == pid {
                        ctx.state.x_piece = Some(t);
                    } else {
                        send(ctx, variant, dst, 2 * tag_u32(t) + TAG_COL, piece);
                    }
                }
            }
            if r == owner {
                seg.clear();
                seg.extend_from_slice(&ctx.state.d[local_k * m..(local_k + 1) * m]);
                for t in staggered(c, side) {
                    let piece = &seg[ranges[t].clone()];
                    if piece.is_empty() {
                        continue;
                    }
                    let dst = embed.to_machine(grid.id(t, c));
                    if dst == pid {
                        ctx.state.y_piece = Some(t);
                    } else {
                        send(ctx, variant, dst, 2 * tag_u32(t) + TAG_ROW, piece);
                    }
                }
            }
            ctx.state.seg = seg;
        });

        // Superstep 2: absorb the scattered pieces, reset the assembly
        // buffers.
        machine.superstep(|ctx| {
            ctx.touch_write(regions::APSP_X);
            ctx.touch_write(regions::APSP_Y);
            for axis in [TAG_COL, TAG_ROW] {
                let (seg, _) = ctx.state.axis_mut(axis);
                seg.clear();
                seg.resize(m, f64::INFINITY);
            }
            absorb_pieces(ctx, ranges);
            // An owner's own piece (kept during the scatter) enters the
            // assembly straight from its block, which the scatter read.
            // Owners receive nothing on their own axis.
            let (r, c) = layout.place[ctx.pid()];
            let st = &mut *ctx.state;
            if let Some(idx) = st.x_piece.filter(|_| c == owner) {
                for i in ranges[idx].clone() {
                    st.x[i] = st.d[i * m + local_k];
                }
            }
            if let Some(idx) = st.y_piece.filter(|_| r == owner) {
                let row = &st.d[local_k * m..(local_k + 1) * m];
                st.y[ranges[idx].clone()].copy_from_slice(&row[ranges[idx].clone()]);
            }
        });

        if pipelining {
            // All-gather in one superstep: everyone re-broadcasts its piece
            // along the row / column, then relaxes.
            machine.superstep(|ctx| {
                let (row, col) = layout.gather(ctx.pid());
                forward(ctx, variant, TAG_COL, ranges, row.iter().copied());
                forward(ctx, variant, TAG_ROW, ranges, col.iter().copied());
            });
            machine.superstep(|ctx| {
                absorb_pieces(ctx, ranges);
                relax(ctx, m);
            });
        } else {
            // MasPar path: doubling (if M < sqrt(P)) then ring rotations.
            // One step per span `pieces << j`, `log(sqrt(P)/M)` in all.
            for partners in layout.doubling.chunks_exact(p) {
                machine.superstep(|ctx| {
                    absorb_pieces(ctx, ranges);
                    let [x_dst, y_dst] = partners[ctx.pid()];
                    forward(ctx, variant, TAG_COL, ranges, x_dst);
                    forward(ctx, variant, TAG_ROW, ranges, y_dst);
                });
            }
            // Ring rotations over the subgroup of `pieces` consecutive
            // holders: pass the current piece one step around, absorbing
            // whatever arrived.
            for _rot in 0..pieces.saturating_sub(1) {
                machine.superstep(|ctx| {
                    absorb_pieces(ctx, ranges);
                    let [x_dst, y_dst] = layout.ring[ctx.pid()];
                    forward(ctx, variant, TAG_COL, ranges, [x_dst]);
                    forward(ctx, variant, TAG_ROW, ranges, [y_dst]);
                });
            }
            machine.superstep(|ctx| {
                absorb_pieces(ctx, ranges);
                relax(ctx, m);
            });
        }
    }

    let time = machine.time();
    // Reconstruct the distance matrix and verify.
    let mut result = vec![0.0f64; n * n];
    for (&(r, c), st) in layout.place.iter().zip(machine.states()) {
        for i in 0..m {
            let gr = r * m + i;
            result[gr * n + c * m..gr * n + c * m + m].copy_from_slice(&st.d[i * m..(i + 1) * m]);
        }
    }
    let expect = floyd_reference(&d0, n);
    let verified = check_distances(&expect, &result);
    RunResult::new(time, machine.breakdown(), verified)
}

/// Absorbs scatter/ring/doubling deliveries: each becomes the travelling
/// piece and is decoded into its range of the assembled `x`/`y`. Tags
/// encode `2·piece_index + axis` with axis 0 = column (X), 1 = row (Y).
fn absorb_pieces(ctx: &mut pcm_sim::Ctx<'_, ApspState>, ranges: &[Range<usize>]) {
    let msgs = ctx.msgs();
    if !msgs.is_empty() {
        ctx.touch_modify(regions::APSP_X);
        ctx.touch_modify(regions::APSP_Y);
    }
    for msg in msgs {
        let idx = (msg.tag / 2) as usize;
        let (seg, piece) = ctx.state.axis_mut(msg.tag % 2);
        *piece = Some(idx);
        let dst = &mut seg[ranges[idx].clone()];
        let vals = msg.f64s();
        assert_eq!(vals.len(), dst.len(), "piece {idx} has the wrong length");
        dst.copy_from_slice(vals);
    }
}

/// The Floyd relaxation of the local block, charged at `alpha` per entry.
fn relax(ctx: &mut pcm_sim::Ctx<'_, ApspState>, m: usize) {
    ctx.touch_read(regions::APSP_X);
    ctx.touch_read(regions::APSP_Y);
    ctx.touch_modify(regions::APSP_DIST);
    let st = &mut *ctx.state;
    for (&xi, row) in st.x.iter().zip(st.d.chunks_exact_mut(m)) {
        if !xi.is_finite() {
            continue;
        }
        for (cell, &yj) in row.iter_mut().zip(&st.y) {
            let alt = xi + yj;
            *cell = if alt < *cell { alt } else { *cell };
        }
    }
    ctx.charge_ops((m * m) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computes_shortest_paths_on_all_platforms() {
        for plat in [
            Platform::gcel_with(16),
            Platform::cm5_with(16),
            Platform::maspar_with(16),
        ] {
            let r = run(&plat, 32, ApspVariant::Words, 3);
            assert!(r.verified, "{} APSP failed", plat.name());
        }
    }

    #[test]
    fn maspar_small_m_doubling_and_ring() {
        // 16 PEs -> side 4; n = 8 -> M = 2 < 4: doubling active.
        let r = run(&Platform::maspar_with(16), 8, ApspVariant::Words, 11);
        assert!(r.verified);
        // M >= side: pure ring.
        let r = run(&Platform::maspar_with(16), 32, ApspVariant::Words, 11);
        assert!(r.verified);
    }

    #[test]
    fn maspar_full_size_m_below_side() {
        // The paper's regime: P = 1024, N = 128 -> M = 4 < 32.
        let r = run(&Platform::maspar(), 128, ApspVariant::Words, 5);
        assert!(r.verified);
    }

    #[test]
    fn block_variant_matches_too() {
        let r = run(&Platform::gcel_with(16), 32, ApspVariant::Blocks, 5);
        assert!(r.verified);
    }

    #[test]
    fn small_m_case_on_pipelined_machine() {
        // M = 32/8 = 4 < sqrt(P) = 8: pieces are sparse but correct.
        let r = run(&Platform::cm5(), 32, ApspVariant::Words, 7);
        assert!(r.verified);
    }

    #[test]
    #[should_panic(expected = "n = 30 is not a multiple of 8")]
    fn rejects_misaligned_graphs() {
        run(&Platform::cm5(), 30, ApspVariant::Words, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn maspar_rejects_m_that_cannot_double() {
        // 16 PEs -> side 4; n = 12 -> M = 3, and 4/3 is no power of two.
        run(&Platform::maspar_with(16), 12, ApspVariant::Words, 0);
    }

    /// Every table entry equals the per-closure expression it replaces,
    /// for every pid, on scrambled and identity embeddings.
    #[test]
    fn layout_tables_match_the_grid_arithmetic() {
        for p in [16usize, 64, 256, 1024] {
            let side = p.isqrt();
            let grid = Grid { side };
            for embed in [Embedding::identity(p), Embedding::scrambled(p, 0xA9_5D)] {
                let at = |r: usize, c: usize| embed.to_machine(grid.id(r, c));
                // MasPar path: M below sqrt(P) (doubling), equal, and above
                // it with uneven piece ranges.
                for m in [1, 2, side / 2, side, side + 3] {
                    let layout = Layout::new(grid, &embed, m, false);
                    for idx in 0..side {
                        assert_eq!(layout.ranges[idx], chunk(m, side, idx));
                    }
                    let pieces = m.min(side);
                    let spans: Vec<usize> = (0..log2_exact(side / pieces))
                        .map(|j| pieces << j)
                        .collect();
                    assert_eq!(layout.doubling.len(), spans.len() * p);
                    for pid in 0..p {
                        let (r, c) = grid.coords(embed.to_logical(pid));
                        assert_eq!(layout.place[pid], (r, c));
                        let bs_c = (c / pieces) * pieces;
                        let next_c = bs_c + (c - bs_c + 1) % pieces;
                        let bs_r = (r / pieces) * pieces;
                        let next_r = bs_r + (r - bs_r + 1) % pieces;
                        assert_eq!(layout.ring[pid], [at(r, next_c), at(next_r, c)]);
                        for (j, &span) in spans.iter().enumerate() {
                            let x = if c < span {
                                Some(at(r, c + span))
                            } else {
                                None
                            };
                            let y = if r < span {
                                Some(at(r + span, c))
                            } else {
                                None
                            };
                            assert_eq!(
                                layout.doubling[j * p + pid],
                                [x, y],
                                "p {p} m {m} span {span}"
                            );
                        }
                    }
                }
                // Pipelined path: all-gather destinations.
                for m in [1, 3, side, side + 3] {
                    let layout = Layout::new(grid, &embed, m, true);
                    for idx in 0..side {
                        assert_eq!(layout.ranges[idx], chunk(m, side, idx));
                    }
                    for pid in 0..p {
                        let (r, c) = grid.coords(embed.to_logical(pid));
                        assert_eq!(layout.place[pid], (r, c));
                        let row: Vec<usize> = staggered(c, side)
                            .map(|t| at(r, t))
                            .filter(|&dst| dst != pid)
                            .collect();
                        let col: Vec<usize> = staggered(r, side)
                            .map(|t| at(t, c))
                            .filter(|&dst| dst != pid)
                            .collect();
                        assert_eq!(layout.gather(pid), (&row[..], &col[..]));
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = run(&Platform::gcel_with(16), 16, ApspVariant::Words, 9);
        let b = run(&Platform::gcel_with(16), 16, ApspVariant::Words, 9);
        assert_eq!(a.time, b.time);
    }
}
