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

use pcm_core::units::{log2_exact, sqrt_exact, tag_u32};
use pcm_machines::Platform;
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

/// A piece of the active column or row: its index among the `sqrt(P)`
/// chunks of the segment (`None` while the processor holds none) and its
/// values, in a buffer reused from one iteration to the next.
#[derive(Clone, Debug, Default)]
struct Piece {
    idx: Option<usize>,
    vals: Vec<f64>,
}

impl Piece {
    fn set(&mut self, idx: usize, vals: impl IntoIterator<Item = f64>) {
        self.idx = Some(idx);
        self.vals.clear();
        self.vals.extend(vals);
    }
}

#[derive(Clone, Debug, Default)]
struct ApspState {
    /// My `M x M` block, row-major.
    d: Vec<f64>,
    /// Assembled active column segment (length M).
    x: Vec<f64>,
    /// Assembled active row segment (length M).
    y: Vec<f64>,
    /// The piece currently travelling the row ring.
    x_piece: Piece,
    /// The piece currently travelling the column ring.
    y_piece: Piece,
    /// Scratch for the segment a scatter owner splits into pieces.
    seg: Vec<f64>,
}

impl ApspState {
    /// The assembled segment and the travelling piece on `axis`.
    fn axis_mut(&mut self, axis: u32) -> (&mut Vec<f64>, &mut Piece) {
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
/// from its buffer; the piece stays mine.
fn forward(
    ctx: &mut pcm_sim::Ctx<'_, ApspState>,
    variant: ApspVariant,
    axis: u32,
    dsts: impl IntoIterator<Item = usize>,
) {
    let piece = std::mem::take(ctx.state.axis_mut(axis).1);
    if let Some(idx) = piece.idx {
        for dst in dsts {
            send(ctx, variant, dst, 2 * tag_u32(idx) + axis, &piece.vals);
        }
    }
    *ctx.state.axis_mut(axis).1 = piece;
}

/// Runs blocked Floyd on a deterministic random digraph and verifies the
/// full result against the sequential reference.
///
/// # Panics
/// Panics unless the platform's processor count is a perfect square and
/// `n` is a multiple of `sqrt(P)`. On machines without memory pipelining
/// (the MasPar) it also panics when `M = N/sqrt(P)` is below `sqrt(P)`
/// and `sqrt(P)/M` is not a power of two: the doubling phase replicates
/// each piece by powers of two.
pub fn run(platform: &Platform, n: usize, variant: ApspVariant, seed: u64) -> RunResult {
    let p = platform.p();
    let side = sqrt_exact(p).expect("APSP needs a square processor grid");
    assert!(
        n.is_multiple_of(side),
        "graph size {n} must be a multiple of sqrt(P) = {side}"
    );
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

    let mut rng = pcm_core::rng::seeded(seed);
    let d0 = pcm_core::rng::random_digraph(n, 0.25, 100.0, &mut rng);

    let states: Vec<ApspState> = (0..p)
        .map(|pid| {
            let (r, c) = grid.coords(embed.to_logical(pid));
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
            let (r, c) = grid.coords(embed.to_logical(pid));
            ctx.state.x_piece.idx = None;
            ctx.state.y_piece.idx = None;
            // `send` borrows `ctx`, so the segment is split from a buffer
            // moved out of the state.
            let mut seg = std::mem::take(&mut ctx.state.seg);
            if c == owner {
                seg.clear();
                seg.extend((0..m).map(|i| ctx.state.d[i * m + local_k]));
                for t in staggered(r, side) {
                    let piece = &seg[chunk(m, side, t)];
                    if piece.is_empty() {
                        continue;
                    }
                    let dst = embed.to_machine(grid.id(r, t));
                    if dst == pid {
                        ctx.state.x_piece.set(t, piece.iter().copied());
                    } else {
                        send(ctx, variant, dst, 2 * tag_u32(t) + TAG_COL, piece);
                    }
                }
            }
            if r == owner {
                seg.clear();
                seg.extend_from_slice(&ctx.state.d[local_k * m..(local_k + 1) * m]);
                for t in staggered(c, side) {
                    let piece = &seg[chunk(m, side, t)];
                    if piece.is_empty() {
                        continue;
                    }
                    let dst = embed.to_machine(grid.id(t, c));
                    if dst == pid {
                        ctx.state.y_piece.set(t, piece.iter().copied());
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
            absorb_pieces(ctx, m, side);
            // Own pieces (set during the scatter) also enter the assembly.
            for axis in [TAG_COL, TAG_ROW] {
                let (seg, piece) = ctx.state.axis_mut(axis);
                if let Some(idx) = piece.idx {
                    seg[chunk(m, side, idx)].copy_from_slice(&piece.vals);
                }
            }
        });

        if pipelining {
            // All-gather in one superstep: everyone re-broadcasts its piece
            // along the row / column, then relaxes.
            machine.superstep(|ctx| {
                let pid = ctx.pid();
                let (r, c) = grid.coords(embed.to_logical(pid));
                let others = |dst: &usize| *dst != pid;
                let row = staggered(c, side).map(|t| embed.to_machine(grid.id(r, t)));
                forward(ctx, variant, TAG_COL, row.filter(others));
                let col = staggered(r, side).map(|t| embed.to_machine(grid.id(t, c)));
                forward(ctx, variant, TAG_ROW, col.filter(others));
            });
            machine.superstep(|ctx| {
                absorb_pieces(ctx, m, side);
                relax(ctx, m);
            });
        } else {
            // MasPar path: doubling (if M < sqrt(P)) then ring rotations.
            let repl = side / pieces; // power of two, checked up front
            for j in 0..log2_exact(repl) {
                let span = pieces << j;
                machine.superstep(move |ctx| {
                    absorb_pieces(ctx, m, side);
                    let pid = ctx.pid();
                    let (r, c) = grid.coords(embed.to_logical(pid));
                    if c < span {
                        let dst = embed.to_machine(grid.id(r, c + span));
                        forward(ctx, variant, TAG_COL, [dst]);
                    }
                    if r < span {
                        let dst = embed.to_machine(grid.id(r + span, c));
                        forward(ctx, variant, TAG_ROW, [dst]);
                    }
                });
            }
            // Ring rotations over the subgroup of `pieces` consecutive
            // holders: pass the current piece one step around, absorbing
            // whatever arrived.
            for _rot in 0..pieces.saturating_sub(1) {
                machine.superstep(move |ctx| {
                    absorb_pieces(ctx, m, side);
                    let pid = ctx.pid();
                    let (r, c) = grid.coords(embed.to_logical(pid));
                    let bs_c = (c / pieces) * pieces;
                    let next_c = bs_c + (c - bs_c + 1) % pieces;
                    let dst = embed.to_machine(grid.id(r, next_c));
                    forward(ctx, variant, TAG_COL, [dst]);
                    let bs_r = (r / pieces) * pieces;
                    let next_r = bs_r + (r - bs_r + 1) % pieces;
                    let dst = embed.to_machine(grid.id(next_r, c));
                    forward(ctx, variant, TAG_ROW, [dst]);
                });
            }
            machine.superstep(|ctx| {
                absorb_pieces(ctx, m, side);
                relax(ctx, m);
            });
        }
    }

    let time = machine.time();
    // Reconstruct the distance matrix and verify.
    let mut result = vec![0.0f64; n * n];
    for (pid, st) in machine.states().iter().enumerate() {
        let (r, c) = grid.coords(embed.to_logical(pid));
        for i in 0..m {
            let gr = r * m + i;
            result[gr * n + c * m..gr * n + c * m + m].copy_from_slice(&st.d[i * m..(i + 1) * m]);
        }
    }
    let expect = floyd_reference(&d0, n);
    let verified = check_distances(&expect, &result);
    RunResult::new(time, machine.breakdown(), verified)
}

/// Absorbs scatter/ring/doubling deliveries: updates the travelling piece
/// and accumulates it into the assembled `x`/`y`. Tags encode
/// `2·piece_index + axis` with axis 0 = column (X), 1 = row (Y).
fn absorb_pieces(ctx: &mut pcm_sim::Ctx<'_, ApspState>, m: usize, side: usize) {
    // The inbox borrows `ctx`: decode into the state moved out of it.
    let mut st = std::mem::take(&mut *ctx.state);
    let msgs = ctx.msgs();
    if !msgs.is_empty() {
        ctx.touch_modify(regions::APSP_X);
        ctx.touch_modify(regions::APSP_Y);
    }
    for msg in msgs {
        let idx = (msg.tag / 2) as usize;
        let (seg, piece) = st.axis_mut(msg.tag % 2);
        piece.set(idx, msg.f64s());
        seg[chunk(m, side, idx)].copy_from_slice(&piece.vals);
    }
    *ctx.state = st;
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
    #[should_panic(expected = "multiple of sqrt(P)")]
    fn rejects_misaligned_graphs() {
        run(&Platform::cm5(), 30, ApspVariant::Words, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn maspar_rejects_m_that_cannot_double() {
        // 16 PEs -> side 4; n = 12 -> M = 3, and 4/3 is no power of two.
        run(&Platform::maspar_with(16), 12, ApspVariant::Words, 0);
    }

    #[test]
    fn deterministic() {
        let a = run(&Platform::gcel_with(16), 16, ApspVariant::Words, 9);
        let b = run(&Platform::gcel_with(16), 16, ApspVariant::Words, 9);
        assert_eq!(a.time, b.time);
    }
}
