//! Blocked LU decomposition — an extension beyond the paper's three
//! problems.
//!
//! The paper motivates APSP by noting that its communication structure "is
//! similar to many other important algorithms such as LU decomposition"
//! (Section 4). This module makes that concrete: LU runs on the same
//! `sqrt(P) x sqrt(P)` grid with the same row/column broadcast skeleton —
//! iteration `k` broadcasts the pivot value, the multiplier column and the
//! pivot row, then every processor rank-1-updates its trailing block.
//!
//! The factorization is in-place Doolittle without pivoting; workloads are
//! made diagonally dominant so that is numerically safe. Every run is
//! verified against a sequential reference factorization.

use pcm_machines::Platform;
use pcm_models::DomainSpec;
use pcm_sim::topology::Grid;

use crate::primitives::plan::staggered;
use crate::regions;
use crate::run::RunResult;

/// Word or block transfers for the broadcast traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LuVariant {
    /// Word messages.
    Words,
    /// Block transfers.
    Blocks,
}

#[derive(Clone, Debug, Default)]
struct LuState {
    /// My `M x M` block of the (factorizing) matrix, row-major.
    a: Vec<f64>,
    /// Pivot value `a_kk` for the current iteration.
    pivot: f64,
    /// Multiplier column segment (length M, only rows > k meaningful).
    l_col: Vec<f64>,
    /// Pivot row segment (length M, only columns > k meaningful).
    u_row: Vec<f64>,
}

const TAG_PIVOT: u32 = 0;
const TAG_L: u32 = 1;
const TAG_U: u32 = 2;

fn send(
    ctx: &mut pcm_sim::Ctx<'_, LuState>,
    variant: LuVariant,
    dst: usize,
    tag: u32,
    vals: &[f64],
) {
    match variant {
        LuVariant::Blocks => ctx.send_block_f64_tagged(dst, tag, vals),
        LuVariant::Words => ctx.send_words_f64_tagged(dst, tag, vals),
    }
}

/// Sequential in-place Doolittle LU (no pivoting); returns the combined
/// `L\U` matrix (unit lower triangle implicit).
pub fn lu_reference(a: &[f64], n: usize) -> Vec<f64> {
    let mut m = a.to_vec();
    for k in 0..n {
        let pivot = m[k * n + k];
        assert!(
            pivot.abs() > 1e-12,
            "zero pivot at {k}: supply a diagonally dominant matrix"
        );
        for i in k + 1..n {
            let l = m[i * n + k] / pivot;
            m[i * n + k] = l;
            for j in k + 1..n {
                m[i * n + j] -= l * m[k * n + j];
            }
        }
    }
    m
}

/// A deterministic diagonally dominant test matrix.
pub fn dominant_matrix(n: usize, seed: u64) -> Vec<f64> {
    let mut a = crate::verify::random_matrix(n, seed);
    for i in 0..n {
        a[i * n + i] += n as f64;
    }
    a
}

/// Runs the blocked parallel LU and verifies the combined factor matrix
/// against the sequential reference.
///
/// # Panics
/// Outside [`DomainSpec::lu`]: unless the platform's processor count is a
/// perfect square and `n` is a multiple of `sqrt(P)`.
pub fn run(platform: &Platform, n: usize, variant: LuVariant, seed: u64) -> RunResult {
    let p = platform.p();
    DomainSpec::lu().require("lu", n, p);
    let side = p.isqrt();
    let grid = Grid { side };
    let m = n / side;

    let a0 = dominant_matrix(n, seed);
    let states: Vec<LuState> = (0..p)
        .map(|pid| {
            let (r, c) = grid.coords(pid);
            let mut block = Vec::with_capacity(m * m);
            for i in 0..m {
                let gr = r * m + i;
                block.extend_from_slice(&a0[gr * n + c * m..gr * n + c * m + m]);
            }
            LuState {
                a: block,
                ..Default::default()
            }
        })
        .collect();
    let mut machine = platform.machine(states, seed);

    for k in 0..n {
        let owner = k / m;
        let lk = k % m;

        // Superstep 1: the pivot owner broadcasts a_kk down its processor
        // column (the multiplier computers live there).
        machine.superstep(|ctx| {
            let pid = ctx.pid();
            let (r, c) = grid.coords(pid);
            if r == owner && c == owner {
                ctx.touch_read(regions::LU_BLOCK);
                let pivot = ctx.state.a[lk * m + lk];
                ctx.state.pivot = pivot;
                for t in staggered(r, side) {
                    let dst = grid.id(t, c);
                    if dst != pid {
                        send(ctx, variant, dst, TAG_PIVOT, &[pivot]);
                    }
                }
            }
        });

        // Superstep 2: column owners compute multipliers and broadcast
        // them along their rows; row owners broadcast the pivot row down
        // their columns.
        machine.superstep(|ctx| {
            let pid = ctx.pid();
            let (r, c) = grid.coords(pid);
            let incoming = ctx.msgs_tagged(TAG_PIVOT).next().map(|msg| msg.word_f64());
            if let Some(pv) = incoming {
                ctx.state.pivot = pv;
            }
            // `send` borrows `ctx`, so each panel is built in its reused
            // buffer moved out of the state and put back after the sends.
            if c == owner {
                // My block holds column segment k: rows r·m .. r·m+m.
                let pivot = ctx.state.pivot;
                let mut l = std::mem::take(&mut ctx.state.l_col);
                l.clear();
                l.extend((0..m).map(|i| {
                    if r * m + i > k {
                        ctx.state.a[i * m + lk] / pivot
                    } else {
                        0.0
                    }
                }));
                // Store multipliers in place and broadcast along the row.
                ctx.touch_modify(regions::LU_BLOCK);
                for (i, &li) in l.iter().enumerate() {
                    let gi = r * m + i;
                    if gi > k {
                        ctx.state.a[i * m + lk] = li;
                    }
                }
                ctx.charge_ops(m as u64);
                ctx.touch_write(regions::LU_LCOL);
                for t in staggered(r, side) {
                    let dst = grid.id(r, t);
                    if dst != pid {
                        send(ctx, variant, dst, TAG_L, &l);
                    }
                }
                ctx.state.l_col = l;
            }
            if r == owner {
                let mut u = std::mem::take(&mut ctx.state.u_row);
                u.clear();
                u.extend((0..m).map(|j| {
                    if c * m + j > k {
                        ctx.state.a[lk * m + j]
                    } else {
                        0.0
                    }
                }));
                ctx.touch_write(regions::LU_UROW);
                for t in staggered(c, side) {
                    let dst = grid.id(t, c);
                    if dst != pid {
                        send(ctx, variant, dst, TAG_U, &u);
                    }
                }
                ctx.state.u_row = u;
            }
        });

        // Superstep 3: absorb the broadcasts and rank-1-update the
        // trailing submatrix.
        machine.superstep(|ctx| {
            let pid = ctx.pid();
            let (r, c) = grid.coords(pid);
            // The two panels travel on separate tags; read each stream
            // through its own filter so the analyzer can prove they never
            // alias. Both are decoded into the reused panel buffers.
            let l_in = ctx.msgs_tagged(TAG_L).last();
            let u_in = ctx.msgs_tagged(TAG_U).last();
            if let Some(msg) = l_in {
                ctx.touch_write(regions::LU_LCOL);
                ctx.state.l_col.clear();
                ctx.state.l_col.extend_from_slice(msg.f64s());
            }
            if let Some(msg) = u_in {
                ctx.touch_write(regions::LU_UROW);
                ctx.state.u_row.clear();
                ctx.state.u_row.extend_from_slice(msg.f64s());
            }
            ctx.touch_read(regions::LU_LCOL);
            ctx.touch_read(regions::LU_UROW);
            ctx.touch_modify(regions::LU_BLOCK);
            let st = &mut *ctx.state;
            if st.l_col.len() == m && st.u_row.len() == m {
                for i in 0..m {
                    let gi = r * m + i;
                    if gi <= k {
                        continue;
                    }
                    let li = st.l_col[i];
                    if li == 0.0 {
                        continue;
                    }
                    for j in 0..m {
                        let gj = c * m + j;
                        if gj > k {
                            st.a[i * m + j] -= li * st.u_row[j];
                        }
                    }
                }
            }
            st.l_col.clear();
            st.u_row.clear();
            ctx.charge_ops((m * m) as u64);
        });
    }

    let time = machine.time();
    // Reassemble the combined L\U matrix and verify.
    let mut result = vec![0.0f64; n * n];
    for (pid, st) in machine.states().iter().enumerate() {
        let (r, c) = grid.coords(pid);
        for i in 0..m {
            let gr = r * m + i;
            result[gr * n + c * m..gr * n + c * m + m].copy_from_slice(&st.a[i * m..(i + 1) * m]);
        }
    }
    let expect = lu_reference(&a0, n);
    let verified = result
        .iter()
        .zip(&expect)
        .all(|(&g, &e)| (g - e).abs() <= 1e-8 * (1.0 + e.abs()));
    RunResult::new(time, machine.breakdown(), verified)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_lu_reconstructs_the_matrix() {
        let n = 8;
        let a = dominant_matrix(n, 3);
        let lu = lu_reference(&a, n);
        // Multiply L·U and compare with A.
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { lu[i * n + k] };
                    let u = lu[k * n + j];
                    s += if k <= j { l * u } else { 0.0 };
                }
                // Doolittle: A = L·U with unit diagonal L.
                let mut exact = 0.0;
                for k in 0..n {
                    let l = if k < i {
                        lu[i * n + k]
                    } else if k == i {
                        1.0
                    } else {
                        0.0
                    };
                    let u = if k <= j { lu[k * n + j] } else { 0.0 };
                    exact += l * u;
                }
                let _ = s;
                assert!((exact - a[i * n + j]).abs() < 1e-8, "A[{i}][{j}] mismatch");
            }
        }
    }

    #[test]
    fn parallel_lu_matches_reference_on_all_platforms() {
        for plat in [
            Platform::gcel_with(16),
            Platform::cm5_with(16),
            Platform::maspar_with(16),
        ] {
            for variant in [LuVariant::Words, LuVariant::Blocks] {
                let r = run(&plat, 16, variant, 7);
                assert!(r.verified, "{} {variant:?} LU failed", plat.name());
            }
        }
    }

    #[test]
    fn larger_grid_and_matrix() {
        let r = run(&Platform::cm5(), 64, LuVariant::Blocks, 9);
        assert!(r.verified);
    }

    #[test]
    fn communication_structure_mirrors_apsp() {
        // Per iteration LU does two broadcasts plus a pivot send, like
        // APSP's two broadcasts: the communication share should be in the
        // same regime on a communication-dominated machine.
        let plat = Platform::gcel_with(16);
        let lu = run(&plat, 32, LuVariant::Words, 5);
        let apsp = crate::apsp::run(&plat, 32, crate::apsp::ApspVariant::Words, 5);
        assert!(lu.verified && apsp.verified);
        let ratio = lu.time / apsp.time;
        assert!(
            ratio > 0.3 && ratio < 3.0,
            "LU/APSP time ratio = {ratio:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "n = 30 is not a multiple of 8")]
    fn rejects_misaligned_sizes() {
        run(&Platform::cm5(), 30, LuVariant::Words, 0);
    }
}
