//! The model-derived 3D matrix multiplication (paper Section 4.1).
//!
//! `P = q³` processors arranged as a cube compute `C = A·B` in four
//! supersteps: (1) replicate the `A`/`B` subblocks along the cube axes,
//! (2) multiply locally, (3) redistribute the partial products,
//! (4) sum them. The algorithm is communication-optimal under BSP.
//!
//! Three schedule variants reproduce the paper's comparisons:
//!
//! * [`MatmulVariant::BspNaive`] — word messages, every processor sends to
//!   destination index 0 first (the schedule that stalls the CM-5, Fig. 4);
//! * [`MatmulVariant::BspStaggered`] — word messages, processor `<i,j,k>`
//!   starts its sends at offset `k` (also the mandatory MP-BSP schedule on
//!   the MasPar, Fig. 3);
//! * [`MatmulVariant::Bpram`] — one block transfer per destination
//!   (Figs. 8, 9, 16, 19, 20).
//!
//! On machines whose processor count is not a cube, the largest embedded
//! cube is used (1000 of the MasPar's 1024 PEs).

use pcm_machines::Platform;
use pcm_models::predict::matmul::q_for;
use pcm_sim::topology::Cube;
use pcm_sim::{Ctx, Message};

use crate::primitives::embed::Embedding;
use crate::primitives::plan::staggered;
use crate::regions;
use crate::run::{RunResult, RunStats};
use crate::verify::{random_matrix, spot_check_matmul};

/// Which communication schedule to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatmulVariant {
    /// Short messages, identical (contending) send order on all processors.
    BspNaive,
    /// Short messages, staggered send order.
    BspStaggered,
    /// Block transfers (MP-BPRAM), staggered.
    Bpram,
}

/// Per-processor state of the 3D algorithm.
#[derive(Clone, Default)]
struct MmState {
    a_sub: Vec<f64>,
    b_sub: Vec<f64>,
    c_sub: Vec<f64>,
}

/// Tags distinguishing the replicated operands in superstep 1.
const TAG_A: u32 = 0;
const TAG_B: u32 = 1;
const TAG_C: u32 = 2;

/// Runs `C = A·B` for deterministic pseudo-random `n x n` matrices on the
/// platform and verifies the result against a sequential reference
/// (sampled rows for large `n`).
///
/// # Panics
/// Panics unless `n` is a multiple of `q²` (subblock shapes must be exact).
pub fn run(platform: &Platform, n: usize, variant: MatmulVariant, seed: u64) -> RunResult {
    let p = platform.p();
    let q = q_for(p);
    let p_used = q * q * q;
    assert!(
        n.is_multiple_of(q * q),
        "matrix side {n} must be a multiple of q² = {} on {} (q = {q})",
        q * q,
        platform.name()
    );
    let cube = Cube { q };
    let bn = n / q; // block side
    let sn = n / (q * q); // subblock rows
                          // On the MasPar the cube layout does not align with router clusters
                          // (MPL virtual-processor addressing) — a scrambled embedding makes the
                          // superstep patterns cost what the paper measured. See
                          // `primitives::embed`.
    let embed = if platform.model_params().memory_pipelining {
        Embedding::identity(p)
    } else {
        Embedding::scrambled(p, seed ^ 0xE3BED)
    };
    let embed = &embed;

    let a = random_matrix(n, seed);
    let b = random_matrix(n, seed.wrapping_add(1));

    // Distribute: processor <i,j,k> holds A^k_ij and B^k_ij (sn x bn each).
    let mut states: Vec<MmState> = vec![MmState::default(); p];
    for lid in 0..p_used {
        let (i, j, k) = cube.coords(lid);
        let st = &mut states[embed.to_machine(lid)];
        st.a_sub = extract(&a, n, i * bn + k * sn, j * bn, sn, bn);
        st.b_sub = extract(&b, n, i * bn + k * sn, j * bn, sn, bn);
    }

    let mut machine = platform.machine(states, seed);
    // The block variant issues all q transfers per phase in lockstep
    // (including the self-copy), exactly as the `3·q·(sigma·w·N²/P + ell)`
    // cost expression charges and as a SIMD pp_rsend loop executes. The
    // word variants skip only the A self-copy: every processor skips slot
    // `l == k`, the *first* slot of its staggered order, so the remaining
    // rounds stay aligned. The B and C self-copies travel through the
    // machine even in the word variants — only some processors have one,
    // and skipping it would compress their staggered schedule by a round,
    // colliding with a neighbour's sends (a concurrent-write hazard under
    // MP-BSP).
    let include_self = variant == MatmulVariant::Bpram;

    // Superstep 1: replicate A^k_ij over <i,j,*> and B^k_ij over <*,i,j>.
    machine.superstep(|ctx| {
        let lid = embed.to_logical(ctx.pid());
        if lid >= p_used {
            return;
        }
        let (i, j, k) = cube.coords(lid);
        let a_sub = std::mem::take(&mut ctx.state.a_sub);
        let b_sub = std::mem::take(&mut ctx.state.b_sub);
        let order: Vec<usize> = match variant {
            MatmulVariant::BspNaive => (0..q).collect(),
            _ => staggered(k, q).collect(),
        };
        for &l in &order {
            if include_self || l != k {
                send(
                    ctx,
                    variant,
                    embed.to_machine(cube.id(i, j, l)),
                    TAG_A,
                    &a_sub,
                );
            }
        }
        for &l in &order {
            let dst = embed.to_machine(cube.id(l, i, j));
            send(ctx, variant, dst, TAG_B, &b_sub);
        }
        // The A copy stays in place; the B self-copy (diagonal processors
        // only) was routed through the machine above.
        ctx.state.a_sub = a_sub;
        ctx.state.b_sub = b_sub;
    });

    // Superstep 2: assemble A_ij and B_jk, multiply, redistribute partials.
    machine.superstep(|ctx| {
        let lid = embed.to_logical(ctx.pid());
        if lid >= p_used {
            return;
        }
        let (i, j, k) = cube.coords(lid);
        let mut a_full = vec![0.0f64; bn * bn];
        let mut b_full = vec![0.0f64; bn * bn];
        // Own A subblock (not sent over the network); B arrives entirely
        // through the inbox, self-copies included. The two operand streams
        // are read through their tags: the slot each piece lands in comes
        // from the sender's cube coordinate, so assembly order is
        // irrelevant.
        ctx.touch_write(regions::MATMUL_A);
        ctx.touch_write(regions::MATMUL_B);
        a_full[k * sn * bn..(k + 1) * sn * bn].copy_from_slice(&ctx.state.a_sub);
        for msg in ctx.msgs_tagged(TAG_A) {
            let (_, _, l) = cube.coords(embed.to_logical(msg.src));
            decode_f64s(&mut a_full[l * sn * bn..(l + 1) * sn * bn], msg);
        }
        for msg in ctx.msgs_tagged(TAG_B) {
            let (_, _, l) = cube.coords(embed.to_logical(msg.src));
            decode_f64s(&mut b_full[l * sn * bn..(l + 1) * sn * bn], msg);
        }
        ctx.charge_copy_words(2 * (bn * bn) as u64);

        // Local multiply: C-hat_ijk = A_ij · B_jk.
        ctx.touch_read(regions::MATMUL_A);
        ctx.touch_read(regions::MATMUL_B);
        let mut c_hat = vec![0.0f64; bn * bn];
        local_multiply(&a_full, &b_full, &mut c_hat, bn);
        ctx.charge_matmul(bn, bn, bn);

        // Send C-hat^l to <i,k,l>. The senders sharing a destination set
        // <i,k,*> differ in their j coordinate, so the stagger keys on j.
        let order: Vec<usize> = match variant {
            MatmulVariant::BspNaive => (0..q).collect(),
            _ => staggered(j, q).collect(),
        };
        for &l in &order {
            let dst = embed.to_machine(cube.id(i, k, l));
            send(
                ctx,
                variant,
                dst,
                TAG_C,
                &c_hat[l * sn * bn..(l + 1) * sn * bn],
            );
        }
    });

    // Superstep 3: sum the q partial products of C^k_ij.
    machine.superstep(|ctx| {
        let lid = embed.to_logical(ctx.pid());
        if lid >= p_used {
            return;
        }
        // Start from the locally retained partial (if any).
        ctx.touch_modify(regions::MATMUL_C);
        let mut c_sub = std::mem::take(&mut ctx.state.c_sub);
        if c_sub.is_empty() {
            c_sub = vec![0.0f64; sn * bn];
        }
        for msg in ctx.msgs() {
            debug_assert_eq!(msg.tag, TAG_C);
            for (acc, v) in c_sub.iter_mut().zip(msg.f64s()) {
                *acc += v;
            }
        }
        ctx.charge_copy_words((q * sn * bn) as u64);
        ctx.state.c_sub = c_sub;
    });

    let time = machine.time();
    let breakdown = machine.breakdown();

    // Gather C and verify.
    let mut c = vec![0.0f64; n * n];
    for lid in 0..p_used {
        let st = &machine.states()[embed.to_machine(lid)];
        let (i, j, k) = cube.coords(lid);
        scatter_into(&mut c, n, i * bn + k * sn, j * bn, sn, bn, &st.c_sub);
    }
    let rows = if n <= 256 { n } else { 8 };
    let verified = spot_check_matmul(&a, &b, &c, n, rows, seed ^ 0xC0FFEE);

    let mflops = pcm_core::units::mflops(pcm_core::units::matmul_flops(n), time);
    RunResult::new(time, breakdown, verified).with_stats(RunStats {
        mflops,
        ..Default::default()
    })
}

fn send(ctx: &mut Ctx<'_, MmState>, variant: MatmulVariant, dst: usize, tag: u32, vals: &[f64]) {
    match variant {
        MatmulVariant::Bpram => ctx.send_block_f64_tagged(dst, tag, vals),
        _ => ctx.send_words_f64_tagged(dst, tag, vals),
    }
}

/// Decodes a message's `f64` payload into `dst`, which it must fill exactly.
fn decode_f64s(dst: &mut [f64], msg: &Message) {
    let vals = msg.f64s();
    assert_eq!(vals.len(), dst.len(), "operand piece has the wrong size");
    for (d, v) in dst.iter_mut().zip(vals) {
        *d = v;
    }
}

/// Extracts a `rows x cols` rectangle starting at `(r0, c0)` from a
/// row-major `n x n` matrix.
fn extract(m: &[f64], n: usize, r0: usize, c0: usize, rows: usize, cols: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        let base = (r0 + r) * n + c0;
        out.extend_from_slice(&m[base..base + cols]);
    }
    out
}

/// Writes a rectangle back into a row-major `n x n` matrix.
fn scatter_into(
    m: &mut [f64],
    n: usize,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
    v: &[f64],
) {
    for r in 0..rows {
        let base = (r0 + r) * n + c0;
        m[base..base + cols].copy_from_slice(&v[r * cols..(r + 1) * cols]);
    }
}

/// Adds the product of two row-major `n x n` blocks into `c`:
/// `c += a·b`. The *timing* comes from the platform's kernel model; this
/// code only has to produce the functional result, fast and exactly.
///
/// `a` is walked in blocks of 4 rows. A block with no zero entry is
/// register-tiled: its columns are cut into tiles 8 wide (then 4, 2 and 1
/// for the tail), each tile's `4 x V` slice of `c` is loaded into a local
/// accumulator, `k` runs in ascending order over the four `a` rows and the
/// rows of `b`, and the accumulator is stored back. A block that holds a
/// zero (`-0.0` included), and the last `n % 4` rows, take the plain `ikj`
/// loop, which skips every zero `a[i][k]`.
///
/// The result is bit-identical to the plain loop over all rows. Each
/// `c[i][j]` starts from the same value and receives the same products,
/// each multiply and each add rounded on its own (Rust never contracts
/// them into a fused multiply-add), in the same ascending `k` order. The
/// zero skip changes results (`0·inf` is NaN, and `-0.0 + 0.0` is
/// `+0.0`), so only rows without a zero are tiled; Cannon's padded blocks
/// have zero rows and columns, which keep the plain loop.
///
/// # Panics
/// Panics if a slice is shorter than `n * n`.
pub(crate) fn local_multiply(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
    if n == 0 {
        return;
    }
    let (a, b, c) = (&a[..n * n], &b[..n * n], &mut c[..n * n]);
    let mut a_blocks = a.chunks_exact(4 * n);
    let mut c_blocks = c.chunks_exact_mut(4 * n);
    for (a4, c4) in (&mut a_blocks).zip(&mut c_blocks) {
        if a4.contains(&0.0) {
            multiply_rows(a4, b, c4, n);
        } else {
            multiply_row_block(a4, b, c4, n);
        }
    }
    multiply_rows(a_blocks.remainder(), b, c_blocks.into_remainder(), n);
}

/// The plain `ikj` loop over whole rows of `a` and `c`, skipping every
/// zero `a[i][k]`.
fn multiply_rows(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
    for (arow, crow) in a.chunks_exact(n).zip(c.chunks_exact_mut(n)) {
        for (&aik, brow) in arow.iter().zip(b.chunks_exact(n)) {
            if aik == 0.0 {
                continue;
            }
            for (cij, &bkj) in crow.iter_mut().zip(brow) {
                *cij += aik * bkj;
            }
        }
    }
}

/// Register-tiles four rows of `a` (no zero among them) against all of `b`.
fn multiply_row_block(a4: &[f64], b: &[f64], c4: &mut [f64], n: usize) {
    let (a0, rest) = a4.split_at(n);
    let (a1, rest) = rest.split_at(n);
    let (a2, a3) = rest.split_at(n);
    let rows = [a0, a1, a2, a3];
    let mut j = 0;
    while j + 8 <= n {
        multiply_tile::<8>(rows, b, c4, n, j);
        j += 8;
    }
    if j + 4 <= n {
        multiply_tile::<4>(rows, b, c4, n, j);
        j += 4;
    }
    if j + 2 <= n {
        multiply_tile::<2>(rows, b, c4, n, j);
        j += 2;
    }
    if j < n {
        multiply_tile::<1>(rows, b, c4, n, j);
    }
}

/// Accumulates columns `j..j + V` of four `c` rows in registers.
#[inline(always)]
fn multiply_tile<const V: usize>(
    [a0, a1, a2, a3]: [&[f64]; 4],
    b: &[f64],
    c4: &mut [f64],
    n: usize,
    j: usize,
) {
    let mut acc = [[0.0f64; V]; 4];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c4[r * n + j..r * n + j + V]);
    }
    let a_cols = a0.iter().zip(a1).zip(a2).zip(a3);
    for ((((&x0, &x1), &x2), &x3), brow) in a_cols.zip(b.chunks_exact(n)) {
        let bk: &[f64; V] = brow[j..j + V].try_into().expect("tile inside the row");
        for (row, x) in acc.iter_mut().zip([x0, x1, x2, x3]) {
            for (s, &bkj) in row.iter_mut().zip(bk) {
                *s += x * bkj;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c4[r * n + j..r * n + j + V].copy_from_slice(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_compute_the_right_product() {
        let plat = Platform::cm5_with(8); // q = 2, subblocks need n % 4 == 0
        for variant in [
            MatmulVariant::BspNaive,
            MatmulVariant::BspStaggered,
            MatmulVariant::Bpram,
        ] {
            let r = run(&plat, 16, variant, 42);
            assert!(r.verified, "{variant:?} produced a wrong product");
            assert!(r.time.as_micros() > 0.0);
        }
    }

    #[test]
    fn staggering_beats_the_naive_schedule_on_cm5() {
        let plat = Platform::cm5();
        let naive = run(&plat, 64, MatmulVariant::BspNaive, 1);
        let stag = run(&plat, 64, MatmulVariant::BspStaggered, 1);
        assert!(naive.verified && stag.verified);
        assert!(
            naive.breakdown.comm > stag.breakdown.comm,
            "naive comm {} should exceed staggered {}",
            naive.breakdown.comm,
            stag.breakdown.comm
        );
    }

    #[test]
    fn bpram_beats_word_messages_on_gcel() {
        let plat = Platform::gcel();
        let words = run(&plat, 32, MatmulVariant::BspStaggered, 2);
        let blocks = run(&plat, 32, MatmulVariant::Bpram, 2);
        assert!(words.verified && blocks.verified);
        assert!(blocks.time < words.time);
    }

    #[test]
    #[should_panic(expected = "multiple of q²")]
    fn rejects_misaligned_sizes() {
        run(&Platform::cm5(), 100, MatmulVariant::Bpram, 0);
    }

    #[test]
    #[allow(clippy::float_cmp)] // determinism means bit-exact
    fn deterministic_across_runs() {
        let plat = Platform::cm5_with(8);
        let a = run(&plat, 16, MatmulVariant::Bpram, 7);
        let b = run(&plat, 16, MatmulVariant::Bpram, 7);
        assert_eq!(a.time, b.time);
        assert_eq!(a.stats.mflops, b.stats.mflops);
    }

    /// The seed's `ikj` loop, the bit-exact reference for the tiled kernel.
    fn ikj_reference(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
        for i in 0..n {
            for k in 0..n {
                let aik = a[i * n + k];
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[k * n..(k + 1) * n];
                let crow = &mut c[i * n..(i + 1) * n];
                for j in 0..n {
                    crow[j] += aik * brow[j];
                }
            }
        }
    }

    /// Runs both kernels from the same `c` and compares every result bit;
    /// where the reference gives NaN, the kernel must give NaN too.
    fn assert_kernel_matches(a: &[f64], b: &[f64], c: &[f64], n: usize) {
        let mut want = c.to_vec();
        ikj_reference(a, b, &mut want, n);
        let mut got = c.to_vec();
        local_multiply(a, b, &mut got, n);
        for (idx, (g, w)) in got.iter().zip(&want).enumerate() {
            if w.is_nan() {
                assert!(g.is_nan(), "n {n} entry {idx}: got {g}, want NaN");
            } else {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "n {n} entry {idx}: got {g}, want {w}"
                );
            }
        }
    }

    /// An entry drawn from `[-2, 2)`, or with probability `1 / rarity` one
    /// of the values the zero skip and IEEE rounding treat specially.
    fn entry(rng: &mut rand::rngs::StdRng, rarity: u32) -> f64 {
        use rand::RngExt;
        const SPECIAL: [f64; 7] = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 8.0,
            -f64::MIN_POSITIVE / 3.0,
            1e-310,
        ];
        if rarity > 0 && rng.random_range(0..rarity) == 0 {
            SPECIAL[rng.random_range(0..SPECIAL.len())]
        } else {
            rng.random_range(-2.0..2.0)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        #[test]
        fn tiled_kernel_is_bit_identical_to_the_ikj_loop(
            side in 0usize..42,
            rarity_pick in 0usize..5,
            c_random in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let n = match side {
                40 => 64,
                41 => 70,
                s => s + 1,
            };
            // 0 draws no special value, so every row block is tiled.
            let rarity = [0, 2, 16, 200, 5000][rarity_pick];
            let mut rng = pcm_core::rng::seeded(seed);
            let a: Vec<f64> = (0..n * n).map(|_| entry(&mut rng, rarity)).collect();
            let b: Vec<f64> = (0..n * n).map(|_| entry(&mut rng, rarity)).collect();
            let c: Vec<f64> = if c_random {
                (0..n * n).map(|_| entry(&mut rng, rarity)).collect()
            } else {
                vec![0.0; n * n]
            };
            assert_kernel_matches(&a, &b, &c, n);
        }
    }

    #[test]
    fn tiled_kernel_matches_on_a_cannon_padded_block() {
        // 13-side blocks holding a corner of the matrix, zero elsewhere, as
        // `vendor::padded_block` builds them at the grid's last row and
        // column.
        let n = 13;
        let padded = |seed: u64, rows: usize, cols: usize| -> Vec<f64> {
            let m = crate::verify::random_matrix(n, seed);
            let mut out = vec![0.0; n * n];
            for r in 0..rows {
                out[r * n..r * n + cols].copy_from_slice(&m[r * n..r * n + cols]);
            }
            out
        };
        let b = padded(4, 10, 10);
        let mut c = crate::verify::random_matrix(n, 5);
        c[1] = -0.0;
        for a in [
            // Every row holds a zero, so every row keeps the plain loop.
            padded(3, 10, 10),
            // Zero rows only: rows 0..8 are tiled, the rest are not.
            padded(3, 10, n),
        ] {
            assert_kernel_matches(&a, &b, &c, n);
            assert_kernel_matches(&a, &b, &vec![0.0; n * n], n);
        }
    }

    #[test]
    #[allow(clippy::float_cmp)] // round trip copies values verbatim
    fn extract_scatter_round_trip() {
        let n = 6;
        let m: Vec<f64> = (0..36).map(|x| x as f64).collect();
        let r = extract(&m, n, 2, 3, 2, 3);
        assert_eq!(r, vec![15.0, 16.0, 17.0, 21.0, 22.0, 23.0]);
        let mut back = vec![0.0; 36];
        scatter_into(&mut back, n, 2, 3, 2, 3, &r);
        assert_eq!(back[15], 15.0);
        assert_eq!(back[23], 23.0);
        assert_eq!(back[0], 0.0);
    }
}
