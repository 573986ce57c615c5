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
    a_full: Vec<f64>,
    b_full: Vec<f64>,
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
        ctx.state.a_full = a_full;
        ctx.state.b_full = b_full;

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

/// Simple ikj kernel, good enough for the simulation's functional result
/// (the *timing* comes from the platform's kernel model, not from this
/// code's wall-clock).
pub(crate) fn local_multiply(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
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
