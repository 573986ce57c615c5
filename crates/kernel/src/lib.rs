//! # pcm-kernel — the local matrix-multiply kernel
//!
//! [`multiply_add`] is the local multiply of every simulated processor in
//! the matrix multiplications of `pcm-algos`: the 3D algorithm's `Ĉ`
//! pieces and the Cannon and SUMMA analogues of the vendor libraries. The
//! *timing* of a simulated multiply comes from the platform's kernel
//! model; this code only has to produce the functional result, fast and
//! exactly.
//!
//! One body is compiled twice. The portable copy targets the build's
//! baseline (SSE2 on `x86_64`, two `f64` lanes). On `x86_64` a second copy
//! is compiled with AVX2 enabled (four lanes), and [`multiply_add`] calls
//! it when the host reports AVX2 at run time. Both copies give the same
//! bits; [`multiply_add`] says why.

/// Adds the product of a row-major `rows x n` block `a` and an `n x n`
/// block `b` into the `rows x n` block `c`, where `rows = c.len() / n`:
/// `c += a·b`. Row `i` of `c` depends on row `i` of `a` alone, so the
/// product of a square `a` can be computed a band of rows at a time, each
/// into its own buffer, with the same bits.
///
/// `a` is walked in blocks of 4 rows, and the last `rows % 4` rows form
/// one block of 1 to 3 rows. A block with no zero entry is
/// register-tiled: its columns are cut into tiles 8 wide (then 4, 2 and 1
/// for the tail), each tile's `R x V` slice of `c` is loaded into a local
/// accumulator, `k` runs in ascending order over the block's `a` rows and
/// the rows of `b`, and the accumulator is stored back. A block that holds
/// a zero (`-0.0` included) takes the plain `ikj` loop, which skips every
/// zero `a[i][k]`.
///
/// The result is bit-identical to the plain loop over all rows, on either
/// copy of the kernel. Each `c[i][j]` starts from the same value and
/// receives the same products, each multiply and each add rounded on its
/// own (Rust never contracts them into a fused multiply-add, and the AVX2
/// copy enables no FMA), in the same ascending `k` order; a wider vector
/// only computes more `j` at once. The zero skip changes results (`0·inf`
/// is NaN, and `-0.0 + 0.0` is `+0.0`), so only blocks without a zero are
/// tiled; Cannon's padded blocks have zero rows and columns, which keep
/// the plain loop.
///
/// # Panics
/// Panics if `a` is shorter than `c` or `b` shorter than `n * n`.
pub fn multiply_add(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host reported AVX2, the only feature
        // `multiply_add_avx2` enables.
        #[allow(unsafe_code)]
        unsafe {
            multiply_add_avx2(a, b, c, n);
        }
        return;
    }
    kernel(a, b, c, n);
}

/// [`kernel`] compiled with AVX2 enabled.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn multiply_add_avx2(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
    kernel(a, b, c, n);
}

/// The body of [`multiply_add`], inlined into each copy so that every
/// loop below is compiled for that copy's target features.
#[inline(always)]
fn kernel(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
    if n == 0 {
        return;
    }
    let rows = c.len() / n;
    let (a, b, c) = (&a[..rows * n], &b[..n * n], &mut c[..rows * n]);
    let mut a_blocks = a.chunks_exact(4 * n);
    let mut c_blocks = c.chunks_exact_mut(4 * n);
    for (a4, c4) in (&mut a_blocks).zip(&mut c_blocks) {
        multiply_block::<4>(a4, b, c4, n);
    }
    let (a, c) = (a_blocks.remainder(), c_blocks.into_remainder());
    match rows % 4 {
        1 => multiply_block::<1>(a, b, c, n),
        2 => multiply_block::<2>(a, b, c, n),
        3 => multiply_block::<3>(a, b, c, n),
        _ => {}
    }
}

/// Multiplies the `R` rows of `a` into the `R` rows of `c`: register-tiled
/// when they hold no zero, by the plain loop otherwise.
#[inline(always)]
fn multiply_block<const R: usize>(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
    if a.contains(&0.0) {
        multiply_rows(a, b, c, n);
        return;
    }
    let a_rows: [&[f64]; R] = std::array::from_fn(|r| &a[r * n..][..n]);
    let mut j = 0;
    while j + 8 <= n {
        multiply_tile::<R, 8>(a_rows, b, c, n, j);
        j += 8;
    }
    if j + 4 <= n {
        multiply_tile::<R, 4>(a_rows, b, c, n, j);
        j += 4;
    }
    if j + 2 <= n {
        multiply_tile::<R, 2>(a_rows, b, c, n, j);
        j += 2;
    }
    if j < n {
        multiply_tile::<R, 1>(a_rows, b, c, n, j);
    }
}

/// The plain `ikj` loop over whole rows of `a` and `c`, skipping every
/// zero `a[i][k]`.
#[inline(always)]
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

/// Accumulates columns `j..j + V` of `R` rows of `c` in registers.
#[inline(always)]
fn multiply_tile<const R: usize, const V: usize>(
    a_rows: [&[f64]; R],
    b: &[f64],
    c: &mut [f64],
    n: usize,
    j: usize,
) {
    let mut acc = [[0.0f64; V]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[r * n + j..r * n + j + V]);
    }
    for (k, brow) in b.chunks_exact(n).enumerate() {
        let bk: &[f64; V] = brow[j..j + V].try_into().expect("tile inside the row");
        for (row, a_row) in acc.iter_mut().zip(a_rows) {
            let x = a_row[k];
            for (s, &bkj) in row.iter_mut().zip(bk) {
                *s += x * bkj;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[r * n + j..r * n + j + V].copy_from_slice(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The plain `ikj` loop, the bit-exact reference for both copies of
    /// the kernel: `c += a·b` for the `c.len() / n` rows of `c`.
    fn ikj_reference(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
        for i in 0..c.len() / n {
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

    /// Runs the reference, the portable body and the dispatched kernel from
    /// the same `c` and compares every result bit; where the reference
    /// gives NaN, the kernels must give NaN too.
    fn assert_kernel_matches(a: &[f64], b: &[f64], c: &[f64], n: usize) {
        let mut want = c.to_vec();
        ikj_reference(a, b, &mut want, n);
        type Kernel = fn(&[f64], &[f64], &mut [f64], usize);
        let kernels: [(&str, Kernel); 2] = [("portable", kernel), ("dispatched", multiply_add)];
        for (name, multiply) in kernels {
            let mut got = c.to_vec();
            multiply(a, b, &mut got, n);
            for (idx, (g, w)) in got.iter().zip(&want).enumerate() {
                if w.is_nan() {
                    assert!(g.is_nan(), "{name} n {n} entry {idx}: got {g}, want NaN");
                } else {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{name} n {n} entry {idx}: got {g}, want {w}"
                    );
                }
            }
        }
    }

    /// An entry drawn from `[-2, 2)`, or with probability `1 / rarity` one
    /// of the values the zero skip and IEEE rounding treat specially.
    fn entry(rng: &mut StdRng, rarity: u32) -> f64 {
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
        /// A band of 1 to `n` rows, so that every remainder-row tile meets
        /// the reference directly.
        #[test]
        fn tiled_kernel_is_bit_identical_to_the_ikj_loop(
            side in 0usize..42,
            band in 0usize..70,
            rarity_pick in 0usize..5,
            c_random in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let n = match side {
                40 => 64,
                41 => 70,
                s => s + 1,
            };
            let rows = band % n + 1;
            // 0 draws no special value, so every row block is tiled.
            let rarity = [0, 2, 16, 200, 5000][rarity_pick];
            let mut rng = StdRng::seed_from_u64(seed);
            let a: Vec<f64> = (0..rows * n).map(|_| entry(&mut rng, rarity)).collect();
            let b: Vec<f64> = (0..n * n).map(|_| entry(&mut rng, rarity)).collect();
            let c: Vec<f64> = if c_random {
                (0..rows * n).map(|_| entry(&mut rng, rarity)).collect()
            } else {
                vec![0.0; rows * n]
            };
            assert_kernel_matches(&a, &b, &c, n);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// A band of rows multiplied into its own buffer, cut anywhere,
        /// even inside a block of four rows, gives every bit of the same
        /// rows of the product into one buffer.
        #[test]
        fn row_bands_match_the_whole_product(
            n in 1usize..40,
            cuts in proptest::collection::vec(0usize..40, 0..6),
            zeros in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let rarity = if zeros { 16 } else { 0 };
            let a: Vec<f64> = (0..n * n).map(|_| entry(&mut rng, rarity)).collect();
            let b: Vec<f64> = (0..n * n).map(|_| entry(&mut rng, rarity)).collect();
            let mut whole = vec![0.0; n * n];
            multiply_add(&a, &b, &mut whole, n);
            let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
            bounds.extend([0, n]);
            bounds.sort_unstable();
            let mut joined = Vec::new();
            for w in bounds.windows(2) {
                let mut band = vec![0.0; (w[1] - w[0]) * n];
                multiply_add(&a[w[0] * n..], &b, &mut band, n);
                joined.extend(band.iter().map(|v| v.to_bits()));
            }
            let want: Vec<u64> = whole.iter().map(|v| v.to_bits()).collect();
            proptest::prop_assert_eq!(joined, want);
        }
    }

    #[test]
    fn tiled_kernel_matches_on_a_cannon_padded_block() {
        // 13-side blocks holding a corner of the matrix, zero elsewhere, as
        // the Cannon analogue pads them at the grid's last row and column.
        let n = 13;
        let random = |seed: u64| -> Vec<f64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n * n).map(|_| rng.random_range(-1.0..1.0)).collect()
        };
        let padded = |seed: u64, rows: usize, cols: usize| -> Vec<f64> {
            let m = random(seed);
            let mut out = vec![0.0; n * n];
            for r in 0..rows {
                out[r * n..r * n + cols].copy_from_slice(&m[r * n..r * n + cols]);
            }
            out
        };
        let b = padded(4, 10, 10);
        let mut c = random(5);
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
}
