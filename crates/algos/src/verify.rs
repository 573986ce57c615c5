//! Sequential reference implementations and result checkers.
//!
//! Every parallel algorithm in this crate really computes its result on the
//! simulated machine; these helpers confirm the result against a
//! uniprocessor reference. Full verification is used for small problem
//! sizes; for large sweeps the matrix checks sample random rows (still a
//! real check, just a cheaper one).

use pcm_core::rng::seeded;
use rand::prelude::*;

/// Dense sequential matrix multiplication `C = A·B` (`n x n`, row-major).
pub fn matmul_reference(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    let mut c = vec![0.0; n * n];
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
    c
}

/// Checks `c ≈ a·b` on `rows` randomly sampled rows (all rows when
/// `rows >= n`). Tolerance is relative to the magnitude of the entries;
/// a NaN or infinite entry where a finite value belongs fails.
pub fn spot_check_matmul(
    a: &[f64],
    b: &[f64],
    c: &[f64],
    n: usize,
    rows: usize,
    seed: u64,
) -> bool {
    let mut rng = seeded(seed);
    let row_ids: Vec<usize> = if rows >= n {
        (0..n).collect()
    } else {
        (0..rows).map(|_| rng.random_range(0..n)).collect()
    };
    for &i in &row_ids {
        // expected row i = sum_k a[i][k] * b[k][*]
        let mut expect = vec![0.0f64; n];
        for k in 0..n {
            let aik = a[i * n + k];
            let brow = &b[k * n..(k + 1) * n];
            for j in 0..n {
                expect[j] += aik * brow[j];
            }
        }
        // Written as `<= tol` so that a NaN difference (a NaN entry, or an
        // infinity where a finite value belongs) fails the check.
        let row_ok = c[i * n..(i + 1) * n]
            .iter()
            .zip(&expect)
            .all(|(&got, &want)| (got - want).abs() <= 1e-9 * (1.0 + want.abs()));
        if !row_ok {
            return false;
        }
    }
    true
}

/// `true` if `keys` is the sorted permutation of `original`.
pub fn check_sorted_permutation(original: &[u32], keys: &[u32]) -> bool {
    if keys.len() != original.len() {
        return false;
    }
    if keys.windows(2).any(|w| w[0] > w[1]) {
        return false;
    }
    let mut expect = original.to_vec();
    expect.sort_unstable();
    expect == keys
}

/// Sequential Floyd–Warshall on a row-major `n x n` distance matrix
/// (in-place semantics, returns the closure).
///
/// Each row relaxes in the select form `apsp`'s closures use, which
/// compiles to a vector minimum and writes the same bits as the in-place
/// conditional store. Rows read row `k` from a copy that holds what the
/// in-place loop reads: the row before this round up to row `k` itself,
/// and after row `k`'s own update for the rows below it.
pub fn floyd_reference(d: &[f64], n: usize) -> Vec<f64> {
    assert_eq!(d.len(), n * n);
    let mut m = d.to_vec();
    let mut row_k = vec![0.0; n];
    for k in 0..n {
        row_k.copy_from_slice(&m[k * n..(k + 1) * n]);
        for (i, row) in m.chunks_exact_mut(n).enumerate() {
            let dik = row[k];
            if dik.is_finite() {
                for (cell, &dkj) in row.iter_mut().zip(&row_k) {
                    let alt = dik + dkj;
                    *cell = if alt < *cell { alt } else { *cell };
                }
            }
            if i == k {
                row_k.copy_from_slice(row);
            }
        }
    }
    m
}

/// Compares two distance matrices entry-wise (infinities must match,
/// sign included).
pub fn check_distances(expect: &[f64], got: &[f64]) -> bool {
    expect.len() == got.len()
        && expect.iter().zip(got).all(|(&e, &g)| {
            if e.is_infinite() {
                // Only the same infinity matches.
                g.to_bits() == e.to_bits()
            } else {
                (e - g).abs() <= 1e-9 * (1.0 + e.abs())
            }
        })
}

/// Deterministic pseudo-random `n x n` matrix with entries in `[-1, 1)`.
pub fn random_matrix(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = seeded(seed);
    (0..n * n).map(|_| rng.random_range(-1.0..1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matmul_identity() {
        let n = 4;
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let a = random_matrix(n, 1);
        assert_eq!(matmul_reference(&a, &eye, n), a);
        assert_eq!(matmul_reference(&eye, &a, n), a);
    }

    #[test]
    fn spot_check_accepts_correct_and_rejects_wrong() {
        let n = 16;
        let a = random_matrix(n, 2);
        let b = random_matrix(n, 3);
        let c = matmul_reference(&a, &b, n);
        assert!(spot_check_matmul(&a, &b, &c, n, 4, 7));
        assert!(spot_check_matmul(&a, &b, &c, n, n, 7), "full check");
        let mut bad = c.clone();
        bad[5 * n + 5] += 0.5;
        assert!(!spot_check_matmul(&a, &b, &bad, n, n, 7));
    }

    #[test]
    fn spot_check_rejects_nan_and_infinite_entries() {
        let n = 8;
        let a = random_matrix(n, 2);
        let b = random_matrix(n, 3);
        let c = matmul_reference(&a, &b, n);
        for poison in [f64::NAN, f64::INFINITY] {
            let mut bad = c.clone();
            bad[3 * n + 2] = poison;
            assert!(
                !spot_check_matmul(&a, &b, &bad, n, n, 7),
                "{poison} verified"
            );
        }
    }

    #[test]
    fn sorted_permutation_checker() {
        assert!(check_sorted_permutation(&[3, 1, 2], &[1, 2, 3]));
        assert!(
            !check_sorted_permutation(&[3, 1, 2], &[1, 3, 2]),
            "unsorted"
        );
        assert!(
            !check_sorted_permutation(&[3, 1, 2], &[1, 2, 4]),
            "wrong multiset"
        );
        assert!(
            !check_sorted_permutation(&[3, 1], &[1, 2, 3]),
            "wrong length"
        );
        assert!(check_sorted_permutation(&[], &[]));
    }

    #[test]
    #[allow(clippy::float_cmp)] // integer-valued weights stay exact
    fn floyd_reference_small_graph() {
        let inf = f64::INFINITY;
        // 0 -> 1 (1), 1 -> 2 (2), 0 -> 2 (10): shortest 0->2 is 3.
        let d = vec![
            0.0, 1.0, 10.0, //
            inf, 0.0, 2.0, //
            inf, inf, 0.0,
        ];
        let m = floyd_reference(&d, 3);
        assert_eq!(m[2], 3.0);
        assert!(m[3].is_infinite(), "1 cannot reach 0");
        assert!(check_distances(&m, &m));
        let mut bad = m.clone();
        bad[2] = 4.0;
        assert!(!check_distances(&m, &bad));
    }

    #[test]
    fn check_distances_requires_the_sign_of_an_infinity() {
        let inf = f64::INFINITY;
        let expect = [0.0, 1.0, inf, 2.0];
        assert!(check_distances(&expect, &expect));
        assert!(!check_distances(&expect, &[0.0, 1.0, -inf, 2.0]), "-inf");
        assert!(!check_distances(&expect, &[0.0, 1.0, f64::NAN, 2.0]), "NaN");
        assert!(!check_distances(&expect, &[0.0, inf, inf, 2.0]), "finite");
    }

    /// The in-place conditional-store loop `floyd_reference` replaced.
    fn floyd_in_place(d: &[f64], n: usize) -> Vec<f64> {
        let mut m = d.to_vec();
        for k in 0..n {
            for i in 0..n {
                let dik = m[i * n + k];
                if !dik.is_finite() {
                    continue;
                }
                for j in 0..n {
                    let alt = dik + m[k * n + j];
                    if alt < m[i * n + j] {
                        m[i * n + j] = alt;
                    }
                }
            }
        }
        m
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn floyd_select_form_is_bit_identical_to_the_in_place_loop(
            n in 0usize..24,
            missing_pick in 0usize..4,
            negative in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Edge weights, with a share of missing (`inf`) edges; some
            // graphs draw negative weights too, so a negative diagonal
            // changes row `k` during round `k`.
            let missing = [0.0, 0.2, 0.6, 0.95][missing_pick];
            let low = if negative { -1.0 } else { 0.0 };
            let mut rng = seeded(seed);
            let d: Vec<f64> = (0..n * n)
                .map(|_| {
                    if rng.random_range(0.0..1.0) < missing {
                        f64::INFINITY
                    } else {
                        rng.random_range(low..4.0)
                    }
                })
                .collect();
            let bits = |m: Vec<f64>| m.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(floyd_reference(&d, n)), bits(floyd_in_place(&d, n)));
        }
    }

    #[test]
    fn random_matrix_is_deterministic() {
        assert_eq!(random_matrix(8, 9), random_matrix(8, 9));
        assert_ne!(random_matrix(8, 9), random_matrix(8, 10));
    }
}
