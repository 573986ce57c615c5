//! Sequential reference implementations and result checkers.
//!
//! Every parallel algorithm in this crate really computes its result on the
//! simulated machine; these helpers confirm the result against a
//! uniprocessor reference. Full verification is used for small problem
//! sizes; for large sweeps the matrix checks sample random rows (still a
//! real check, just a cheaper one).

use std::sync::OnceLock;

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

/// The rows of `A·B` that a matmul's output check compares with, computed
/// up front so that `A` and `B` need not outlive the run that multiplies
/// them.
#[derive(Clone, Debug)]
pub struct MatmulRows {
    n: usize,
    rows: Vec<(usize, Vec<f64>)>,
}

impl MatmulRows {
    /// The rows of the `n x n` product `a·b` at `rows` row indices drawn
    /// from `seed` (every row when `rows >= n`).
    pub fn new(a: &[f64], b: &[f64], n: usize, rows: usize, seed: u64) -> Self {
        let mut rng = seeded(seed);
        let row_ids: Vec<usize> = if rows >= n {
            (0..n).collect()
        } else {
            (0..rows).map(|_| rng.random_range(0..n)).collect()
        };
        let rows = row_ids
            .into_iter()
            .map(|i| {
                // expected row i = sum_k a[i][k] * b[k][*]
                let mut expect = vec![0.0f64; n];
                for k in 0..n {
                    let aik = a[i * n + k];
                    let brow = &b[k * n..(k + 1) * n];
                    for j in 0..n {
                        expect[j] += aik * brow[j];
                    }
                }
                (i, expect)
            })
            .collect();
        Self { n, rows }
    }

    /// `true` if the row-major `n x n` matrix `c` matches every row.
    /// Tolerance is relative to the magnitude of the entries; a NaN or
    /// infinite entry where a finite value belongs fails.
    pub fn check(&self, c: &[f64]) -> bool {
        let n = self.n;
        self.rows.iter().all(|(i, expect)| {
            // Written as `<= tol` so that a NaN difference (a NaN entry, or
            // an infinity where a finite value belongs) fails the check.
            c[i * n..(i + 1) * n]
                .iter()
                .zip(expect)
                .all(|(&got, &want)| (got - want).abs() <= 1e-9 * (1.0 + want.abs()))
        })
    }
}

/// The keys a sort run distributes, and their sorted reference.
///
/// The reference is sorted on the first [`SortInput::check`] and kept, so
/// every run that sorts the same input (the modes and algorithms of one
/// figure at one size) shares one sequential sort. The check stays exact:
/// each output is compared with the whole reference.
#[derive(Debug)]
pub struct SortInput {
    keys: Vec<u32>,
    sorted: OnceLock<Vec<u32>>,
}

impl SortInput {
    /// The `len` uniformly random keys the sorts draw from `seed`.
    pub fn random(len: usize, seed: u64) -> Self {
        Self::new(pcm_core::rng::random_keys(len, &mut seeded(seed)))
    }

    /// An input of the given keys, in processor order: processor `i` of
    /// `p` starts with `keys[i·len/p..(i+1)·len/p]`.
    pub fn new(keys: Vec<u32>) -> Self {
        Self {
            keys,
            sorted: OnceLock::new(),
        }
    }

    /// The sorted reference, sorted on first use.
    pub fn sorted(&self) -> &[u32] {
        self.sorted.get_or_init(|| {
            let mut sorted = self.keys.clone();
            sorted.sort_unstable();
            sorted
        })
    }

    /// The keys per processor on `p` processors.
    ///
    /// # Panics
    /// Unless `p` divides the number of keys.
    pub(crate) fn per_proc(&self, p: usize) -> usize {
        assert!(
            self.keys.len().is_multiple_of(p),
            "{} keys do not split evenly over {p} processors",
            self.keys.len()
        );
        self.keys.len() / p
    }

    /// Processor `pid`'s share of the keys on `p` processors.
    pub(crate) fn share(&self, pid: usize, p: usize) -> Vec<u32> {
        let m = self.per_proc(p);
        self.keys[pid * m..(pid + 1) * m].to_vec()
    }

    /// `true` if the concatenated `parts` are the sorted permutation of
    /// the keys: ascending throughout, then equal to the reference.
    pub fn check<'a>(&self, parts: impl IntoIterator<Item = &'a [u32]>) -> bool {
        let mut rest = self.sorted();
        let mut last = None;
        for part in parts {
            let ascending = part.windows(2).all(|w| w[0] <= w[1])
                && last.zip(part.first()).is_none_or(|(l, f)| l <= f);
            let Some((head, tail)) = rest.split_at_checked(part.len()) else {
                return false;
            };
            if !ascending || head != part {
                return false;
            }
            last = part.last().or(last);
            rest = tail;
        }
        rest.is_empty()
    }
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
        assert!(MatmulRows::new(&a, &b, n, 4, 7).check(&c));
        assert!(MatmulRows::new(&a, &b, n, n, 7).check(&c), "full check");
        let mut bad = c.clone();
        bad[5 * n + 5] += 0.5;
        assert!(!MatmulRows::new(&a, &b, n, n, 7).check(&bad));
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
                !MatmulRows::new(&a, &b, n, n, 7).check(&bad),
                "{poison} verified"
            );
        }
    }

    #[test]
    fn sorted_permutation_checker() {
        let input = SortInput::new(vec![5, 3, 9, 3, 1, 7]);
        assert!(input.check([&[1, 3, 3][..], &[5, 7, 9]]));
        assert!(input.check([&[1, 3, 3, 5, 7, 9][..], &[]]), "empty part");
        assert!(!input.check([&[1, 3, 3][..], &[7, 5, 9]]), "unsorted");
        assert!(!input.check([&[1, 3, 5][..], &[3, 7, 9]]), "unsorted seam");
        assert!(!input.check([&[1, 3, 3][..], &[5, 7, 8]]), "wrong multiset");
        assert!(!input.check([&[1, 3, 3][..], &[5, 7]]), "lost key");
        assert!(!input.check([&[1, 3, 3][..], &[5, 7, 9, 9]]), "extra key");
        assert!(SortInput::new(Vec::new()).check([&[][..]]));
    }

    #[test]
    fn random_sort_input_is_the_seeded_key_draw() {
        let keys = pcm_core::rng::random_keys(40, &mut seeded(3));
        let input = SortInput::random(40, 3);
        assert_eq!(input.share(0, 1), keys);
        assert_eq!(input.share(1, 4), keys[10..20]);
        let mut sorted = keys;
        sorted.sort_unstable();
        assert_eq!(input.sorted(), sorted);
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
