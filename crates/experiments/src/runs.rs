//! The kernel figures' simulations as data.
//!
//! Each kernel figure (matmul, sorting, Sec. 8, model fit) lists the runs
//! it needs as [`RunKey`]s and executes the list with [`run_keys`], which
//! returns the results in input order. The runs are independent and
//! deterministic, so the helper is free to choose where and when each one
//! runs:
//!
//! * **Light runs fan out** through [`pcm_sim::map_ordered`], largest
//!   first, one whole machine at a time per pool task. Such a machine
//!   runs its closures sequentially on the fused exchange, and the
//!   figure's work outside supersteps (input generation, the sort and
//!   matmul checks) runs side by side with other runs instead of after
//!   them.
//! * **Heavy runs stay lone machines.** A run whose estimated footprint
//!   ([`RunKey::footprint`]) could not share [`BUDGET_BYTES`] with a
//!   second run its size runs before the fan-out, alone, on the calling
//!   thread, with intra-superstep parallelism.
//! * **Light runs share the budget.** At most `BUDGET_BYTES / (largest
//!   light footprint in the list)` of them are in flight at once, so a
//!   wider host cannot multiply the peak memory.
//!
//! Under an observer scope or a strategy override `map_ordered` runs its
//! plain loop on the calling thread, so traced and analyzed passes see
//! every machine the figures build.

use std::sync::atomic::{AtomicUsize, Ordering};

use pcm_algos::matmul::{self, MatmulVariant};
use pcm_algos::sort::bitonic::{self, ExchangeMode};
use pcm_algos::sort::sample::{self, SampleVariant};
use pcm_algos::{vendor, RunResult};
use pcm_machines::Platform;
use pcm_models::predict::matmul::q_for;
use pcm_sim::map_ordered;

/// The algorithm (and schedule) of one run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// The model-derived 3D matrix multiplication.
    Matmul(MatmulVariant),
    /// The MasPar `matmul` intrinsic analogue (Cannon on the xnet).
    MplMatmul,
    /// The CMSSL `gen_matrix_mult` analogue (SUMMA on the CM-5).
    CmsslMatmul,
    /// Bitonic sort.
    Bitonic(ExchangeMode),
    /// Sample sort with the given oversampling factor.
    Sample {
        /// Schedule variant.
        variant: SampleVariant,
        /// The paper's `S`.
        oversampling: usize,
    },
}

/// One simulation a figure needs: algorithm, platform, size and seed.
/// `n` is the matrix side of a matmul and the keys per processor of a
/// sort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunKey {
    /// What runs.
    pub algo: Algo,
    /// Where it runs.
    pub platform: Platform,
    /// Matrix side or keys per processor.
    pub n: usize,
    /// Input and machine seed.
    pub seed: u64,
}

/// Estimated peak bytes of the 3D matmul per `q·N²` word it replicates.
/// Measured peaks (VmHWM of one run in a fresh process, 2.3 MB of it the
/// process): CM-5 `N` = 512 37–39 MB, 1024 141–150 MB; MasPar `N` = 400
/// 75–79 MB, 500 79–84 MB, 600 141–148 MB, 700 147–154 MB.
const MATMUL_BYTES_PER_QN2: usize = 36;
/// Cannon's algorithm, per `N²` (MasPar `N` = 700: 40–41 MB).
const MPL_BYTES_PER_N2: usize = 80;
/// SUMMA, per `N²` (CM-5 `N` = 512: 36 MB, 1024: 141 MB).
const CMSSL_BYTES_PER_N2: usize = 136;
/// Bitonic sort, per key (MasPar 2048 keys per processor: 69–70 MB).
const BITONIC_BYTES_PER_KEY: usize = 32;
/// Sample sort, per key (GCel 1024 keys per processor: 5–7 MB).
const SAMPLE_BYTES_PER_KEY: usize = 72;

/// Bytes the runs in flight may hold together: the estimated peak of the
/// heaviest simulation a kernel figure makes (the MasPar `N` = 700
/// matmul, `q` = 10). The paper-scale figures reach that peak with one
/// lone run anyway.
pub const BUDGET_BYTES: usize = MATMUL_BYTES_PER_QN2 * 10 * 700 * 700;

impl RunKey {
    /// A bitonic sort run with `m` keys per processor.
    pub fn bitonic(mode: ExchangeMode, platform: Platform, m: usize, seed: u64) -> Self {
        Self::new(Algo::Bitonic(mode), platform, m, seed)
    }

    /// A run of `algo`.
    pub fn new(algo: Algo, platform: Platform, n: usize, seed: u64) -> Self {
        Self {
            algo,
            platform,
            n,
            seed,
        }
    }

    /// Simulates the run; the result's `verified` reports its output
    /// check.
    pub fn run(&self) -> RunResult {
        let (plat, n, seed) = (&self.platform, self.n, self.seed);
        match self.algo {
            Algo::Matmul(variant) => matmul::run(plat, n, variant, seed),
            Algo::MplMatmul => vendor::maspar_matmul(plat, n, seed),
            Algo::CmsslMatmul => vendor::cmssl_matmul(plat, n, seed),
            Algo::Bitonic(mode) => bitonic::run(plat, n, mode, seed),
            Algo::Sample {
                variant,
                oversampling,
            } => sample::run(plat, n, oversampling, variant, seed),
        }
    }

    /// Estimated peak memory of the run, in bytes: inputs, states and the
    /// largest superstep's messages, from the per-word figures above.
    pub fn footprint(&self) -> usize {
        let (n, p) = (self.n, self.platform.p());
        match self.algo {
            Algo::Matmul(_) => MATMUL_BYTES_PER_QN2 * q_for(p) * n * n,
            Algo::MplMatmul => MPL_BYTES_PER_N2 * n * n,
            Algo::CmsslMatmul => CMSSL_BYTES_PER_N2 * n * n,
            Algo::Bitonic(_) => BITONIC_BYTES_PER_KEY * n * p,
            Algo::Sample { .. } => SAMPLE_BYTES_PER_KEY * n * p,
        }
    }

    /// Whether the run goes alone: a second run its size would not fit
    /// beside it in [`BUDGET_BYTES`].
    pub fn heavy(&self) -> bool {
        2 * self.footprint() > BUDGET_BYTES
    }
}

/// Applies `f` to every key and returns the results in input order.
///
/// Heavy keys run first, one at a time, on the calling thread. The light
/// keys then run largest first in at most `BUDGET_BYTES / (largest light
/// footprint)` lanes, each lane one [`map_ordered`] task that runs one
/// key at a time. `f` runs each key's whole unit of work: the
/// simulation, its checks, and any re-run the figure needs.
pub fn run_keys<R, F>(keys: &[RunKey], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&RunKey) -> R + Sync,
{
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(keys[i].footprint()));
    let split = order.partition_point(|&i| keys[i].heavy());
    let (heavy, light) = order.split_at(split);

    let mut slots: Vec<Option<R>> = keys.iter().map(|_| None).collect();
    for &i in heavy {
        slots[i] = Some(f(&keys[i]));
    }
    let largest_light = light.first().map_or(1, |&i| keys[i].footprint().max(1));
    let lanes = (BUDGET_BYTES / largest_light)
        .min(rayon::current_num_threads())
        .min(light.len());
    // Each lane takes the next untaken key, so the pool stays busy while
    // the smaller runs outnumber the lanes.
    let next = AtomicUsize::new(0);
    let done = map_ordered(vec![(); lanes], |_, ()| {
        let mut out = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(&i) = light.get(k) else { break out };
            out.push((i, f(&keys[i])));
        }
    });
    for (i, r) in done.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every key ran once"))
        .collect()
}

/// Runs every key with [`RunKey::run`] and returns the results in input
/// order.
///
/// # Panics
/// Panics if a run fails its output check.
pub fn run_verified(keys: &[RunKey]) -> Vec<RunResult> {
    run_keys(keys, |key| {
        let r = key.run();
        assert!(
            r.verified,
            "{:?} on {} at n = {} failed its output check",
            key.algo,
            key.platform.name(),
            key.n
        );
        r
    })
}

/// Runs every algorithm of `algos` at every size of `sizes` on `plat`
/// through [`run_verified`], and returns one row of results per size, in
/// `algos` order.
pub fn sweep<const K: usize>(
    plat: Platform,
    sizes: &[usize],
    algos: [Algo; K],
    seed: u64,
) -> Vec<[RunResult; K]> {
    let keys: Vec<RunKey> = sizes
        .iter()
        .flat_map(|&n| algos.map(|a| RunKey::new(a, plat, n, seed)))
        .collect();
    let mut runs = run_verified(&keys).into_iter();
    sizes
        .iter()
        .map(|_| std::array::from_fn(|_| runs.next().expect("one result per key")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_runs_are_the_large_matmuls() {
        let stag = MatmulVariant::BspStaggered;
        let heavy = |algo, plat, n| RunKey::new(algo, plat, n, 1).heavy();
        for n in [500, 600, 700] {
            assert!(
                heavy(Algo::Matmul(stag), Platform::maspar(), n),
                "MasPar {n}"
            );
        }
        assert!(!heavy(Algo::Matmul(stag), Platform::maspar(), 400));
        assert!(!heavy(Algo::MplMatmul, Platform::maspar(), 700));
        assert!(heavy(Algo::Matmul(stag), Platform::cm5(), 1024));
        assert!(heavy(Algo::CmsslMatmul, Platform::cm5(), 1024));
        assert!(!heavy(Algo::Matmul(stag), Platform::cm5(), 512));
        let block = Algo::Bitonic(ExchangeMode::Block);
        assert!(!heavy(block, Platform::maspar(), 2048));
        assert!(!heavy(block, Platform::gcel(), 4096));
    }

    #[test]
    fn results_come_back_in_input_order() {
        let keys: Vec<RunKey> = [64, 4096, 256, 2048]
            .into_iter()
            .map(|m| RunKey::bitonic(ExchangeMode::Block, Platform::gcel(), m, 1))
            .collect();
        let ns = run_keys(&keys, |k| k.n);
        assert_eq!(ns, [64, 4096, 256, 2048]);
        assert!(run_keys(&[], |k| k.n).is_empty());
    }
}
