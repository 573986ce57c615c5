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
//!
//! The sorts of one call share their inputs. A sort's keys depend only on
//! its seed and `p·m`, so the modes and algorithms of a figure at one size
//! sort the same keys. [`run_keys`] draws each distinct input once, on its
//! first run, and every run that sorts it checks its output against the
//! one sorted reference ([`SortInput`]). The inputs go when the call
//! returns: nothing is cached across calls, every simulation still runs,
//! in or out of an observer scope, and every output is still compared
//! with the whole sorted reference.

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use pcm_algos::matmul::{self, MatmulVariant};
use pcm_algos::sort::bitonic::{self, ExchangeMode};
use pcm_algos::sort::sample::{self, SampleVariant};
use pcm_algos::verify::SortInput;
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
/// 75–79 MB, 500 79–84 MB, 600 141–148 MB, 700 147–154 MB. Since then
/// the replicas are shared, the `Ĉ` pieces move, and the run frees its
/// operands before it simulates (it computes its check rows first), sums
/// `C` into a recycled operand buffer and gathers `C` after the machine's
/// messages are gone. Peak live heap now (counting allocator, every
/// variant, `tests/matmul_peak.rs` holds the estimate above it): CM-5
/// `N` = 1024 50.4–52.7 MB (CMSSL included), MasPar `N` = 600 and 700
/// 44.9–58.4 MB. The factors and [`BUDGET_BYTES`] are not re-derived:
/// the budget is defined from this factor, so a smaller one moves no 3D
/// matmul across the heavy line, but it shrinks the budget against the
/// sorts' footprints, and with it the lanes the light runs get.
const MATMUL_BYTES_PER_QN2: usize = 36;
/// Cannon's algorithm, per word of the padded `⌈N/√p⌉²` blocks, over all
/// processors. Its peak also holds about 2 KB per processor whatever the
/// block size ([`MPL_BYTES_PER_PROC`]). Peak live heap on the MasPar
/// (counting allocator, one run each): `N` = 100 2.9 MB, 200 6.4 MB,
/// 300 10.3 MB, 400 17.3 MB, 500 17.4 MB, 600 34.4 MB, 700 39.5 MB; less
/// the fixed part, 49–88 bytes per block word. No flat factor per `N²`
/// fits: `N` = 100 needs 290 bytes per `N²`, which would put `N` = 700
/// over the heavy line.
const MPL_BYTES_PER_BLOCK_WORD: usize = 96;
/// The fixed part of Cannon's peak, per processor, with the same margin.
const MPL_BYTES_PER_PROC: usize = 2560;
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
        let input = self
            .sort_keys()
            .map(|(seed, len)| SortInput::random(len, seed));
        self.run_on(input.as_ref())
    }

    /// The seed and count of the keys a sort draws; `None` for a matmul.
    fn sort_keys(&self) -> Option<(u64, usize)> {
        match self.algo {
            Algo::Bitonic(_) | Algo::Sample { .. } => Some((self.seed, self.platform.p() * self.n)),
            Algo::Matmul(_) | Algo::MplMatmul | Algo::CmsslMatmul => None,
        }
    }

    /// Simulates the run, a sort on `input`: the keys [`Self::sort_keys`]
    /// names.
    fn run_on(&self, input: Option<&SortInput>) -> RunResult {
        let (plat, n, seed) = (&self.platform, self.n, self.seed);
        let input = || input.expect("a sort runs on its input");
        match self.algo {
            Algo::Matmul(variant) => matmul::run(plat, n, variant, seed),
            Algo::MplMatmul => vendor::maspar_matmul(plat, n, seed),
            Algo::CmsslMatmul => vendor::cmssl_matmul(plat, n, seed),
            Algo::Bitonic(mode) => bitonic::run_on(plat, input(), mode, seed),
            Algo::Sample {
                variant,
                oversampling,
            } => sample::run_on(plat, input(), oversampling, variant, seed),
        }
    }

    /// Estimated peak memory of the run, in bytes: inputs, states and the
    /// largest superstep's messages, from the per-word figures above.
    pub fn footprint(&self) -> usize {
        let (n, p) = (self.n, self.platform.p());
        match self.algo {
            Algo::Matmul(_) => MATMUL_BYTES_PER_QN2 * q_for(p) * n * n,
            Algo::MplMatmul => {
                let block = n.div_ceil(p.isqrt());
                p * (MPL_BYTES_PER_BLOCK_WORD * block * block + MPL_BYTES_PER_PROC)
            }
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

/// A key as [`run_keys`] hands it to its closure. It derefs to the
/// [`RunKey`], and its [`Job::run`] sorts the input the call's runs share.
pub struct Job<'a> {
    key: &'a RunKey,
    input: Option<&'a SortInput>,
}

impl fmt::Debug for Job<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.key.fmt(f)
    }
}

impl Job<'_> {
    /// Simulates the run as [`RunKey::run`] does, on the shared input.
    pub fn run(&self) -> RunResult {
        self.key.run_on(self.input)
    }
}

impl Deref for Job<'_> {
    type Target = RunKey;

    fn deref(&self) -> &RunKey {
        self.key
    }
}

/// The sort inputs of one [`run_keys`] call, one per distinct
/// `(seed, p·m)`, each drawn by the first run that sorts it.
struct SortInputs(Vec<((u64, usize), OnceLock<SortInput>)>);

impl SortInputs {
    fn new(keys: &[RunKey]) -> Self {
        let mut slots = Vec::new();
        for sort in keys.iter().filter_map(RunKey::sort_keys) {
            if !slots.iter().any(|(s, _)| *s == sort) {
                slots.push((sort, OnceLock::new()));
            }
        }
        Self(slots)
    }

    /// The input `key` sorts; `None` for a matmul.
    fn get(&self, key: &RunKey) -> Option<&SortInput> {
        let (seed, len) = key.sort_keys()?;
        let (_, input) = self
            .0
            .iter()
            .find(|(s, _)| *s == (seed, len))
            .expect("every sort of the call has a slot");
        Some(input.get_or_init(|| SortInput::random(len, seed)))
    }
}

/// Applies `f` to every key and returns the results in input order.
///
/// Heavy keys run first, one at a time, on the calling thread. The light
/// keys then run largest first in at most `BUDGET_BYTES / (largest light
/// footprint)` lanes, each lane one [`map_ordered`] task that runs one
/// key at a time. `f` runs each key's whole unit of work: the
/// simulation, its checks, and any re-run the figure needs. Every
/// [`Job::run`] of keys that sort the same keys shares one input.
pub fn run_keys<R, F>(keys: &[RunKey], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Job<'_>) -> R + Sync,
{
    let inputs = SortInputs::new(keys);
    let run = |i: usize| {
        let key = &keys[i];
        f(&Job {
            key,
            input: inputs.get(key),
        })
    };

    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(keys[i].footprint()));
    let split = order.partition_point(|&i| keys[i].heavy());
    let (heavy, light) = order.split_at(split);

    let mut slots: Vec<Option<R>> = keys.iter().map(|_| None).collect();
    for &i in heavy {
        slots[i] = Some(run(i));
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
            out.push((i, run(i)));
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

/// Runs every key with [`Job::run`] and returns the results in input
/// order.
///
/// # Panics
/// Panics if a run fails its output check.
pub fn run_verified(keys: &[RunKey]) -> Vec<RunResult> {
    run_keys(keys, |job| {
        let r = job.run();
        assert!(
            r.verified,
            "{:?} on {} at n = {} failed its output check",
            job.algo,
            job.platform.name(),
            job.n
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

    /// Bitonic and sample sorts on the GCel and the CM-5 (both `p` = 64,
    /// so the two machines sort the same keys at one `m`) and a matmul.
    fn mixed_keys() -> Vec<RunKey> {
        let sample = Algo::Sample {
            variant: SampleVariant::BpramStaggered,
            oversampling: 16,
        };
        let mut keys = Vec::new();
        for m in [64, 256] {
            for plat in [Platform::gcel(), Platform::cm5()] {
                keys.push(RunKey::bitonic(ExchangeMode::Words, plat, m, 3));
                keys.push(RunKey::bitonic(ExchangeMode::Block, plat, m, 3));
                keys.push(RunKey::new(sample, plat, m, 3));
            }
        }
        keys.push(RunKey::bitonic(
            ExchangeMode::Block,
            Platform::gcel(),
            64,
            4,
        ));
        keys.push(RunKey::new(
            Algo::Matmul(MatmulVariant::Bpram),
            Platform::cm5(),
            64,
            3,
        ));
        keys
    }

    #[test]
    fn shared_inputs_reproduce_standalone_runs() {
        let keys = mixed_keys();
        let shared = run_keys(&keys, |job| job.run());
        for (key, got) in keys.iter().zip(shared) {
            let alone = key.run();
            assert_eq!(
                got.time.as_micros().to_bits(),
                alone.time.as_micros().to_bits()
            );
            assert_eq!(got.breakdown, alone.breakdown, "{key:?}");
            assert!(got.verified && alone.verified, "{key:?}");
        }
    }

    #[test]
    fn each_distinct_input_is_drawn_and_sorted_once_per_call() {
        // Every run reports where its input and the sorted reference its
        // check read lie. All inputs live until the call returns, so equal
        // addresses are one input, and one reference sort.
        let keys = mixed_keys();
        let seen = run_keys(&keys, |job| {
            assert!(job.run().verified);
            job.input.map(|input| {
                (
                    input as *const SortInput as usize,
                    input.sorted().as_ptr() as usize,
                )
            })
        });
        for (a, (ka, sa)) in keys.iter().zip(&seen).enumerate() {
            assert_eq!(sa.is_some(), ka.sort_keys().is_some(), "{ka:?}");
            for (kb, sb) in keys.iter().zip(&seen).skip(a + 1) {
                if let (Some(sa), Some(sb)) = (sa, sb) {
                    let same = ka.sort_keys() == kb.sort_keys();
                    assert_eq!(sa.0 == sb.0, same, "{ka:?} and {kb:?}: one input");
                    assert_eq!(sa.1 == sb.1, same, "{ka:?} and {kb:?}: one reference");
                }
            }
        }
        // Three inputs: m = 64 and 256 at seed 3, each shared by both
        // machines, and m = 64 at seed 4.
        let mut distinct: Vec<(usize, usize)> = seen.into_iter().flatten().collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn a_cached_reference_still_rejects_tampered_outputs() {
        let input = SortInput::random(64 * 16, 5);
        let good = input.sorted().to_vec();
        assert!(input.check(good.chunks(16)));
        let mut changed = good.clone();
        changed[100] = changed[100].wrapping_add(1);
        assert!(!input.check(changed.chunks(16)), "one key changed");
        let mut swapped = good.clone();
        let j = (301..).find(|&j| good[j] != good[300]).unwrap();
        swapped.swap(300, j);
        assert!(!input.check(swapped.chunks(16)), "two keys swapped");
        assert!(input.check(good.chunks(16)));
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
