//! Communication microbenchmarks — the experiments of Section 3 of the
//! paper, run against the simulated machines.
//!
//! Each benchmark builds a communication plan (deterministically from a
//! seed), executes it as one superstep on a fresh machine and reports the
//! simulated time. Repeated trials with different pattern draws give the
//! mean and min/max spread the paper plots as error bars.
//!
//! The trials are independent simulations, so most benchmarks run them
//! side by side with [`map_ordered`], one whole machine per task; results
//! come back in trial order and do not depend on the pool width.

use pcm_core::rng::{
    one_h_relation as draw_one_h, random_h_relation, random_partial_permutation,
    random_permutation, seeded,
};
use pcm_core::stats::Summary;
use pcm_core::SimTime;
use pcm_machines::Platform;
use pcm_sim::topology::hypercube_partner;
use pcm_sim::{map_ordered, with_sequential};

/// One planned send of the microbenchmark superstep.
#[derive(Clone, Copy, Debug)]
pub enum PlannedSend {
    /// `count` word messages to `dst`.
    Words {
        /// Destination processor.
        dst: usize,
        /// Number of word messages.
        count: usize,
    },
    /// One block of `words` machine words to `dst`.
    Block {
        /// Destination processor.
        dst: usize,
        /// Block length in words.
        words: usize,
    },
}

/// Executes a communication plan as a single superstep and returns its
/// simulated time (including the closing barrier).
pub fn measure(platform: &Platform, plan: &[Vec<PlannedSend>], seed: u64) -> SimTime {
    assert_eq!(plan.len(), platform.p());
    let mut machine = platform.machine(vec![(); platform.p()], seed);
    machine.superstep(|ctx| {
        for send in &plan[ctx.pid()] {
            match *send {
                PlannedSend::Words { dst, count } => {
                    ctx.send_words_u32(dst, &vec![0u32; count]);
                }
                PlannedSend::Block { dst, words } => {
                    ctx.send_block_u32(dst, &vec![0u32; words]);
                }
            }
        }
    });
    machine.time()
}

/// The cost of a barrier-only superstep — subtracted by fits that isolate
/// per-message costs.
pub fn barrier_time(platform: &Platform, seed: u64) -> SimTime {
    let mut machine = platform.machine(vec![(); platform.p()], seed);
    machine.sync();
    machine.time()
}

fn summarize(times: Vec<SimTime>) -> Summary {
    Summary::from_times(&times).expect("at least one trial")
}

/// Runs `trial(t)` for every `t < trials`, side by side on the pool, and
/// summarizes the simulated times in trial order.
fn run_trials(trials: usize, trial: impl Fn(usize) -> SimTime + Sync) -> Summary {
    summarize(map_ordered((0..trials).collect(), |_, t| trial(t)))
}

/// The MasPar Fig. 1 experiment: the ACU picks `ceil(P/h)` destinations;
/// every processor sends one `w`-byte word so that each destination
/// receives (at most) `h` messages.
pub fn one_h_relation(platform: &Platform, h: usize, trials: usize, seed: u64) -> Summary {
    let p = platform.p();
    run_trials(trials, |t| {
        let mut rng = seeded(seed.wrapping_add(t as u64));
        let dests = draw_one_h(p, h, &mut rng);
        let plan: Vec<Vec<PlannedSend>> = dests
            .into_iter()
            .map(|dst| vec![PlannedSend::Words { dst, count: 1 }])
            .collect();
        measure(platform, &plan, seed ^ t as u64)
    })
}

/// The Fig. 2 experiment: a random partial permutation with `active`
/// participating processors.
pub fn partial_permutation(
    platform: &Platform,
    active: usize,
    trials: usize,
    seed: u64,
) -> Summary {
    let p = platform.p();
    run_trials(trials, |t| {
        let mut rng = seeded(seed.wrapping_add(t as u64));
        let (senders, receivers) = random_partial_permutation(p, active, &mut rng);
        let mut plan: Vec<Vec<PlannedSend>> = vec![Vec::new(); p];
        for (s, d) in senders.into_iter().zip(receivers) {
            plan[s].push(PlannedSend::Words { dst: d, count: 1 });
        }
        measure(platform, &plan, seed ^ t as u64)
    })
}

/// A randomly generated full `h`-relation (`h` overlaid random
/// permutations) — the GCel/CM-5 `g`/`L` calibration pattern.
pub fn full_h_relation(platform: &Platform, h: usize, trials: usize, seed: u64) -> Summary {
    let p = platform.p();
    run_trials(trials, |t| {
        let mut rng = seeded(seed.wrapping_add(t as u64));
        let dests = random_h_relation(p, h, &mut rng);
        let plan: Vec<Vec<PlannedSend>> = dests
            .into_iter()
            .map(|ds| {
                ds.into_iter()
                    .map(|dst| PlannedSend::Words { dst, count: 1 })
                    .collect()
            })
            .collect();
        measure(platform, &plan, seed ^ t as u64)
    })
}

/// A full random block permutation of `m` bytes per processor — the
/// `sigma`/`ell` calibration pattern.
///
/// The trials run one after another, unlike the other benchmarks: a trial
/// holds `p * bytes` of payload (16 MiB for Table 1's 16 KiB MasPar
/// point), so two at once would double the reproduction's peak memory.
/// Each trial's closures also run on the calling thread
/// ([`with_sequential`]): pooled, the payloads would be allocated from two
/// threads' heaps, and Table 1's peak would swing between about 21 and
/// 29 MiB from run to run.
pub fn block_permutation(platform: &Platform, bytes: usize, trials: usize, seed: u64) -> Summary {
    let p = platform.p();
    let w = platform.word();
    let times = (0..trials)
        .map(|t| {
            let mut rng = seeded(seed.wrapping_add(t as u64));
            let perm = random_permutation(p, &mut rng);
            let plan: Vec<Vec<PlannedSend>> = perm
                .into_iter()
                .map(|dst| {
                    vec![PlannedSend::Block {
                        dst,
                        words: bytes / w,
                    }]
                })
                .collect();
            with_sequential(|| measure(platform, &plan, seed ^ t as u64))
        })
        .collect();
    summarize(times)
}

/// The Fig. 7 experiment: `h` repetitions of one identical permutation
/// ("h-h permutations"), optionally with a synchronizing barrier every
/// `resync` messages.
pub fn hh_permutation(platform: &Platform, h: usize, resync: Option<usize>, seed: u64) -> SimTime {
    let p = platform.p();
    let mut rng = seeded(seed);
    let perm = random_permutation(p, &mut rng);
    let mut machine = platform.machine(vec![(); p], seed);
    let chunk = resync.unwrap_or(h).max(1);
    let mut remaining = h;
    while remaining > 0 {
        let now = remaining.min(chunk);
        machine.superstep(|ctx| {
            let dst = perm[ctx.pid()];
            ctx.send_words_u32(dst, &vec![0u32; now]);
        });
        remaining -= now;
    }
    machine.time()
}

/// The Fig. 14 experiment: `sqrt(P)` source processors scatter `h`
/// messages each across the remaining processors.
pub fn multinode_scatter(platform: &Platform, h: usize, trials: usize, seed: u64) -> Summary {
    let p = platform.p();
    let senders = p.isqrt();
    let receivers: Vec<usize> = (senders..p).collect();
    run_trials(trials, |t| {
        let mut plan: Vec<Vec<PlannedSend>> = vec![Vec::new(); p];
        for (s, row) in plan.iter_mut().enumerate().take(senders) {
            for i in 0..h {
                // Spread deterministically but staggered per sender.
                let dst = receivers[(i * senders + s) % receivers.len()];
                row.push(PlannedSend::Words { dst, count: 1 });
            }
        }
        measure(platform, &plan, seed ^ t as u64)
    })
}

/// A bit-flip (hypercube-neighbour) permutation — the pattern of bitonic
/// sort, Section 5.1's "especially cheap" MasPar pattern.
pub fn bitflip_permutation(platform: &Platform, bit: u32, seed: u64) -> SimTime {
    let p = platform.p();
    assert!(p.is_power_of_two() && (1usize << bit) < p);
    let plan: Vec<Vec<PlannedSend>> = (0..p)
        .map(|i| {
            vec![PlannedSend::Words {
                dst: hypercube_partner(i, bit),
                count: 1,
            }]
        })
        .collect();
    measure(platform, &plan, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_time_is_positive_and_small() {
        let b = barrier_time(&Platform::cm5(), 1);
        assert!((b.as_micros() - 45.0).abs() < 1.0);
    }

    #[test]
    fn full_h_relation_scales_linearly_on_cm5() {
        let plat = Platform::cm5();
        let t1 = full_h_relation(&plat, 4, 3, 2).mean;
        let t2 = full_h_relation(&plat, 16, 3, 2).mean;
        let slope = (t2 - t1) / 12.0;
        assert!((slope - 9.1).abs() < 1.0, "slope = {slope}");
    }

    #[test]
    fn one_h_relation_summary_has_spread_on_maspar() {
        let s = one_h_relation(&Platform::maspar(), 4, 5, 3);
        assert!(s.max >= s.mean && s.mean >= s.min);
        assert!(s.n == 5);
    }

    #[test]
    fn hh_resync_never_slower_than_unsynced_at_large_h() {
        let plat = Platform::gcel();
        let unsynced = hh_permutation(&plat, 1500, None, 4);
        let synced = hh_permutation(&plat, 1500, Some(256), 4);
        // Resync adds barriers but kills the drift penalty; at large h the
        // drift dominates.
        assert!(synced < unsynced, "{synced} vs {unsynced}");
    }

    #[test]
    fn scatter_faster_than_h_relation_on_gcel() {
        let plat = Platform::gcel();
        let h = 28;
        let scat = multinode_scatter(&plat, h, 2, 5).mean;
        let full = full_h_relation(&plat, h, 2, 5).mean;
        assert!(scat * 5.0 < full, "scatter {scat} vs full {full}");
    }

    #[test]
    fn bitflip_cheaper_than_random_on_maspar() {
        let plat = Platform::maspar();
        let flip = bitflip_permutation(&plat, 3, 6).as_micros();
        let rand = partial_permutation(&plat, 1024, 3, 6).mean;
        assert!(flip < 0.7 * rand, "bitflip {flip} vs random {rand}");
    }
}
