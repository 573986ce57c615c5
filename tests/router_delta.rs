//! Differential check of the rewritten delta router against the original
//! (allocating) greedy circuit-switching implementation.
//!
//! The rewrite keeps two observable invariants the cost model depends
//! on: (1) pass counts equal the reference algorithm's on every round —
//! the persistent pending buffer, stamp-keyed occupancy and exact
//! fast paths are pure optimizations; (2) `passes >= min_passes` always.
//!
//! The reference below is the seed implementation verbatim in shape:
//! fresh `Vec` allocations per pass, same `(passes * 17) % len` rotation,
//! same omega-path walk — deliberately naive so it stays obviously
//! correct.

use proptest::prelude::*;

use pcm_core::rng::{random_permutation, seeded};
use pcm_machines::maspar::router::{DeltaRouter, RouteOutcome, CLUSTER};
use rand::RngExt;

/// The seed implementation of the greedy circuit-switched router,
/// retained as an executable specification.
struct ReferenceRouter {
    p: usize,
    ports: usize,
    stages: u32,
}

impl ReferenceRouter {
    fn new(p: usize) -> Self {
        assert!(p >= CLUSTER && p.is_power_of_two());
        let ports = p / CLUSTER;
        ReferenceRouter {
            p,
            ports,
            stages: ports.trailing_zeros(),
        }
    }

    fn port_of(&self, pe: usize) -> usize {
        pe / CLUSTER
    }

    fn min_passes(&self, sends: &[(usize, usize)]) -> usize {
        let mut out_load = vec![0usize; self.ports];
        let mut in_load = vec![0usize; self.ports];
        let mut pe_in = vec![0usize; self.p];
        for &(src, dst) in sends {
            out_load[self.port_of(src)] += 1;
            in_load[self.port_of(dst)] += 1;
            pe_in[dst] += 1;
        }
        let a = out_load.into_iter().max().unwrap_or(0);
        let b = in_load.into_iter().max().unwrap_or(0);
        let c = pe_in.into_iter().max().unwrap_or(0);
        a.max(b).max(c).max(usize::from(!sends.is_empty()))
    }

    fn route(&self, sends: &[(usize, usize)]) -> RouteOutcome {
        let min_passes = self.min_passes(sends);
        if sends.is_empty() {
            return RouteOutcome {
                passes: 0,
                min_passes: 0,
            };
        }
        let mut pending: Vec<(usize, usize)> = sends.to_vec();
        let mut passes = 0usize;
        let mut src_busy = vec![0u32; self.ports];
        let mut node_busy = vec![0u32; (self.stages as usize).max(1) * self.ports];
        let mut pe_busy = vec![0u32; self.p];
        let mut stamp = 0u32;
        while !pending.is_empty() {
            passes += 1;
            stamp += 1;
            let mut next = Vec::with_capacity(pending.len() / 2);
            let offset = (passes * 17) % pending.len();
            for idx in 0..pending.len() {
                let (src, dst) = pending[(idx + offset) % pending.len()];
                let sp = self.port_of(src);
                let dp = self.port_of(dst);
                if src_busy[sp] == stamp || pe_busy[dst] == stamp {
                    next.push((src, dst));
                    continue;
                }
                if sp == dp {
                    src_busy[sp] = stamp;
                    pe_busy[dst] = stamp;
                    continue;
                }
                let mut x = sp;
                let mut path_ok = true;
                let mut path = [0usize; 16];
                for s in 0..self.stages {
                    let bit = (dp >> (self.stages - 1 - s)) & 1;
                    x = ((x << 1) | bit) & (self.ports - 1);
                    let node = s as usize * self.ports + x;
                    if node_busy[node] == stamp {
                        path_ok = false;
                        break;
                    }
                    path[s as usize] = node;
                }
                if !path_ok {
                    next.push((src, dst));
                    continue;
                }
                for &node in path.iter().take(self.stages as usize) {
                    node_busy[node] = stamp;
                }
                src_busy[sp] = stamp;
                pe_busy[dst] = stamp;
            }
            pending = next;
            assert!(passes < 1_000_000, "reference router livelock");
        }
        RouteOutcome { passes, min_passes }
    }
}

/// Routes `sends` through the rewritten router twice — the second time
/// on the scratch the first round left stamped — and checks both outcomes
/// against the reference.
fn check_round(p: usize, sends: &[(usize, usize)]) {
    let expected = ReferenceRouter::new(p).route(sends);
    let mut router = DeltaRouter::new(p);
    for leg in ["fresh", "reused"] {
        assert_eq!(
            router.route(sends),
            expected,
            "{} router diverged from reference on p={} m={}",
            leg,
            p,
            sends.len()
        );
    }
    // `min_passes` counts intra-cluster sends in the port in-loads, but
    // the router services those on the local crossbar without claiming a
    // network in-port — so the "lower bound" only binds rounds whose
    // traffic all crosses the network (seed semantics, kept verbatim).
    if sends.iter().all(|&(s, d)| s / CLUSTER != d / CLUSTER) {
        assert!(
            expected.passes >= expected.min_passes,
            "inter-cluster round beat the pass lower bound: {expected:?}"
        );
    }
}

/// A round of m messages with sources drawn without replacement and
/// destinations chosen by `kind`: 0 = permutation (bijective), 1 =
/// partial permutation (distinct dsts), 2 = fan-in to few hot PEs, 3 =
/// intra-cluster only, 4 = unrestricted random pairs.
fn build_round(p: usize, m: usize, kind: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = seeded(seed);
    let srcs = random_permutation(p, &mut rng);
    let dsts = random_permutation(p, &mut rng);
    match kind {
        0 => srcs.into_iter().zip(dsts).collect(),
        1 => srcs.into_iter().zip(dsts).take(m).collect(),
        2 => {
            let hot: Vec<usize> = dsts.into_iter().take(4).collect();
            srcs.into_iter()
                .take(m)
                .enumerate()
                .map(|(i, s)| (s, hot[i % hot.len()]))
                .collect()
        }
        3 => srcs
            .into_iter()
            .take(m)
            .map(|s| {
                let base = (s / CLUSTER) * CLUSTER;
                (s, base + rng.random_range(0..CLUSTER))
            })
            .collect(),
        _ => (0..m)
            .map(|_| (rng.random_range(0..p), rng.random_range(0..p)))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rewritten_router_matches_reference(
        p_pick in 0usize..3,
        m_frac in 1usize..9,
        kind in 0usize..5,
        seed in 0u64..10_000,
    ) {
        let p = [16, 64, 256][p_pick];
        let m = (p * m_frac / 8).max(1);
        let sends = build_round(p, m, kind, seed);
        check_round(p, &sends);
    }
}

#[test]
fn degenerate_rounds_match_reference() {
    // Shapes the fast paths special-case: empty, single message,
    // self-sends, uniform XOR masks, and everything onto one PE.
    for (p, sends) in [
        (16, vec![]),
        (16, vec![(3, 3)]),
        (64, (0..64).map(|i| (i, i ^ 21)).collect::<Vec<_>>()),
        (64, (0..64).map(|i| (i, 5)).collect::<Vec<_>>()),
        (256, (0..16).map(|i| (i, 240 + i)).collect::<Vec<_>>()),
    ] {
        let expected = ReferenceRouter::new(p).route(&sends);
        let mut router = DeltaRouter::new(p);
        assert_eq!(router.route(&sends), expected, "p={p} m={}", sends.len());
    }
}
