//! The MasPar MP-1 global router: a circuit-switched multistage delta
//! network with one router channel per cluster of 16 PEs.
//!
//! The router transfers a communication round in a series of *passes*.
//! In each pass, every cluster port can originate one circuit and each PE
//! can accept one message; a circuit claims one node per network stage, and
//! circuits that would collide are deferred to a later pass (greedy
//! circuit switching with retry — the MP-1's actual scheme).
//!
//! Two consequences, both reported by the paper, fall out of this
//! mechanism:
//!
//! * **bit-permute permutations are cheap** — a permutation that flips one
//!   address bit maps clusters to clusters bijectively and routes through
//!   the delta network without internal conflicts, finishing in the minimum
//!   16 passes (one per PE of a cluster). Random permutations collide
//!   internally and need roughly twice as many passes, which is why the
//!   bitonic exchange costs about half of what `g + L` predicts (Fig. 5);
//! * **partial permutations are cheap** — with `P'` active PEs the port
//!   loads shrink, pass counts drop, and the measured time follows the
//!   paper's `T_unb(P') = 0.84·P' + 11.8·sqrt(P') + 73.3` curve (Fig. 2).

/// PEs per router cluster (one router channel each) on the MP-1.
pub const CLUSTER: usize = 16;

/// Cumulative routed-round totals of a [`DeltaRouter`], for the tracing
/// layer. The totals are a pure function of the round sequence, so they
/// are bit-reproducible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterTotals {
    /// Non-empty rounds routed.
    pub rounds: u64,
    /// Cumulative greedy passes across those rounds.
    pub passes: u64,
    /// Cumulative information-theoretic minimum passes.
    pub min_passes: u64,
}

/// The router's pass-count outcome for one communication round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouteOutcome {
    /// Passes the greedy circuit switching actually needed.
    pub passes: usize,
    /// Information-theoretic minimum passes for the round: the largest of
    /// the per-port send loads, per-port receive loads and per-PE receive
    /// degrees.
    pub min_passes: usize,
}

/// One undelivered message on the slow path: source port, destination
/// port and destination PE are all the route needs (the source PE only
/// matters through its port).
#[derive(Clone, Copy, Debug)]
struct Pend {
    sp: u16,
    dp: u16,
    dst: u32,
}

/// A delta/omega network over `P/16` cluster ports.
///
/// The router owns persistent scratch (pending double-buffer, stamp-keyed
/// occupancy maps, load counters) reused across [`DeltaRouter::route`]
/// calls, which is why routing takes `&mut self`: after a warm-up round
/// the simulation allocates nothing.
#[derive(Clone, Debug)]
pub struct DeltaRouter {
    p: usize,
    ports: usize,
    stages: u32,
    /// Messages not yet delivered, in retry order (this pass reads it).
    pending: Vec<Pend>,
    /// Survivors of the current pass (next pass's `pending`).
    deferred: Vec<Pend>,
    /// Pass-stamped occupancy: port origination, stage nodes, PE arrival.
    /// One word per entity keeps pass probes independent (good ILP); the
    /// stamp key makes the per-pass "clear" free.
    src_busy: Vec<u32>,
    node_busy: Vec<u32>,
    pe_busy: Vec<u32>,
    /// Current pass stamp for the `*_busy` maps.
    stamp: u32,
    /// Round-stamped load counters behind the pass lower bound.
    out_load: Vec<u32>,
    in_load: Vec<u32>,
    pe_in: Vec<u32>,
    load_stamp: Vec<u32>,
    pe_stamp: Vec<u32>,
    /// Round-stamped "this PE already sent" marker (fast-path gating).
    src_seen: Vec<u32>,
    round: u32,
    /// Cumulative routed-round totals (observability only; never read by
    /// the pricing path).
    totals: RouterTotals,
}

impl DeltaRouter {
    /// Builds the router for `p` PEs.
    ///
    /// # Panics
    /// Panics unless `p` is a power of two with at least one full cluster
    /// (16 PEs), so that the port count is a power of two.
    pub fn new(p: usize) -> Self {
        assert!(
            p >= CLUSTER && p.is_power_of_two(),
            "MasPar router needs a power-of-two PE count >= {CLUSTER}, got {p}"
        );
        let ports = p / CLUSTER;
        let stages = ports.trailing_zeros();
        DeltaRouter {
            p,
            ports,
            stages,
            pending: Vec::new(),
            deferred: Vec::new(),
            src_busy: vec![0; ports],
            node_busy: vec![0; (stages as usize).max(1) * ports],
            pe_busy: vec![0; p],
            stamp: 0,
            out_load: vec![0; ports],
            in_load: vec![0; ports],
            pe_in: vec![0; p],
            load_stamp: vec![0; ports],
            pe_stamp: vec![0; p],
            src_seen: vec![0; p],
            round: 0,
            totals: RouterTotals::default(),
        }
    }

    /// Cumulative routed-round totals (see [`RouterTotals`]).
    pub fn totals(&self) -> RouterTotals {
        self.totals
    }

    /// Number of cluster ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Routes one round of `(src PE, dst PE)` messages and reports the
    /// pass counts. Deterministic: retry order rotates with the pass index.
    ///
    /// Rounds whose shape makes the greedy retry loop provably achieve
    /// `min_passes` (uniform XOR-mask permutations, single-destination
    /// fan-in, single-port fan-out) are priced in O(m) without simulating
    /// a single pass; everything else runs the greedy pass simulation on
    /// persistent scratch, bit-identical to the original retry loop.
    pub fn route(&mut self, sends: &[(usize, usize)]) -> RouteOutcome {
        if sends.is_empty() {
            return RouteOutcome {
                passes: 0,
                min_passes: 0,
            };
        }
        let out = self.simulate(sends);
        self.totals.rounds += 1;
        self.totals.passes += out.passes as u64;
        self.totals.min_passes += out.min_passes as u64;
        out
    }

    /// The fast paths and greedy pass simulation behind
    /// [`DeltaRouter::route`]. `sends` must be non-empty.
    fn simulate(&mut self, sends: &[(usize, usize)]) -> RouteOutcome {
        // One O(m) analysis pass: the load lower bound plus the
        // round-shape flags that gate the exact fast paths.
        if self.round == u32::MAX {
            self.load_stamp.fill(0);
            self.pe_stamp.fill(0);
            self.src_seen.fill(0);
            self.round = 0;
        }
        self.round += 1;
        let round = self.round;
        let (s0, d0) = sends[0];
        let mask = s0 ^ d0;
        let sp0 = s0 / CLUSTER;
        let mut uniform_mask = true;
        let mut srcs_distinct = true;
        let mut single_dst = true;
        let mut single_src_port = true;
        let (mut max_out, mut max_in, mut max_pe) = (0u32, 0u32, 0u32);
        for &(src, dst) in sends {
            debug_assert!(src < self.p && dst < self.p, "PE id out of range");
            uniform_mask &= (src ^ dst) == mask;
            single_dst &= dst == d0;
            let (sp, dp) = (src / CLUSTER, dst / CLUSTER);
            single_src_port &= sp == sp0;
            if self.load_stamp[sp] != round {
                self.load_stamp[sp] = round;
                self.out_load[sp] = 0;
                self.in_load[sp] = 0;
            }
            self.out_load[sp] += 1;
            max_out = max_out.max(self.out_load[sp]);
            if self.load_stamp[dp] != round {
                self.load_stamp[dp] = round;
                self.out_load[dp] = 0;
                self.in_load[dp] = 0;
            }
            self.in_load[dp] += 1;
            max_in = max_in.max(self.in_load[dp]);
            if self.pe_stamp[dst] != round {
                self.pe_stamp[dst] = round;
                self.pe_in[dst] = 0;
            }
            self.pe_in[dst] += 1;
            max_pe = max_pe.max(self.pe_in[dst]);
            srcs_distinct &= self.src_seen[src] != round;
            self.src_seen[src] = round;
        }
        let min_passes = max_out.max(max_in).max(max_pe).max(1) as usize;

        // Exact fast paths — each shape routes in exactly `min_passes`
        // greedy passes, so the simulation can be skipped outright:
        //
        // * uniform XOR mask with distinct sources: `dst = src ^ mask`
        //   implies `dp = sp ^ (mask/16)`, and an XOR-by-constant port
        //   permutation walks the omega stages conflict-free (two circuits
        //   agreeing on any stage node must agree on all address bits).
        //   Destinations are distinct, so no PE blocks either; each port
        //   drains one message per pass and finishes in max-port-load =
        //   `min_passes` passes. This covers every hypercube/bit-flip
        //   exchange — the bitonic hot path.
        // * single destination PE: the PE accepts exactly one message per
        //   pass, so any greedy order needs exactly `m = min_passes`.
        // * single source port: the port originates exactly one circuit
        //   per pass; again exactly `m = min_passes` passes.
        if (uniform_mask && srcs_distinct) || single_dst || single_src_port {
            return RouteOutcome {
                passes: min_passes,
                min_passes,
            };
        }

        self.pending.clear();
        for &(src, dst) in sends {
            #[allow(clippy::cast_possible_truncation)] // ports <= 2^16, p <= 2^32
            self.pending.push(Pend {
                sp: (src / CLUSTER) as u16,
                dp: (dst / CLUSTER) as u16,
                dst: dst as u32,
            });
        }
        let mut passes = 0usize;
        while !self.pending.is_empty() {
            passes += 1;
            if self.stamp == u32::MAX {
                self.src_busy.fill(0);
                self.node_busy.fill(0);
                self.pe_busy.fill(0);
                self.stamp = 0;
            }
            self.stamp += 1;
            let stamp = self.stamp;
            self.deferred.clear();
            // Rotate the service order so no message starves. The wrapped
            // index is folded with one compare instead of a per-access
            // modulo — same visit order as `pending[(idx + offset) % len]`.
            let len = self.pending.len();
            let offset = (passes * 17) % len;
            for i in 0..len {
                let idx = if i + offset >= len {
                    i + offset - len
                } else {
                    i + offset
                };
                let m = self.pending[idx];
                let sp = m.sp as usize;
                let dst = m.dst as usize;
                if self.src_busy[sp] == stamp || self.pe_busy[dst] == stamp {
                    self.deferred.push(m);
                    continue;
                }
                let dp = m.dp as usize;
                if sp != dp {
                    // Walk the omega path; conflict if any stage node is
                    // taken. (Intra-cluster transfers use the port's local
                    // crossbar only — no internal network nodes.)
                    let mut x = sp;
                    let mut path_ok = true;
                    let mut path = [0usize; 16];
                    #[allow(clippy::needless_range_loop)] // `s` also drives the bit walk
                    for s in 0..self.stages as usize {
                        let bit = (dp >> (self.stages as usize - 1 - s)) & 1;
                        x = ((x << 1) | bit) & (self.ports - 1);
                        let node = s * self.ports + x;
                        if self.node_busy[node] == stamp {
                            path_ok = false;
                            break;
                        }
                        path[s] = node;
                    }
                    if !path_ok {
                        self.deferred.push(m);
                        continue;
                    }
                    for &node in path.iter().take(self.stages as usize) {
                        self.node_busy[node] = stamp;
                    }
                }
                self.src_busy[sp] = stamp;
                self.pe_busy[dst] = stamp;
            }
            std::mem::swap(&mut self.pending, &mut self.deferred);
            assert!(
                passes < 1_000_000,
                "router livelock: {} messages stuck",
                self.pending.len()
            );
        }
        RouteOutcome { passes, min_passes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_core::rng::{random_permutation, seeded};
    use pcm_sim::topology::hypercube_partner;

    #[test]
    fn empty_round_is_free() {
        let mut r = DeltaRouter::new(1024);
        assert_eq!(
            r.route(&[]),
            RouteOutcome {
                passes: 0,
                min_passes: 0
            }
        );
    }

    #[test]
    fn single_message_routes_in_one_pass() {
        let mut r = DeltaRouter::new(1024);
        let out = r.route(&[(3, 997)]);
        assert_eq!(out.passes, 1);
        assert_eq!(out.min_passes, 1);
    }

    #[test]
    fn bit_flip_permutations_achieve_the_minimum() {
        let mut r = DeltaRouter::new(1024);
        for bit in [0u32, 3, 4, 7, 9] {
            let sends: Vec<(usize, usize)> =
                (0..1024).map(|i| (i, hypercube_partner(i, bit))).collect();
            let out = r.route(&sends);
            assert_eq!(out.min_passes, CLUSTER);
            assert_eq!(
                out.passes, CLUSTER,
                "bit {bit} permutation should be conflict-free"
            );
        }
    }

    #[test]
    fn random_permutations_need_more_passes_than_bit_flips() {
        let mut r = DeltaRouter::new(1024);
        let mut rng = seeded(11);
        let mut total = 0usize;
        for _ in 0..5 {
            let perm = random_permutation(1024, &mut rng);
            let sends: Vec<(usize, usize)> = perm.into_iter().enumerate().collect();
            let out = r.route(&sends);
            assert!(out.passes >= out.min_passes);
            total += out.passes;
        }
        let avg = total as f64 / 5.0;
        assert!(
            avg > 1.5 * CLUSTER as f64,
            "random permutations should collide internally (avg {avg} passes)"
        );
    }

    #[test]
    fn hot_receiver_serializes() {
        let mut r = DeltaRouter::new(64);
        // 32 PEs all send to PE 0.
        let sends: Vec<(usize, usize)> = (16..48).map(|i| (i, 0)).collect();
        let out = r.route(&sends);
        assert!(out.min_passes >= 32);
        assert!(out.passes >= 32);
    }

    #[test]
    fn partial_permutations_use_fewer_passes() {
        let mut r = DeltaRouter::new(1024);
        let mut rng = seeded(12);
        let (s, d) = pcm_core::rng::random_partial_permutation(1024, 32, &mut rng);
        let sends: Vec<(usize, usize)> = s.into_iter().zip(d).collect();
        let out = r.route(&sends);
        assert!(
            out.passes <= 8,
            "32 active PEs should route quickly, got {} passes",
            out.passes
        );
    }

    #[test]
    fn intra_cluster_traffic_avoids_the_network() {
        let mut r = DeltaRouter::new(64);
        // Every PE sends to its neighbour inside the same cluster.
        let sends: Vec<(usize, usize)> = (0..64)
            .map(|i| (i, (i / CLUSTER) * CLUSTER + ((i + 1) % CLUSTER)))
            .collect();
        let out = r.route(&sends);
        assert_eq!(out.passes, CLUSTER, "port serialization only");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_odd_sizes() {
        DeltaRouter::new(100);
    }

    #[test]
    fn determinism() {
        let mut r = DeltaRouter::new(256);
        let mut rng = seeded(5);
        let perm = random_permutation(256, &mut rng);
        let sends: Vec<(usize, usize)> = perm.into_iter().enumerate().collect();
        assert_eq!(r.route(&sends), r.route(&sends));
    }
}
