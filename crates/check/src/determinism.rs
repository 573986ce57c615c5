//! Layer 3: the determinism auditor.
//!
//! The simulator's results must not depend on whether processor bodies run
//! under rayon or sequentially — per-(superstep, pid) seeded RNGs and
//! ordered outbox collection are supposed to guarantee that. The auditor
//! proves it per algorithm: it runs the same closure twice — once
//! normally (processor closures fanned across the pool on big machines)
//! and once inside `pcm_sim::with_sequential` (the single-thread oracle)
//! — and compares a caller-supplied state digest (rule D01) and the full
//! superstep trace stream (rule D02) across the legs. The exchange is the
//! same fused sweep in both legs.

use pcm_algos::RunResult;
use pcm_sim::{collect_traces, with_sequential, SuperstepTrace};

use crate::rules::{RuleId, Violation};

/// FNV-1a 64-bit accumulator for building order-sensitive digests of run
/// results (sorted keys, matrix entries, simulated times, ...).
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh accumulator at the FNV offset basis.
    pub fn new() -> Self {
        Digest(Self::OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a `u64`.
    pub fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `usize`.
    pub fn push_usize(&mut self, v: usize) {
        self.push_u64(v as u64);
    }

    /// Absorbs an `f64` bit pattern (exact, no rounding tolerance: the two
    /// runs execute identical arithmetic, so bits must match).
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// Absorbs a slice of `u32` keys.
    pub fn push_u32s(&mut self, vals: &[u32]) {
        for &v in vals {
            self.push_bytes(&v.to_le_bytes());
        }
    }

    /// Absorbs a slice of `f64` values.
    pub fn push_f64s(&mut self, vals: &[f64]) {
        for &v in vals {
            self.push_f64(v);
        }
    }

    /// The accumulated digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// Digest of everything an algorithm run reports: time bits,
/// verification, the breakdown and the stats. The golden tests pin it, and
/// the sanitizer's determinism layer compares it across engines.
pub fn digest_run(r: &RunResult) -> u64 {
    let mut d = Digest::new();
    d.push_f64(r.time.as_micros());
    d.push_u64(u64::from(r.verified));
    d.push_f64(r.breakdown.compute.as_micros());
    d.push_f64(r.breakdown.comm.as_micros());
    d.push_usize(r.breakdown.supersteps);
    d.push_usize(r.breakdown.messages);
    d.push_usize(r.breakdown.bytes);
    d.push_usize(r.stats.max_bucket);
    d.push_f64(r.stats.mflops);
    d.finish()
}

/// Digest of a superstep trace stream: every costed quantity of every
/// superstep, bit-exact.
pub fn digest_traces(traces: &[SuperstepTrace]) -> u64 {
    let mut d = Digest::new();
    for t in traces {
        d.push_usize(t.index);
        d.push_f64(t.compute.as_micros());
        d.push_f64(t.comm.as_micros());
        d.push_usize(t.messages);
        d.push_usize(t.bytes);
        d.push_usize(t.h_send);
        d.push_usize(t.h_recv);
        d.push_usize(t.active);
        d.push_usize(t.block_steps);
        d.push_usize(t.block_bytes_sum);
        d.push_usize(t.word_msgs);
        d.push_usize(t.block_msgs);
        d.push_usize(t.xnet_msgs);
    }
    d.finish()
}

/// Runs `run` twice — pooled closures, then forced sequential — and
/// compares the state digest it returns (D01) and the recorded traces
/// (D02) of the pooled leg against the sequential reference.
///
/// `run` must be self-contained: construct the machine, execute the
/// algorithm with a fixed seed, and fold everything the caller considers
/// "the result" into the returned digest (use [`Digest`]).
pub fn audit_determinism(label: &str, run: impl Fn() -> u64) -> Vec<Violation> {
    let (digest, traces) = collect_traces(&run);
    let (digest_seq, traces_seq) = with_sequential(|| collect_traces(&run));

    let mut violations = Vec::new();
    if digest != digest_seq {
        violations.push(Violation {
            rule: RuleId::StateDigest,
            step: 0,
            pid: None,
            detail: format!(
                "{label}: parallel run digest {digest:#018x} != sequential {digest_seq:#018x}"
            ),
        });
    }
    if digest_traces(&traces) != digest_traces(&traces_seq) {
        let step = first_divergence(&traces, &traces_seq);
        violations.push(Violation {
            rule: RuleId::TraceDigest,
            step,
            pid: None,
            detail: format!(
                "{label}: parallel trace stream diverges from sequential at superstep {step} \
                 ({} vs {} supersteps)",
                traces.len(),
                traces_seq.len()
            ),
        });
    }
    violations
}

/// Index of the first differing superstep (or the shorter length).
fn first_divergence(a: &[SuperstepTrace], b: &[SuperstepTrace]) -> usize {
    let common = a.len().min(b.len());
    for i in 0..common {
        if a[i] != b[i] {
            return i;
        }
    }
    common
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_sim::{IdealNetwork, Machine, UniformCompute};
    use rand::RngExt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn run_ring(extra_steps: usize) -> u64 {
        let mut m = Machine::new(
            Box::new(IdealNetwork),
            Arc::new(UniformCompute::test_model()),
            vec![0u32; 8],
            42,
        );
        m.superstep(|ctx| {
            let p = ctx.nprocs();
            let draw: u32 = ctx.rng().random_range(0..1000);
            ctx.send_word_u32((ctx.pid() + 1) % p, draw);
        });
        let mut d = Digest::new();
        m.superstep(|ctx| {
            let vals: Vec<u32> = ctx.msgs().iter().map(|m| m.as_u32s()[0]).collect();
            for v in vals {
                *ctx.state = v;
            }
        });
        for _ in 0..extra_steps {
            m.sync();
        }
        for s in m.states() {
            d.push_u32s(&[*s]);
        }
        d.finish()
    }

    #[test]
    fn d01_d02_clean_on_a_deterministic_run() {
        let v = audit_determinism("ring", || run_ring(0));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn d01_fires_when_results_depend_on_the_run() {
        // Deliberately nondeterministic "result": changes on every call.
        let calls = AtomicUsize::new(0);
        let v = audit_determinism("counter", || {
            run_ring(0);
            calls.fetch_add(1, Ordering::SeqCst) as u64
        });
        let rules: Vec<RuleId> = v.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&RuleId::StateDigest), "{v:?}");
        assert!(
            !rules.contains(&RuleId::TraceDigest),
            "traces were identical: {v:?}"
        );
    }

    #[test]
    fn d02_fires_when_the_superstep_structure_drifts() {
        let calls = AtomicUsize::new(0);
        let v = audit_determinism("drift", || {
            // Second invocation executes one extra superstep.
            let extra = calls.fetch_add(1, Ordering::SeqCst);
            run_ring(extra);
            0
        });
        let rules: Vec<RuleId> = v.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&RuleId::TraceDigest), "{v:?}");
        let d02 = v.iter().find(|x| x.rule == RuleId::TraceDigest).unwrap();
        assert_eq!(d02.step, 2, "diverges where the extra sync appears");
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::new();
        a.push_u32s(&[1, 2, 3]);
        let mut b = Digest::new();
        b.push_u32s(&[3, 2, 1]);
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::new();
        c.push_u32s(&[1, 2, 3]);
        assert_eq!(a.finish(), c.finish());
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn trace_digest_covers_every_field() {
        let (_, t1) = collect_traces(|| run_ring(0));
        let mut t2 = t1.clone();
        t2[0].h_send += 1;
        assert_ne!(digest_traces(&t1), digest_traces(&t2));
        let mut t3 = t1.clone();
        t3[0].block_bytes_sum += 1;
        assert_ne!(digest_traces(&t1), digest_traces(&t3));
    }
}
