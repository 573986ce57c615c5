//! `TRACE_report.json`: per-run cost attribution in machine-readable,
//! *byte-deterministic* JSON.
//!
//! The committed report is a CI drift gate (regenerate, `git diff
//! --exit-code`), so it may only contain simulated quantities: clocks,
//! cost terms, record counts, memo counters. Wall-clock phase totals are
//! inherently non-deterministic and are therefore opt-in
//! ([`RunRecord::wall`], `None` in the committed artifact) — they belong
//! in the Chrome export and on stderr, not in the gate.
//!
//! Float formatting uses Rust's default `Display` for `f64` (shortest
//! round-trip decimal): identical bits render identically, and every
//! value here is produced by a fully deterministic simulation.

use pcm_core::fsio::json_escape;
use pcm_sim::cache::CacheStats;
use pcm_sim::{NetTerms, PhaseNanos};

/// Schema tag written into the report.
pub const SCHEMA: &str = "pcm-trace-report/v1";

/// One replayed algorithm×machine×(n,p) point.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Algorithm family (registry name).
    pub family: String,
    /// Variant within the family.
    pub variant: String,
    /// Platform name.
    pub machine: String,
    /// Problem size.
    pub n: usize,
    /// Processor count.
    pub p: usize,
    /// Result matched the sequential reference.
    pub verified: bool,
    /// Per-step attribution reproduced the clock bit-identically.
    pub exact: bool,
    /// Final simulated clock, µs.
    pub total_us: f64,
    /// Σ compute term (the model's `s·w` side), µs.
    pub compute_us: f64,
    /// Σ communication term (route + barrier: `g·h` + `L`), µs.
    pub comm_us: f64,
    /// Barrier (`L`) share of `comm_us`, from the network's cost terms.
    pub barrier_us: f64,
    /// Supersteps observed.
    pub steps: u64,
    /// Supersteps that priced a bare barrier.
    pub barrier_steps: u64,
    /// Total send records.
    pub records: u64,
    /// Deterministic network cost-term counters, if the model reports them.
    pub terms: Option<NetTerms>,
    /// Route-memo counters, if the model memoizes.
    pub memo: Option<CacheStats>,
    /// Wall-clock engine-phase totals (ns). `None` in the committed
    /// report; `Some` only for local diagnostics.
    pub wall: Option<PhaseNanos>,
}

impl RunRecord {
    /// Route (`g·h`) share of `comm_us`: whatever the barrier term does
    /// not account for.
    pub fn net_us(&self) -> f64 {
        self.comm_us - self.barrier_us
    }
}

/// The full report: every replayed point plus the replay configuration.
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Seed every replay used.
    pub seed: u64,
    /// The replayed points.
    pub runs: Vec<RunRecord>,
}

impl TraceReport {
    /// `true` iff every run verified and attributed exactly.
    pub fn all_exact(&self) -> bool {
        self.runs.iter().all(|r| r.verified && r.exact)
    }

    /// Renders the deterministic JSON document.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"config\": {{ \"seed\": {} }},\n", self.seed));
        s.push_str(&format!("  \"all_exact\": {},\n", self.all_exact()));
        s.push_str("  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let comma = if i + 1 == self.runs.len() { "" } else { "," };
            s.push_str("    {\n");
            s.push_str(&format!(
                "      \"point\": \"{}/{}/{}/n{}/p{}\",\n",
                json_escape(&r.family),
                json_escape(&r.variant),
                json_escape(&r.machine),
                r.n,
                r.p
            ));
            s.push_str(&format!(
                "      \"verified\": {}, \"exact\": {},\n",
                r.verified, r.exact
            ));
            s.push_str(&format!(
                "      \"cost_us\": {{ \"total\": {}, \"compute\": {}, \"comm\": {}, \"barrier\": {}, \"net\": {} }},\n",
                r.total_us, r.compute_us, r.comm_us, r.barrier_us, r.net_us()
            ));
            s.push_str(&format!(
                "      \"steps\": {{ \"total\": {}, \"barrier_only\": {}, \"records\": {} }}",
                r.steps, r.barrier_steps, r.records
            ));
            if let Some(t) = r.terms {
                s.push_str(&format!(
                    ",\n      \"net_terms\": {{ \"routes\": {}, \"barriers\": {}, \"barrier_us\": {}, \"router_rounds\": {}, \"router_passes\": {}, \"router_min_passes\": {} }}",
                    t.routes, t.barriers, t.barrier_us, t.router_rounds, t.router_passes, t.router_min_passes
                ));
            }
            if let Some(m) = r.memo {
                s.push_str(&format!(
                    ",\n      \"route_memo\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \"bypasses\": {} }}",
                    m.hits, m.misses, m.evictions, m.bypasses
                ));
            }
            if let Some(w) = r.wall {
                s.push_str(&format!(
                    ",\n      \"wall_ns\": {{ \"compute\": {}, \"scatter\": {}, \"price\": {}, \"gather\": {}, \"recycle\": {} }}",
                    w.compute, w.scatter, w.price, w.gather, w.recycle
                ));
            }
            s.push_str(&format!("\n    }}{comma}\n"));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RunRecord {
        RunRecord {
            family: String::from("matmul"),
            variant: String::from("BspStaggered"),
            machine: String::from("MasPar MP-1"),
            n: 8,
            p: 16,
            verified: true,
            exact: true,
            total_us: 123.5,
            compute_us: 100.0,
            comm_us: 23.5,
            barrier_us: 3.5,
            steps: 7,
            barrier_steps: 1,
            records: 96,
            terms: None,
            memo: None,
            wall: None,
        }
    }

    #[test]
    fn renders_deterministically() {
        let rep = TraceReport {
            seed: 2026,
            runs: vec![record()],
        };
        let a = rep.render();
        let b = rep.render();
        assert_eq!(a, b, "identical inputs must render identical bytes");
        assert!(a.contains("\"schema\": \"pcm-trace-report/v1\""));
        assert!(a.contains("matmul/BspStaggered/MasPar MP-1/n8/p16"));
        assert!(a.contains("\"net\": 20"), "net = comm - barrier");
        assert!(
            !a.contains("wall_ns"),
            "committed form carries no wall time"
        );
    }

    #[test]
    fn wall_section_is_opt_in() {
        let mut r = record();
        r.wall = Some(PhaseNanos {
            compute: 10,
            scatter: 0,
            price: 5,
            gather: 2,
            recycle: 0,
        });
        let rep = TraceReport {
            seed: 1,
            runs: vec![r],
        };
        assert!(rep.render().contains("\"wall_ns\""));
    }

    #[test]
    fn all_exact_requires_both_flags() {
        let mut bad = record();
        bad.exact = false;
        let rep = TraceReport {
            seed: 1,
            runs: vec![record(), bad],
        };
        assert!(!rep.all_exact());
        assert!(rep.render().contains("\"all_exact\": false"));
    }
}
