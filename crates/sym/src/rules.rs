//! Symbolic verification rule identifiers and the finding record.
//!
//! Every certificate the symbolic verifier checks has a stable `S`-prefixed
//! rule id, continuing the analyzer numbering convention (`R`/`C`/`D`
//! sanitizer, `W` races, `A` schedule audit). `S` rules fire on the *typed
//! closed forms* the predictors declare — no simulation is needed to break
//! one; a finding means a formula or a declared precondition is wrong, or
//! a formula's values moved off the pinned ones.

/// Stable identifier of one symbolic verification rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SymRule {
    /// A closed form does not reduce to µs under the declared units
    /// (words/bytes confusion, a bare `g + L` sum, an undeclared symbol).
    Units,
    /// An experiment sweeps a grid point outside the predictor's declared
    /// domain (divisibility, minimum size, processor shape).
    Domain,
    /// A declared cross-model dominance lemma has no symbolic certificate,
    /// or a numeric spot check contradicts it.
    Dominance,
    /// An evaluated expression differs by more than 1 ulp from its pinned
    /// value on the randomized parameter grid.
    Differential,
    /// The communication part's leading term disagrees with the growth of
    /// the family's `CostContract` volume bound, or the contract's bounds
    /// fail shape certification.
    LeadingTerm,
    /// A word/block crossover is missing, lies outside its bracketed
    /// range, or the winners on either side do not flip as certified.
    Crossover,
}

impl SymRule {
    /// The stable textual id, e.g. `"S03-dominance"`.
    pub fn id(self) -> &'static str {
        match self {
            SymRule::Units => "S01-units",
            SymRule::Domain => "S02-domain",
            SymRule::Dominance => "S03-dominance",
            SymRule::Differential => "S04-differential",
            SymRule::LeadingTerm => "S05-leading-term",
            SymRule::Crossover => "S06-crossover",
        }
    }
}

impl std::fmt::Display for SymRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One symbolic verification finding, carrying the full coordinate so a
/// report line is reproducible on its own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: SymRule,
    /// Algorithm family (`matmul`, `bitonic`, ...).
    pub family: String,
    /// Cost model within the family (`bsp`, `mp_bsp`, `bpram`, ...; empty
    /// for family-level findings).
    pub model: String,
    /// Machine the formula was instantiated on (empty when
    /// machine-independent).
    pub machine: String,
    /// Problem size the finding names (0 when size-independent).
    pub n: usize,
    /// Processor count the finding names (0 when shape-independent).
    pub p: usize,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.family)?;
        if !self.model.is_empty() {
            write!(f, "/{}", self.model)?;
        }
        if !self.machine.is_empty() {
            write!(f, " on {}", self.machine)?;
        }
        if self.n > 0 || self.p > 0 {
            write!(f, " n={} p={}", self.n, self.p)?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Renders a finding list for failure messages: one per line.
pub fn render(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_distinct() {
        let all = [
            SymRule::Units,
            SymRule::Domain,
            SymRule::Dominance,
            SymRule::Differential,
            SymRule::LeadingTerm,
            SymRule::Crossover,
        ];
        let mut ids: Vec<&str> = all.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len(), "rule ids must be unique");
        assert!(all.iter().all(|r| {
            let id = r.id();
            id.starts_with('S') && id.as_bytes()[3] == b'-'
        }));
    }

    #[test]
    fn findings_render_with_coordinate() {
        let f = Finding {
            rule: SymRule::Dominance,
            family: "matmul".into(),
            model: "bsp".into(),
            machine: "MasPar".into(),
            n: 100,
            p: 1024,
            detail: "no certificate".into(),
        };
        let s = f.to_string();
        assert!(s.contains("S03-dominance"));
        assert!(s.contains("matmul/bsp"));
        assert!(s.contains("on MasPar"));
        assert!(s.contains("n=100 p=1024"));
    }

    #[test]
    fn render_joins_one_finding_per_line() {
        let f = Finding {
            rule: SymRule::Units,
            family: "lu".into(),
            model: String::new(),
            machine: String::new(),
            n: 0,
            p: 0,
            detail: "dim".into(),
        };
        let s = render(&[f.clone(), f]);
        assert_eq!(s.lines().count(), 2);
    }
}
