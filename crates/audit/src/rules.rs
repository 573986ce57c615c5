//! Audit rule identifiers and the finding record.
//!
//! Every certificate the static auditor checks has a stable `A`-prefixed
//! rule id, continuing the sanitizer's numbering convention (`R` protocol,
//! `D` determinism, `W` races). Unlike those layers, `A`
//! rules fire on the schedule of a *dry* run — no network pricing ever
//! executed — so a finding here means the schedule itself, not its cost,
//! is wrong.

/// Stable identifier of one static audit rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AuditRule {
    /// A message was sent and never arrived, arrived from nowhere, or was
    /// delivered and never consumed before the machine dropped.
    MsgConservation,
    /// The superstep schedule is malformed: non-contiguous step indices or
    /// per-processor vectors that disagree with the machine width `P`.
    BarrierAlignment,
    /// A superstep's static h-relation, or the run's superstep count,
    /// exceeds the bound the family's `CostContract` declares.
    HBound,
    /// A superstep's receive volume exceeds the family's declared buffer
    /// envelope, or a single transfer exceeds the pooled payload classes.
    BufferCapacity,
    /// Word traffic used a per-message size that is neither the machine
    /// word nor a packet size the family declares, or one too large for
    /// the inline payload fast path.
    SizeClass,
    /// The contract's closed-form bounds have the wrong symbolic shape
    /// (shrink with `n`, lose volume with `p`, or an empty step range).
    Monotonicity,
}

impl AuditRule {
    /// The stable textual id, e.g. `"A03-h-bound"`.
    pub fn id(self) -> &'static str {
        match self {
            AuditRule::MsgConservation => "A01-msg-conservation",
            AuditRule::BarrierAlignment => "A02-barrier-alignment",
            AuditRule::HBound => "A03-h-bound",
            AuditRule::BufferCapacity => "A04-buffer-capacity",
            AuditRule::SizeClass => "A05-size-class",
            AuditRule::Monotonicity => "A06-monotonicity",
        }
    }
}

impl std::fmt::Display for AuditRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One static audit finding, carrying the full sweep coordinate so a
/// report line is reproducible on its own.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: AuditRule,
    /// Algorithm family (`matmul`, `bitonic`, ...).
    pub family: String,
    /// Variant within the family (empty for grid-level findings).
    pub variant: String,
    /// Machine personality (empty for machine-independent findings).
    pub machine: String,
    /// Problem size of the sweep point.
    pub n: usize,
    /// Processor count of the sweep point.
    pub p: usize,
    /// Superstep index, when the finding names one.
    pub step: Option<usize>,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.family)?;
        if !self.variant.is_empty() {
            write!(f, "/{}", self.variant)?;
        }
        if !self.machine.is_empty() {
            write!(f, " on {}", self.machine)?;
        }
        write!(f, " n={} p={}", self.n, self.p)?;
        if let Some(step) = self.step {
            write!(f, " superstep {step}")?;
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
            AuditRule::MsgConservation,
            AuditRule::BarrierAlignment,
            AuditRule::HBound,
            AuditRule::BufferCapacity,
            AuditRule::SizeClass,
            AuditRule::Monotonicity,
        ];
        let mut ids: Vec<&str> = all.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len(), "rule ids must be unique");
        assert!(all.iter().all(|r| {
            let id = r.id();
            id.starts_with('A') && id.as_bytes()[3] == b'-'
        }));
    }

    #[test]
    fn findings_render_with_coordinate_and_step() {
        let f = Finding {
            rule: AuditRule::HBound,
            family: "matmul".into(),
            variant: "BspNaive".into(),
            machine: "MasPar MP-1".into(),
            n: 8,
            p: 16,
            step: Some(2),
            detail: "h=99 exceeds bound 32".into(),
        };
        let s = f.to_string();
        assert!(s.contains("A03-h-bound"));
        assert!(s.contains("matmul/BspNaive"));
        assert!(s.contains("n=8 p=16"));
        assert!(s.contains("superstep 2"));
    }

    #[test]
    fn render_joins_one_finding_per_line() {
        let f = Finding {
            rule: AuditRule::MsgConservation,
            family: "lu".into(),
            variant: String::new(),
            machine: String::new(),
            n: 8,
            p: 16,
            step: None,
            detail: "pending".into(),
        };
        let s = render(&[f.clone(), f]);
        assert_eq!(s.lines().count(), 2);
    }
}
