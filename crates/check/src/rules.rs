//! Rule identifiers and the violation record.
//!
//! Every check the sanitizer performs has a stable, human-readable rule
//! id. The ids are grouped by layer: `R` rules come from the runtime
//! protocol checker, `D` rules from the determinism auditor, and `W`
//! rules from the happens-before race & staleness analyzer (`pcm-race`).

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Severity {
    /// A correctness violation: the run's result cannot be trusted.
    Error,
    /// A smell worth reporting (wasted communication, fragile patterns)
    /// that does not by itself invalidate the run.
    Warning,
}

/// Stable identifier of one sanitizer rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// A message was sent to a destination `>= P`.
    DstRange,
    /// A superstep used a message kind the active discipline forbids.
    KindDiscipline,
    /// A word round had two senders targeting one destination under a
    /// discipline that demands permutation rounds (MP-BSP).
    ConcurrentWrite,
    /// A `charge*` call passed a NaN, infinite or negative amount.
    BadCharge,
    /// A block round had two blocks converging on one destination under
    /// the single-port (MP-BPRAM) discipline.
    BlockFanIn,
    /// A superstep's compute or communication time was not finite.
    NonfiniteTime,
    /// The rayon-on and sequential runs produced different results.
    StateDigest,
    /// The rayon-on and sequential runs produced different traces.
    TraceDigest,
    /// Two different processors wrote into the same `(destination, tag)`
    /// cell within one superstep while the algorithm declared exclusive
    /// writes — the delivered value depends on arrival order.
    WwRace,
    /// A processor consumed data whose producing send had not crossed a
    /// barrier: the matching accessor ran in the producing superstep (or
    /// the data was dropped unread after an empty-handed read attempt).
    StaleRead,
    /// An untagged inbox read observed messages carrying two or more
    /// distinct tags while the algorithm declared a tagged inbox — two
    /// logical streams aliased into one read.
    InboxAlias,
    /// Data was delivered (or a region written) and then overwritten or
    /// dropped without ever being read — wasted communication.
    DeadSend,
}

impl RuleId {
    /// The stable textual id, e.g. `"R04-concurrent-write"`.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::DstRange => "R01-dst-range",
            RuleId::KindDiscipline => "R03-kind-discipline",
            RuleId::ConcurrentWrite => "R04-concurrent-write",
            RuleId::BadCharge => "R05-bad-charge",
            RuleId::BlockFanIn => "R06-block-fanin",
            RuleId::NonfiniteTime => "R07-nonfinite-time",
            RuleId::StateDigest => "D01-state-digest",
            RuleId::TraceDigest => "D02-trace-digest",
            RuleId::WwRace => "W01-ww-race",
            RuleId::StaleRead => "W02-stale-read",
            RuleId::InboxAlias => "W03-inbox-alias",
            RuleId::DeadSend => "W04-dead-send",
        }
    }

    /// The severity of a finding under this rule. Everything is an
    /// [`Severity::Error`] except [`RuleId::DeadSend`], which flags wasted
    /// (but harmless) communication.
    pub fn severity(self) -> Severity {
        match self {
            RuleId::DeadSend => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One detected violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: RuleId,
    /// Superstep index (for end-of-run findings, the superstep count).
    pub step: usize,
    /// The processor involved, when one can be named.
    pub pid: Option<usize>,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] superstep {}", self.rule, self.step)?;
        if let Some(pid) = self.pid {
            write!(f, " pid {pid}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_distinct() {
        let all = [
            RuleId::DstRange,
            RuleId::KindDiscipline,
            RuleId::ConcurrentWrite,
            RuleId::BadCharge,
            RuleId::BlockFanIn,
            RuleId::NonfiniteTime,
            RuleId::StateDigest,
            RuleId::TraceDigest,
            RuleId::WwRace,
            RuleId::StaleRead,
            RuleId::InboxAlias,
            RuleId::DeadSend,
        ];
        let mut ids: Vec<&str> = all.iter().map(|r| r.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len(), "rule ids must be unique");
        assert!(all.iter().all(|r| {
            let id = r.id();
            id.len() > 4 && id.as_bytes()[3] == b'-'
        }));
    }

    #[test]
    fn only_dead_send_is_a_warning() {
        assert_eq!(RuleId::DeadSend.severity(), Severity::Warning);
        assert_eq!(RuleId::WwRace.severity(), Severity::Error);
        assert_eq!(RuleId::StaleRead.severity(), Severity::Error);
        assert_eq!(RuleId::InboxAlias.severity(), Severity::Error);
        assert_eq!(RuleId::DstRange.severity(), Severity::Error);
    }

    #[test]
    fn violations_render_with_rule_step_and_pid() {
        let v = Violation {
            rule: RuleId::DstRange,
            step: 2,
            pid: Some(5),
            detail: "destination 99 out of range".into(),
        };
        let s = v.to_string();
        assert!(s.contains("R01-dst-range") && s.contains("superstep 2") && s.contains("pid 5"));
    }
}
