//! Machine-readable findings report.
//!
//! Hand-built JSON: no serializer dependency, stable field order, one
//! findings array a CI step can parse and diff.

use pcm_core::fsio::json_escape;

use crate::rules::Finding;
use crate::sweep::SweepOutcome;

fn finding_json(f: &Finding, indent: &str) -> String {
    let step = f.step.map_or_else(|| "null".to_string(), |s| s.to_string());
    format!(
        "{indent}{{\"rule\": \"{}\", \"family\": \"{}\", \"variant\": \"{}\", \
         \"machine\": \"{}\", \"n\": {}, \"p\": {}, \"step\": {step}, \
         \"detail\": \"{}\"}}",
        f.rule,
        json_escape(&f.family),
        json_escape(&f.variant),
        json_escape(&f.machine),
        f.n,
        f.p,
        json_escape(&f.detail)
    )
}

/// Renders a sweep outcome as a JSON document.
pub fn render_json(outcome: &SweepOutcome, fast: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"pcm-audit-v1\",\n");
    out.push_str(&format!("  \"fast\": {fast},\n"));
    out.push_str(&format!(
        "  \"stats\": {{\"plans_audited\": {}, \"grid_points\": {}, \
         \"differential_points\": {}, \"shape_contracts\": {}}},\n",
        outcome.stats.plans_audited,
        outcome.stats.grid_points,
        outcome.stats.differential_points,
        outcome.stats.shape_contracts
    ));
    out.push_str(&format!("  \"clean\": {},\n", outcome.findings.is_empty()));
    out.push_str("  \"findings\": [");
    for (i, f) in outcome.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&finding_json(f, "    "));
    }
    if !outcome.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::AuditRule;
    use crate::sweep::SweepStats;

    #[test]
    fn clean_report_has_empty_findings_array() {
        let outcome = SweepOutcome {
            findings: vec![],
            stats: SweepStats::default(),
        };
        let json = render_json(&outcome, true);
        assert!(json.contains("\"clean\": true"));
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"schema\": \"pcm-audit-v1\""));
    }

    #[test]
    fn findings_serialize_with_rule_ids_and_escaping() {
        let outcome = SweepOutcome {
            findings: vec![Finding {
                rule: AuditRule::HBound,
                family: "matmul".into(),
                variant: "BspNaive".into(),
                machine: "MasPar MP-1".into(),
                n: 8,
                p: 16,
                step: Some(2),
                detail: "bound \"h\" broken\nbadly".into(),
            }],
            stats: SweepStats::default(),
        };
        let json = render_json(&outcome, false);
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("A03-h-bound"));
        assert!(json.contains("\\\"h\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"step\": 2"));
    }
}
