//! Machine-readable findings report.
//!
//! Hand-built JSON in the workspace's analyzer idiom (`pcm-audit`,
//! `pcm-trace`): no serializer dependency, stable field order, one
//! findings array a CI step can parse and diff against the committed
//! `SYM_report.json`.

use pcm_core::fsio::json_escape;

use crate::rules::Finding;
use crate::sweep::SweepOutcome;

fn finding_json(f: &Finding, indent: &str) -> String {
    format!(
        "{indent}{{\"rule\": \"{}\", \"family\": \"{}\", \"model\": \"{}\", \
         \"machine\": \"{}\", \"n\": {}, \"p\": {}, \"detail\": \"{}\"}}",
        f.rule,
        json_escape(&f.family),
        json_escape(&f.model),
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
    out.push_str("  \"schema\": \"pcm-sym-v1\",\n");
    out.push_str(&format!("  \"fast\": {fast},\n"));
    out.push_str(&format!(
        "  \"stats\": {{\"predictors\": {}, \"unit_checks\": {}, \"grid_points\": {}, \
         \"lemmas_certified\": {}, \"differential_points\": {}, \"max_ulp\": {}, \
         \"leading_terms\": {}, \"crossovers\": {}}},\n",
        outcome.stats.predictors,
        outcome.stats.unit_checks,
        outcome.stats.grid_points,
        outcome.stats.lemmas_certified,
        outcome.stats.differential_points,
        outcome.stats.max_ulp,
        outcome.stats.leading_terms,
        outcome.stats.crossovers
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
    use crate::rules::SymRule;
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
        assert!(json.contains("\"schema\": \"pcm-sym-v1\""));
        assert!(json.contains("\"max_ulp\": 0"));
    }

    #[test]
    fn findings_serialize_with_rule_ids_and_escaping() {
        let outcome = SweepOutcome {
            findings: vec![Finding {
                rule: SymRule::Units,
                family: "matmul".into(),
                model: "bsp".into(),
                machine: "MasPar".into(),
                n: 100,
                p: 1024,
                detail: "dimension \"words\" where µs expected\nsecond line".into(),
            }],
            stats: SweepStats::default(),
        };
        let json = render_json(&outcome, false);
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("S01-units"));
        assert!(json.contains("\\\"words\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"n\": 100, \"p\": 1024"));
    }
}
