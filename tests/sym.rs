//! Symbolic verification sweep: `pcm-sym` certifies every closed form
//! (units, domains, dominance, differential agreement, leading terms,
//! crossovers), and the fixtures prove each rule actually bites — a
//! words/µs confusion is flagged S01, an off-grid sweep point S02, an
//! inverted lemma S03, a formula/transcription divergence S04, a wrong
//! leading power S05 and a mis-ordered crossover S06.

use pcm::models::{predict, ClosedForm, DomainSpec, MachineParams};
use pcm_experiments::domains::GridSpec;
use pcm_sym::{
    check_crossover, check_differential, check_domains, check_lemma, check_units, pinned_table,
    render, sweep, Crossover, Expr, Finding, Lemma, SweepOptions, SymRule,
};

/// The full sweep — every predictor, machine, grid point, lemma,
/// differential round and crossover replay — must be clean.
#[test]
fn full_sweep_is_clean() {
    let outcome = sweep(SweepOptions { fast: false });
    assert!(
        outcome.findings.is_empty(),
        "symbolic sweep found:\n{}",
        render(&outcome.findings)
    );
    assert_eq!(outcome.stats.predictors, 16);
    assert_eq!(outcome.stats.lemmas_certified, 8);
    assert_eq!(outcome.stats.crossovers, 3);
    assert!(outcome.stats.grid_points >= 50, "sweep shrank unexpectedly");
    assert!(
        outcome.stats.max_ulp <= 1,
        "a closed form moved off its pinned values"
    );
    // One pinned S04 row per differential point: a registry or round-count
    // change cannot leave rows unchecked.
    assert_eq!(outcome.stats.differential_points, pinned_table().len());
}

fn assert_only_rule(findings: &[Finding], rule: SymRule) {
    assert!(!findings.is_empty(), "fixture did not trip {}", rule.id());
    for f in findings {
        assert_eq!(
            f.rule,
            rule,
            "fixture leaked through the wrong rule:\n{}",
            render(findings)
        );
    }
}

/// S01: a formula that adds a byte cost to a word count — `σ·n + L` with
/// `n` stamped as *words* — must be rejected as a dimension error, not
/// evaluated to a plausible number.
#[test]
fn s01_units_flags_words_bytes_confusion() {
    let broken = ClosedForm::new("matmul", "bsp", DomainSpec::any(), |_, _| {
        Expr::add(vec![
            Expr::mul(vec![Expr::sym("sigma"), Expr::words(Expr::sym("n"))]),
            Expr::sym("L"),
        ])
    });
    let findings = check_units(&[broken], &[pcm::models::maspar()]);
    assert_only_rule(&findings, SymRule::Units);
    assert!(findings[0].detail.contains("dimension"));
}

/// S02: a grid point off the MasPar matmul lattice (n = 150 is not a
/// multiple of q² = 100) must be caught before any experiment sweeps it.
#[test]
fn s02_domain_flags_off_grid_sweep_point() {
    let preds = pcm::models::symbolic::all();
    let grid = GridSpec {
        figure: "Fig. X (fixture)",
        family: "matmul",
        machine: "MasPar",
        p: 1024,
        ns: vec![150],
    };
    let findings = check_domains(&preds, &[grid]);
    assert_only_rule(&findings, SymRule::Domain);
    assert!(findings.iter().any(|f| f.detail.contains("multiple")));
}

/// S03: claiming MP-BSP beats plain BSP on the MasPar inverts the paper's
/// dominance direction; neither the symbolic certificate nor the numeric
/// spot checks can support it.
#[test]
fn s03_dominance_flags_inverted_lemma() {
    let preds = pcm::models::symbolic::all();
    let inverted = Lemma {
        name: "fixture-inverted",
        family: "matmul",
        lesser: "mp_bsp",
        greater: "bsp",
        machine: "MasPar",
        from_n: 100,
    };
    let findings = check_lemma(&inverted, &preds);
    assert_only_rule(&findings, SymRule::Dominance);
}

/// S04: the registered matmul/bsp formula with an extra `+L` drifts off
/// the pinned values by far more than 1 ulp on every random parameter
/// draw.
#[test]
fn s04_differential_flags_transcription_divergence() {
    let matmul_bsp = &pcm::models::symbolic::all()[0];
    assert_eq!((matmul_bsp.family(), matmul_bsp.model()), ("matmul", "bsp"));
    let broken = ClosedForm::new("matmul", "bsp", matmul_bsp.domain(), |m, n| {
        Expr::add(vec![predict::matmul::bsp(m, n), Expr::sym("L")])
    });
    let machines: Vec<MachineParams> = vec![pcm::models::maspar()];
    let (findings, max_ulp) = check_differential(&[broken], &machines, 2);
    assert_only_rule(&findings, SymRule::Differential);
    assert_eq!(findings.len(), 2, "one finding per round");
    assert!(findings.iter().all(|f| f.detail.contains("ulp apart")));
    assert!(max_ulp > 1);
}

/// S05: a "matmul" formula whose communication grows like `n` contradicts
/// the family contract's `n²/√p`-word volume bound.
#[test]
fn s05_leading_term_flags_wrong_growth() {
    let broken = ClosedForm::new("matmul", "bsp", DomainSpec::any(), |_, _| {
        Expr::add(vec![
            Expr::mul(vec![Expr::sym("g"), Expr::words(Expr::sym("n"))]),
            Expr::sym("L"),
        ])
    });
    let findings = pcm_sym::check_leading(&[broken], &[pcm::models::maspar()]);
    assert_only_rule(&findings, SymRule::LeadingTerm);
    assert!(findings[0].detail.contains("grows like"));
}

/// S06: swapping which side is the "word" model breaks every certificate —
/// the declared winner at each side point is the loser.
#[test]
fn s06_crossover_flags_swapped_sides() {
    let preds = pcm::models::symbolic::all();
    let swapped = Crossover {
        name: "fixture-swapped",
        family: "matmul",
        word_model: "bpram",
        block_model: "bsp",
        machine: "CM-5",
        bracket: (16.0, 200.0),
        word_n: 16,
        block_n: 64,
        replay: None,
    };
    let findings = check_crossover(&swapped, &preds, false, 7);
    assert_only_rule(&findings, SymRule::Crossover);
}
