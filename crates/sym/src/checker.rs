//! The six S-rule checkers.
//!
//! Each checker takes the artifacts it judges as arguments (predictor
//! slices, grids, lemmas) rather than reaching for the production
//! registries, so the broken-fixture tests can feed deliberately wrong
//! inputs through exactly one rule and watch it fire.

use pcm_core::dim::Dim;
use pcm_core::rng::child_seed;
use pcm_core::symexpr::Poly;
use pcm_core::units::exact_f64;
use pcm_experiments::domains::GridSpec;
use pcm_models::params::{cm5, gcel, maspar, unit_env};
use pcm_models::{contract, ClosedForm, EbspParams, MachineParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

use crate::lemmas::{Crossover, Lemma};
use crate::rules::{Finding, SymRule};
use crate::sweep::SEED;

/// Table 1 machine parameters by name.
pub fn machine_by_name(name: &str) -> Option<MachineParams> {
    match name {
        "MasPar" => Some(maspar()),
        "GCel" => Some(gcel()),
        "CM-5" => Some(cm5()),
        _ => None,
    }
}

fn finding(
    rule: SymRule,
    pred: &ClosedForm,
    machine: &str,
    n: usize,
    p: usize,
    detail: String,
) -> Finding {
    Finding {
        rule,
        family: pred.family().to_string(),
        model: pred.model().to_string(),
        machine: machine.to_string(),
        n,
        p,
        detail,
    }
}

// ---- S01: dimensional soundness -------------------------------------------

/// Every closed form must reduce to µs under the declared units.
pub fn check_units(preds: &[ClosedForm], machines: &[MachineParams]) -> Vec<Finding> {
    let env = unit_env();
    let mut findings = Vec::new();
    for m in machines {
        for pred in preds {
            let n = pred.domain().least_n(m.p);
            match pred.symbolic(m, n).dim(&env) {
                Ok(dim) if dim == Dim::US => {}
                Ok(dim) => findings.push(finding(
                    SymRule::Units,
                    pred,
                    m.name,
                    n,
                    m.p,
                    format!("closed form has dimension {dim}, expected µs"),
                )),
                Err(e) => findings.push(finding(
                    SymRule::Units,
                    pred,
                    m.name,
                    n,
                    m.p,
                    format!("dimension inference failed: {e}"),
                )),
            }
        }
    }
    findings
}

// ---- S02: domain preconditions --------------------------------------------

/// Every grid point an experiment sweeps must lie in its family's domain
/// (every predictor of a family carries the same one).
pub fn check_domains(preds: &[ClosedForm], grids: &[GridSpec]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for grid in grids {
        let Some(pred) = preds.iter().find(|c| c.family() == grid.family) else {
            findings.push(Finding {
                rule: SymRule::Domain,
                family: grid.family.to_string(),
                model: String::new(),
                machine: grid.machine.to_string(),
                n: 0,
                p: grid.p,
                detail: format!("{}: no predictor registered for this family", grid.figure),
            });
            continue;
        };
        for &n in &grid.ns {
            if let Err(v) = pred.domain().check(n, grid.p) {
                findings.push(finding(
                    SymRule::Domain,
                    pred,
                    grid.machine,
                    n,
                    grid.p,
                    format!("{}: grid point rejected: {v}", grid.figure),
                ));
            }
        }
    }
    findings
}

// ---- S03: dominance lemmas ------------------------------------------------

fn lemma_finding(lemma: &Lemma, n: usize, p: usize, detail: String) -> Finding {
    Finding {
        rule: SymRule::Dominance,
        family: lemma.family.to_string(),
        model: format!("{}≤{}", lemma.lesser, lemma.greater),
        machine: lemma.machine.to_string(),
        n,
        p,
        detail,
    }
}

fn find_pred<'a>(preds: &'a [ClosedForm], family: &str, model: &str) -> Option<&'a ClosedForm> {
    preds
        .iter()
        .find(|c| c.family() == family && c.model() == model)
}

/// Certifies one dominance lemma symbolically, then spot-checks it
/// numerically at a geometric ladder of in-domain sizes.
pub fn check_lemma(lemma: &Lemma, preds: &[ClosedForm]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(m) = machine_by_name(lemma.machine) else {
        findings.push(lemma_finding(
            lemma,
            lemma.from_n,
            0,
            format!("unknown machine '{}'", lemma.machine),
        ));
        return findings;
    };
    let (Some(lesser), Some(greater)) = (
        find_pred(preds, lemma.family, lemma.lesser),
        find_pred(preds, lemma.family, lemma.greater),
    ) else {
        findings.push(lemma_finding(
            lemma,
            lemma.from_n,
            m.p,
            "lemma references an unregistered predictor".to_string(),
        ));
        return findings;
    };

    // Symbolic certificate: (greater − lesser) as a polynomial in n, with
    // both formulas frozen at the lemma's lower bound (for the one
    // piecewise family, APSP, the frozen branch is the branch that holds
    // on the whole certified range).
    let binds = pcm_models::bindings(&m, lemma.from_n);
    let x0 = exact_f64(lemma.from_n);
    let polys = (
        lesser.symbolic(&m, lemma.from_n).poly_in("n", &binds),
        greater.symbolic(&m, lemma.from_n).poly_in("n", &binds),
    );
    match polys {
        (Ok(pl), Ok(pg)) => {
            let diff = pg.sub(&pl);
            if !diff.certify_nonneg_for(x0) {
                findings.push(lemma_finding(
                    lemma,
                    lemma.from_n,
                    m.p,
                    format!(
                        "no symbolic certificate that {} dominates {} for n ≥ {} \
                         (difference {:?} not provably non-negative)",
                        lemma.greater,
                        lemma.lesser,
                        lemma.from_n,
                        diff.leading()
                    ),
                ));
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            findings.push(lemma_finding(
                lemma,
                lemma.from_n,
                m.p,
                format!("polynomial extraction failed: {e}"),
            ));
        }
    }

    // Numeric spot checks on the formulas as the figures evaluate them
    // (built at each point, which re-derives any piecewise branch, so they
    // also guard the frozen branch).
    for k in [1usize, 2, 4, 8] {
        let n = lemma.from_n * k;
        // Both sides are one family's models, so they share its domain.
        if lesser.domain().check(n, m.p).is_err() {
            continue;
        }
        let t_lesser = lesser.eval(&m, n).as_micros();
        let t_greater = greater.eval(&m, n).as_micros();
        if t_greater < t_lesser * (1.0 - 1e-12) {
            findings.push(lemma_finding(
                lemma,
                n,
                m.p,
                format!(
                    "numeric spot check inverted: {} = {t_lesser:.3} µs > {} = {t_greater:.3} µs",
                    lemma.lesser, lemma.greater
                ),
            ));
        }
    }
    findings
}

// ---- S04: differential against the pinned values ---------------------------

/// Distance in representable doubles between two same-sign finite values.
#[allow(clippy::float_cmp)] // exact equality is the 0-ulp fast path
pub fn ulp_diff(a: f64, b: f64) -> u64 {
    if a == b {
        0
    } else if !a.is_finite() || !b.is_finite() || a.is_sign_positive() != b.is_sign_positive() {
        u64::MAX
    } else {
        a.to_bits().abs_diff(b.to_bits())
    }
}

/// Scales every µs-valued machine parameter by an independent random
/// factor in `[0.5, 2.0)`, keeping the structural fields (`p`, `w`,
/// pipelining) fixed.
fn perturb(m: &MachineParams, rng: &mut StdRng) -> MachineParams {
    let mut f = || rng.random_range(0.5f64..2.0);
    let mut out = m.clone();
    out.g *= f();
    out.l *= f();
    out.sigma *= f();
    out.ell *= f();
    out.alpha *= f();
    out.alpha_mm *= f();
    out.copy *= f();
    out.radix_beta *= f();
    out.radix_gamma *= f();
    out.ebsp = match m.ebsp {
        EbspParams::PartialPermutation { a, b, c } => EbspParams::PartialPermutation {
            a: a * f(),
            b: b * f(),
            c: c * f(),
        },
        EbspParams::MultinodeScatter { g_mscat } => EbspParams::MultinodeScatter {
            g_mscat: g_mscat * f(),
        },
        EbspParams::Uniform => EbspParams::Uniform,
    };
    out
}

/// A random in-domain size: the least in-domain size times a random
/// power of two, so every family (including APSP's power-of-two block
/// counts) lands on sizes its formula accepts.
fn random_in_domain_n(pred: &ClosedForm, p: usize, rng: &mut StdRng) -> usize {
    pred.domain().least_n(p) << rng.random_range(0u32..5)
}

/// The `rounds` evaluation points of one (machine, predictor) pair: a
/// perturbed parameter set and an in-domain size per round. Each pair
/// draws from its own stream, seeded from [`SEED`] and the three names, so
/// a shorter sweep's points are a prefix of a longer sweep's.
fn differential_draws(
    pred: &ClosedForm,
    m: &MachineParams,
    rounds: usize,
) -> Vec<(MachineParams, usize)> {
    let key = format!("{}/{}/{}", m.name, pred.family(), pred.model());
    // FNV-1a over the names: a stream index independent of registry order.
    let stream = key.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let mut rng = StdRng::seed_from_u64(child_seed(SEED, stream));
    (0..rounds)
        .map(|_| {
            let pm = perturb(m, &mut rng);
            let n = random_in_domain_n(pred, m.p, &mut rng);
            (pm, n)
        })
        .collect()
}

/// The pinned S04 table: the value of every closed form at every point
/// of the full sweep ([`SEED`], eight rounds), recorded from the hand-coded
/// `f64` formulas the builders replaced. One row per line:
/// `machine family model round n micros_bits`.
const PINNED: &str = include_str!("../data/s04_pinned.txt");

/// The key of one pinned value: machine, family, model and round.
pub type PinKey = (&'static str, &'static str, &'static str, usize);

/// The pinned S04 table as `(n, value in µs)` per point.
///
/// # Panics
/// On a malformed row of the compiled-in table.
pub fn pinned_table() -> HashMap<PinKey, (usize, f64)> {
    PINNED
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let &[machine, family, model, round, n, bits] = &fields[..] else {
                panic!("malformed pinned S04 row: {line}");
            };
            let count = |s: &str| -> usize {
                s.parse()
                    .unwrap_or_else(|_| panic!("malformed pinned S04 row: {line}"))
            };
            let bits = u64::from_str_radix(bits.trim_start_matches("0x"), 16)
                .unwrap_or_else(|_| panic!("malformed pinned S04 row: {line}"));
            (
                (machine, family, model, count(round)),
                (count(n), f64::from_bits(bits)),
            )
        })
        .collect()
}

/// Differentially tests every predictor: the expression, built fresh at
/// each evaluation point, must match the pinned value there to ≤ 1 ulp,
/// across `rounds` random parameter perturbations per machine. Returns the
/// findings and the largest ulp distance seen.
pub fn check_differential(
    preds: &[ClosedForm],
    machines: &[MachineParams],
    rounds: usize,
) -> (Vec<Finding>, u64) {
    let pinned = pinned_table();
    let mut findings = Vec::new();
    let mut max_ulp = 0u64;
    for m in machines {
        for pred in preds {
            let draws = differential_draws(pred, m, rounds);
            for (round, (pm, n)) in draws.into_iter().enumerate() {
                let mut flag = |detail: String| {
                    findings.push(finding(SymRule::Differential, pred, m.name, n, m.p, detail));
                };
                let key = (m.name, pred.family(), pred.model(), round);
                let Some(&(pinned_n, pinned_us)) = pinned.get(&key) else {
                    flag(format!("no pinned value for round {round}"));
                    continue;
                };
                if pinned_n != n {
                    flag(format!("round {round} is pinned at n = {pinned_n}"));
                    continue;
                }
                match pred.symbolic(&pm, n).eval(&pcm_models::bindings(&pm, n)) {
                    Err(e) => flag(format!("symbolic evaluation failed: {e}")),
                    Ok(sym) => {
                        let ulp = ulp_diff(sym, pinned_us);
                        max_ulp = max_ulp.max(ulp);
                        if ulp > 1 {
                            flag(format!(
                                "evaluated {sym:e} vs pinned {pinned_us:e}: {ulp} ulp apart"
                            ));
                        }
                    }
                }
            }
        }
    }
    (findings, max_ulp)
}

// ---- S05: leading terms vs cost contracts ---------------------------------

/// The communication part of a predictor's formula as a polynomial in `n`:
/// the full expression with every local-computation coefficient bound to
/// zero.
fn comm_poly(pred: &ClosedForm, m: &MachineParams, n_hint: usize) -> Result<Poly, String> {
    let mut binds = pcm_models::bindings(m, n_hint);
    for sym in ["alpha", "alpha_mm", "copy", "radix_beta", "radix_gamma"] {
        binds.bind(sym, 0.0);
    }
    pred.symbolic(m, n_hint)
        .poly_in("n", &binds)
        .map_err(|e| e.to_string())
}

/// Certifies that each formula's communication leading term grows with
/// the same power of `n` as the family `CostContract`'s admitted
/// communication volume (`min supersteps × h bound`).
pub fn check_leading(preds: &[ClosedForm], machines: &[MachineParams]) -> Vec<Finding> {
    let contracts = contract::all();
    let mut findings = Vec::new();
    for m in machines {
        for pred in preds {
            let Some(c) = contracts.iter().find(|c| c.algorithm == pred.family()) else {
                findings.push(finding(
                    SymRule::LeadingTerm,
                    pred,
                    m.name,
                    0,
                    m.p,
                    "family has no cost contract to certify against".to_string(),
                ));
                continue;
            };
            let n_hint = pred.domain().least_n(m.p);
            let poly = match comm_poly(pred, m, n_hint) {
                Ok(p) => p,
                Err(e) => {
                    findings.push(finding(
                        SymRule::LeadingTerm,
                        pred,
                        m.name,
                        n_hint,
                        m.p,
                        format!("communication part is not polynomial in n: {e}"),
                    ));
                    continue;
                }
            };
            let Some((half, coeff)) = poly.leading() else {
                findings.push(finding(
                    SymRule::LeadingTerm,
                    pred,
                    m.name,
                    n_hint,
                    m.p,
                    "communication part vanished".to_string(),
                ));
                continue;
            };
            if coeff <= 0.0 {
                findings.push(finding(
                    SymRule::LeadingTerm,
                    pred,
                    m.name,
                    n_hint,
                    m.p,
                    format!("non-positive leading coefficient {coeff:e}"),
                ));
            }
            // Contract-side growth exponent, measured at a size large
            // enough that constant terms are negligible.
            let d = (pred.domain().n_divisor)(m.p).max(1);
            let n0 = (1usize << 15).next_multiple_of(d);
            let volume = |n: usize| {
                let (min_steps, _) = c.superstep_range(n, m.p);
                exact_f64(min_steps) * exact_f64(c.h_bound(n, m.p))
            };
            let growth = (volume(2 * n0) / volume(n0)).log2();
            if (f64::from(half) - 2.0 * growth).abs() > 0.2 {
                findings.push(finding(
                    SymRule::LeadingTerm,
                    pred,
                    m.name,
                    n_hint,
                    m.p,
                    format!(
                        "leading term grows like n^{}, contract volume grows like n^{growth:.3}",
                        f64::from(half) / 2.0
                    ),
                ));
            }
        }
    }
    findings
}

// ---- S06: crossover certification -----------------------------------------

fn crossover_finding(x: &Crossover, p: usize, n: usize, detail: String) -> Finding {
    Finding {
        rule: SymRule::Crossover,
        family: x.family.to_string(),
        model: format!("{}↔{}", x.word_model, x.block_model),
        machine: x.machine.to_string(),
        n,
        p,
        detail,
    }
}

/// Certifies one word/block crossover: solves for the crossing of the
/// symbolic difference, checks it lies between the two declared sizes,
/// confirms the closed-form winner on each side, and (optionally) replays
/// both sides through the priced simulator to confirm the measured winner
/// flips too.
pub fn check_crossover(
    x: &Crossover,
    preds: &[ClosedForm],
    replay: bool,
    seed: u64,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(m) = machine_by_name(x.machine) else {
        findings.push(crossover_finding(
            x,
            0,
            x.word_n,
            format!("unknown machine '{}'", x.machine),
        ));
        return findings;
    };
    let (Some(word), Some(block)) = (
        find_pred(preds, x.family, x.word_model),
        find_pred(preds, x.family, x.block_model),
    ) else {
        findings.push(crossover_finding(
            x,
            m.p,
            x.word_n,
            "crossover references an unregistered predictor".to_string(),
        ));
        return findings;
    };
    for &n in &[x.word_n, x.block_n] {
        if let Err(v) = word.domain().check(n, m.p) {
            findings.push(crossover_finding(
                x,
                m.p,
                n,
                format!("side point rejected: {v}"),
            ));
            return findings;
        }
    }

    // Solve word − block = 0 in the bracket.
    let binds = pcm_models::bindings(&m, x.word_n);
    let polys = (
        word.symbolic(&m, x.word_n).poly_in("n", &binds),
        block.symbolic(&m, x.word_n).poly_in("n", &binds),
    );
    match polys {
        (Ok(pw), Ok(pb)) => {
            let diff = pw.sub(&pb);
            match diff.first_crossing(x.bracket.0, x.bracket.1) {
                None => findings.push(crossover_finding(
                    x,
                    m.p,
                    x.word_n,
                    format!(
                        "no crossing of {} and {} in [{}, {}]",
                        x.word_model, x.block_model, x.bracket.0, x.bracket.1
                    ),
                )),
                Some(n_star) => {
                    if !(exact_f64(x.word_n) < n_star && n_star < exact_f64(x.block_n)) {
                        findings.push(crossover_finding(
                            x,
                            m.p,
                            x.word_n,
                            format!(
                                "crossing n* = {n_star:.2} does not lie between \
                                 {} and {}",
                                x.word_n, x.block_n
                            ),
                        ));
                    }
                }
            }
        }
        (Err(e), _) | (_, Err(e)) => findings.push(crossover_finding(
            x,
            m.p,
            x.word_n,
            format!("polynomial extraction failed: {e}"),
        )),
    }

    // Closed-form winners on each side.
    for (n, cheap, cheap_name, dear, dear_name) in [
        (x.word_n, word, x.word_model, block, x.block_model),
        (x.block_n, block, x.block_model, word, x.word_model),
    ] {
        let t_cheap = cheap.eval(&m, n).as_micros();
        let t_dear = dear.eval(&m, n).as_micros();
        if t_cheap >= t_dear {
            findings.push(crossover_finding(
                x,
                m.p,
                n,
                format!(
                    "closed forms do not flip: {cheap_name} = {t_cheap:.3} µs should beat \
                     {dear_name} = {t_dear:.3} µs"
                ),
            ));
        }
    }

    // Priced-simulator replay of both sides.
    if replay {
        if let Some(run) = x.replay {
            for (n, word_wins) in [(x.word_n, true), (x.block_n, false)] {
                match run(n, seed) {
                    None => findings.push(crossover_finding(
                        x,
                        m.p,
                        n,
                        "replay run failed result verification".to_string(),
                    )),
                    Some((t_word, t_block)) => {
                        let flipped = if word_wins {
                            t_word < t_block
                        } else {
                            t_block < t_word
                        };
                        if !flipped {
                            findings.push(crossover_finding(
                                x,
                                m.p,
                                n,
                                format!(
                                    "simulated winner does not match the certificate: \
                                     word {:.3} µs vs block {:.3} µs",
                                    t_word.as_micros(),
                                    t_block.as_micros()
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Vec<ClosedForm> {
        pcm_models::symbolic::all()
    }

    fn table1() -> Vec<MachineParams> {
        vec![maspar(), gcel(), cm5()]
    }

    #[test]
    fn production_formulas_are_dimensionally_sound() {
        assert_eq!(check_units(&registry(), &table1()), vec![]);
    }

    #[test]
    fn experiment_grids_are_in_domain() {
        let grids = pcm_experiments::domains::grids();
        assert_eq!(check_domains(&registry(), &grids), vec![]);
    }

    #[test]
    fn all_lemmas_certify() {
        let preds = registry();
        for lemma in crate::lemmas::lemmas() {
            let f = check_lemma(&lemma, &preds);
            assert!(f.is_empty(), "{}: {}", lemma.name, crate::rules::render(&f));
        }
    }

    #[test]
    fn differential_agrees_to_one_ulp() {
        let rounds = crate::sweep::FULL_ROUNDS;
        let (f, max_ulp) = check_differential(&registry(), &table1(), rounds);
        assert!(f.is_empty(), "{}", crate::rules::render(&f));
        assert!(max_ulp <= 1, "max ulp distance {max_ulp}");
        // Every full-sweep point found its pinned row; equal counts leave
        // no row unvisited.
        assert_eq!(
            pinned_table().len(),
            registry().len() * table1().len() * rounds
        );
    }

    #[test]
    fn fast_points_are_a_prefix_of_the_full_points() {
        let m = maspar();
        for pred in registry() {
            let full = differential_draws(&pred, &m, crate::sweep::FULL_ROUNDS);
            let fast = differential_draws(&pred, &m, 2);
            assert_eq!(fast[..], full[..2], "{}/{}", pred.family(), pred.model());
        }
    }

    #[test]
    fn leading_terms_match_the_contracts() {
        let preds = registry();
        let f = check_leading(&preds, &table1());
        assert!(f.is_empty(), "{}", crate::rules::render(&f));
    }

    #[test]
    fn crossovers_certify_without_replay() {
        let preds = registry();
        for x in crate::lemmas::crossovers() {
            let f = check_crossover(&x, &preds, false, 7);
            assert!(f.is_empty(), "{}: {}", x.name, crate::rules::render(&f));
        }
    }

    #[test]
    fn ulp_distance_is_zero_on_equal_and_huge_on_sign_flip() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(1.0, 1.0 + f64::EPSILON), 1);
        assert_eq!(ulp_diff(-1.0, 1.0), u64::MAX);
    }
}
