//! Trace accounting: replay a program's superstep traces under every cost
//! model.
//!
//! The paper evaluates each model against *specific* algorithm
//! implementations; this module generalizes that method to any program run
//! on the simulator. Given a run's [`SuperstepTrace`]s — the records the
//! machine stores and every observer sees (word fan-out `h_s`/`h_r`,
//! block rounds, active-processor counts) — it computes what BSP, MP-BSP,
//! MP-BPRAM and E-BSP would have charged for the communication — so "which
//! model best explains this machine" becomes a one-call analysis instead
//! of a hand-derived closed form.
//!
//! The trace carries no payload or schedule detail, so the accounting
//! matches the closed forms of [`crate::predict`] for the paper's
//! algorithms but is approximate for programs whose cost depends on send
//! *order* (receiver contention is invisible to every model except LogP
//! anyway — that is the paper's Fig. 4 point).

use crate::params::MachineParams;
use pcm_core::SimTime;
use pcm_sim::SuperstepTrace;

/// What each model charges for the same trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ModelAccount {
    /// Plain BSP: `g·max(h_s, h_r) + L` per superstep; block bytes are
    /// folded into the h-relation as `⌈bytes/w⌉` words.
    pub bsp: SimTime,
    /// MP-BSP: every word (including every word of a block) is a
    /// communication step of `g + L`.
    pub mp_bsp: SimTime,
    /// MP-BPRAM: `sigma·bytes + ell` per block step; words are charged as
    /// single-word blocks.
    pub bpram: SimTime,
    /// E-BSP: BSP refined by the machine's unbalanced-communication rule.
    pub ebsp: SimTime,
    /// Compute time common to all models.
    pub compute: SimTime,
}

impl ModelAccount {
    /// Adds the compute component to each model's communication charge.
    pub fn totals(&self) -> [(&'static str, SimTime); 4] {
        [
            ("BSP", self.bsp + self.compute),
            ("MP-BSP", self.mp_bsp + self.compute),
            ("MP-BPRAM", self.bpram + self.compute),
            ("E-BSP", self.ebsp + self.compute),
        ]
    }

    /// The model whose total is closest to `measured`, with its relative
    /// error.
    pub fn best_fit(&self, measured: SimTime) -> (&'static str, f64) {
        self.totals()
            .into_iter()
            .map(|(name, t)| (name, t.relative_error(measured)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("totals() always returns four models")
    }
}

/// Charges one superstep under every model.
///
/// Word-based models (BSP, MP-BSP, E-BSP) have no block-transfer concept:
/// a block of `B` bytes is decomposed into `⌈B/w⌉` word messages and
/// charged at the model's word rate. This is the paper's Section 8
/// argument — only the MP-BPRAM explains block programs, because every
/// other model must pay `g` (or `g + L`) per word where the machine
/// actually pays `sigma` per byte after a single startup.
pub fn account_step(m: &MachineParams, f: &SuperstepTrace) -> ModelAccount {
    let has_words = f.h_send > 0 || f.h_recv > 0;
    let has_comm = has_words || f.block_steps > 0;

    // MP-BPRAM pricing of the block rounds: sigma per byte + ell per step.
    let block_cost = m.sigma * f.block_bytes_sum as f64 + m.ell * f.block_steps as f64;
    // Word-equivalent volume of the same blocks for the word-based models.
    let block_words = f.block_bytes_sum.div_ceil(m.w);

    // BSP: one superstep charge, `g·h + L`, with block bytes folded into
    // the h-relation as words.
    let bsp = if has_comm {
        m.g * (f.h_send.max(f.h_recv) + block_words) as f64 + m.l
    } else {
        m.l
    };

    // MP-BSP: h_send word rounds of (g + L) each; a round with fan-in is a
    // 1-h relation, approximated by its sender count (the trace carries no
    // per-round fan-in). Block words each become their own message step.
    let word_rounds = f.h_send.max(usize::from(has_words));
    let mp_bsp =
        (m.g + m.l) * (word_rounds + block_words) as f64 + if has_comm { 0.0 } else { m.l };

    // MP-BPRAM: words are single-word messages, one per step.
    let bpram = (m.sigma * m.w as f64 + m.ell) * word_rounds as f64 + block_cost;

    // E-BSP: BSP refined by the machine's unbalanced-communication rule
    // where one exists; block words are charged at the plain BSP rate.
    let ebsp = if !has_comm {
        bsp
    } else {
        match m.ebsp.t_unb(f.active as f64) {
            Some(t_unb) => t_unb * word_rounds as f64 + m.g * block_words as f64,
            None => bsp,
        }
    };

    ModelAccount {
        bsp: SimTime::from_micros(bsp),
        mp_bsp: SimTime::from_micros(mp_bsp),
        bpram: SimTime::from_micros(bpram),
        ebsp: SimTime::from_micros(ebsp),
        compute: f.compute,
    }
}

/// Accumulates a whole run.
pub fn account_run<'a>(
    m: &MachineParams,
    steps: impl IntoIterator<Item = &'a SuperstepTrace>,
) -> ModelAccount {
    let mut acc = ModelAccount::default();
    for f in steps {
        let a = account_step(m, f);
        acc.bsp += a.bsp;
        acc.mp_bsp += a.mp_bsp;
        acc.bpram += a.bpram;
        acc.ebsp += a.ebsp;
        acc.compute += a.compute;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{cm5, maspar};

    fn word_step(h: usize, active: usize) -> SuperstepTrace {
        SuperstepTrace {
            h_send: h,
            h_recv: h,
            active,
            ..Default::default()
        }
    }

    #[test]
    fn bsp_charges_the_superstep_formula() {
        let m = cm5();
        let a = account_step(&m, &word_step(10, 64));
        assert!((a.bsp.as_micros() - (9.1 * 10.0 + 45.0)).abs() < 1e-9);
    }

    #[test]
    fn mp_bsp_charges_per_word() {
        let m = maspar();
        let a = account_step(&m, &word_step(5, 1024));
        assert!((a.mp_bsp.as_micros() - 5.0 * 1432.2).abs() < 1e-6);
    }

    #[test]
    fn bpram_charges_block_steps() {
        let m = cm5();
        let f = SuperstepTrace {
            block_steps: 3,
            block_bytes_sum: 3000,
            ..Default::default()
        };
        let a = account_step(&m, &f);
        assert!((a.bpram.as_micros() - (0.27 * 3000.0 + 3.0 * 75.0)).abs() < 1e-9);
        // BSP has no block concept: the 3000 bytes become 375 words of an
        // h-relation at g each — far above the BPRAM charge.
        assert!((a.bsp.as_micros() - (9.1 * 375.0 + 45.0)).abs() < 1e-9);
        assert!(a.bsp > a.bpram, "word-based models overprice blocks");
    }

    #[test]
    fn ebsp_discounts_partial_activity_on_the_maspar() {
        let m = maspar();
        let full = account_step(&m, &word_step(4, 1024));
        let partial = account_step(&m, &word_step(4, 32));
        assert!(partial.ebsp < full.ebsp);
        assert!(partial.ebsp < partial.mp_bsp, "E-BSP refines MP-BSP");
        // On the CM-5 E-BSP degenerates to BSP.
        let c = cm5();
        let a = account_step(&c, &word_step(4, 8));
        assert_eq!(a.ebsp, a.bsp);
    }

    #[test]
    fn run_accumulates_and_best_fit_selects() {
        let m = maspar();
        let steps = vec![word_step(2, 1024), word_step(3, 32)];
        let acc = account_run(&m, &steps);
        let one = account_step(&m, &steps[0]);
        let two = account_step(&m, &steps[1]);
        assert_eq!(acc.mp_bsp, one.mp_bsp + two.mp_bsp);
        // best_fit picks the closest model.
        let (name, err) = acc.best_fit(acc.ebsp);
        assert_eq!(name, "E-BSP");
        assert!(err < 1e-12);
    }

    #[test]
    fn empty_superstep_costs_a_barrier() {
        let m = cm5();
        let a = account_step(&m, &SuperstepTrace::default());
        assert!((a.bsp.as_micros() - 45.0).abs() < 1e-9);
    }
}
