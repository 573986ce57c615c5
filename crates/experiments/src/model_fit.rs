//! Trace accounting: replay the algorithms' superstep traces under every
//! model and report which model best explains each machine.
//!
//! This generalizes the paper's evaluation method — instead of deriving a
//! closed form per algorithm, the accountant (`pcm_models::account`)
//! consumes the traces the simulator recorded and charges each model's
//! rules mechanically. The result should echo the paper's Section 8: the
//! MP-BPRAM explains block-transfer programs, MP-BSP/BSP explain word
//! programs on their machines, and E-BSP wins wherever communication is
//! unbalanced.

use pcm_algos::sort::bitonic::ExchangeMode;
use pcm_core::Table;
use pcm_machines::Platform;
use pcm_models::account_run;
use pcm_sim::collect_traces;

use crate::report::{Output, Scale};
use crate::runs::{run_keys, RunKey};

/// Runs bitonic sort in word and block modes on every machine, accounts
/// the traces under all four models, and reports each model's relative
/// error against the simulated measurement.
pub fn run(scale: Scale, seed: u64) -> Output {
    let m = match scale {
        Scale::Full => 1024,
        Scale::Quick => 256,
    };
    let mut t = Table::new(
        "Model fit",
        format!(
            "Bitonic sort ({m} keys/processor) traces replayed under each model: \
             relative error of the model's charge vs the simulated time \
             (negative = underestimate)"
        ),
        vec![
            "Workload".into(),
            "BSP".into(),
            "MP-BSP".into(),
            "MP-BPRAM".into(),
            "E-BSP".into(),
            "best".into(),
        ],
    );

    let labels = [
        ("words", ExchangeMode::Words),
        ("blocks", ExchangeMode::Block),
    ];
    let keys: Vec<RunKey> = [Platform::maspar(), Platform::gcel(), Platform::cm5()]
        .into_iter()
        .flat_map(|plat| labels.map(|(_, mode)| RunKey::bitonic(mode, plat, m, seed)))
        .collect();
    // Each point is one unit of work: the measured run, then the observed
    // re-run of the same deterministic simulation whose traces the
    // accountant charges. perfbench/golden.txt pins the simulation counts
    // of this figure with the re-run in them; charging the first run's
    // traces instead waits for a re-pin of those counts.
    let fits = run_keys(&keys, |job| {
        let r = job.run();
        assert!(r.verified);
        let (again, traces) = collect_traces(|| job.run());
        assert_eq!(again.time, r.time, "re-run must reproduce the measurement");
        (r.time, account_run(&job.platform.model_params(), &traces))
    });
    for ((key, (label, _)), (measured, acc)) in keys.iter().zip(labels.iter().cycle()).zip(fits) {
        let err =
            |t: pcm_core::SimTime| format!("{:+.0}%", 100.0 * ((t + acc.compute) / measured - 1.0));
        let (best, _) = acc.best_fit(measured);
        t.push_row(vec![
            format!("{} {label}", key.platform.name()),
            err(acc.bsp),
            err(acc.mp_bsp),
            err(acc.bpram),
            err(acc.ebsp),
            best.to_string(),
        ]);
    }
    Output::Tab(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accountant_picks_sensible_models() {
        let Output::Tab(t) = run(Scale::Quick, 4) else {
            panic!()
        };
        assert_eq!(t.rows.len(), 6, "3 machines x 2 workloads");
        // Block workloads are explained by the MP-BPRAM on every machine.
        for machine in ["MasPar", "GCel", "CM-5"] {
            let key = format!("{machine} blocks");
            let best = t.cell(&key, "best").unwrap();
            assert_eq!(best, "MP-BPRAM", "{key} best-fit = {best}");
        }
        // The GCel word workload follows (MP-)BSP-style charging; the
        // MasPar word workload is *cheaper* than MP-BSP predicts (Fig. 5),
        // so anything but MP-BPRAM may win — assert MP-BSP overestimates.
        let gcel_best = t.cell("GCel words", "best").unwrap();
        assert!(
            gcel_best == "BSP" || gcel_best == "MP-BSP" || gcel_best == "E-BSP",
            "GCel words best-fit = {gcel_best}"
        );
        let maspar_mp = t.cell("MasPar words", "MP-BSP").unwrap();
        assert!(
            maspar_mp.starts_with('+'),
            "MP-BSP should overestimate MasPar bitonic, got {maspar_mp}"
        );
    }
}
