//! Trace accounting: run any program on a simulated machine, then ask
//! every cost model what it *would* have charged — the paper's evaluation
//! methodology as a reusable tool.
//!
//! ```text
//! cargo run --release --example trace_accounting
//! ```

use pcm::algos::sort::bitonic::{merge_phases, BitonicList, ExchangeMode, SortState};
use pcm::algos::sort::radix::radix_sort;
use pcm::models::account_run;
use pcm::Platform;

fn main() {
    let seed = 17;
    let m = 512;

    println!("== which model explains which machine? (bitonic sort, {m} keys/proc) ==\n");
    println!(
        "{:16} {:>10} {:>10} {:>10} {:>10} {:>10}   best fit",
        "workload", "measured", "BSP", "MP-BSP", "MP-BPRAM", "E-BSP"
    );

    for plat in [Platform::maspar(), Platform::gcel(), Platform::cm5()] {
        let params = plat.model_params();
        for (label, mode) in [
            ("words", ExchangeMode::Words),
            ("blocks", ExchangeMode::Block),
        ] {
            // Run the merge phases directly so we keep the machine (and
            // its traces).
            let p = plat.p();
            let mut rng = pcm::core::rng::seeded(seed);
            let keys = pcm::core::rng::random_keys(p * m, &mut rng);
            let states: Vec<SortState> = (0..p)
                .map(|i| SortState {
                    keys: keys[i * m..(i + 1) * m].to_vec(),
                    stash: Vec::new(),
                })
                .collect();
            let mut machine = plat.machine(states, seed);
            machine.superstep(|ctx| {
                radix_sort(ctx.state.list_mut());
                ctx.charge_radix_sort(m, 32, 8);
            });
            merge_phases(&mut machine, mode);
            let measured = machine.time();

            let acc = account_run(&params, machine.traces());
            let (best, err) = acc.best_fit(measured);
            let fmt = |t: pcm::SimTime| format!("{:>9.1}ms", (t + acc.compute).as_millis());
            println!(
                "{:16} {:>9.1}ms {} {} {} {}   {} ({:.0}% off)",
                format!("{} {label}", plat.name()),
                measured.as_millis(),
                fmt(acc.bsp),
                fmt(acc.mp_bsp),
                fmt(acc.bpram),
                fmt(acc.ebsp),
                best,
                err * 100.0
            );
        }
    }

    println!(
        "\nReading the table: block workloads are explained by the MP-BPRAM\n\
         everywhere; the MasPar's word workload runs *below* every model's charge\n\
         (the router's cheap bit-flip pattern, paper Fig. 5); the GCel word\n\
         workload tracks (MP-)BSP once drift is out of the picture."
    );
}
