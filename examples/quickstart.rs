//! Quickstart: run one algorithm on one simulated machine and compare the
//! measurement with the analytic model predictions.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pcm::algos::matmul::{self, MatmulVariant};
use pcm::models::predict;
use pcm::Platform;

fn main() {
    let seed = 42;
    println!("== pcm quickstart: 256x256 matrix multiplication on a simulated CM-5 ==\n");

    let cm5 = Platform::cm5();
    let params = cm5.model_params();
    println!(
        "machine: {} with P = {} processors (g = {} µs, L = {} µs, sigma = {} µs/B, ell = {} µs)\n",
        cm5.name(),
        cm5.p(),
        params.g,
        params.l,
        params.sigma,
        params.ell
    );

    for (label, variant) in [
        ("naive BSP (identical send order)", MatmulVariant::BspNaive),
        (
            "staggered BSP (short messages)",
            MatmulVariant::BspStaggered,
        ),
        ("MP-BPRAM (block transfers)", MatmulVariant::Bpram),
    ] {
        let r = matmul::run(&cm5, 256, variant, seed);
        assert!(
            r.verified,
            "the product was checked against a sequential reference"
        );
        println!(
            "{label:36} {:>10}   ({:.0} Mflops, comm share {:.0}%)",
            format!("{}", r.time),
            r.stats.mflops,
            100.0 * r.breakdown.comm_fraction()
        );
    }

    println!();
    let bsp = predict::eval(predict::matmul::bsp, &params, 256);
    let bpram = predict::eval(predict::matmul::bpram, &params, 256);
    println!("BSP model predicts      {bsp}");
    println!("MP-BPRAM model predicts {bpram}");
    println!(
        "\nThe naive schedule exceeds the BSP prediction (receiver contention, \
         paper Fig. 4);\nthe staggered schedule matches it; block transfers win \
         (paper Fig. 16)."
    );
}
