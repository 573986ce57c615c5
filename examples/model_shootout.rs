//! Model shoot-out: evaluate the same workloads under every cost model —
//! BSP, MP-BSP, MP-BPRAM, E-BSP, and the LogP/LogGP extensions — against
//! the simulated measurements.
//!
//! ```text
//! cargo run --release --example model_shootout
//! ```

use pcm::algos::matmul::{self, MatmulVariant};
use pcm::algos::sort::bitonic::{self, ExchangeMode};
use pcm::models::{predict, LogGP, LogP};
use pcm::Platform;

fn err(predicted: pcm::SimTime, measured: pcm::SimTime) -> String {
    format!("{:+.0}%", 100.0 * (predicted / measured - 1.0))
}

fn main() {
    let seed = 23;

    println!("== which model predicts which machine? ==");
    println!("(prediction error, positive = overestimate)\n");

    println!("--- matrix multiplication, N = 256 (CM-5) / N = 300 (MasPar) ---\n");
    {
        let plat = Platform::cm5();
        let params = plat.model_params();
        let n = 256;
        let words = matmul::run(&plat, n, MatmulVariant::BspStaggered, seed);
        let blocks = matmul::run(&plat, n, MatmulVariant::Bpram, seed);
        assert!(words.verified && blocks.verified);
        println!(
            "CM-5   short messages: measured {}, BSP {}",
            words.time,
            err(predict::eval(predict::matmul::bsp, &params, n), words.time)
        );
        println!(
            "CM-5   block transfer: measured {}, MP-BPRAM {}",
            blocks.time,
            err(
                predict::eval(predict::matmul::bpram, &params, n),
                blocks.time
            )
        );
    }
    {
        let plat = Platform::maspar();
        let params = plat.model_params();
        let n = 300;
        let words = matmul::run(&plat, n, MatmulVariant::BspStaggered, seed);
        let blocks = matmul::run(&plat, n, MatmulVariant::Bpram, seed);
        assert!(words.verified && blocks.verified);
        println!(
            "MasPar short messages: measured {}, MP-BSP {}",
            words.time,
            err(
                predict::eval(predict::matmul::mp_bsp, &params, n),
                words.time
            )
        );
        println!(
            "MasPar block transfer: measured {}, MP-BPRAM {}",
            blocks.time,
            err(
                predict::eval(predict::matmul::bpram, &params, n),
                blocks.time
            )
        );
    }

    println!("\n--- bitonic sort, 512 keys/processor ---\n");
    for plat in [Platform::maspar(), Platform::gcel(), Platform::cm5()] {
        let params = plat.model_params();
        let m = 512;
        let r = bitonic::run(
            &plat,
            m,
            if params.memory_pipelining {
                ExchangeMode::WordsResync { interval: 256 }
            } else {
                ExchangeMode::Words
            },
            seed,
        );
        assert!(r.verified);
        let pred = if params.memory_pipelining {
            predict::eval(predict::bitonic::bsp, &params, m)
        } else {
            predict::eval(predict::bitonic::mp_bsp, &params, m)
        };
        println!(
            "{:7} measured {}, (MP-)BSP {}",
            plat.name(),
            r.time,
            err(pred, r.time)
        );
    }
    println!(
        "\nThe MasPar overestimate is the cheap bit-flip router pattern (Fig. 5);\n\
         the other machines track their models once drift is synchronized away."
    );

    println!("\n--- LogP / LogGP extension (derived parameters) ---\n");
    for plat in [Platform::maspar(), Platform::gcel(), Platform::cm5()] {
        let params = plat.model_params();
        let logp = LogP::from_machine(&params);
        let loggp = LogGP::from_machine(&params);
        println!(
            "{:7} LogP(L={:.0}, o={:.1}, g={:.1}, P={})  capacity {}  |  LogGP G={} µs/B, 1 KB message {}",
            plat.name(),
            logp.latency,
            logp.overhead,
            logp.gap,
            logp.p,
            logp.capacity(),
            loggp.big_gap,
            loggp.long_message(1024)
        );
    }
    println!(
        "\nLogP's capacity constraint is the formalism that captures the CM-5\n\
         receiver-contention stall the BSP model missed (paper Sec. 8)."
    );
}
