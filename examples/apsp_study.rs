//! APSP study: where BSP's balanced-communication assumption breaks, and
//! how E-BSP repairs it — the story of the paper's Figs. 12, 13 and 15.
//!
//! ```text
//! cargo run --release --example apsp_study
//! ```

use pcm::algos::apsp::{self, ApspVariant};
use pcm::algos::lu::{self, LuVariant};
use pcm::models::predict;
use pcm::Platform;

fn main() {
    let seed = 11;

    println!("== all-pairs shortest path (blocked Floyd), N = 256 ==\n");
    println!(
        "{:8} {:>12} {:>14} {:>14} {:>14}",
        "machine", "measured", "BSP/MP-BSP", "refined", "refined err"
    );
    for plat in [Platform::maspar(), Platform::gcel(), Platform::cm5()] {
        let n = 256;
        let params = plat.model_params();
        let r = apsp::run(&plat, n, ApspVariant::Words, seed);
        assert!(r.verified, "distances checked against sequential Floyd");
        let (base, refined) = if params.memory_pipelining {
            (
                predict::eval(predict::apsp::bsp, &params, n),
                predict::eval(predict::apsp::gcel_refined, &params, n),
            )
        } else {
            (
                predict::eval(predict::apsp::mp_bsp, &params, n),
                predict::eval(predict::apsp::ebsp, &params, n),
            )
        };
        println!(
            "{:8} {:>11.2}s {:>13.2}s {:>13.2}s {:>13.1}%",
            plat.name(),
            r.time.as_secs(),
            base.as_secs(),
            refined.as_secs(),
            100.0 * refined.relative_error(r.time)
        );
    }

    println!(
        "\nThe MasPar broadcast is unbalanced (only sqrt(P) senders in the scatter),\n\
         so MP-BSP's full-h-relation charge overshoots badly; E-BSP's T_unb\n\
         partial-permutation cost lands close (Fig. 12). On the GCel the g_mscat\n\
         refinement does the same job (Fig. 13). On the CM-5's fat tree, BSP was\n\
         already accurate (Fig. 15) — its refined column equals plain BSP."
    );

    println!("\n== the same skeleton factorizes: blocked LU (extension) ==\n");
    for plat in [Platform::gcel(), Platform::cm5()] {
        let n = 128;
        let lu_r = lu::run(&plat, n, LuVariant::Blocks, seed);
        let ap = apsp::run(&plat, n, ApspVariant::Blocks, seed);
        assert!(lu_r.verified && ap.verified);
        println!(
            "{:8} LU {:>10}   APSP {:>10}   (same row/column broadcast structure)",
            plat.name(),
            format!("{}", lu_r.time),
            format!("{}", ap.time)
        );
    }

    println!("\n== scaling N on the MasPar ==\n");
    let plat = Platform::maspar();
    let params = plat.model_params();
    println!(
        "{:>5} {:>12} {:>14} {:>12}",
        "N", "measured", "MP-BSP", "E-BSP"
    );
    for n in [64usize, 128, 256] {
        let r = apsp::run(&plat, n, ApspVariant::Words, seed);
        assert!(r.verified);
        println!(
            "{:>5} {:>11.2}s {:>13.2}s {:>11.2}s",
            n,
            r.time.as_secs(),
            predict::eval(predict::apsp::mp_bsp, &params, n).as_secs(),
            predict::eval(predict::apsp::ebsp, &params, n).as_secs()
        );
    }
}
