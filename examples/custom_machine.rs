//! Build your own machine: plug a custom network model into the simulator
//! and watch how the paper's conclusions shift with the architecture.
//!
//! Here we compare bitonic sort on three machines that differ only in the
//! network: a textbook BSP machine with GCel-like parameters, one with a
//! 10x cheaper per-message cost, and one with free synchronization.
//!
//! ```text
//! cargo run --release --example custom_machine
//! ```

use std::sync::Arc;

use pcm::algos::sort::radix::radix_sort;
use pcm::sim::{Machine, TextbookBspNetwork, UniformCompute};

/// A tiny SPMD program written directly against the simulator API:
/// odd-even transposition sort over the processors' single values.
fn odd_even_sort(machine: &mut Machine<Vec<u32>>) {
    let p = machine.nprocs();
    for phase in 0..p {
        machine.superstep(move |ctx| {
            let pid = ctx.pid();
            let partner = if (pid + phase) % 2 == 0 {
                pid.checked_add(1)
            } else {
                pid.checked_sub(1)
            };
            if let Some(partner) = partner.filter(|&q| q < ctx.nprocs()) {
                let vals = ctx.state.clone();
                ctx.send_words_u32(partner, &vals);
            }
        });
        machine.superstep(move |ctx| {
            let pid = ctx.pid();
            if let Some(msg) = ctx.msgs().first() {
                let src = msg.src;
                let mut merged = ctx.state.clone();
                merged.extend(msg.u32s());
                radix_sort(&mut merged);
                let keep = ctx.state.len();
                ctx.charge_merge(keep as u64);
                *ctx.state = if pid < src {
                    merged[..keep].to_vec()
                } else {
                    merged[merged.len() - keep..].to_vec()
                };
            }
        });
    }
}

fn run_on(label: &str, net: TextbookBspNetwork) {
    let p = 16;
    let m = 64;
    let mut rng = pcm::core::rng::seeded(3);
    let keys = pcm::core::rng::random_keys(p * m, &mut rng);
    let states: Vec<Vec<u32>> = (0..p)
        .map(|i| {
            let mut v = keys[i * m..(i + 1) * m].to_vec();
            radix_sort(&mut v);
            v
        })
        .collect();
    let mut machine = Machine::new(
        Box::new(net),
        Arc::new(UniformCompute {
            alpha: 5.0,
            word: 4,
            copy: 0.5,
            radix: (1.2, 2.4),
        }),
        states,
        9,
    );
    odd_even_sort(&mut machine);
    let sorted: Vec<u32> = machine.states().iter().flatten().copied().collect();
    let mut expect = keys;
    expect.sort_unstable();
    assert_eq!(sorted, expect, "odd-even transposition must sort");
    println!(
        "{label:42} {:>12}   ({} supersteps)",
        format!("{}", machine.time()),
        machine.supersteps()
    );
}

fn main() {
    println!("== odd-even transposition sort on three custom machines ==\n");
    run_on(
        "GCel-like (g=4480, L=5100)",
        TextbookBspNetwork {
            g: 4480.0,
            l: 5100.0,
            sigma: 9.3,
            ell: 6900.0,
        },
    );
    run_on(
        "10x cheaper messages (g=448)",
        TextbookBspNetwork {
            g: 448.0,
            l: 5100.0,
            sigma: 9.3,
            ell: 6900.0,
        },
    );
    run_on(
        "free synchronization (L=0)",
        TextbookBspNetwork {
            g: 4480.0,
            l: 0.0,
            sigma: 9.3,
            ell: 6900.0,
        },
    );
    println!(
        "\nOdd-even transposition needs Theta(P) supersteps, so the L term matters\n\
         as much as bandwidth — exactly the trade-off the BSP parameters expose."
    );
}
