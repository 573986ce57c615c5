//! CLI that regenerates the paper's tables and figures.
//!
//! Usage:
//!   reproduce list
//!   reproduce all [--quick] [--seed N] [--out DIR]
//!   reproduce fig04 table1 ... [--quick] [--seed N] [--out DIR]

use std::time::Instant;

use pcm_core::fsio::write_atomic;
use pcm_experiments::{registry, Experiment, Output, Scale};

/// What one command line asks for, known in full before anything runs.
enum Command {
    List,
    Check,
    Run(Vec<Experiment>),
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return;
    }

    // Parse every flag and check every id before dispatching, so a bad
    // argument anywhere on the line runs nothing.
    let mut scale = Scale::Full;
    let mut seed = 1996u64;
    let mut out_dir: Option<String> = None;
    let mut words: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage_error("--seed needs an integer"));
            }
            "--out" => {
                out_dir = Some(
                    it.next()
                        .unwrap_or_else(|| usage_error("--out needs a directory")),
                );
            }
            _ => words.push(arg),
        }
    }
    let command = match words.as_slice() {
        [] => usage_error("no command or experiment given"),
        [w] if w == "list" => Command::List,
        [w] if w == "check" => Command::Check,
        _ if words.iter().any(|w| w == "list" || w == "check") => {
            usage_error("`list` and `check` take no experiment ids")
        }
        _ => {
            let mut targets = Vec::new();
            for id in &words {
                if id == "all" {
                    targets.extend(registry());
                } else if let Some(exp) = pcm_experiments::find(id) {
                    targets.push(exp);
                } else {
                    eprintln!("unknown experiment `{id}` — try `reproduce list`");
                    std::process::exit(2);
                }
            }
            Command::Run(targets)
        }
    };

    match command {
        Command::List => {
            for e in registry() {
                println!("{:8} {}", e.id, e.title);
            }
        }
        Command::Check => {
            let (pass, fail) =
                pcm_experiments::check::run_all(scale, seed, |claim, result| match result {
                    Ok(detail) => {
                        println!("PASS {:6} {} — {}", claim.id, claim.statement, detail)
                    }
                    Err(err) => println!("FAIL {:6} {} — {}", claim.id, claim.statement, err),
                });
            println!();
            println!("{pass} claims passed, {fail} failed");
            std::process::exit(if fail == 0 { 0 } else { 1 });
        }
        Command::Run(targets) => run(&targets, scale, seed, out_dir.as_deref()),
    }
}

/// Runs and renders each experiment in order, writing `<id>.txt` files
/// under `out_dir` when given.
fn run(targets: &[Experiment], scale: Scale, seed: u64, out_dir: Option<&str>) {
    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("reproduce: cannot create output directory `{dir}`: {e}");
            std::process::exit(1);
        }
    }
    for exp in targets {
        eprintln!("== {} — {} ==", exp.id, exp.title);
        let start = Instant::now();
        let output: Output = (exp.run)(scale, seed);
        let text = output.render();
        eprintln!("   ({:.1}s wall clock)", start.elapsed().as_secs_f64());
        println!("{text}");
        if let Some(dir) = out_dir {
            let path = format!("{dir}/{}.txt", exp.id);
            if let Err(e) = write_atomic(&path, &text) {
                eprintln!("reproduce: cannot write `{path}`: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Reports a malformed command line and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    usage();
    std::process::exit(2);
}

fn usage() {
    eprintln!(
        "usage: reproduce <list | check | all | id...> [--quick] [--seed N] [--out DIR]\n\
         ids: table1, fig01..fig20, sec8, modelfit"
    );
}
