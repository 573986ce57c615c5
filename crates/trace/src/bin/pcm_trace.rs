//! `pcm-trace`: replays pinned algorithm×machine×(n,p) points with
//! tracing on, proves the per-superstep cost attribution reproduces each
//! run's total priced cost bit-identically, and exports the results.
//!
//! Outputs:
//! * `TRACE_report.json` (default `--out`) — deterministic attribution
//!   report, committed and drift-gated in CI (`git diff --exit-code`).
//!   Replays pin a fixed seed, and the report carries only simulated
//!   quantities, so regeneration is byte-stable.
//! * `--export chrome` — Chrome trace-event JSON (`--trace-out`, default
//!   `TRACE_chrome.json`) viewable in `chrome://tracing` / Perfetto. The
//!   timeline is simulated µs; wall-clock phase ns ride in `args`. Not
//!   committed (wall time is not deterministic).
//!
//! The replay points are named `(family, variant)` pairs, looked up in
//! `pcm_algos::catalog` and run at each family's first grid point.
//!
//! Flags: `--wall` adds wall-phase totals to the report (diagnostics
//! only — do not commit such a report).
//!
//! Exit status is 2 for a malformed command line, and 1 if an output
//! cannot be written, a replay name is missing from the catalog, or any
//! replay fails verification or exact attribution: the binary is itself
//! the strongest runtime gate on the tracing layer.

use pcm_algos::catalog::{self, RunFn, SEED};
use pcm_core::fsio::write_atomic;
use pcm_machines::Platform;
use pcm_trace::{capture, chrome, ChromeRun, MachineRun, RunRecord, TraceReport};

const USAGE: &str = "usage: pcm-trace [--wall] [--out FILE] [--export chrome] [--trace-out FILE]";

/// The replayed `(family, variant)` pairs, each at its family's first
/// catalog grid point.
const REPLAYS: [(&str, &str); 8] = [
    ("matmul", "BspStaggered"),
    ("bitonic", "Words"),
    ("samplesort", "BspWords"),
    ("parallel_radix", "Words"),
    ("apsp", "Words"),
    ("lu", "Words"),
    ("vendor", "maspar_matmul"),
    ("collectives", "all_gather"),
];

/// One replayable point: family, variant, size, and the run function.
struct Point {
    family: &'static str,
    variant: &'static str,
    n: usize,
    p: usize,
    run: RunFn,
}

/// Looks every replay up in the catalog; a name the catalog no longer
/// has is an error, so a rename cannot silently drop a row.
fn points() -> Result<Vec<Point>, String> {
    REPLAYS
        .iter()
        .map(|&(family, variant)| {
            let fam = catalog::family(family)
                .ok_or_else(|| format!("no family '{family}' in the catalog"))?;
            let v = fam
                .variant(variant)
                .ok_or_else(|| format!("no variant '{family}/{variant}' in the catalog"))?;
            let (n, p) = fam.grid[0];
            Ok(Point {
                family: fam.name,
                variant: v.name,
                n,
                p,
                run: v.run,
            })
        })
        .collect()
}

/// Replays one point on one platform; returns the report record and the
/// attribution rows of the machine that produced the result.
fn replay(point: &Point, plat: &Platform) -> (RunRecord, Option<MachineRun>) {
    let (result, mut cap) = capture(|| (point.run)(plat, point.n, SEED));
    let (time, verified) = (result.time, result.verified);
    let idx = {
        let bits = time.as_micros().to_bits();
        cap.runs
            .iter()
            .rposition(|r| r.final_clock().as_micros().to_bits() == bits)
    };
    let run = idx.map(|i| cap.runs.swap_remove(i));
    let (exact, compute_us, comm_us, steps, barrier_steps, records, terms, memo, wall) = match &run
    {
        Some(r) => (
            r.attribution_exact(),
            r.compute_us(),
            r.comm_us(),
            r.rows.len() as u64,
            r.rows.iter().filter(|row| row.records == 0).count() as u64,
            r.rows.iter().map(|row| row.records).sum(),
            r.rows.last().and_then(|row| row.terms),
            r.rows.last().and_then(|row| row.memo),
            Some(r.wall_phase_totals()),
        ),
        None => (false, 0.0, 0.0, 0, 0, 0, None, None, None),
    };
    let record = RunRecord {
        family: point.family.to_string(),
        variant: point.variant.to_string(),
        machine: plat.name().to_string(),
        n: point.n,
        p: point.p,
        verified,
        exact,
        total_us: time.as_micros(),
        compute_us,
        comm_us,
        barrier_us: terms.map_or(0.0, |t| t.barrier_us),
        steps,
        barrier_steps,
        records,
        terms,
        memo,
        wall,
    };
    (record, run)
}

fn main() {
    let mut out_path = String::from("TRACE_report.json");
    let mut trace_out = String::from("TRACE_chrome.json");
    let mut export_chrome = false;
    let mut wall = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = args
                    .next()
                    .unwrap_or_else(|| usage_error("--out needs a path"));
            }
            "--trace-out" => {
                trace_out = args
                    .next()
                    .unwrap_or_else(|| usage_error("--trace-out needs a path"));
            }
            "--export" => match args.next().as_deref() {
                Some("chrome") => export_chrome = true,
                Some(other) => usage_error(&format!(
                    "unsupported export format `{other}` (supported: chrome)"
                )),
                None => usage_error("--export needs a format"),
            },
            "--wall" => wall = true,
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }

    let points = points().unwrap_or_else(|e| {
        eprintln!("pcm-trace: {e}");
        std::process::exit(1);
    });
    rayon::stats::enable(true);
    let mut records = Vec::new();
    let mut kept: Vec<(String, MachineRun)> = Vec::new();
    for point in &points {
        for plat in &Platform::all_with(point.p) {
            let label = format!(
                "{}/{} @ {} (n={}, p={})",
                point.family,
                point.variant,
                plat.name(),
                point.n,
                point.p
            );
            let (mut rec, run) = replay(point, plat);
            if !wall {
                rec.wall = None;
            }
            eprintln!(
                "  {label}: total {:.3} µs, {} steps, verified={}, exact={}",
                rec.total_us, rec.steps, rec.verified, rec.exact
            );
            records.push(rec);
            if let Some(r) = run {
                kept.push((label, r));
            }
        }
    }

    let report = TraceReport {
        seed: SEED,
        runs: records,
    };
    let ok = report.all_exact();

    println!(
        "{:<44} {:>12} {:>12} {:>12} {:>7}",
        "point", "total µs", "compute µs", "comm µs", "exact"
    );
    for r in &report.runs {
        println!(
            "{:<44} {:>12.3} {:>12.3} {:>12.3} {:>7}",
            format!("{}/{}/{}", r.family, r.variant, r.machine),
            r.total_us,
            r.compute_us,
            r.comm_us,
            r.exact
        );
    }

    write_or_exit(&out_path, report.render());
    eprintln!("pcm-trace: wrote {out_path}");

    if export_chrome {
        let runs: Vec<ChromeRun<'_>> = kept
            .iter()
            .map(|(name, run)| ChromeRun {
                name: name.clone(),
                run,
            })
            .collect();
        write_or_exit(&trace_out, chrome::render(&runs));
        eprintln!("pcm-trace: wrote {trace_out} ({} runs)", runs.len());
    }

    // Wall-clock / pool diagnostics: stderr only, never in the report.
    let pool = rayon::stats::snapshot();
    eprintln!(
        "pool: {} jobs, {} helped, {} parks, {} scoped_joins, {} fan_outs, {:.3} ms busy",
        pool.jobs,
        pool.helped_jobs,
        pool.parks,
        pool.scoped_joins,
        pool.fan_outs,
        pool.busy_ns as f64 / 1e6
    );

    if !ok {
        eprintln!("pcm-trace: FAILED — a replay did not verify or did not attribute exactly");
        std::process::exit(1);
    }
}

/// Reports a malformed command line and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("pcm-trace: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Writes `text` to `path`, or reports the I/O error and exits with
/// status 1.
fn write_or_exit(path: &str, text: String) {
    if let Err(e) = write_atomic(path, text) {
        eprintln!("pcm-trace: cannot write {path}: {e}");
        std::process::exit(1);
    }
}
