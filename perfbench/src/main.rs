//! Benchmark binary: runs one workload of the reproduction as a closed
//! loop of passes through the public entry points, verifies every output,
//! and prints one JSON record of per-pass timings and exact counts.
//!
//! ```text
//! perfbench --workload <kernels|exchange|analyzers> [--seed N] [--seconds S]
//!           [--mode plain|paired|traced] [--setup-only] [--pin] [--golden PATH]
//! ```
//!
//! `run.py` beside this crate builds it, launches it once per pool width
//! and turns its records into the benchmark's metrics (see `NOTES.md`).
//!
//! * `plain` runs untraced passes until `--seconds` have elapsed (at least
//!   one); `traced` does the same with a counting superstep probe
//!   installed; `paired` alternates an untraced and a traced pass, so the
//!   tracing overhead is measured under the same conditions.
//! * `--setup-only` exits where the first timed call would begin, after
//!   printing the wall-clock instant of that point.
//! * `--pin` runs one traced pass without verifying and prints the golden
//!   digest lines of its outputs instead.
//!
//! Figure outputs are verified against the FNV-1a digests pinned in the
//! golden file for each shipped seed; the analyzers' JSON is compared with
//! the committed `AUDIT_report.json` and `SYM_report.json` byte for byte.
//! A panicking unit counts as a failed output and the pass continues.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;
use std::rc::Rc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use pcm_experiments::{Experiment, Scale};
use pcm_sim::{with_probe, CacheStats, ExchangePath, NetTerms, StepObs, SuperstepProbe};

/// Registry experiments whose time goes to the per-processor closures.
const KERNELS: [&str; 15] = [
    "fig03", "fig04", "fig05", "fig06", "fig08", "fig09", "fig10", "fig11", "fig16", "fig17",
    "fig18", "fig19", "fig20", "sec8", "modelfit",
];

/// Registry experiments whose time goes to the exchange and pricing.
const EXCHANGE: [&str; 8] = [
    "table1", "fig01", "fig02", "fig07", "fig12", "fig13", "fig14", "fig15",
];

const DEFAULT_SEED: u64 = 1996;

#[derive(Clone, Copy)]
enum Mode {
    Plain,
    Paired,
    Traced,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
    setup_only: bool,
    pin: bool,
    golden: String,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <kernels|exchange|analyzers> [--seed N] [--seconds S] \
         [--mode plain|paired|traced] [--setup-only] [--pin] [--golden PATH]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        mode: Mode::Plain,
        setup_only: false,
        pin: false,
        golden: "perfbench/golden.txt".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--workload" => args.workload = value("--workload"),
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed needs an unsigned integer"));
            }
            "--seconds" => {
                args.seconds = value("--seconds")
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seconds needs a number"));
            }
            "--mode" => {
                args.mode = match value("--mode").as_str() {
                    "plain" => Mode::Plain,
                    "paired" => Mode::Paired,
                    "traced" => Mode::Traced,
                    other => usage_error(&format!("unknown mode `{other}`")),
                };
            }
            "--golden" => args.golden = value("--golden"),
            "--setup-only" => args.setup_only = true,
            "--pin" => args.pin = true,
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    args
}

/// One timed unit of a pass: a registry experiment or an analyzer sweep.
enum Unit {
    Figure {
        exp: Experiment,
        /// Pinned digest of the rendered text (`None` when pinning).
        expect: Option<u64>,
    },
    Audit {
        reference: String,
    },
    Sym {
        reference: String,
    },
}

impl Unit {
    fn id(&self) -> &'static str {
        match self {
            Unit::Figure { exp, .. } => exp.id,
            Unit::Audit { .. } => "audit",
            Unit::Sym { .. } => "sym",
        }
    }
}

/// What one unit produced in one pass.
struct UnitResult {
    id: &'static str,
    /// Wall time of the entry-point call (`Experiment::run` or a sweep).
    run_ns: u64,
    /// Wall time of rendering (`Output::render` or `render_json`).
    render_ns: u64,
    ok: bool,
    digest: u64,
    /// Plans the audit sweep certified (audit unit only).
    plans: Option<usize>,
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A fixed loop of integer arithmetic and L2-resident stores.
fn calibration_loop() {
    const SLOTS: usize = 1 << 15;
    let mut buf = vec![0u64; SLOTS];
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..20_000_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        let k = usize::try_from(x >> 49).expect("15-bit index") & (SLOTS - 1);
        buf[k] = buf[k].wrapping_add(x);
    }
    std::hint::black_box(&buf);
}

/// Times [`calibration_loop`] on `width` threads at once. Run between
/// units, it samples how fast the host's cores are at that moment, so the
/// wall times can be normalized for host-speed drift.
fn calibrate(width: usize) -> u64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..width {
            s.spawn(calibration_loop);
        }
        calibration_loop();
    });
    nanos(t0)
}

/// Runs one unit: times the entry-point call and the rendering separately,
/// and checks the rendered bytes. A panic in either is caught and fails
/// the unit, so the pass goes on.
fn run_unit(unit: &Unit, seed: u64) -> UnitResult {
    let t0 = Instant::now();
    let mut run_ns = 0;
    let mut plans = None;
    let rendered = catch_unwind(AssertUnwindSafe(|| match unit {
        Unit::Figure { exp, .. } => {
            let out = (exp.run)(Scale::Full, seed);
            run_ns = nanos(t0);
            out.render()
        }
        Unit::Audit { .. } => {
            let out = pcm_audit::sweep(pcm_audit::SweepOptions { fast: false });
            run_ns = nanos(t0);
            plans = Some(out.stats.plans_audited);
            pcm_audit::render_json(&out, false)
        }
        Unit::Sym { .. } => {
            let out = pcm_sym::sweep(pcm_sym::SweepOptions { fast: false });
            run_ns = nanos(t0);
            pcm_sym::render_json(&out, false)
        }
    }));
    let total_ns = nanos(t0);
    let (ok, digest) = match &rendered {
        Ok(text) => {
            let digest = fnv1a(text.as_bytes());
            let ok = match unit {
                Unit::Figure { expect, .. } => expect.is_none_or(|e| e == digest),
                Unit::Audit { reference } | Unit::Sym { reference } => text == reference,
            };
            (ok, digest)
        }
        Err(_) => {
            run_ns = total_ns;
            (false, 0)
        }
    };
    UnitResult {
        id: unit.id(),
        run_ns,
        render_ns: total_ns - run_ns,
        ok,
        digest,
        plans,
    }
}

/// Exact counts and summed phase times of every superstep a probe saw.
#[derive(Clone, Copy, Default)]
struct Counts {
    machines: u64,
    supersteps: u64,
    send_records: u64,
    steps_fused: u64,
    steps_sharded: u64,
    steps_reference: u64,
    compute_ns: u64,
    scatter_ns: u64,
    price_ns: u64,
    gather_ns: u64,
    recycle_ns: u64,
    memo_hits: u64,
    memo_lookups: u64,
    router_passes: u64,
    router_min_passes: u64,
}

/// Per-machine probe folding each superstep into the shared [`Counts`].
/// The network model's memo and cost-term counters are cumulative per
/// machine, so the probe adds their per-step deltas.
struct CountingProbe {
    totals: Rc<RefCell<Counts>>,
    prev_memo: CacheStats,
    prev_terms: NetTerms,
}

impl SuperstepProbe for CountingProbe {
    fn observe(&mut self, obs: &StepObs<'_>) {
        let mut t = self.totals.borrow_mut();
        t.supersteps += 1;
        t.send_records += obs.records as u64; // usize fits in u64
        match obs.path {
            ExchangePath::Fused => t.steps_fused += 1,
            ExchangePath::Sharded => t.steps_sharded += 1,
            ExchangePath::Reference => t.steps_reference += 1,
        }
        t.compute_ns += obs.phases.compute;
        t.scatter_ns += obs.phases.scatter;
        t.price_ns += obs.phases.price;
        t.gather_ns += obs.phases.gather;
        t.recycle_ns += obs.phases.recycle;
        if let Some(m) = obs.memo {
            let p = self.prev_memo;
            t.memo_hits += m.hits.saturating_sub(p.hits);
            t.memo_lookups +=
                (m.hits + m.misses + m.bypasses).saturating_sub(p.hits + p.misses + p.bypasses);
            self.prev_memo = m;
        }
        if let Some(n) = obs.terms {
            let p = self.prev_terms;
            t.router_passes += n.router_passes.saturating_sub(p.router_passes);
            t.router_min_passes += n.router_min_passes.saturating_sub(p.router_min_passes);
            self.prev_terms = n;
        }
    }
}

/// Runs `body` with a [`CountingProbe`] on every machine built on this
/// thread, and returns what they counted. The hook is thread-local, so
/// machines built on pool workers are not seen (`machines` says how many
/// were).
fn counted<R>(body: impl FnOnce() -> R) -> (R, Counts) {
    let totals = Rc::new(RefCell::new(Counts::default()));
    let hook = totals.clone();
    let out = with_probe(
        move |_p| {
            hook.borrow_mut().machines += 1;
            Box::new(CountingProbe {
                totals: hook.clone(),
                prev_memo: CacheStats::default(),
                prev_terms: NetTerms::default(),
            })
        },
        body,
    );
    let counts = *totals.borrow();
    (out, counts)
}

struct Pass {
    traced: bool,
    /// Wall time of the pass, without the calibration loops.
    wall_ns: u64,
    /// Calibration times: one just before each unit, one after the last.
    calib_ns: Vec<u64>,
    units: Vec<UnitResult>,
    counts: Option<Counts>,
}

fn run_pass(units: &[Unit], seed: u64, traced: bool) -> Pass {
    let width = rayon::current_num_threads();
    let mut calib_ns = Vec::with_capacity(units.len());
    let mut body = || {
        units
            .iter()
            .map(|u| {
                calib_ns.push(calibrate(width));
                run_unit(u, seed)
            })
            .collect::<Vec<_>>()
    };
    let t0 = Instant::now();
    let (units, counts) = if traced {
        let (u, c) = counted(body);
        (u, Some(c))
    } else {
        (body(), None)
    };
    let wall_ns = nanos(t0) - calib_ns.iter().sum::<u64>();
    calib_ns.push(calibrate(width));
    Pass {
        traced,
        wall_ns,
        calib_ns,
        units,
        counts,
    }
}

/// The golden file: pinned digests per shipped seed and experiment.
/// Lines are `digest <seed> <id> <fnv64 hex>`; other lines are ignored.
struct Golden {
    digests: Vec<(u64, String, u64)>,
}

impl Golden {
    fn load(path: &str) -> Golden {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let mut digests = Vec::new();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if let ["digest", seed, id, hex] = f[..] {
                match (seed.parse(), u64::from_str_radix(hex, 16)) {
                    (Ok(seed), Ok(d)) => digests.push((seed, id.to_string(), d)),
                    _ => usage_error(&format!("malformed golden line `{line}`")),
                }
            }
        }
        Golden { digests }
    }

    /// The shipped seed a requested seed maps to: itself when shipped,
    /// else the shipped seed at `seed mod count` (in ascending order).
    fn effective_seed(&self, seed: u64) -> u64 {
        let mut seeds: Vec<u64> = self.digests.iter().map(|d| d.0).collect();
        seeds.sort_unstable();
        seeds.dedup();
        if seeds.is_empty() || seeds.contains(&seed) {
            return seed;
        }
        let count = seeds.len() as u64; // usize fits in u64
        seeds[usize::try_from(seed % count).expect("index below a Vec length")]
    }

    fn digest(&self, seed: u64, id: &str) -> Option<u64> {
        self.digests
            .iter()
            .find(|d| d.0 == seed && d.1 == id)
            .map(|d| d.2)
    }
}

fn build_units(args: &Args, golden: &Golden, seed: u64) -> Vec<Unit> {
    let figure = |id: &str| {
        let exp = pcm_experiments::find(id).unwrap_or_else(|| {
            eprintln!("perfbench: experiment `{id}` is not in the registry");
            exit(2);
        });
        let expect = if args.pin {
            None
        } else {
            Some(golden.digest(seed, id).unwrap_or_else(|| {
                eprintln!("perfbench: no pinned digest for {id} at seed {seed}");
                exit(2);
            }))
        };
        Unit::Figure { exp, expect }
    };
    let reference = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perfbench: cannot read {path}: {e}");
            exit(2);
        })
    };
    match args.workload.as_str() {
        "kernels" => KERNELS.iter().map(|id| figure(id)).collect(),
        "exchange" => EXCHANGE.iter().map(|id| figure(id)).collect(),
        "analyzers" => vec![
            Unit::Audit {
                reference: reference("AUDIT_report.json"),
            },
            Unit::Sym {
                reference: reference("SYM_report.json"),
            },
        ],
        other => usage_error(&format!("unknown workload `{other}`")),
    }
}

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// The process's peak resident set (`VmHWM`) in KiB, 0 where unavailable.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn counts_json(c: &Counts) -> String {
    format!(
        "{{\"machines\":{},\"supersteps\":{},\"send_records\":{},\"steps_fused\":{},\
         \"steps_sharded\":{},\"steps_reference\":{},\"compute_ns\":{},\"scatter_ns\":{},\
         \"price_ns\":{},\"gather_ns\":{},\"recycle_ns\":{},\"memo_hits\":{},\
         \"memo_lookups\":{},\"router_passes\":{},\"router_min_passes\":{}}}",
        c.machines,
        c.supersteps,
        c.send_records,
        c.steps_fused,
        c.steps_sharded,
        c.steps_reference,
        c.compute_ns,
        c.scatter_ns,
        c.price_ns,
        c.gather_ns,
        c.recycle_ns,
        c.memo_hits,
        c.memo_lookups,
        c.router_passes,
        c.router_min_passes
    )
}

fn pass_json(p: &Pass) -> String {
    let calib: Vec<String> = p.calib_ns.iter().map(u64::to_string).collect();
    let mut s = format!(
        "{{\"traced\":{},\"wall_ns\":{},\"calib_ns\":[{}],\"units\":[",
        p.traced,
        p.wall_ns,
        calib.join(",")
    );
    for (i, u) in p.units.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"id\":\"{}\",\"run_ns\":{},\"render_ns\":{},\"ok\":{},\"digest\":\"{:016x}\"",
            u.id, u.run_ns, u.render_ns, u.ok, u.digest
        );
        if let Some(plans) = u.plans {
            let _ = write!(s, ",\"plans\":{plans}");
        }
        s.push('}');
    }
    s.push_str("],\"counts\":");
    s.push_str(&p.counts.as_ref().map_or("null".to_string(), counts_json));
    s.push('}');
    s
}

fn main() {
    let args = parse_args();
    let golden = Golden::load(&args.golden);
    let seed = if args.pin {
        args.seed
    } else {
        golden.effective_seed(args.seed)
    };
    let units = build_units(&args, &golden, seed);
    let width = rayon::current_num_threads();
    let ready_unix_ns = unix_ns();
    if args.setup_only {
        println!("{{\"ready_unix_ns\":{ready_unix_ns}}}");
        return;
    }

    // Closed loop: the next round starts when the previous one ends, while
    // the budget lasts (the first always runs).
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        match args.mode {
            Mode::Plain => passes.push(run_pass(&units, seed, false)),
            Mode::Traced => passes.push(run_pass(&units, seed, true)),
            Mode::Paired => {
                passes.push(run_pass(&units, seed, false));
                passes.push(run_pass(&units, seed, true));
            }
        }
        if args.pin || start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    if args.pin {
        for u in &passes[0].units {
            if !u.ok {
                eprintln!("perfbench: {} failed while pinning", u.id);
                exit(1);
            }
            if matches!(args.workload.as_str(), "kernels" | "exchange") {
                println!("digest {seed} {} {:016x}", u.id, u.digest);
            }
        }
    }

    let mut record = format!(
        "{{\"workload\":\"{}\",\"requested_seed\":{},\"seed\":{seed},\"width\":{width},\
         \"ready_unix_ns\":{ready_unix_ns},\"peak_rss_kib\":{},\"passes\":[",
        args.workload,
        args.seed,
        peak_rss_kib()
    );
    for (i, p) in passes.iter().enumerate() {
        if i > 0 {
            record.push(',');
        }
        record.push_str(&pass_json(p));
    }
    record.push_str("]}");
    println!("{record}");
}
