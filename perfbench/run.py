#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction, with per-layer attribution.

Usage, from the repository root:

    python3 perfbench/run.py --workload kernels|exchange|analyzers \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --pin      # regenerate perfbench/golden.txt

Builds the `perfbench` crate beside this file (into $CARGO_TARGET_DIR,
default `.bench_build`), launches it with the pool width pinned through
RAYON_NUM_THREADS, and prints one JSON object as the last stdout line:
`{"correct", "attempted", "failed", "metrics"}`.

--trace 0 reports the end-to-end metrics of untraced passes at pool width
nproc. --trace 1 runs two traced legs, one at width nproc (alternating
untraced and traced passes) and one at width 1, and reports the per-layer
metrics. NOTES.md says which leg each metric comes from, and why.

Exit status is 0 when a result was printed (`correct` says whether every
output verified), 2 when the benchmark cannot be built or started, and 1
when the benchmark binary fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.txt"

WORKLOADS = ("kernels", "exchange", "analyzers")
# Every registry experiment, in paper order; each workload runs a subset.
EXPERIMENTS = (
    "table1", "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
    "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19", "fig20", "sec8", "modelfit",
)
# Experiment seeds with pinned digests; other seeds map onto these.
SHIPPED_SEEDS = (1996,) + tuple(range(1, 16))
# Counts that must repeat bit for bit across runs and pool widths.
EXACT = ("supersteps", "send_records", "machines", "router_passes", "router_min_passes")
SETUP_REPS = 40
# The end-to-end times are host times scaled to a host on which the
# binary's calibration loop takes this long (about its time on the 2-core
# host the benchmark was defined on). The scaling cancels the host-speed
# drift a shared machine shows over minutes; NOTES.md has the figures.
CAL_REF_NS = 25e6
# `setup_s` is scaled the same way, by the time a bare process (`true`)
# takes to spawn and exit there. That cost drifts by about 20% from one
# second to the next, and the binary's start-up drifts with it.
SPAWN_REF_NS = 0.8e6
LAUNCH_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed", 2)
    return target / "release" / "perfbench"


def launch(binary, workload, seed, width, *extra):
    """Runs the benchmark binary once; returns its JSON record and the other
    stdout lines. `setup_s` is added: from just before the spawn to the
    binary's first timed call."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--golden", str(GOLDEN), *extra]
    env = dict(os.environ, RAYON_NUM_THREADS=str(width))
    t0 = time.time_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=LAUNCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} run exceeded {LAUNCH_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        fail(f"{workload} benchmark binary exited with {proc.returncode}",
             1 if proc.returncode == 1 else 2)
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-1])
    record["setup_s"] = (record["ready_unix_ns"] - t0) / 1e9
    return record, lines[:-1]


def bare_spawn_ns(true):
    """Host time to spawn `true` and see it exit."""
    t0 = time.time_ns()
    subprocess.run([true], cwd=ROOT, stdout=subprocess.PIPE, check=True)
    return time.time_ns() - t0


def load_counts():
    """Pinned exact counts: {(workload, seed or "*"): {name: int}}."""
    pinned = {}
    for line in GOLDEN.read_text().splitlines():
        f = line.split()
        if f and f[0] == "counts":
            pinned[(f[1], f[2])] = {k: int(v) for k, v in (kv.split("=") for kv in f[3:])}
    return pinned


def pinned_counts(pinned, workload, seed):
    counts = pinned.get((workload, str(seed))) or pinned.get((workload, "*"))
    if counts is None:
        fail(f"no pinned counts for {workload} at seed {seed}", 2)
    return counts


def speed(calib_ns):
    """Factor that scales host time measured alongside these calibration
    samples to a host where the calibration loop takes CAL_REF_NS."""
    return CAL_REF_NS / median(calib_ns)


class Tally:
    """Verified outputs and checks of a run: each unit of each pass, plus
    each exact-count check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def passes(self, passes, pinned):
        for p in passes:
            for u in p["units"]:
                self.check(u["ok"], f"output of {u['id']}")
                if "plans" in u:
                    self.check(u["plans"] == pinned["audit_plans"], "audit plan count")


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result can be
    traced to its code where no git metadata exists."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "shims", "src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file()
                        and "__pycache__" not in p.parts and p != HERE / "Cargo.lock")
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() or None


def ms(ns):
    return ns / 1e6


def unit_ms(passes, uid, render=True):
    """Median per-pass time of one unit, in ms (0 when not in the workload)."""
    times = [u["run_ns"] + (u["render_ns"] if render else 0)
             for p in passes for u in p["units"] if u["id"] == uid]
    return ms(median(times)) if times else 0.0


def layer_metrics(untraced, attrib, nproc_traced, w1_traced):
    """Per-layer metrics. `attrib` are the traced passes the layer split
    comes from: width nproc for the figure workloads, width 1 for the
    analyzers (whose pool workers build machines the probe cannot see)."""
    def phase(p, *names):
        return sum(p["counts"][f"{n}_ns"] for n in names)

    def med(f, passes=attrib):
        return median([f(p) for p in passes])

    exchange = ("scatter", "price", "gather", "recycle")
    c = attrib[0]["counts"]
    m = {
        "sim.closure_ms": med(lambda p: ms(phase(p, "compute"))),
        "sim.scatter_ms": med(lambda p: ms(phase(p, "scatter"))),
        "sim.gather_ms": med(lambda p: ms(phase(p, "gather"))),
        "sim.recycle_ms": med(lambda p: ms(phase(p, "recycle"))),
        "sim.exchange_ns_per_record": med(
            lambda p: phase(p, "scatter", "gather", "recycle") / max(p["counts"]["send_records"], 1)),
        "machines.price_ms": med(lambda p: ms(phase(p, "price"))),
        "machines.memo_hit_rate": c["memo_hits"] / max(c["memo_lookups"], 1),
        "machines.router_passes": c["router_passes"],
        "machines.router_min_passes": c["router_min_passes"],
        "experiments.outside_ms": med(
            lambda p: ms(p["wall_ns"] - phase(p, "compute", *exchange))),
        "experiments.render_ms": med(lambda p: ms(sum(u["render_ns"] for u in p["units"]))),
    }
    for uid in EXPERIMENTS:
        m[f"experiments.{uid}.wall_ms"] = unit_ms(untraced, uid)
    m["audit.sweep_ms"] = unit_ms(untraced, "audit", render=False)
    m["sym.sweep_ms"] = unit_ms(untraced, "sym", render=False)
    for key in ("supersteps", "send_records", "machines",
                "steps_fused", "steps_sharded", "steps_reference"):
        m[f"sim.{key}"] = c[key]
    plans = [u["plans"] for p in untraced for u in p["units"] if "plans" in u]
    m["audit.plans"] = plans[0] if plans else 0
    for leg, passes in (("nproc", nproc_traced), ("1", w1_traced)):
        m[f"leg_{leg}.wall_ms"] = med(lambda p: ms(p["wall_ns"]), passes)
        m[f"leg_{leg}.closure_ms"] = med(lambda p: ms(phase(p, "compute")), passes)
        m[f"leg_{leg}.exchange_ms"] = med(lambda p: ms(phase(p, *exchange)), passes)
        m[f"leg_{leg}.sim.machines"] = passes[0]["counts"]["machines"]
    m["trace.overhead_s"] = (median([p["wall_ns"] for p in nproc_traced])
                             - median([p["wall_ns"] for p in untraced])) / 1e9
    return m


def declared_units(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for a run."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_counts(tally, label, passes, pinned):
    """Exact counts repeat across passes and match the pinned values."""
    for p in passes:
        for key in EXACT:
            tally.check(p["counts"][key] == pinned[key],
                        f"{label} {key} {p['counts'][key]} != pinned {pinned[key]}")


def run(args):
    units = declared_units(args.trace)
    binary = build()
    nproc = len(os.sched_getaffinity(0))
    pinned_all = load_counts()

    setups, spawns = [], []
    if args.trace == 0:
        true = shutil.which("true")
        if true is None:
            fail("no `true` program to time a bare spawn with", 2)
        for _ in range(SETUP_REPS):
            rec, _ = launch(binary, args.workload, args.seed, nproc, "--setup-only")
            setups.append(rec["setup_s"])
            spawns.append(bare_spawn_ns(true))
    tally = Tally()
    seconds = str(args.seconds if args.trace == 0 else args.seconds / 2)
    mode = "paired" if args.trace else "plain"
    main_rec, _ = launch(binary, args.workload, args.seed, nproc, "--seconds", seconds,
                         "--mode", mode)
    setups.append(main_rec["setup_s"])
    seed = main_rec["seed"]
    pinned = pinned_counts(pinned_all, args.workload, seed)
    passes = main_rec["passes"]
    untraced = [p for p in passes if not p["traced"]]
    tally.passes(passes, pinned)
    legs = {"nproc": main_rec["width"]}

    if args.trace == 0:
        # Each pass is scaled by the calibration samples taken through it,
        # so drift within the run cancels too. The scaled pass times vary
        # independently around a steady level, so their mean is the
        # steadiest estimate of it.
        raw_wall_s = mean(p["wall_ns"] for p in untraced) / 1e9
        wall_s = mean(p["wall_ns"] * speed(p["calib_ns"]) for p in untraced) / 1e9
        metrics = {
            "wall_s": wall_s,
            "setup_s": median(setups) * SPAWN_REF_NS / median(spawns),
            "peak_rss_mb": main_rec["peak_rss_kib"] / 1024,
            "supersteps_per_s": pinned["supersteps"] / wall_s,
        }
        print(json.dumps({"host_seconds": {"wall_s": raw_wall_s, "setup_s": median(setups),
                                           "speed_factor": wall_s / raw_wall_s,
                                           "bare_spawn_s": median(spawns) / 1e9,
                                           "passes": len(untraced)}}))
    else:
        w1_rec, _ = launch(binary, args.workload, args.seed, 1, "--seconds", seconds,
                           "--mode", "traced")
        legs["1"] = w1_rec["width"]
        tally.passes(w1_rec["passes"], pinned)
        nproc_traced = [p for p in passes if p["traced"]]
        w1_traced = w1_rec["passes"]
        check_counts(tally, "width-1 leg", w1_traced, pinned)
        if args.workload == "analyzers":
            attrib = w1_traced
        else:
            check_counts(tally, "width-nproc leg", nproc_traced, pinned)
            attrib = nproc_traced
        metrics = layer_metrics(untraced, attrib, nproc_traced, w1_traced)
        metrics["error_rate"] = tally.failed / tally.attempted
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", 2)

    print(json.dumps({"provenance": {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": nproc,
        "pool_width": legs,
        "workload": args.workload,
        "requested_seed": args.seed,
        "seed": seed,
        "trace": bool(args.trace),
    }}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def pin():
    """Regenerates golden.txt from width-1 traced passes: figure digests and
    exact counts per shipped seed, and the analyzers' counts once."""
    binary = build()
    lines = ["# perfbench golden values; regenerate with `python3 perfbench/run.py --pin`.",
             "# digest <seed> <experiment> <fnv1a-64 of the rendered text>",
             "# counts <workload> <seed, * = seed-independent> <name>=<exact count>"]
    jobs = [(w, s) for s in SHIPPED_SEEDS for w in ("kernels", "exchange")]
    jobs.append(("analyzers", SHIPPED_SEEDS[0]))
    for workload, seed in jobs:
        rec, digests = launch(binary, workload, seed, 1, "--mode", "traced", "--pin")
        counts = rec["passes"][0]["counts"]
        plans = [u["plans"] for u in rec["passes"][0]["units"] if "plans" in u]
        exact = {k: counts[k] for k in EXACT}
        exact["audit_plans"] = plans[0] if plans else 0
        label = "*" if workload == "analyzers" else str(seed)
        lines += digests
        lines.append(f"counts {workload} {label} " + " ".join(f"{k}={v}" for k, v in exact.items()))
        print(f"pinned {workload} seed {label}", file=sys.stderr)
    GOLDEN.write_text("\n".join(lines) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1996)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if args.pin:
        pin()
    elif args.workload is None:
        ap.error("--workload is required")
    else:
        run(args)


if __name__ == "__main__":
    main()
