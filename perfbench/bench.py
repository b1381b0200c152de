"""Benchmark runs: set-up, timed stage iterations, checks and the result line.

One process, one client, one stage call at a time (a closed loop).  An
untraced run sets its inputs up several times (set-up time is the median),
then repeats the workload's stage iteration for about the given seconds and
reports the end-to-end metrics of BENCHMARK.json, its times scaled by the
run's machine speed (speed.py; the raw times are in the detail line).  A
traced run alternates
untraced and traced iterations and reports the per-layer metrics instead.
Every stage call's outputs are checked against reference.json.

The last line of standard output is the result object.  The line before it
gives the environment, the named stage metrics and the timing samples; a copy
with every span goes to perfbench/_results/.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import lgseg
import env
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "_results"
WORK = HERE / "_work"

# each workload's stage metrics, by step family, with their unit
NAMED = {
    "train": {"train": ("train_samples_per_s", "1/s")},
    "infer": {"infer": ("infer_tiles_per_s", "1/s")},
    "evaluate": {"eval": ("eval_s", "s"), "tree_fit": ("tree_fit_s", "s"),
                 "count": ("count_s", "s")},
}


# Times the imports a run makes, in a fresh interpreter with the same
# environment (BLAS threads already pinned) and import path.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
                "import bench; print(time.perf_counter() - t)")


def import_seconds(root: Path) -> float:
    """Wall time of the benchmark's imports (numpy, scipy, lgseg) in a
    child process; the child has ended when this returns."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(HERE), str(root / "src")],
                          cwd=root, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _wall(results) -> float:
    return sum(r.seconds for r in results)


def iterate(wl, work: Path, expected, seconds: float, tracer=None):
    """Stage iterations for about `seconds` seconds, at least one, each after
    a speed probe.  With a tracer each untraced iteration is followed by a
    traced one.

    Returns ([step results per untraced iteration], [per traced iteration],
    [probe seconds])."""
    untraced, traced, probes = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        left = tracing.installed_wrappers()
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {left[:3]}")
        probes.append(speed.probe())
        untraced.append([step.run(expected) for step in wl.steps(work)])
        if tracer is not None:
            tracer.install()
            try:
                run_id = f"it{len(traced)}"
                traced.append([step.run(expected, tracer, run_id) for step in wl.steps(work)])
            finally:
                tracer.uninstall()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return untraced, traced, probes


def named_metrics(workload: str, iterations) -> dict:
    """Median over iterations of each step family's items/s or seconds."""
    out = {}
    for family, (name, unit) in NAMED[workload].items():
        samples = []
        for results in iterations:
            mine = [r for r in results if r.family == family]
            seconds = _wall(mine)
            samples.append(sum(r.items for r in mine) / seconds if unit == "1/s" else seconds)
        out[name] = {"value": statistics.median(samples), "unit": unit, "samples": samples}
    return out


def run(args, root: Path, started: float) -> int:
    if Path(lgseg.__file__).resolve().parent != root / "src" / "lgseg":
        raise RuntimeError(f"imported lgseg from {lgseg.__file__}, not from {root}")
    import_s = time.perf_counter() - started

    spec = json.loads((root / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    variants = reference["profiles"][args.profile][args.workload]
    variant = variants[args.seed % len(variants)]
    expected = variant["expect"]
    profile = workloads.PROFILES[args.profile]
    wl = workloads.make(args.workload, args.profile, variant)

    run_dir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    detail = {"workload": args.workload, "profile": args.profile, "seed": args.seed,
              "variant": args.seed % len(variants), "input_seed": variant["input_seed"],
              "env": env.fingerprint()}
    try:
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                tracer.run = "setup"
                wl.setup(run_dir)
            finally:
                tracer.run = None
                tracer.uninstall()
            untraced, traced, probes = iterate(wl, run_dir, expected, args.seconds, tracer)
            walls = [_wall(r) for r in untraced]
            traced_walls = [_wall(r) for r in traced]
            runs = [f"it{i}" for i in range(len(traced))]
            values = tracing.layer_metrics(tracer.spans, "setup", runs, traced_walls, walls)
            wanted = [m["name"] for m in spec["per_layer"]]
            detail["stage_s"] = {"untraced": walls, "traced": traced_walls}
            detail["engine_network_self_share"] = tracing.self_time_share(
                tracer.spans, runs, ("engine.", "network."))
        else:
            setups = []
            for k in range(profile.setup_repeats):
                shutil.rmtree(run_dir, ignore_errors=True)
                t0 = time.perf_counter()
                wl.setup(run_dir)
                setups.append(time.perf_counter() - t0)
            # the run's own imports are one sample; fresh interpreters give the others
            imports = [import_s] + [import_seconds(root)
                                    for _ in range(profile.setup_repeats - 1)]
            untraced, traced, probes = iterate(wl, run_dir, expected, args.seconds)
            walls = [_wall(r) for r in untraced]
            scale = speed.REFERENCE_S / statistics.median(probes)
            values = {
                "setup_s": (statistics.median(imports) + statistics.median(setups)) * scale,
                "stage_s": statistics.median(walls) * scale,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            wanted = [m["name"] for m in spec["end_to_end"]]
            detail["setup_s"] = {"imports": imports, "setups": setups}
            detail["stage_s"] = walls
            detail["speed_scale"] = scale
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    results = [r for it in untraced + traced for r in it]
    failed = [r for r in results if r.problem is not None]
    detail["probe_s"] = probes
    detail["named"] = named_metrics(args.workload, untraced)
    detail["named"]["failed_frac"] = {"value": len(failed) / len(results), "unit": "ratio"}
    detail["problems"] = sorted({f"{r.name}: {r.problem}" for r in failed})[:5]
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in wanted}

    RESULTS.mkdir(exist_ok=True)
    record = dict(detail, metrics=metrics, spans=tracer.spans if args.trace else [])
    (RESULTS / f"{args.workload}-{args.profile}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record) + "\n")
    print(json.dumps(detail))
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0
