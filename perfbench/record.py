"""Record the reference outputs: python3 perfbench/record.py

Run from the root of an lgseg checkout whose outputs are known good.  For
each profile and workload it sets up the profile's number of variants, runs
one stage iteration on each twice (both runs must give the same
fingerprints) and writes the fingerprints to perfbench/reference.json.

Variants use input seeds 0, 1, 2, ...  For evaluate, the input seed drives
the search for crops in which both residential classes occur; the crops are
stored, so set-up does not repeat the search.  The evaluate candidates are
the input seeds whose max F is below 1 and, in the full profile, whose tree
fit takes the profile's tree_trace_len steps, so that every variant measures
the same number of coordinate-ascent cycles.  Even then the work of a fit
depends on where the predicted pixels lie, by up to a fifth between input
seeds.  So twice as many candidates are found as kept, each gets a cost
(median stage time over speed-probe time, the candidates taking turns), and
the kept ones are those whose cost is nearest the candidates' median: every
benchmark seed then does about the same work, and the spread between seeds
measures the machine.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
COST_ROUNDS = 6


def _fingerprints(workloads, workload, profile, variant, work):
    wl = workloads.make(workload, profile, variant)
    shutil.rmtree(work, ignore_errors=True)
    wl.setup(work)
    runs = []
    for _ in range(2):
        results = [step.run(None) for step in wl.steps(work)]
        problems = [f"{r.name}: {r.problem}" for r in results if r.problem]
        if problems:
            return None, problems
        runs.append({r.name: r.fingerprint for r in results})
    if workloads.compare(runs[0], runs[1]):
        raise RuntimeError(f"{workload} {variant}: outputs differ between reruns")
    return runs[0], []


def _costs(workloads, speed, profile, variants, work) -> list:
    """Each evaluate variant's median, over COST_ROUNDS rounds, of one stage
    iteration's time over the speed probe's.  The variants take turns, so
    machine drift falls alike on all of them."""
    shutil.rmtree(work, ignore_errors=True)
    runs = []
    for i, variant in enumerate(variants):
        wl = workloads.make("evaluate", profile, variant)
        wl.setup(work / str(i))
        runs.append((wl, work / str(i)))
    ratios = [[] for _ in variants]
    for _ in range(COST_ROUNDS):
        for (wl, run_dir), out in zip(runs, ratios):
            probe = speed.probe()
            start = time.perf_counter()
            for step in wl.steps(run_dir):
                step.run(None)
            out.append((time.perf_counter() - start) / probe)
    return [statistics.median(r) for r in ratios]


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    env.pin_threads()
    sys.path.insert(0, str(HERE.parent / "src"))
    import speed
    import workloads

    work = HERE / "_work" / "record"
    reference = {"profiles": {}}
    try:
        for profile_name, profile in workloads.PROFILES.items():
            by_workload = reference["profiles"][profile_name] = {}
            for workload in workloads.WORKLOADS:
                wanted = profile.variants * (2 if workload == "evaluate" else 1)
                variants = []
                seed = 0
                while len(variants) < wanted:
                    variant = {"input_seed": seed}
                    if workload == "evaluate":
                        variant["crops"] = workloads.find_eval_crops(profile, seed)
                    expect, problems = _fingerprints(workloads, workload, profile_name,
                                                     variant, work / "check")
                    if problems:
                        raise RuntimeError(f"{workload} seed {seed}: {problems}")
                    keep = workload != "evaluate" or (
                        expect["eval"]["f"] < 1.0
                        and profile.tree_trace_len in (None, len(expect["tree_fit"]["trace"])))
                    print(f"{profile_name} {workload} seed {seed}: "
                          f"{'kept' if keep else 'skipped'}", file=sys.stderr)
                    if keep:
                        variants.append(dict(variant, expect=expect))
                    seed += 1
                if workload == "evaluate":
                    costs = _costs(workloads, speed, profile_name, variants, work / "cost")
                    middle = statistics.median(costs)
                    ranked = sorted(zip(costs, variants),
                                    key=lambda cv: (abs(cv[0] - middle), cv[1]["input_seed"]))
                    print(f"{profile_name} evaluate costs: "
                          + ", ".join(f"{v['input_seed']}: {c:.2f}" for c, v in ranked),
                          file=sys.stderr)
                    variants = sorted((dict(v, cost=c) for c, v in ranked[:profile.variants]),
                                      key=lambda v: v["input_seed"])
                by_workload[workload] = variants
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
