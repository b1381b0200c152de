"""Tests of the benchmark itself: python3 -m pytest perfbench/tests

Runs use the tiny profile, so each takes a few seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# computed from shapes, call counts and step traces: exact on a rerun
EXACT_LAYER_METRICS = (
    "network.forward.calls", "sampling.residential_label.calls",
    "evaluation.nearest_sqdist.calls", "tree.nearest_sqdist.calls", "engine.conv.gflop",
    "engine.im2col_mb", "engine.conv2d_backward.unused_input_grad_flop_share",
    "sampling.shifted_tile_share", "sampling.stitch.overwritten_px_share",
    "tree.improving_step_share")


def _bench(workload, trace, seed=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--profile", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return {(w, t, k): _result(_bench(w, t))
            for w in workloads.WORKLOADS for t in (0, 1) for k in range(1 + t)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(runs, workload, trace, section):
    detail, result = runs[(workload, trace, 0)]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    named = json.loads((HERE / "moves.json").read_text())["named_metrics"]
    mine = {k for k, v in named.items() if workload in v["workloads"]}
    assert mine - {"setup_s", "peak_rss_mb"} <= set(detail["named"])
    assert detail["named"]["failed_frac"]["value"] == 0
    if trace == 0:
        stage = statistics.median(detail["stage_s"]) * detail["speed_scale"]
        assert result["metrics"]["stage_s"]["value"] == pytest.approx(stage)
        assert len(detail["probe_s"]) == len(detail["stage_s"])
    for key in ("python", "numpy", "scipy", "blas", "blas_threads", "nproc", "cpu"):
        assert detail["env"][key] not in (None, "")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_and_computed_metrics_repeat_exactly(runs, workload):
    first = runs[(workload, 1, 0)][1]["metrics"]
    second = runs[(workload, 1, 1)][1]["metrics"]
    for name in EXACT_LAYER_METRICS:
        assert first[name]["value"] == second[name]["value"], name


def test_traced_workloads_reach_their_layers(runs):
    train = runs[("train", 1, 0)][1]["metrics"]
    infer = runs[("infer", 1, 0)][1]["metrics"]
    evaluate = runs[("evaluate", 1, 0)][1]["metrics"]
    for op in tracing.OPS:
        assert train[f"engine.{op}.fwd_ms"]["value"] > 0, op
        assert train[f"engine.{op}.bwd_ms"]["value"] > 0, op
        assert infer[f"engine.{op}.fwd_ms"]["value"] > 0, op
    assert train["engine.conv2d_backward.unused_input_grad_flop_share"]["value"] > 0
    assert infer["network.forward.calls"]["value"] == 6  # 3 x 2 tiles, one row shifted
    assert infer["sampling.shifted_tile_share"]["value"] == pytest.approx(2 / 6)
    assert 0 < infer["network.global_share"]["value"] < 1
    assert evaluate["evaluation.nearest_sqdist.calls"]["value"] > 0
    assert evaluate["tree.nearest_sqdist.calls"]["value"] > 0
    assert evaluate["sampling.residential_label.calls"]["value"] > 0
    assert evaluate["network.forward.calls"]["value"] == 0


def test_no_wrapper_is_left_after_a_traced_run(tmp_path):
    from lgseg import cli, engine, evaluation, network, tree

    originals = [(tree, "nearest_sqdist", tree.nearest_sqdist),
                 (evaluation, "nearest_sqdist", evaluation.nearest_sqdist),
                 (cli, "load_checkpoint", cli.load_checkpoint),
                 (engine, "load_checkpoint", engine.load_checkpoint),
                 (network.LgSegModel, "forward", network.LgSegModel.forward)]
    wl = workloads.make("infer", "tiny", {"input_seed": 0})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        installed = tracing.installed_wrappers()
        for owner, name, original in originals:
            assert getattr(owner, name) is not original
        assert "lgseg.tree.nearest_sqdist" in installed
        wl.setup(tmp_path / "work")
        results = [step.run(None, tracer, "it0") for step in wl.steps(tmp_path / "work")]
    finally:
        tracer.uninstall()
    assert all(r.problem is None for r in results)
    assert tracing.installed_wrappers() == []
    for owner, name, original in originals:
        assert getattr(owner, name) is original
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "network.forward", "engine.conv2d_forward", "engine.load_checkpoint",
            "sampling.stitch"} <= names


def test_reference_check_uses_exact_and_ulp_comparisons():
    assert workloads.ulp_distance(1.0, math.nextafter(1.0, 2.0)) == 1
    assert workloads.ulp_distance(-0.0, 0.0) == 0
    assert workloads.ulp_distance(math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0)) == 2
    near = 0.5 + 100 * math.ulp(0.5)
    assert workloads.compare({"f": 0.5}, {"f": near}) == []
    assert workloads.compare({"f": 0.5}, {"f": 0.5 + 1e-9}) != []
    assert workloads.compare({"threshold": 0.5}, {"threshold": near}) != []
    assert workloads.compare({"sha": "ab"}, {"sha": "ac"}) != []
    assert workloads.compare({"f": 0.5}, {"f": math.nan}) != []


def test_moves_cover_every_per_layer_metric():
    moves = json.loads((HERE / "moves.json").read_text())
    assert list(moves["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    proc = _bench("train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
