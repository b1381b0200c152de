"""Workload inputs, stage calls and output checks for the lgseg benchmark.

Each workload derives its inputs from one recorded variant (an input seed;
for evaluate, the crops found for it) and writes them to a fresh directory
(the set-up).  Then it repeats one iteration of stage calls through lgseg's
public entry points (lgseg.cli.main and module functions):

  train     lgseg train: one epoch over the balanced triplets of one seeded
            default scene, from a seeded build_model
  infer     lgseg infer --sidecar: a seeded untrained checkpoint on an image
            cut from a seeded scene, with one extent not a multiple of 16
  evaluate  lgseg eval, tree.fit_thresholds and lgseg count on probability
            maps and RA grids derived from the labels of seeded scenes

Every step's outputs are reduced to a fingerprint and compared with the one
recorded in reference.json: discrete artifacts exactly, float artifacts within
FLOAT_ULP_BOUND units in the last place.  A benchmark seed selects one of the
recorded variants, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy import ndimage

from lgseg import cli, config, counting, engine, network, raster, sampling, synth, tree
from lgseg.rng import SplitMix64

# Float outputs may move this many units in the last place: room for a changed
# summation order (about 1e-12 relative), far below any real defect.
FLOAT_ULP_BOUND = 1 << 12
# Float fields compared exactly: thresholds picked from a grid.
EXACT_KEYS = frozenset({"threshold", "t1", "t2", "t3"})
WORKLOADS = ("train", "infer", "evaluate")
# Quantile function (share of pixels, value) of every evaluate probability
# map: about the pooled quantiles of the raw maps _eval_image builds.
PROB_QUANTILES = ((0.0, 0.15, 0.25, 0.5, 0.75, 0.85, 0.9, 0.95, 0.99, 1.0),
                  (0.0, 0.0, 0.035, 0.113, 0.195, 0.25, 0.3, 0.45, 0.8, 0.95))


@dataclass(frozen=True)
class Profile:
    train_samples: int  # triplets per lgseg train call
    infer_shape: tuple  # (rows, cols); rows is not a multiple of 16
    eval_shape: tuple  # (rows, cols) of each evaluate image
    eval_images: int
    config_text: str  # config for every stage call ("" = all defaults)
    tree_trace_len: int | None  # recorded evaluate variants fit in this many steps
    setup_repeats: int
    variants: int  # recorded in reference.json; a seed picks variant seed % variants


PROFILES = {
    "full": Profile(train_samples=24, infer_shape=(184, 160), eval_shape=(64, 256),
                    eval_images=2, config_text="", tree_trace_len=10, setup_repeats=5,
                    variants=8),
    # a few seconds per workload, for the benchmark's own tests
    "tiny": Profile(train_samples=2, infer_shape=(40, 32), eval_shape=(48, 288),
                    eval_images=2,
                    config_text="[tree]\nmin_houses = 3\ngrid_step = 0.1\nmax_cycles = 1\n",
                    tree_trace_len=None, setup_repeats=2, variants=2),
}


@dataclass
class StepResult:
    name: str
    family: str
    seconds: float
    items: int
    problem: str | None  # exception or output mismatch; None when correct
    fingerprint: dict | None


class Step:
    """One timed stage call plus the fingerprint of what it produced."""

    def __init__(self, name, items, call, fingerprint, family=None):
        self.name = name
        self.family = family or name  # steps of one family are reported together
        self.items = items
        self.call = call
        self.fingerprint = fingerprint

    def run(self, expected: dict | None, tracer=None, run_id=None) -> StepResult:
        if tracer is not None:
            tracer.run = run_id
        start = perf_counter()
        try:
            self.call()
        except Exception as exc:  # noqa: BLE001 -- every failure is counted, not fatal
            return StepResult(self.name, self.family, perf_counter() - start, self.items,
                              f"{type(exc).__name__}: {exc}", None)
        finally:
            if tracer is not None:
                tracer.run = None
        seconds = perf_counter() - start
        try:
            got = self.fingerprint()
        except (OSError, ValueError, KeyError) as exc:
            return StepResult(self.name, self.family, seconds, self.items,
                              f"unreadable output: {exc}", None)
        problem = None
        if expected is not None:
            mismatches = compare(expected[self.name], got, self.name)
            problem = "; ".join(mismatches[:3]) or None
        return StepResult(self.name, self.family, seconds, self.items, problem, got)


def _run_cli(argv) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"lgseg {argv[0]} exited with {code}")


def _config(profile: Profile):
    return config.parse_config_text(profile.config_text)


# ---------------------------------------------------------------------------
# workloads


class Train:
    def __init__(self, profile: Profile, input_seed: int):
        self.profile = profile
        self.input_seed = input_seed

    def setup(self, work: Path) -> None:
        rng = SplitMix64(self.input_seed)
        data = work / "data"
        data.mkdir(parents=True)
        img, labels, _ = synth.synth_scene(config.default_config().scene_spec(seed=rng.next_u64()))
        raster.write_raster(img, data / "scene_000.ppm")
        raster.write_label(labels, data / "labels_000.pgm")
        (work / "train.cfg").write_text(
            self.profile.config_text
            + f"[model]\ninit_seed = {rng.next_u64() >> 1}\n"
            + f"[train]\nseed = {rng.next_u64() >> 1}\n"
            + f"samples_per_scene = {self.profile.train_samples}\n")

    def steps(self, work: Path) -> list:
        out = work / "out"
        argv = ["train", "--config", str(work / "train.cfg"), "--data", str(work / "data"),
                "--out", str(out), "--epochs", "1"]
        return [Step("train", self.profile.train_samples, lambda: _run_cli(argv),
                     lambda: _train_fingerprint(out))]


class Infer:
    def __init__(self, profile: Profile, input_seed: int):
        self.profile = profile
        self.input_seed = input_seed

    def setup(self, work: Path) -> None:
        rng = SplitMix64(self.input_seed)
        work.mkdir(parents=True)
        img, _, _ = synth.synth_scene(config.default_config().scene_spec(seed=rng.next_u64()))
        rows, cols = self.profile.infer_shape
        r0 = rng.int_range(0, img.height - rows)
        c0 = rng.int_range(0, img.width - cols)
        crop = np.ascontiguousarray(img.pixels[r0:r0 + rows, c0:c0 + cols])
        raster.write_raster(raster.Raster(cols, rows, 3, crop), work / "image.ppm")
        model = network.build_model(seed=rng.next_u64() >> 1)
        engine.save_checkpoint(work / "model.ckpt", model.params)
        (work / "infer.cfg").write_text(self.profile.config_text)

    def steps(self, work: Path) -> list:
        out = work / "out"
        argv = ["infer", "--config", str(work / "infer.cfg"), "--model", str(work / "model.ckpt"),
                "--image", str(work / "image.ppm"), "--out", str(out), "--sidecar"]
        tiles = len(sampling.grid_centers(self.profile.infer_shape))
        sidecar = out / "image_prob.lgprob"
        return [Step("infer", tiles, lambda: _run_cli(argv),
                     lambda: {"sidecar": _map_digest(raster.read_prob_sidecar(sidecar))})]


class Evaluate:
    def __init__(self, profile: Profile, crops: list):
        self.profile = profile
        self.crops = crops  # [scene seed, first row, first column] per image
        self.validation = None

    def setup(self, work: Path) -> None:
        work.mkdir(parents=True)
        self.validation = []
        for i, (scene_seed, r0, c0) in enumerate(self.crops):
            prob, labels, ra, boxes = _eval_image(scene_seed, r0, c0, self.profile.eval_shape)
            raster.write_prob_sidecar(prob, work / f"pred_{i}.lgprob")
            raster.write_label(labels, work / f"gt_{i}.pgm")
            counting.write_boxes_csv(boxes, work / f"boxes_{i}.csv")
            self.validation.append((tree.TreeInput(ra, prob), labels))
        (work / "evaluate.cfg").write_text(self.profile.config_text)

    def steps(self, work: Path) -> list:
        cfg_path = str(work / "evaluate.cfg")
        cfg = _config(self.profile)
        n = len(self.crops)
        eval_out = work / "eval"
        argv = ["eval", "--config", cfg_path, "--out", str(eval_out)]
        for i in range(n):
            argv += ["--pred", str(work / f"pred_{i}.lgprob"), "--gt", str(work / f"gt_{i}.pgm")]
        fit = {}

        def fit_call():
            fit["result"] = tree.fit_thresholds(
                self.validation, rho=cfg.get("eval", "rho"),
                min_houses=cfg.get("tree", "min_houses"), step=cfg.get("tree", "grid_step"),
                tol=cfg.get("tree", "tol"), max_cycles=cfg.get("tree", "max_cycles"))

        steps = [Step("eval", n, lambda: _run_cli(argv), lambda: _eval_fingerprint(eval_out)),
                 Step("tree_fit", n, fit_call, lambda: _fit_fingerprint(fit["result"]))]
        for i in range(n):
            out = work / f"count_{i}"
            count_argv = ["count", "--config", cfg_path, "--prob", str(work / f"pred_{i}.lgprob"),
                          "--boxes", str(work / f"boxes_{i}.csv"), "--out", str(out)]
            steps.append(Step(f"count_{i}", 1, lambda a=count_argv: _run_cli(a),
                              lambda o=out: {"detections_sha256": _sha256(o / "detections.csv")},
                              family="count"))
        return steps


def make(workload: str, profile: str, variant: dict):
    """The workload for one recorded variant of reference.json."""
    if workload == "evaluate":
        return Evaluate(PROFILES[profile], variant["crops"])
    return {"train": Train, "infer": Infer}[workload](PROFILES[profile], variant["input_seed"])


# ---------------------------------------------------------------------------
# evaluate inputs


def _houses_per_tile(corners: np.ndarray, shape: tuple, centers: np.ndarray) -> np.ndarray:
    """Buildings whose box meets each tile's 256-px window clipped to the
    image: the count sampling.residential_label classifies."""
    half = network.GLOBAL_WIDTH // 2
    r0 = np.maximum(0, centers[:, :1] - half)
    r1 = np.minimum(shape[0], centers[:, :1] + half)
    c0 = np.maximum(0, centers[:, 1:] - half)
    c1 = np.minimum(shape[1], centers[:, 1:] + half)
    meets = ((corners[:, 0] < r1) & (corners[:, 2] >= r0)
             & (corners[:, 1] < c1) & (corners[:, 3] >= c0))
    return meets.sum(axis=1)


def _scene_boxes(scene_seed: int):
    _, labels, boxes = synth.synth_scene(config.default_config().scene_spec(seed=scene_seed))
    corners = np.array([(b.row_min, b.col_min, b.row_max, b.col_max) for b in boxes])
    return labels, corners


def _crop_boxes(corners: np.ndarray, r0: int, c0: int, shape: tuple) -> np.ndarray:
    """Boxes meeting the crop, in crop coordinates (not clipped)."""
    corners = corners - (r0, c0, r0, c0)
    return corners[(corners[:, 2] >= 0) & (corners[:, 0] < shape[0])
                   & (corners[:, 3] >= 0) & (corners[:, 1] < shape[1])]


def find_eval_crops(profile: Profile, input_seed: int) -> list:
    """[scene seed, first row, first column] of each evaluate image: crops of
    seeded default scenes in which at least a tenth of the tiles are
    residential and a tenth non-residential, so the gate threshold t1 is
    defined."""
    rng = SplitMix64(input_seed)
    shape = profile.eval_shape
    centers = np.array(sampling.grid_centers(shape))
    min_houses = _config(profile).get("tree", "min_houses")
    crops = []
    while len(crops) < profile.eval_images:
        scene_seed = rng.next_u64()
        labels, corners = _scene_boxes(scene_seed)
        for _ in range(64):
            r0 = rng.int_range(0, labels.height - shape[0])
            c0 = rng.int_range(0, labels.width - shape[1])
            counts = _houses_per_tile(_crop_boxes(corners, r0, c0, shape), shape, centers)
            if (counts >= min_houses).mean() >= 0.1 and (counts == 0).mean() >= 0.1:
                crops.append([scene_seed, r0, c0])
                break
    return crops


def _match_quantiles(score: np.ndarray) -> np.ndarray:
    """The map with the same pixel order as `score` and the fixed value
    distribution PROB_QUANTILES, ties broken by position.  At every threshold
    each image then predicts the same number of pixels, so the work of a
    relaxed-PR step depends on the seed only through where those pixels lie."""
    order = np.argsort(score, axis=None, kind="stable")
    u = (np.arange(order.size) + 0.5) / order.size
    prob = np.empty(order.size)
    prob[order] = np.interp(u, *PROB_QUANTILES)
    return prob.reshape(score.shape)


def _eval_image(scene_seed: int, r0: int, c0: int, shape: tuple):
    """Labels, manual boxes, a noisy probability map and an RA grid for one
    crop of a seeded scene."""
    rows, cols = shape
    labels, corners = _scene_boxes(scene_seed)
    crop = np.ascontiguousarray(labels.labels[r0:r0 + rows, c0:c0 + cols])
    rng = SplitMix64(scene_seed)
    # each house responds with its own strength; smooth noise adds false
    # alarms and weak houses get missed, so max F stays below 1
    comps, n = ndimage.label(crop, structure=np.ones((3, 3), dtype=int))
    gain = np.concatenate(([0.0], rng.uniform(0.35, 1.0, n)))
    noise = ndimage.gaussian_filter(rng.uniform(-1.0, 1.0, shape), 3.0)
    noise /= np.abs(noise).max()
    prob = _match_quantiles(0.1 + 0.8 * ndimage.gaussian_filter(gain[comps], 1.0) + 0.45 * noise)
    centers = np.array(sampling.grid_centers(shape))
    grid = (len(set(centers[:, 0])), len(set(centers[:, 1])))
    density = ndimage.gaussian_filter(crop.astype(np.float64), 24.0)
    ra = density[centers[:, 0], centers[:, 1]].reshape(grid)
    ra = np.clip(ra / ra.max() + rng.uniform(-0.1, 0.1, grid), 0.0, 1.0)
    manual = [counting.DetectionBox(max(0, r_lo), max(0, c_lo), min(rows - 1, r_hi),
                                    min(cols - 1, c_hi))
              for r_lo, c_lo, r_hi, c_hi in _crop_boxes(corners, r0, c0, shape).tolist()]
    return prob, raster.LabelMap(cols, rows, crop), ra, manual


# ---------------------------------------------------------------------------
# fingerprints


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _sample_indices(size: int, count: int) -> list:
    rng = SplitMix64(0x5EED)
    return sorted({0, size - 1, *(rng.below(size) for _ in range(count))})


def _array_digest(arr: np.ndarray, samples: int = 6) -> dict:
    flat = np.asarray(arr, dtype=np.float64).ravel()
    return {"shape": list(arr.shape),
            "abs_sum": math.fsum(np.abs(flat).tolist()),
            "samples": [[i, float(flat[i])] for i in _sample_indices(flat.size, samples)]}


def _map_digest(prob: np.ndarray) -> dict:
    """Exact sums of every row and column plus sampled pixels: a change to any
    pixel beyond the ulp bound moves a sum or a sample."""
    digest = _array_digest(prob, samples=96)
    digest["row_sums"] = [math.fsum(row) for row in prob.tolist()]
    digest["col_sums"] = [math.fsum(col) for col in prob.T.tolist()]
    return digest


def _train_fingerprint(out: Path) -> dict:
    report = json.loads((out / "train_run.json").read_text())
    tensors = engine.load_checkpoint(out / "model.ckpt")
    return {"triplets": report["triplets"], "epoch_losses": report["epoch_losses"],
            "tensors": {name: _array_digest(t, samples=4) for name, t in tensors.items()}}


def _eval_fingerprint(out: Path) -> dict:
    best = json.loads((out / "max_f.json").read_text())
    return {"pr_curve_sha256": _sha256(out / "pr_curve.csv"),
            "threshold": best["threshold"], "f": best["f"]}


def _fit_fingerprint(result) -> dict:
    th = result.thresholds
    return {"t1": th.t1, "t2": th.t2, "t3": th.t3, "trace": list(result.trace),
            "leaf_order_ok": result.leaf_order_ok}


# ---------------------------------------------------------------------------
# comparison


def _ordered(x: float) -> int:
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(1 << 63) - bits


def ulp_distance(a: float, b: float) -> float:
    if a == b:
        return 0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(_ordered(a) - _ordered(b))


def compare(expected, got, path: str = "") -> list:
    """Mismatches between two fingerprints; an empty list means equal."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or list(expected) != list(got):
            return [f"{path}: keys differ"]
        out = []
        for key in expected:
            out += compare(expected[key], got[key], f"{path}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(got, list) or len(expected) != len(got):
            return [f"{path}: length differs"]
        out = []
        for i, (e, g) in enumerate(zip(expected, got)):
            out += compare(e, g, f"{path}[{i}]")
        return out
    if isinstance(expected, float) and isinstance(got, (float, int)) \
            and not isinstance(got, bool) and path.rpartition(".")[2] not in EXACT_KEYS:
        ulps = ulp_distance(expected, float(got))
        if ulps <= FLOAT_ULP_BOUND:
            return []
        return [f"{path}: {got!r} is {ulps} ulp from {expected!r}"]
    if expected == got and type(expected) is type(got):
        return []
    return [f"{path}: {got!r} != {expected!r}"]
