"""Two-level classifier tree: a residential-area score gates the threshold.

Each 16-px tile carries a residential-area (RA) score in [0, 1].  Where the
score clears the gate t1, the probability map is binarised at t2; elsewhere at
t3.  A residential tile should make detections easier, so a fitted tree
typically ends with t2 <= t3 and the high t3 suppresses isolated
hallucinations.  Fitting initialises each threshold at its classifier's own
max-F point, then cycles coordinate ascent over a fixed grid until the mean
relaxed F stops improving.

At desk scale the RA score of a tile is the mean of a trained model's 16x16
output patch there, taken from the same per-tile inference loop that `lgseg
infer` stitches (a global-only variant plays the role of the standalone
residential classifier), but the fitter is agnostic to where the scores came
from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import (DEFAULT_RHO, f_measure, max_f, nearest_sqdist, set_curve,
                         threshold_grid, unit_array)
from .raster import LabelMap
from .sampling import (grid_centers, grid_shape, residential_label, tile_index_map,
                       ResidentialClass)

DEFAULT_GRID_STEP = 0.01
DEFAULT_TOL = 1e-4
DEFAULT_MAX_CYCLES = 20


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, float(v)))


@dataclass(frozen=True)
class TreeThresholds:
    """Gate threshold t1 on the RA score; leaf thresholds t2 (residential)
    and t3 (otherwise), all clamped into [0, 1]."""

    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        object.__setattr__(self, "t1", _clamp01(self.t1))
        object.__setattr__(self, "t2", _clamp01(self.t2))
        object.__setattr__(self, "t3", _clamp01(self.t3))


@dataclass
class TreeInput:
    """Per-tile RA scores on the 16-px grid plus the full-image probability map."""

    ra_scores: np.ndarray
    prob_map: np.ndarray

    def __post_init__(self):
        self.prob_map = unit_array(self.prob_map)
        self.ra_scores = unit_array(self.ra_scores, "RA scores")
        want = grid_shape(self.prob_map.shape)
        if self.ra_scores.shape != want:
            raise ValueError(f"RA grid {self.ra_scores.shape} does not cover a "
                             f"{self.prob_map.shape} image (want {want})")


@dataclass
class FitResult:
    thresholds: TreeThresholds
    trace: list  # mean relaxed F after every coordinate step
    leaf_order_ok: bool  # soft expectation t2 <= t3


def tree_segment(inp: TreeInput, th: TreeThresholds) -> np.ndarray:
    """Binarise the probability map with the per-pixel threshold the tree picks."""
    tiles = tile_index_map(inp.prob_map.shape)
    gate = inp.ra_scores.ravel()[tiles] >= th.t1
    pixel_thresholds = np.where(gate, th.t2, th.t3)
    return (inp.prob_map >= pixel_thresholds).astype(np.uint8)


# ---------------------------------------------------------------------------
# fitting


class _FitImage:
    """Validation image with everything the objective needs precomputed."""

    def __init__(self, inp: TreeInput, gt: LabelMap, rho: int):
        if (gt.height, gt.width) != inp.prob_map.shape:
            raise ValueError("ground truth extents do not match the probability map")
        self.inp = inp
        self.gt = gt.labels.astype(bool)
        self.n_gt = int(self.gt.sum())
        self.gt_near = nearest_sqdist(self.gt) <= float(rho) * float(rho)
        self.rho = rho
        self.tiles = tile_index_map(inp.prob_map.shape)
        self.ra_flat = inp.ra_scores.ravel()

    def relaxed_f(self, th: TreeThresholds) -> float:
        gate = self.ra_flat[self.tiles] >= th.t1
        pred = self.inp.prob_map >= np.where(gate, th.t2, th.t3)
        n_pred = int(pred.sum())
        precision = 1.0 if n_pred == 0 else int((pred & self.gt_near).sum()) / n_pred
        if self.n_gt == 0:
            recall = 1.0
        else:
            limit = float(self.rho) * float(self.rho)
            recall = int((self.gt & (nearest_sqdist(pred) <= limit)).sum()) / self.n_gt
        return f_measure(precision, recall)


def _objective(images, th: TreeThresholds) -> float:
    return float(np.mean([img.relaxed_f(th) for img in images]))


def _binary_f(scores: np.ndarray, truth: np.ndarray, t: float) -> float:
    pred = scores >= t
    tp = int((pred & truth).sum())
    precision = tp / pred.sum() if pred.sum() else 1.0
    recall = tp / truth.sum() if truth.sum() else 1.0
    return f_measure(precision, recall)


def fit_thresholds(validation, rho: int = DEFAULT_RHO, min_houses: int = 15,
                   step: float = DEFAULT_GRID_STEP, tol: float = DEFAULT_TOL,
                   max_cycles: int = DEFAULT_MAX_CYCLES) -> FitResult:
    """Fit (t1, t2, t3) on validation pairs of (TreeInput, LabelMap).

    Initialisation is per classifier: t1 maximises the F of the RA tile
    classifier against tile-level residential ground truth (excluded tiles
    are dropped; lacking both classes is an error), and t2 = t3 take the plain
    max-F threshold of the probability maps.  Then cyclic coordinate ascent on
    the grid, keeping the current value on ties, until a full cycle improves
    the mean relaxed F by less than tol or max_cycles is hit.
    """
    validation = list(validation)
    if not validation:
        raise ValueError("validation set is empty")
    images = [_FitImage(inp, gt, rho) for inp, gt in validation]
    grid = threshold_grid(step)

    # tile-level residential truth for the gate threshold
    scores, truth = [], []
    for (inp, gt), img in zip(validation, images):
        for center, score in zip(grid_centers(inp.prob_map.shape), img.ra_flat):
            klass = residential_label(gt, center, min_houses)
            if klass is ResidentialClass.EXCLUDED:
                continue
            scores.append(score)
            truth.append(klass is ResidentialClass.RESIDENTIAL)
    scores = np.array(scores)
    truth = np.array(truth, dtype=bool)
    if truth.all() or not truth.any():
        raise ValueError("validation tiles lack both residential classes; "
                         "the gate threshold is undefined")
    t1_fs = [_binary_f(scores, truth, t) for t in grid]
    t1 = float(grid[int(np.argmax(t1_fs))])

    seg_curve = set_curve([img.inp.prob_map for img in images],
                          [img.gt for img in images], rho, thresholds=grid)
    t23, _ = max_f(seg_curve)

    current = TreeThresholds(t1, t23, t23)
    best_f = _objective(images, current)
    trace = [best_f]
    for _ in range(max_cycles):
        cycle_start = best_f
        for coord in ("t1", "t2", "t3"):
            candidates = [TreeThresholds(**{**current.__dict__, coord: float(t)}) for t in grid]
            fs = [best_f if getattr(c, coord) == getattr(current, coord)
                  else _objective(images, c) for c in candidates]
            top = max(fs)
            if top > best_f:  # ties keep the current value; improvements take
                current = candidates[int(np.argmax(fs))]  # the lowest argmax
                best_f = top
            trace.append(best_f)
        if best_f - cycle_start < tol:
            break
    return FitResult(current, trace, leaf_order_ok=current.t2 <= current.t3)
