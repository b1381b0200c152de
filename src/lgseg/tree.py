"""Two-level classifier tree: a residential-area score gates the threshold.

Each 16-px tile carries a residential-area (RA) score in [0, 1].  Where the
score clears the gate t1, the probability map is binarised at t2; elsewhere at
t3.  A residential tile should make detections easier, so a fitted tree
typically ends with t2 <= t3 and the high t3 suppresses isolated
hallucinations.  Fitting initialises each threshold at its classifier's own
max-F point, then cycles coordinate ascent over a fixed grid until the mean
relaxed F stops improving.  Every F of a fit, the start of t2 = t3 included,
comes from `_mean_fs`: one `evaluation.relaxed_counts` call per image and
sweep, on the score map `_leaf_scores` builds for the swept coordinate, against
the image's `RelaxedTruth`, built once per fit.  A sweep's scores depend only
on the other two thresholds, so a coordinate is not swept again while the
thresholds are those its last sweep left: that sweep would change nothing.
A closing cycle that moves nothing thus sweeps only the coordinates before
the one that moved last, and none when that was t1.

At desk scale the RA score of a tile is the mean of a trained model's 16x16
output patch there, taken from the same per-tile inference loop that `lgseg
infer` stitches (a global-only variant plays the role of the standalone
residential classifier), but the fitter is agnostic to where the scores came
from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import (DEFAULT_RHO, RelaxedTruth, count_points, image_mean, max_f,
                         nearest_sqdist, relaxed_counts, relaxed_prf, threshold_grid)
from .raster import LabelMap, unit_array
from .sampling import (grid_centers, grid_shape, residential_label, tile_index_map,
                       ResidentialClass)

DEFAULT_GRID_STEP = 0.01
DEFAULT_TOL = 1e-4
DEFAULT_MAX_CYCLES = 20


@dataclass(frozen=True)
class TreeThresholds:
    """Gate threshold t1 on the RA score; leaf thresholds t2 (residential)
    and t3 (otherwise), all clamped into [0, 1]."""

    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        for name in ("t1", "t2", "t3"):
            object.__setattr__(self, name, min(1.0, max(0.0, float(getattr(self, name)))))


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

    @property
    def ra_pixels(self) -> np.ndarray:
        """The RA score of the tile that owns each pixel in a stitched map."""
        return self.ra_scores.ravel()[tile_index_map(self.prob_map.shape)]


@dataclass
class FitResult:
    thresholds: TreeThresholds
    trace: list  # mean relaxed F after every coordinate step
    leaf_order_ok: bool  # soft expectation t2 <= t3


def _leaf_scores(prob, ra_pixels, th: TreeThresholds, coord: str) -> tuple:
    """(scores, sign) such that, with `coord` of th set to v, the tree predicts
    scores >= sign * v.  Where v decides, the score is prob (t2, t3) or, for t1,
    ra or -nextafter(ra, inf) when t2 > t3 (>= -v exactly when ra < v); elsewhere
    +inf / -inf as prob reaches the other leaf (t1: the higher leaf) or not."""
    if coord == "t1":
        lo, hi = sorted((th.t2, th.t3))
        sign = 1.0 if th.t2 <= th.t3 else -1.0
        decides, fixed = (prob >= lo) & (prob < hi), hi
        swept = ra_pixels if sign > 0 else -np.nextafter(ra_pixels, np.inf)
    else:
        sign, fixed, swept = 1.0, (th.t3 if coord == "t2" else th.t2), prob
        decides = (ra_pixels >= th.t1) == (coord == "t2")
    return np.where(decides, swept, np.where(prob >= fixed, np.inf, -np.inf)), sign


# ---------------------------------------------------------------------------
# fitting


class _FitImage:
    """Validation image with everything the objective needs precomputed."""

    def __init__(self, inp: TreeInput, gt: LabelMap, rho: int):
        if (gt.height, gt.width) != inp.prob_map.shape:
            raise ValueError("ground truth extents do not match the probability map")
        self.prob = inp.prob_map
        self.ra_pixels = inp.ra_pixels
        # the transform runs through tree's own binding, which the benchmark's
        # tracer counts apart from evaluation's
        self.truth = RelaxedTruth(gt.labels, rho, nearest_sqdist(gt.labels))


def _mean_fs(images, th: TreeThresholds, coord: str, values) -> list:
    """Mean relaxed F over the images with coordinate `coord` of th at each value."""
    per_image = []
    for img in images:
        scores, sign = _leaf_scores(img.prob, img.ra_pixels, th, coord)
        counts = relaxed_counts(scores, img.truth, np.multiply(sign, values))
        per_image.append(relaxed_prf(counts)[2])
    return image_mean(per_image).tolist()


def fit_thresholds(validation, rho: int = DEFAULT_RHO, min_houses: int = 15,
                   step: float = DEFAULT_GRID_STEP, tol: float = DEFAULT_TOL,
                   max_cycles: int = DEFAULT_MAX_CYCLES) -> FitResult:
    """Fit (t1, t2, t3) on validation pairs of (TreeInput, LabelMap).

    Initialisation is per classifier: t1 maximises the F of the RA tile
    classifier against tile-level residential ground truth (excluded tiles
    are dropped; lacking both classes is an error), and t2 = t3 take the plain
    max-F threshold of the probability maps.  Then cyclic coordinate ascent on
    the grid, keeping the current value on ties, until a full cycle improves
    the mean relaxed F by less than tol or max_cycles is hit.  A skipped sweep
    (see the module docstring) still appends its step to the trace.
    """
    validation = list(validation)
    if not validation:
        raise ValueError("validation set is empty")
    images = [_FitImage(inp, gt, rho) for inp, gt in validation]
    grid = threshold_grid(step)

    # tile-level residential truth for the gate threshold
    scores, truth = [], []
    for inp, gt in validation:
        classes = residential_label(gt, grid_centers(inp.prob_map.shape), min_houses)
        for klass, score in zip(classes, inp.ra_scores.ravel()):
            if klass is ResidentialClass.EXCLUDED:
                continue
            scores.append(score)
            truth.append(klass is ResidentialClass.RESIDENTIAL)
    truth = np.array(truth, dtype=bool)
    if truth.all() or not truth.any():
        raise ValueError("validation tiles lack both residential classes; "
                         "the gate threshold is undefined")
    t1_counts = relaxed_counts(np.array(scores)[None], RelaxedTruth(truth[None], 0), grid)
    t1, _ = max_f(count_points(grid, t1_counts))
    # with gate 0 every pixel takes leaf t2 (RA scores lie in [0, 1]), so this
    # sweep scores the plain probability maps; argmax keeps the lowest tie
    t23 = grid[int(np.argmax(_mean_fs(images, TreeThresholds(0.0, 0.0, 0.0), "t2", grid)))]

    current = TreeThresholds(t1, t23, t23)
    (best_f,) = _mean_fs(images, current, "t2", (current.t2,))
    trace = [best_f]
    swept = {}  # coordinate -> the thresholds its last sweep left
    for _ in range(max_cycles):
        cycle_start = best_f
        for coord in ("t1", "t2", "t3"):
            if swept.get(coord) == current:
                trace.append(best_f)
                continue
            fs = [best_f if t == getattr(current, coord) else f
                  for t, f in zip(grid, _mean_fs(images, current, coord, grid))]
            top = max(fs)
            # ties keep the current value; improvements take the lowest argmax
            if top > best_f:
                current = TreeThresholds(**{**current.__dict__, coord: grid[int(np.argmax(fs))]})
                best_f = top
            swept[coord] = current
            trace.append(best_f)
        if best_f - cycle_start < tol:
            break
    return FitResult(current, trace, leaf_order_ok=current.t2 <= current.t3)
