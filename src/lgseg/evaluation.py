"""Relaxed precision/recall ("correctness/completeness") over probability maps.

A predicted pixel counts as correct when it lies within rho pixels (Euclidean)
of *some* true pixel, and a true pixel as found when within rho of some
predicted pixel.  `relaxed_counts` applies this rule at every threshold at
once to a `RelaxedTruth`, which holds what the rule needs of one truth map:
the near-truth mask, from one exact distance transform (integer squared
distances, so the rho test is exact), and where each true pixel's rho-disk
lies in the padded, flattened scores.  A true pixel is found at t exactly when
the highest score in its disk reaches t; that maximum is read at the true
pixels only, one disk offset at a time.  A truth built once serves any number
of score maps, as a tree fit's sweeps do.  Its disk is cut at the map: a rho
past the map's diagonal gives the counts of the smallest radius that reaches
every pixel from every other (_disk_cap), so the truth uses that radius.
`relaxed_prf` derives precision, recall and F arrays from the counts.  A curve
is a list of PrPoint, one per threshold; `pr_curve` is the set curve of one
image, and both set aggregates (the mean per-image F by default, or counts
pooled over the images) derive P/R from these counts.

For context only, the published full-scale max F of this method family:
buildings 0.9423 (US); buildings in Europe 0.6271 global, 0.8266 local and
0.8420 dual; roads 0.661 local and 0.665 dual.  Desk-scale synthetic runs are
not expected to reproduce them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .raster import unit_array

DEFAULT_RHO = 3


def threshold_grid(step: float) -> tuple:
    """Ascending thresholds step, 2*step, ... below 1, rounded to 10 decimals."""
    if not 0.0 < step <= 0.5:
        raise ValueError("threshold step must lie in (0, 0.5]")
    grid = (round(i * step, 10) for i in range(1, math.ceil(1.0 / step) + 1))
    return tuple(t for t in grid if t < 1.0)


DEFAULT_THRESHOLDS = threshold_grid(0.01)

@dataclass(frozen=True)
class PrPoint:
    threshold: float
    precision: float
    recall: float
    f: float


def f_measure(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def nearest_sqdist(mask: np.ndarray) -> np.ndarray:
    """Exact integer squared Euclidean distance to the nearest 1-pixel
    (np.inf everywhere when the mask is empty)."""
    mask = np.asarray(mask).astype(bool)
    if not mask.any():
        return np.full(mask.shape, np.inf)
    idx = ndimage.distance_transform_edt(~mask, return_distances=False, return_indices=True)
    rows, cols = np.indices(mask.shape)
    dr = idx[0].astype(np.int64) - rows
    dc = idx[1].astype(np.int64) - cols
    return (dr * dr + dc * dc).astype(np.float64)


def _disk_cap(shape: tuple) -> int:
    """The smallest r with r**2 >= (H-1)**2 + (W-1)**2 (0 for a 1x1 map): a
    disk of that radius around any pixel of an H x W map covers the map."""
    d2 = (shape[0] - 1) ** 2 + (shape[1] - 1) ** 2
    return math.isqrt(d2 - 1) + 1 if d2 else 0


class RelaxedTruth:
    """One truth map at match radius rho, as relaxed_counts reads it.

    `gt` is the bool truth and `near` the mask sqdist <= rho**2, where sqdist
    is nearest_sqdist(gt) (computed here when not given), and `rho` is the
    given radius cut at the map (_disk_cap), which finds the same pixels.  In
    the scores padded by rho cells of -inf on every side and flattened, the
    rho-disk of the k-th true pixel (row-major) is the cells corners[k] +
    offset for each offset in `offsets`: the disk is read at the true pixels
    only, one offset at a time.
    """

    def __init__(self, gt: np.ndarray, rho: int, sqdist: np.ndarray = None):
        if rho < 0:
            raise ValueError("rho must be nonnegative")
        self.gt = np.asarray(gt).astype(bool)
        self.rho = rho = min(rho, _disk_cap(self.gt.shape))
        if sqdist is None:
            sqdist = nearest_sqdist(self.gt)
        self.near = sqdist <= float(rho) * float(rho)
        # cell (i, j) of the disk's box around the true pixel (r, c) is padded cell (r + i, c + j)
        dy, dx = np.ogrid[-rho:rho + 1, -rho:rho + 1]
        box_rows, box_cols = np.nonzero(dy * dy + dx * dx <= rho * rho)
        rows, cols = np.nonzero(self.gt)
        width = self.gt.shape[1] + 2 * rho
        self.corners = rows * width + cols
        self.offsets = (box_rows * width + box_cols).tolist()


def relaxed_counts(scores: np.ndarray, truth: RelaxedTruth, thresholds) -> np.ndarray:
    """Relaxed-match counts of the prediction `scores >= t` at each threshold t.

    Rows of the (4, len(thresholds)) int64 result: predicted pixels, correct
    predicted pixels (inside truth.near), true pixels, and found true pixels
    (the highest score within truth.rho of them reaches t).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != truth.gt.shape:
        raise ValueError(f"extent mismatch: {scores.shape} vs {truth.gt.shape}")
    rho = truth.rho
    padded = np.full((scores.shape[0] + 2 * rho, scores.shape[1] + 2 * rho), -np.inf)
    padded[rho:rho + scores.shape[0], rho:rho + scores.shape[1]] = scores
    flat = padded.ravel()
    reach = np.full(truth.corners.shape, -np.inf)
    for offset in truth.offsets:
        np.maximum(reach, flat[offset:].take(truth.corners), out=reach)
    thresholds = np.asarray(thresholds, dtype=np.float64)

    def at_least(values):
        return values.size - np.searchsorted(np.sort(values), thresholds, side="left")

    return np.stack([at_least(scores.ravel()), at_least(scores[truth.near]),
                     np.full(thresholds.shape, truth.corners.size), at_least(reach)])


def relaxed_prf(counts: np.ndarray) -> np.ndarray:
    """(3, n) precision, recall and F from the rows of relaxed_counts, each F
    computed as f_measure does, bit for bit.

    Empty denominators read as 1: an empty prediction makes no false claims,
    an empty ground truth leaves nothing to miss.
    """
    n_pred, n_correct, n_gt, n_found = np.asarray(counts, dtype=np.float64)
    precision = np.divide(n_correct, n_pred, out=np.ones_like(n_pred), where=n_pred != 0)
    recall = np.divide(n_found, n_gt, out=np.ones_like(n_gt), where=n_gt != 0)
    total = precision + recall
    f = np.divide((2.0 * precision) * recall, total, out=np.zeros_like(total),
                  where=total != 0.0)
    return np.stack([precision, recall, f])


def image_mean(per_image) -> np.ndarray:
    """The mean over images of equally shaped per-image arrays.  Each mean
    reduces a C-contiguous image axis: the additions of np.mean over that
    entry's per-image list, in its order, bit for bit."""
    values = np.asarray(per_image, dtype=np.float64)
    return np.ascontiguousarray(np.moveaxis(values, 0, -1)).mean(axis=-1)


def _points(thresholds, prf: np.ndarray) -> list:
    return [PrPoint(t, *row) for t, row in zip(thresholds, prf.T.tolist())]


def count_points(thresholds, counts: np.ndarray) -> list:
    """PrPoints from the rows of relaxed_counts."""
    return _points(thresholds, relaxed_prf(counts))


def _check_thresholds(thresholds) -> tuple:
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds:
        raise ValueError("threshold list is empty")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly increasing")
    return thresholds


def pr_curve(prob: np.ndarray, gt: np.ndarray, rho: int = DEFAULT_RHO,
             thresholds=DEFAULT_THRESHOLDS) -> list:
    """Relaxed PR at each threshold of an ascending grid (prediction = prob >= t):
    the set curve of one image, whose mean is its own value bit for bit."""
    return set_curve([prob], [gt], rho, thresholds)


def set_curve(probs, gts, rho: int = DEFAULT_RHO, thresholds=DEFAULT_THRESHOLDS,
              aggregate: str = "mean_f") -> list:
    """Aggregate curve over a set of images, one PrPoint per threshold.

    "mean_f" (default): per-image F values are averaged at each threshold, and
    the stored precision/recall are plain means as well.  "pooled": relaxed hit
    and denominator counts are summed across images before deriving P/R/F.
    """
    probs = [unit_array(p) for p in probs]
    gts = list(gts)
    if len(probs) != len(gts) or not probs:
        raise ValueError("need equally many probability maps and ground truths")
    if aggregate not in ("mean_f", "pooled"):
        raise ValueError("aggregate must be 'mean_f' or 'pooled'")
    thresholds = _check_thresholds(thresholds)
    counts = [relaxed_counts(p, RelaxedTruth(g, rho), thresholds) for p, g in zip(probs, gts)]
    if aggregate == "pooled":
        return count_points(thresholds, sum(counts))
    return _points(thresholds, image_mean([relaxed_prf(c) for c in counts]))


def max_f(points) -> tuple:
    """(threshold, F) at the maximum F; ties break toward the lower threshold."""
    if not points:
        raise ValueError("empty curve")
    best = points[0]
    for p in points[1:]:
        if p.f > best.f:
            best = p
    return best.threshold, best.f


def write_pr_csv(points, path) -> None:
    """threshold,precision,recall,f with six decimal digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "precision", "recall", "f"])
        for p in points:
            writer.writerow([f"{p.threshold:.6f}", f"{p.precision:.6f}",
                             f"{p.recall:.6f}", f"{p.f:.6f}"])
