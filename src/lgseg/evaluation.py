"""Relaxed precision/recall ("correctness/completeness") over probability maps.

A predicted pixel counts as correct when it lies within rho pixels (Euclidean)
of *some* true pixel, and a true pixel as found when within rho of some
predicted pixel.  `relaxed_counts` applies this rule at every threshold at
once: the near-truth mask comes from one exact distance transform (integer
squared distances, so the rho test is exact), and a true pixel is found at t
exactly when the highest score in its rho-disk, one disk max-filter, reaches t.
A curve is a list of PrPoint, one per threshold; `pr_curve` is the set curve
of one image, and both set aggregates (the mean per-image F by default, or
counts pooled over the images) derive P/R from these counts.

For context only, the published full-scale max F of this method family:
buildings 0.9423 (US); buildings in Europe 0.6271 global, 0.8266 local and
0.8420 dual; roads 0.661 local and 0.665 dual.  Desk-scale synthetic runs are
not expected to reproduce them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .raster import unit_array

DEFAULT_RHO = 3


def threshold_grid(step: float) -> tuple:
    """Ascending thresholds step, 2*step, ... below 1, rounded to 10 decimals."""
    if not 0.0 < step <= 0.5:
        raise ValueError("threshold step must lie in (0, 0.5]")
    n = int(round(1.0 / step)) - 1
    return tuple(round(i * step, 10) for i in range(1, n + 1))


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


def relaxed_counts(scores: np.ndarray, gt: np.ndarray, rho: int, thresholds,
                   near: np.ndarray = None) -> np.ndarray:
    """Relaxed-match counts of the prediction `scores >= t` at each threshold t.

    Rows of the (4, len(thresholds)) int64 result: predicted pixels, correct
    predicted pixels (inside `near`, the mask nearest_sqdist(gt) <= rho**2,
    computed here when not given), true pixels, and found true pixels (the
    highest score within rho of them reaches t).
    """
    scores = np.asarray(scores, dtype=np.float64)
    gt = np.asarray(gt).astype(bool)
    if scores.shape != gt.shape:
        raise ValueError(f"extent mismatch: {scores.shape} vs {gt.shape}")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if near is None:
        near = nearest_sqdist(gt) <= float(rho) * float(rho)
    dy, dx = np.ogrid[-rho:rho + 1, -rho:rho + 1]
    reach = ndimage.maximum_filter(scores, footprint=dy * dy + dx * dx <= rho * rho,
                                   mode="constant", cval=-np.inf)
    thresholds = np.asarray(thresholds, dtype=np.float64)

    def at_least(values):
        return values.size - np.searchsorted(np.sort(values), thresholds, side="left")

    return np.stack([at_least(scores.ravel()), at_least(scores[near]),
                     np.full(thresholds.shape, gt.sum()), at_least(reach[gt])])


def count_points(thresholds, counts: np.ndarray) -> list:
    """PrPoints from the rows of relaxed_counts.

    Empty denominators read as 1: an empty prediction makes no false claims,
    an empty ground truth leaves nothing to miss.
    """
    points = []
    for t, n_pred, n_correct, n_gt, n_found in zip(thresholds, *counts.tolist()):
        precision = n_correct / n_pred if n_pred else 1.0
        recall = n_found / n_gt if n_gt else 1.0
        points.append(PrPoint(t, precision, recall, f_measure(precision, recall)))
    return points


def mean_points(thresholds, per_image) -> list:
    """PrPoints holding the mean per-image precision, recall and F at each
    threshold.  Each mean reduces a C-contiguous image axis: the additions of
    np.mean over that threshold's per-image list, in its order, bit for bit."""
    values = np.array([[(p.precision, p.recall, p.f) for p in image_points]
                       for image_points in per_image])
    means = np.ascontiguousarray(values.transpose(1, 2, 0)).mean(axis=-1)
    return [PrPoint(t, *row) for t, row in zip(thresholds, means.tolist())]


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
    counts = [relaxed_counts(p, g, rho, thresholds) for p, g in zip(probs, gts)]
    if aggregate == "pooled":
        return count_points(thresholds, sum(counts))
    return mean_points(thresholds, [count_points(thresholds, c) for c in counts])


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
