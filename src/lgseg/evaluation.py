"""Relaxed precision/recall ("correctness/completeness") over binary maps.

A predicted pixel counts as correct when it lies within rho pixels (Euclidean)
of *some* true pixel, and a true pixel as found when within rho of some
predicted pixel.  Distances come from an exact distance transform, with the
comparison done on integer squared distances so the rho test is exact.  Curves
sweep a threshold grid over a probability map; sets of images aggregate by the
mean per-image F at each threshold (pooled-pixel aggregation is available as
an alternative).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

DEFAULT_RHO = 3


def threshold_grid(step: float) -> tuple:
    """Ascending thresholds step, 2*step, ... below 1, rounded to 10 decimals."""
    if not 0.0 < step <= 0.5:
        raise ValueError("threshold step must lie in (0, 0.5]")
    n = int(round(1.0 / step)) - 1
    return tuple(round(i * step, 10) for i in range(1, n + 1))


DEFAULT_THRESHOLDS = threshold_grid(0.01)

# Published full-scale scores for this method family, kept for context only;
# desk-scale synthetic runs are not expected to reproduce them.
REFERENCE_MAX_F = {
    "buildings_us": 0.9423,
    "buildings_europe_global": 0.6271,
    "buildings_europe_local": 0.8266,
    "buildings_europe_dual": 0.8420,
    "roads_local": 0.661,
    "roads_dual": 0.665,
}


@dataclass(frozen=True)
class PrPoint:
    threshold: float
    precision: float
    recall: float
    f: float


@dataclass
class PrCurve:
    points: list
    rho: int

    def thresholds(self):
        return [p.threshold for p in self.points]


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


def relaxed_pr(pred: np.ndarray, gt: np.ndarray, rho: int = DEFAULT_RHO) -> tuple:
    """(precision, recall) with rho-pixel relaxation.

    Empty denominators read as 1: an empty prediction makes no false claims,
    an empty ground truth leaves nothing to miss.
    """
    pred = np.asarray(pred).astype(bool)
    gt = np.asarray(gt).astype(bool)
    if pred.shape != gt.shape:
        raise ValueError(f"extent mismatch: {pred.shape} vs {gt.shape}")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    limit = float(rho) * float(rho)
    n_pred = int(pred.sum())
    n_gt = int(gt.sum())
    if n_pred == 0:
        precision = 1.0
    else:
        precision = int((pred & (nearest_sqdist(gt) <= limit)).sum()) / n_pred
    if n_gt == 0:
        recall = 1.0
    else:
        recall = int((gt & (nearest_sqdist(pred) <= limit)).sum()) / n_gt
    return precision, recall


def unit_array(values, what: str = "probabilities") -> np.ndarray:
    """values as a float64 array, rejected unless every one is finite and in
    [0, 1] (NaN fails both comparisons, so it is rejected too)."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError(f"{what} must be finite and lie in [0, 1]")
    return values


def _check_thresholds(thresholds) -> tuple:
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds:
        raise ValueError("threshold list is empty")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("thresholds must be strictly increasing")
    return thresholds


def pr_curve(prob: np.ndarray, gt: np.ndarray, rho: int = DEFAULT_RHO,
             thresholds=DEFAULT_THRESHOLDS) -> PrCurve:
    """Relaxed PR at each threshold of an ascending grid (prediction = prob >= t)."""
    prob = unit_array(prob)
    thresholds = _check_thresholds(thresholds)
    points = []
    for t in thresholds:
        precision, recall = relaxed_pr(prob >= t, gt, rho)
        points.append(PrPoint(t, precision, recall, f_measure(precision, recall)))
    return PrCurve(points, rho)


def set_curve(probs, gts, rho: int = DEFAULT_RHO, thresholds=DEFAULT_THRESHOLDS,
              aggregate: str = "mean_f") -> PrCurve:
    """Aggregate curve over a set of images.

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

    if aggregate == "mean_f":
        curves = [pr_curve(p, g, rho, thresholds) for p, g in zip(probs, gts)]
        points = []
        for i, t in enumerate(thresholds):
            ps = [c.points[i].precision for c in curves]
            rs = [c.points[i].recall for c in curves]
            fs = [c.points[i].f for c in curves]
            points.append(PrPoint(t, float(np.mean(ps)), float(np.mean(rs)), float(np.mean(fs))))
        return PrCurve(points, rho)

    limit = float(rho) * float(rho)
    pred_hits = np.zeros(len(thresholds))
    pred_totals = np.zeros(len(thresholds))
    gt_hits = np.zeros(len(thresholds))
    gt_totals = np.zeros(len(thresholds))
    for prob, gt in zip(probs, gts):
        gt = np.asarray(gt).astype(bool)
        gt_sq = nearest_sqdist(gt)
        for i, t in enumerate(thresholds):
            pred = prob >= t
            pred_totals[i] += pred.sum()
            pred_hits[i] += (pred & (gt_sq <= limit)).sum()
            gt_totals[i] += gt.sum()
            gt_hits[i] += (gt & (nearest_sqdist(pred) <= limit)).sum()
    points = []
    for i, t in enumerate(thresholds):
        precision = pred_hits[i] / pred_totals[i] if pred_totals[i] else 1.0
        recall = gt_hits[i] / gt_totals[i] if gt_totals[i] else 1.0
        points.append(PrPoint(t, precision, recall, f_measure(precision, recall)))
    return PrCurve(points, rho)


def max_f(curve: PrCurve) -> tuple:
    """(threshold, F) at the maximum F; ties break toward the lower threshold."""
    if not curve.points:
        raise ValueError("empty curve")
    best = curve.points[0]
    for p in curve.points[1:]:
        if p.f > best.f:
            best = p
    return best.threshold, best.f


def write_pr_csv(curve: PrCurve, path) -> None:
    """threshold,precision,recall,f with six decimal digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "precision", "recall", "f"])
        for p in curve.points:
            writer.writerow([f"{p.threshold:.6f}", f"{p.precision:.6f}",
                             f"{p.recall:.6f}", f"{p.f:.6f}"])
