"""House detection and counting over binarised probability maps.

The post-processing chain: threshold the probability map, erode once with a
square element to separate closely placed buildings, take connected components
as individual houses, and match their bounding boxes against manually labelled
boxes.  A matched pair (IoU strictly above threshold by default) is a true
positive; an unmatched detection containing two or more manual boxes is a
residential hit worth at least two houses in the derived precision/recall.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .raster import unit_array


@dataclass(frozen=True)
class DetectionBox:
    """Tight bounding box in inclusive pixel coordinates."""

    row_min: int
    col_min: int
    row_max: int
    col_max: int
    area: int = 0  # pixels of the component (or rectangle) the box encloses

    def __post_init__(self):
        if self.row_min > self.row_max or self.col_min > self.col_max:
            raise ValueError("box corners out of order")

    def box_area(self) -> int:
        return (self.row_max - self.row_min + 1) * (self.col_max - self.col_min + 1)


@dataclass
class CountReport:
    """Tallies from box matching plus the residential-adjusted metrics.

    machine_count == tp + fp + residential; human_count == tp + fn +
    residential_houses, where residential_houses (manual boxes consumed by
    residential detections) is at least 2 * residential.
    """

    human_count: int
    machine_count: int
    tp: int
    fp: int
    fn: int
    residential: int
    residential_houses: int
    precision: float
    recall: float


def erode(mask: np.ndarray, radius: int = 1, iterations: int = 1) -> np.ndarray:
    """Binary erosion by a (2r+1)x(2r+1) square; out-of-bounds counts as 0."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    mask = np.asarray(mask).astype(bool)
    if radius == 0 or iterations == 0:
        return mask.astype(np.uint8)
    structure = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    out = ndimage.binary_erosion(mask, structure=structure, iterations=iterations,
                                 border_value=0)
    return out.astype(np.uint8)


def components(mask: np.ndarray, connectivity: int = 8):
    """Connected components of 1-pixels with deterministic scan-order labels.

    Returns (labelled int array, [DetectionBox...]) where label i+1 corresponds
    to boxes[i]; labels are ordered by each component's first pixel in
    row-major scan order.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    mask = np.asarray(mask).astype(bool)
    structure = np.ones((3, 3), dtype=int) if connectivity == 8 else None
    raw, n = ndimage.label(mask, structure=structure)
    if n == 0:
        return raw, []
    # reorder labels by first occurrence in scan order
    flat = raw.ravel()
    first = np.full(n + 1, flat.size, dtype=np.int64)
    nz = np.flatnonzero(flat)
    np.minimum.at(first, flat[nz], nz)
    order = np.argsort(first[1:], kind="stable")
    remap = np.zeros(n + 1, dtype=raw.dtype)
    remap[1 + order] = np.arange(1, n + 1)
    labelled = remap[raw]

    boxes = []
    slices = ndimage.find_objects(labelled)
    for i, sl in enumerate(slices, start=1):
        rs, cs = sl
        area = int((labelled[sl] == i).sum())
        boxes.append(DetectionBox(rs.start, cs.start, rs.stop - 1, cs.stop - 1, area))
    return labelled, boxes


def _overlap(a: DetectionBox, b: DetectionBox) -> int:
    """Pixels the two boxes share on the inclusive pixel grid (0 if disjoint)."""
    ri = max(a.row_min, b.row_min)
    ci = max(a.col_min, b.col_min)
    rx = min(a.row_max, b.row_max)
    cx = min(a.col_max, b.col_max)
    if ri > rx or ci > cx:
        return 0
    return (rx - ri + 1) * (cx - ci + 1)


def iou(a: DetectionBox, b: DetectionBox) -> float:
    """Intersection over union of boxes on the inclusive pixel grid."""
    inter = _overlap(a, b)
    return inter / (a.box_area() + b.box_area() - inter)


def _containment(inner: DetectionBox, outer: DetectionBox) -> float:
    """Fraction of inner's area inside outer."""
    return _overlap(inner, outer) / inner.box_area()


def count_metrics(tp: int, fp: int, fn: int, residential: int) -> tuple:
    """Residential-adjusted precision and recall.

    Each residential hit stands in for at least two houses, so the effective
    hit count is tp + 2*residential.  Empty denominators read as 1 (an empty
    prediction makes no false claims).
    """
    if min(tp, fp, fn, residential) < 0:
        raise ValueError("tallies must be nonnegative")
    hits = tp + 2 * residential
    precision = hits / (hits + fp) if hits + fp > 0 else 1.0
    recall = hits / (hits + fn) if hits + fn > 0 else 1.0
    return precision, recall


def match_boxes(detected, manual, iou_threshold: float = 0.5,
                strict: bool = True) -> CountReport:
    """Greedy one-to-one matching in descending IoU order.

    Pairs above the threshold (strictly above when `strict`) are TPs.  An
    unmatched detection is Residential when it contains two or more manual
    boxes not already consumed (a manual box counts as contained when at least
    half its own area lies inside the detection); those manual boxes are
    consumed.  Remaining detections are FPs; remaining manual boxes are FNs.
    """
    detected = list(detected)
    manual = list(manual)
    pairs = []
    for di, d in enumerate(detected):
        for mi, m in enumerate(manual):
            v = iou(d, m)
            ok = v > iou_threshold if strict else v >= iou_threshold
            if ok:
                pairs.append((v, di, mi))
    # descending IoU; ties resolved by detection then manual index
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    det_used = [False] * len(detected)
    man_used = [False] * len(manual)
    tp = 0
    for _, di, mi in pairs:
        if not det_used[di] and not man_used[mi]:
            det_used[di] = True
            man_used[mi] = True
            tp += 1

    residential = 0
    residential_houses = 0
    for di, d in enumerate(detected):
        if det_used[di]:
            continue
        inside = [mi for mi, m in enumerate(manual)
                  if not man_used[mi] and _containment(m, d) >= 0.5]
        if len(inside) >= 2:
            det_used[di] = True
            residential += 1
            residential_houses += len(inside)
            for mi in inside:
                man_used[mi] = True

    fp = det_used.count(False)
    fn = man_used.count(False)
    precision, recall = count_metrics(tp, fp, fn, residential)
    return CountReport(
        human_count=len(manual), machine_count=len(detected),
        tp=tp, fp=fp, fn=fn, residential=residential,
        residential_houses=residential_houses,
        precision=precision, recall=recall,
    )


def count_pipeline(prob_map: np.ndarray, threshold: float, erode_radius: int = 1,
                   erode_iterations: int = 1, manual=None, connectivity: int = 8,
                   iou_threshold: float = 0.5, strict: bool = True):
    """Binarise at the operating threshold, erode, extract component boxes, and
    (when manual boxes are given) produce the matching report."""
    if not (0.0 <= threshold <= 1.0):
        raise ValueError("threshold must lie in [0, 1]")
    prob_map = unit_array(prob_map)
    mask = (prob_map >= threshold).astype(np.uint8)
    mask = erode(mask, erode_radius, erode_iterations)
    _, boxes = components(mask, connectivity)
    report = None
    if manual is not None:
        report = match_boxes(boxes, manual, iou_threshold, strict)
    return boxes, report


# ---------------------------------------------------------------------------
# box CSV format: id,row_min,col_min,row_max,col_max (inclusive coordinates)


def write_boxes_csv(boxes, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "row_min", "col_min", "row_max", "col_max"])
        for i, b in enumerate(boxes):
            writer.writerow([i, b.row_min, b.col_min, b.row_max, b.col_max])


def read_boxes_csv(path):
    boxes = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "row_min", "col_min", "row_max", "col_max"]:
            raise ValueError(f"{path}: unexpected box CSV header {header}")
        for row in reader:
            _, rmin, cmin, rmax, cmax = (int(v) for v in row)
            boxes.append(DetectionBox(rmin, cmin, rmax, cmax,
                                      area=(rmax - rmin + 1) * (cmax - cmin + 1)))
    return boxes
