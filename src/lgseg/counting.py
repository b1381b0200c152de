"""House detection and counting over binarised probability maps.

The post-processing chain: threshold the probability map, erode with a square
element to separate closely placed buildings, take connected components as
individual houses, and match their bounding boxes against manually labelled
boxes through one detections x manual matrix of shared pixels.  A matched pair
(IoU strictly above threshold by default) is a true positive; an unmatched
detection containing two or more manual boxes is a residential hit worth at
least two houses in the derived precision/recall.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .raster import DataError, unit_array


@dataclass(frozen=True)
class DetectionBox:
    """Tight bounding box in inclusive (nonnegative) pixel coordinates."""

    row_min: int
    col_min: int
    row_max: int
    col_max: int

    def __post_init__(self):
        if not (0 <= self.row_min <= self.row_max and 0 <= self.col_min <= self.col_max):
            raise ValueError("box corners negative or out of order")


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
    """Binary erosion by a (2r+1)x(2r+1) square, `iterations` passes; out-of-bounds
    counts as 0.  Each pass is a separable running minimum, which holds O(pixels)
    memory for any radius; passes stop once the mask is empty."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    out = np.asarray(mask).astype(bool).view(np.uint8)
    size = 2 * min(radius, max(out.shape)) + 1  # any larger square erodes every pixel too
    for _ in range(iterations if radius else 0):
        if not out.any():
            break
        out = ndimage.minimum_filter(out, size=size, mode="constant", cval=0)
    return out


def components(mask: np.ndarray, connectivity: int = 8):
    """Connected components of 1-pixels with deterministic scan-order labels.

    Returns (labelled int array, [DetectionBox...]) where label i+1 corresponds
    to boxes[i]; ndimage.label numbers the components by their first pixel in
    row-major scan order.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    mask = np.asarray(mask).astype(bool)
    structure = np.ones((3, 3), dtype=int) if connectivity == 8 else None
    labelled, _ = ndimage.label(mask, structure=structure)
    boxes = [DetectionBox(rs.start, cs.start, rs.stop - 1, cs.stop - 1)
             for rs, cs in ndimage.find_objects(labelled)]
    return labelled, boxes


def box_array(boxes) -> np.ndarray:
    """(n, 4) int64 inclusive corners, one row per box in DetectionBox field order."""
    return np.array([(b.row_min, b.col_min, b.row_max, b.col_max) for b in boxes],
                    dtype=np.int64).reshape(-1, 4)


def _areas(boxes: np.ndarray) -> np.ndarray:
    return (boxes[:, 2:] + 1 - boxes[:, :2]).prod(axis=1)


def _overlaps(det: np.ndarray, man: np.ndarray) -> tuple:
    """The pixels each pair of box_array rows shares on the inclusive pixel
    grid (0 where disjoint) and the pair's IoU, as two (det, man) matrices."""
    lo, hi = np.maximum(det[:, None, :2], man[:, :2]), np.minimum(det[:, None, 2:], man[:, 2:])
    inter = np.maximum(hi + 1 - lo, 0).prod(axis=2)
    return inter, inter / (_areas(det)[:, None] + _areas(man) - inter)


def iou(a: DetectionBox, b: DetectionBox) -> float:
    """Intersection over union of two boxes, by the rule match_boxes applies."""
    return float(_overlaps(box_array([a]), box_array([b]))[1][0, 0])


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
    """Greedy one-to-one matching in descending IoU order (ties by detection,
    then manual index), with both rules read from one shared-pixel matrix.

    Pairs above the threshold (strictly above when `strict`) are TPs.  An
    unmatched detection is Residential when it contains two or more manual
    boxes not already consumed (at least half of a manual box's own area lies
    inside it); those manual boxes are consumed.  Remaining detections are FPs;
    remaining manual boxes are FNs.
    """
    det, man = box_array(detected), box_array(manual)
    inter, ious = _overlaps(det, man)
    di, mi = np.nonzero(ious > iou_threshold if strict else ious >= iou_threshold)
    det_used, man_used = np.zeros(len(det), dtype=bool), np.zeros(len(man), dtype=bool)
    tp = residential = residential_houses = 0
    order = np.lexsort((mi, di, -ious[di, mi]))
    for d, m in zip(di[order].tolist(), mi[order].tolist()):
        if not (det_used[d] or man_used[m]):
            det_used[d] = man_used[m] = True
            tp += 1
    contains = 2 * inter >= _areas(man)  # at least half of the manual box inside
    for d in np.flatnonzero(~det_used).tolist():
        inside = contains[d] & ~man_used
        houses = int(inside.sum())
        if houses >= 2:
            det_used[d] = True
            man_used |= inside
            residential += 1
            residential_houses += houses
    fp, fn = det_used.tolist().count(False), man_used.tolist().count(False)
    precision, recall = count_metrics(tp, fp, fn, residential)
    return CountReport(human_count=len(man), machine_count=len(det), tp=tp, fp=fp, fn=fn,
                       residential=residential, residential_houses=residential_houses,
                       precision=precision, recall=recall)


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
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(io.StringIO(fh.read(), newline=""))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    boxes = []
    try:
        header = next(reader, None)
        if header != ["id", "row_min", "col_min", "row_max", "col_max"]:
            raise ValueError(f"{path}: unexpected box CSV header {header}")
        for row in reader:
            try:
                _, rmin, cmin, rmax, cmax = (int(v) for v in row)
                boxes.append(DetectionBox(rmin, cmin, rmax, cmax))
            except ValueError as exc:
                raise DataError(f"{path}:{reader.line_num}: bad box row {row}: {exc}") from None
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    return boxes
