"""Morphology, component, IoU-matching, and counting-arithmetic tests."""

import numpy as np
import pytest

from lgseg import counting
from lgseg.counting import (CountReport, DetectionBox, components,
                            count_metrics, count_pipeline, erode, iou,
                            match_boxes)
from lgseg.raster import DataError
from lgseg.rng import SplitMix64


def box(rmin, cmin, rmax, cmax):
    return DetectionBox(rmin, cmin, rmax, cmax)


def scan_order_labels(mask, connectivity):
    """Components numbered by their first pixel in row-major order, by flood fill."""
    h, w = mask.shape
    steps = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)
             if (dr or dc) and (connectivity == 8 or not (dr and dc))]
    out = np.zeros((h, w), dtype=int)
    n = 0
    for r in range(h):
        for c in range(w):
            if not mask[r, c] or out[r, c]:
                continue
            n += 1
            out[r, c] = n
            stack = [(r, c)]
            while stack:
                y, x = stack.pop()
                for dy, dx in steps:
                    v, u = y + dy, x + dx
                    if 0 <= v < h and 0 <= u < w and mask[v, u] and not out[v, u]:
                        out[v, u] = n
                        stack.append((v, u))
    return out


class TestErode:
    def test_radius_zero_is_identity(self):
        rng = SplitMix64(0)
        mask = (rng.uniform(0, 1, (12, 12)) > 0.5).astype(np.uint8)
        assert np.array_equal(erode(mask, 0), mask)

    def test_all_ones_4x4_leaves_central_2x2(self):
        out = erode(np.ones((4, 4), dtype=np.uint8), 1)
        want = np.zeros((4, 4), dtype=np.uint8)
        want[1:3, 1:3] = 1
        assert np.array_equal(out, want)

    def test_neck_splits_into_two_components(self):
        mask = np.zeros((9, 13), dtype=np.uint8)
        mask[2:7, 1:5] = 1   # left block
        mask[2:7, 8:12] = 1  # right block
        mask[4, 5:8] = 1     # 1 px wide bridge
        _, before = components(mask)
        assert len(before) == 1
        _, after = components(erode(mask, 1))
        assert len(after) == 2

    def test_output_subset_of_input(self):
        rng = SplitMix64(1)
        for seed in range(5):
            mask = (rng.uniform(0, 1, (20, 20)) > 0.4).astype(np.uint8)
            out = erode(mask, 1)
            assert not (out & ~mask).any()

    def test_monotone_and_decreasing_in_radius(self):
        rng = SplitMix64(2)
        small = (rng.uniform(0, 1, (24, 24)) > 0.6).astype(np.uint8)
        big = (small | (rng.uniform(0, 1, (24, 24)) > 0.6)).astype(np.uint8)
        assert not (erode(small, 1) & ~erode(big, 1)).any()  # monotone in input
        assert not (erode(big, 2) & ~erode(big, 1)).any()    # decreasing in radius

    def test_iterations(self):
        mask = np.ones((8, 8), dtype=np.uint8)
        assert np.array_equal(erode(mask, 1, 2), erode(mask, 2, 1))


class TestComponents:
    def test_empty_map(self):
        labelled, boxes = components(np.zeros((5, 5), dtype=np.uint8))
        assert boxes == [] and not labelled.any()

    def test_diagonal_connectivity(self):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[1, 1] = mask[2, 2] = 1
        assert len(components(mask, 8)[1]) == 1
        assert len(components(mask, 4)[1]) == 2

    def test_boxes_tight_and_areas_partition(self):
        rng = SplitMix64(3)
        mask = (rng.uniform(0, 1, (30, 30)) > 0.7).astype(np.uint8)
        labelled, boxes = components(mask)
        # every mask pixel carries exactly one of the labels 1..len(boxes)
        assert np.array_equal(labelled > 0, mask == 1)
        assert np.unique(labelled[labelled > 0]).tolist() == list(range(1, len(boxes) + 1))
        for i, b in enumerate(boxes, start=1):
            region = labelled == i
            rows, cols = np.nonzero(region)
            assert rows.min() == b.row_min and rows.max() == b.row_max
            assert cols.min() == b.col_min and cols.max() == b.col_max

    def test_scan_order_labels(self):
        mask = np.zeros((6, 6), dtype=np.uint8)
        mask[4, 0] = 1  # later in scan order
        mask[0, 3] = 1  # first
        labelled, boxes = components(mask)
        assert labelled[0, 3] == 1 and labelled[4, 0] == 2
        assert boxes[0].row_min == 0 and boxes[1].row_min == 4

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_labels_match_scan_order_flood_fill(self, connectivity):
        # components() takes its numbering from ndimage.label unchanged
        rng = SplitMix64(40 + connectivity)
        for _ in range(120):
            shape = (1 + rng.below(40), 1 + rng.below(40))
            mask = rng.uniform(0, 1, shape) < rng.uniform(0.1, 0.7, 1)[0]
            labelled, boxes = components(mask, connectivity)
            assert np.array_equal(labelled, scan_order_labels(mask, connectivity))
            assert len(boxes) == labelled.max()

    def test_bad_connectivity_rejected(self):
        with pytest.raises(ValueError):
            components(np.zeros((2, 2)), 6)


class TestIou:
    def test_identity(self):
        b = box(2, 3, 10, 12)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(box(0, 0, 4, 4), box(10, 10, 12, 12)) == 0.0

    def test_half_overlap_arithmetic(self):
        # 10x10 nested at the origin of a 10x20: 100 / 200
        assert iou(box(0, 0, 9, 9), box(0, 0, 9, 19)) == 0.5

    def test_symmetric_and_bounded(self):
        rng = SplitMix64(4)
        for _ in range(20):
            a = box(rng.below(10), rng.below(10), 10 + rng.below(10), 10 + rng.below(10))
            b = box(rng.below(10), rng.below(10), 10 + rng.below(10), 10 + rng.below(10))
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0

    def test_one_only_for_identical(self):
        assert iou(box(0, 0, 4, 4), box(0, 0, 4, 5)) < 1.0


class TestMatchBoxes:
    def test_perfect_detection(self):
        manual = [box(0, 0, 5, 5), box(10, 10, 15, 15), box(20, 0, 25, 8)]
        rep = match_boxes(manual, manual)
        assert (rep.tp, rep.fp, rep.fn, rep.residential) == (3, 0, 0, 0)
        assert rep.precision == 1.0 and rep.recall == 1.0

    def test_residential_containment(self):
        manual = [box(2, 2, 6, 6), box(2, 10, 6, 14)]
        detected = [box(0, 0, 8, 16)]  # one blob over both houses
        rep = match_boxes(detected, manual)
        assert rep.residential == 1 and rep.fn == 0 and rep.tp == 0
        assert rep.residential_houses == 2
        assert rep.machine_count == rep.tp + rep.fp + rep.residential
        assert rep.human_count == rep.tp + rep.fn + rep.residential_houses

    def test_exactly_half_iou_is_not_tp(self):
        detected = [box(0, 0, 9, 9)]
        manual = [box(0, 0, 9, 19)]
        rep = match_boxes(detected, manual)
        assert rep.tp == 0
        rep = match_boxes(detected, manual, strict=False)
        assert rep.tp == 1

    def test_greedy_prefers_highest_iou(self):
        manual = [box(0, 0, 9, 9)]
        detected = [box(0, 0, 9, 11), box(0, 0, 9, 9)]
        rep = match_boxes(detected, manual)
        assert rep.tp == 1 and rep.fp == 1

    def test_conservation_over_random_sets(self):
        rng = SplitMix64(5)
        for _ in range(20):
            manual = [box(r, c, r + 3 + rng.below(6), c + 3 + rng.below(6))
                      for r, c in ((rng.below(40), rng.below(40)) for _ in range(rng.below(6) + 1))]
            detected = [box(r, c, r + 3 + rng.below(8), c + 3 + rng.below(8))
                        for r, c in ((rng.below(40), rng.below(40)) for _ in range(rng.below(6) + 1))]
            rep = match_boxes(detected, manual)
            assert rep.machine_count == rep.tp + rep.fp + rep.residential
            assert rep.human_count == rep.tp + rep.fn + rep.residential_houses
            assert rep.residential_houses >= 2 * rep.residential


class TestCountMetrics:
    def test_reference_row_1(self):
        precision, recall = count_metrics(106, 18, 33, 13)
        assert round(precision, 2) == 0.88
        assert round(recall, 2) == 0.80

    def test_reference_row_2(self):
        precision, recall = count_metrics(239, 31, 18, 20)
        assert round(precision, 2) == 0.90
        assert round(recall, 2) == 0.94

    def test_no_residential_reduces_to_plain_metrics(self):
        precision, recall = count_metrics(8, 2, 2, 0)
        assert precision == 0.8 and recall == 0.8

    def test_vacuous_when_empty(self):
        assert count_metrics(0, 0, 0, 0) == (1.0, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            count_metrics(-1, 0, 0, 0)


class TestCountPipeline:
    def test_scaled_ground_truth_recovers_house_count(self):
        from lgseg.synth import SceneSpec, synth_scene
        _, labels, boxes = synth_scene(SceneSpec(house_count=(12, 18), clusters=1,
                                                 texture=0.3, occluders=0.0, seed=11))
        prob = labels.labels.astype(np.float64) * 0.9
        detected, rep = count_pipeline(prob, threshold=0.5, manual=boxes)
        assert len(detected) == len(boxes)
        assert rep.machine_count == len(boxes)
        assert rep.fp == 0 and rep.fn == 0 and rep.residential == 0

    def test_threshold_one_detects_nothing(self):
        rng = SplitMix64(6)
        prob = rng.uniform(0, 0.99, (40, 40))
        manual = [box(5, 5, 12, 12)]
        detected, rep = count_pipeline(prob, threshold=1.0, manual=manual)
        assert detected == []
        assert rep.fn == len(manual)

    def test_threshold_zero_components_from_full_mask(self):
        prob = np.zeros((20, 20))
        prob[5:10, 5:10] = 0.3
        detected, _ = count_pipeline(prob, threshold=0.0, manual=None)
        # threshold 0 turns the whole map on; erosion trims the border only
        assert len(detected) == 1
        assert detected[0].row_min == 1 and detected[0].row_max == 18

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            count_pipeline(np.zeros((4, 4)), 1.5)

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.5])
    def test_bad_probabilities_rejected(self, bad):
        prob = np.full((8, 8), 0.2)
        prob[3, 4] = bad
        with pytest.raises(ValueError, match=r"finite and lie in \[0, 1\]"):
            count_pipeline(prob, 0.5)


class TestBoxesCsv:
    def test_round_trip(self, tmp_path):
        boxes = [box(1, 2, 3, 4), box(10, 0, 20, 5)]
        p = tmp_path / "boxes.csv"
        counting.write_boxes_csv(boxes, p)
        back = counting.read_boxes_csv(p)
        assert [(b.row_min, b.col_min, b.row_max, b.col_max) for b in back] == \
               [(1, 2, 3, 4), (10, 0, 20, 5)]

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "boxes.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            counting.read_boxes_csv(p)

    @pytest.mark.parametrize("row, why", [("0,1,2,3", "not enough values"),
                                          ("0,-1,2,3,4", "negative"),
                                          ("0,1,-2,3,4", "negative"),
                                          ("0,1,2,0,4", "out of order"),
                                          ("0,1,2,3,x", "invalid literal")])
    def test_bad_row_data_error_names_file_and_line(self, tmp_path, row, why):
        p = tmp_path / "boxes.csv"
        p.write_text("id,row_min,col_min,row_max,col_max\n0,1,2,3,4\n" + row + "\n")
        with pytest.raises(DataError, match=rf"boxes\.csv:3: .*{why}"):
            counting.read_boxes_csv(p)
