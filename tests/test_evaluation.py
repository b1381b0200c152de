"""Relaxed-metric tests against brute-force nearest-neighbour oracles."""

import numpy as np
import pytest
from scipy import ndimage

from lgseg import evaluation
from lgseg.evaluation import (PrPoint, RelaxedTruth, count_points, f_measure, max_f,
                              nearest_sqdist, pr_curve, relaxed_counts, relaxed_prf, set_curve)
from lgseg.rng import SplitMix64


def relaxed_pr(pred, gt, rho):
    """(precision, recall) of a binary prediction, through the library's counts."""
    counts = relaxed_counts(np.asarray(pred).astype(bool), RelaxedTruth(gt, rho), (1.0,))
    (point,) = count_points((1.0,), counts)
    return point.precision, point.recall


def brute_sqdist(mask):
    """O(n^2) exact squared distance to the nearest 1-pixel."""
    mask = np.asarray(mask).astype(bool)
    out = np.full(mask.shape, np.inf)
    ones = np.argwhere(mask)
    if ones.size == 0:
        return out
    for r in range(mask.shape[0]):
        for c in range(mask.shape[1]):
            d = (ones[:, 0] - r) ** 2 + (ones[:, 1] - c) ** 2
            out[r, c] = d.min()
    return out


def brute_relaxed_pr(pred, gt, rho):
    """Independent relaxed P/R via explicit nearest-neighbour search."""
    pred = np.asarray(pred).astype(bool)
    gt = np.asarray(gt).astype(bool)
    gt_sq = brute_sqdist(gt)
    pred_sq = brute_sqdist(pred)
    n_pred = pred.sum()
    n_gt = gt.sum()
    precision = 1.0 if n_pred == 0 else (pred & (gt_sq <= rho * rho)).sum() / n_pred
    recall = 1.0 if n_gt == 0 else (gt & (pred_sq <= rho * rho)).sum() / n_gt
    return precision, recall


def random_mask(rng, shape=(32, 32), density=0.1):
    return rng.uniform(0, 1, shape) < density


class TestDistanceTransform:
    def test_matches_brute_force_on_sparse_maps(self):
        rng = SplitMix64(0)
        for i in range(200):
            mask = random_mask(rng, (16, 16), density=0.05 + 0.2 * (i % 4))
            got = nearest_sqdist(mask)
            want = brute_sqdist(mask)
            assert np.array_equal(got, want)

    def test_empty_mask_is_infinite(self):
        assert np.isinf(nearest_sqdist(np.zeros((4, 4)))).all()

    def test_zero_on_positives(self):
        rng = SplitMix64(1)
        mask = random_mask(rng)
        sq = nearest_sqdist(mask)
        assert (sq[mask] == 0).all()


class TestRelaxedPr:
    def test_identical_maps_perfect(self):
        rng = SplitMix64(2)
        mask = random_mask(rng)
        for rho in (0, 1, 3):
            assert relaxed_pr(mask, mask, rho) == (1.0, 1.0)

    def test_distance_three_boundary(self):
        gt = np.zeros((9, 9), dtype=np.uint8)
        pred = np.zeros((9, 9), dtype=np.uint8)
        gt[4, 4] = 1
        pred[4, 7] = 1
        assert relaxed_pr(pred, gt, 3) == (1.0, 1.0)
        assert relaxed_pr(pred, gt, 2) == (0.0, 0.0)

    def test_rho_zero_equals_exact_confusion_matrix(self):
        rng = SplitMix64(3)
        for _ in range(50):
            pred = random_mask(rng, density=0.2)
            gt = random_mask(rng, density=0.2)
            precision, recall = relaxed_pr(pred, gt, 0)
            tp = (pred & gt).sum()
            want_p = 1.0 if pred.sum() == 0 else tp / pred.sum()
            want_r = 1.0 if gt.sum() == 0 else tp / gt.sum()
            assert precision == want_p and recall == want_r

    def test_empty_prediction_vacuous_precision(self):
        gt = np.zeros((8, 8), dtype=np.uint8)
        gt[2, 2] = 1
        assert relaxed_pr(np.zeros((8, 8)), gt, 3) == (1.0, 0.0)

    def test_empty_gt_vacuous_recall(self):
        pred = np.zeros((8, 8), dtype=np.uint8)
        pred[2, 2] = 1
        assert relaxed_pr(pred, np.zeros((8, 8)), 3) == (0.0, 1.0)

    def test_monotone_in_rho(self):
        rng = SplitMix64(4)
        for _ in range(10):
            pred = random_mask(rng)
            gt = random_mask(rng)
            prev = (0.0, 0.0)
            for rho in (0, 1, 2, 3, 5):
                cur = relaxed_pr(pred, gt, rho)
                assert cur[0] >= prev[0] and cur[1] >= prev[1]
                prev = cur

    def test_symmetry_precision_recall_swap(self):
        rng = SplitMix64(5)
        for _ in range(10):
            a = random_mask(rng)
            b = random_mask(rng)
            assert relaxed_pr(a, b, 2)[0] == relaxed_pr(b, a, 2)[1]

    def test_matches_brute_force_oracle(self):
        rng = SplitMix64(6)
        for _ in range(25):
            pred = random_mask(rng, (24, 24), 0.15)
            gt = random_mask(rng, (24, 24), 0.15)
            for rho in (0, 1, 2, 3):
                assert relaxed_pr(pred, gt, rho) == brute_relaxed_pr(pred, gt, rho)

    def test_extent_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relaxed_pr(np.zeros((4, 4)), np.zeros((5, 5)), 1)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            relaxed_pr(np.zeros((4, 4)), np.zeros((4, 4)), -1)


def brute_counts(pred, gt, rho):
    """(predicted, correct, true, found) pixel counts via explicit search."""
    pred = np.asarray(pred).astype(bool)
    gt = np.asarray(gt).astype(bool)
    return (int(pred.sum()), int((pred & (brute_sqdist(gt) <= rho * rho)).sum()),
            int(gt.sum()), int((gt & (brute_sqdist(pred) <= rho * rho)).sum()))


class TestRelaxedCounts:
    THRESHOLDS = evaluation.threshold_grid(0.125)

    def on_threshold_maps(self, seed):
        """Three images whose probabilities all sit on a grid threshold, 0 or 1."""
        rng = SplitMix64(seed)
        levels = np.array((0.0,) + self.THRESHOLDS + (1.0,))
        probs, gts = [], []
        for density in (0.0, 0.1, 0.3):
            pick = (rng.uniform(0, 1, (11, 13)) * len(levels)).astype(int)
            probs.append(levels[pick])
            gts.append(random_mask(rng, (11, 13), density))
        return probs, gts

    @pytest.mark.parametrize("rho", [0, 1, 2, 3, 4])
    def test_every_aggregate_matches_brute_force_exactly(self, rho):
        probs, gts = self.on_threshold_maps(30 + rho)
        per_image = [[brute_counts(p >= t, g, rho) for t in self.THRESHOLDS]
                     for p, g in zip(probs, gts)]
        for prob, gt, want in zip(probs, gts, per_image):
            got = relaxed_counts(prob, RelaxedTruth(gt, rho), self.THRESHOLDS)
            assert got.T.tolist() == [list(c) for c in want]
            curve = pr_curve(prob, gt, rho, self.THRESHOLDS)
            for point, t in zip(curve, self.THRESHOLDS):
                assert (point.precision, point.recall) == brute_relaxed_pr(prob >= t, gt, rho)

        pooled = set_curve(probs, gts, rho, self.THRESHOLDS, aggregate="pooled")
        mean = set_curve(probs, gts, rho, self.THRESHOLDS)
        for i, t in enumerate(self.THRESHOLDS):
            n_pred, n_correct, n_gt, n_found = np.sum([img[i] for img in per_image], axis=0)
            precision = n_correct / n_pred if n_pred else 1.0
            recall = n_found / n_gt if n_gt else 1.0
            assert (pooled[i].precision, pooled[i].recall) == (precision, recall)
            assert pooled[i].f == f_measure(precision, recall)
            fs = [f_measure(*brute_relaxed_pr(p >= t, g, rho)) for p, g in zip(probs, gts)]
            assert mean[i].f == float(np.mean(fs))

    def test_precomputed_truth_gives_the_same_counts(self):
        # one truth, its transform given, serves several score maps
        probs, gts = self.on_threshold_maps(40)
        truth = RelaxedTruth(gts[2], 2, nearest_sqdist(gts[2]))
        for prob in probs:
            assert np.array_equal(relaxed_counts(prob, truth, self.THRESHOLDS),
                                  relaxed_counts(prob, RelaxedTruth(gts[2], 2), self.THRESHOLDS))

    def test_infinite_scores_always_or_never_predict(self):
        gt = np.zeros((6, 6), dtype=bool)
        gt[1, 1] = True
        scores = np.full((6, 6), -np.inf)
        scores[1, 3] = np.inf
        counts = relaxed_counts(scores, RelaxedTruth(gt, 2), (0.1, 0.9))
        assert counts.tolist() == [[1, 1], [1, 1], [1, 1], [1, 1]]


def footprint_counts(scores, gt, rho, thresholds):
    """relaxed_counts as computed before the disk maximum was gathered at the
    true pixels: one full-map footprint maximum_filter per call."""
    scores = np.asarray(scores, dtype=np.float64)
    gt = np.asarray(gt).astype(bool)
    near = nearest_sqdist(gt) <= float(rho) * float(rho)
    dy, dx = np.ogrid[-rho:rho + 1, -rho:rho + 1]
    reach = ndimage.maximum_filter(scores, footprint=dy * dy + dx * dx <= rho * rho,
                                   mode="constant", cval=-np.inf)
    thresholds = np.asarray(thresholds, dtype=np.float64)

    def at_least(values):
        return values.size - np.searchsorted(np.sort(values), thresholds, side="left")

    return np.stack([at_least(scores.ravel()), at_least(scores[near]),
                     np.full(thresholds.shape, gt.sum()), at_least(reach[gt])])


def border_truth(shape):
    """Truth touching all four borders: the first and last row and column."""
    gt = np.zeros(shape, dtype=bool)
    gt[[0, -1], :] = True
    gt[:, [0, -1]] = True
    return gt


TRUTHS = {
    "random": lambda rng, shape: random_mask(rng, shape, 0.25),
    "empty": lambda rng, shape: np.zeros(shape, dtype=bool),
    "all": lambda rng, shape: np.ones(shape, dtype=bool),
    "borders": lambda rng, shape: border_truth(shape),
    "corners": lambda rng, shape: np.isin(np.arange(shape[0] * shape[1]).reshape(shape),
                                          [0, shape[1] - 1, (shape[0] - 1) * shape[1],
                                           shape[0] * shape[1] - 1]),
}


class TestDiskMaxOracle:
    """The gathered disk maximum against the footprint maximum_filter path."""

    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1), (7, 11), (12, 5)],
                             ids=["row", "column", "pixel", "wide", "tall"])
    @pytest.mark.parametrize("truth", list(TRUTHS))
    @pytest.mark.parametrize("rho", range(6))
    def test_counts_match_the_footprint_filter_exactly(self, rho, truth, shape):
        rng = SplitMix64(1000 * rho + 10 * len(truth) + shape[0])
        gt = TRUTHS[truth](rng, shape)
        # few levels give ties; +-inf are the tree sweep's forced leaves
        scores = np.round(rng.uniform(-1, 1, shape), 1)
        scores[rng.uniform(0, 1, shape) < 0.15] = np.inf
        scores[rng.uniform(0, 1, shape) < 0.15] = -np.inf
        # a threshold at every score value pins the whole distribution of maxima
        thresholds = np.unique(np.concatenate([scores.ravel(), [-2.0, 0.05, 2.0]]))
        truth_map = RelaxedTruth(gt, rho)
        got = relaxed_counts(scores, truth_map, thresholds)
        assert got.dtype == np.int64
        assert np.array_equal(got, footprint_counts(scores, gt, rho, thresholds))
        # a truth serves any number of score maps
        again = rng.uniform(0, 1, shape)
        assert np.array_equal(relaxed_counts(again, truth_map, thresholds),
                              footprint_counts(again, gt, rho, thresholds))


class TestRelaxedPrf:
    def test_array_f_matches_f_measure_bit_for_bit(self):
        rng = SplitMix64(51)
        n = 4000
        n_pred = (rng.uniform(0, 1, n) * 10 ** rng.uniform(0, 7, n)).astype(np.int64)
        n_gt = (rng.uniform(0, 1, n) * 10 ** rng.uniform(0, 7, n)).astype(np.int64)
        n_correct = (rng.uniform(0, 1, n) * n_pred).astype(np.int64)
        n_found = (rng.uniform(0, 1, n) * n_gt).astype(np.int64)
        # zero n_pred, zero n_gt, and p + r == 0 (nothing correct and nothing found)
        n_pred[:40], n_correct[:40] = 0, 0
        n_gt[40:80], n_found[40:80] = 0, 0
        n_correct[80:120], n_found[80:120] = 0, 0
        n_pred[120], n_correct[120], n_gt[120], n_found[120] = 0, 0, 0, 0
        n_pred[121], n_correct[121], n_gt[121], n_found[121] = 3, 0, 0, 0
        n_pred[122], n_correct[122], n_gt[122], n_found[122] = 0, 0, 5, 0
        counts = np.stack([n_pred, n_correct, n_gt, n_found])
        got = relaxed_prf(counts)
        assert got.shape == (3, n)
        want = []
        for p, c, g, f in zip(*counts.tolist()):
            precision = c / p if p else 1.0
            recall = f / g if g else 1.0
            want.append((precision, recall, f_measure(precision, recall)))
        assert [tuple(x.hex() for x in col) for col in got.T.tolist()] == \
            [tuple(x.hex() for x in w) for w in want]
        assert (got[2, 80:120] == 0.0).all() and got[2, 122] == 0.0 and got[2, 120] == 1.0


class TestPrCurve:
    def test_constant_prob_step_function(self):
        gt = np.zeros((10, 10), dtype=np.uint8)
        gt[4:6, 4:6] = 1
        prob = np.full((10, 10), 0.7)
        curve = pr_curve(prob, gt, rho=1)
        for p in curve:
            if p.threshold <= 0.7:
                # all-ones prediction: every gt pixel is found
                assert p.recall == 1.0
            else:
                assert p.precision == 1.0 and p.recall == 0.0

    def test_prob_equal_gt_perfect_everywhere(self):
        rng = SplitMix64(7)
        gt = random_mask(rng).astype(np.uint8)
        curve = pr_curve(gt.astype(float), gt, rho=1)
        for p in curve:
            assert p.precision == 1.0 and p.recall == 1.0 and p.f == 1.0

    def test_every_point_matches_per_threshold_oracle(self):
        rng = SplitMix64(8)
        prob = rng.uniform(0, 1, (32, 32))
        gt = random_mask(rng, (32, 32), 0.15)
        curve = pr_curve(prob, gt, rho=1, thresholds=[0.2, 0.5, 0.8])
        for p in curve:
            want = brute_relaxed_pr(prob >= p.threshold, gt, 1)
            assert (p.precision, p.recall) == want

    def test_recall_nonincreasing_in_threshold(self):
        rng = SplitMix64(9)
        prob = rng.uniform(0, 1, (20, 20))
        gt = random_mask(rng, (20, 20))
        curve = pr_curve(prob, gt, rho=2)
        recalls = [p.recall for p in curve]
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            pr_curve(np.zeros((4, 4)), np.zeros((4, 4)), 1, thresholds=[0.5, 0.2])

    def test_out_of_range_probs_rejected(self):
        with pytest.raises(ValueError):
            pr_curve(np.full((4, 4), 1.5), np.zeros((4, 4)), 1)

    def test_nan_probs_rejected(self):
        prob = np.full((4, 4), 0.5)
        prob[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            pr_curve(prob, np.zeros((4, 4)), 1)


class TestMaxF:
    def test_perfect_curve_takes_lowest_threshold(self):
        rng = SplitMix64(10)
        gt = random_mask(rng).astype(np.uint8)
        curve = pr_curve(gt.astype(float), gt, rho=1)
        t, f = max_f(curve)
        assert f == 1.0 and t == curve[0].threshold

    def test_tie_breaks_toward_lower_threshold(self):
        pts = [PrPoint(t, 0, 0, f) for t, f in [(0.1, 0.2), (0.2, 0.9), (0.3, 0.9), (0.4, 0.4)]]
        t, f = max_f(pts)
        assert (t, f) == (0.2, 0.9)

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            max_f([])


class TestSetCurve:
    def test_mean_f_matches_hand_computation(self):
        # three tiny images with known per-image behaviour at two thresholds
        gts, probs = [], []
        rng = SplitMix64(11)
        for _ in range(3):
            gt = random_mask(rng, (12, 12), 0.2).astype(np.uint8)
            probs.append(gt * 0.6 + 0.1)  # gt pixels 0.7, rest 0.1
            gts.append(gt)
        curve = set_curve(probs, gts, rho=1, thresholds=[0.5, 0.9])
        per_image = [pr_curve(p, g, 1, [0.5, 0.9]) for p, g in zip(probs, gts)]
        for i in range(2):
            want_f = np.mean([c[i].f for c in per_image])
            assert curve[i].f == pytest.approx(want_f, abs=1e-12)

    @pytest.mark.parametrize("n_images", range(1, 25))
    def test_image_mean_matches_per_threshold_list_mean_bit_for_bit(self, n_images):
        # set_curve averages (3, n) precision/recall/F arrays, a tree sweep (n,) F arrays
        rng = SplitMix64(100 + n_images)
        n = len(evaluation.DEFAULT_THRESHOLDS)
        per_image = []
        for _ in range(n_images):
            values = rng.uniform(0, 1, (3, n))
            values[:, :5], values[:, -5:] = 1.0, 0.0  # what empty predictions and truths give
            per_image.append(values)
        want = np.array([[np.mean([values[k, i] for values in per_image]) for i in range(n)]
                         for k in range(3)])
        got = evaluation.image_mean(per_image)
        assert got.shape == (3, n)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        fs = evaluation.image_mean([values[2] for values in per_image])
        assert np.array_equal(fs.view(np.uint64), want[2].view(np.uint64))

    def test_mean_f_differs_from_pooled_on_unbalanced_sets(self):
        gt1 = np.zeros((12, 12), dtype=np.uint8)
        gt1[2:10, 2:10] = 1
        gt2 = np.zeros((12, 12), dtype=np.uint8)
        gt2[5, 5] = 1
        probs = [gt1 * 0.8, np.full((12, 12), 0.3)]
        mean_curve = set_curve(probs, [gt1, gt2], 0, thresholds=[0.5])
        pooled_curve = set_curve(probs, [gt1, gt2], 0, thresholds=[0.5], aggregate="pooled")
        assert mean_curve[0].f != pooled_curve[0].f

    @pytest.mark.parametrize("aggregate", ["mean_f", "pooled"])
    def test_negative_rho_rejected_for_both_aggregates(self, aggregate):
        gt = np.zeros((8, 8), dtype=np.uint8)
        gt[2:4, 2:4] = 1
        with pytest.raises(ValueError, match="rho"):
            set_curve([gt * 0.7], [gt], -3, aggregate=aggregate)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            set_curve([], [], 1)

    @pytest.mark.parametrize("aggregate", ["mean_f", "pooled"])
    @pytest.mark.parametrize("bad", [-5.0, 1.25, np.nan, np.inf])
    def test_bad_probabilities_rejected_for_both_aggregates(self, aggregate, bad):
        gt = np.zeros((8, 8), dtype=np.uint8)
        gt[2:4, 2:4] = 1
        prob = gt * 0.8
        prob[6, 6] = bad
        with pytest.raises(ValueError, match=r"finite and lie in \[0, 1\]"):
            set_curve([gt * 0.5, prob], [gt, gt], 1, aggregate=aggregate)


class TestThresholdGrid:
    def test_default_grid_is_hundredths(self):
        assert evaluation.DEFAULT_THRESHOLDS == tuple(i / 100.0 for i in range(1, 100))

    @pytest.mark.parametrize("step", [0.001, 0.003, 0.02, 0.05, 0.1, 0.3, 0.5])
    def test_matches_rounded_multiples(self, step):
        grid = evaluation.threshold_grid(step)
        n = int(round(1.0 / step)) - 1
        assert len(grid) == n >= 1
        assert grid == tuple(np.round(np.arange(1, n + 1) * step, 10).tolist())

    @pytest.mark.parametrize("step", [0.0, -0.1, 0.51, 1.0])
    def test_step_outside_range_rejected(self, step):
        with pytest.raises(ValueError):
            evaluation.threshold_grid(step)


def test_pr_csv_format(tmp_path):
    curve = [PrPoint(0.25, 1 / 3, 0.5, 0.4)]
    path = tmp_path / "curve.csv"
    evaluation.write_pr_csv(curve, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "threshold,precision,recall,f"
    assert lines[1] == "0.250000,0.333333,0.500000,0.400000"
