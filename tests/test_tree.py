"""Classifier-tree tests, including an exhaustive grid-search oracle for the
coordinate-descent fitter."""

import numpy as np
import pytest

from lgseg import evaluation, tree
from lgseg.evaluation import (RelaxedTruth, count_points, f_measure, max_f, nearest_sqdist,
                              relaxed_counts, set_curve, threshold_grid)
from lgseg.raster import LabelMap
from lgseg.rng import SplitMix64
from lgseg.tree import FitResult, TreeInput, TreeThresholds, fit_thresholds
from lgseg.sampling import (ResidentialClass, grid_centers, grid_shape,
                            residential_label, tile_index_map)

from test_evaluation import brute_relaxed_pr


def tree_segment(inp, th):
    """Plain-rule oracle: binarise the probability map at t2 where the RA score
    of the tile owning the pixel in a stitched map clears t1, else at t3."""
    ra_pixels = inp.ra_scores.ravel()[tile_index_map(inp.prob_map.shape)]
    return (inp.prob_map >= np.where(ra_pixels >= th.t1, th.t2, th.t3)).astype(np.uint8)


def toy_input(prob, ra_value=None, ra=None):
    prob = np.asarray(prob, dtype=np.float64)
    if ra is None:
        ra = np.full(grid_shape(prob.shape), ra_value, dtype=np.float64)
    return TreeInput(ra_scores=ra, prob_map=prob)


class TestTreeSegment:
    def test_rule_evaluation_by_hand(self):
        prob = np.full((16, 16), 0.4)
        th = TreeThresholds(0.5, 0.3, 0.7)
        assert tree_segment(toy_input(prob, 0.9), th).all()
        assert not tree_segment(toy_input(prob, 0.2), th).any()

    def test_equal_leaves_ignore_gate(self):
        rng = SplitMix64(0)
        prob = rng.uniform(0, 1, (48, 48))
        ra = rng.uniform(0, 1, grid_shape((48, 48)))
        th = TreeThresholds(0.5, 0.4, 0.4)
        out = tree_segment(TreeInput(ra, prob), th)
        assert np.array_equal(out, (prob >= 0.4).astype(np.uint8))

    def test_gate_clamped_above_all_scores_gives_pure_t3(self):
        rng = SplitMix64(1)
        prob = rng.uniform(0, 1, (32, 32))
        ra = rng.uniform(0, 0.99, grid_shape((32, 32)))
        th = TreeThresholds(1.01, 0.2, 0.8)  # clamps to 1.0
        assert th.t1 == 1.0
        out = tree_segment(TreeInput(ra, prob), th)
        assert np.array_equal(out, (prob >= 0.8).astype(np.uint8))

    def test_gate_below_all_scores_gives_pure_t2(self):
        rng = SplitMix64(2)
        prob = rng.uniform(0, 1, (32, 32))
        ra = rng.uniform(0.5, 1.0, grid_shape((32, 32)))
        out = tree_segment(TreeInput(ra, prob), TreeThresholds(0.0, 0.3, 0.9))
        assert np.array_equal(out, (prob >= 0.3).astype(np.uint8))

    def test_monotone_in_probability(self):
        rng = SplitMix64(3)
        prob = rng.uniform(0, 1, (32, 32))
        ra = rng.uniform(0, 1, grid_shape((32, 32)))
        th = TreeThresholds(0.5, 0.3, 0.7)
        base = tree_segment(TreeInput(ra, prob), th)
        raised = tree_segment(TreeInput(ra, np.clip(prob + 0.1, 0, 1)), th)
        assert not (base & ~raised).any()  # no pixel flips 1 -> 0

    def test_ra_grid_extent_checked(self):
        with pytest.raises(ValueError):
            TreeInput(np.zeros((2, 2)), np.zeros((64, 64)))

    def test_image_below_one_tile_rejected(self):
        with pytest.raises(ValueError, match="smaller than one 16px tile"):
            TreeInput(np.zeros((1, 1)), np.zeros((10, 10)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
    def test_nonfinite_or_out_of_range_ra_rejected(self, bad):
        with pytest.raises(ValueError, match="RA scores"):
            TreeInput(np.full(grid_shape((32, 32)), bad), np.zeros((32, 32)))
        ra = np.full(grid_shape((32, 32)), 0.5)
        ra[1, 0] = bad
        with pytest.raises(ValueError, match="RA scores"):
            TreeInput(ra, np.zeros((32, 32)))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, 2.0])
    def test_nonfinite_or_out_of_range_prob_rejected(self, bad):
        prob = np.zeros((32, 32))
        prob[5, 7] = bad
        with pytest.raises(ValueError, match="probabilities"):
            TreeInput(np.full(grid_shape((32, 32)), 0.5), prob)


# ---------------------------------------------------------------------------
# fitting


def paint_houses(shape, n, start=(4, 4), size=4, gap=8):
    gt = np.zeros(shape, dtype=np.uint8)
    r, c = start
    for _ in range(n):
        gt[r:r + size, c:c + size] = 1
        c += gap
        if c + size >= shape[1] - 2:
            c = start[1]
            r += gap
    return gt


def toy_validation(halluc=0.95, house_conf=0.85):
    """One dense residential image, one empty image with hallucinations, one
    middling image; RA scores reflect the residential ground truth."""
    shape = (64, 64)
    items = []

    gt_a = paint_houses(shape, 18)
    prob_a = gt_a * house_conf + 0.02
    items.append((toy_input(prob_a, 0.88), LabelMap(64, 64, gt_a)))

    gt_b = np.zeros(shape, dtype=np.uint8)
    prob_b = np.full(shape, 0.03)
    prob_b[10:14, 30:34] = halluc  # confident hallucinated blobs
    prob_b[40:45, 8:12] = halluc
    items.append((toy_input(prob_b, 0.12), LabelMap(64, 64, gt_b)))

    gt_c = paint_houses(shape, 16, start=(6, 6))
    prob_c = gt_c * house_conf + 0.02
    prob_c[50:53, 50:54] = halluc
    items.append((toy_input(prob_c, 0.81), LabelMap(64, 64, gt_c)))
    return items


def tree_f_direct(items, th, rho):
    """Direct (slow) objective: brute-force relaxed F averaged over images."""
    fs = []
    for inp, gt in items:
        pred = tree_segment(inp, th)
        precision, recall = brute_relaxed_pr(pred, gt.labels, rho)
        fs.append(f_measure(precision, recall))
    return float(np.mean(fs))


def exhaustive_tree_search(items, rho, thresholds, t1_candidates=None):
    """Exact maximum of the mean relaxed F over the full (t1, t2, t3) grid.

    Evaluates every grid combination by decomposing the tree output into the
    gated/ungated regions: cumulative histograms give the precision counts and
    a 2-D cumulative table of per-gt-pixel best-reachable confidences gives the
    recall counts, so the full 99^3 sweep costs a few tables per distinct gate
    partition instead of an EDT per combination.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if t1_candidates is None:
        t1_candidates = thresholds
    n = len(thresholds)
    offsets = [(dy, dx) for dy in range(-rho, rho + 1) for dx in range(-rho, rho + 1)
               if dy * dy + dx * dx <= rho * rho]

    # group t1 candidates by the gate partition they induce on every image
    classes = {}
    for t1 in t1_candidates:
        key = tuple((inp.ra_scores >= t1).tobytes() for inp, _ in items)
        classes.setdefault(key, float(t1))

    from lgseg.sampling import tile_index_map
    from lgseg.evaluation import nearest_sqdist

    best_f, best_th = -1.0, None
    for key, t1 in classes.items():
        mean_f = np.zeros((n, n))
        for inp, gt in items:
            prob = inp.prob_map
            gate = inp.ra_scores.ravel()[tile_index_map(prob.shape)] >= t1
            gtb = gt.labels.astype(bool)
            near = nearest_sqdist(gtb) <= rho * rho
            q = np.searchsorted(thresholds, prob, side="right")

            def region_counts(region):
                hist = np.bincount(q[region], minlength=n + 1)
                total = np.cumsum(hist[::-1])[::-1]  # suffix sums
                hist_near = np.bincount(q[region & near], minlength=n + 1)
                near_c = np.cumsum(hist_near[::-1])[::-1]
                return total[1:], near_c[1:]

            tot_a, near_a = region_counts(gate)
            tot_b, near_b = region_counts(~gate)

            def best_reachable(region):
                cand = np.where(region, prob, -1.0)
                out = np.full(prob.shape, -1.0)
                h, w = prob.shape
                for dy, dx in offsets:
                    src = cand[max(0, dy):h + min(0, dy), max(0, dx):w + min(0, dx)]
                    dst = out[max(0, -dy):h + min(0, -dy), max(0, -dx):w + min(0, -dx)]
                    np.maximum(dst, src, out=dst)
                return out[gtb]

            ia = np.searchsorted(thresholds, best_reachable(gate), side="right")
            ib = np.searchsorted(thresholds, best_reachable(~gate), side="right")
            miss2d = np.zeros((n + 1, n + 1))
            np.add.at(miss2d, (ia, ib), 1.0)
            miss = miss2d.cumsum(axis=0).cumsum(axis=1)[:n, :n]
            n_gt = int(gtb.sum())

            den = tot_a[:, None] + tot_b[None, :]
            num = near_a[:, None] + near_b[None, :]
            with np.errstate(invalid="ignore", divide="ignore"):
                precision = np.where(den > 0, num / np.maximum(den, 1), 1.0)
                recall = (n_gt - miss) / n_gt if n_gt else np.ones((n, n))
                f = np.where(precision + recall > 0,
                             2 * precision * recall / np.maximum(precision + recall, 1e-300), 0.0)
            mean_f += f
        mean_f /= len(items)
        k = np.unravel_index(int(np.argmax(mean_f)), mean_f.shape)
        if mean_f[k] > best_f:
            best_f = float(mean_f[k])
            best_th = TreeThresholds(t1, float(thresholds[k[0]]), float(thresholds[k[1]]))
    return best_f, best_th


def per_candidate_fit(validation, rho, min_houses=15, step=0.01, tol=1e-4, max_cycles=20):
    """Coordinate ascent that scores every candidate triple on its own binary
    map, with one distance transform per image and candidate: the reference
    for fit_thresholds' count-based sweeps.  Returns (thresholds, trace)."""
    grid = threshold_grid(step)
    images = []
    for inp, gt in validation:
        truth = gt.labels.astype(bool)
        images.append((inp, truth, nearest_sqdist(truth) <= rho * rho,
                       tile_index_map(inp.prob_map.shape)))

    def objective(th):
        fs = []
        for inp, truth, near, tiles in images:
            gate = inp.ra_scores.ravel()[tiles] >= th.t1
            pred = inp.prob_map >= np.where(gate, th.t2, th.t3)
            n_pred, n_gt = int(pred.sum()), int(truth.sum())
            precision = 1.0 if n_pred == 0 else int((pred & near).sum()) / n_pred
            recall = 1.0 if n_gt == 0 else \
                int((truth & (nearest_sqdist(pred) <= rho * rho)).sum()) / n_gt
            fs.append(f_measure(precision, recall))
        return float(np.mean(fs))

    scores, tile_truth = [], []
    for inp, gt in validation:
        for center, score in zip(grid_centers(inp.prob_map.shape), inp.ra_scores.ravel()):
            (klass,) = residential_label(gt, [center], min_houses)
            if klass is not ResidentialClass.EXCLUDED:
                scores.append(score)
                tile_truth.append(klass is ResidentialClass.RESIDENTIAL)
    scores, tile_truth = np.array(scores), np.array(tile_truth)
    t1_fs = []
    for t in grid:
        tp = int((scores >= t)[tile_truth].sum())
        n_pred = int((scores >= t).sum())
        t1_fs.append(f_measure(tp / n_pred if n_pred else 1.0, tp / int(tile_truth.sum())))
    t23, _ = max_f(set_curve([inp.prob_map for inp, _ in validation],
                             [gt.labels for _, gt in validation], rho, thresholds=grid))

    current = TreeThresholds(grid[int(np.argmax(t1_fs))], t23, t23)
    best_f = objective(current)
    trace = [best_f]
    for _ in range(max_cycles):
        cycle_start = best_f
        for coord in ("t1", "t2", "t3"):
            candidates = [TreeThresholds(**{**current.__dict__, coord: t}) for t in grid]
            fs = [best_f if getattr(c, coord) == getattr(current, coord) else objective(c)
                  for c in candidates]
            if max(fs) > best_f:
                current = candidates[int(np.argmax(fs))]
                best_f = max(fs)
            trace.append(best_f)
        if best_f - cycle_start < tol:
            break
    return current, trace


def random_validation(seed):
    """Seeded residential, empty and sparse images with noisy hundredth-valued
    maps, a hallucinated blob each, and RA scores that loosely follow the truth."""
    rng = SplitMix64(seed)
    shape = (64, 80)
    items = []
    for n_houses, ra_low, ra_high in ((20, 0.3, 1.0), (0, 0.0, 0.7), (6, 0.1, 0.9)):
        gt = paint_houses(shape, n_houses, start=(3 + rng.below(4), 3 + rng.below(4)))
        prob = np.clip(gt * rng.uniform(0.2, 0.6, shape) + rng.uniform(0, 0.5, shape), 0, 1)
        row = rng.below(50)
        prob[row:row + 6, 40:46] = rng.uniform(0.5, 1.0, (6, 6))
        prob = np.round(prob, 2)  # values sit exactly on grid thresholds
        ra = np.round(rng.uniform(ra_low, ra_high, grid_shape(shape)), 2)
        items.append((TreeInput(ra, prob), LabelMap(shape[1], shape[0], gt)))
    return items


def every_sweep_fit(validation, rho, min_houses=15, step=0.01, tol=1e-4, max_cycles=20):
    """fit_thresholds' count-based loop as it was before sweeps could be
    skipped: every cycle sweeps all three coordinates, and each F is f_measure
    of that threshold's precision and recall, averaged by np.mean over the
    per-image list."""
    images = [tree._FitImage(inp, gt, rho) for inp, gt in validation]
    grid = threshold_grid(step)

    def point_fs(counts):
        return [f_measure(c / p if p else 1.0, f / g if g else 1.0)
                for p, c, g, f in zip(*counts.tolist())]

    def mean_fs(th, coord, values):
        per_image = []
        for img in images:
            scores, sign = tree._leaf_scores(img.prob, img.ra_pixels, th, coord)
            per_image.append(point_fs(relaxed_counts(scores, img.truth,
                                                     np.multiply(sign, values))))
        return [float(np.mean(fs)) for fs in zip(*per_image)]

    scores, tile_truth = [], []
    for inp, gt in validation:
        classes = residential_label(gt, grid_centers(inp.prob_map.shape), min_houses)
        for klass, score in zip(classes, inp.ra_scores.ravel()):
            if klass is not ResidentialClass.EXCLUDED:
                scores.append(score)
                tile_truth.append(klass is ResidentialClass.RESIDENTIAL)
    gate = RelaxedTruth(np.array(tile_truth)[None], 0)
    t1 = grid[int(np.argmax(point_fs(relaxed_counts(np.array(scores)[None], gate, grid))))]
    t23 = grid[int(np.argmax(mean_fs(TreeThresholds(0.0, 0.0, 0.0), "t2", grid)))]

    current = TreeThresholds(t1, t23, t23)
    (best_f,) = mean_fs(current, "t2", (current.t2,))
    trace = [best_f]
    for _ in range(max_cycles):
        cycle_start = best_f
        for coord in ("t1", "t2", "t3"):
            fs = [best_f if t == getattr(current, coord) else f
                  for t, f in zip(grid, mean_fs(current, coord, grid))]
            top = max(fs)
            if top > best_f:
                current = TreeThresholds(**{**current.__dict__, coord: grid[int(np.argmax(fs))]})
                best_f = top
            trace.append(best_f)
        if best_f - cycle_start < tol:
            break
    return FitResult(current, trace, leaf_order_ok=current.t2 <= current.t3)


def count_sweep_calls(monkeypatch):
    """A dict whose "n" counts tree's relaxed_counts calls from now on."""
    calls = {"n": 0}
    real = tree.relaxed_counts

    def counted(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(tree, "relaxed_counts", counted)
    return calls


# random_validation seeds whose fits run one to four cycles, and end with t2 > t3 for
# seeds 1 and 4 at both steps
SKIP_ORACLE_SEEDS = (0, 1, 2, 4, 15)


class TestSkippedSweeps:
    @pytest.mark.parametrize("step", [0.05, 0.01])
    @pytest.mark.parametrize("seed", SKIP_ORACLE_SEEDS)
    def test_matches_the_loop_that_sweeps_every_coordinate(self, seed, step, monkeypatch):
        items = random_validation(seed)
        calls = count_sweep_calls(monkeypatch)
        for max_cycles in range(1, 7):
            calls["n"] = 0
            got = fit_thresholds(items, rho=3, step=step, max_cycles=max_cycles)
            want = every_sweep_fit(items, 3, step=step, max_cycles=max_cycles)
            assert got.thresholds == want.thresholds
            assert got.leaf_order_ok == want.leaf_order_ok
            assert [x.hex() for x in got.trace] == [x.hex() for x in want.trace]
            # the gate, the t2 = t3 start sweep and its F, then one call per image
            # and sweep made; every sweep of the oracle would make 3 per cycle
            cycles = (len(want.trace) - 1) // 3
            assert calls["n"] <= 1 + 2 * len(items) + 3 * cycles * len(items)
            last = want.trace[-4:]
            if cycles >= 2 and cycles < max_cycles and len(set(last)) == 1:
                # a closing cycle that moves nothing skips at least the sweep of
                # the coordinate that moved last
                assert calls["n"] <= 1 + 2 * len(items) + (3 * cycles - 1) * len(items)

    def test_oracle_seeds_include_fits_ending_with_t2_above_t3(self):
        for seed in (1, 4):
            for step in (0.05, 0.01):
                assert not fit_thresholds(random_validation(seed), rho=3, step=step,
                                          max_cycles=6).leaf_order_ok

    def test_closing_cycle_after_a_gate_move_makes_no_call(self, monkeypatch):
        # seed 0 at step 0.01 moves only t1 in its second cycle, so its third
        # cycle, which finds no improvement, sweeps nothing
        items = random_validation(0)
        want = every_sweep_fit(items, 3, step=0.01)
        assert len(want.trace) == 10 and len(set(want.trace[-4:])) == 1
        calls = count_sweep_calls(monkeypatch)
        got = fit_thresholds(items, rho=3, step=0.01)
        assert [x.hex() for x in got.trace] == [x.hex() for x in want.trace]
        assert calls["n"] == 1 + 2 * len(items) + 3 * 2 * len(items)


class TestFitThresholds:
    @pytest.mark.parametrize("items", [toy_validation(), random_validation(4)],
                             ids=["toy", "random"])
    def test_matches_per_candidate_oracle_exactly(self, items):
        result = fit_thresholds(items, rho=3)
        thresholds, trace = per_candidate_fit(items, 3)
        assert result.thresholds == thresholds
        assert result.trace == trace

    def test_oracle_self_consistency(self):
        # the table-based oracle agrees with direct brute force at spot triples
        items = toy_validation()
        for th in (TreeThresholds(0.5, 0.3, 0.7), TreeThresholds(0.85, 0.5, 0.97),
                   TreeThresholds(0.01, 0.9, 0.04)):
            got, _ = exhaustive_tree_search(items, 3, np.array([th.t2, th.t3]),
                                            t1_candidates=[th.t1])
            direct = max(tree_f_direct(items, TreeThresholds(th.t1, a, b), 3)
                         for a in (th.t2, th.t3) for b in (th.t2, th.t3))
            assert got == pytest.approx(direct, abs=1e-12)

    def test_reaches_grid_optimum_within_tolerance(self):
        items = toy_validation()
        result = fit_thresholds(items, rho=3, min_houses=15)
        grid = np.round(np.arange(1, 100) * 0.01, 10)
        best_f, best_th = exhaustive_tree_search(items, 3, grid)
        fitted_f = tree_f_direct(items, result.thresholds, 3)
        assert fitted_f >= best_f - 0.01
        assert result.trace[-1] == pytest.approx(fitted_f, abs=1e-12)

    def test_trace_nondecreasing_and_bounded(self):
        items = toy_validation()
        result = fit_thresholds(items, rho=3)
        assert all(b >= a - 1e-12 for a, b in zip(result.trace, result.trace[1:]))
        assert len(result.trace) <= 1 + 3 * 20

    def test_tree_beats_plain_thresholding_with_hallucinations(self):
        items = toy_validation()
        result = fit_thresholds(items, rho=3)
        grid = np.round(np.arange(1, 100) * 0.01, 10)
        plain = set_curve([inp.prob_map for inp, _ in items],
                          [gt.labels for _, gt in items], 3, thresholds=grid)
        _, plain_f = max_f(plain)
        fitted_f = tree_f_direct(items, result.thresholds, 3)
        assert fitted_f >= plain_f + 0.005

    def test_fitted_leaves_typically_ordered(self):
        result = fit_thresholds(toy_validation(), rho=3)
        assert result.leaf_order_ok
        assert result.thresholds.t2 <= result.thresholds.t3

    def test_uninformative_ra_reduces_to_plain_max_f(self):
        # constant RA scores: gate fires everywhere (or nowhere); fitted tree
        # must match plain max-F thresholding with t2 == t3
        shape = (64, 64)
        rng = SplitMix64(5)
        items = []
        for seed in range(2):
            gt = paint_houses(shape, 18 if seed == 0 else 0)
            prob = np.clip(gt * 0.8 + rng.uniform(0, 0.1, shape), 0, 1)
            ra = np.full(grid_shape(shape), 0.5)
            # tile truth still needs both classes: vary gt across images
            items.append((TreeInput(ra, prob), LabelMap(64, 64, gt)))
        result = fit_thresholds(items, rho=3)
        grid = np.round(np.arange(1, 100) * 0.01, 10)
        plain = set_curve([inp.prob_map for inp, _ in items],
                          [gt.labels for _, gt in items], 3, thresholds=grid)
        t_plain, f_plain = max_f(plain)
        assert result.thresholds.t2 == pytest.approx(result.thresholds.t3, abs=0.011)
        fitted_f = tree_f_direct(items, result.thresholds, 3)
        assert fitted_f == pytest.approx(f_plain, abs=1e-9)

    def test_one_distance_transform_per_image_and_one_for_the_gate(self, monkeypatch):
        # the t2 = t3 start reuses each image's near-truth mask; only the
        # tile-truth gate (rho = 0) transforms inside relaxed_counts
        calls = {"evaluation": 0, "tree": 0}

        def counting(module, real):
            def wrapped(mask):
                calls[module] += 1
                return real(mask)
            return wrapped

        monkeypatch.setattr(evaluation, "nearest_sqdist",
                            counting("evaluation", evaluation.nearest_sqdist))
        monkeypatch.setattr(tree, "nearest_sqdist", counting("tree", tree.nearest_sqdist))
        items = random_validation(4)
        fit_thresholds(items, rho=3, max_cycles=1)
        assert calls == {"evaluation": 1, "tree": len(items)}

    def test_single_class_tiles_rejected(self):
        shape = (64, 64)
        gt = paint_houses(shape, 18)
        prob = gt * 0.9
        items = [(toy_input(prob, 0.9), LabelMap(64, 64, gt))]
        with pytest.raises(ValueError):
            fit_thresholds(items, rho=3)

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError):
            fit_thresholds([], rho=3)


def per_candidate_gate_sweep(images, th, values):
    """Mean relaxed F at each gate candidate from one relaxed_counts call per
    candidate and image, on the binary map of the plain rule prob >=
    (t2 if ra >= t1 else t3): the oracle for the one-call-per-image sweep."""
    fs = []
    for t1 in values:
        per_image = []
        for img in images:
            pred = img.prob >= np.where(img.ra_pixels >= t1, th.t2, th.t3)
            counts = relaxed_counts(pred, img.truth, (1.0,))
            per_image.append(count_points((t1,), counts)[0].f)
        fs.append(float(np.mean(per_image)))
    return fs


LEAF_ORDERS = [(0.3, 0.7), (0.45, 0.45), (0.8, 0.2), (0.07, 0.93), (0.93, 0.07)]


class TestLeafScores:
    @pytest.mark.parametrize("t2, t3", LEAF_ORDERS)
    @pytest.mark.parametrize("n_images", [1, 2, 3])
    def test_gate_sweep_matches_per_candidate_sweep_exactly(self, n_images, t2, t3):
        images = []
        for inp, gt in random_validation(7)[:n_images]:
            ra = inp.ra_scores.copy()
            ra[0, :2] = 0.0, 1.0  # the ends of the RA range, beside hundredths
            images.append(tree._FitImage(TreeInput(ra, inp.prob_map), gt, 3))
        th = TreeThresholds(0.5, t2, t3)
        values = (0.0, *threshold_grid(0.01), 1.0)
        assert tree._mean_fs(images, th, "t1", values) == \
            per_candidate_gate_sweep(images, th, values)

    @pytest.mark.parametrize("coord", ["t1", "t2", "t3"])
    @pytest.mark.parametrize("t2, t3", LEAF_ORDERS)
    @pytest.mark.parametrize("t1", [0.0, 0.37, 1.0])
    def test_leaf_scores_at_the_current_thresholds_are_the_plain_rule(self, t1, t2, t3, coord):
        inp, _ = random_validation(8)[0]
        th = TreeThresholds(t1, t2, t3)
        scores, sign = tree._leaf_scores(inp.prob_map, inp.ra_pixels, th, coord)
        assert np.array_equal(scores >= sign * getattr(th, coord), tree_segment(inp, th))
