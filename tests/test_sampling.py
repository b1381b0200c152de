"""Window geometry, grid tiling, and residential-rule tests."""

import numpy as np
import pytest
from scipy import ndimage

from lgseg import sampling
from lgseg.counting import components
from lgseg.network import DUAL_PATHWAYS, GLOBAL_PATHWAY, LOCAL_PATHWAY
from lgseg.raster import LabelMap, Raster
from lgseg.rng import SplitMix64
from lgseg.sampling import (ResidentialClass, balanced_centers, grid_centers, grid_shape,
                            image_window, make_triplet, reflect_pad, residential_label,
                            sample_triplets, stitch, tile_index_map)
from window_oracle import gather_window, reflect_index


def random_scene(seed, h=512, w=512):
    rng = SplitMix64(seed)
    pixels = rng.uniform(0, 256, (h, w, 3)).astype(np.uint8)
    labels = (rng.uniform(0, 1, (h, w)) > 0.9).astype(np.uint8)
    return Raster(w, h, 3, pixels), LabelMap(w, h, labels)


def column_image(values, height=3):
    """A height x len(values) RGB image whose every pixel of column j holds values[j]."""
    row = np.asarray(values, dtype=np.uint8)
    return np.broadcast_to(row[None, :, None], (height, len(row), 3)).copy()


def padded_columns(values, idx):
    """Channel-0 values of the reflect_pad scene at image columns idx (which
    may lie outside the image) in image row 0."""
    return reflect_pad(column_image(values))[0, 128, np.asarray(idx) + 128]


class TestReflect:
    def test_identity_in_range(self):
        idx = np.arange(10)
        assert np.array_equal(reflect_index(idx, 10), idx)
        assert np.array_equal(padded_columns(idx, idx), idx)
        pixels = random_scene(10, h=20, w=30)[0].pixels
        assert np.array_equal(reflect_pad(pixels)[:, 128:148, 128:158], pixels.transpose(2, 0, 1))

    def test_mirror_about_edge_pixel(self):
        # no edge repeat: -1 -> 1, -2 -> 2; n -> n-2
        idx = np.array([-1, -2, 10, 11])
        assert reflect_index(idx, 10).tolist() == [1, 2, 8, 7]
        assert padded_columns(np.arange(10), idx).tolist() == [1, 2, 8, 7]

    def test_involution_consistency(self):
        # padded values equal mirrored in-bounds values, multiple bounces included
        n = 5
        idx = np.arange(-12, 18)
        folded = reflect_index(idx, n)
        assert folded.min() >= 0 and folded.max() < n
        values = np.arange(10, 10 + n)
        for padded in (values[folded], padded_columns(values, idx)):
            for off in range(1, n):
                assert padded[np.where(idx == -off)[0][0]] == values[off]
        assert np.array_equal(padded_columns(values, idx), values[folded])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17, 40, 160, 184, 512])
    def test_pad_folds_like_the_oracle(self, n):
        # margins beyond the image fold again, as reflect_index does
        values = SplitMix64(n).uniform(0, 256, n).astype(np.uint8)
        idx = np.arange(-128, n + 128)
        assert np.array_equal(padded_columns(values, idx), values[reflect_index(idx, n)])

    def test_scene_is_channel_first_contiguous_uint8(self):
        scene = reflect_pad(random_scene(11, h=17, w=40)[0].pixels)
        assert scene.shape == (3, 17 + 256, 40 + 256)
        assert scene.dtype == np.uint8 and scene.flags.c_contiguous


class TestWindowOracle:
    @pytest.mark.parametrize("shape", [(16, 16), (17, 300), (36, 40), (184, 160), (512, 512)])
    def test_every_grid_window_matches_the_gather(self, shape):
        raster, labels = random_scene(12, *shape)
        scene = reflect_pad(raster.pixels)
        centers = grid_centers(shape)
        for center in centers:
            for width in (64, 256):
                got = image_window(scene, center, width)
                assert got.flags.c_contiguous and got.flags.owndata
                want = gather_window(raster.pixels, center, width)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for t in sample_triplets(raster, labels, centers[::7]):
            windows = t.windows(DUAL_PATHWAYS)
            assert list(windows) == ["local", "global"]
            assert np.array_equal(windows["local"].view(np.uint64),
                                  gather_window(raster.pixels, t.center, 64).view(np.uint64))
            assert np.array_equal(windows["global"].view(np.uint64),
                                  gather_window(raster.pixels, t.center, 256).view(np.uint64))

    @pytest.mark.parametrize("pathways", [DUAL_PATHWAYS, {"local": LOCAL_PATHWAY},
                                          {"global": GLOBAL_PATHWAY}],
                             ids=["dual", "local", "global"])
    def test_pathway_windows_match_the_gather_at_edge_and_interior_centres(self, pathways):
        raster, _ = random_scene(14, 300, 280)
        scene = reflect_pad(raster.pixels)
        # corners and edges, where both windows reflect, and interior centres
        # where the local window (and at (150, 140) the global one) needs none
        centers = [(0, 0), (0, 279), (299, 0), (299, 279), (8, 140), (150, 8),
                   (150, 140), (40, 40), (260, 100)]
        for center in centers:
            windows = sampling.pathway_windows(scene, center, pathways)
            assert list(windows) == list(pathways)
            for prefix, spec in pathways.items():
                want = gather_window(raster.pixels, center, spec.input_width)
                assert windows[prefix].shape == (3, spec.input_width, spec.input_width)
                assert np.array_equal(windows[prefix].view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("center", [(-200, 8), (300, 8), (-1, 0), (40, 0), (0, -1), (0, 56)])
    def test_centre_outside_the_image_rejected(self, center):
        # a negative slice start would wrap and cut the wrong pixels; one past
        # the end would give an empty window
        scene = reflect_pad(random_scene(13, 40, 56)[0].pixels)
        with pytest.raises(ValueError, match="outside the 40x56 image"):
            image_window(scene, center, 64)
        assert image_window(scene, (39, 55), 256).shape == (3, 256, 256)

    @pytest.mark.parametrize("center,width", [((0, 0), 300), ((0, 0), 258), ((0, 0), 257),
                                              ((39, 55), 300), ((0, 0), 0), ((20, 20), -64)])
    def test_width_beyond_the_margin_rejected(self, center, width):
        # a window wider than the padded margins allow would cut past the
        # padded scene: a negative start wraps, an end past it is cut short
        scene = reflect_pad(random_scene(13, 40, 56)[0].pixels)
        with pytest.raises(ValueError, match=f"window width {width} is not in \\[1, 256\\]"):
            image_window(scene, center, width)
        for corner in ((0, 0), (39, 55)):
            for fits in (1, 255, 256):
                assert image_window(scene, corner, fits).shape == (3, fits, fits)


class TestTriplets:
    def test_center_of_large_scene_needs_no_padding(self):
        raster, labels = random_scene(0)
        t = make_triplet(reflect_pad(raster.pixels), labels, (256, 256))
        windows = t.windows(DUAL_PATHWAYS)
        assert windows["local"].shape == (3, 64, 64)
        assert windows["global"].shape == (3, 256, 256)
        assert t.target.shape == (16, 16)
        # no padding: windows equal direct crops
        direct = raster.pixels[256 - 128:256 + 128, 256 - 128:256 + 128]
        assert np.array_equal(windows["global"], direct.transpose(2, 0, 1) / 255.0)

    def test_left_edge_reflection_arithmetic(self):
        # centre 8 px from the left edge: global reflects 120 cols, local 24
        raster, labels = random_scene(1)
        t = make_triplet(reflect_pad(raster.pixels), labels, (256, 8))
        # column -1 of the global window maps to raster column 128-8=120... check
        # by reconstructing with the oracle's reflect_index directly
        cols = reflect_index(np.arange(8 - 128, 8 + 128), 512)
        assert (cols != np.arange(8 - 128, 8 + 128)).sum() == 120
        want = raster.pixels[np.ix_(np.arange(256 - 128, 256 + 128) * 0 + np.arange(128, 384), cols)]
        lcols = reflect_index(np.arange(8 - 32, 8 + 32), 512)
        assert (lcols != np.arange(8 - 32, 8 + 32)).sum() == 24
        global_window = t.windows({"global": GLOBAL_PATHWAY})["global"]
        assert np.array_equal(global_window[:, 0, :], want.transpose(2, 0, 1)[:, 0, :] / 255.0)

    def test_constant_white_labels_give_all_ones_targets(self):
        raster, _ = random_scene(2)
        labels = LabelMap(512, 512, np.ones((512, 512), dtype=np.uint8))
        for t in sample_triplets(raster, labels, balanced_centers(labels, 5, 0.0, SplitMix64(3))):
            assert t.target.min() == 1

    def test_alignment_target_is_center_crop_of_local_footprint(self):
        raster, labels = random_scene(3)
        for t in sample_triplets(raster, labels, balanced_centers(labels, 10, 0.0, SplitMix64(4))):
            r, c = t.center
            want = labels.labels[r - 8:r + 8, c - 8:c + 8]
            assert np.array_equal(t.target, want)
            # for interior centres the target sits at the middle of the
            # local 64x64 footprint (edge centres would clip this crop)
            if 32 <= r < 480 and 32 <= c < 480:
                local_label_win = labels.labels[r - 32:r + 32, c - 32:c + 32]
                assert np.array_equal(local_label_win[24:40, 24:40], want)

    def test_out_of_range_center_rejected(self):
        raster, labels = random_scene(4)
        with pytest.raises(ValueError):
            make_triplet(reflect_pad(raster.pixels), labels, (5, 256))

    def test_extent_mismatch_rejected(self):
        raster, _ = random_scene(5)
        labels = LabelMap(256, 256, np.zeros((256, 256), dtype=np.uint8))
        with pytest.raises(ValueError):
            sample_triplets(raster, labels, balanced_centers(labels, 1, 0.0, SplitMix64(0)))

    def test_seeded_sampling_deterministic(self):
        raster, labels = random_scene(6)
        a = sample_triplets(raster, labels, balanced_centers(labels, 4, 0.0, SplitMix64(9)))
        b = sample_triplets(raster, labels, balanced_centers(labels, 4, 0.0, SplitMix64(9)))
        assert [t.center for t in a] == [t.center for t in b]
        for x, y in zip(a, b):
            assert np.array_equal(x.windows(DUAL_PATHWAYS)["local"],
                                  y.windows(DUAL_PATHWAYS)["local"])

    def test_uniform_draws_follow_the_documented_rule(self):
        raster, labels = random_scene(7, h=96, w=80)
        rng = SplitMix64(12)
        want = [(rng.int_range(8, 88), rng.int_range(8, 72)) for _ in range(9)]
        got = sample_triplets(raster, labels, balanced_centers(labels, 9, 0.0, SplitMix64(12)))
        assert [t.center for t in got] == want


class TestBalancedCenters:
    def test_zero_fraction_is_uniform(self):
        _, labels = random_scene(8)
        a = balanced_centers(labels, 7, 0.0, SplitMix64(3))
        empty = LabelMap(512, 512, np.zeros((512, 512), dtype=np.uint8))
        assert balanced_centers(empty, 7, 0.75, SplitMix64(3)) == a

    def test_positive_share_lands_on_house_pixels(self):
        labels = np.zeros((128, 128), dtype=np.uint8)
        labels[40:50, 60:70] = 1
        labels[0:3, 0:3] = 1  # corner house: its centres are clamped inward
        centers = balanced_centers(LabelMap(128, 128, labels), 10, 0.6, SplitMix64(5))
        assert len(centers) == 10
        for r, c in centers[:6]:
            assert labels[r, c] == 1 or (r, c) == (8, 8)
        for r, c in centers:
            assert 8 <= r <= 120 and 8 <= c <= 120

    def test_deterministic_for_a_seed(self):
        _, labels = random_scene(9)
        assert balanced_centers(labels, 12, 0.5, SplitMix64(1)) == \
            balanced_centers(labels, 12, 0.5, SplitMix64(1))


class TestGrid:
    def test_64_gives_16_disjoint_centers(self):
        centers = grid_centers((64, 64))
        assert len(centers) == 16
        cover = np.zeros((64, 64), dtype=int)
        for r, c in centers:
            cover[r - 8:r + 8, c - 8:c + 8] += 1
        assert (cover == 1).all()

    def test_70_gives_5x5_with_shifted_margin(self):
        centers = grid_centers((70, 70))
        assert len(centers) == 25
        cover = np.zeros((70, 70), dtype=bool)
        for r, c in centers:
            assert 8 <= r <= 62 and 8 <= c <= 62
            cover[r - 8:r + 8, c - 8:c + 8] = True
        assert cover.all()
        assert centers[-1] == (62, 62)

    def test_stitch_constant_patches(self):
        centers = grid_centers((70, 64))
        patches = [np.full((16, 16), 0.7)] * len(centers)
        out = stitch(centers, patches, (70, 64))
        assert out.shape == (70, 64)
        assert (out == 0.7).all()

    def test_stitch_overwrite_order(self):
        centers = grid_centers((24, 16))  # rows: starts 0 and 8 (shifted)
        patches = [np.full((16, 16), float(i)) for i in range(len(centers))]
        out = stitch(centers, patches, (24, 16))
        assert (out[8:24] == 1.0).all()  # later tile wins the overlap
        assert (out[0:8] == 0.0).all()

    def test_stitch_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stitch([(8, 8)], [], (16, 16))

    @pytest.mark.parametrize("shape", [(16, 16), (17, 16), (16, 31), (32, 48), (36, 40),
                                       (40, 56), (63, 17), (184, 160), (200, 512), (512, 512)])
    def test_tile_index_map_matches_the_per_tile_loop(self, shape):
        # the loop writes every tile's window in grid order, as stitch does
        want = np.zeros(shape, dtype=np.int64)
        for i, (r, c) in enumerate(grid_centers(shape)):
            want[r - 8:r + 8, c - 8:c + 8] = i
        got = tile_index_map(shape)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(15, 40), (40, 15), (0, 0)])
    def test_tile_index_map_rejects_images_below_one_tile(self, shape):
        with pytest.raises(ValueError, match="smaller than one 16px tile"):
            tile_index_map(shape)

    @pytest.mark.parametrize("shape", [(10, 10), (15, 40), (40, 15), (0, 0)])
    def test_grid_shape_rejects_images_below_one_tile(self, shape):
        with pytest.raises(ValueError, match="smaller than one 16px tile"):
            grid_shape(shape)

    @pytest.mark.parametrize("shape", [(16, 16), (17, 16), (36, 40), (184, 160)])
    def test_grid_shape_counts_the_grid_centres(self, shape):
        rows, cols = grid_shape(shape)
        centers = grid_centers(shape)
        assert len(centers) == rows * cols
        assert len({c for _, c in centers}) == cols and len({r for r, _ in centers}) == rows

    def test_tile_index_map_matches_stitch(self):
        shape = (40, 40)
        centers = grid_centers(shape)
        idx = tile_index_map(shape)
        payload = [np.full((16, 16), float(i)) for i in range(len(centers))]
        assert np.array_equal(stitch(centers, payload, shape), idx.astype(float))


def paint_rects(n, start=(10, 10), size=4, gap=8, shape=(512, 512)):
    labels = np.zeros(shape, dtype=np.uint8)
    r, c = start
    for i in range(n):
        labels[r:r + size, c:c + size] = 1
        c += gap
        if c + size >= shape[1] - 10:
            c = start[1]
            r += gap
    return LabelMap(shape[1], shape[0], labels)


def residential_label_per_centre(labels, center, min_houses=15):
    """The rule as it was, labelling the whole map again for one centre."""
    comps, n = ndimage.label(labels.labels, structure=np.ones((3, 3), dtype=int))
    if n == 0:
        return ResidentialClass.NON_RESIDENTIAL
    half = 128
    seen = np.unique(comps[max(0, center[0] - half):min(labels.height, center[0] + half),
                           max(0, center[1] - half):min(labels.width, center[1] + half)])
    count = int((seen > 0).sum())
    if count == 0:
        return ResidentialClass.NON_RESIDENTIAL
    if count >= min_houses:
        return ResidentialClass.RESIDENTIAL
    return ResidentialClass.EXCLUDED


def residential_per_centre(labels, centers, min_houses):
    return [residential_label_per_centre(labels, c, min_houses) for c in centers]


def random_blobs(seed, shape):
    """Irregular 8-connected blobs over about a fifth of a map."""
    field = ndimage.gaussian_filter(np.random.default_rng(seed).random(shape), 2.5)
    mask = (field > np.quantile(field, 0.8)).astype(np.uint8)
    return LabelMap(shape[1], shape[0], mask)


def corner_crossings(labels, centers):
    """(centre, component) pairs whose box meets the window and sticks out of
    it on both axes: the pairs whose pixels residential_label reads."""
    _, boxes = components(labels.labels, 8)
    first = np.array([(b.row_min, b.col_min) for b in boxes]).reshape(-1, 2)
    last = np.array([(b.row_max, b.col_max) for b in boxes]).reshape(-1, 2)
    total = 0
    for r, c in centers:
        lo = np.maximum((r - 128, c - 128), 0)
        hi = np.minimum((r + 127, c + 127), (labels.height - 1, labels.width - 1))
        meets = ((first <= hi) & (last >= lo)).all(axis=1)
        within = ((first >= lo) & (last <= hi)).any(axis=1)
        total += int((meets & ~within).sum())
    return total


def square_symmetry(mask, symmetry):
    """One of the 8 symmetries of a square map: bit 2 transposes, bits 0 and 1
    flip the rows and the columns."""
    flips = tuple(axis for axis in (0, 1) if symmetry >> axis & 1)
    return np.ascontiguousarray(np.flip(mask.T if symmetry & 4 else mask, axis=flips))


def corner_shapes():
    """{name: (400x400 mask, whether a pixel lies in the window)}: one house
    each, whose box crosses the bottom-right corner (327, 327) of the window
    of (200, 200), with no pixel inside it or with exactly one."""
    shapes = {}

    def add(name, inside, *cells):
        mask = np.zeros((400, 400), dtype=np.uint8)
        for rows, cols in cells:
            mask[rows, cols] = 1
        shapes[name] = (mask, inside)

    # an L along the row and the column just past the corner; its mirror
    # bends at the corner pixel itself
    add("l_outside", False, (328, slice(300, 341)), (slice(300, 329), 328))
    add("l_one_inside", True, (327, slice(327, 341)), (slice(327, 341), 327))
    # one-pixel diagonal staircases past the corner, or through it
    steps = np.arange(300, 357)
    add("staircase_outside", False, (steps, 656 - steps))
    add("staircase_one_inside", True, (steps, 654 - steps))
    # staircases of 3x3 steps, two rows down and two columns left apiece:
    # past the corner, or with the corner pixel as the top-left of one step
    for name, inside, first, diagonal in (("thick_staircase_outside", False, 300, 658),
                                          ("thick_staircase_one_inside", True, 301, 654)):
        add(name, inside, *[(slice(r, r + 3), slice(diagonal - r, diagonal - r + 3))
                            for r in range(first, first + 58, 2)])
    # a ring round the whole window, bare or with a spur whose tip is the
    # window's first pixel in row 200
    ring = [(60, slice(60, 341)), (340, slice(60, 341)), (slice(60, 341), 60),
            (slice(60, 341), 340)]
    add("ring_outside", False, *ring)
    add("ring_one_inside", True, *ring, (200, slice(60, 73)))
    return shapes


CORNER_SHAPES = corner_shapes()


class TestResidential:
    @pytest.mark.parametrize("min_houses", [1, 15, 40])
    def test_matches_per_centre_rule(self, min_houses):
        # a row of 4x4 buildings at rows 300-303, columns 20-284, plus a few
        # diagonally touching pairs (one component each)
        labels = paint_rects(30, start=(300, 20), gap=9).labels
        for r, c in ((40, 40), (60, 400), (470, 40)):
            labels[r:r + 3, c:c + 3] = labels[r + 3:r + 5, c + 3:c + 5] = 1
        labels = LabelMap(512, 512, labels)
        # the last centres put a window edge on the first or last row or
        # column of a building
        centers = grid_centers((512, 512))[::5] + [(0, 0), (511, 3), (200, 511),
                                                   (431, 412), (300, 412), (173, 154), (60, 273)]
        got = residential_label(labels, centers, min_houses)
        want = [residential_label_per_centre(labels, c, min_houses) for c in centers]
        assert got == want
        assert len(set(want)) == (3 if min_houses == 15 else 2)

    def test_no_centres_no_classes(self):
        assert residential_label(paint_rects(3), []) == []

    def test_empty_window_is_non_residential(self):
        labels = paint_rects(0)
        assert residential_label(labels, [(256, 256)])[0] is ResidentialClass.NON_RESIDENTIAL

    def test_exactly_15_components_is_residential(self):
        labels = paint_rects(15, start=(200, 200))
        assert residential_label(labels, [(256, 256)], 15)[0] is ResidentialClass.RESIDENTIAL

    def test_seven_components_excluded_but_residential_at_min_5(self):
        labels = paint_rects(7, start=(220, 220))
        assert residential_label(labels, [(256, 256)], 15)[0] is ResidentialClass.EXCLUDED
        assert residential_label(labels, [(256, 256)], 5)[0] is ResidentialClass.RESIDENTIAL

    def test_monotone_in_added_buildings(self):
        rank = {ResidentialClass.NON_RESIDENTIAL: 0, ResidentialClass.EXCLUDED: 1,
                ResidentialClass.RESIDENTIAL: 2}
        prev = -1
        for n in (0, 3, 9, 15, 25):
            labels = paint_rects(n, start=(200, 200))
            cur = rank[residential_label(labels, [(256, 256)], 15)[0]]
            assert cur >= prev
            prev = cur

    def test_components_outside_window_not_counted(self):
        labels = paint_rects(20, start=(10, 10), gap=12)
        # window far away from the rectangles
        assert residential_label(labels, [(450, 450)], 15)[0] is ResidentialClass.NON_RESIDENTIAL

    @pytest.mark.parametrize("center", [(-200, 100), (-129, 100), (512, 0), (0, 512)])
    def test_centre_outside_the_image_rejected(self, center):
        # 20 houses at rows 300-303: a window read through a negative slice
        # stop would see them
        labels = paint_rects(20, start=(300, 20), gap=9)
        with pytest.raises(ValueError, match=rf"centre \({center[0]}, {center[1]}\) lies outside "
                                             r"the 512x512 image"):
            residential_label(labels, [(256, 256), center])

    @pytest.mark.parametrize("shape", sorted(CORNER_SHAPES))
    @pytest.mark.parametrize("symmetry", range(8))
    def test_box_across_a_window_corner_counts_only_with_a_pixel_inside(self, shape, symmetry):
        # the window of (200, 200) on a 400x400 map is rows and columns
        # 72-327, so every flip and the transpose keep it in place
        mask, inside = CORNER_SHAPES[shape]
        labels = LabelMap(400, 400, square_symmetry(mask, symmetry))
        assert corner_crossings(labels, [(200, 200)]) == 1
        want = ResidentialClass.RESIDENTIAL if inside else ResidentialClass.NON_RESIDENTIAL
        assert residential_per_centre(labels, [(200, 200)], 1) == [want]
        assert residential_label(labels, [(200, 200)], 1) == [want]

    @pytest.mark.parametrize("symmetry", range(8))
    @pytest.mark.parametrize("first, counted", [((328, 190), False), ((327, 190), True),
                                                ((328, 328), False), ((327, 327), True),
                                                ((324, 324), True)])
    def test_house_one_pixel_either_side_of_a_window_edge(self, symmetry, first, counted):
        # a 4x4 house starting just past the window's last row (or corner) of
        # (200, 200), or on it; the symmetries put it at every edge and corner
        mask = np.zeros((400, 400), dtype=np.uint8)
        mask[first[0]:first[0] + 4, first[1]:first[1] + 4] = 1
        labels = LabelMap(400, 400, square_symmetry(mask, symmetry))
        want = ResidentialClass.RESIDENTIAL if counted else ResidentialClass.NON_RESIDENTIAL
        assert residential_per_centre(labels, [(200, 200)], 1) == [want]
        assert residential_label(labels, [(200, 200)], 1) == [want]

    @pytest.mark.parametrize("shape", [(64, 256), (256, 64), (64, 500), (500, 64), (200, 180),
                                       (100, 90), (16, 16), (300, 300)])
    def test_clipped_windows_match_per_centre_rule(self, shape):
        # windows clipped at every border, on maps narrower than a window on
        # one axis or both; centres also at the four corner pixels and at the
        # middle of each edge
        height, width = shape
        labels = random_blobs(sum(shape), shape)
        centers = grid_centers(shape) + [(0, 0), (0, width - 1), (height - 1, 0),
                                         (height - 1, width - 1), (height // 2, 0),
                                         (0, width // 2), (height - 1, width // 2),
                                         (height // 2, width - 1)]
        for min_houses in (1, 3, 15):
            assert (residential_label(labels, centers, min_houses)
                    == residential_per_centre(labels, centers, min_houses))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_blobs_match_per_centre_rule(self, seed):
        # blobs of every shape (rings, L-shapes and staircases among them) at
        # all grid centres and at random off-grid ones
        shape = (288 + 16 * seed, 304 - 8 * seed)
        labels = random_blobs(seed, shape)
        rng = np.random.default_rng(seed)
        centers = grid_centers(shape) + [tuple(rng.integers(0, shape).tolist())
                                         for _ in range(40)]
        assert corner_crossings(labels, centers) > 0
        for min_houses in (1, 3, 15):
            assert (residential_label(labels, centers, min_houses)
                    == residential_per_centre(labels, centers, min_houses))
