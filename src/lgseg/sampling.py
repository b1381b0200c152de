"""Aligned triple-window sampling, inference tiling, and residential labeling.

A training sample pairs three windows sharing one centre at one spatial
resolution: a 64x64 local image window, a 256x256 global image window, and the
16x16 binary target cut from the label map.  Each image is reflection-padded
once (mirror about the edge pixel, no edge repeat) by half a global window on
every side, and every image window is a slice of that padded scene; target
windows are never padded, so valid centres keep at least 8 px of margin.  At
inference the image is tiled by disjoint 16x16 target windows on a grid, with
a final shifted tile covering any ragged right/bottom margin.

The residential rule counts the 8-connected houses that meet each tile's
256x256 window, clipped at the image, from their bounding boxes: a connected
house's rows, and its columns, form an interval, so a box that meets the
window with its rows or its columns inside the window's is a house that meets
it.  Pixels are read only where a box sticks out of a window on both axes.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .counting import box_array, components
from .network import GLOBAL_WIDTH, TARGET_WIDTH
from .raster import LabelMap, Raster
from .rng import SplitMix64

_MARGIN = GLOBAL_WIDTH // 2


class PatchTriplet:
    """Co-centred image windows and target label.

    windows(pathways) gives the {prefix: window} input of those pathways, each
    a float64 (3, w, w) tensor scaled to [0, 1]; the target is a (16, 16) uint8
    patch of raw labels.  The image windows are sliced on access from the
    reflect-padded scene that all triplets of an image share, so thousands of
    triplets fit in memory.
    """

    __slots__ = ("center", "scene", "target")

    def __init__(self, center: tuple, scene: np.ndarray, target: np.ndarray):
        self.center = center
        self.scene = scene
        self.target = target

    def windows(self, pathways: dict) -> dict:
        return pathway_windows(self.scene, self.center, pathways)


class ResidentialClass(Enum):
    RESIDENTIAL = "residential"
    NON_RESIDENTIAL = "non_residential"
    EXCLUDED = "excluded"


def reflect_pad(pixels: np.ndarray) -> np.ndarray:
    """An (H, W, C) uint8 image as the C-contiguous (C, H + 256, W + 256)
    scene every window is cut from: mirrored about the edge pixels (no edge
    repeat, folding again where the margin exceeds the image)."""
    margins = ((0, 0), (_MARGIN, _MARGIN), (_MARGIN, _MARGIN))
    return np.ascontiguousarray(np.pad(pixels.transpose(2, 0, 1), margins, mode="reflect"))


def valid_center_range(height: int, width: int) -> tuple:
    """Inclusive (row_min, row_max, col_min, col_max) for target-window centres."""
    half = TARGET_WIDTH // 2
    rmin, rmax = half, height - half
    cmin, cmax = half, width - half
    if rmax < rmin or cmax < cmin:
        raise ValueError(f"raster {height}x{width} too small for {TARGET_WIDTH}px targets")
    return rmin, rmax, cmin, cmax


def image_window(scene: np.ndarray, center: tuple, width: int) -> np.ndarray:
    """The window of a reflect_pad scene centred at the image pixel center, as
    a fresh C-contiguous (C, width, width) float64 array in [0, 1].  The
    width may not exceed twice the pad margin."""
    if not 1 <= width <= 2 * _MARGIN:
        raise ValueError(f"window width {width} is not in [1, {2 * _MARGIN}]")
    height, width_px = scene.shape[1] - 2 * _MARGIN, scene.shape[2] - 2 * _MARGIN
    if not (0 <= center[0] < height and 0 <= center[1] < width_px):
        raise ValueError(f"centre {center} lies outside the {height}x{width_px} image")
    r0 = center[0] - width // 2 + _MARGIN
    c0 = center[1] - width // 2 + _MARGIN
    return scene[:, r0:r0 + width, c0:c0 + width] / 255.0


def pathway_windows(scene: np.ndarray, center: tuple, pathways: dict) -> dict:
    """{prefix: the image_window of that pathway's input width} at one centre."""
    return {prefix: image_window(scene, center, spec.input_width)
            for prefix, spec in pathways.items()}


def make_triplet(scene: np.ndarray, labels: LabelMap, center: tuple) -> PatchTriplet:
    """One aligned sample from the reflect_pad scene of labels' image; the
    centre must leave the target window in bounds."""
    rmin, rmax, cmin, cmax = valid_center_range(labels.height, labels.width)
    r, c = center
    if not (rmin <= r <= rmax and cmin <= c <= cmax):
        raise ValueError(f"centre {center} puts the target window outside the label map")
    half = TARGET_WIDTH // 2
    target = labels.labels[r - half:r + half, c - half:c + half].copy()
    return PatchTriplet(center=(r, c), scene=scene, target=target)


def balanced_centers(labels: LabelMap, count: int, positive_fraction: float,
                     rng: SplitMix64) -> list:
    """`count` training centres: the first round(positive_fraction * count)
    anchored on random house pixels (clamped into the valid target region),
    the rest drawn uniformly from that region.  With no house pixels every
    draw is uniform."""
    rmin, rmax, cmin, cmax = valid_center_range(labels.height, labels.width)
    positives = np.argwhere(labels.labels == 1)
    n_pos = int(round(positive_fraction * count)) if len(positives) else 0
    centers = []
    for i in range(count):
        if i < n_pos:
            r, c = positives[rng.below(len(positives))]
            centers.append((min(max(int(r), rmin), rmax), min(max(int(c), cmin), cmax)))
        else:
            centers.append((rng.int_range(rmin, rmax), rng.int_range(cmin, cmax)))
    return centers


def sample_triplets(raster: Raster, labels: LabelMap, centers) -> list:
    """One triplet per centre, in order, all cut from one padded scene."""
    if raster.width != labels.width or raster.height != labels.height:
        raise ValueError("raster and label map extents differ")
    scene = reflect_pad(raster.pixels)
    return [make_triplet(scene, labels, c) for c in centers]


# ---------------------------------------------------------------------------
# inference tiling


def _axis_starts(extent: int) -> list:
    starts = list(range(0, extent - TARGET_WIDTH + 1, TARGET_WIDTH))
    if extent % TARGET_WIDTH != 0:
        starts.append(extent - TARGET_WIDTH)  # shifted final tile at the border
    return starts


def _grid_starts(shape: tuple) -> tuple:
    """Row and column tile starts of an image at least one tile wide."""
    height, width = shape
    if height < TARGET_WIDTH or width < TARGET_WIDTH:
        raise ValueError(f"image {height}x{width} smaller than one {TARGET_WIDTH}px tile")
    return _axis_starts(height), _axis_starts(width)


def grid_centers(shape: tuple) -> list:
    """Ordered centres whose 16x16 target windows tile the image disjointly;
    a ragged margin gets one extra shifted tile per axis ending at the border."""
    rows, cols = _grid_starts(shape)
    half = TARGET_WIDTH // 2
    return [(r + half, c + half) for r in rows for c in cols]


def stitch(centers, patches, shape: tuple) -> np.ndarray:
    """Reassemble per-tile 16x16 predictions into a full map.

    Tiles are written in order, so overlap pixels from shifted margin tiles
    take the later tile's values.
    """
    if len(centers) != len(patches):
        raise ValueError(f"{len(centers)} centers but {len(patches)} patches")
    height, width = shape
    out = np.zeros((height, width), dtype=np.float64)
    half = TARGET_WIDTH // 2
    for (r, c), patch in zip(centers, patches):
        patch = np.asarray(patch, dtype=np.float64)
        if patch.shape != (TARGET_WIDTH, TARGET_WIDTH):
            raise ValueError("every patch must be 16x16")
        out[r - half:r + half, c - half:c + half] = patch
    return out


def tile_index_map(shape: tuple) -> np.ndarray:
    """Index of the covering tile per pixel, consistent with stitch overwrite
    order: per axis the last tile starting at or before a pixel owns it, so
    shifted margin tiles own their overlap."""
    rows, cols = _grid_starts(shape)
    owner_row, owner_col = (np.searchsorted(starts, np.arange(n), side="right") - 1
                            for starts, n in zip((rows, cols), shape))
    return owner_row[:, None] * len(cols) + owner_col


def grid_shape(shape: tuple) -> tuple:
    """Tile rows and columns of grid_centers(shape)."""
    return tuple(len(starts) for starts in _grid_starts(shape))


# ---------------------------------------------------------------------------
# residential rule


def residential_label(labels: LabelMap, centers, min_houses: int = 15) -> list:
    """Classify the 256x256 window (clipped at the image) around each centre by
    the number of 8-connected building components that meet it: none at all is
    non-residential, at least min_houses is residential, in between excluded.
    Every centre must lie inside the image.

    The map is labelled once.  A component meets a window when its box does
    and its rows lie inside the window's rows or its columns inside the
    window's columns: with its rows inside, a column it shares with the window
    holds one of its pixels, in a window row.  Only for a box that meets a
    window and sticks out of it on both axes (across a window corner) are the
    component's pixels read, inside box and window.
    """
    height, width = labels.height, labels.width
    centers = np.array(centers, dtype=np.int64).reshape(-1, 2)
    outside = np.nonzero((centers < 0) | (centers >= (height, width)))[0]
    if outside.size:
        center = tuple(centers[outside[0]].tolist())
        raise ValueError(f"centre {center} lies outside the {height}x{width} image")
    comps, boxes = components(labels.labels, 8)
    # axis 0 is (rows, columns) and every span runs to one past its last
    # pixel; C order keeps the broadcasts below running along their long axes
    spans = box_array(boxes) + (0, 0, 1, 1)
    first, stop = np.ascontiguousarray(spans.T).reshape(2, 2, 1, len(boxes))  # (2, 1, components)
    half = GLOBAL_WIDTH // 2
    mid = np.ascontiguousarray(centers.T)[:, :, None]  # (2, centres, 1)
    lo, hi = np.maximum(mid - half, 0), np.minimum(mid + half, [[[height]], [[width]]])
    meets, inside = (first < hi) & (stop > lo), (first >= lo) & (stop <= hi)
    meets, inside = meets[0] & meets[1], inside[0] | inside[1]  # (centres, components)
    hits = meets & inside
    for i, k in zip(*np.nonzero(meets & ~inside)):
        r0, c0 = np.maximum(lo[:, i, 0], first[:, 0, k])
        r1, c1 = np.minimum(hi[:, i, 0], stop[:, 0, k])
        hits[i, k] = (comps[r0:r1, c0:c1] == k + 1).any()
    return [ResidentialClass.NON_RESIDENTIAL if n == 0
            else ResidentialClass.RESIDENTIAL if n >= min_houses
            else ResidentialClass.EXCLUDED
            for n in hits.sum(axis=1).tolist()]
