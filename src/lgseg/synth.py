"""Synthetic aerial-scene generator: a desk-scale stand-in for real imagery.

Scenes are built from a low-frequency textured background, axis-aligned house
rectangles with a one-pixel darker border placed inside residential clusters
(plus a sparse fraction scattered well away from them), bright non-house decoy
blobs whose density scales with the texture amplitude (material for local
hallucinations that scene context can veto), and dark irregular occluder blobs
overdrawn on some houses.  The label map marks exactly the house rectangles --
occluded pixels stay labelled -- and the returned boxes match the label map's
connected components one to one (houses are placed with a 3 px clearance).

The scene is written straight into its (H, W, 3) uint8 pixels: the background
is made in bands of rows, and every painted colour is rounded and clipped
before it is written.  No full-frame float image is held, and since rounding
is per pixel, the bytes equal those of building the whole scene in float64 and
rounding it once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import DetectionBox
from .raster import LabelMap, Raster
from .rng import SplitMix64

_BASE_COLOR = np.array([96.0, 104.0, 88.0])
_HOUSE_PALETTE = np.array([
    [205.0, 95.0, 70.0],   # terracotta
    [215.0, 215.0, 205.0],  # pale roof
    [170.0, 165.0, 160.0],  # concrete
    [225.0, 195.0, 105.0],  # sand
    [150.0, 75.0, 60.0],    # dark brick
])
_OCCLUDER_COLOR = np.array([38.0, 62.0, 34.0])
_CLUSTER_FRACTION = 0.8
_PLACEMENT_RETRIES = 400
_BAND_PX = 1 << 14  # background pixels per band of rows


@dataclass(frozen=True)
class SceneSpec:
    width: int = 512
    height: int = 512
    house_count: tuple = (45, 75)
    house_px: tuple = (8, 16)
    clusters: int = 2
    cluster_radius: float = 80.0
    texture: float = 0.5
    occluders: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if self.width < 512 or self.height < 512:
            raise ValueError("scene extents must be at least 512")
        lo, hi = self.house_count
        if lo < 0 or hi < lo:
            raise ValueError("house count range is empty")
        plo, phi = self.house_px
        if plo < 4 or phi < plo:
            raise ValueError("house size range is empty or below 4 px")
        if self.clusters < 0 or not 0 < self.cluster_radius < np.inf:
            raise ValueError("cluster count/radius invalid")
        # cluster centres keep int(radius) + 16 px from every edge
        need = 2 * (int(self.cluster_radius) + 16) + 1
        if self.clusters > 0 and need > min(self.width, self.height):
            raise ValueError(f"cluster_radius {self.cluster_radius:g} leaves no room for a "
                             f"cluster centre in a {self.width}x{self.height} scene: "
                             f"2 * (int(cluster_radius) + 16) + 1 = {need} exceeds "
                             f"{min(self.width, self.height)}")
        if self.texture < 0:
            raise ValueError("texture amplitude must be nonnegative")
        if not (0.0 <= self.occluders <= 1.0):
            raise ValueError("occluder density must lie in [0, 1]")


def _to_bytes(color) -> np.ndarray:
    """A colour as the uint8 value its pixels end with."""
    return np.clip(np.rint(color), 0, 255).astype(np.uint8)


def _background(spec: SceneSpec, rng: SplitMix64) -> np.ndarray:
    """The textured background as (H, W, 3) uint8, made _BAND_PX pixels of
    rows at a time.  The waves are drawn first and the speckle band by band
    in row order: the blocks of the generator are counter-based, so the
    speckle is the stream of one full-frame draw."""
    h, w = spec.height, spec.width
    waves = []
    for _ in range(4):
        amp = spec.texture * 16.0 * rng.uniform(0.3, 1.0, 1)[0]
        fr = rng.uniform(0.003, 0.02, 1)[0]
        fc = rng.uniform(0.003, 0.02, 1)[0]
        phase = rng.uniform(0, 2 * np.pi, 1)[0]
        waves.append((amp, fr, fc, phase))
    pixels = np.empty((h, w, 3), dtype=np.uint8)
    cols = np.arange(w, dtype=np.float64)
    step = max(1, _BAND_PX // w)
    for r0 in range(0, h, step):
        r1 = min(h, r0 + step)
        rows = np.arange(r0, r1, dtype=np.float64)[:, None]
        pattern = np.zeros((r1 - r0, w))
        for amp, fr, fc, phase in waves:
            pattern += amp * np.cos(2 * np.pi * (fr * rows + fc * cols) + phase)
        pattern += spec.texture * 12.0 * rng.uniform(-1.0, 1.0, (r1 - r0, w))
        for c, scale in enumerate((1.0, 0.92, 0.85)):
            pixels[r0:r1, :, c] = _to_bytes(_BASE_COLOR[c] + scale * pattern)
    return pixels


def _disk_mask(h, w, cy, cx, ry, rx):
    r0, r1 = max(0, int(cy - ry)), min(h, int(cy + ry) + 1)
    c0, c1 = max(0, int(cx - rx)), min(w, int(cx + rx) + 1)
    if r0 >= r1 or c0 >= c1:
        return None
    yy, xx = np.mgrid[r0:r1, c0:c1].astype(np.float64)
    inside = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    return (slice(r0, r1), slice(c0, c1)), inside


def _paint_decoys(spec: SceneSpec, rng: SplitMix64, pixels, cluster_centers) -> None:
    # bright non-house blobs, kept away from residential clusters
    n = int(round(8.0 * spec.texture * (spec.width * spec.height) / (512.0 * 512.0)))
    for _ in range(n):
        for _retry in range(_PLACEMENT_RETRIES):
            cy = rng.int_range(8, spec.height - 9)
            cx = rng.int_range(8, spec.width - 9)
            far = all((cy - ky) ** 2 + (cx - kx) ** 2 > (1.5 * spec.cluster_radius) ** 2
                      for ky, kx in cluster_centers)
            if far:
                break
        else:
            continue
        brightness = rng.uniform(175.0, 225.0, 1)[0]
        color = brightness + rng.uniform(-12.0, 12.0, 3)
        placed = _disk_mask(spec.height, spec.width, cy, cx,
                            rng.uniform(2.0, 6.0, 1)[0], rng.uniform(2.0, 6.0, 1)[0])
        if placed is not None:
            region, inside = placed
            pixels[region][inside] = _to_bytes(color)


def _place_houses(spec: SceneSpec, rng: SplitMix64, pixels, labels, cluster_centers):
    lo, hi = spec.house_count
    n = rng.int_range(lo, hi)
    n_cluster = int(round(_CLUSTER_FRACTION * n)) if cluster_centers else 0
    boxes = []
    for i in range(n):
        hh = rng.int_range(spec.house_px[0], spec.house_px[1])
        ww = rng.int_range(spec.house_px[0], spec.house_px[1])
        for attempt in range(_PLACEMENT_RETRIES):
            if i < n_cluster:
                # widen the radius as retries mount so a full cluster spills
                # to its periphery instead of failing the scene
                widen = 1.0 + 0.3 * (attempt // 50)
                ky, kx = cluster_centers[rng.below(len(cluster_centers))]
                while True:
                    dy = rng.uniform(-1.0, 1.0, 1)[0]
                    dx = rng.uniform(-1.0, 1.0, 1)[0]
                    if dy * dy + dx * dx <= 1.0:
                        break
                r0 = int(ky + dy * spec.cluster_radius * widen)
                c0 = int(kx + dx * spec.cluster_radius * widen)
            else:
                r0 = rng.int_range(2, spec.height - 3)
                c0 = rng.int_range(2, spec.width - 3)
                near = any((r0 - ky) ** 2 + (c0 - kx) ** 2 <= (1.5 * spec.cluster_radius) ** 2
                           for ky, kx in cluster_centers)
                if near:
                    continue
            r1, c1 = r0 + hh - 1, c0 + ww - 1
            if r0 < 2 or c0 < 2 or r1 > spec.height - 3 or c1 > spec.width - 3:
                continue
            # 3 px clearance keeps every house its own 8-connected component
            if labels[max(0, r0 - 3):r1 + 4, max(0, c0 - 3):c1 + 4].any():
                continue
            break
        else:
            raise ValueError(f"could not place house {i + 1}/{n} after "
                             f"{_PLACEMENT_RETRIES} retries; relax the scene spec")
        color = _HOUSE_PALETTE[rng.below(len(_HOUSE_PALETTE))] + rng.uniform(-15.0, 15.0, 3)
        pixels[r0:r1 + 1, c0:c1 + 1] = _to_bytes(color)
        border = _to_bytes(0.55 * color)
        pixels[r0, c0:c1 + 1] = border
        pixels[r1, c0:c1 + 1] = border
        pixels[r0:r1 + 1, c0] = border
        pixels[r0:r1 + 1, c1] = border
        labels[r0:r1 + 1, c0:c1 + 1] = 1
        boxes.append(DetectionBox(r0, c0, r1, c1))
    return boxes


def _paint_occluders(spec: SceneSpec, rng: SplitMix64, pixels, boxes) -> None:
    n = int(round(spec.occluders * len(boxes)))
    order = list(range(len(boxes)))
    rng.shuffle(order)
    for bi in order[:n]:
        b = boxes[bi]
        cy = float(rng.int_range(b.row_min, b.row_max))
        cx = float(rng.int_range(b.col_min, b.col_max))
        color = _to_bytes(_OCCLUDER_COLOR + rng.uniform(-8.0, 8.0, 3))
        for _ in range(rng.int_range(3, 6)):
            r = rng.uniform(1.5, 3.5, 1)[0]
            placed = _disk_mask(spec.height, spec.width, cy, cx, r, r)
            if placed is not None:
                region, inside = placed
                pixels[region][inside] = color
            cy += rng.uniform(-3.0, 3.0, 1)[0]
            cx += rng.uniform(-3.0, 3.0, 1)[0]


def synth_scene(spec: SceneSpec):
    """Deterministically generate (Raster, LabelMap, ground-truth boxes)."""
    rng = SplitMix64(spec.seed)
    texture_rng, cluster_rng, decoy_rng, house_rng, occ_rng = (rng.split() for _ in range(5))

    pixels = _background(spec, texture_rng)
    labels = np.zeros((spec.height, spec.width), dtype=np.uint8)

    margin = int(spec.cluster_radius) + 16
    centers = []
    for _ in range(spec.clusters):
        centers.append((cluster_rng.int_range(margin, spec.height - margin - 1),
                        cluster_rng.int_range(margin, spec.width - margin - 1)))

    _paint_decoys(spec, decoy_rng, pixels, centers)
    boxes = _place_houses(spec, house_rng, pixels, labels, centers)
    _paint_occluders(spec, occ_rng, pixels, boxes)
    return (Raster(spec.width, spec.height, 3, pixels),
            LabelMap(spec.width, spec.height, labels),
            boxes)

