"""Full-frame scene generator, the oracle for the banded uint8 generator.

It builds the whole scene as one (H, W, 3) float64 image from full-frame
`np.mgrid` grids and one (H, W) speckle draw, paints the decoy, house, border
and occluder colours unrounded, and rounds and clips the finished image once.
The generator in `lgseg.synth` must return the same pixels, labels and boxes
byte for byte.
"""

import numpy as np

from lgseg.counting import DetectionBox
from lgseg.raster import LabelMap, Raster
from lgseg.rng import SplitMix64
from lgseg.synth import (_BASE_COLOR, _CLUSTER_FRACTION, _HOUSE_PALETTE, _OCCLUDER_COLOR,
                         _PLACEMENT_RETRIES, SceneSpec, _disk_mask)


def _background(spec: SceneSpec, rng: SplitMix64) -> np.ndarray:
    h, w = spec.height, spec.width
    rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
    pattern = np.zeros((h, w))
    for _ in range(4):
        amp = spec.texture * 16.0 * rng.uniform(0.3, 1.0, 1)[0]
        fr = rng.uniform(0.003, 0.02, 1)[0]
        fc = rng.uniform(0.003, 0.02, 1)[0]
        phase = rng.uniform(0, 2 * np.pi, 1)[0]
        pattern += amp * np.cos(2 * np.pi * (fr * rows + fc * cols) + phase)
    speckle = spec.texture * 12.0 * rng.uniform(-1.0, 1.0, (h, w))
    img = np.empty((h, w, 3))
    for c, scale in enumerate((1.0, 0.92, 0.85)):
        img[..., c] = _BASE_COLOR[c] + scale * (pattern + speckle)
    return img


def _paint_decoys(spec: SceneSpec, rng: SplitMix64, img, cluster_centers) -> None:
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
            img[region][inside] = color


def _place_houses(spec: SceneSpec, rng: SplitMix64, img, labels, cluster_centers):
    lo, hi = spec.house_count
    n = rng.int_range(lo, hi)
    n_cluster = int(round(_CLUSTER_FRACTION * n)) if cluster_centers else 0
    occupied = np.zeros((spec.height, spec.width), dtype=bool)
    boxes = []
    for i in range(n):
        hh = rng.int_range(spec.house_px[0], spec.house_px[1])
        ww = rng.int_range(spec.house_px[0], spec.house_px[1])
        for attempt in range(_PLACEMENT_RETRIES):
            if i < n_cluster:
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
            if occupied[max(0, r0 - 3):r1 + 4, max(0, c0 - 3):c1 + 4].any():
                continue
            break
        else:
            raise ValueError(f"could not place house {i + 1}/{n} after "
                             f"{_PLACEMENT_RETRIES} retries; relax the scene spec")
        color = _HOUSE_PALETTE[rng.below(len(_HOUSE_PALETTE))] + rng.uniform(-15.0, 15.0, 3)
        img[r0:r1 + 1, c0:c1 + 1] = color
        border = 0.55 * color
        img[r0, c0:c1 + 1] = border
        img[r1, c0:c1 + 1] = border
        img[r0:r1 + 1, c0] = border
        img[r0:r1 + 1, c1] = border
        labels[r0:r1 + 1, c0:c1 + 1] = 1
        occupied[r0:r1 + 1, c0:c1 + 1] = True
        boxes.append(DetectionBox(r0, c0, r1, c1))
    return boxes


def _paint_occluders(spec: SceneSpec, rng: SplitMix64, img, boxes) -> None:
    n = int(round(spec.occluders * len(boxes)))
    order = list(range(len(boxes)))
    rng.shuffle(order)
    for bi in order[:n]:
        b = boxes[bi]
        cy = float(rng.int_range(b.row_min, b.row_max))
        cx = float(rng.int_range(b.col_min, b.col_max))
        color = _OCCLUDER_COLOR + rng.uniform(-8.0, 8.0, 3)
        for _ in range(rng.int_range(3, 6)):
            r = rng.uniform(1.5, 3.5, 1)[0]
            placed = _disk_mask(spec.height, spec.width, cy, cx, r, r)
            if placed is not None:
                region, inside = placed
                img[region][inside] = color
            cy += rng.uniform(-3.0, 3.0, 1)[0]
            cx += rng.uniform(-3.0, 3.0, 1)[0]


def synth_scene_full_frame(spec: SceneSpec):
    """(Raster, LabelMap, boxes) of `spec`, rounded from one float image."""
    rng = SplitMix64(spec.seed)
    texture_rng, cluster_rng, decoy_rng, house_rng, occ_rng = (rng.split() for _ in range(5))

    img = _background(spec, texture_rng)
    labels = np.zeros((spec.height, spec.width), dtype=np.uint8)

    margin = int(spec.cluster_radius) + 16
    centers = []
    for _ in range(spec.clusters):
        centers.append((cluster_rng.int_range(margin, spec.height - margin - 1),
                        cluster_rng.int_range(margin, spec.width - margin - 1)))

    _paint_decoys(spec, decoy_rng, img, centers)
    boxes = _place_houses(spec, house_rng, img, labels, centers)
    _paint_occluders(spec, occ_rng, img, boxes)

    pixels = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return (Raster(spec.width, spec.height, 3, pixels),
            LabelMap(spec.width, spec.height, labels),
            boxes)
