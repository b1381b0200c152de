"""Scene generator consistency tests."""

import numpy as np
import pytest

from lgseg import raster
from lgseg.counting import components
from lgseg.rng import SplitMix64
from lgseg.synth import SceneSpec, synth_scene


def test_empty_scene():
    img, labels, boxes = synth_scene(SceneSpec(house_count=(0, 0), seed=1))
    assert not labels.labels.any()
    assert boxes == []
    assert img.pixels.shape == (512, 512, 3)


def test_deterministic_bytes(tmp_path):
    spec = SceneSpec(seed=42)
    a_img, a_lab, a_boxes = synth_scene(spec)
    b_img, b_lab, b_boxes = synth_scene(spec)
    assert np.array_equal(a_img.pixels, b_img.pixels)
    assert np.array_equal(a_lab.labels, b_lab.labels)
    assert a_boxes == b_boxes
    pa, pb = tmp_path / "a.ppm", tmp_path / "b.ppm"
    raster.write_raster(a_img, pa)
    raster.write_raster(b_img, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_different_seeds_differ():
    a = synth_scene(SceneSpec(seed=1))[0]
    b = synth_scene(SceneSpec(seed=2))[0]
    assert not np.array_equal(a.pixels, b.pixels)


def test_boxes_match_label_components_100_specs():
    rng = SplitMix64(7)
    for _ in range(100):
        spec = SceneSpec(
            house_count=(rng.below(40), 40 + rng.below(40)),
            house_px=(5 + rng.below(4), 10 + rng.below(8)),
            clusters=1 + rng.below(3),
            cluster_radius=60.0 + rng.below(60),
            texture=rng.below(100) / 100.0,
            occluders=rng.below(100) / 100.0,
            seed=rng.next_u64(),
        )
        _, labels, boxes = synth_scene(spec)
        _, comps = components(labels.labels, 8)
        assert len(comps) == len(boxes)
        got = sorted((b.row_min, b.col_min, b.row_max, b.col_max) for b in comps)
        want = sorted((b.row_min, b.col_min, b.row_max, b.col_max) for b in boxes)
        assert got == want


def test_occluders_keep_labels():
    spec_clean = SceneSpec(house_count=(20, 20), occluders=0.0, seed=5)
    spec_occl = SceneSpec(house_count=(20, 20), occluders=1.0, seed=5)
    _, lab_clean, _ = synth_scene(spec_clean)
    img_occl, lab_occl, _ = synth_scene(spec_occl)
    assert np.array_equal(lab_clean.labels, lab_occl.labels)
    # occluders visibly darken some labelled pixels
    img_clean = synth_scene(spec_clean)[0]
    diff = (img_clean.pixels.astype(int) - img_occl.pixels.astype(int))[lab_clean.labels == 1]
    assert (np.abs(diff).sum(axis=-1) > 0).any()


def test_houses_brighter_than_background_on_average():
    img, labels, _ = synth_scene(SceneSpec(seed=3))
    gray = img.pixels.mean(axis=-1)
    assert gray[labels.labels == 1].mean() > gray[labels.labels == 0].mean() + 20


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        SceneSpec(width=256)
    with pytest.raises(ValueError):
        SceneSpec(house_count=(5, 2))
    with pytest.raises(ValueError):
        SceneSpec(house_px=(2, 10))
    with pytest.raises(ValueError):
        SceneSpec(occluders=1.5)


def test_infeasible_placement_raises():
    with pytest.raises(ValueError):
        synth_scene(SceneSpec(house_count=(4000, 4000), house_px=(16, 16), seed=0))

