"""Scene generator consistency tests."""

import tracemalloc

import numpy as np
import pytest

from lgseg import raster, synth
from lgseg.counting import components
from lgseg.rng import SplitMix64
from lgseg.synth import SceneSpec, synth_scene
from synth_oracle import synth_scene_full_frame


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


ORACLE_SPECS = {
    "default": SceneSpec(seed=0),
    "seed-1": SceneSpec(seed=1),
    "513x777": SceneSpec(width=513, height=777, seed=2),
    "600x520": SceneSpec(width=600, height=520, seed=3),
    "777x513": SceneSpec(width=777, height=513, seed=4),
    "texture-0": SceneSpec(texture=0.0, seed=5),
    "texture-40": SceneSpec(texture=40.0, seed=6),
    "occluders-1": SceneSpec(occluders=1.0, seed=7),
    "clusters-0": SceneSpec(clusters=0, seed=8),
    "no-houses": SceneSpec(house_count=(0, 0), seed=9),
    "3-clusters": SceneSpec(clusters=3, cluster_radius=60.0, texture=2.0, seed=10),
    "small-houses": SceneSpec(house_count=(80, 90), house_px=(4, 6), occluders=0.6, seed=11),
    "top-seed": SceneSpec(texture=0.05, seed=2 ** 64 - 1),
}


@pytest.mark.parametrize("spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS)
def test_banded_scene_matches_the_full_frame_oracle(spec):
    # 513x777, 600x520 and 777x513 end in a partial band, and texture 40
    # clips the float image at both 0 and 255
    img, labels, boxes = synth_scene(spec)
    want_img, want_labels, want_boxes = synth_scene_full_frame(spec)
    assert img.pixels.dtype == want_img.pixels.dtype == np.uint8
    assert img.pixels.tobytes() == want_img.pixels.tobytes()
    assert labels.labels.tobytes() == want_labels.labels.tobytes()
    assert boxes == want_boxes
    if spec.width != 512:
        assert spec.height % max(1, synth._BAND_PX // spec.width) != 0
    if spec.texture == 40.0:
        assert (img.pixels == 0).any() and (img.pixels == 255).any()


def test_default_scene_holds_no_full_frame_float_image():
    # tracemalloc sees NumPy's buffers.  One (512, 512, 3) float64 image is
    # 6 MiB; the full-frame generator peaked at 18.3 MiB with three of them
    # and two 2 MiB coordinate grids
    tracemalloc.start()
    try:
        synth_scene(SceneSpec(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        SceneSpec(width=256)
    with pytest.raises(ValueError):
        SceneSpec(house_count=(5, 2))
    with pytest.raises(ValueError):
        SceneSpec(house_px=(2, 10))
    with pytest.raises(ValueError):
        SceneSpec(occluders=1.5)


def test_cluster_radius_without_room_for_a_centre_rejected():
    # centres keep int(radius) + 16 px from each edge: 2 * (239 + 16) + 1 =
    # 511 fits in 512 px, 2 * (240 + 16) + 1 = 513 does not
    SceneSpec(cluster_radius=239.9)
    with pytest.raises(ValueError, match=r"^cluster_radius 240 leaves no room .* 512x600 scene"):
        SceneSpec(cluster_radius=240.0, width=512, height=600)
    with pytest.raises(ValueError, match=r"^cluster_radius 300 "):
        SceneSpec(cluster_radius=300.0)
    for radius in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="cluster count/radius invalid"):
            SceneSpec(cluster_radius=radius, clusters=0)
    # without clusters the radius places nothing, so it is not bounded
    assert synth_scene(SceneSpec(cluster_radius=300.0, clusters=0, seed=1))[2]


def test_infeasible_placement_raises():
    with pytest.raises(ValueError):
        synth_scene(SceneSpec(house_count=(4000, 4000), house_px=(16, 16), seed=0))

