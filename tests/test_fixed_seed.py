"""Fixed-seed byte identity: a small pipeline through `cli.main`, and `infer`
of an untrained default model on a small crop, with every artifact's and
every `*_run.json`'s sha256 compared against a committed manifest
(`fixed_seed_manifest.json`).

The bytes depend on the NumPy version, the OpenBLAS build and kernel, and
NumPy's SIMD dispatch level, so the manifest keys the hashes of the files that
run a network by those three (`bytes_key`).  Under the `SkylakeX` kernel they
also depend on the OpenBLAS thread count (the default model's 32-channel GEMMs
split differently across threads), so the pipeline runs with OpenBLAS held at
one thread, whatever the host's core count.  The files that touch no BLAS --
`gen`'s, and `eval` and `count` on a map derived from `gen`'s labels -- are
pinned on every key.  On a key that was not recorded only those are checked,
and the rest is reported as a skip that names the key.

A change that means to alter the bytes re-records the manifest under each key
it can reach, and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_fixed_seed.py
    PYTHONPATH=src OPENBLAS_CORETYPE=Haswell python tests/test_fixed_seed.py
    PYTHONPATH=src NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \\
        python tests/test_fixed_seed.py
"""

import contextlib
import ctypes
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from lgseg import counting, raster
from lgseg.cli import main
from lgseg.engine import save_checkpoint
from lgseg.network import build_model

MANIFEST = Path(__file__).with_name("fixed_seed_manifest.json")

# the [model] of test_cli.SMALL_CFG, for speed
CFG = """
[model]
variant = dual
local_layers = conv3x4, relu, pool4, conv3x6, relu, pool4
local_embed = 32
global_layers = conv7x4s4, relu, pool4, conv3x6, relu, pool4
global_embed = 32
fusion_hidden = 24

[train]
samples_per_scene = 8

[tree]
min_houses = 3
max_cycles = 2
"""
# rows and columns of gen's scene that the network commands run on: 72x264,
# ragged on both axes, so the stitched maps have shifted margin tiles, and its
# tiles hold both residential classes, so tree-fit has a gate to fit
CROP = (slice(96, 168), slice(112, 376))
# the default model's 32-channel convs, which CFG's model lacks, run untrained
# on a 40x32 crop of that scene: 6 tiles, the last row shifted
DEFAULT_CROP = (slice(96, 136), slice(112, 144))


def bytes_key() -> str:
    """NumPy version | OpenBLAS build and kernel | highest SIMD dispatch target on."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    level = next((t for t in reversed(__cpu_dispatch__) if __cpu_features__.get(t)), "baseline")
    blas = "unknown"
    for lib in _openblas_libs():
        get_config = lib.scipy_openblas_get_config64_
        get_config.restype = ctypes.c_char_p
        blas = " ".join(get_config().decode().split())
    return f"numpy {np.__version__} | {blas} | {level}"


def _openblas_libs() -> list:
    return [ctypes.CDLL(str(lib)) for lib in sorted(
        (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))]


@contextlib.contextmanager
def _one_blas_thread():
    """Hold NumPy's OpenBLAS at one thread, then restore its thread count."""
    libs = _openblas_libs()
    before = [lib.scipy_openblas_get_num_threads64_() for lib in libs]
    for lib in libs:
        lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        for lib, n in zip(libs, before):
            lib.scipy_openblas_set_num_threads64_(n)


def _run(*argv) -> None:
    code = main([str(a) for a in argv])
    assert code == 0, f"lgseg {argv[0]} exited {code}"


def _hashes(root: Path, steps) -> dict:
    return {f"{step}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for step in steps for p in sorted((root / step).iterdir())}


def _write_crop(img: raster.Raster, crop: tuple, path: Path) -> None:
    pixels = img.pixels[crop].copy()
    raster.write_raster(raster.Raster(pixels.shape[1], pixels.shape[0], 3, pixels), path)


@_one_blas_thread()
def run_pipeline(root: Path):
    """(BLAS-free hashes, network hashes) of one fixed-seed pipeline under root,
    run with OpenBLAS at one thread."""
    cfg = root / "small.cfg"
    cfg.write_text(CFG)
    pooled = root / "pooled.cfg"
    pooled.write_text(CFG + "\n[eval]\naggregate = pooled\n")
    gen = root / "gen"
    _run("gen", "--config", cfg, "--seed", 0, "--out", gen)

    # the crop, and a map derived from its labels
    crop = root / "crop"
    crop.mkdir()
    rows, cols = CROP
    img = raster.read_image(gen / "scene_000.ppm")
    _write_crop(img, CROP, crop / "scene.ppm")
    labels = raster.read_label(gen / "labels_000.pgm").labels[rows, cols].copy()
    raster.write_label(raster.LabelMap(labels.shape[1], labels.shape[0], labels),
                       crop / "labels.pgm")
    raster.write_prob_sidecar(labels * 0.8 + 0.1, crop / "labels_prob.lgprob")
    boxes = [counting.DetectionBox(b.row_min - rows.start, b.col_min - cols.start,
                                   b.row_max - rows.start, b.col_max - cols.start)
             for b in counting.read_boxes_csv(gen / "boxes_000.csv")
             if rows.start <= b.row_min and b.row_max < rows.stop
             and cols.start <= b.col_min and b.col_max < cols.stop]
    counting.write_boxes_csv(boxes, crop / "boxes.csv")

    _run("eval", "--config", cfg, "--pred", crop / "labels_prob.lgprob",
         "--gt", crop / "labels.pgm", "--out", root / "eval_labels")
    _run("count", "--config", cfg, "--prob", crop / "labels_prob.lgprob",
         "--boxes", crop / "boxes.csv", "--out", root / "count_labels")
    report = json.loads((root / "count_labels" / "count_report.json").read_text())
    tallies = {k: report[k] for k in ("tp", "fp", "fn")}
    (crop / "tallies.json").write_text(json.dumps({**tallies, "residential": 1}))
    _run("count", "--tallies", crop / "tallies.json", "--out", root / "count_tallies")
    blas_free = _hashes(root, ["gen", "eval_labels", "count_labels", "count_tallies"])

    _run("train", "--config", cfg, "--data", gen, "--epochs", 1, "--out", root / "train")
    model = root / "train" / "model.ckpt"
    _run("infer", "--config", cfg, "--model", model, "--image", crop / "scene.ppm",
         "--sidecar", "--out", root / "infer")
    with mock.patch.dict(os.environ, {"LGSEG_THREADS": "2"}):
        _run("ablate", "--config", cfg, "--model", model, "--image", crop / "scene.ppm",
             "--out", root / "ablate")
    sidecar, pgm = root / "infer" / "scene_prob.lgprob", root / "infer" / "scene_prob.pgm"
    _run("eval", "--config", cfg, "--pred", sidecar, "--gt", crop / "labels.pgm",
         "--out", root / "eval_mean_f")
    _run("eval", "--config", pooled, "--pred", pgm, "--gt", crop / "labels.pgm",
         "--out", root / "eval_pooled")
    _run("tree-fit", "--config", cfg, "--model", model, "--image", crop / "scene.ppm",
         "--prob", crop / "labels_prob.lgprob", "--gt", crop / "labels.pgm",
         "--out", root / "tree_fit")
    _run("count", "--config", cfg, "--prob", sidecar, "--boxes", crop / "boxes.csv",
         "--out", root / "count")
    _write_crop(img, DEFAULT_CROP, crop / "default_scene.ppm")
    save_checkpoint(root / "default.ckpt", build_model(seed=7).params)
    _run("infer", "--model", root / "default.ckpt", "--image", crop / "default_scene.ppm",
         "--sidecar", "--out", root / "infer_default")
    network = _hashes(root, ["train", "infer", "ablate", "eval_mean_f", "eval_pooled",
                             "tree_fit", "count", "infer_default"])
    return blas_free, network


def test_fixed_seed_artifacts_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    blas_free, network = run_pipeline(tmp_path)
    assert blas_free == manifest["blas_free"]
    key = bytes_key()
    if key not in manifest["by_key"]:
        pytest.skip(f"no manifest entry for '{key}': only gen's files, and eval and count "
                    "on a map derived from gen's labels, were checked")
    assert network == manifest["by_key"][key]


if __name__ == "__main__":
    # record this process's key, keeping every other key's entry
    with tempfile.TemporaryDirectory() as tmp:
        blas_free, network = run_pipeline(Path(tmp))
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {"by_key": {}}
    if manifest.setdefault("blas_free", blas_free) != blas_free:
        sys.exit("the BLAS-free hashes differ from the manifest's; re-record every key")
    manifest["by_key"][bytes_key()] = network
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(blas_free)} + {len(network)} hashes for '{bytes_key()}'")
