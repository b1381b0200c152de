"""End-to-end command tests on compact configurations."""

import json
import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lgseg
from lgseg import cli, engine, raster, sampling, tree
from lgseg.cli import _load_model, _tile_patches, main
from lgseg.config import parse_config_text
from lgseg.counting import write_boxes_csv, DetectionBox
from lgseg.engine import CHECKPOINT_MAGIC, save_checkpoint
from lgseg.network import build_model
from lgseg.rng import SplitMix64
from lgseg.sampling import grid_centers
from window_oracle import gather_window

# compact model + tiny scenes keep the command tests fast
SMALL_CFG = """
[model]
variant = dual
local_layers = conv3x4, relu, pool4, conv3x6, relu, pool4
local_embed = 32
global_layers = conv7x4s4, relu, pool4, conv3x6, relu, pool4
global_embed = 32
fusion_hidden = 24

[train]
epochs = 2
samples_per_scene = 12
seed = 3

[scene]
count = 2
houses_min = 12
houses_max = 16
clusters = 1
texture = 0.3
occluders = 0.1
"""


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory, cfg_path):
    out = tmp_path_factory.mktemp("scenes")
    assert run("gen", "--config", cfg_path, "--seed", 7, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, cfg_path, scene_dir):
    out = tmp_path_factory.mktemp("model")
    assert run("train", "--config", cfg_path, "--data", scene_dir, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def crop_path(tmp_path_factory, scene_dir):
    """Rows 0-71 and columns 0-87 of scene_000: 30 tiles, ragged on both axes."""
    path = tmp_path_factory.mktemp("crop") / "crop.ppm"
    pixels = raster.read_raster(scene_dir / "scene_000.ppm").pixels[:72, :88]
    raster.write_raster(raster.Raster(88, 72, 3, pixels.copy()), path)
    return path


@pytest.fixture(scope="module")
def infer_dir(tmp_path_factory, cfg_path, crop_path, trained_dir):
    """One `infer --sidecar` of the crop at one worker, for the tests that
    only read its output."""
    out = tmp_path_factory.mktemp("infer")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("LGSEG_THREADS", raising=False)
        assert run("infer", "--config", cfg_path, "--model", trained_dir / "model.ckpt",
                   "--image", crop_path, "--out", out, "--sidecar") == 0
    return out


class TestGen:
    def test_artifacts_and_report(self, scene_dir):
        assert (scene_dir / "scene_000.ppm").exists()
        assert (scene_dir / "labels_001.pgm").exists()
        assert (scene_dir / "boxes_000.csv").exists()
        report = json.loads((scene_dir / "gen_run.json").read_text())
        assert report["command"] == "gen" and report["seed"] == 7
        assert len(report["artifacts"]) == 6
        assert "[model]" in report["config"]

    def test_rerun_is_byte_identical(self, tmp_path, cfg_path, scene_dir):
        again = tmp_path / "again"
        assert run("gen", "--config", cfg_path, "--seed", 7, "--out", again) == 0
        for p in sorted(scene_dir.iterdir()):
            assert (again / p.name).read_bytes() == p.read_bytes(), p.name

    def test_different_seed_differs(self, tmp_path, cfg_path, scene_dir):
        other = tmp_path / "other"
        assert run("gen", "--config", cfg_path, "--seed", 8, "--out", other) == 0
        assert (other / "scene_000.ppm").read_bytes() != (scene_dir / "scene_000.ppm").read_bytes()


class TestTrain:
    def test_checkpoint_and_report(self, trained_dir):
        assert (trained_dir / "model.ckpt").exists()
        report = json.loads((trained_dir / "train_run.json").read_text())
        assert len(report["epoch_losses"]) == 2
        assert report["triplets"] == 24
        assert all(l > 0 for l in report["epoch_losses"])

    def test_rerun_is_byte_identical(self, tmp_path, cfg_path, scene_dir, trained_dir):
        again = tmp_path / "again"
        assert run("train", "--config", cfg_path, "--data", scene_dir, "--out", again) == 0
        assert (again / "model.ckpt").read_bytes() == (trained_dir / "model.ckpt").read_bytes()
        assert (again / "train_run.json").read_bytes() == \
            (trained_dir / "train_run.json").read_bytes()

    def test_grid_sampler_on_a_small_ragged_scene(self, tmp_path):
        # 40x56: shifted margin tiles on both axes, and 256 px global windows
        # that fold back more than once
        data = tmp_path / "data"
        data.mkdir()
        rng = SplitMix64(5)
        raster.write_raster(raster.Raster(56, 40, 3, rng.uniform(0, 256, (40, 56, 3))
                                          .astype(np.uint8)), data / "scene_000.ppm")
        raster.write_label(raster.LabelMap(56, 40, (rng.uniform(0, 1, (40, 56)) > 0.7)
                                           .astype(np.uint8)), data / "labels_000.pgm")
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(SMALL_CFG.replace("[train]\n", "[train]\nsampler = grid\n"))
        for out in ("a", "b"):
            assert run("train", "--config", cfg, "--data", data, "--out", tmp_path / out) == 0
        report = json.loads((tmp_path / "a" / "train_run.json").read_text())
        assert report["triplets"] == len(grid_centers((40, 56))) == 12
        assert (tmp_path / "a" / "model.ckpt").read_bytes() == \
            (tmp_path / "b" / "model.ckpt").read_bytes()

    @pytest.mark.parametrize("command, setting", [
        ("train", "[train]\nlearning_rate = nan\n"),
        ("train", "[train]\nstop_loss = nan\n"),
        ("gen", "[scene]\ncluster_radius = nan\n"),
    ])
    def test_non_finite_config_float_is_usage_error_before_any_work(
            self, tmp_path, scene_dir, command, setting, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(SMALL_CFG + setting)
        out = tmp_path / "out"
        extra = ("--data", scene_dir, "--epochs", 1) if command == "train" else ()
        assert run(command, "--config", cfg, *extra, "--out", out) == 1
        assert "expects a finite float, got 'nan'" in capsys.readouterr().err
        assert not out.exists()

    def test_step_that_overflows_is_data_error_without_a_checkpoint(self, tmp_path, scene_dir,
                                                                     capsys):
        cfg = tmp_path / "divergent.cfg"
        cfg.write_text("[model]\nlocal_layers = conv3x4, relu, pool4\n"
                       "global_layers = conv5x4s4, relu, pool8\nlocal_embed = 8\n"
                       "global_embed = 8\nfusion_hidden = 8\n[train]\n"
                       "learning_rate = 1.7e308\nsamples_per_scene = 4\nepochs = 1\n")
        out = tmp_path / "out"
        assert run("train", "--config", cfg, "--data", scene_dir, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite" in err and "epoch 1, batch 1" in err
        assert list(out.iterdir()) == []

    def test_missing_data_dir_is_data_error(self, tmp_path, cfg_path):
        assert run("train", "--config", cfg_path, "--data", tmp_path / "none",
                   "--out", tmp_path / "out") == 2


class TestInfer:
    def test_prob_map_artifacts(self, infer_dir):
        prob = raster.read_prob_sidecar(infer_dir / "crop_prob.lgprob")
        assert prob.shape == (72, 88)
        assert prob.min() > 0.0 and prob.max() < 1.0
        quantised = raster.read_prob(infer_dir / "crop_prob.pgm")
        assert np.abs(quantised - prob).max() <= 0.5 / 255 + 1e-12

    def test_thread_count_does_not_change_bytes(self, tmp_path, cfg_path, crop_path,
                                                trained_dir, infer_dir, monkeypatch):
        out1, out4 = infer_dir, tmp_path / "t4"
        monkeypatch.setenv("LGSEG_THREADS", "4")
        assert run("infer", "--config", cfg_path, "--model", trained_dir / "model.ckpt",
                   "--image", crop_path, "--out", out4, "--sidecar") == 0
        assert (out1 / "crop_prob.lgprob").read_bytes() == \
            (out4 / "crop_prob.lgprob").read_bytes()

    def test_bad_threads_env_is_usage_error(self, tmp_path, cfg_path, scene_dir,
                                            trained_dir, monkeypatch):
        monkeypatch.setenv("LGSEG_THREADS", "zero")
        assert run("infer", "--config", cfg_path, "--model", trained_dir / "model.ckpt",
                   "--image", scene_dir / "scene_000.ppm", "--out", tmp_path / "x") == 1

    def test_non_finite_checkpoint_is_data_error(self, tmp_path, cfg_path, scene_dir,
                                                 trained_dir, capsys):
        model = _load_model(parse_config_text(SMALL_CFG), trained_dir / "model.ckpt")
        model.params["fusion.1.bias"][0] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(ckpt, model.params)
        out = tmp_path / "x"
        assert run("infer", "--config", cfg_path, "--model", ckpt,
                   "--image", scene_dir / "scene_000.ppm", "--out", out) == 2
        assert "fusion.1.bias" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_repeated_tensor_checkpoint_is_data_error(self, tmp_path, cfg_path, scene_dir,
                                                      trained_dir, capsys):
        # a second local.0.weight, all 7.0, appended after a valid checkpoint
        model = _load_model(parse_config_text(SMALL_CFG), trained_dir / "model.ckpt")
        extra = tmp_path / "extra.ckpt"
        save_checkpoint(extra, {"local.0.weight": np.full_like(model.params["local.0.weight"], 7.0)})
        ckpt = tmp_path / "twice.ckpt"
        ckpt.write_bytes((trained_dir / "model.ckpt").read_bytes()
                         + extra.read_bytes()[len(CHECKPOINT_MAGIC):])
        out = tmp_path / "x"
        assert run("infer", "--config", cfg_path, "--model", ckpt,
                   "--image", scene_dir / "scene_000.ppm", "--out", out) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "local.0.weight" in err
        assert not out.exists() or not any(out.iterdir())

    def test_loading_a_checkpoint_draws_no_initial_parameters(self, tmp_path, cfg_path,
                                                              trained_dir, monkeypatch):
        def no_draw(*args):
            raise AssertionError("xavier_init called while loading a checkpoint")

        monkeypatch.setattr(engine, "xavier_init", no_draw)
        ckpt = trained_dir / "model.ckpt"
        model = _load_model(parse_config_text(SMALL_CFG), ckpt)
        tensors = engine.load_checkpoint(ckpt)
        assert list(model.params) == list(tensors)
        assert all(np.array_equal(model.params[k], v) for k, v in tensors.items())
        raster.write_raster(small_image(3), tmp_path / "small.ppm")
        assert run("infer", "--config", cfg_path, "--model", ckpt,
                   "--image", tmp_path / "small.ppm", "--out", tmp_path / "x") == 0

    @pytest.mark.parametrize("fault", ["renamed", "reshaped"])
    def test_checkpoint_that_does_not_fit_the_config_is_data_error(self, tmp_path, cfg_path,
                                                                   scene_dir, trained_dir,
                                                                   fault, capsys):
        tensors = engine.load_checkpoint(trained_dir / "model.ckpt")
        if fault == "renamed":
            tensors = {k.replace("fusion.1.bias", "fusion.1.offset"): v for k, v in tensors.items()}
        else:
            tensors["fusion.1.bias"] = np.zeros(tensors["fusion.1.bias"].size + 1)
        ckpt = tmp_path / "misfit.ckpt"
        save_checkpoint(ckpt, tensors)
        out = tmp_path / "x"
        assert run("infer", "--config", cfg_path, "--model", ckpt,
                   "--image", scene_dir / "scene_000.ppm", "--out", out) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and ("fusion.1.bias" in err) == (fault == "reshaped")
        assert not out.exists() or not any(out.iterdir())

    def test_checkpoint_with_wrapping_extents_is_data_error(self, tmp_path, cfg_path,
                                                          scene_dir, trained_dir, capsys):
        # a tensor of (2**32 - 1)**2 elements after a valid checkpoint: an
        # int64 element count wraps, an exact one finds the file truncated
        ckpt = tmp_path / "huge.ckpt"
        ckpt.write_bytes((trained_dir / "model.ckpt").read_bytes() + struct.pack("<I", 8)
                         + b"x.weight" + struct.pack("<3I", 2, 2 ** 32 - 1, 2 ** 32 - 1))
        out = tmp_path / "x"
        assert run("infer", "--config", cfg_path, "--model", ckpt,
                   "--image", scene_dir / "scene_000.ppm", "--out", out) == 2
        assert capsys.readouterr().err == f"lgseg infer: {ckpt}: truncated checkpoint\n"
        assert not out.exists() or not any(out.iterdir())

    def test_wrong_architecture_checkpoint_is_data_error(self, tmp_path, scene_dir,
                                                         trained_dir):
        # default config (full desk model) cannot load the small checkpoint
        assert run("infer", "--model", trained_dir / "model.ckpt",
                   "--image", scene_dir / "scene_000.ppm", "--out", tmp_path / "x") == 2


class TestEval:
    def test_perfect_prediction_scores_one(self, tmp_path, cfg_path, scene_dir):
        labels = raster.read_label(scene_dir / "labels_000.pgm")
        prob_path = tmp_path / "perfect.lgprob"
        raster.write_prob_sidecar(labels.labels.astype(float), prob_path)
        out = tmp_path / "eval"
        assert run("eval", "--config", cfg_path, "--pred", prob_path,
                   "--gt", scene_dir / "labels_000.pgm", "--out", out) == 0
        best = json.loads((out / "max_f.json").read_text())
        assert best["f"] == 1.0 and best["rho"] == 3
        lines = (out / "pr_curve.csv").read_text().splitlines()
        assert lines[0] == "threshold,precision,recall,f"
        assert len(lines) == 100

    def test_extent_mismatch_data_error_naming_the_prediction(self, tmp_path, cfg_path,
                                                               scene_dir, capsys):
        # the second pair's prediction is half as wide as its ground truth
        gt = scene_dir / "labels_000.pgm"
        full, half = tmp_path / "full.lgprob", tmp_path / "half.lgprob"
        raster.write_prob_sidecar(np.full((512, 512), 0.5), full)
        raster.write_prob_sidecar(np.full((512, 256), 0.5), half)
        out = tmp_path / "eval"
        assert run("eval", "--config", cfg_path, "--pred", full, "--gt", gt,
                   "--pred", half, "--gt", gt, "--out", out) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"lgseg eval: {half}: extents do not match labels_000.pgm"]
        assert not list(tmp_path.rglob("*_run.json"))

    def test_mismatched_pair_counts_usage_error(self, tmp_path, cfg_path, scene_dir):
        assert run("eval", "--config", cfg_path, "--pred", tmp_path / "a.lgprob",
                   "--gt", scene_dir / "labels_000.pgm",
                   "--gt", scene_dir / "labels_001.pgm", "--out", tmp_path / "e") == 1


class TestAblate:
    def test_three_maps_and_full_matches_infer(self, tmp_path, cfg_path, crop_path,
                                               trained_dir, infer_dir):
        out = tmp_path / "ablate"
        assert run("ablate", "--config", cfg_path, "--model", trained_dir / "model.ckpt",
                   "--image", crop_path, "--out", out) == 0
        full = raster.read_prob_sidecar(out / "crop_full.lgprob")
        local_only = raster.read_prob_sidecar(out / "crop_local_only.lgprob")
        global_only = raster.read_prob_sidecar(out / "crop_global_only.lgprob")
        assert not np.array_equal(local_only, global_only)
        assert np.array_equal(full, raster.read_prob_sidecar(infer_dir / "crop_prob.lgprob"))

    @pytest.mark.parametrize("variant", ["local", "global"])
    def test_single_pathway_model_is_usage_error_before_any_forward(
            self, tmp_path, scene_dir, monkeypatch, variant, capsys):
        cfg = parse_config_text(SMALL_CFG.replace("variant = dual", f"variant = {variant}"))
        (tmp_path / "variant.cfg").write_text(cfg.raw_text)
        save_checkpoint(tmp_path / "model.ckpt", build_model(*cfg.model_specs(), seed=1).params)

        def no_forward(*args, **kwargs):
            raise AssertionError("per-tile inference ran for a single-pathway model")

        monkeypatch.setattr(cli, "_tile_patches", no_forward)
        out = tmp_path / "ablate"
        assert run("ablate", "--config", tmp_path / "variant.cfg",
                   "--model", tmp_path / "model.ckpt",
                   "--image", scene_dir / "scene_000.ppm", "--out", out) == 1
        assert "ablate requires a dual-pathway model" in capsys.readouterr().err
        assert not any(out.iterdir())


class TestTreeFit:
    def test_fit_writes_thresholds(self, tmp_path, cfg_path, scene_dir, trained_dir):
        # L-Seg-style probs straight from the labels plus a confident smudge,
        # on 72x264 crops (85 tiles each) that hold both residential classes
        out = tmp_path / "tree"
        argv = []
        for idx, r0 in (("000", 80), ("001", 304)):
            crop = np.s_[r0:r0 + 72, 64:328]
            img = raster.read_raster(scene_dir / f"scene_{idx}.ppm").pixels[crop]
            labels = raster.read_label(scene_dir / f"labels_{idx}.pgm").labels[crop]
            prob = labels.astype(float) * 0.8 + 0.05
            prob[2:12, 20:30] = 0.95  # hallucination far from clusters
            paths = [tmp_path / f"{name}_{idx}" for name in ("scene.ppm", "prob.lgprob",
                                                             "labels.pgm")]
            raster.write_raster(raster.Raster(264, 72, 3, img.copy()), paths[0])
            raster.write_prob_sidecar(prob, paths[1])
            raster.write_label(raster.LabelMap(264, 72, labels.copy()), paths[2])
            argv += ["--image", paths[0], "--prob", paths[1], "--gt", paths[2]]
        cfg2 = tmp_path / "tree.cfg"
        cfg2.write_text(SMALL_CFG + "\n[tree]\nmin_houses = 5\n")
        code = run("tree-fit", "--config", cfg2, "--model", trained_dir / "model.ckpt",
                   *argv, "--out", out)
        assert code == 0
        fitted = json.loads((out / "tree.json").read_text())
        assert set(fitted) >= {"t1", "t2", "t3", "f_trace", "leaf_order_ok"}
        trace = fitted["f_trace"]
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_labels_each_image_once(self, tmp_path, scene_dir, trained_dir, monkeypatch):
        # the gate check's tile classes serve the fit; per-tile inference is
        # stubbed with a score per tile, which this test does not look at
        probs = []
        for idx in ("000", "001"):
            labels = raster.read_label(scene_dir / f"labels_{idx}.pgm")
            probs.append(tmp_path / f"prob_{idx}.lgprob")
            raster.write_prob_sidecar(labels.labels * 0.8 + 0.1, probs[-1])
        cfg = tmp_path / "tree.cfg"
        cfg.write_text(SMALL_CFG + "\n[tree]\nmin_houses = 5\nmax_cycles = 1\n")
        labelled, label = [], tree.residential_label

        def counted(gt, centers, min_houses):
            labelled.append(gt)
            return label(gt, centers, min_houses)

        def scores(model, img, predict):
            centers = sampling.grid_centers((img.height, img.width))
            return centers, [(r * 7 + c * 3) % 101 / 100 for r, c in centers]

        monkeypatch.setattr(tree, "residential_label", counted)
        monkeypatch.setattr(cli, "_tile_patches", scores)
        out = tmp_path / "tree"
        assert run("tree-fit", "--config", cfg, "--model", trained_dir / "model.ckpt",
                   "--image", scene_dir / "scene_000.ppm", "--prob", probs[0],
                   "--gt", scene_dir / "labels_000.pgm",
                   "--image", scene_dir / "scene_001.ppm", "--prob", probs[1],
                   "--gt", scene_dir / "labels_001.pgm", "--out", out) == 0
        assert (out / "tree.json").exists()
        assert [gt.labels.tobytes() for gt in labelled] == [
            raster.read_label(scene_dir / f"labels_{idx}.pgm").labels.tobytes()
            for idx in ("000", "001")]

    def test_gt_extent_mismatch_data_error_before_any_forward(self, tmp_path, cfg_path,
                                                             trained_dir, monkeypatch, capsys):
        # the second image's ground truth is too small: no image, not even the
        # first, may pay for per-tile inference before that is reported
        img = small_image(2)
        raster.write_raster(img, tmp_path / "img.ppm")
        raster.write_prob_sidecar(np.full((36, 40), 0.5), tmp_path / "prob.lgprob")
        raster.write_label(raster.LabelMap(40, 36, np.zeros((36, 40), np.uint8)),
                           tmp_path / "gt.pgm")
        raster.write_label(raster.LabelMap(40, 32, np.zeros((32, 40), np.uint8)),
                           tmp_path / "short.pgm")

        def no_forward(*args, **kwargs):
            raise AssertionError("per-tile inference ran before the inputs were checked")

        monkeypatch.setattr(cli, "_tile_patches", no_forward)
        assert run("tree-fit", "--config", cfg_path, "--model", trained_dir / "model.ckpt",
                   "--image", tmp_path / "img.ppm", "--prob", tmp_path / "prob.lgprob",
                   "--gt", tmp_path / "gt.pgm",
                   "--image", tmp_path / "img.ppm", "--prob", tmp_path / "prob.lgprob",
                   "--gt", tmp_path / "short.pgm", "--out", tmp_path / "tree") == 2
        assert str(tmp_path / "short.pgm") in capsys.readouterr().err

    def test_undefined_gate_data_error_before_any_forward(self, tmp_path, scene_dir,
                                                          trained_dir, monkeypatch, capsys):
        # no tile window holds 100000 houses, so every tile with a house is
        # excluded and the label map alone shows that the gate is undefined
        labels = raster.read_label(scene_dir / "labels_000.pgm")
        raster.write_prob_sidecar(labels.labels * 0.8 + 0.1, tmp_path / "p.bin")
        cfg = tmp_path / "gate.cfg"
        cfg.write_text(SMALL_CFG + "\n[tree]\nmin_houses = 100000\n")

        def no_forward(*args, **kwargs):
            raise AssertionError("per-tile inference ran before the gate was checked")

        monkeypatch.setattr(cli, "_tile_patches", no_forward)
        out = tmp_path / "tree"
        assert run("tree-fit", "--config", cfg, "--model", trained_dir / "model.ckpt",
                   "--image", scene_dir / "scene_000.ppm", "--prob", tmp_path / "p.bin",
                   "--gt", scene_dir / "labels_000.pgm", "--out", out) == 2
        assert capsys.readouterr().err == ("lgseg tree-fit: validation tiles lack both "
                                           "residential classes; the gate threshold is "
                                           "undefined\n")
        assert not (out / "tree.json").exists()


def small_image(seed, height=36, width=40):
    """Ragged on both axes, so the grid has shifted margin tiles."""
    pixels = SplitMix64(seed).uniform(0, 256, (height, width, 3)).astype(np.uint8)
    return raster.Raster(width, height, 3, pixels)


def ablate_oracle(model, windows, blank):
    """The forward pass with each pathway named in `blank` fed a constant
    image, the per-channel mean of its own input window (the body of the
    former LgSegModel.ablate): the three ablate maps take 6 pathway passes."""
    if not blank:
        return model.forward(windows)
    if len(model.pathways) != 2:
        raise ValueError("pathway blanking requires a dual-pathway model")
    local = np.asarray(windows["local"], dtype=np.float64)
    global_ = np.asarray(windows["global"], dtype=np.float64)
    if local.shape != (3, 64, 64) or global_.shape != (3, 256, 256):
        raise ValueError(f"window shapes {local.shape}, {global_.shape} do not fit the pathways")
    if "local" in blank:
        local = np.broadcast_to(local.mean(axis=(1, 2))[:, None, None], local.shape).copy()
    if "global" in blank:
        global_ = np.broadcast_to(global_.mean(axis=(1, 2))[:, None, None], global_.shape).copy()
    return model.forward({"local": local, "global": global_})


# the blank sets of ablate's (full, local_only, global_only) maps
ABLATE_BLANKS = ((), ("global",), ("local",))


def ablate_tiles(model, img):
    """Grid centres and each tile's (full, local_only, global_only) patches."""
    return _tile_patches(model, img, lambda windows: cli._ablate_patches(model, windows))


def count_calls(monkeypatch, model, *names):
    """{method name: [one entry per call]} for the named methods of model."""
    calls = {}
    for name in names:
        method, calls[name] = getattr(model, name), []
        monkeypatch.setattr(model, name, lambda *a, _m=method, _c=calls[name], **k:
                            _c.append(1) or _m(*a, **k))
    return calls


def scramble_channels(x, seed):
    """x with the pixels of each channel permuted: channel means kept, content gone."""
    rng = np.random.default_rng(seed)
    return np.stack([rng.permutation(channel.reshape(-1)).reshape(channel.shape)
                     for channel in x])


class TestTilePatches:
    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("blank", [(), ("local",), ("global",)],
                             ids=["none", "local", "global"])
    def test_one_pass_per_grid_tile_any_thread_count(self, monkeypatch, blank, threads):
        # no blank: infer's one forward per tile.  Otherwise ablate's helper:
        # 4 pathway passes and 3 heads per tile give all three maps, each
        # byte-equal to the 6-pass oracle, and blanking `blank` changes a tile
        model = build_model(*parse_config_text(SMALL_CFG).model_specs(), seed=1)
        img = small_image(0)
        monkeypatch.setenv("LGSEG_THREADS", threads)
        calls = count_calls(monkeypatch, model, "forward", "embed", "head")
        if blank:
            centers, tiles = ablate_tiles(model, img)
            blanks = ABLATE_BLANKS
        else:
            centers, patches = _tile_patches(model, img, model.forward)
            tiles, blanks = [(patch,) for patch in patches], ((),)
        assert centers == grid_centers((36, 40))
        n = len(centers)
        assert {name: len(c) for name, c in calls.items()} == \
            ({"forward": 0, "embed": 4 * n, "head": 3 * n} if blank else
             {"forward": n, "embed": 2 * n, "head": n})
        for center, tile in zip(centers, tiles):
            windows = {"local": gather_window(img.pixels, center, 64),
                       "global": gather_window(img.pixels, center, 256)}
            for patch, blanked in zip(tile, blanks, strict=True):
                assert patch.tobytes() == ablate_oracle(model, windows, blanked).tobytes()
        if blank:
            index = ABLATE_BLANKS.index(blank)
            assert not all(np.array_equal(tile[0], tile[index]) for tile in tiles)

    @pytest.mark.parametrize("prefix", ["local", "global"])
    def test_blanked_window_depends_only_on_channel_means(self, monkeypatch, prefix):
        # scrambling the pixels of one pathway's windows leaves its blanked
        # output unchanged, and changes the output when nothing is blanked
        model = build_model(*parse_config_text(SMALL_CFG).model_specs(), seed=3)
        img = small_image(4)
        index = ABLATE_BLANKS.index((prefix,))
        _, plain = _tile_patches(model, img, model.forward)
        blanked = [tile[index] for tile in ablate_tiles(model, img)[1]]
        width = model.pathways[prefix].input_width
        cut = sampling.image_window
        monkeypatch.setattr(sampling, "image_window", lambda scene, center, w: (
            scramble_channels(cut(scene, center, w), seed=center[0] * 1000 + center[1])
            if w == width else cut(scene, center, w)))
        _, scrambled_plain = _tile_patches(model, img, model.forward)
        scrambled_blanked = [tile[index] for tile in ablate_tiles(model, img)[1]]
        for a, b in zip(blanked, scrambled_blanked):
            assert np.allclose(a, b, rtol=0, atol=1e-12)
        assert not all(np.array_equal(a, b) for a, b in zip(plain, scrambled_plain))

    def test_blank_local_and_blank_global_differ(self):
        model = build_model(*parse_config_text(SMALL_CFG).model_specs(), seed=3)
        _, tiles = ablate_tiles(model, small_image(5))
        local_blanked = [tile[ABLATE_BLANKS.index(("local",))] for tile in tiles]
        global_blanked = [tile[ABLATE_BLANKS.index(("global",))] for tile in tiles]
        assert not all(np.array_equal(a, b) for a, b in zip(local_blanked, global_blanked))

    def test_tree_fit_ra_is_per_tile_patch_mean(self, tmp_path, cfg_path, trained_dir,
                                                 monkeypatch):
        img = small_image(1)
        raster.write_raster(img, tmp_path / "img.ppm")
        raster.write_prob_sidecar(np.full((36, 40), 0.5), tmp_path / "prob.lgprob")
        raster.write_label(raster.LabelMap(40, 36, np.zeros((36, 40), np.uint8)),
                           tmp_path / "gt.pgm")
        seen = []

        def fake_fit(validation, **kwargs):
            seen.extend(validation)
            return tree.FitResult(tree.TreeThresholds(0.5, 0.5, 0.5), [0.0], True)

        # one 36x40 image has a single tile class, so the gate check that
        # comes before the forwards is faked along with the fit
        monkeypatch.setattr(tree, "residential_tiles", lambda gts, min_houses: None)
        monkeypatch.setattr(tree, "fit_thresholds", fake_fit)
        monkeypatch.setenv("LGSEG_THREADS", "2")
        assert run("tree-fit", "--config", cfg_path, "--model", trained_dir / "model.ckpt",
                   "--image", tmp_path / "img.ppm", "--prob", tmp_path / "prob.lgprob",
                   "--gt", tmp_path / "gt.pgm", "--out", tmp_path / "tree") == 0
        (inp, _), = seen
        model = _load_model(parse_config_text(SMALL_CFG), trained_dir / "model.ckpt")
        _, patches = _tile_patches(model, img, model.forward)
        assert inp.ra_scores.shape == (3, 3)
        assert inp.ra_scores.ravel().tolist() == [float(p.mean()) for p in patches]


class TestCount:
    def test_tallies_reproduce_reference_metrics(self, tmp_path):
        tallies = tmp_path / "tallies.json"
        tallies.write_text(json.dumps({"tp": 106, "fp": 18, "fn": 33, "residential": 13}))
        out = tmp_path / "count"
        assert run("count", "--tallies", tallies, "--out", out) == 0
        report = json.loads((out / "count_report.json").read_text())
        assert round(report["precision"], 2) == 0.88
        assert round(report["recall"], 2) == 0.80

    def test_pipeline_on_clean_probabilities(self, tmp_path, scene_dir):
        labels = raster.read_label(scene_dir / "labels_000.pgm")
        prob_path = tmp_path / "clean.lgprob"
        raster.write_prob_sidecar(labels.labels.astype(float) * 0.9, prob_path)
        out = tmp_path / "count"
        assert run("count", "--prob", prob_path, "--threshold", 0.5,
                   "--boxes", scene_dir / "boxes_000.csv", "--out", out) == 0
        report = json.loads((out / "count_report.json").read_text())
        assert report["fp"] == 0 and report["fn"] == 0
        assert report["machine_count"] == report["human_count"]
        detections = (out / "detections.csv").read_text().splitlines()
        assert len(detections) == report["machine_count"] + 1

    @pytest.mark.parametrize("radius", [40, 60])
    def test_square_larger_than_the_map_twice_over_in_a_child_process(self, tmp_path, radius):
        # an 81x81 or 121x121 square, two passes, on a 64x256 map, in a child
        # process held to 1 GB of address space: SciPy's binary_erosion
        # corrupted the heap here (a crash that would take the test run with
        # it), and at radius 60 held 921 MiB
        prob = np.full((64, 256), 0.9)
        prob[::7, ::5] = 0.1
        raster.write_prob_sidecar(prob, tmp_path / "p.lgprob")
        cfg = tmp_path / "erode.cfg"
        cfg.write_text(f"[count]\nerode_radius = {radius}\nerode_iterations = 2\n")
        out = tmp_path / "count"
        path = [str(Path(lgseg.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(
            os.pathsep)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                   OPENBLAS_NUM_THREADS="1")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9))

        done = subprocess.run([sys.executable, "-m", "lgseg", "count", "--config", str(cfg),
                               "--prob", str(tmp_path / "p.lgprob"), "--out", str(out)],
                              capture_output=True, text=True, env=env, preexec_fn=limit,
                              timeout=300)
        assert (done.returncode, done.stderr) == (0, "")
        assert (out / "detections.csv").read_text().splitlines() == \
            ["id,row_min,col_min,row_max,col_max"]

    @pytest.mark.parametrize("text", ['[1, 2, 3, 4]', '{"tp": 1, "fp": null, "fn": 0, '
                                      '"residential": 0}', '"tp"',
                                      '{"tp": 1.7, "fp": 1, "fn": 0, "residential": 0}',
                                      '{"tp": 1, "fp": true, "fn": 0, "residential": 0}',
                                      '{"tp": 1, "fp": 1, "fn": "0", "residential": 0}',
                                      '{"tp": 1, "fp": 1, "fn": 0, "residential": 2.0}',
                                      '{"tp": 1, "fp": 1, "fn": 0}',
                                      '{"tp": 1, "fp": -1, "fn": 0, "residential": 0}'])
    def test_malformed_tallies_data_error(self, tmp_path, text, capsys):
        tallies = tmp_path / "tallies.json"
        tallies.write_text(text)
        assert run("count", "--tallies", tallies, "--out", tmp_path / "count") == 2
        assert capsys.readouterr().err.startswith(f"lgseg count: {tallies}: ")

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.5])
    def test_bad_probabilities_data_error(self, tmp_path, bad):
        prob = np.full((32, 32), 0.2)
        prob[4:9, 4:9] = 0.8
        prob[20, 20] = bad
        prob_path = tmp_path / "bad.lgprob"
        raster.write_prob_sidecar(prob, prob_path)
        assert run("count", "--prob", prob_path, "--out", tmp_path / "count") == 2

    def test_empty_prob_map_data_error(self, tmp_path):
        prob_path = tmp_path / "empty.lgprob"
        prob_path.write_bytes(b"LGPROB1\x00" + struct.pack("<II", 0, 32))
        assert run("count", "--prob", prob_path, "--out", tmp_path / "count") == 2

    @pytest.mark.parametrize("row", ["0,1,2,3", "0,-2,3,4,5"])
    def test_bad_boxes_data_error(self, tmp_path, row):
        boxes = tmp_path / "boxes.csv"
        boxes.write_text("id,row_min,col_min,row_max,col_max\n" + row + "\n")
        prob_path = tmp_path / "p.lgprob"
        raster.write_prob_sidecar(np.full((32, 32), 0.5), prob_path)
        assert run("count", "--prob", prob_path, "--boxes", boxes,
                   "--out", tmp_path / "count") == 2

    def test_box_outside_map_data_error(self, tmp_path, capsys):
        boxes = tmp_path / "boxes.csv"
        write_boxes_csv([DetectionBox(2, 2, 6, 6), DetectionBox(100, 100, 120, 120)], boxes)
        prob_path = tmp_path / "p.lgprob"
        raster.write_prob_sidecar(np.full((32, 32), 0.5), prob_path)
        out = tmp_path / "count"
        assert run("count", "--prob", prob_path, "--boxes", boxes, "--out", out) == 2
        assert str(boxes) in capsys.readouterr().err
        assert not (out / "count_report.json").exists()

    @pytest.mark.parametrize("flag", ["--prob", "--boxes", "--threshold"])
    def test_tallies_with_map_inputs_usage_error(self, tmp_path, flag):
        tallies = tmp_path / "tallies.json"
        tallies.write_text(json.dumps({"tp": 1, "fp": 0, "fn": 0, "residential": 0}))
        prob_path = tmp_path / "p.lgprob"
        raster.write_prob_sidecar(np.full((32, 32), 0.5), prob_path)
        boxes = tmp_path / "boxes.csv"
        write_boxes_csv([DetectionBox(2, 2, 6, 6)], boxes)
        value = {"--prob": prob_path, "--boxes": boxes, "--threshold": 0.5}[flag]
        out = tmp_path / "count"
        assert run("count", "--tallies", tallies, flag, value, "--out", out) == 1
        assert not (out / "count_report.json").exists()

    def test_count_without_inputs_usage_error(self, tmp_path):
        assert run("count", "--out", tmp_path / "c") == 1


class TestDispatch:
    def test_calls_in_one_process_match_each_call_made_alone(self, tmp_path, capsys,
                                                              scene_dir):
        # main builds its parser once per process: no --pred/--gt list or
        # default may leak from one call into the next
        preds, gts = [], []
        for i in range(2):
            gt = scene_dir / f"labels_00{i}.pgm"
            pred = tmp_path / f"pred_{i}.lgprob"
            raster.write_prob_sidecar(raster.read_label(gt).labels * 0.6 + 0.2 * i, pred)
            preds.append(pred)
            gts.append(gt)

        def calls(out):
            return [("eval", "--pred", preds[0], "--out", out / "usage"),  # no --gt: exit 1
                    ("eval", "--pred", preds[0], "--gt", gts[0], "--pred", preds[1],
                     "--gt", gts[1], "--out", out / "eval_two"),
                    ("eval", "--pred", preds[1], "--gt", gts[1], "--out", out / "eval_one"),
                    ("count", "--prob", preds[0], "--boxes", scene_dir / "boxes_000.csv",
                     "--out", out / "count")]

        def outcome(argv):
            code = run(*argv)
            out = argv[-1]
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} \
                if out.exists() else None
            return code, capsys.readouterr().err, files

        cli._parser.cache_clear()
        together = [outcome(argv) for argv in calls(tmp_path / "together")]
        assert cli._parser.cache_info().misses == 1
        alone = []
        for argv in calls(tmp_path / "alone"):
            cli._parser.cache_clear()  # a fresh parser, as in a new process
            alone.append(outcome(argv))
        assert [code for code, _, _ in together] == [1, 0, 0, 0]
        assert "the following arguments are required: --gt" in together[0][1]
        assert together == alone
        assert json.loads(together[2][2]["max_f.json"])["images"] == 1

    def test_unknown_command_usage_error(self):
        assert run("frobnicate", "--out", "/tmp/x") == 1

    def test_missing_required_flag_usage_error(self):
        assert run("gen") == 1

    def test_bad_config_usage_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[train]\nepochs = maybe\n")
        assert run("gen", "--config", bad, "--out", tmp_path / "g") == 1

    def test_tree_grid_step_above_half_usage_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[tree]\ngrid_step = 1\n")
        assert run("tree-fit", "--config", bad, "--model", tmp_path / "m.ckpt",
                   "--image", tmp_path / "i.ppm", "--prob", tmp_path / "p.lgprob",
                   "--gt", tmp_path / "g.pgm", "--out", tmp_path / "t") == 1

    @pytest.mark.parametrize("flags", [("train", "--epochs", 0),
                                       ("count", "--threshold", 1.5),
                                       ("count", "--threshold", "nan")])
    def test_bad_flag_value_usage_error_before_any_work(self, tmp_path, cfg_path,
                                                        scene_dir, flags):
        prob_path = tmp_path / "p.lgprob"
        raster.write_prob_sidecar(np.full((32, 32), 0.5), prob_path)
        inputs = ("--data", scene_dir) if flags[0] == "train" else ("--prob", prob_path)
        out = tmp_path / "out"
        assert run(*flags, "--config", cfg_path, *inputs, "--out", out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("gen", "[scene]\nwidth = 100\n"),
        ("gen", "[scene]\nhouse_px_min = 2\n"),
        ("gen", "[scene]\ncluster_radius = 300\n"),  # no centre 316 px from every edge
        ("train", "[model]\nfusion_hidden = abc\n"),
        ("train", "[model]\nfusion_hidden = 8,,4\n"),
        ("train", "[model]\nlocal_layers = pool128\n"),
        ("gen", "[model]\nlocal_layers = conv3x16s0\n"),
    ])
    def test_config_value_library_rejects_usage_error_before_any_work(self, tmp_path, scene_dir,
                                                                      command, text, capsys):
        bad = tmp_path / "bad.cfg"
        # a tiny train, so that a key that slips through fails in seconds
        bad.write_text(text + ("[train]\nsamples_per_scene = 1\nepochs = 1\n"
                               if command == "train" else ""))
        inputs = ("--data", scene_dir) if command == "train" else ()
        out = tmp_path / "out"
        assert run(command, "--config", bad, *inputs, "--out", out) == 1
        assert not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"lgseg {command}: {bad}: ")

    @pytest.mark.parametrize("command", ["infer", "ablate", "tree-fit", "train"])
    def test_single_channel_image_is_data_error_before_any_forward(
            self, tmp_path, capsys, cfg_path, trained_dir, monkeypatch, command):
        # a P5 file under a .ppm name; the pathways take 3 channels
        img = small_image(4)
        image = tmp_path / "scene_000.ppm"
        raster.write_raster(raster.Raster(img.width, img.height, 1, img.pixels[..., :1].copy()),
                            image)
        raster.write_label(raster.LabelMap(img.width, img.height,
                                           np.zeros((img.height, img.width), np.uint8)),
                           tmp_path / "labels_000.pgm")
        raster.write_prob_sidecar(np.full((img.height, img.width), 0.5), tmp_path / "p.lgprob")

        def no_forward(*args, **kwargs):
            raise AssertionError("a forward pass ran on a single-channel image")

        monkeypatch.setattr(cli, "_tile_patches", no_forward)
        monkeypatch.setattr(cli, "train", no_forward)
        inputs = ("--model", trained_dir / "model.ckpt", "--image", image)
        if command == "tree-fit":
            inputs += ("--prob", tmp_path / "p.lgprob", "--gt", tmp_path / "labels_000.pgm")
        elif command == "train":
            inputs = ("--data", tmp_path)
        assert run(command, "--config", cfg_path, *inputs, "--out", tmp_path / "out") == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"lgseg {command}: {image}: need a 3-channel (P6) image, got 1 channel"]
        assert not list(tmp_path.rglob("*_run.json"))

    @pytest.mark.parametrize("command, flag", [("eval", "--gt"), ("eval", "--pred"),
                                               ("count", "--prob"), ("tree-fit", "--gt")])
    def test_three_channel_map_is_data_error_naming_it(self, tmp_path, capsys, cfg_path,
                                                        trained_dir, monkeypatch, command, flag):
        # the scene image itself where a 1-channel label or probability map belongs
        img = small_image(4)
        image = tmp_path / "scene_000.ppm"
        raster.write_raster(img, image)
        raster.write_label(raster.LabelMap(img.width, img.height,
                                           np.zeros((img.height, img.width), np.uint8)),
                           tmp_path / "labels_000.pgm")
        raster.write_prob_sidecar(np.full((img.height, img.width), 0.5), tmp_path / "p.lgprob")
        inputs = {"--model": trained_dir / "model.ckpt", "--image": image,
                  "--prob": tmp_path / "p.lgprob", "--pred": tmp_path / "p.lgprob",
                  "--gt": tmp_path / "labels_000.pgm", flag: image}
        flags = {"eval": ("--pred", "--gt"), "count": ("--prob",),
                 "tree-fit": ("--model", "--image", "--prob", "--gt")}[command]

        def no_forward(*args, **kwargs):
            raise AssertionError("a forward pass ran before the inputs were checked")

        monkeypatch.setattr(cli, "_tile_patches", no_forward)
        argv = [a for f in flags for a in (f, inputs[f])]
        assert run(command, "--config", cfg_path, *argv, "--out", tmp_path / "out") == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"lgseg {command}: {image}: need a 1-channel (P5) image, got 3 channels"]
        assert not list(tmp_path.rglob("*_run.json"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5])
    @pytest.mark.parametrize("command", ["eval", "count", "tree-fit"])
    def test_bad_probability_sidecar_is_data_error_naming_it(self, tmp_path, capsys, cfg_path,
                                                             trained_dir, monkeypatch,
                                                             command, bad):
        img = small_image(2)
        raster.write_raster(img, tmp_path / "img.ppm")
        raster.write_label(raster.LabelMap(40, 36, np.zeros((36, 40), np.uint8)),
                           tmp_path / "gt.pgm")
        prob = np.full((36, 40), 0.5)
        prob[20, 30] = bad
        prob_path = tmp_path / "prob.lgprob"
        raster.write_prob_sidecar(prob, prob_path)

        def no_forward(*args, **kwargs):
            raise AssertionError("per-tile inference ran before the inputs were checked")

        monkeypatch.setattr(cli, "_tile_patches", no_forward)
        argv = {"eval": ("--pred", prob_path, "--gt", tmp_path / "gt.pgm"),
                "count": ("--prob", prob_path),
                "tree-fit": ("--model", trained_dir / "model.ckpt", "--image", tmp_path / "img.ppm",
                             "--prob", prob_path, "--gt", tmp_path / "gt.pgm")}[command]
        assert run(command, "--config", cfg_path, *argv, "--out", tmp_path / "out") == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"lgseg {command}: {prob_path}: probabilities must be finite "
                         "and lie in [0, 1]"]
        assert not list(tmp_path.rglob("*_run.json"))

    @pytest.mark.parametrize("fault", ["config", "checkpoint", "boxes", "boxes-field",
                                       "tallies-utf8", "tallies-json", "tallies-deep"])
    def test_undecodable_file_names_itself(self, tmp_path, capsys, cfg_path, scene_dir,
                                           trained_dir, fault):
        # a config is a usage error (exit 1); every other input is data (exit 2)
        bad = tmp_path / "bad"
        prob_path = tmp_path / "p.lgprob"
        raster.write_prob_sidecar(np.full((32, 32), 0.5), prob_path)
        if fault == "config":
            bad.write_bytes(b"\xff\xfe[\x00s\x00]\x00")
            command, argv, code = "gen", ("--config", bad), 1
        elif fault == "checkpoint":
            # a valid checkpoint, then one tensor whose 2-byte name is not UTF-8
            bad.write_bytes((trained_dir / "model.ckpt").read_bytes() + struct.pack("<I", 2)
                            + b"\xff\xfe" + struct.pack("<2I", 1, 1) + struct.pack("<d", 0.0))
            command, code = "infer", 2
            argv = ("--config", cfg_path, "--model", bad, "--image", scene_dir / "scene_000.ppm")
        elif fault.startswith("boxes"):
            # a byte that is not UTF-8, or a field over csv.field_size_limit()
            row = b"0,1,2,3,\xff" if fault == "boxes" else b"0,1,2,3," + b"4" * (1 << 17) + b"0"
            bad.write_bytes(b"id,row_min,col_min,row_max,col_max\n" + row + b"\n")
            command, argv, code = "count", ("--prob", prob_path, "--boxes", bad), 2
        else:
            bad.write_bytes({"tallies-utf8": b'{"tp": \xff}', "tallies-json": b'{"tp": 1,',
                             "tallies-deep": b"[" * 100_000 + b"]" * 100_000}[fault])
            command, argv, code = "count", ("--tallies", bad), 2
        assert run(command, *argv, "--out", tmp_path / "out") == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"lgseg {command}: {bad}: ")
        if fault == "boxes-field":
            assert lines[0].startswith(f"lgseg count: {bad}: line 2: field larger than")
        assert not list(tmp_path.rglob("*_run.json"))

    def test_missing_image_data_error(self, tmp_path, cfg_path, trained_dir):
        assert run("infer", "--config", cfg_path, "--model", trained_dir / "model.ckpt",
                   "--image", tmp_path / "absent.ppm", "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize("command", ["count", "infer", "gen"])
    def test_file_system_error_is_data_error(self, tmp_path, capsys, cfg_path, trained_dir,
                                             command):
        # a directory where a file is read, or a file where --out wants a directory
        a_dir = tmp_path / "a_dir"
        a_dir.mkdir()
        out = tmp_path / "out"
        if command == "gen":
            out.write_text("a file\n")
            argv, named = ("--out", out), out
        elif command == "count":
            argv, named = ("--prob", a_dir, "--out", out), a_dir
        else:
            argv = ("--model", trained_dir / "model.ckpt", "--image", a_dir, "--out", out)
            named = a_dir
        assert run(command, "--config", cfg_path, *argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and str(named) in lines[0]
        assert not list(tmp_path.rglob("*_run.json"))
