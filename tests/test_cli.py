"""End-to-end command tests on compact configurations."""

import json

import numpy as np
import pytest

from lgseg import raster, tree
from lgseg.cli import _load_model, _tile_patches, dispatch
from lgseg.config import parse_config_text
from lgseg.counting import write_boxes_csv, DetectionBox
from lgseg.engine import save_checkpoint
from lgseg.network import Blank, build_model
from lgseg.rng import SplitMix64
from lgseg.sampling import grid_centers, image_window

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
    return dispatch([str(a) for a in argv])


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

    def test_missing_data_dir_is_data_error(self, tmp_path, cfg_path):
        assert run("train", "--config", cfg_path, "--data", tmp_path / "none",
                   "--out", tmp_path / "out") == 2


class TestInfer:
    def test_prob_map_artifacts(self, tmp_path, cfg_path, scene_dir, trained_dir):
        out = tmp_path / "infer"
        assert run("infer", "--config", cfg_path, "--model", trained_dir / "model.ckpt",
                   "--image", scene_dir / "scene_000.ppm", "--out", out, "--sidecar") == 0
        prob = raster.read_prob_sidecar(out / "scene_000_prob.lgprob")
        assert prob.shape == (512, 512)
        assert prob.min() > 0.0 and prob.max() < 1.0
        quantised = raster.raster_to_prob(raster.read_raster(out / "scene_000_prob.pgm"))
        assert np.abs(quantised - prob).max() <= 0.5 / 255 + 1e-12

    def test_thread_count_does_not_change_bytes(self, tmp_path, cfg_path, scene_dir,
                                                trained_dir, monkeypatch):
        out1, out4 = tmp_path / "t1", tmp_path / "t4"
        assert run("infer", "--config", cfg_path, "--model", trained_dir / "model.ckpt",
                   "--image", scene_dir / "scene_000.ppm", "--out", out1, "--sidecar") == 0
        monkeypatch.setenv("LGSEG_THREADS", "4")
        assert run("infer", "--config", cfg_path, "--model", trained_dir / "model.ckpt",
                   "--image", scene_dir / "scene_000.ppm", "--out", out4, "--sidecar") == 0
        assert (out1 / "scene_000_prob.lgprob").read_bytes() == \
            (out4 / "scene_000_prob.lgprob").read_bytes()

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

    def test_mismatched_pair_counts_usage_error(self, tmp_path, cfg_path, scene_dir):
        assert run("eval", "--config", cfg_path, "--pred", tmp_path / "a.lgprob",
                   "--gt", scene_dir / "labels_000.pgm",
                   "--gt", scene_dir / "labels_001.pgm", "--out", tmp_path / "e") == 1


class TestAblate:
    def test_three_maps_and_full_matches_infer(self, tmp_path, cfg_path, scene_dir,
                                               trained_dir):
        out = tmp_path / "ablate"
        assert run("ablate", "--config", cfg_path, "--model", trained_dir / "model.ckpt",
                   "--image", scene_dir / "scene_000.ppm", "--out", out) == 0
        full = raster.read_prob_sidecar(out / "scene_000_full.lgprob")
        local_only = raster.read_prob_sidecar(out / "scene_000_local_only.lgprob")
        global_only = raster.read_prob_sidecar(out / "scene_000_global_only.lgprob")
        assert not np.array_equal(local_only, global_only)
        infer_out = tmp_path / "infer"
        assert run("infer", "--config", cfg_path, "--model", trained_dir / "model.ckpt",
                   "--image", scene_dir / "scene_000.ppm", "--out", infer_out,
                   "--sidecar") == 0
        assert np.array_equal(full, raster.read_prob_sidecar(infer_out / "scene_000_prob.lgprob"))


class TestTreeFit:
    def test_fit_writes_thresholds(self, tmp_path, cfg_path, scene_dir, trained_dir):
        # L-Seg-style probs straight from the labels plus a confident smudge
        out = tmp_path / "tree"
        probs = []
        for idx in ("000", "001"):
            labels = raster.read_label(scene_dir / f"labels_{idx}.pgm")
            prob = labels.labels.astype(float) * 0.8 + 0.05
            prob[30:40, 450:460] = 0.95  # hallucination far from clusters
            p = tmp_path / f"prob_{idx}.lgprob"
            raster.write_prob_sidecar(prob, p)
            probs.append(p)
        cfg2 = tmp_path / "tree.cfg"
        cfg2.write_text(SMALL_CFG + "\n[tree]\nmin_houses = 5\n")
        code = run("tree-fit", "--config", cfg2, "--model", trained_dir / "model.ckpt",
                   "--image", scene_dir / "scene_000.ppm", "--prob", probs[0],
                   "--gt", scene_dir / "labels_000.pgm",
                   "--image", scene_dir / "scene_001.ppm", "--prob", probs[1],
                   "--gt", scene_dir / "labels_001.pgm",
                   "--out", out)
        assert code == 0
        fitted = json.loads((out / "tree.json").read_text())
        assert set(fitted) >= {"t1", "t2", "t3", "f_trace", "leaf_order_ok"}
        trace = fitted["f_trace"]
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def small_image(seed, height=36, width=40):
    """Ragged on both axes, so the grid has shifted margin tiles."""
    pixels = SplitMix64(seed).uniform(0, 256, (height, width, 3)).astype(np.uint8)
    return raster.Raster(width, height, 3, pixels)


class TestTilePatches:
    @pytest.mark.parametrize("blank", [Blank.NONE, Blank.LOCAL])
    def test_one_pass_per_grid_tile_any_thread_count(self, monkeypatch, blank):
        model = build_model(*parse_config_text(SMALL_CFG).model_specs(), seed=1)
        img = small_image(0)
        monkeypatch.setenv("LGSEG_THREADS", "3")
        centers, patches = _tile_patches(model, img, blank)
        assert centers == grid_centers((36, 40))
        for center, patch in zip(centers, patches):
            want = model.ablate(image_window(img.pixels, center, 64),
                                image_window(img.pixels, center, 256), blank)
            assert np.array_equal(patch, want)

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

        monkeypatch.setattr(tree, "fit_thresholds", fake_fit)
        monkeypatch.setenv("LGSEG_THREADS", "2")
        assert run("tree-fit", "--config", cfg_path, "--model", trained_dir / "model.ckpt",
                   "--image", tmp_path / "img.ppm", "--prob", tmp_path / "prob.lgprob",
                   "--gt", tmp_path / "gt.pgm", "--out", tmp_path / "tree") == 0
        (inp, _), = seen
        model = _load_model(parse_config_text(SMALL_CFG), trained_dir / "model.ckpt")
        _, patches = _tile_patches(model, img)
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

    @pytest.mark.parametrize("text", ['[1, 2, 3, 4]', '{"tp": 1, "fp": null, "fn": 0, '
                                      '"residential": 0}', '"tp"',
                                      '{"tp": 1.7, "fp": 1, "fn": 0, "residential": 0}',
                                      '{"tp": 1, "fp": true, "fn": 0, "residential": 0}',
                                      '{"tp": 1, "fp": 1, "fn": "0", "residential": 0}',
                                      '{"tp": 1, "fp": 1, "fn": 0, "residential": 2.0}',
                                      '{"tp": 1, "fp": 1, "fn": 0}'])
    def test_malformed_tallies_data_error(self, tmp_path, text):
        tallies = tmp_path / "tallies.json"
        tallies.write_text(text)
        assert run("count", "--tallies", tallies, "--out", tmp_path / "count") == 2

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.5])
    def test_bad_probabilities_data_error(self, tmp_path, bad):
        prob = np.full((32, 32), 0.2)
        prob[4:9, 4:9] = 0.8
        prob[20, 20] = bad
        prob_path = tmp_path / "bad.lgprob"
        raster.write_prob_sidecar(prob, prob_path)
        assert run("count", "--prob", prob_path, "--out", tmp_path / "count") == 2

    def test_count_without_inputs_usage_error(self, tmp_path):
        assert run("count", "--out", tmp_path / "c") == 1


class TestDispatch:
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

    def test_missing_image_data_error(self, tmp_path, cfg_path, trained_dir):
        assert run("infer", "--config", cfg_path, "--model", trained_dir / "model.ckpt",
                   "--image", tmp_path / "absent.ppm", "--out", tmp_path / "o") == 2
