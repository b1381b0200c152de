"""Config parsing and layer-DSL tests."""

import pytest

from lgseg.config import (ConfigError, default_config, parse_config,
                          parse_config_text, parse_layers)
from lgseg.evaluation import threshold_grid
from lgseg.network import (FUSION_HIDDEN, GLOBAL_PATHWAY, LOCAL_PATHWAY, ConvSpec,
                           PoolSpec, ReluSpec)
from lgseg.synth import SceneSpec


class TestDefaults:
    def test_empty_text_gives_paper_defaults(self):
        cfg = parse_config_text("")
        assert cfg.get("train", "batch_size") == 10
        assert cfg.get("train", "momentum") == 0.9
        assert cfg.get("train", "learning_rate") == 1e-4
        assert cfg.get("train", "weight_decay") == 5e-4
        assert cfg.get("eval", "rho") == 3

    def test_empty_file_round_trip(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("")
        cfg = parse_config(p)
        assert cfg.get("count", "iou_threshold") == 0.5
        assert cfg.raw_text == ""

    def test_default_model_specs_compose(self):
        local, global_, hidden = default_config().model_specs()
        assert local.flat_size() == 64 * 8 * 8
        assert global_.flat_size() == 32 * 8 * 8
        assert hidden == (512, 512)

    def test_defaults_build_the_library_default_model_and_scene(self):
        cfg = default_config()
        assert cfg.model_specs() == (LOCAL_PATHWAY, GLOBAL_PATHWAY, FUSION_HIDDEN)
        for seed in (0, 7, 2**64 - 1):
            assert cfg.scene_spec(seed=seed) == SceneSpec(seed=seed)


class TestParsing:
    def test_sections_and_values(self):
        cfg = parse_config_text("[train]\nepochs = 5\nseed = 9\n[eval]\nrho = 2\n")
        assert cfg.get("train", "epochs") == 5
        assert cfg.get("train", "seed") == 9
        assert cfg.get("eval", "rho") == 2

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# header\n[train]\nepochs = 5  # inline\n\n")
        assert cfg.get("train", "epochs") == 5

    def test_sectionless_unique_key_resolves(self):
        cfg = parse_config_text("rho = 1\n")
        assert cfg.get("eval", "rho") == 1

    def test_ambiguous_sectionless_key_rejected(self, monkeypatch):
        # every key is currently unique across sections, so fake a collision
        import lgseg.config as config_module
        schema = {k: dict(v) for k, v in config_module._SCHEMA.items()}
        schema["tree"]["rho"] = ("int", 3, None)
        monkeypatch.setattr(config_module, "_SCHEMA", schema)
        with pytest.raises(ConfigError, match="ambiguous"):
            parse_config_text("rho = 1\n")

    def test_duplicate_key_rejected_with_line_numbers(self):
        text = "[train]\nmomentum = 0.9\nepochs = 3\nmomentum = 0.8\n"
        with pytest.raises(ConfigError, match=r"lines 2 and 4"):
            parse_config_text(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'turbo'"):
            parse_config_text("[train]\nturbo = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[wat\]"):
            parse_config_text("[wat]\nx = 1\n")

    def test_negative_rho_rejected(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_config_text("[eval]\nrho = -1\n")

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="expects a int"):
            parse_config_text("[train]\nepochs = soon\n")

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("[train]\nepochs\n")

    @pytest.mark.parametrize("value", ["1", "0.75", "0", "-0.01"])
    def test_tree_grid_step_range(self, value):
        # a step above 0.5 leaves no threshold strictly inside (0, 1)
        with pytest.raises(ConfigError, match=r"<config>:3: key 'grid_step': must lie in \(0, 0.5\]"):
            parse_config_text(f"[tree]\nmin_houses = 5\ngrid_step = {value}\n")

    def test_tree_and_eval_steps_share_grid(self):
        cfg = parse_config_text("[eval]\nthreshold_step = 0.5\n[tree]\ngrid_step = 0.5\n")
        assert cfg.eval_thresholds() == threshold_grid(cfg.get("tree", "grid_step")) == (0.5,)

    def test_cross_key_range_check(self):
        with pytest.raises(ConfigError, match="houses_max"):
            parse_config_text("[scene]\nhouses_min = 10\nhouses_max = 5\n")

    def test_raw_text_preserved_verbatim(self):
        text = "# provenance\n[eval]\nrho = 2\n"
        assert parse_config_text(text).raw_text == text

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")


class TestLayerDsl:
    def test_default_local_layers(self):
        layers = parse_layers("conv3x16, relu, pool2")
        assert layers == (ConvSpec(16, 3), ReluSpec(), PoolSpec(2))

    def test_stride_and_pad_suffixes(self):
        layers = parse_layers("conv7x16s2p3, pool4s2")
        assert layers[0] == ConvSpec(16, 7, stride=2, pad=3)
        assert layers[1] == PoolSpec(4, stride=2)

    def test_unknown_token_rejected(self):
        with pytest.raises(ConfigError):
            parse_layers("conv3x16, swish")

    def test_variant_specs(self):
        cfg = parse_config_text("[model]\nvariant = local\n")
        local, global_, _ = cfg.model_specs()
        assert local is not None and global_ is None
        cfg = parse_config_text("[model]\nvariant = global\n")
        local, global_, _ = cfg.model_specs()
        assert local is None and global_ is not None

    def test_custom_fusion_hidden(self):
        cfg = parse_config_text("[model]\nfusion_hidden = 64, 32\n")
        assert cfg.model_specs()[2] == (64, 32)
