"""Config parsing and layer-DSL tests."""

import re

import pytest

from lgseg.config import (_SCHEMA, ConfigError, default_config, parse_config,
                          parse_config_text, parse_layers)
from lgseg.evaluation import threshold_grid
from lgseg.network import (FUSION_HIDDEN, GLOBAL_PATHWAY, LOCAL_PATHWAY, ConvSpec,
                           PoolSpec, ReluSpec, TrainConfig)
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
        pathways, hidden = default_config().model_specs()
        assert list(pathways) == ["local", "global"]
        assert pathways["local"].flat_size() == 64 * 8 * 8
        assert pathways["global"].flat_size() == 32 * 8 * 8
        assert hidden == (512, 512)

    def test_defaults_build_the_library_default_model_and_scene(self):
        cfg = default_config()
        assert cfg.model_specs() == ({"local": LOCAL_PATHWAY, "global": GLOBAL_PATHWAY},
                                     FUSION_HIDDEN)
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

    def test_every_key_name_is_unique_across_sections(self):
        # a sectionless key resolves to the one section that has it
        names = [key for keys in _SCHEMA.values() for key in keys]
        assert len(names) == len(set(names))

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

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("section, key", [(section, key)
                                              for section, keys in _SCHEMA.items()
                                              for key, spec in keys.items()
                                              if spec[0] == "float"])
    def test_non_finite_float_rejected_with_line_number(self, section, key, raw):
        # rejected as it is read, before any validator or library check
        with pytest.raises(ConfigError,
                           match=rf"^<config>:3: key '{key}' expects a finite float, got '{raw}'$"):
            parse_config_text(f"# non-finite\n[{section}]\n{key} = {raw}\n")

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

    @pytest.mark.parametrize("text, message", [
        ("[scene]\nwidth = 100\n", "scene extents must be at least 512"),
        ("[scene]\nhouse_px_min = 2\n", "house size range is empty or below 4 px"),
        ("[model]\nfusion_hidden = abc\n", r"\[model\] fusion_hidden: invalid literal"),
        ("[model]\nfusion_hidden = 8, 0\n", r"\[model\] fusion_hidden: widths must be positive"),
        # an empty item is not dropped: "," would build a head with no hidden layer
        ("[model]\nfusion_hidden = ,\n", r"\[model\] fusion_hidden: invalid literal"),
        ("[model]\nfusion_hidden = 8,,4\n", r"\[model\] fusion_hidden: invalid literal"),
        ("[model]\nlocal_layers = pool128\n", r"\[model\] local_layers: pool window 128"),
        ("[model]\nlocal_layers = conv3x16s0\n",
         r"\[model\] local_layers: conv window 3 needs kernel and stride >= 1 .*stride 0"),
        ("[model]\nlocal_layers = pool0\n", r"\[model\] local_layers: pool window 0 needs kernel"),
        ("[model]\nlocal_layers = pool2s0\n",
         r"\[model\] local_layers: pool window 2 needs kernel and stride >= 1 .*stride 0"),
        ("[model]\nlocal_layers = conv0x16\n",
         r"\[model\] local_layers: conv window 0 needs kernel"),
        ("[model]\nlocal_layers = conv3x0, relu, conv3x16\n",
         r"\[model\] local_layers: conv needs an output channel, got 0"),
        ("[model]\nvariant = global\nglobal_layers = \n", r"\[model\] global_layers: .*empty"),
        ("[train]\nclamp_eps = 0.01\n", r"clamp_eps must lie in \(0, 1e-3\)"),
    ])
    def test_values_the_library_rejects_fail_at_parse(self, text, message):
        with pytest.raises(ConfigError, match=rf"^<config>: .*{message}"):
            parse_config_text(text)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.cfg")

    def test_file_that_is_not_utf8_is_config_error_naming_it(self, tmp_path):
        p = tmp_path / "utf16.cfg"
        p.write_bytes(b"\xff\xfe[\x00t\x00]\x00")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(p))}: .*'utf-8' codec"):
            parse_config(p)


class TestTrainConfig:
    @pytest.mark.parametrize("epochs", [None, 3])
    def test_built_from_the_train_keys_of_the_same_names(self, epochs):
        want = TrainConfig(batch_size=10, learning_rate=1e-4, momentum=0.9, weight_decay=5e-4,
                           epochs=30 if epochs is None else epochs, seed=0, clamp_eps=1e-7,
                           reduction="sum", stop_loss=0.0)
        assert default_config().train_config(epochs=epochs) == want

    def test_every_field_is_read_from_train(self):
        text = ("[train]\nbatch_size = 3\nlearning_rate = 0.5\nmomentum = 0.25\n"
                "weight_decay = 0.125\nepochs = 7\nseed = 11\nclamp_eps = 1e-5\n"
                "reduction = mean\nstop_loss = 0.75\n")
        assert parse_config_text(text).train_config() == TrainConfig(
            batch_size=3, learning_rate=0.5, momentum=0.25, weight_decay=0.125, epochs=7,
            seed=11, clamp_eps=1e-5, reduction="mean", stop_loss=0.75)


class TestLayerDsl:
    def test_default_local_layers(self):
        layers = parse_layers("conv3x16, relu, pool2")
        assert layers == (ConvSpec(16, 3), ReluSpec(), PoolSpec(2))

    def test_stride_and_pad_suffixes(self):
        layers = parse_layers("conv7x16s2p3, pool4s2")
        assert layers[0] == ConvSpec(16, 7, stride=2, pad=3)
        assert layers[1] == PoolSpec(4, stride=2)

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError, match="unrecognised layer token 'swish'") as exc:
            parse_layers("conv3x16, swish")
        assert exc.type is ValueError  # the network's parser knows no config file
        with pytest.raises(ConfigError, match=r"^<config>: \[model\] local_layers: unrecognised"):
            parse_config_text("[model]\nlocal_layers = conv3x16, swish\n")

    def test_variant_specs(self):
        cfg = parse_config_text("[model]\nvariant = local\n")
        assert cfg.model_specs()[0] == {"local": LOCAL_PATHWAY}
        cfg = parse_config_text("[model]\nvariant = global\n")
        assert cfg.model_specs()[0] == {"global": GLOBAL_PATHWAY}

    def test_custom_fusion_hidden(self):
        cfg = parse_config_text("[model]\nfusion_hidden = 64, 32\n")
        assert cfg.model_specs()[1] == (64, 32)

    def test_blank_fusion_hidden_is_the_default(self):
        assert parse_config_text("[model]\nfusion_hidden =  \n").model_specs()[1] == (512, 512)
