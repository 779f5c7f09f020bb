import os

import pytest

from sfinet import config as C
from sfinet.backbone import ConfigError

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")

# criterion 08's dataset (test_acceptance._ambiguous_run) without its seed and bypass keys
AMBIGUOUS_PAIR = {"train.epochs": "40", "data.overlap": "0.8", "data.noise_amplitude": "1.5",
                  "data.signal_amplitude": "1.25", "data.samples_per_class": "48"}


def shipped(name):
    return C.build_run_config(C.parse_config_file(os.path.join(CONFIGS, name)))


class TestParsing:
    def test_defaults_build(self):
        cfg = C.build_run_config({})
        assert cfg.backbone.input_size == (32, 32)
        assert cfg.ambiguity.k == 4
        assert cfg.train.seed == 42
        assert cfg.data.image_size == 32

    def test_comments_and_blank_lines_skipped(self):
        raw = C.parse_config_text("# comment\n\ntrain.seed = 7\n")
        assert raw == {"train.seed": "7"}

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="train.learning_rate"):
            C.parse_config_text("train.learning_rate = 0.1")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="section.key"):
            C.parse_config_text("just some text")

    def test_bad_value_type_rejected(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            C.build_run_config({"train.epochs": "many"})

    def test_list_values(self):
        cfg = C.build_run_config({"backbone.strides": "2,2", "backbone.channels": "4,8",
                                  "backbone.input": "8", "ambiguity.k": "2",
                                  "sir.channels": "8", "sir.heads": "2",
                                  "data.classes": "3", "data.patch_size": "4"})
        assert cfg.backbone.strides == (2, 2)


class TestCrossValidation:
    def test_gamma1_above_gamma2_rejected(self):
        with pytest.raises(ConfigError, match="gamma1"):
            C.build_run_config({"ambiguity.gamma1": "0.3", "noise.gamma2": "0.2"})

    def test_k_above_classes_rejected(self):
        with pytest.raises(ConfigError, match="classes"):
            C.build_run_config({"data.classes": "3"})  # default k = 4

    def test_heads_not_dividing_channels_rejected(self):
        with pytest.raises(ConfigError, match="heads"):
            C.build_run_config({"sir.channels": "10", "sir.heads": "4"})

    def test_adjacency_init_value(self):
        cfg = C.build_run_config({"sir.adjacency_init": "0.25"})
        assert cfg.sir.adjacency_init == 0.25
        with pytest.raises(ConfigError, match="adjacency_init"):
            C.build_run_config({"sir.adjacency_init": "sometimes"})

    def test_bypass_skips_ratio_validation(self):
        cfg = C.build_run_config({"ambiguity.gamma1": "0.3", "noise.gamma2": "0.2",
                                  "model.bypass_filters": "true"})
        assert cfg.bypass_filters


class TestOverrides:
    def test_set_overrides_file_values(self):
        raw = C.apply_overrides({"train.seed": "1"}, ["train.seed=9", "train.epochs=3"])
        assert raw["train.seed"] == "9"
        assert raw["train.epochs"] == "3"

    def test_unknown_set_key_rejected(self):
        with pytest.raises(ConfigError, match="nope.key"):
            C.apply_overrides({}, ["nope.key=1"])

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            C.apply_overrides({}, ["train.seed"])


class TestResolvedSnapshot:
    def test_snapshot_reparses_to_identical_config(self):
        raw = {"train.epochs": "5", "train.lr": "0.0125", "data.overlap": "0.8",
               "backbone.strides": "4,2,2,1"}
        cfg = C.build_run_config(raw)
        text = C.resolved_text(cfg)
        cfg2 = C.build_run_config(C.parse_config_text(text))
        assert C.resolved_text(cfg2) == text
        assert cfg2.train.lr == cfg.train.lr
        assert cfg2.data.overlap == cfg.data.overlap

    def test_snapshot_lists_every_key(self):
        text = C.resolved_text(C.build_run_config({}))
        keys = {line.split(" = ")[0] for line in text.splitlines()}
        assert keys == set(C._SCHEMA)


class TestPresets:
    def test_tiny_preset_valid(self):
        cfg = C.preset("tiny")
        assert max(w * h for w, h, _ in cfg.backbone.stage_shapes()) <= 16

    def test_paper_protocol_preset_valid(self):
        # documentation only, as a config file: 384 px does not fit at desk scale
        cfg = shipped("paper-protocol.txt")
        assert cfg.backbone.input_size == (384, 384)
        assert cfg.train.epochs == 60
        assert cfg.train.batch_size == 12

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            C.preset("gigantic")


class TestShippedConfigs:
    @pytest.mark.parametrize("name, build", [
        ("default.txt", lambda: C.build_run_config({})),
        ("tiny.txt", lambda: C.preset("tiny")),
        ("ambiguous-pair.txt", lambda: C.build_run_config(dict(AMBIGUOUS_PAIR))),
    ], ids=["default", "tiny", "ambiguous-pair"])
    def test_file_resolves_like_code(self, name, build):
        from_file, from_code = shipped(name).values, build().values
        assert {**from_file, "output.dir": None} == {**from_code, "output.dir": None}
