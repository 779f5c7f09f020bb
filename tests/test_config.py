import dataclasses
import os
import re

import numpy as np
import pytest

from sfinet import config as C
from sfinet.backbone import BackboneConfig, ConfigError
from sfinet.data import DataConfig
from sfinet.filters import AmbiguityParams, NoiseParams
from sfinet.model import SFINet
from sfinet.reconstitution import SirConfig
from sfinet.train import TrainConfig

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")

# criterion 08's dataset (test_acceptance._ambiguous_run) without its seed and bypass keys
AMBIGUOUS_PAIR = {"train.epochs": "40", "data.overlap": "0.8", "data.noise_amplitude": "1.5",
                  "data.signal_amplitude": "1.25", "data.samples_per_class": "48"}


def shipped(name):
    return C.build_run_config(C.parse_config_file(os.path.join(CONFIGS, name)))


class TestParsing:
    def test_defaults_build(self):
        cfg = C.build_run_config({})
        assert cfg.backbone.input == 32
        assert cfg.ambiguity.k == 4
        assert cfg.train.seed == 42
        assert cfg.data.image_size == 32

    def test_comments_and_blank_lines_skipped(self):
        raw = C.parse_config_text("# comment\n\ntrain.seed = 7\n")
        assert raw == {"train.seed": "7"}

    def test_repeated_key_rejected_naming_both_lines(self):
        with pytest.raises(ConfigError, match=r"run.txt:4: config key 'train.lr' repeats line 2"):
            C.parse_config_text("# lr\ntrain.lr = 0.05\ntrain.epochs = 3\ntrain.lr = 0.5\n",
                                origin="run.txt")

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="train.learning_rate"):
            C.parse_config_text("train.learning_rate = 0.1")

    def test_unknown_key_rejected_when_building(self):
        with pytest.raises(ConfigError, match="unknown config key 'train.epoch'"):
            C.build_run_config({"train.epoch": "5"})

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
        cfg = C.build_run_config({"sir.adjacency_init": "0.250"})
        assert cfg.sir.adjacency_init == 0.25
        assert "sir.adjacency_init = 0.25\n" in C.resolved_text(cfg)  # a float key's repr
        assert C.build_run_config({"sir.adjacency_init": "auto"}).sir.adjacency_init is None
        with pytest.raises(ConfigError, match="adjacency_init"):
            C.build_run_config({"sir.adjacency_init": "sometimes"})

    def test_bypass_skips_ratio_validation(self):
        cfg = C.build_run_config({"ambiguity.gamma1": "0.3", "noise.gamma2": "0.2",
                                  "model.bypass_filters": "true"})
        assert cfg.bypass_filters


def sfinet(n_classes, amb=AmbiguityParams()):
    return SFINet(BackboneConfig(), amb, NoiseParams(), SirConfig(), n_classes,
                  np.random.default_rng(0))


@pytest.mark.parametrize("build, name", [
    (lambda: BackboneConfig(strides=(2, 2), channels=(8,)), "strides and channels"),
    (lambda: BackboneConfig(strides=(0, 2, 2, 1)), "strides must be >= 1"),
    (lambda: DataConfig(classes=1), "2 classes"),
    (lambda: DataConfig(train_fraction=1.0), "train_fraction"),
    (lambda: TrainConfig(batch_size=0), "batch_size"),
    (lambda: TrainConfig(epochs=0), "epochs"),
    (lambda: sfinet(1), "top-k (4) exceeds class count (1)"),
    (lambda: sfinet(2, AmbiguityParams(k=3)), "top-k (3)"),
    (lambda: C.build_run_config({"train.augment": "maybe"}), "train.augment"),
], ids=["backbone-lengths", "backbone-stride-0", "data-1-class", "data-train-fraction-1",
        "train-batch-0", "train-epochs-0", "model-1-class", "model-k-above-classes",
        "augment-not-bool"])
def test_out_of_domain_value_raises_config_error_naming_it(build, name):
    with pytest.raises(ConfigError, match=re.escape(name)):
        build()


class TestOverrides:
    def test_set_overrides_file_values(self):
        raw = C.apply_overrides({"train.seed": "1"}, ["train.seed=9", "train.epochs=3"])
        assert raw["train.seed"] == "9"
        assert raw["train.epochs"] == "3"

    def test_repeated_set_keeps_the_last_value(self):
        raw = C.apply_overrides({"train.lr": "0.05"}, ["train.lr=0.5", "train.lr=0.25"])
        assert raw == {"train.lr": "0.25"}

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


class TestKeyTable:
    # the fields that build_run_config sets by hand, and the keys it applies by hand
    HAND_SET = {(DataConfig, "image_size"), (DataConfig, "channels")}
    HAND_KEYS = {"model.bypass_filters", "output.dir"}

    def test_every_field_is_set_by_exactly_one_key(self):
        entries = list(C._FIELDS.values())
        assert len(entries) == len(set(entries))
        every = {(cls, f.name) for cls in (BackboneConfig, AmbiguityParams, NoiseParams,
                                           SirConfig, TrainConfig, DataConfig)
                 for f in dataclasses.fields(cls)}
        assert set(entries) == every - self.HAND_SET
        assert set(C._SCHEMA) - set(C._FIELDS) == self.HAND_KEYS

    def test_every_key_is_section_dot_field(self):
        for key, (cls, name) in C._FIELDS.items():
            section = key.split(".")[0]
            assert C._SECTIONS[section] is cls and key == f"{section}.{name}", key

    def test_every_default_has_a_parser_that_reads_its_resolved_text(self):
        for key, default in C._SCHEMA.items():
            assert type(default) in C._TYPES, key
            _, _, fmt = C._TYPES[type(default)]
            assert C._parse_value(key, fmt(default)) == default, key


class TestPresets:
    def test_tiny_preset_valid(self):
        cfg = C.load(preset="tiny")
        assert max(w * h for w, h, _ in cfg.backbone.stage_shapes()) <= 16

    def test_tiny_preset_writes_where_its_file_says(self):
        assert C.load(preset="tiny").out_dir == "runs/tiny"

    def test_every_preset_is_a_shipped_file(self):
        assert sorted(os.listdir(C._PRESET_DIR)) == [f"{name}.txt" for name in C.PRESETS]

    def test_default_preset_sets_no_key(self):
        # each default stays declared once, in its settings dataclass
        assert C.parse_config_file(os.path.join(C._PRESET_DIR, "default.txt")) == {}
        assert C.resolved_text(C.load()) == C.resolved_text(C.build_run_config({}))

    def test_paper_protocol_preset_valid(self):
        # documentation only, as a config file: 384 px does not fit at desk scale
        cfg = shipped("paper-protocol.txt")
        assert cfg.backbone.input == 384
        assert cfg.train.epochs == 60
        assert cfg.train.batch_size == 12

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown preset 'nope'; have \['default', 'tiny'\]"):
            C.load(preset="nope")


class TestShippedConfigs:
    @pytest.mark.parametrize("name, build", [
        ("default.txt", lambda: C.build_run_config({})),
        ("ambiguous-pair.txt", lambda: C.build_run_config(dict(AMBIGUOUS_PAIR))),
    ], ids=["default", "ambiguous-pair"])
    def test_file_resolves_like_code(self, name, build):
        from_file, from_code = shipped(name).values, build().values
        assert {**from_file, "output.dir": None} == {**from_code, "output.dir": None}
