"""Flat `section.key = value` run configuration.

One file drives a whole run: backbone layout, filter ratios, attention
sizes, optimizer settings, dataset recipe, and output directory.  All keys
but five are settings dataclass fields, declared only there (_FIELDS).
Unknown keys are rejected by name.  The resolved snapshot written next to
each run's outputs parses back to an identical configuration, so a run
can be reproduced from its own artifacts.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

import numpy as np

from .backbone import BackboneConfig
from .data import DataConfig, SyntheticDataset, make_synthetic
from .filters import AmbiguityParams, NoiseParams, validate_filter_ratios
from .model import SFINet
from .reconstitution import SirConfig
from .serialization import read_text
from .tensor import ConfigError
from .train import TrainConfig

# Key `section.field` sets that field of _SECTIONS[section], takes its default
# and parses by the default's type (_TYPES); `data.classes` sets
# DataConfig.num_classes, and build_run_config sets _HAND_SET from its own keys.
_SECTIONS = {"backbone": BackboneConfig, "ambiguity": AmbiguityParams, "noise": NoiseParams,
             "sir": SirConfig, "train": TrainConfig, "data": DataConfig}
_RENAMED = {(DataConfig, "num_classes"): "classes"}
_HAND_SET = {(BackboneConfig, "input_size"), (BackboneConfig, "in_channels"),
             (DataConfig, "image_size"), (DataConfig, "channels"), (SirConfig, "adjacency_init")}
_FIELDS: dict[str, tuple[type, str]] = {
    f"{section}.{_RENAMED.get((cls, f.name), f.name)}": (cls, f.name)
    for section, cls in _SECTIONS.items() for f in dataclasses.fields(cls)
    if (cls, f.name) not in _HAND_SET}

# every key -> its default; build_run_config applies the last five by hand
_SCHEMA: dict[str, object] = {
    **{key: getattr(cls, name) for key, (cls, name) in _FIELDS.items()},
    "backbone.input": BackboneConfig.input_size[0],  # input_size and DataConfig.image_size
    "backbone.in_channels": BackboneConfig.in_channels,  # also DataConfig.channels
    "sir.adjacency_init": "auto",  # or a float
    "model.bypass_filters": False,
    "output.dir": "runs/default",
}


def _bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(text)


# type of a key's default -> (name in parse errors, parser, resolved-text formatter)
_TYPES = {
    bool: ("bool", _bool, lambda v: "true" if v else "false"),
    int: ("int", int, str),
    float: ("float", float, repr),
    tuple: ("ints", lambda text: tuple(int(v) for v in text.split(",")),
            lambda v: ",".join(str(i) for i in v)),
    str: ("str", str, str),
}

PRESETS: dict[str, dict[str, str]] = {
    "default": {},
    # small enough for exhaustive finite-difference checking
    "tiny": {
        "backbone.input": "8",
        "backbone.strides": "2,2",
        "backbone.channels": "4,6",
        "ambiguity.k": "2",
        "sir.channels": "8",
        "sir.heads": "2",
        "data.classes": "3",
        "data.samples_per_class": "8",
        "data.patch_size": "4",
        "train.epochs": "2",
        "train.batch_size": "4",
        "output.dir": "runs/tiny",
    },
}


@dataclasses.dataclass
class RunConfig:
    backbone: BackboneConfig
    ambiguity: AmbiguityParams
    noise: NoiseParams
    sir: SirConfig
    train: TrainConfig
    data: DataConfig
    bypass_filters: bool
    out_dir: str
    values: dict[str, object]


def _parse_value(key: str, text: str):
    tag, parse, _ = _TYPES[type(_SCHEMA[key])]
    text = text.strip()
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: cannot parse {text!r} as {tag}") from exc


def _entry(text: str, where: str) -> tuple[str, str]:
    """One `section.key = value` entry as a stripped (key, value); rejects bad forms and keys."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected 'section.key = value', got {text!r}")
    key, value = (part.strip() for part in text.split("=", 1))
    if key not in _SCHEMA:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    return key, value


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Raw key -> value strings; rejects unknown keys, repeated keys and bad lines."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, value = _entry(stripped, f"{origin}:{lineno}")
        if key in first_line:
            raise ConfigError(f"{origin}:{lineno}: config key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        out[key] = value
    return out


def parse_config_file(path: str) -> dict[str, str]:
    return parse_config_text(read_text(path), origin=path)


def apply_overrides(raw: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply repeated `--set section.key=value` strings; a repeated key keeps its last value."""
    return {**raw, **dict(_entry(item, "--set") for item in overrides)}


def build_run_config(raw: dict[str, str]) -> RunConfig:
    for key in raw:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
    values = {key: default if key not in raw else _parse_value(key, raw[key])
              for key, default in _SCHEMA.items()}
    fields: dict[type, dict[str, object]] = defaultdict(dict)
    for key, (cls, name) in _FIELDS.items():
        fields[cls][name] = values[key]
    size, channels = values["backbone.input"], values["backbone.in_channels"]
    backbone = BackboneConfig(input_size=(size, size), in_channels=channels,
                              **fields[BackboneConfig])
    amb = AmbiguityParams(**fields[AmbiguityParams])
    noise = NoiseParams(**fields[NoiseParams])
    adj = values["sir.adjacency_init"]
    if adj != "auto":
        try:
            adj = float(adj)
        except ValueError as exc:
            raise ConfigError(f"sir.adjacency_init must be 'auto' or a finite number, got {adj!r}") from exc
    sir = SirConfig(adjacency_init=None if adj == "auto" else adj, **fields[SirConfig])
    train = TrainConfig(**fields[TrainConfig])
    data = DataConfig(image_size=size, channels=channels, **fields[DataConfig])
    bypass = values["model.bypass_filters"]
    if amb.k > data.num_classes:
        raise ConfigError(f"ambiguity.k ({amb.k}) exceeds data.classes ({data.num_classes})")
    if not bypass:
        validate_filter_ratios([w * h for w, h, _ in backbone.stage_shapes()], amb.gamma1,
                               noise.gamma2)
    return RunConfig(backbone, amb, noise, sir, train, data, bypass, values["output.dir"], values)


def preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return build_run_config(dict(PRESETS[name]))


def resolved_text(cfg: RunConfig) -> str:
    """Every key with its effective value; reparses to the same config."""
    return "".join(f"{key} = {_TYPES[type(_SCHEMA[key])][2](cfg.values[key])}\n"
                   for key in sorted(_SCHEMA))


def build_model(cfg: RunConfig, rng: np.random.Generator) -> SFINet:
    """The configured model, its initial weights drawn from ``rng``."""
    return SFINet(cfg.backbone, cfg.ambiguity, cfg.noise, cfg.sir,
                  cfg.data.num_classes, rng, bypass_filters=cfg.bypass_filters)


def build_experiment(cfg: RunConfig) -> tuple[SyntheticDataset, SFINet, np.random.Generator]:
    """Dataset, model, and the shared generator, in the canonical order.

    One generator seeded by train.seed drives dataset synthesis, weight
    init, and later shuffling; the construction order here is part of the
    reproducibility contract.
    """
    rng = np.random.default_rng(cfg.train.seed)
    dataset = make_synthetic(cfg.data, rng)
    return dataset, build_model(cfg, rng), rng
