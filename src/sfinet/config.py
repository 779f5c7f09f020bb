"""Flat `section.key = value` run configuration.

One file drives a whole run: backbone layout, filter ratios, attention
sizes, optimizer settings, dataset recipe, and output directory.  Unknown
keys are rejected by name.  The resolved snapshot written next to each
run's outputs parses back to an identical configuration, so a run can be
reproduced from its own artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backbone import BackboneConfig
from .data import DataConfig, SyntheticDataset, make_synthetic
from .filters import AmbiguityParams, NoiseParams, validate_filter_ratios
from .model import SFINet
from .reconstitution import SirConfig
from .tensor import ConfigError
from .train import TrainConfig

# key -> (type tag, default); type tags: int, float, bool, str, ints.  A default
# is read from the dataclass field that owns the key; the rest are literals.
_SCHEMA: dict[str, tuple[str, object]] = {
    "backbone.input": ("int", BackboneConfig.input_size[0]),
    "backbone.in_channels": ("int", BackboneConfig.in_channels),
    "backbone.strides": ("ints", BackboneConfig.strides),
    "backbone.channels": ("ints", BackboneConfig.channels),
    "ambiguity.k": ("int", AmbiguityParams.k),
    "ambiguity.beta_h": ("float", AmbiguityParams.beta_h),
    "ambiguity.beta_l": ("float", AmbiguityParams.beta_l),
    "ambiguity.gamma1": ("float", AmbiguityParams.gamma1),
    "noise.gamma2": ("float", NoiseParams.gamma2),
    "sir.channels": ("int", SirConfig.channels),
    "sir.heads": ("int", SirConfig.heads),
    "sir.gcn_depth": ("int", SirConfig.gcn_depth),
    "sir.adjacency_init": ("str", "auto"),
    "model.bypass_filters": ("bool", False),
    "train.xi": ("float", TrainConfig.xi),
    "train.lr": ("float", TrainConfig.lr),
    "train.momentum": ("float", TrainConfig.momentum),
    "train.weight_decay": ("float", TrainConfig.weight_decay),
    "train.epochs": ("int", TrainConfig.epochs),
    "train.batch_size": ("int", TrainConfig.batch_size),
    "train.seed": ("int", TrainConfig.seed),
    "train.augment": ("bool", TrainConfig.augment),
    "data.classes": ("int", DataConfig.num_classes),
    "data.samples_per_class": ("int", DataConfig.samples_per_class),
    "data.patch_size": ("int", DataConfig.patch_size),
    "data.signal_amplitude": ("float", DataConfig.signal_amplitude),
    "data.noise_amplitude": ("float", DataConfig.noise_amplitude),
    "data.overlap": ("float", DataConfig.overlap),
    "data.train_fraction": ("float", DataConfig.train_fraction),
    "output.dir": ("str", "runs/default"),
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
    },
}


@dataclass
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
    tag = _SCHEMA[key][0]
    text = text.strip()
    try:
        if tag == "int":
            return int(text)
        if tag == "float":
            return float(text)
        if tag == "bool":
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        if tag == "ints":
            return tuple(int(v) for v in text.split(","))
        return text
    except ValueError as exc:
        raise ConfigError(f"config key {key}: cannot parse {text!r} as {tag}") from exc


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    """Raw key -> value strings; rejects unknown keys and bad lines."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{origin}:{lineno}: expected 'section.key = value', got {stripped!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{origin}:{lineno}: unknown config key {key!r}")
        out[key] = value.strip()
    return out


def parse_config_file(path: str) -> dict[str, str]:
    with open(path) as fh:
        return parse_config_text(fh.read(), origin=path)


def apply_overrides(raw: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply repeated `--set section.key=value` strings."""
    out = dict(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"--set: unknown config key {key!r}")
        out[key] = value.strip()
    return out


def build_run_config(raw: dict[str, str]) -> RunConfig:
    values = {key: (tag_default[1] if key not in raw else _parse_value(key, raw[key]))
              for key, tag_default in _SCHEMA.items()}
    backbone = BackboneConfig(
        input_size=(values["backbone.input"], values["backbone.input"]),
        in_channels=values["backbone.in_channels"],
        strides=values["backbone.strides"],
        channels=values["backbone.channels"],
    )
    amb = AmbiguityParams(k=values["ambiguity.k"], beta_h=values["ambiguity.beta_h"],
                          beta_l=values["ambiguity.beta_l"], gamma1=values["ambiguity.gamma1"])
    noise = NoiseParams(gamma2=values["noise.gamma2"])
    adj = values["sir.adjacency_init"]
    if adj != "auto":
        try:
            adj = float(adj)
        except ValueError as exc:
            raise ConfigError(f"sir.adjacency_init must be 'auto' or a number, got {adj!r}") from exc
    sir = SirConfig(channels=values["sir.channels"], heads=values["sir.heads"],
                    gcn_depth=values["sir.gcn_depth"],
                    adjacency_init=None if adj == "auto" else adj)
    train = TrainConfig(xi=values["train.xi"], lr=values["train.lr"],
                        momentum=values["train.momentum"],
                        weight_decay=values["train.weight_decay"],
                        epochs=values["train.epochs"], batch_size=values["train.batch_size"],
                        seed=values["train.seed"], augment=values["train.augment"])
    data = DataConfig(num_classes=values["data.classes"],
                      samples_per_class=values["data.samples_per_class"],
                      image_size=values["backbone.input"],
                      channels=values["backbone.in_channels"],
                      patch_size=values["data.patch_size"],
                      signal_amplitude=values["data.signal_amplitude"],
                      noise_amplitude=values["data.noise_amplitude"],
                      overlap=values["data.overlap"],
                      train_fraction=values["data.train_fraction"],
                      seed=values["train.seed"])
    bypass = values["model.bypass_filters"]
    if amb.k > data.num_classes:
        raise ConfigError(f"ambiguity.k ({amb.k}) exceeds data.classes ({data.num_classes})")
    if not bypass:
        validate_filter_ratios(amb, noise, backbone.stage_shapes())
    return RunConfig(backbone, amb, noise, sir, train, data, bypass, values["output.dir"], values)


def preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return build_run_config(dict(PRESETS[name]))


def resolved_text(cfg: RunConfig) -> str:
    """Every key with its effective value; reparses to the same config."""
    lines = []
    for key in sorted(_SCHEMA):
        v = cfg.values[key]
        tag = _SCHEMA[key][0]
        if tag == "ints":
            text = ",".join(str(i) for i in v)
        elif tag == "bool":
            text = "true" if v else "false"
        elif tag == "float":
            text = repr(float(v))
        else:
            text = str(v)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def build_experiment(cfg: RunConfig) -> tuple[SyntheticDataset, SFINet, np.random.Generator]:
    """Dataset, model, and the shared generator, in the canonical order.

    One generator seeded by train.seed drives dataset synthesis, weight
    init, and later shuffling; the construction order here is part of the
    reproducibility contract.
    """
    rng = np.random.default_rng(cfg.train.seed)
    dataset = make_synthetic(cfg.data, rng)
    model = SFINet(cfg.backbone, cfg.ambiguity, cfg.noise, cfg.sir,
                   cfg.data.num_classes, rng, bypass_filters=cfg.bypass_filters)
    return dataset, model, rng
