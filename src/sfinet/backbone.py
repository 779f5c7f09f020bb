"""Toy multi-stage feature extractor.

Each stage splits its input into non-overlapping stride x stride patches,
applies a learned linear embedding plus bias, and a tanh nonlinearity.
Spatial extent shrinks by the stage stride while channel depth grows, so
downstream filters see maps with different receptive fields.  tanh keeps
the whole path smooth for finite-difference checks.

Features travel as ``(S_i, C_i)`` rows, one per position of the
``(W_i, H_i)`` stage grid in row-major order (row ``x * H_i + y`` is cell
``(x, y)``).  The image becomes rows once, a checked constant off the
tape, and a stage reads its input grid only through a strided view: the
rows reshaped to ``(W/s, s, H/s, s, C)`` with the middle axes swapped,
one copy of which is the ``(S_i, s**2 * C_{i-1})`` patch matrix its
embedding takes.

Each stage is one tape op, :func:`backbone_stage`, in place of the chain
``gather_rows``, ``reshape``, ``matmul``, ``add_rowvec``, ``tanh``, with
the same values and gradients bit for bit.  The patches use every input
row once, so the backward returns the input gradient through the inverse
transpose; it skips only that one, for the image, and leaves constant
weights to ``tensor.accumulate``.  The values entering the tanh are
checked for NaN/Inf, as the tanh would map an Inf to +-1; a failed check
names ``backbone_stage`` and the chain step that went non-finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ConfigError, Tensor


@dataclass(frozen=True)
class BackboneConfig:
    """Stage layout: spatial sizes derive from the input size and strides.

    Invariants: spatial extents never grow, channel depths never shrink,
    and the final stage stays at least 2x2 so drop ratios remain
    meaningful.
    """
    input_size: tuple[int, int] = (32, 32)
    in_channels: int = 3
    strides: tuple[int, ...] = (4, 2, 2, 1)
    channels: tuple[int, ...] = (16, 32, 64, 64)

    def __post_init__(self):
        if len(self.strides) != len(self.channels) or not self.strides:
            raise ConfigError("backbone: strides and channels must be equal-length, nonempty")
        if self.in_channels < 1:
            raise ConfigError(f"backbone.in_channels must be >= 1, got {self.in_channels}")
        if any(s < 1 for s in self.strides):
            raise ConfigError("backbone: strides must be >= 1")
        if any(c < 1 for c in self.channels):
            raise ConfigError(f"backbone.channels must all be >= 1, got {self.channels}")
        for a, b in zip(self.channels, self.channels[1:]):
            if b < a:
                raise ConfigError(f"backbone: channel depth must not shrink ({a} -> {b})")
        w, h = self.input_size
        for i, s in enumerate(self.strides):
            if w % s or h % s:
                raise ConfigError(f"backbone: stage {i} extent {w}x{h} not divisible by stride {s}")
            w, h = w // s, h // s
        if w < 2 or h < 2:
            raise ConfigError(f"backbone: final stage extent {w}x{h} below 2x2")

    def stage_shapes(self) -> list[tuple[int, int, int]]:
        """(W_i, H_i, C_i) per stage; stage i's features are W_i * H_i rows of C_i."""
        shapes = []
        w, h = self.input_size
        for s, c in zip(self.strides, self.channels):
            w, h = w // s, h // s
            shapes.append((w, h, c))
        return shapes


def backbone_stage(x: Tensor, grid: tuple[int, int], stride: int,
                   weight: Tensor, bias: Tensor) -> Tensor:
    """One stage, ``tanh(P @ weight + bias)`` over the stride x stride patches of a grid.

    ``x`` holds the ``(W, H)`` grid's rows in row-major order.  Row ``i``
    of the patch matrix ``P`` is patch ``i`` in row-major patch order, its
    ``(di, dj)`` taps' rows side by side, row-major.
    """
    (w, h), s = grid, stride
    if (x.ndim != 2 or weight.ndim != 2 or s < 1 or w % s or h % s or x.shape[0] != w * h
            or s * s * x.shape[1] != weight.shape[0] or bias.shape != weight.shape[1:]):
        raise T.ShapeError(f"backbone_stage: {w}x{h} grid of rows {x.shape} with stride {s} "
                           f"does not fit weight {weight.shape} and bias {bias.shape}")
    nw, nh, c = w // s, h // s, x.shape[1]
    p = x.data.reshape(nw, s, nh, s, c).transpose(0, 2, 1, 3, 4).reshape(nw * nh, -1)
    y = p @ weight.data
    y += bias.data
    if not T.finite(y):
        raise T.chain_error("backbone_stage", [("matmul", p @ weight.data), ("add_rowvec", y)])
    np.tanh(y, out=y)

    def bw(g):
        g = T.tanh_grad(g, y)
        T.accumulate(bias, np.add.reduce(g, 0))
        T.accumulate(weight, p.T @ g)
        if x.requires_grad:
            gp = (g @ weight.data.T).reshape(nw, nh, s, s, c)
            T.accumulate(x, gp.transpose(0, 2, 1, 3, 4).reshape(w * h, c))

    return T.node(y, (x, weight, bias), bw, "backbone_stage")


def uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Initial weights drawn from U(-a, a), a = sqrt(1 / fan_in)."""
    a = np.sqrt(1.0 / fan_in)
    return rng.uniform(-a, a, size=shape)


def register(params: dict[str, Tensor], name: str, data: np.ndarray) -> Tensor:
    """A trainable tensor holding ``data``, added to ``params`` under ``name``."""
    params[name] = Tensor(data, requires_grad=True)
    return params[name]


class Backbone:
    """Stacked patch-embedding stages with trainable weights."""

    def __init__(self, config: BackboneConfig, rng: np.random.Generator):
        self.config = config
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        self._params: dict[str, Tensor] = {}
        c_in = config.in_channels
        for i, (stride, c_out) in enumerate(zip(config.strides, config.channels)):
            fan_in = stride * stride * c_in
            self.weights.append(register(self._params, f"backbone.stage{i}.weight",
                                         uniform(rng, (fan_in, c_out), fan_in)))
            self.biases.append(register(self._params, f"backbone.stage{i}.bias", np.zeros(c_out)))
            c_in = c_out

    def parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def forward(self, image: Tensor) -> list[Tensor]:
        """Each stage's (W_i * H_i, C_i) feature rows, row-major over its grid."""
        cfg = self.config
        w, h = cfg.input_size
        expected = (w, h, cfg.in_channels)
        if image.shape != expected:
            raise T.ShapeError(f"backbone: image shape {image.shape}, config expects {expected}")
        x = Tensor(T.checked(image.data.reshape(w * h, cfg.in_channels), "reshape"))
        stages = []
        for stride, weight, bias in zip(cfg.strides, self.weights, self.biases):
            x = backbone_stage(x, (w, h), stride, weight, bias)
            stages.append(x)
            w, h = w // stride, h // stride
        return stages
