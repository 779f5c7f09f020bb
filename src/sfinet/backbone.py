"""Toy multi-stage feature extractor.

Each stage splits its input into non-overlapping stride x stride patches,
applies a learned linear embedding plus bias, and a tanh nonlinearity.
Spatial extent shrinks by the stage stride while channel depth grows, so
downstream filters see maps with different receptive fields.  tanh keeps
the whole path smooth for finite-difference checks.

Features travel as ``(S_i, C_i)`` rows, one per position of the
``(W_i, H_i)`` stage grid in row-major order (row ``x * H_i + y`` is cell
``(x, y)``).  The image becomes rows once; each stage's patch indices are
the only place the grid is read, so every later consumer sees rows.
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
        if any(s < 1 for s in self.strides):
            raise ConfigError("backbone: strides must be >= 1")
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

    @property
    def num_stages(self) -> int:
        return len(self.strides)

    def stage_shapes(self) -> list[tuple[int, int, int]]:
        """(W_i, H_i, C_i) per stage; stage i's features are W_i * H_i rows of C_i."""
        shapes = []
        w, h = self.input_size
        for s, c in zip(self.strides, self.channels):
            w, h = w // s, h // s
            shapes.append((w, h, c))
        return shapes


def _patch_indices(w: int, h: int, stride: int) -> np.ndarray:
    """Flat source-row indices, patch-major then (di, dj) row-major."""
    out = []
    for i in range(w // stride):
        for j in range(h // stride):
            for di in range(stride):
                for dj in range(stride):
                    out.append((i * stride + di) * h + (j * stride + dj))
    return np.asarray(out, dtype=np.intp)


class Backbone:
    """Stacked patch-embedding stages with trainable weights."""

    def __init__(self, config: BackboneConfig, rng: np.random.Generator):
        self.config = config
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        self._indices: list[np.ndarray] = []
        w, h = config.input_size
        c_in = config.in_channels
        for stride, c_out in zip(config.strides, config.channels):
            fan_in = stride * stride * c_in
            a = np.sqrt(1.0 / fan_in)
            self.weights.append(Tensor(rng.uniform(-a, a, size=(fan_in, c_out)), requires_grad=True))
            self.biases.append(Tensor(np.zeros(c_out), requires_grad=True))
            self._indices.append(_patch_indices(w, h, stride))
            w, h, c_in = w // stride, h // stride, c_out

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"backbone.stage{i}.weight"] = w
            out[f"backbone.stage{i}.bias"] = b
        return out

    def forward(self, image: Tensor) -> list[Tensor]:
        """Each stage's (W_i * H_i, C_i) feature rows, row-major over its grid."""
        cfg = self.config
        w, h = cfg.input_size
        expected = (w, h, cfg.in_channels)
        if image.shape != expected:
            raise T.ShapeError(f"backbone: image shape {image.shape}, config expects {expected}")
        x = T.reshape(image, (w * h, cfg.in_channels))
        stages = []
        for idx, weight, bias in zip(self._indices, self.weights, self.biases):
            patches = T.reshape(T.gather_rows(x, idx), (-1, weight.shape[0]))
            x = T.tanh(T.add_rowvec(T.matmul(patches, weight), bias))
            stages.append(x)
        return stages
