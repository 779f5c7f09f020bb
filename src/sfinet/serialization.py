"""Text serialization for tensors, checkpoints, and map exports.

Single-tensor format: a header line ``shape: d0,d1,...`` followed by the
values in row-major order, one line per leading-axes row.  Floats are
written with ``repr``, the shortest round-trip representation, so a
save/load cycle is bit-exact.  A checkpoint is one file holding a
sequence of named blocks in this format.
"""

from __future__ import annotations

import os
from typing import Mapping

import numpy as np


class SerializationError(ValueError):
    """Malformed tensor file or checkpoint."""


def _rows(arr: np.ndarray) -> np.ndarray:
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        return arr.reshape(1, -1)
    return arr.reshape(-1, arr.shape[-1])


def format_tensor(arr: np.ndarray) -> str:
    arr = np.asarray(arr, dtype=np.float64)
    header = "shape: " + ",".join(str(d) for d in arr.shape)
    lines = [header]
    for row in _rows(arr):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def save_tensor(path: str | os.PathLike, arr: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(format_tensor(arr))


def _parse_block(header: str, value_lines: list[str], origin: str) -> np.ndarray:
    if not header.startswith("shape:"):
        raise SerializationError(f"{origin}: expected 'shape:' header, got {header!r}")
    dims_text = header[len("shape:"):].strip()
    try:
        shape = tuple(int(d) for d in dims_text.split(",")) if dims_text else ()
        values = [float(v) for line in value_lines for v in line.split(",")]
    except ValueError as exc:
        raise SerializationError(f"{origin}: {exc}") from exc
    if any(d < 0 for d in shape):
        raise SerializationError(f"{origin}: negative dimension in shape {shape}")
    arr = np.array(values, dtype=np.float64)
    expected = int(np.prod(shape)) if shape else 1
    if arr.size != expected:
        raise SerializationError(f"{origin}: shape {shape} needs {expected} values, found {arr.size}")
    return arr.reshape(shape)


def load_tensor(path: str | os.PathLike) -> np.ndarray:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise SerializationError(f"{path}: empty tensor file")
    return _parse_block(lines[0], lines[1:], str(path))


def save_checkpoint(path: str | os.PathLike, params: Mapping[str, np.ndarray]) -> None:
    """Write named tensors as consecutive blocks, preserving order."""
    with open(path, "w") as fh:
        for name, arr in params.items():
            data = getattr(arr, "data", arr)
            fh.write(f"tensor: {name}\n")
            fh.write(format_tensor(np.asarray(data)))


def load_checkpoint(path: str | os.PathLike) -> dict[str, np.ndarray]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    out: dict[str, np.ndarray] = {}
    i = 0
    while i < len(lines):
        if not lines[i].startswith("tensor:"):
            raise SerializationError(f"{path}: expected 'tensor:' block at line {i + 1}")
        name = lines[i][len("tensor:"):].strip()
        if name in out:
            raise SerializationError(f"{path}: block {name!r} appears more than once")
        if i + 1 >= len(lines):
            raise SerializationError(f"{path}: block {name!r} missing shape header")
        j = i + 2
        while j < len(lines) and not lines[j].startswith("tensor:"):
            j += 1
        out[name] = _parse_block(lines[i + 1], lines[i + 2:j], f"{path}:{name}")
        i = j
    return out


def write_pgm(path: str | os.PathLike, arr: np.ndarray) -> None:
    """Min-max normalize a 2-D map to 0..255 and write ASCII PGM (P2).

    A constant map has no contrast and is written as all zeros.
    """
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise SerializationError(f"PGM export needs a 2-D map, got shape {arr.shape}")
    lo, hi = arr.min(), arr.max()
    if hi > lo:
        pixels = np.rint((arr - lo) / (hi - lo) * 255.0).astype(int)
    else:
        pixels = np.zeros(arr.shape, dtype=int)
    w, h = arr.shape
    with open(path, "w") as fh:
        fh.write(f"P2\n{h} {w}\n255\n")
        for row in pixels:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")
