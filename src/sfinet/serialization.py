"""Text serialization for tensors, checkpoints, and map exports.

Single-tensor format: a header line ``shape: d0,d1,...`` followed by the
values in row-major order, one line per leading-axes row.  Floats are
written with ``repr``, the shortest round-trip representation, so a
save/load cycle is bit-exact.  A checkpoint is one file holding a
sequence of named blocks in this format.

Every file is written through :func:`atomic_open`: the text goes to a
temporary file next to the target, which replaces the target only once
it is complete, so a write that fails part way leaves the previous file
as it was.  Files are read through :func:`read_text`: a file that is
missing, is a directory, cannot be opened or is not UTF-8 raises
:class:`SerializationError` naming it, as does an output directory that
:func:`make_dirs` cannot create.
"""

from __future__ import annotations

import contextlib
import math
import os
import uuid
from typing import Iterator, Mapping, TextIO

import numpy as np


class SerializationError(ValueError):
    """Malformed tensor file or checkpoint."""


@contextlib.contextmanager
def atomic_open(path: str | os.PathLike) -> Iterator[TextIO]:
    """Open a text file for writing that appears at ``path`` only when complete.

    Writes go to a temporary file in the target's directory, which
    ``os.replace`` moves over ``path`` when the block exits normally.  If
    the block raises, the temporary file is removed and ``path`` keeps its
    previous content.  (This guards against a failed or interrupted
    process, not against power loss: nothing is fsynced.)
    """
    path = os.fspath(path)
    tmp = f"{path}.{uuid.uuid4().hex[:8]}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def read_text(path: str | os.PathLike) -> str:
    """The content of a UTF-8 text file; any failure to read it names the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SerializationError(f"{path}: not UTF-8 text ({exc})") from exc
    except OSError as exc:
        raise SerializationError(f"{path}: cannot read ({exc.strerror})") from exc


def make_dirs(path: str | os.PathLike) -> None:
    """Create the directory ``path`` and its parents; one that cannot exist names the path."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise SerializationError(f"{path}: cannot create directory ({exc.strerror})") from exc


def _read_lines(path: str | os.PathLike) -> list[str]:
    """The non-blank lines of a UTF-8 text file, stripped."""
    return [ln.strip() for ln in read_text(path).split("\n") if ln.strip()]


def _rows(arr: np.ndarray) -> np.ndarray:
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    return arr.reshape(math.prod(arr.shape[:-1]), arr.shape[-1])


def format_tensor(arr: np.ndarray) -> str:
    arr = np.asarray(arr, dtype=np.float64)
    header = "shape: " + ",".join(str(d) for d in arr.shape)
    lines = [header]
    for row in _rows(arr):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def save_tensor(path: str | os.PathLike, arr: np.ndarray) -> None:
    with atomic_open(path) as fh:
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
    lines = _read_lines(path)
    if not lines:
        raise SerializationError(f"{path}: empty tensor file")
    return _parse_block(lines[0], lines[1:], str(path))


def save_checkpoint(path: str | os.PathLike, params: Mapping[str, np.ndarray]) -> None:
    """Write named tensors as consecutive blocks, preserving order."""
    with atomic_open(path) as fh:
        for name, arr in params.items():
            data = getattr(arr, "data", arr)
            fh.write(f"tensor: {name}\n")
            fh.write(format_tensor(np.asarray(data)))


def load_checkpoint(path: str | os.PathLike) -> dict[str, np.ndarray]:
    lines = _read_lines(path)
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
    with atomic_open(path) as fh:
        fh.write(f"P2\n{h} {w}\n255\n")
        for row in pixels:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")
