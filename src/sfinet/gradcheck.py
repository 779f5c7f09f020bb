"""Central finite-difference gradient checking.

The numeric route only re-evaluates forward passes, so it is independent
of every backward rule it is used to check.  Relative error is
``|analytic - numeric| / max(1, |numeric|)`` elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tensor import Tensor

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-3


def finite_diff_grad(f: Callable[[], float], arr: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Central differences of scalar ``f()`` w.r.t. every entry of ``arr``.

    ``arr`` is perturbed in place and restored, so ``f`` must read it on
    every call (which holds for forward passes over leaf tensors).  Each
    entry is indexed in ``arr`` itself, so a non-contiguous view, such as
    a transposed leaf, is perturbed too.
    """
    grad = np.zeros_like(arr)
    for i in np.ndindex(arr.shape):
        orig = arr[i]
        arr[i] = orig + step
        hi = f()
        arr[i] = orig - step
        lo = f()
        arr[i] = orig
        grad[i] = (hi - lo) / (2.0 * step)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    return float(err.max()) if err.size else 0.0


def check_grad(build_loss: Callable[[], Tensor], params: dict[str, Tensor],
               step: float = DEFAULT_STEP) -> dict[str, float]:
    """Worst relative error per named parameter of ``build_loss``.

    ``build_loss`` must construct a fresh scalar loss from the given leaf
    tensors each time it is called.
    """
    loss = build_loss()
    for p in params.values():
        p.zero_grad()
    loss.zero_grad()
    loss.backward()
    analytic = {name: p.grad.copy() for name, p in params.items()}

    def value() -> float:
        return build_loss().item()

    errs = {}
    for name, p in params.items():
        numeric = finite_diff_grad(value, p.data, step=step)
        errs[name] = max_rel_err(analytic[name], numeric)
    return errs


@dataclass
class CheckRow:
    """One parameter tensor's gradient-check outcome."""
    name: str
    module: str
    shape: tuple[int, ...]
    max_rel_err: float
    passed: bool


def check_model(model, image: np.ndarray, label: int, xi: float,
                step: float = DEFAULT_STEP, tol: float = DEFAULT_TOL) -> list[CheckRow]:
    """Check every trainable tensor of a full model against the total loss."""
    from .train import total_loss

    params = model.parameters()

    def build() -> Tensor:
        res = model.forward(image, label)
        return total_loss(res.filter_loss, res.class_loss, xi)

    errs = check_grad(build, params, step=step)
    rows = []
    for name, p in params.items():
        module = name.split(".", 1)[0]
        e = errs[name]
        rows.append(CheckRow(name, module, p.shape, e, e < tol))
    return rows


def worst_by_module(rows: list[CheckRow]) -> dict[str, float]:
    worst: dict[str, float] = {}
    for r in rows:
        worst[r.module] = max(worst.get(r.module, 0.0), r.max_rel_err)
    return worst
