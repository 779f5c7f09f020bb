"""Central finite-difference gradient checking.

The numeric route only re-evaluates forward passes, so it is independent
of every backward rule it is used to check.  Each tensor is measured at
its own scale, ``max |analytic - numeric| / max(max |numeric|, SCALE_FLOOR)``,
so a gradient wrong by half reads 0.5 whether its entries are near 1 or 1e-5.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import Tensor

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-3
# DEFAULT_STEP's noise, eps * |loss| / step + step**2, is about 1e-10 (at most 1.4e-10
# on `tiny`): on this floor it reads under 1.5e-4, and an error above 1e-9 fails DEFAULT_TOL.
SCALE_FLOOR = 1e-6


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
    """Worst entry error over the tensor's scale, ``max |numeric|`` floored at :data:`SCALE_FLOOR`."""
    scale = max(float(np.abs(numeric).max(initial=0.0)), SCALE_FLOOR)
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def check_grad(build_loss: Callable[[], Tensor], params: dict[str, Tensor],
               step: float = DEFAULT_STEP) -> dict[str, float]:
    """Worst relative error per named parameter of ``build_loss``.

    ``build_loss`` must construct a fresh scalar loss from the given leaf
    tensors each time it is called.  A missing gradient reads as zeros.
    """
    loss = build_loss()
    for p in params.values():
        p.zero_grad()
    loss.backward()

    def value() -> float:  # a forward only: no gradient changes
        return build_loss().item()

    errs = {}
    for name, p in params.items():
        analytic = np.zeros_like(p.data) if p.grad is None else p.grad
        errs[name] = max_rel_err(analytic, finite_diff_grad(value, p.data, step=step))
    return errs


def check_model(model, image: np.ndarray, label: int, xi: float,
                step: float = DEFAULT_STEP) -> dict[str, float]:
    """:func:`check_grad` of every trainable tensor of a full model against its total loss."""
    from .train import total_loss

    def build() -> Tensor:
        res = model.forward(image, label)
        return total_loss(res.filter_loss, res.class_loss, xi)

    return check_grad(build, model.parameters(), step=step)
