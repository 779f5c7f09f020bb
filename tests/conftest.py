import numpy as np
import pytest

from sfinet.gradcheck import check_grad


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def assert_grads_match(build_loss, params, tol=1e-4, step=1e-5):
    """Analytic vs central-finite-difference gradients for named leaves."""
    errs = check_grad(build_loss, params, step=step)
    bad = {k: v for k, v in errs.items() if v >= tol}
    assert not bad, f"gradient mismatch: {bad}"


def loop_patch_indices(w, h, stride):
    """The source rows of a (w, h) grid's stride patches, one patch per row, by explicit loops.

    Patches run in row-major patch order and each patch's (di, dj) taps
    row-major; rows of the grid are its cells in row-major order.
    """
    out = []
    for i in range(w // stride):
        for j in range(h // stride):
            out.append([(i * stride + di) * h + (j * stride + dj)
                        for di in range(stride) for dj in range(stride)])
    return np.asarray(out, dtype=np.intp)
