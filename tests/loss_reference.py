"""Per-loss reference: one cross-entropy node per loss, after its own pooled head.

``pooled_logits`` and ``cross_entropy`` are the ops that
``tensor.pooled_cross_entropy`` replaced, kept as the oracle it must
match byte for byte: each of the stacked op's losses and parent
gradients equals that of ``cross_entropy(pooled_logits(rows, head),
label)`` for its pair alone.  ``pooled_logits`` also stands for the
chain ``mean_rows -> reshape -> matmul -> reshape`` it replaced before.
"""

import numpy as np

from sfinet import tensor as T
from sfinet.tensor import ShapeError, Tensor


def pooled_logits(rows: Tensor, w: Tensor) -> Tensor:
    """Mean-pool (R, C) rows and apply a (C, N) linear head, giving (N,) logits.

    One op for ``mean_rows -> reshape -> matmul -> reshape``, with the
    same numpy expressions, so its values and gradients are those of the
    chain to the bit.
    """
    if rows.ndim != 2 or w.ndim != 2 or rows.shape[1] != w.shape[0]:
        raise ShapeError(f"pooled_logits: rows {rows.shape} and head {w.shape} do not chain")
    if rows.shape[0] < 1:
        raise ShapeError("pooled_logits: no rows to pool")
    z = (np.add.reduce(rows.data, 0) / rows.shape[0])[None]

    def bw(g):
        g = g[None]
        T.accumulate(rows, np.repeat((g @ w.data.T) / rows.shape[0], rows.shape[0], axis=0))
        T.accumulate(w, z.T @ g)

    return T.node((z @ w.data)[0], (rows, w), bw, "pooled_logits")


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """-log softmax(logits)[label] via log-sum-exp; gradient softmax - onehot.

    Finite for every finite logit vector, however confident: the log's
    argument is the sum of the max-shifted exponentials, which lies in
    [1, N].  That log is taken through the ``log`` op.
    """
    if logits.ndim != 1:
        raise ShapeError(f"cross_entropy: need a logit vector, got shape {logits.shape}")
    label = int(label)
    if not 0 <= label < logits.shape[0]:
        raise ShapeError(f"cross_entropy: label {label} outside 0..{logits.shape[0] - 1}")
    shifted = logits.data - np.maximum.reduce(logits.data)
    e = np.exp(shifted)
    total = np.add.reduce(e)

    def bw(g):
        d = e / total
        d[label] -= 1.0
        T.accumulate(logits, g * d)

    return T.node(T.log(Tensor(total)).data - shifted[label], (logits,), bw, "cross_entropy")


def pooled_cross_entropy(pairs, label: int) -> list[Tensor]:
    """Each pair's loss as the two-op chain ``cross_entropy(pooled_logits(rows, head), label)``."""
    return [cross_entropy(pooled_logits(rows, head), label) for rows, head in pairs]
