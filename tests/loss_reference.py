"""Per-loss reference: one cross-entropy node per loss, after its own pooled head.

``cross_entropy`` is the op that ``tensor.pooled_cross_entropy`` replaced,
kept as the oracle it must match byte for byte: each of the stacked op's
losses and parent gradients equals that of
``cross_entropy(pooled_logits(rows, head), label)`` for its pair alone.
"""

import numpy as np

from sfinet import tensor as T
from sfinet.tensor import ShapeError, Tensor


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
    return [cross_entropy(T.pooled_logits(rows, head), label) for rows, head in pairs]
