"""Dense float64 tensors with taped reverse-mode differentiation.

Every operation allocates a fresh output tensor that records its parent
tensors and a backward closure.  Calling :func:`backward` on a scalar loss
replays the closures in exact reverse execution order, so repeated
backward passes (after a grad reset) are bit-for-bit identical.  Inside a
:func:`no_tape` block the same ops run and nothing is recorded; inference
(evaluation, prediction, map export) runs there.

All arithmetic is float64.  Each op checks its result for NaN/Inf and
raises :class:`NonFiniteError` naming the op, which doubles as the
"first non-finite tensor" diagnostic during training; the check is
mostly one call (see :func:`finite`).  Values that no gradient flows
through stay off the tape: a filter's selection values and the reported
probabilities are plain arrays, each checked where it is made by
:func:`checked`, and an op whose parents need no gradient records no
parents and no backward closure.  A backward hands every parent its
gradient to :func:`accumulate`, the one maker of gradients (``zero_grad``
drops one, and an absent one reads as zero), which drops those of tensors
off the tape; only ``backbone.backbone_stage`` skips one, its input's when
that is the image (the reference primitives keep such guards, as tests call them with constants).

Most of a sample's cost is the Python work per node, so a chain the
model always builds the same way is one op with a hand-written backward:
:func:`pooled_cross_entropy` (mean-pool rows, then a linear head, then
cross-entropy, for a sample's every loss in one stacked pass: one node
and one :func:`log` per loss on the tape, one ``np.log`` call and no
node off it), and one op per layer elsewhere
(``backbone.backbone_stage``; ``concat_stages``,
``talking_head_attention`` and ``gcn_layer`` in ``reconstitution``).
Each computes the chain's numpy expressions and adds into its parents in
the chain's backward order, so values and gradients match the chain bit
for bit; the primitive ops stay as the tests' reference.  Rows that a
chain gathers and never repeats are moved instead, to the same bits: a
backbone stage's patches through a strided view and its inverse, the
filters' kept rows by ``filters.gather_kept_rows``, whose backward
assigns where :func:`gather_rows` scatter-adds.  An expression two
callers need is an array helper both call (:func:`tanh_grad`,
:func:`softmax_values`, :func:`softmax_grad`, and :func:`pooled_heads`
for the losses and ``reconstitution.classify``).  A fused op's output is
checked by :func:`node`; where a later step of its chain would hide a NaN
or Inf (a tanh maps +-Inf to +-1, a relu or softmax maps -Inf to 0), the
values before that step are checked with :func:`finite` too, and a
failed check raises :func:`chain_error`, naming the fused op and its
first non-finite chain step.  For the same reason a mean on the per-sample
path is written ``np.add.reduce(x, axis) / n``, a sum ``np.add.reduce``
and a max ``np.maximum.reduce`` (the row maxima of a softmax over many
rows one ``np.maximum.reduceat``): the arithmetic of ``x.mean``,
``x.sum`` and ``x.max`` to the bit, without their Python wrappers.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf from finite inputs."""


class GraphError(RuntimeError):
    """Invalid computation graph use (non-scalar loss, cycle, ...)."""


class ConfigError(ValueError):
    """A configuration violates a documented invariant."""


_seq = itertools.count()
_taping = True


class Tensor:
    """N-dimensional float64 array plus an optional gradient.

    For leaves and op outputs alike ``grad`` is None until :func:`accumulate`
    makes it, :meth:`zero_grad` drops it, and an absent gradient reads as
    zero.  ``requires_grad`` propagates from parents, so anything computed
    from a trainable leaf participates in the tape.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward_fn", "_seq_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._seq_id = next(_seq)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        """Drop the gradient; the next :func:`accumulate` makes a fresh one."""
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        flags = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(op={self.op!r}, shape={self.shape}{flags})"


def node(data: np.ndarray, parents: Sequence[Tensor],
         backward_fn: Callable[[np.ndarray], None] | None, op: str) -> Tensor:
    """Create an op output tensor; the extension point for custom ops.

    ``backward_fn`` receives the output gradient and must accumulate into
    the parents via :func:`accumulate`.  Parents are only recorded when at
    least one of them requires grad and no :func:`no_tape` block is open,
    so constant subgraphs and inference forwards stay leaves.

    The output is checked with :func:`checked`.
    """
    arr = checked(np.asarray(data, dtype=np.float64), op)
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.grad = None
    out.op = op
    out._seq_id = next(_seq)
    if _taping:
        for p in parents:
            if p.requires_grad:
                out.requires_grad, out._parents, out._backward_fn = True, tuple(parents), backward_fn
                return out
    out.requires_grad, out._parents, out._backward_fn = False, (), None
    return out


@contextmanager
def no_tape():
    """Run ops without recording them: every node made inside is a leaf.

    For forwards whose result is only read, never differentiated.  The
    ops compute the same values; the previous state comes back on exit,
    also when the block raises.
    """
    global _taping
    previous, _taping = _taping, False
    try:
        yield
    finally:
        _taping = previous


def finite(arr: np.ndarray) -> bool:
    """Whether every element of ``arr`` is finite, exactly and mostly in one call.

    Squares are never negative, so a NaN or +-Inf element makes the sum of
    squares NaN or +Inf, and a finite sum proves every element finite.  An
    all-finite array can still give +Inf when its squares add up past the
    float maximum (any element above 1.4e154 does); only then does
    ``np.isfinite`` run, and it decides.  A 0-d array, such as a loss, is
    one number, which ``math.isfinite`` checks exactly without the dot
    product's call overhead.
    """
    if not arr.ndim:
        return math.isfinite(arr)
    return math.isfinite(np.vdot(arr, arr)) or bool(np.isfinite(arr).all())


def checked(arr: np.ndarray, op: str) -> np.ndarray:
    """``arr`` itself once :func:`finite` holds, else the error naming the op that made it."""
    if not finite(arr):
        raise NonFiniteError(f"op '{op}' produced non-finite values")
    return arr


def chain_error(op: str, steps: Sequence[tuple[str, np.ndarray]]) -> NonFiniteError:
    """The error fused op ``op`` raises: it names ``op`` and the first chain step not all finite.

    A fused op calls this once one of its checks has failed, with the
    chain's intermediate values in creation order and the failed value
    last, so the step named is the op the primitive chain would have raised.
    """
    for step, arr in steps:
        if not np.isfinite(arr).all():
            break
    return NonFiniteError(f"op '{op}' (chain step '{step}') produced non-finite values")


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``; a no-op for a tensor off the tape.

    The one maker of gradients, for parameters and op outputs alike: the
    first is stored as ``g + 0.0``, a fresh array equal bit for bit to
    ``0.0 + g`` (-0.0 becomes +0.0).  Backwards leave the tape test to this.
    """
    if t.requires_grad:
        if t.grad is None:
            t.grad = g + 0.0
        else:
            t.grad += g


class CompGraph:
    """The executed-op record reachable from one output tensor.

    ``nodes`` is in execution order (creation sequence), which is a
    topological order by construction: an op tensor is always created
    after its inputs.  Backward walks ``nodes`` in reverse.
    """

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def from_output(cls, out: Tensor) -> "CompGraph":
        """Every requires_grad tensor reachable from ``out``, in creation order.

        A parent is always created before its child, so a parent whose
        ``_seq_id`` is not smaller than its child's can only come from a
        corrupted tape with a cycle.
        """
        collected = {id(out): out}
        stack = [out]
        while stack:
            t = stack.pop()
            for p in t._parents:
                if not p.requires_grad:
                    continue
                if p._seq_id >= t._seq_id:
                    raise GraphError("cycle detected in computation graph")
                if id(p) not in collected:
                    collected[id(p)] = p
                    stack.append(p)
        return cls(sorted(collected.values(), key=lambda t: t._seq_id))


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(tensor) into every requires_grad ancestor.

    The loss is seeded through :func:`accumulate`, and an absent gradient
    reads as zero.  Gradients accumulate; call ``zero_grad`` on leaves
    between passes.  Discrete selections (masks, gather indices) were
    frozen at forward time, so gradients flow only through the gathered values.
    """
    if loss.ndim != 0:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise GraphError("loss does not depend on any requires_grad tensor")
    graph = CompGraph.from_output(loss)
    accumulate(loss, np.ones_like(loss.data))
    for t in reversed(graph.nodes):
        if t._backward_fn is not None:
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            t._backward_fn(g)


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")

    def bw(g):
        accumulate(a, g)
        accumulate(b, g)

    return node(a.data + b.data, (a, b), bw, "add")


def add_n(ts: Sequence[Tensor]) -> Tensor:
    if not ts:
        raise ShapeError("add_n: empty operand list")
    shape = ts[0].shape
    for t in ts[1:]:
        if t.shape != shape:
            raise ShapeError(f"add_n: shapes {shape} and {t.shape} differ")

    def bw(g):
        for t in ts:
            accumulate(t, g)

    total = ts[0].data.copy()
    for t in ts[1:]:
        total += t.data
    return node(total, tuple(ts), bw, "add_n")


def add_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """Add a length-C vector to every row of an (R, C) matrix."""
    if a.ndim != 2 or v.ndim != 1 or a.shape[1] != v.shape[0]:
        raise ShapeError(f"add_rowvec: shapes {a.shape} and {v.shape} incompatible")

    def bw(g):
        accumulate(a, g)
        accumulate(v, g.sum(axis=0))

    return node(a.data + v.data[None, :], (a, v), bw, "add_rowvec")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bw(g):
        accumulate(a, c * g)

    return node(c * a.data, (a,), bw, "scale")


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; ``b`` may be a (W, H) mask against (W, H, C)."""
    if a.shape == b.shape:
        def bw(g):
            accumulate(a, g * b.data)
            accumulate(b, g * a.data)

        return node(a.data * b.data, (a, b), bw, "hadamard")
    if a.ndim >= 1 and b.shape == a.shape[:-1]:
        mask = b.data[..., None]

        def bw(g):
            accumulate(a, g * mask)
            accumulate(b, (g * a.data).sum(axis=-1))

        return node(a.data * mask, (a, b), bw, "hadamard")
    raise ShapeError(f"hadamard: shapes {a.shape} and {b.shape} incompatible")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not chain")

    def bw(g):
        if a.requires_grad:
            accumulate(a, g @ b.data.T)
        if b.requires_grad:
            accumulate(b, a.data.T @ g)

    return node(a.data @ b.data, (a, b), bw, "matmul")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    old = a.shape

    def bw(g):
        accumulate(a, g.reshape(old))

    return node(a.data.reshape(shape), (a,), bw, "reshape")


def gather_rows(a: Tensor, indices: Sequence[int] | np.ndarray) -> Tensor:
    """Select rows ``a[indices]`` by flat ``(M,)`` indices.

    Backward scatter-adds into the source rows, so repeated indices add
    their gradients.
    """
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: indices of shape {idx.shape} do not fit rows of shape {a.shape}")

    def bw(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            np.add.at(ga, idx, g)
            accumulate(a, ga)

    return node(a.data[idx], (a,), bw, "gather_rows")


def gather_cols(a: Tensor, indices: Sequence[int]) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"gather_cols: need a matrix, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)

    def bw(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            np.add.at(ga, (slice(None), idx), g)
            accumulate(a, ga)

    return node(a.data[:, idx], (a,), bw, "gather_cols")


def concat_rows(ts: Sequence[Tensor]) -> Tensor:
    if not ts:
        raise ShapeError("concat_rows: empty operand list")
    trailing = ts[0].shape[1:]
    for t in ts:
        if t.shape[1:] != trailing:
            raise ShapeError(f"concat_rows: trailing dims {t.shape[1:]} vs {trailing}")
    sizes = [t.shape[0] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            accumulate(t, g[lo:hi])

    return node(np.concatenate([t.data for t in ts], axis=0), tuple(ts), bw, "concat_rows")


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0

    def bw(g):
        accumulate(a, g * keep)

    return node(np.maximum(a.data, 0.0), (a,), bw, "relu")


def tanh_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gradient through ``y = tanh(x)``: ``g * (1 - y**2)``."""
    return g * (1.0 - y * y)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def bw(g):
        accumulate(a, tanh_grad(g, y))

    return node(y, (a,), bw, "tanh")


def log(a: Tensor) -> Tensor:
    """Natural log; a value that is not positive raises the error its -Inf or NaN would."""
    if not (a.data > 0).all():
        raise NonFiniteError("op 'log' produced non-finite values")
    y = np.log(a.data)

    def bw(g):
        accumulate(a, g / a.data)

    return node(y, (a,), bw, "log")


def softmax_values(x: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Max-shifted softmax of an array along ``axis``, in one buffer: ``out`` or a fresh one.

    ``out`` may be ``x`` itself.  Along the last axis of a C-contiguous
    array of many rows the row maxima are one ``np.maximum.reduceat`` over
    the flat rows, which skips ``np.maximum.reduce``'s call per row (one
    row, such as a forward's logits, is cheaper through ``reduce``); a max
    is exact in any order, so the result has the same bits.  The row sums
    stay ``np.add.reduce``, as ``np.add.reduceat`` rounds differently.
    """
    if x.ndim and x.size > x.shape[-1] and axis in (-1, x.ndim - 1) and x.flags.c_contiguous:
        starts = np.arange(0, x.size, x.shape[-1])
        m = np.maximum.reduceat(x.reshape(-1), starts).reshape(*x.shape[:-1], 1)
    else:
        m = np.maximum.reduce(x, axis, keepdims=True)
    y = np.subtract(x, m, out=out)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis, keepdims=True)
    return y


def softmax_grad(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """The gradient through ``y = softmax(x)``: ``y * (g - sum(g * y))`` in one buffer."""
    d = g * y
    np.subtract(g, np.add.reduce(d, axis, keepdims=True), out=d)
    d *= y
    return d


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``; each slice sums to 1."""
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {a.shape}")
    y = softmax_values(a.data, axis)

    def bw(g):
        accumulate(a, softmax_grad(g, y, axis))

    return node(y, (a,), bw, "softmax")


def sum_all(a: Tensor) -> Tensor:
    def bw(g):
        accumulate(a, np.full_like(a.data, float(g)))

    return node(a.data.sum(), (a,), bw, "sum_all")


def pooled_heads(pairs: Sequence[tuple[Tensor, Tensor]]) -> tuple[list[np.ndarray], np.ndarray]:
    """Mean-pool each (rows, head) pair's (R, C) rows through its (C, N) head, in one (P, N) array.

    The pooled head of every forward: :func:`pooled_cross_entropy` takes
    its losses from these logits, and ``reconstitution.classify`` reads
    its one row.  The logits are checked once as ``pooled_logits``.
    Returns each pair's (1, C) pooled row and the logits, plain arrays
    off the tape.
    """
    if not pairs:
        raise ShapeError("pooled_heads: no heads")
    for rows, w in pairs:
        if rows.ndim != 2 or w.ndim != 2 or rows.shape[1] != w.shape[0]:
            raise ShapeError(f"pooled_logits: rows {rows.shape} and head {w.shape} do not chain")
        if rows.shape[0] < 1:
            raise ShapeError("pooled_logits: no rows to pool")
    n = pairs[0][1].shape[1]
    if any(w.shape[1] != n for _, w in pairs):
        raise ShapeError(f"pooled_heads: heads {[w.shape for _, w in pairs]} differ in classes")
    pooled = [np.add.reduce(rows.data, 0, keepdims=True) / rows.shape[0] for rows, _ in pairs]
    logits = np.empty((len(pairs), n))
    for i, (z, (_, w)) in enumerate(zip(pooled, pairs)):
        np.matmul(z, w.data, out=logits[i:i + 1])
    return pooled, checked(logits, "pooled_logits")


def pooled_cross_entropy(pairs: Sequence[tuple[Tensor, Tensor]],
                         label: int) -> tuple[list[Tensor], np.ndarray]:
    """The cross-entropy of each (rows, head) pair's :func:`pooled_heads` logits against one label.

    The max, shift, exponentials and row sums run once over the (P, N)
    stack.  Each loss is -log softmax(logits)[label] via log-sum-exp, so
    it is finite for every finite logit row, however confident: the log's
    argument is the sum of the max-shifted exponentials, which lies in
    [1, N].  On the tape that log is one :func:`log` op per pair, so
    per-op counts and faults injected into ``log`` still see every
    training loss, and each pair makes one node, whose backward is the
    chain's (softmax - onehot, then the pooled head's) in the same numpy
    expressions, so every loss and gradient has the bits of
    ``cross_entropy(pooled_logits(rows, head), label)``.  With no tape open
    only the values are read: all P logs are one ``np.log`` call over the
    sums, which rounds each element as a call on it alone, checked once,
    and the losses are leaves with no op, node or closure.  Returns the P
    losses and the logits, a plain array.
    """
    pooled, logits = pooled_heads(pairs)
    n = logits.shape[1]
    label = int(label)
    if not 0 <= label < n:
        raise ShapeError(f"cross_entropy: label {label} outside 0..{n - 1}")
    shifted = logits - np.maximum.reduce(logits, 1, keepdims=True)
    e = np.exp(shifted)
    totals = np.add.reduce(e, 1)
    if not _taping:  # values only: every log in one call, no op, node or closure
        values = checked(np.log(totals) - shifted[:, label], "pooled_cross_entropy")
        return [Tensor(v) for v in values], logits

    def loss(i: int, rows: Tensor, w: Tensor, z: np.ndarray) -> Tensor:
        def bw(g):
            d = e[i] / totals[i]
            d[label] -= 1.0
            g = (g * d + 0.0)[None]  # the logits' first gradient, as accumulate stores it
            accumulate(rows, np.repeat((g @ w.data.T) / rows.shape[0], rows.shape[0], axis=0))
            accumulate(w, z.T @ g)

        value = log(Tensor(totals[i])).data - shifted[i, label]
        return node(value, (rows, w), bw, "pooled_cross_entropy")

    return [loss(i, rows, w, z) for i, ((rows, w), z) in enumerate(zip(pairs, pooled))], logits


def mean_rows(a: Tensor) -> Tensor:
    """Mean over the leading axis of an (R, C) matrix, giving (C,)."""
    if a.ndim != 2:
        raise ShapeError(f"mean_rows: need a matrix, got shape {a.shape}")
    r = a.shape[0]

    def bw(g):
        accumulate(a, np.broadcast_to(g[None, :] / r, a.shape).copy())

    return node(a.data.mean(axis=0), (a,), bw, "mean_rows")


def global_average_pool(m: Tensor) -> Tensor:
    """(W, H, N) -> (N,): mean over both spatial axes."""
    if m.ndim != 3:
        raise ShapeError(f"global_average_pool: need (W, H, N), got {m.shape}")
    w, h, _ = m.shape
    if w < 1 or h < 1:
        raise ShapeError("global_average_pool: empty spatial extent")

    def bw(g):
        accumulate(m, np.broadcast_to(g[None, None, :] / (w * h), m.shape).copy())

    return node(m.data.mean(axis=(0, 1)), (m,), bw, "global_average_pool")


def channel_average_pool(m: Tensor) -> Tensor:
    """(W, H, N) -> (W, H): mean over the channel axis."""
    if m.ndim != 3:
        raise ShapeError(f"channel_average_pool: need (W, H, N), got {m.shape}")
    n = m.shape[2]

    def bw(g):
        accumulate(m, np.broadcast_to(g[..., None] / n, m.shape).copy())

    return node(m.data.mean(axis=2), (m,), bw, "channel_average_pool")
