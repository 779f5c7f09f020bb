"""Semantic reconstitution of the filtered features.

The surviving feature rows from every stage are projected to a common
channel width and concatenated.  A three-tap per-channel reassembly mixes
each row with its sequence neighbors, talking-head self-attention builds
global relations (head outputs are linearly mixed by a trainable H x H
matrix before concatenation), and a one-layer graph convolution with a
trainable dense adjacency re-imposes structure before classification.

Attention uses per-position projections only, so it is permutation
equivariant over rows; the reassembly step deliberately is not.

The stage concat, the attention and each GCN layer are one tape op
apiece (:func:`concat_stages`, :func:`talking_head_attention`,
:func:`gcn_layer`).  Each evaluates the numpy expressions of the primitive
chain it replaces (``matmul`` and ``concat_rows``; ``project_heads``
through ``merge_heads``; ``matmul``, ``matmul``, ``relu``) and hands every
parent its gradient in that chain's backward order (``tensor.accumulate``
drops a constant's), so values and gradients are the chain's bit for bit.
Every output is checked for NaN/Inf when its node is made, and so are
the attention scores and the values entering each relu, which the softmax
and the relu would turn from -Inf into 0.  A failed check names the fused
op and the chain step that first went non-finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ConfigError, Tensor, accumulate, node


@dataclass(frozen=True)
class SirConfig:
    """Common channel width, head count, and GCN depth."""
    channels: int = 64
    heads: int = 4
    gcn_depth: int = 1
    adjacency_init: float | None = None  # None -> uniform 1/S

    def __post_init__(self):
        if self.channels < 1:
            raise ConfigError(f"sir.channels must be >= 1, got {self.channels}")
        if self.heads < 1:
            raise ConfigError(f"sir.heads must be >= 1, got {self.heads}")
        if self.adjacency_init is not None and not math.isfinite(self.adjacency_init):
            raise ConfigError(f"sir.adjacency_init must be 'auto' or a finite number, got {self.adjacency_init}")
        if self.channels % self.heads:
            raise ConfigError(f"sir: heads ({self.heads}) must divide channels ({self.channels})")
        if self.gcn_depth < 1:
            raise ConfigError(f"sir: gcn_depth must be >= 1, got {self.gcn_depth}")


def concat_stages(selected: list[Tensor], projections: list[Tensor]) -> Tensor:
    """Project each stage's rows to the common width and stack in stage order."""
    if not selected:
        raise T.ShapeError("concat_stages: no stages")
    if len(selected) != len(projections):
        raise T.ShapeError("concat_stages: one projection per stage required")
    for g, proj in zip(selected, projections):
        if g.shape[1] != proj.shape[0]:
            raise T.ShapeError(f"concat_stages: rows {g.shape} vs projection {proj.shape}")
    parts = [g.data @ proj.data for g, proj in zip(selected, projections)]
    bounds = np.cumsum([0] + [part.shape[0] for part in parts])

    def bw(grad):
        for g, proj, lo, hi in reversed(list(zip(selected, projections, bounds, bounds[1:]))):
            accumulate(g, grad[lo:hi] @ proj.data.T)
            accumulate(proj, g.data.T @ grad[lo:hi])

    try:
        return node(np.concatenate(parts, axis=0), (*selected, *projections), bw, "concat_stages")
    except T.NonFiniteError:
        raise T.chain_error("concat_stages", [("matmul", part) for part in parts]) from None


def semantic_reassembly(g: Tensor, w_prev: Tensor, w_self: Tensor, w_next: Tensor) -> Tensor:
    """Per-channel three-tap mix of each row with its neighbors.

    B_i = w_prev * G_{i-1} + w_self * G_i + w_next * G_{i+1}, with zero
    rows past either end.  Each tap weight is a length-C vector.
    """
    s, c = g.shape
    for w in (w_prev, w_self, w_next):
        if w.shape != (c,):
            raise T.ShapeError(f"semantic_reassembly: tap weight {w.shape}, expected ({c},)")
    x = g.data
    out = x * w_self.data[None, :]
    out[1:] += x[:-1] * w_prev.data[None, :]
    out[:-1] += x[1:] * w_next.data[None, :]

    def bw(grad):
        gx = grad * w_self.data[None, :]
        gx[:-1] += grad[1:] * w_prev.data[None, :]
        gx[1:] += grad[:-1] * w_next.data[None, :]
        accumulate(g, gx)
        accumulate(w_self, np.add.reduce(grad * x, 0))
        accumulate(w_prev, np.add.reduce(grad[1:] * x[:-1], 0))
        accumulate(w_next, np.add.reduce(grad[:-1] * x[1:], 0))

    return node(out, (g, w_prev, w_self, w_next), bw, "semantic_reassembly")


def _heads(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S, C) rows through (H, C, d) head weights: the (H, S, d) heads and the (C, H * d) weights.

    All heads run as one (S, C) x (C, H * d) product; the heads are a
    head-major view of its (S, H, d) result.
    """
    h, c, d = w.shape
    w_all = w.transpose(1, 0, 2).reshape(c, h * d)
    return (x @ w_all).reshape(x.shape[0], h, d).transpose(1, 0, 2), w_all


def _heads_grad(g: np.ndarray, x: np.ndarray, w_all: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (S, C) and (H, C, d) gradients of :func:`_heads` from the (H, S, d) one."""
    h, s, d = g.shape
    g_all = g.transpose(1, 0, 2).reshape(s, h * d)
    return g_all @ w_all.T, (x.T @ g_all).reshape(x.shape[1], h, d).transpose(1, 0, 2)


def project_heads(x: Tensor, w: Tensor) -> Tensor:
    """Per-head pointwise projection: (S, C) x (H, C, d) -> (H, S, d)."""
    if x.ndim != 2 or w.ndim != 3 or x.shape[1] != w.shape[1]:
        raise T.ShapeError(f"project_heads: shapes {x.shape} and {w.shape} incompatible")
    out, w_all = _heads(x.data, w.data)

    def bw(g):
        gx, gw = _heads_grad(g, x.data, w_all)
        accumulate(x, gx)
        accumulate(w, gw)

    return node(out, (x, w), bw, "project_heads")


def pairwise_scores(q: Tensor, k: Tensor) -> Tensor:
    """Per-head dot products: (H, S, d) x (H, S, d) -> (H, S, S)."""
    if q.shape != k.shape or q.ndim != 3:
        raise T.ShapeError(f"pairwise_scores: shapes {q.shape} and {k.shape} incompatible")

    def bw(g):
        accumulate(q, g @ k.data)
        accumulate(k, g.transpose(0, 2, 1) @ q.data)

    return node(q.data @ k.data.transpose(0, 2, 1), (q, k), bw, "pairwise_scores")


def attend(weights: Tensor, v: Tensor) -> Tensor:
    """Apply attention weights: (H, S, S) x (H, S, d) -> (H, S, d)."""
    if weights.ndim != 3 or v.ndim != 3 or weights.shape[2] != v.shape[1]:
        raise T.ShapeError(f"attend: shapes {weights.shape} and {v.shape} incompatible")

    def bw(g):
        accumulate(weights, g @ v.data.transpose(0, 2, 1))
        accumulate(v, weights.data.transpose(0, 2, 1) @ g)

    return node(weights.data @ v.data, (weights, v), bw, "attend")


def head_mix(j: Tensor, u: Tensor) -> Tensor:
    """Mix head outputs: O_h = sum_h' U[h, h'] J_h'."""
    heads = j.shape[0]
    if u.shape != (heads, heads):
        raise T.ShapeError(f"head_mix: mixing matrix {u.shape}, expected ({heads}, {heads})")
    flat = j.data.reshape(heads, -1)

    def bw(g):
        g_flat = g.reshape(heads, -1)
        accumulate(j, (u.data.T @ g_flat).reshape(j.shape))
        accumulate(u, g_flat @ flat.T)

    return node((u.data @ flat).reshape(j.shape), (j, u), bw, "head_mix")


def merge_heads(o: Tensor) -> Tensor:
    """(H, S, d) -> (S, H * d), heads laid out contiguously per row."""
    h, s, d = o.shape

    def bw(g):
        accumulate(o, g.reshape(s, h, d).transpose(1, 0, 2))

    return node(o.data.transpose(1, 0, 2).reshape(s, h * d), (o,), bw, "merge_heads")


def talking_head_attention(b: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                           mix: Tensor) -> tuple[Tensor, np.ndarray]:
    """Multi-head self-attention with cross-head mixing.

    Per head: J_h = softmax(Q K^T / sqrt(d)) V with d = C / H; head
    outputs are mixed by ``mix`` and concatenated along channels.
    Returns (output (S, C), attention weights (H, S, S)); the weights are
    a plain array off the tape, kept for export, and read-only, since the
    backward reads the same buffer.  ``b`` receives its three
    gradient terms in the chain's order: v's projection, k's, then q's.
    """
    if b.ndim != 2 or wq.ndim != 3 or not wq.shape == wk.shape == wv.shape:
        raise T.ShapeError(f"attention: rows {b.shape} and projections {wq.shape}, {wk.shape}, "
                           f"{wv.shape} incompatible")
    s, c = b.shape
    heads, c_w, d = wq.shape
    if c_w != c or c % heads or d != c // heads:
        raise ConfigError(f"attention: projections {wq.shape} do not split {c} channels into {heads} heads")
    if mix.shape != (heads, heads):
        raise T.ShapeError(f"head_mix: mixing matrix {mix.shape}, expected ({heads}, {heads})")
    (q, wq_all), (k, wk_all), (v, wv_all) = (_heads(b.data, w.data) for w in (wq, wk, wv))
    scale = 1.0 / np.sqrt(d)
    scores = q @ k.transpose(0, 2, 1)
    scores *= scale
    if not T.finite(scores):
        raise T.chain_error("talking_head_attention",
                            [("project_heads", q), ("project_heads", k), ("project_heads", v),
                             ("pairwise_scores", scores)])
    weights = T.softmax_values(scores, -1, out=scores)
    weights.flags.writeable = False
    attended = weights @ v
    flat = attended.reshape(heads, -1)
    mixed = mix.data @ flat
    out = mixed.reshape(heads, s, d).transpose(1, 0, 2).reshape(s, c)

    def bw(g):
        g_flat = g.reshape(s, heads, d).transpose(1, 0, 2).reshape(heads, -1)
        g_att = (mix.data.T @ g_flat).reshape(heads, s, d)
        accumulate(mix, g_flat @ flat.T)
        g_scores = T.softmax_grad(g_att @ v.transpose(0, 2, 1), weights, -1)
        g_scores *= scale
        grads = ((wv, wv_all, weights.transpose(0, 2, 1) @ g_att),
                 (wk, wk_all, g_scores.transpose(0, 2, 1) @ q),
                 (wq, wq_all, g_scores @ k))
        for w, w_all, g_head in grads:
            gb, gw = _heads_grad(g_head, b.data, w_all)
            accumulate(b, gb)
            accumulate(w, gw)

    try:
        result = node(out, (b, wq, wk, wv, mix), bw, "talking_head_attention")
    except T.NonFiniteError:
        # q, k and the scores have passed their check
        raise T.chain_error("talking_head_attention",
                            [("project_heads", v), ("softmax", weights), ("attend", attended),
                             ("head_mix", mixed), ("merge_heads", out)]) from None
    return result, weights


def gcn_layer(x: Tensor, adjacency: Tensor, w: Tensor) -> Tensor:
    """One graph convolution, ``relu(adjacency @ x @ w)``."""
    s = x.shape[0]
    if adjacency.shape != (s, s):
        raise T.ShapeError(f"gcn_layer: adjacency {adjacency.shape}, expected ({s}, {s})")
    if w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise T.ShapeError(f"gcn_layer: rows {x.shape} and weight {w.shape} do not chain")
    ax = adjacency.data @ x.data
    pre = ax @ w.data
    if not T.finite(pre):
        raise T.chain_error("gcn_layer", [("matmul", ax), ("matmul", pre)])
    keep = pre > 0

    def bw(g):
        g = g * keep
        accumulate(w, ax.T @ g)
        g = g @ w.data.T
        accumulate(adjacency, g @ x.data.T)
        accumulate(x, adjacency.data.T @ g)

    return node(np.maximum(pre, 0.0), (x, adjacency, w), bw, "gcn_layer")


def gcn_forward(x: Tensor, adjacency: Tensor, layer_weights: list[Tensor]) -> Tensor:
    """Stacked graph convolutions f <- relu(Ad . f . W_l), shared adjacency."""
    out = x
    for w in layer_weights:
        out = gcn_layer(out, adjacency, w)
    return out


def classify(f_rec: Tensor, classifier: Tensor) -> np.ndarray:
    """Mean-pool the rows and apply the linear head: the (N,) class logits, a checked array.

    The head pass of the labelled forward's losses (``tensor.pooled_heads``)
    for this one pair, so it makes no tape node.
    """
    return T.pooled_heads([(f_rec, classifier)])[1][0]
