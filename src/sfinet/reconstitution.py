"""Semantic reconstitution of the filtered features.

The surviving feature rows from every stage are projected to a common
channel width and concatenated.  A three-tap per-channel reassembly mixes
each row with its sequence neighbors, talking-head self-attention builds
global relations (head outputs are linearly mixed by a trainable H x H
matrix before concatenation), and a one-layer graph convolution with a
trainable dense adjacency re-imposes structure before classification.

Attention uses per-position projections only, so it is permutation
equivariant over rows; the reassembly step deliberately is not.
"""

from __future__ import annotations

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
        if self.channels % self.heads:
            raise ConfigError(f"sir: heads ({self.heads}) must divide channels ({self.channels})")
        if self.gcn_depth < 1:
            raise ConfigError(f"sir: gcn_depth must be >= 1, got {self.gcn_depth}")


@dataclass
class SemanticState:
    """Intermediate values of one reconstitution pass."""
    concatenated: Tensor
    reassembled: Tensor
    attended: Tensor
    attention: Tensor
    reconstituted: Tensor


def concat_stages(selected: list[Tensor], projections: list[Tensor]) -> Tensor:
    """Project each stage's rows to the common width and stack in stage order."""
    if not selected:
        raise T.ShapeError("concat_stages: no stages")
    if len(selected) != len(projections):
        raise T.ShapeError("concat_stages: one projection per stage required")
    parts = []
    for g, proj in zip(selected, projections):
        if g.shape[1] != proj.shape[0]:
            raise T.ShapeError(f"concat_stages: rows {g.shape} vs projection {proj.shape}")
        parts.append(T.matmul(g, proj))
    return T.concat_rows(parts)


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
        accumulate(w_self, (grad * x).sum(axis=0))
        accumulate(w_prev, (grad[1:] * x[:-1]).sum(axis=0))
        accumulate(w_next, (grad[:-1] * x[1:]).sum(axis=0))

    return node(out, (g, w_prev, w_self, w_next), bw, "semantic_reassembly")


def project_heads(x: Tensor, w: Tensor) -> Tensor:
    """Per-head pointwise projection: (S, C) x (H, C, d) -> (H, S, d).

    All heads run as one (S, C) x (C, H * d) product; the output is a
    head-major view of its (S, H, d) result.
    """
    if x.ndim != 2 or w.ndim != 3 or x.shape[1] != w.shape[1]:
        raise T.ShapeError(f"project_heads: shapes {x.shape} and {w.shape} incompatible")
    h, c, d = w.shape
    s = x.shape[0]
    w_all = w.data.transpose(1, 0, 2).reshape(c, h * d)

    def bw(g):
        g_all = g.transpose(1, 0, 2).reshape(s, h * d)
        accumulate(x, g_all @ w_all.T)
        accumulate(w, (x.data.T @ g_all).reshape(c, h, d).transpose(1, 0, 2))

    return node((x.data @ w_all).reshape(s, h, d).transpose(1, 0, 2), (x, w), bw, "project_heads")


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
                           mix: Tensor) -> tuple[Tensor, Tensor]:
    """Multi-head self-attention with cross-head mixing.

    Per head: J_h = softmax(Q K^T / sqrt(d)) V with d = C / H; head
    outputs are mixed by ``mix`` and concatenated along channels.
    Returns (output (S, C), attention weights (H, S, S)).
    """
    c = b.shape[1]
    heads, c_w, d = wq.shape
    if c_w != c or c % heads or d != c // heads:
        raise ConfigError(f"attention: projections {wq.shape} do not split {c} channels into {heads} heads")
    q = project_heads(b, wq)
    k = project_heads(b, wk)
    v = project_heads(b, wv)
    attn = T.softmax(T.scale(pairwise_scores(q, k), 1.0 / np.sqrt(d)), axis=-1)
    mixed = head_mix(attend(attn, v), mix)
    return merge_heads(mixed), attn


def gcn_forward(x: Tensor, adjacency: Tensor, layer_weights: list[Tensor]) -> Tensor:
    """Stacked graph convolutions f <- relu(Ad . f . W_l), shared adjacency."""
    s = x.shape[0]
    if adjacency.shape != (s, s):
        raise T.ShapeError(f"gcn_forward: adjacency {adjacency.shape}, expected ({s}, {s})")
    out = x
    for w in layer_weights:
        out = T.relu(T.matmul(T.matmul(adjacency, out), w))
    return out


def classify(f_rec: Tensor, classifier: Tensor) -> Tensor:
    """Mean-pool the rows and apply the linear head, giving class logits."""
    if f_rec.shape[0] < 1:
        raise T.ShapeError("classify: no feature rows")
    pooled = T.mean_rows(f_rec)
    return T.reshape(T.matmul(T.reshape(pooled, (1, pooled.shape[0])), classifier),
                     (classifier.shape[1],))
