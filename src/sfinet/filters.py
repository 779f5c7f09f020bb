"""Multi-level feature filtering: ambiguity drop followed by noise drop.

A stage arrives as ``(S, C)`` feature rows, one per position of its grid
in row-major order, and every per-position value here is flat over those
S rows: class maps ``(S, N)``, the ambiguity map, mask and noise scores
``(S,)``.  The grid itself lives only in the backbone and the exporter.

Per stage, features are projected onto per-pixel class maps; the top-k
most likely classes vote (with an equally spaced weight schedule) for an
ambiguity map whose highest-scoring fraction gamma1 of positions gets
zeroed.  A channel-average score over the surviving class maps then keeps
the highest-activation (1 - gamma2) fraction of positions, whose feature
rows feed the rest of the network together with an auxiliary
cross-entropy on their per-stage mean.

Rank selections are frozen at forward time: selection takes arrays and
returns indices (:func:`noise_select`), and gradients flow only through
the kept feature rows, the stage's one tape node, which :func:`filter_stage`
gathers from the features (:func:`gather_kept_rows`).  Everything that
only feeds a ranking or an export (the class maps, the coarse prediction,
the ambiguity map, the mask, the masked class maps and the noise scores)
is a plain float64 array, and the indices are ``intp`` arrays.  Each
value but the 0/1 mask is checked where it is made (``T.checked``): a NaN
or Inf still raises ``NonFiniteError`` naming the value, but it makes no
tape node.  The class-map projection therefore gets no gradient from the
loss, only weight decay, and no ranking depends on its scale.  All
tie-breaks are by lower row index so results are totally ordered and
reproducible; the kept indices come from one stable argsort, so they
never repeat.

With the filters bypassed the mask is all ones and every row is kept, so
the kept rows are the features tensor itself and a forward reads nothing
else from the filter pass: the model then runs no filter pass, and an
export that wants a stage's maps runs :func:`filter_stage` for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import tensor as T
from .tensor import ConfigError, Tensor


@dataclass(frozen=True)
class AmbiguityParams:
    """Top-k vote count, weight schedule limits, and drop ratio gamma1."""
    k: int = 4
    beta_h: float = 1.1
    beta_l: float = 0.95
    gamma1: float = 0.1

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError(f"ambiguity: k must be >= 2, got {self.k}")
        if not math.inf > self.beta_h > self.beta_l > 0:
            raise ConfigError("ambiguity.beta_h and ambiguity.beta_l must be finite with "
                              f"beta_h > beta_l > 0, got {self.beta_h}, {self.beta_l}")
        if not 0.0 < self.gamma1 < 1.0:
            raise ConfigError(f"ambiguity: gamma1 must lie in (0, 1), got {self.gamma1}")

    @cached_property
    def weights(self) -> np.ndarray:
        """The top-k vote weights, beta_h down to beta_l in k equal steps (read-only)."""
        w = np.linspace(self.beta_h, self.beta_l, self.k)
        w.flags.writeable = False
        return w


@dataclass(frozen=True)
class NoiseParams:
    """Noise drop ratio gamma2; the kept count is floor((1 - gamma2) * S)."""
    gamma2: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.gamma2 < 1.0:
            raise ConfigError(f"noise: gamma2 must lie in (0, 1), got {self.gamma2}")


def kept_rows(s: int, gamma: float) -> int:
    """Positions a filter keeps of ``s`` when it drops the fraction ``gamma``.

    floor((1 - gamma) * s): the ambiguity mask's ones for gamma1, the noise
    filter's rows for gamma2.
    """
    return math.floor((1.0 - gamma) * s)


def _ambiguity_keep(s: int, gamma1: float, where: str) -> int:
    """The ambiguity mask's keep count, rejected unless it drops some but not all."""
    keep = kept_rows(s, gamma1)
    if keep <= 0 or keep >= s:
        raise ConfigError(f"{where}: gamma1={gamma1} keeps {keep} of {s} positions (degenerate)")
    return keep


def validate_filter_ratios(amb: AmbiguityParams, noise: NoiseParams,
                           stage_shapes: Sequence[tuple[int, int, int]]) -> None:
    """Cross-checks that depend on the stage extents.

    gamma1 <= gamma2 guarantees the noise filter can always pick its
    quota from positions the ambiguity mask preserved.
    """
    if amb.gamma1 > noise.gamma2:
        raise ConfigError(f"gamma1 ({amb.gamma1}) must not exceed gamma2 ({noise.gamma2})")
    for i, (w, h, _) in enumerate(stage_shapes):
        s = w * h
        _ambiguity_keep(s, amb.gamma1, f"stage {i}")
        if kept_rows(s, noise.gamma2) < 1:
            raise ConfigError(f"stage {i}: gamma2={noise.gamma2} keeps no positions of {s}")


class FilterArtifacts(NamedTuple):
    """Everything one stage's filter pass produces, kept for export.

    ``maps`` are the per-row class scores M, shape (S, N), and ``coarse``
    their pooled prediction p; the ambiguity map, mask and noise scores
    are (S,).  Invariants: the mask has exactly floor((1 - gamma1) * S)
    ones; selected_indices has floor((1 - gamma2) * S) row indices, each
    at a mask=1 row, in descending noise-score order (with the filters
    bypassed: S ones and every row in order).  Every value is a float64
    array, the indices ``intp``, except selected_features, the one tensor
    on the tape.
    """
    maps: np.ndarray
    coarse: np.ndarray
    topk_indices: np.ndarray
    weights: np.ndarray
    ambiguity_map: np.ndarray
    mask: np.ndarray
    masked_maps: np.ndarray
    noise_scores: np.ndarray
    selected_indices: np.ndarray
    selected_features: Tensor


def class_maps(features: np.ndarray, projection: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project (S, C) feature rows onto class channels, M (S, N), and pool them to p (N,)."""
    if features.ndim != 2 or projection.ndim != 2 or projection.shape[0] != features.shape[1]:
        raise T.ShapeError(f"class_maps: projection {projection.shape} does not fit feature rows {features.shape}")
    maps = T.checked(features @ projection, "class_maps")
    return maps, T.checked(np.add.reduce(maps, 0) / maps.shape[0], "coarse_pool")


def topk_weights(coarse: np.ndarray, params: AmbiguityParams) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the k highest coarse scores and their weight schedule.

    Weights run from beta_h down to beta_l in k equal steps; score ties
    resolve to the lower class index.
    """
    if params.k > coarse.size:
        raise ConfigError(f"topk_weights: k={params.k} exceeds {coarse.size} classes")
    return (-coarse).argsort(kind="stable")[: params.k], params.weights


def ambiguity_map(maps: np.ndarray, topk_indices: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted average of the selected class map columns, (1/k) sum w_i T_i, shape (S,)."""
    k = len(topk_indices)
    combo = maps[:, topk_indices] @ weights.reshape(k, 1)
    return T.checked(((1.0 / k) * combo).ravel(), "ambiguity_map")


def ambiguity_mask(scores: np.ndarray, gamma1: float) -> np.ndarray:
    """Binary keep-mask: drop the gamma1 fraction with the highest scores.

    ``scores`` are (S,), one per row.  Rows are ranked by ascending score
    (rank 0 = least ambiguous, ties by lower row) and kept while rank <
    floor((1 - gamma1) * S).
    """
    keep = _ambiguity_keep(scores.size, gamma1, "ambiguity_mask")
    mask = np.zeros(scores.size)
    mask[scores.argsort(kind="stable")[:keep]] = 1.0
    return mask


def apply_mask(mask: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Zero dropped positions in the class maps, which feed the noise scores alone.

    The features need no masking: every row the noise filter keeps has
    mask 1, so the kept rows are gathered from the features as they are.
    """
    return T.checked(maps * mask[:, None], "masked_maps")


def noise_scores(masked_maps: np.ndarray) -> np.ndarray:
    """(S,) channel-average of the masked class maps, one score per row."""
    return T.checked(np.add.reduce(masked_maps, 1) / masked_maps.shape[1], "noise_scores")


def gather_kept_rows(features: Tensor, indices: np.ndarray) -> Tensor:
    """The rows ``features[indices]``, for ``(M,)`` indices that never repeat.

    The filters' indices come from one stable argsort, so each source row
    takes at most one gradient row: the backward assigns it into a zero
    buffer, the bits :func:`tensor.gather_rows`' scatter-add gives.
    """
    def bw(g):
        ga = np.zeros_like(features.data)
        ga[indices] = g
        T.accumulate(features, ga)

    return T.node(features.data.take(indices, 0), (features,), bw, "gather_kept_rows")


def noise_select(scores: np.ndarray, gamma2: float, keep_mask: np.ndarray) -> np.ndarray:
    """Indices of the floor((1 - gamma2) * S) highest of the (S,) noise scores.

    ``scores`` come from :func:`noise_scores`; ambiguity-dropped positions
    score exactly 0 there.  Only mask=1 positions of ``keep_mask`` are
    candidates, which guarantees every selected index survived the
    ambiguity drop even if live scores go negative.  Ties resolve to the
    lower row; the ``intp`` indices are in descending-score order.
    """
    s_keep = kept_rows(scores.size, gamma2)
    if s_keep < 1:
        raise ConfigError(f"noise_select: gamma2={gamma2} keeps no positions of {scores.size}")
    candidates = (keep_mask > 0.5).nonzero()[0]
    if candidates.size < s_keep:
        raise ConfigError(f"noise_select: only {candidates.size} unmasked positions for quota {s_keep}")
    order = (-scores.take(candidates)).argsort(kind="stable")
    return candidates.take(order[:s_keep])


def filter_stage(features: Tensor, projection: Tensor, amb: AmbiguityParams,
                 noise: NoiseParams, bypass: bool = False) -> FilterArtifacts:
    """Run one stage through both filters, computing every value in selection order.

    ``features`` are the stage's (S, C) rows.  The kept rows are the
    stage's one tape node, gathered here; with ``bypass`` the mask is all
    ones and every row is kept in order, so they are the features tensor
    itself.  Every other value is computed as with the filters on.
    """
    maps, coarse = class_maps(features.data, projection.data)
    topk, weights = topk_weights(coarse, amb)
    amb_map = ambiguity_map(maps, topk, weights)
    mask = np.ones(amb_map.size) if bypass else ambiguity_mask(amb_map, amb.gamma1)
    masked_maps = apply_mask(mask, maps)
    scores = noise_scores(masked_maps)
    if bypass:
        chosen, selected = np.arange(scores.size), features
    else:
        chosen = noise_select(scores, noise.gamma2, mask)
        selected = gather_kept_rows(features, chosen)
    return FilterArtifacts(maps, coarse, topk, weights, amb_map, mask, masked_maps,
                           scores, chosen, selected)


def filter_loss(selected_per_stage: Sequence[Tensor], classifiers: Sequence[Tensor],
                label: int, n_classes: int) -> Tensor:
    """Cross-entropy on the per-stage mean of the preserved feature rows.

    Each stage has its own linear classifier (channel depths differ);
    stage losses sum, so uniform predictions give L * ln(N).
    """
    if not 0 <= label < n_classes:
        raise ConfigError(f"filter_loss: label {label} outside 0..{n_classes - 1}")
    return T.add_n([T.cross_entropy(T.pooled_logits(g, cls), label)
                    for g, cls in zip(selected_per_stage, classifiers)])
