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

Rank selections are frozen at forward time: gradients flow only through
the kept feature rows, gathered straight from the stage's features.
Everything that only feeds a ranking or an export (the class maps, the
coarse prediction, the ambiguity map, the masked class maps and the noise
scores) is computed on plain arrays and entered as a checked constant
(``T.node(arr, (), None, op)``): a NaN or Inf still raises
``NonFiniteError`` naming the op, but backward never visits it.  The
class-map projection therefore gets no gradient from the loss, only
weight decay, and no ranking depends on its scale.  All tie-breaks are by
lower row index so results are totally ordered and reproducible.

With the filters on, the forward computes those values because the
selection reads them.  With the filters bypassed nothing in the forward
does, so they are computed when an export first reads them, and a NaN
or Inf among them is reported at that read.
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
        if not self.beta_h > self.beta_l > 0:
            raise ConfigError(f"ambiguity: need beta_h > beta_l > 0, got {self.beta_h}, {self.beta_l}")
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


def kept_rows(s: int, gamma: float, bypass: bool = False) -> int:
    """Positions a filter keeps of ``s`` when it drops the fraction ``gamma``.

    floor((1 - gamma) * s): the ambiguity mask's ones for gamma1, the noise
    filter's rows for gamma2.  With the filters bypassed every position is
    kept.
    """
    if bypass:
        return s
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


class NoiseSelection(NamedTuple):
    indices: list[int]
    selected: Tensor
    scores: Tensor


class FilterArtifacts:
    """Everything one stage's filter pass produces, kept for export.

    ``maps`` are the per-row class scores M, shape (S, N), and ``coarse``
    their pooled prediction p; the ambiguity map, mask and noise scores
    are (S,).  Invariants: the mask has exactly floor((1 - gamma1) * S)
    ones; selected_indices has floor((1 - gamma2) * S) row indices, each
    at a mask=1 row, in descending noise-score order.  Only
    selected_features is on the tape.

    With the filters on, every value is computed here, in the order the
    selection reads them.  With ``bypass`` the kept rows are the features
    tensor itself and no other value feeds the forward, so the rest
    (maps, coarse, topk_indices, weights, ambiguity_map, mask,
    masked_maps, noise_scores, selected_indices) are computed together
    when the first of them is read.  They come from the feature and
    projection arrays of the forward, which an optimizer step leaves as
    they were (it rebinds a parameter's ``.data``).  A NaN or Inf among
    them raises ``NonFiniteError`` at that read, not in the forward.
    """
    maps: Tensor
    coarse: Tensor
    topk_indices: list[int]
    weights: np.ndarray
    ambiguity_map: Tensor
    mask: Tensor
    masked_maps: Tensor
    noise_scores: Tensor
    selected_indices: list[int]
    selected_features: Tensor

    def __init__(self, features: Tensor, projection: Tensor, amb: AmbiguityParams,
                 noise: NoiseParams, bypass: bool):
        self._inputs = (features.data, projection.data, amb, noise.gamma2)
        if bypass:
            self.selected_features = features
        else:
            self._filter(features)

    def __getattr__(self, name: str):
        # reached only for a value not set yet: a deferred bypass value
        if name not in FilterArtifacts.__annotations__:
            raise AttributeError(name)
        self._filter(None)
        return self.__dict__[name]

    def _filter(self, features: Tensor | None) -> None:
        """Compute every value; ``features`` is None when the filters are bypassed."""
        rows, projection, amb, gamma2 = self._inputs
        maps, coarse = class_maps(rows, projection)
        topk, weights = topk_weights(coarse, amb)
        amb_map = ambiguity_map(maps, topk, weights)
        bypass = features is None
        mask = Tensor(np.ones(amb_map.shape)) if bypass else ambiguity_mask(amb_map, amb.gamma1)
        masked_maps = apply_mask(mask, maps)
        if bypass:
            sel = NoiseSelection(list(range(rows.shape[0])), self.selected_features,
                                 _noise_scores(masked_maps))
        else:
            sel = noise_select(masked_maps, features, gamma2, keep_mask=mask)
        self.__dict__.update(maps=maps, coarse=coarse, topk_indices=topk, weights=weights,
                             ambiguity_map=amb_map, mask=mask, masked_maps=masked_maps,
                             noise_scores=sel.scores, selected_indices=sel.indices,
                             selected_features=sel.selected)


def _values(x) -> np.ndarray:
    """The float64 array of a tensor or of anything array-like."""
    return np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)


def class_maps(features, projection) -> tuple[Tensor, Tensor]:
    """Project (S, C) feature rows onto class channels, M (S, N), and pool them to p (N,).

    Takes tensors or arrays.  Both results are selection-only constants,
    off the tape.
    """
    features, projection = _values(features), _values(projection)
    if features.ndim != 2 or projection.ndim != 2 or projection.shape[0] != features.shape[1]:
        raise T.ShapeError(f"class_maps: projection {projection.shape} does not fit feature rows {features.shape}")
    arr = features @ projection
    return T.node(arr, (), None, "class_maps"), T.node(arr.mean(axis=0), (), None, "coarse_pool")


def topk_weights(coarse, params: AmbiguityParams) -> tuple[list[int], np.ndarray]:
    """Indices of the k highest coarse scores and their weight schedule.

    Weights run from beta_h down to beta_l in k equal steps; score ties
    resolve to the lower class index.
    """
    p = _values(coarse)
    if params.k > p.size:
        raise ConfigError(f"topk_weights: k={params.k} exceeds {p.size} classes")
    order = np.argsort(-p, kind="stable")
    return [int(i) for i in order[: params.k]], params.weights


def ambiguity_map(maps: Tensor, topk_indices: Sequence[int], weights: np.ndarray) -> Tensor:
    """Weighted average of the selected class map columns, (1/k) sum w_i T_i, shape (S,)."""
    k = len(topk_indices)
    picked = maps.data[:, np.asarray(topk_indices, dtype=np.intp)]
    combo = picked @ np.asarray(weights, dtype=np.float64).reshape(k, 1)
    return T.node(((1.0 / k) * combo).ravel(), (), None, "ambiguity_map")


def ambiguity_mask(scores: Tensor, gamma1: float) -> Tensor:
    """Binary keep-mask: drop the gamma1 fraction with the highest scores.

    ``scores`` are (S,), one per row.  Rows are ranked by ascending score
    (rank 0 = least ambiguous, ties by lower row) and kept while rank <
    floor((1 - gamma1) * S).  The (S,) mask is a constant: selection is
    not differentiable.
    """
    arr = _values(scores)
    keep = _ambiguity_keep(arr.size, gamma1, "ambiguity_mask")
    mask = np.zeros(arr.size)
    mask[np.argsort(arr, kind="stable")[:keep]] = 1.0
    return Tensor(mask)


def apply_mask(mask: Tensor, maps: Tensor) -> Tensor:
    """Zero dropped positions in the class maps, which feed the noise scores alone.

    The features need no masking: every row the noise filter keeps has
    mask 1, so the kept rows are gathered from the features as they are.
    """
    return T.node(maps.data * mask.data[:, None], (), None, "masked_maps")


def _noise_scores(masked_maps: Tensor) -> Tensor:
    """(S,) channel-average of the masked class maps, one score per row."""
    return T.node(masked_maps.data.mean(axis=1), (), None, "noise_scores")


def noise_select(masked_maps: Tensor, features: Tensor, gamma2: float,
                 keep_mask: Tensor | None = None) -> NoiseSelection:
    """Keep the floor((1 - gamma2) * S) highest channel-average scores.

    Scores come from channel-average pooling the masked class maps;
    ambiguity-dropped positions score exactly 0 there.  When ``keep_mask``
    is given, only mask=1 positions are candidates, which guarantees every
    selected index survived the ambiguity drop even if live scores go
    negative.  Ties resolve to the lower row; the selected feature rows,
    gathered straight from the (S, C) features, keep descending-score
    order.
    """
    s = masked_maps.shape[0]
    s_keep = kept_rows(s, gamma2)
    if s_keep < 1:
        raise ConfigError(f"noise_select: gamma2={gamma2} keeps no positions of {s}")
    scores = _noise_scores(masked_maps)
    if keep_mask is not None:
        candidates = np.flatnonzero(keep_mask.data > 0.5)
        if candidates.size < s_keep:
            raise ConfigError(f"noise_select: only {candidates.size} unmasked positions for quota {s_keep}")
    else:
        candidates = np.arange(s)
    order = np.argsort(-scores.data[candidates], kind="stable")
    chosen = [int(i) for i in candidates[order][:s_keep]]
    return NoiseSelection(chosen, T.gather_rows(features, chosen), scores)


def filter_stage(features: Tensor, projection: Tensor, amb: AmbiguityParams,
                 noise: NoiseParams, bypass: bool = False) -> FilterArtifacts:
    """Run one stage through both filters.

    ``features`` are the stage's (S, C) rows.  With ``bypass`` the mask
    is all ones and every row is kept in order, so the kept rows are the
    features tensor itself.  The class maps, the ambiguity map, the noise
    scores and the other export-only values are then computed when first
    read, so a forward that exports nothing pays for none of them, and a
    non-finite one raises ``NonFiniteError`` at that read (see
    :class:`FilterArtifacts`).
    """
    return FilterArtifacts(features, projection, amb, noise, bypass)


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
