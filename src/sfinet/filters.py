"""Multi-level feature filtering: ambiguity drop followed by noise drop.

Per stage, features are projected onto per-pixel class maps; the top-k
most likely classes vote (with an equally spaced weight schedule) for an
ambiguity map whose highest-scoring fraction gamma1 of positions gets
zeroed.  A channel-average score over the surviving class maps then keeps
the highest-activation (1 - gamma2) fraction of positions, whose feature
rows feed the rest of the network together with an auxiliary
cross-entropy on their per-stage mean.

Rank selections are frozen at forward time: gradients flow only through
the values that survive.  The values that only feed a ranking or an
export (the coarse prediction, the ambiguity map, the masked class maps
and the noise scores) are therefore computed on plain arrays and entered
as checked constants (``T.node(arr, (), None, op)``): a NaN or Inf still
raises ``NonFiniteError`` naming the op, but backward never visits them.
All tie-breaks are by lower row-major index so results are totally
ordered and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class NoiseParams:
    """Noise drop ratio gamma2; the kept count is floor((1 - gamma2) * S)."""
    gamma2: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.gamma2 < 1.0:
            raise ConfigError(f"noise: gamma2 must lie in (0, 1), got {self.gamma2}")


def kept_rows(s: int, gamma2: float, bypass: bool = False) -> int:
    """Rows the noise filter keeps of ``s`` positions: floor((1 - gamma2) * s).

    With the filters bypassed every position is kept.
    """
    if bypass:
        return s
    return math.floor((1.0 - gamma2) * s)


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
        keep = math.floor((1.0 - amb.gamma1) * s)
        if keep <= 0 or keep >= s:
            raise ConfigError(f"stage {i}: gamma1={amb.gamma1} keeps {keep} of {s} positions (degenerate)")
        if kept_rows(s, noise.gamma2) < 1:
            raise ConfigError(f"stage {i}: gamma2={noise.gamma2} keeps no positions of {s}")


@dataclass
class ClassMaps:
    """Per-pixel class scores M plus the pooled coarse prediction p."""
    maps: Tensor
    coarse: Tensor
    projection: Tensor


class NoiseSelection(NamedTuple):
    indices: list[int]
    selected: Tensor
    scores: Tensor


@dataclass
class FilterArtifacts:
    """Everything one stage's filter pass produces, kept for export.

    Invariants: the mask has exactly floor((1 - gamma1) * W * H) ones;
    selected_indices has floor((1 - gamma2) * W * H) entries, each at a
    mask=1 position, in descending noise-score order.
    """
    topk_indices: list[int]
    weights: np.ndarray
    ambiguity_map: Tensor
    mask: Tensor
    masked_maps: Tensor
    masked_features: Tensor
    noise_scores: Tensor
    selected_indices: list[int]
    selected_features: Tensor


def class_maps(features: Tensor, projection: Tensor) -> ClassMaps:
    """Project (W, H, C) features onto class channels and pool to p."""
    w, h, c = features.shape
    if projection.ndim != 2 or projection.shape[0] != c:
        raise T.ShapeError(f"class_maps: projection {projection.shape} does not match channels {c}")
    flat = T.reshape(features, (w * h, c))
    maps = T.reshape(T.matmul(flat, projection), (w, h, projection.shape[1]))
    coarse = T.node(maps.data.mean(axis=(0, 1)), (), None, "coarse_pool")
    return ClassMaps(maps=maps, coarse=coarse, projection=projection)


def topk_weights(coarse, params: AmbiguityParams) -> tuple[list[int], np.ndarray]:
    """Indices of the k highest coarse scores and their weight schedule.

    Weights run from beta_h down to beta_l in k equal steps; score ties
    resolve to the lower class index.
    """
    p = np.asarray(coarse.data if isinstance(coarse, Tensor) else coarse, dtype=np.float64)
    if params.k > p.size:
        raise ConfigError(f"topk_weights: k={params.k} exceeds {p.size} classes")
    order = np.argsort(-p, kind="stable")
    weights = np.linspace(params.beta_h, params.beta_l, params.k)
    return [int(i) for i in order[: params.k]], weights


def ambiguity_map(maps: Tensor, topk_indices: Sequence[int], weights: np.ndarray) -> Tensor:
    """Weighted average of the selected class map slices: (1/k) sum w_i T_i."""
    w, h, n = maps.shape
    k = len(topk_indices)
    picked = maps.data.reshape(w * h, n)[:, np.asarray(topk_indices, dtype=np.intp)]
    combo = picked @ np.asarray(weights, dtype=np.float64).reshape(k, 1)
    return T.node(((1.0 / k) * combo).reshape(w, h), (), None, "ambiguity_map")


def ambiguity_mask(scores: Tensor, gamma1: float) -> Tensor:
    """Binary keep-mask: drop the gamma1 fraction with the highest scores.

    Positions are ranked by ascending score (rank 0 = least ambiguous,
    ties by row-major position) and kept while rank < floor((1 - gamma1)
    * W * H).  The mask is a constant: selection is not differentiable.
    """
    arr = np.asarray(scores.data if isinstance(scores, Tensor) else scores, dtype=np.float64)
    w, h = arr.shape
    s = w * h
    keep = math.floor((1.0 - gamma1) * s)
    if keep <= 0 or keep >= s:
        raise ConfigError(f"ambiguity_mask: gamma1={gamma1} keeps {keep} of {s} positions (degenerate)")
    order = np.argsort(arr.ravel(), kind="stable")
    mask = np.zeros(s)
    mask[order[:keep]] = 1.0
    return Tensor(mask.reshape(w, h))


def apply_mask(mask: Tensor, maps: Tensor, features: Tensor) -> tuple[Tensor, Tensor]:
    """Zero dropped positions in both the class maps and the features.

    Only the features stay on the tape; the masked maps feed the noise
    scores alone.
    """
    masked_features = T.hadamard(features, mask)
    return T.node(maps.data * mask.data[..., None], (), None, "masked_maps"), masked_features


def _noise_scores(masked_maps: Tensor) -> Tensor:
    """(W, H) channel-average of the masked class maps."""
    return T.node(masked_maps.data.mean(axis=2), (), None, "noise_scores")


def noise_select(masked_maps: Tensor, masked_features: Tensor, gamma2: float,
                 keep_mask: Tensor | None = None) -> NoiseSelection:
    """Keep the floor((1 - gamma2) * S) highest channel-average scores.

    Scores come from channel-average pooling the masked class maps;
    ambiguity-dropped positions score exactly 0 there.  When ``keep_mask``
    is given, only mask=1 positions are candidates, which guarantees every
    selected index survived the ambiguity drop even if live scores go
    negative.  Ties resolve to the lower flat index; the selected feature
    rows keep descending-score order.
    """
    w, h, _ = masked_maps.shape
    s = w * h
    s_keep = kept_rows(s, gamma2)
    if s_keep < 1:
        raise ConfigError(f"noise_select: gamma2={gamma2} keeps no positions of {s}")
    scores = _noise_scores(masked_maps)
    flat_scores = scores.data.ravel()
    if keep_mask is not None:
        candidates = np.flatnonzero(keep_mask.data.ravel() > 0.5)
        if candidates.size < s_keep:
            raise ConfigError(f"noise_select: only {candidates.size} unmasked positions for quota {s_keep}")
    else:
        candidates = np.arange(s)
    order = np.argsort(-flat_scores[candidates], kind="stable")
    chosen = [int(i) for i in candidates[order][:s_keep]]
    flat_features = T.reshape(masked_features, (s, masked_features.shape[2]))
    return NoiseSelection(chosen, T.gather_rows(flat_features, chosen), scores)


def select_all(masked_maps: Tensor, masked_features: Tensor) -> NoiseSelection:
    """Every position in row-major order: the selection with the filters bypassed."""
    w, h, c = masked_features.shape
    scores = _noise_scores(masked_maps)
    return NoiseSelection(list(range(w * h)), T.reshape(masked_features, (w * h, c)), scores)


def filter_stage(features: Tensor, projection: Tensor, amb: AmbiguityParams,
                 noise: NoiseParams, bypass: bool = False) -> tuple[ClassMaps, FilterArtifacts]:
    """Run one stage through both filters.

    With ``bypass`` the mask is all ones and every position is selected
    in row-major order; class maps and the ambiguity map are still
    computed so exports stay comparable.
    """
    cmaps = class_maps(features, projection)
    topk, weights = topk_weights(cmaps.coarse, amb)
    amb_map = ambiguity_map(cmaps.maps, topk, weights)
    mask = Tensor(np.ones(amb_map.shape)) if bypass else ambiguity_mask(amb_map, amb.gamma1)
    masked_maps, masked_features = apply_mask(mask, cmaps.maps, features)
    sel = (select_all(masked_maps, masked_features) if bypass
           else noise_select(masked_maps, masked_features, noise.gamma2, keep_mask=mask))
    arts = FilterArtifacts(topk, weights, amb_map, mask, masked_maps,
                           masked_features, sel.scores, sel.indices, sel.selected)
    return cmaps, arts


def filter_loss(selected_per_stage: Sequence[Tensor], classifiers: Sequence[Tensor],
                label: int, n_classes: int) -> Tensor:
    """Cross-entropy on the per-stage mean of the preserved feature rows.

    Each stage has its own linear classifier (channel depths differ);
    stage losses sum, so uniform predictions give L * ln(N).
    """
    if not 0 <= label < n_classes:
        raise ConfigError(f"filter_loss: label {label} outside 0..{n_classes - 1}")
    terms = []
    for g, cls in zip(selected_per_stage, classifiers):
        z = T.mean_rows(g)
        logits = T.reshape(T.matmul(T.reshape(z, (1, z.shape[0])), cls), (n_classes,))
        terms.append(T.cross_entropy(logits, label))
    return T.add_n(terms)
