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

One pass filters every stage (:func:`filter_pass`): each per-row value
is one ``(sum S_i, ...)`` stack, stage i's rows at ``layout.rows[i]``
(:class:`StageLayout`), checked once; the top-k vote is one row-wise sort
of the (L, N) coarse scores, and each ranking one stable sort of the
stack keyed by stage first.  The class-map and ambiguity-map products and
the coarse pool's sums run per stage over slices, since their stacked
forms round differently, so every value has the bits of its stage
filtered alone (:func:`filter_stage`, the one-stage call).

Rank selections are frozen at forward time: selection takes arrays and
returns indices (:func:`noise_select`), and gradients flow only through
the kept feature rows, each stage's one tape node, which
:func:`filter_pass` gathers from the features (:func:`gather_kept_rows`).
Everything that only feeds a ranking or an export (the class maps, the
coarse prediction, the ambiguity map, the mask, the masked class maps and
the noise scores) is a plain float64 array, and the indices are ``intp``
arrays.  Each value but the 0/1 mask is checked where it is made
(``T.checked``): a NaN or Inf still raises ``NonFiniteError`` naming the
value, the first failing one in stacked order, but it makes no tape node.
The class-map projection therefore gets no gradient from the loss, only
weight decay, and no ranking depends on its scale.  All tie-breaks are by
lower row index so results are totally ordered and reproducible; the
kept indices come from one stable sort, so they never repeat.

With the filters bypassed the mask is all ones and every row is kept, so
the kept rows are the features tensors themselves and a forward reads
nothing else from the filter pass: the model then runs no filter pass,
and an export that wants the stages' maps runs :func:`filter_pass` for
them.
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


class StageLayout(NamedTuple):
    """Where each stage's rows sit in a pass's stacked values, and how many each filter keeps.

    Stage i owns rows ``rows[i]`` of each stacked value and places
    ``kept[i]`` of the kept indices.  A ranking sorts the stack by
    ``stage`` first, so each stage's rows refill its own block, whose
    first floor((1 - gamma1) * S_i) places ``mask_ranks`` marks and first
    floor((1 - gamma2) * S_i) ``kept_ranks`` (every place under bypass);
    ``kept_starts`` is each kept place's block start, ``sizes`` the (L, 1)
    float row counts.
    """
    rows: tuple[slice, ...]
    kept: tuple[slice, ...]
    sizes: np.ndarray
    stage: np.ndarray
    mask_ranks: np.ndarray
    kept_ranks: np.ndarray
    kept_starts: np.ndarray


def validate_filter_ratios(sizes: Sequence[int], gamma1: float,
                           gamma2: float) -> tuple[list[int], list[int]]:
    """Each stage's ambiguity and noise keep counts, rejecting ratios a filter cannot meet.

    Each stage's ambiguity mask must drop some but not all of its rows,
    and its noise filter must keep at least one; gamma1 <= gamma2
    guarantees the noise filter can always pick its quota from positions
    the ambiguity mask preserved.
    """
    if gamma1 > gamma2:
        raise ConfigError(f"gamma1 ({gamma1}) must not exceed gamma2 ({gamma2})")
    keep1, keep2 = [], []
    for i, s in enumerate(sizes):
        keep1.append(kept_rows(s, gamma1))
        keep2.append(kept_rows(s, gamma2))
        if keep1[i] <= 0 or keep1[i] >= s:
            raise ConfigError(f"stage {i}: gamma1={gamma1} keeps {keep1[i]} of {s} positions (degenerate)")
        if keep2[i] < 1:
            raise ConfigError(f"stage {i}: gamma2={gamma2} keeps no positions of {s}")
    return keep1, keep2


def stage_layout(sizes: Sequence[int], gamma1: float, gamma2: float,
                 bypass: bool = False) -> StageLayout:
    """The layout of stages of ``sizes`` rows (:func:`validate_filter_ratios` checks the ratios).

    With ``bypass`` nothing is checked and both filters keep every row.
    """
    keep1, keep2 = (sizes, sizes) if bypass else validate_filter_ratios(sizes, gamma1, gamma2)
    bounds, kept_bounds = np.cumsum([0, *sizes]).tolist(), np.cumsum([0, *keep2]).tolist()
    starts = np.repeat(np.array(bounds[:-1], dtype=np.intp), sizes)
    rank = np.arange(bounds[-1]) - starts
    kept_ranks = rank < np.repeat(keep2, sizes)
    return StageLayout(tuple(map(slice, bounds, bounds[1:])),
                       tuple(map(slice, kept_bounds, kept_bounds[1:])),
                       np.array(sizes, dtype=np.float64).reshape(-1, 1),
                       np.repeat(np.arange(len(sizes)), sizes), rank < np.repeat(keep1, sizes),
                       kept_ranks, starts[kept_ranks])


class FilterArtifacts(NamedTuple):
    """Everything a filter pass produces, for one stage or stacked over all of them.

    For one stage: ``maps`` are the per-row class scores M, shape (S, N),
    and ``coarse`` their pooled prediction p; the ambiguity map, mask and
    noise scores are (S,).  Invariants: the mask has exactly
    floor((1 - gamma1) * S) ones; selected_indices has
    floor((1 - gamma2) * S) row indices, each at a mask=1 row, in
    descending noise-score order (with the filters bypassed: S ones and
    every row in order).  Every value is a float64 array, the indices
    ``intp``, except selected_features, the one tensor on the tape.

    Stacked (:func:`filter_pass`): per-row values follow each other stage
    by stage, ``coarse`` and ``topk_indices`` have a row per stage, stage
    i's indices sit at ``layout.kept[i]``, and ``selected_features`` is a
    list; :func:`split_stages` gives the per-stage records.
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
    selected_features: Tensor | list[Tensor]


def class_maps(features: Sequence[np.ndarray], projections: Sequence[np.ndarray],
               layout: StageLayout) -> tuple[np.ndarray, np.ndarray]:
    """Project each stage's (S_i, C_i) rows onto class channels, stacked M, and pool them to p (L, N)."""
    n = projections[0].shape[-1]
    maps = np.empty((layout.rows[-1].stop, n))
    for f, p, r in zip(features, projections, layout.rows):
        if p.ndim != 2 or p.shape[1] != n or f.shape != (r.stop - r.start, p.shape[0]):
            raise T.ShapeError(f"class_maps: projection {p.shape} does not fit feature rows {f.shape}")
        np.matmul(f, p, out=maps[r])
    T.checked(maps, "class_maps")
    coarse = np.empty((len(layout.rows), n))
    for i, r in enumerate(layout.rows):
        np.add.reduce(maps[r], 0, out=coarse[i])
    coarse /= layout.sizes
    return maps, T.checked(coarse, "coarse_pool")


def topk_weights(coarse: np.ndarray, params: AmbiguityParams) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the k highest coarse scores of each row and their weight schedule.

    Weights run from beta_h down to beta_l in k equal steps; score ties
    resolve to the lower class index.
    """
    if params.k > coarse.shape[-1]:
        raise ConfigError(f"topk_weights: k={params.k} exceeds {coarse.shape[-1]} classes")
    return (-coarse).argsort(kind="stable")[..., : params.k], params.weights


def ambiguity_map(maps: np.ndarray, topk_indices: np.ndarray, weights: np.ndarray,
                  layout: StageLayout) -> np.ndarray:
    """Weighted average of each stage's selected class map columns, (1/k) sum w_i T_i, stacked."""
    k = topk_indices.shape[-1]
    w = weights.reshape(k, 1)
    combo = np.empty((maps.shape[0], 1))
    for r, topk in zip(layout.rows, topk_indices):
        np.matmul(maps[r, topk], w, out=combo[r])
    combo *= 1.0 / k
    return T.checked(combo.ravel(), "ambiguity_map")


def ambiguity_mask(scores: np.ndarray, layout: StageLayout) -> np.ndarray:
    """Binary keep-mask: each stage drops the gamma1 fraction of its rows with the highest scores.

    One stable sort ranks the stacked rows by stage, then ascending score
    (rank 0 = least ambiguous), then lower row; a row is kept while its
    rank in its stage is below floor((1 - gamma1) * S_i).
    """
    mask = np.zeros(scores.size)
    mask[np.lexsort((scores, layout.stage))[layout.mask_ranks]] = 1.0
    return mask


def apply_mask(mask: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Zero dropped positions in the class maps, which feed the noise scores alone.

    The features need no masking: every row the noise filter keeps has
    mask 1, so the kept rows are gathered from the features as they are.
    """
    return T.checked(maps * mask[:, None], "masked_maps")


def noise_scores(masked_maps: np.ndarray) -> np.ndarray:
    """Channel-average of the masked class maps, one score per row."""
    return T.checked(np.add.reduce(masked_maps, 1) / masked_maps.shape[1], "noise_scores")


def gather_kept_rows(features: Tensor, indices: np.ndarray) -> Tensor:
    """The rows ``features[indices]``, for ``(M,)`` indices that never repeat.

    The filters' indices come from one stable sort, so each source row
    takes at most one gradient row: the backward assigns it into a zero
    buffer, the bits :func:`tensor.gather_rows`' scatter-add gives.
    """
    def bw(g):
        ga = np.zeros_like(features.data)
        ga[indices] = g
        T.accumulate(features, ga)

    return T.node(features.data.take(indices, 0), (features,), bw, "gather_kept_rows")


def noise_select(scores: np.ndarray, mask: np.ndarray, layout: StageLayout) -> np.ndarray:
    """Each stage's floor((1 - gamma2) * S_i) highest noise scores among its mask=1 rows.

    ``scores`` come from :func:`noise_scores`; ambiguity-dropped positions
    score exactly 0 there, so only mask=1 rows are candidates, which
    guarantees every selected index survived the ambiguity drop even if
    live scores go negative.  One stable sort ranks the stacked rows by
    stage, then mask=1 first, then descending score, then lower row.
    Returns the ``intp`` row indices within each stage, stage i's at
    ``layout.kept[i]`` in descending-score order.
    """
    order = np.lexsort((-scores, -mask, layout.stage))[layout.kept_ranks]
    if not mask.take(order).all():
        raise ConfigError("noise_select: a stage has fewer unmasked positions than its quota")
    return order - layout.kept_starts


def filter_pass(features: Sequence[Tensor], projections: Sequence[Tensor], amb: AmbiguityParams,
                layout: StageLayout) -> FilterArtifacts:
    """Run every stage through both filters at once, computing each stacked value in selection order.

    ``features`` are the stages' (S_i, C_i) rows.  Each stage's kept rows
    are its one tape node, gathered here.  A layout that keeps every row
    is the bypass (with the filters on, each stage drops at least one):
    the mask is all ones and every row is kept in order, so the kept rows
    are the features tensors themselves.  Every other value is computed
    as with the filters on.
    """
    bypass = layout.kept[-1].stop == layout.rows[-1].stop
    maps, coarse = class_maps([f.data for f in features], [p.data for p in projections], layout)
    topk, weights = topk_weights(coarse, amb)
    amb_map = ambiguity_map(maps, topk, weights, layout)
    mask = np.ones(amb_map.size) if bypass else ambiguity_mask(amb_map, layout)
    masked_maps = apply_mask(mask, maps)
    scores = noise_scores(masked_maps)
    if bypass:  # every place is kept, so kept_starts is each row's stage start
        chosen, selected = np.arange(scores.size) - layout.kept_starts, list(features)
    else:
        chosen = noise_select(scores, mask, layout)
        selected = [gather_kept_rows(f, chosen[k]) for f, k in zip(features, layout.kept)]
    return FilterArtifacts(maps, coarse, topk, weights, amb_map, mask, masked_maps,
                           scores, chosen, selected)


def split_stages(arts: FilterArtifacts, layout: StageLayout) -> list[FilterArtifacts]:
    """One record per stage of a pass's stacked values, each array a view of the stage's part."""
    return [FilterArtifacts(arts.maps[r], arts.coarse[i], arts.topk_indices[i], arts.weights,
                            arts.ambiguity_map[r], arts.mask[r], arts.masked_maps[r],
                            arts.noise_scores[r], arts.selected_indices[k],
                            arts.selected_features[i])
            for i, (r, k) in enumerate(zip(layout.rows, layout.kept))]


def filter_stage(features: Tensor, projection: Tensor, amb: AmbiguityParams,
                 noise: NoiseParams, bypass: bool = False) -> FilterArtifacts:
    """Run one stage through both filters: the one-stage call of :func:`filter_pass`."""
    layout = stage_layout([features.shape[0]], amb.gamma1, noise.gamma2, bypass)
    return split_stages(filter_pass([features], [projection], amb, layout), layout)[0]


def filter_loss(selected_per_stage: Sequence[Tensor], classifiers: Sequence[Tensor],
                label: int, n_classes: int) -> Tensor:
    """Cross-entropy on the per-stage mean of the preserved feature rows.

    Each stage has its own linear classifier (channel depths differ);
    stage losses sum, so uniform predictions give L * ln(N).  The model
    takes these losses in the same pass as its class loss; this is the
    L-pair call of :func:`tensor.pooled_cross_entropy`.
    """
    if not 0 <= label < n_classes:
        raise ConfigError(f"filter_loss: label {label} outside 0..{n_classes - 1}")
    return T.add_n(T.pooled_cross_entropy(list(zip(selected_per_stage, classifiers)), label)[0])
