"""One-stage filter reference: each stage filtered on its own, value by value.

These are the per-stage forms the stacked pass (``filters.filter_pass``)
replaced, kept as the oracle it must match byte for byte: every
``FilterArtifacts`` field of a stage filtered inside the stack equals the
field this module gives for that stage alone.
"""

import numpy as np

from sfinet import tensor as T
from sfinet.filters import (AmbiguityParams, FilterArtifacts, NoiseParams, gather_kept_rows,
                            kept_rows)
from sfinet.tensor import ConfigError, Tensor


def class_maps(features: np.ndarray, projection: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project (S, C) feature rows onto class channels, M (S, N), and pool them to p (N,)."""
    if features.ndim != 2 or projection.ndim != 2 or projection.shape[0] != features.shape[1]:
        raise T.ShapeError(f"class_maps: projection {projection.shape} does not fit feature rows {features.shape}")
    maps = T.checked(features @ projection, "class_maps")
    return maps, T.checked(np.add.reduce(maps, 0) / maps.shape[0], "coarse_pool")


def topk_weights(coarse: np.ndarray, params: AmbiguityParams) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the k highest of the (N,) coarse scores, ties to the lower class, and the weights."""
    if params.k > coarse.size:
        raise ConfigError(f"topk_weights: k={params.k} exceeds {coarse.size} classes")
    return (-coarse).argsort(kind="stable")[: params.k], params.weights


def ambiguity_map(maps: np.ndarray, topk_indices: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted average of the selected class map columns, (1/k) sum w_i T_i, shape (S,)."""
    k = len(topk_indices)
    combo = maps[:, topk_indices] @ weights.reshape(k, 1)
    return T.checked(((1.0 / k) * combo).ravel(), "ambiguity_map")


def ambiguity_mask(scores: np.ndarray, gamma1: float) -> np.ndarray:
    """Keep the floor((1 - gamma1) * S) lowest of the (S,) scores, ties to the lower row."""
    keep = kept_rows(scores.size, gamma1)
    if keep <= 0 or keep >= scores.size:
        raise ConfigError(f"ambiguity_mask: gamma1={gamma1} keeps {keep} of {scores.size} positions (degenerate)")
    mask = np.zeros(scores.size)
    mask[scores.argsort(kind="stable")[:keep]] = 1.0
    return mask


def apply_mask(mask: np.ndarray, maps: np.ndarray) -> np.ndarray:
    return T.checked(maps * mask[:, None], "masked_maps")


def noise_scores(masked_maps: np.ndarray) -> np.ndarray:
    return T.checked(np.add.reduce(masked_maps, 1) / masked_maps.shape[1], "noise_scores")


def noise_select(scores: np.ndarray, gamma2: float, keep_mask: np.ndarray) -> np.ndarray:
    """Indices of the floor((1 - gamma2) * S) highest scores among mask=1 rows, ties to the lower row."""
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
    """One stage through both filters, each value computed for this stage alone."""
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
    return FilterArtifacts(maps, coarse, topk, amb_map, mask, masked_maps, scores, chosen, selected)
