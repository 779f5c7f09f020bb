"""Inspection exports: filter maps and adjacency as PGM + CSV.

Each map is written twice: a min-max normalized ASCII PGM for eyeballing
and an exact CSV (same format as tensor serialization) whose values match
the in-process arrays bit for bit.  File names follow
``{image_id}_stage{i}_{kind}.{pgm,csv}``.  The filters keep one value per
feature row; each flat map is written on its ``(W_i, H_i)`` stage grid,
the one from ``BackboneConfig.stage_shapes()``.
"""

from __future__ import annotations

import os

import numpy as np

from .filters import FilterArtifacts
from .serialization import make_dirs, save_tensor, write_pgm


def _pair(out_dir: str, name: str, arr: np.ndarray) -> list[str]:
    csv_path = os.path.join(out_dir, name + ".csv")
    pgm_path = os.path.join(out_dir, name + ".pgm")
    save_tensor(csv_path, arr)
    write_pgm(pgm_path, arr)
    return [csv_path, pgm_path]


def export_stage_maps(out_dir: str, image_id: str, stage: int, arts: FilterArtifacts,
                      grid: tuple[int, int]) -> list[str]:
    """Ambiguity map, mask, noise scores, and the voted class slices, as (W, H) ``grid`` maps."""
    make_dirs(out_dir)
    written = []
    prefix = f"{image_id}_stage{stage}"
    written += _pair(out_dir, f"{prefix}_ambiguity", arts.ambiguity_map.data.reshape(grid))
    written += _pair(out_dir, f"{prefix}_mask", arts.mask.data.reshape(grid))
    written += _pair(out_dir, f"{prefix}_noise", arts.noise_scores.data.reshape(grid))
    for c in arts.topk_indices:
        written += _pair(out_dir, f"{prefix}_class{c}", arts.maps.data[:, c].reshape(grid))
    return written


def export_adjacency(out_dir: str, image_id: str, adjacency: np.ndarray) -> list[str]:
    make_dirs(out_dir)
    return _pair(out_dir, f"{image_id}_adjacency", np.asarray(adjacency))
