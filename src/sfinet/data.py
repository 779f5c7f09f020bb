"""Deterministic synthetic image datasets for desk-scale training.

Every image is background noise plus a planted class patch at a fixed
anchor.  Classes 0 and 1 always share their anchor and, when ``overlap``
is positive, also share that fraction of their patch area, which makes
them a deliberately confusable pair.  All randomness comes from one
generator, so a seed pins the dataset bit for bit; train and test splits
are disjoint by construction.  Each split is one array filled in place
from the generator, with no per-image arrays or stacking copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ConfigError


@dataclass(frozen=True)
class DataConfig:
    num_classes: int = 4
    samples_per_class: int = 64
    image_size: int = 32
    channels: int = 3
    patch_size: int = 12
    signal_amplitude: float = 1.5
    noise_amplitude: float = 0.3
    overlap: float = 0.0
    train_fraction: float = 0.75

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"data: need at least 2 classes, got {self.num_classes}")
        if self.patch_size < 1:
            raise ConfigError(f"data.patch_size must be >= 1, got {self.patch_size}")
        for key, value in (("signal_amplitude", self.signal_amplitude),
                           ("noise_amplitude", self.noise_amplitude)):
            if not math.isfinite(value):
                raise ConfigError(f"data.{key} must be a finite number, got {value}")
        if self.patch_size > self.image_size:
            raise ConfigError(f"data: patch {self.patch_size} larger than image {self.image_size}")
        if not 0.0 <= self.overlap <= 1.0:
            raise ConfigError(f"data: overlap must lie in [0, 1], got {self.overlap}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"data: train_fraction must lie in (0, 1), got {self.train_fraction}")
        n_train = self.train_per_class
        if not 1 <= n_train < self.samples_per_class:
            raise ConfigError(f"data: samples_per_class={self.samples_per_class} at train_fraction="
                              f"{self.train_fraction} gives {n_train} training and "
                              f"{self.samples_per_class - n_train} test images per class; "
                              "each split needs at least one")
        _anchors(self)  # rejects class counts whose anchors would collide

    @property
    def train_per_class(self) -> int:
        """Images of each class in the training split, ceil(train_fraction * samples_per_class)."""
        return math.ceil(self.train_fraction * self.samples_per_class)


@dataclass
class SyntheticDataset:
    config: DataConfig
    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray

    @property
    def ambiguous_pair(self) -> tuple[int, int]:
        return (0, 1)


def _anchors(cfg: DataConfig) -> list[tuple[int, int]]:
    """One distinct anchor per class, except classes 0 and 1 share slot 0.

    Raises ConfigError when the image leaves no room for distinct anchors.
    """
    margin = max((cfg.image_size - cfg.patch_size) // 6, 0)
    hi = cfg.image_size - cfg.patch_size - margin
    corners = [(margin, margin), (hi, hi), (margin, hi), (hi, margin)]
    slots_needed = cfg.num_classes - 1
    slots = []
    for s in range(slots_needed):
        if s < len(corners):
            slots.append(corners[s])
        else:
            # deterministic diagonal fill for many classes
            step = (hi - margin) // (slots_needed - 1)
            slots.append((margin + s * step, margin + s * step))
    if len(set(slots)) < len(slots):
        raise ConfigError(f"data: {cfg.num_classes} classes get colliding anchors with "
                          f"{cfg.patch_size} px patches in {cfg.image_size} px images")
    return [slots[0], *slots]


def _class_patches(cfg: DataConfig, rng: np.random.Generator) -> np.ndarray:
    p, ch = cfg.patch_size, cfg.channels
    patches = np.empty((cfg.num_classes, p, p, ch))
    shared = cfg.signal_amplitude * rng.uniform(-1.0, 1.0, size=(p, p, ch))
    n_shared = int(round(cfg.overlap * p * p))
    shared_mask = np.zeros(p * p)
    shared_mask[:n_shared] = 1.0
    shared_mask = shared_mask.reshape(p, p)[..., None]
    for c in range(cfg.num_classes):
        own = cfg.signal_amplitude * rng.uniform(-1.0, 1.0, size=(p, p, ch))
        if c in (0, 1):
            patches[c] = shared * shared_mask + own * (1.0 - shared_mask)
        else:
            patches[c] = own
    return patches


def make_synthetic(cfg: DataConfig, rng: np.random.Generator) -> SyntheticDataset:
    """Generate the dataset, drawing every random value from ``rng``.

    Each split is a ``(classes, n_split, W, H, C)`` array seen as
    ``(n, W, H, C)`` images.  Per class the train slab's normals come
    before the test slab's: the draw order of one image at a time.
    """
    anchors = _anchors(cfg)
    patches = _class_patches(cfg, rng)
    size, ch, p = cfg.image_size, cfg.channels, cfg.patch_size
    counts = (cfg.train_per_class, cfg.samples_per_class - cfg.train_per_class)
    splits = [np.empty((cfg.num_classes, n, size, size, ch)) for n in counts]
    for c, (ax, ay) in enumerate(anchors):
        for split in splits:
            slab = split[c]
            rng.standard_normal(out=slab)
            slab *= cfg.noise_amplitude
            slab[:, ax:ax + p, ay:ay + p] += patches[c]
    train_x, test_x = (split.reshape(-1, size, size, ch) for split in splits)
    train_y, test_y = (np.repeat(np.arange(cfg.num_classes, dtype=np.intp), n) for n in counts)
    return SyntheticDataset(cfg, train_x, train_y, test_x, test_y)


def augment_image(img: np.ndarray, rng: np.random.Generator, pad: int = 2) -> np.ndarray:
    """Random horizontal flip plus a random crop from a zero-padded canvas."""
    out = img
    if rng.random() < 0.5:
        out = out[:, ::-1]
    size = out.shape[0]
    padded = np.zeros((size + 2 * pad, size + 2 * pad, out.shape[2]))
    padded[pad:pad + size, pad:pad + size] = out
    ox, oy = rng.integers(0, 2 * pad + 1, size=2)
    return padded[ox:ox + size, oy:oy + size].copy()


def linear_probe(train_x: np.ndarray, train_y: np.ndarray, test_x: np.ndarray,
                 ridge: float = 1e-3) -> np.ndarray:
    """Closed-form ridge regression to one-hot targets; returns predictions.

    Solved in sample space so the pixel count never enters the linear
    system.  Deterministic, training-free: the independent baseline for
    measuring dataset difficulty.
    """
    n = train_x.shape[0]
    x = train_x.reshape(n, -1)
    y = np.eye(int(train_y.max()) + 1)[train_y]
    k = x @ x.T
    alpha = np.linalg.solve(k + ridge * np.eye(n), y)
    scores = test_x.reshape(test_x.shape[0], -1) @ x.T @ alpha
    return np.argmax(scores, axis=1)


def probe_accuracies(ds: SyntheticDataset, ridge: float = 1e-3) -> dict[str, float]:
    """Overall test accuracy plus accuracy restricted to the ambiguous pair."""
    preds = linear_probe(ds.train_images, ds.train_labels, ds.test_images, ridge)
    overall = float(np.mean(preds == ds.test_labels))
    a, b = ds.ambiguous_pair
    pair_sel = (ds.test_labels == a) | (ds.test_labels == b)
    pair = float(np.mean(preds[pair_sel] == ds.test_labels[pair_sel])) if pair_sel.any() else float("nan")
    return {"overall": overall, "pair": pair}
