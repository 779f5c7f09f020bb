"""Composite-loss training loop with SGD momentum and cosine decay.

The total objective is xi * filter_loss + class_loss.  One optimizer step
runs per batch; the learning rate follows a half-cosine from its initial
value to zero over the full step budget.  Metric rows are written with
repr floats so identical runs produce byte-identical CSV files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import SyntheticDataset, augment_image
from .model import SFINet
from .serialization import save_checkpoint
from .tensor import ConfigError, NonFiniteError, Tensor


@dataclass(frozen=True)
class TrainConfig:
    xi: float = 3.0
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0005
    epochs: int = 30
    batch_size: int = 12
    seed: int = 42
    augment: bool = False

    def __post_init__(self):
        if self.xi < 0:
            raise ConfigError(f"train: xi must be >= 0, got {self.xi}")
        if self.lr < 0:
            raise ConfigError(f"train: lr must be >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"train: batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"train: epochs must be >= 1, got {self.epochs}")


class TrainAbort(RuntimeError):
    """Training stopped on a non-finite value; message names the tensor."""


def total_loss(filter_loss: Tensor, class_loss: Tensor, xi: float) -> Tensor:
    """xi * filter_loss + class_loss."""
    return T.add(T.scale(filter_loss, xi), class_loss)


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Half-cosine decay from lr0 at step 0 to 0 at total_steps."""
    if not 0 <= step <= total_steps:
        raise ConfigError(f"cosine_lr: step {step} outside 0..{total_steps}")
    return lr0 * (1.0 + np.cos(np.pi * step / total_steps)) / 2.0


def sgd_momentum_step(params: dict[str, Tensor], state: dict[str, np.ndarray],
                      lr: float, momentum: float, weight_decay: float) -> None:
    """v <- momentum * v + (grad + wd * param); param <- param - lr * v."""
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.shape:
            raise T.ShapeError(f"sgd: grad shape {g.shape} vs param {p.shape} for {name}")
        v = state[name]
        v *= momentum
        v += g + weight_decay * p.data
        p.data = p.data - lr * v


@dataclass
class MetricRow:
    epoch: int
    split: str
    loss: float
    acc: float


def metrics_csv(rows: list[MetricRow]) -> str:
    lines = ["epoch,split,loss,acc"]
    for r in rows:
        lines.append(f"{r.epoch},{r.split},{repr(r.loss)},{repr(r.acc)}")
    return "\n".join(lines) + "\n"


def evaluate(model: SFINet, images: np.ndarray, labels: np.ndarray,
             xi: float = 3.0) -> tuple[float, float]:
    """Mean total loss and top-1 accuracy over a split."""
    losses = []
    correct = 0
    for img, y in zip(images, labels):
        res = model.forward(img, int(y))
        losses.append(xi * res.filter_loss.item() + res.class_loss.item())
        if int(np.argmax(res.probs)) == int(y):
            correct += 1
    return float(np.mean(losses)), correct / len(labels)


def train(model: SFINet, dataset: SyntheticDataset, cfg: TrainConfig,
          rng: np.random.Generator | None = None, out_dir: str | None = None,
          log=None) -> list[MetricRow]:
    """Train in place; returns one train row and one test row per epoch.

    With ``out_dir`` set, writes metrics.csv and checkpoint.csv there.
    Aborts with a diagnostic if any op yields a non-finite tensor.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    params = model.parameters()
    state = {name: np.zeros_like(p.data) for name, p in params.items()}
    n = dataset.train_images.shape[0]
    batches_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * batches_per_epoch
    rows: list[MetricRow] = []
    step = 0
    try:
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n)
            ep_loss = 0.0
            correct = 0
            for b in range(batches_per_epoch):
                idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
                model.zero_grad()
                sample_losses = []
                for i in idx:
                    img = dataset.train_images[i]
                    if cfg.augment:
                        img = augment_image(img, rng)
                    res = model.forward(img, int(dataset.train_labels[i]))
                    sample_losses.append(total_loss(res.filter_loss, res.class_loss, cfg.xi))
                    if int(np.argmax(res.probs)) == int(dataset.train_labels[i]):
                        correct += 1
                batch_loss = T.scale(T.add_n(sample_losses), 1.0 / len(idx))
                batch_loss.backward()
                lr_t = cosine_lr(step, total_steps, cfg.lr)
                step += 1
                sgd_momentum_step(params, state, lr_t, cfg.momentum, cfg.weight_decay)
                ep_loss += batch_loss.item() * len(idx)
            rows.append(MetricRow(epoch, "train", ep_loss / n, correct / n))
            test_loss, test_acc = evaluate(model, dataset.test_images, dataset.test_labels,
                                           xi=cfg.xi)
            rows.append(MetricRow(epoch, "test", test_loss, test_acc))
            if log is not None:
                log(f"epoch {epoch:3d}  train loss {rows[-2].loss:.4f} acc {rows[-2].acc:.3f}"
                    f"  test loss {test_loss:.4f} acc {test_acc:.3f}")
    except NonFiniteError as exc:
        raise TrainAbort(f"non-finite value at epoch {len(rows) // 2 + 1}, step {step}: {exc}") from exc
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
            fh.write(metrics_csv(rows))
        save_checkpoint(os.path.join(out_dir, "checkpoint.csv"),
                        {k: v.data for k, v in params.items()})
    return rows
