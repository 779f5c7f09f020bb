"""Composite-loss training loop with SGD momentum and cosine decay.

The total objective is xi * filter_loss + class_loss.  One optimizer step
runs per batch; the learning rate follows a half-cosine from its initial
value to zero over the full step budget.  Training writes no file: it
returns the metric rows, which :func:`metrics_csv` writes with repr
floats so identical runs produce byte-identical CSV files.

Each sample is backpropagated as soon as its forward ends, seeded with
``scale(loss, 1 / batch)``, and its tape is dropped before the next
forward starts, so a step holds one sample's tape, not a batch's.  The
batch runs last sample first.  That is the order in which one backward
over the summed batch loss would visit the samples (newest node first),
so every parameter gradient receives the same terms in the same order
and comes out bit for bit what the batch-loss backward gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import SyntheticDataset, augment_image
from .model import SFINet
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
        # each bound is written so that NaN fails it
        for key, value in (("xi", self.xi), ("lr", self.lr), ("momentum", self.momentum),
                           ("weight_decay", self.weight_decay)):
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"train.{key} must be a finite number >= 0, got {value}")
        if self.batch_size < 1:
            raise ConfigError(f"train: batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"train: epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"train.seed must be >= 0, got {self.seed}")


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
    """v <- momentum * v + (grad + wd * param); param <- param - lr * v.

    A NaN or Inf gradient raises ``NonFiniteError`` naming its parameter
    before any parameter or momentum buffer changes.
    """
    for name, p in params.items():
        if p.grad is not None and not T.finite(p.grad):
            raise NonFiniteError(f"gradient of parameter '{name}' holds non-finite values")
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
             xi: float) -> tuple[float, float]:
    """Mean total loss and top-1 accuracy over a split, with nothing taped.

    Untaped, each forward takes its losses from one log call and makes no
    loss node; the values keep the bits of a taped forward.
    """
    losses = []
    correct = 0
    with T.no_tape():
        for img, y in zip(images, labels):
            res = model.forward(img, int(y))
            losses.append(total_loss(res.filter_loss, res.class_loss, xi).item())
            if int(np.argmax(res.probs)) == int(y):
                correct += 1
    return float(np.mean(losses)), correct / len(labels)


def backward_origin(model: SFINet, images: list[np.ndarray], labels: np.ndarray, c: float,
                    xi: float) -> str | None:
    """The op whose backward first made a non-finite gradient in a batch, or None.

    Replays the batch as :func:`train` ran it, last sample first into
    zeroed gradients, with every node's backward closure wrapped to check
    its parents' gradients after it runs.  Only a step whose gradient
    check failed pays for this; the normal path keeps its closures.
    """
    def checking(t: Tensor):
        fn = t._backward_fn

        def bw(g):
            fn(g)
            if not all(p.grad is None or T.finite(p.grad) for p in t._parents):
                raise NonFiniteError(t.op)
        return bw

    model.zero_grad()
    for img, y in zip(reversed(images), reversed(labels)):
        res = model.forward(img, int(y))
        loss = T.scale(total_loss(res.filter_loss, res.class_loss, xi), c)
        for t in T.CompGraph.from_output(loss).nodes:
            if t._backward_fn is not None:
                t._backward_fn = checking(t)
        try:
            loss.backward()
        except NonFiniteError as exc:
            return str(exc)
    return None


def train(model: SFINet, dataset: SyntheticDataset, cfg: TrainConfig,
          rng: np.random.Generator, log=None) -> list[MetricRow]:
    """Train in place; returns one train row and one test row per epoch.

    Aborts with a diagnostic on a non-finite value or gradient.

    A step draws its batch's augmented images in batch order (the RNG
    sequence of a batch-wise loop), then runs forward and backward per
    sample from the last to the first; only the detached loss values are
    kept for the batch loss.  On an abort no optimizer step has run for
    the current batch, so every parameter keeps its bytes, but the leaf
    ``.grad`` buffers may hold a partial sum of the batch's gradients.
    A gradient abort names the parameter and, from
    :func:`backward_origin`'s replay of the batch, the op whose backward
    first made a non-finite value.
    """
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
                images = [dataset.train_images[i] for i in idx]
                if cfg.augment:
                    images = [augment_image(img, rng) for img in images]
                c = 1.0 / len(idx)
                values = [None] * len(idx)
                for j in reversed(range(len(idx))):
                    y = int(dataset.train_labels[idx[j]])
                    res = model.forward(images[j], y)
                    loss = total_loss(res.filter_loss, res.class_loss, cfg.xi)
                    T.scale(loss, c).backward()
                    values[j] = Tensor(loss.data)
                    if int(np.argmax(res.probs)) == y:
                        correct += 1
                    del res, loss  # free this sample's tape before the next forward
                batch_loss = T.scale(T.add_n(values), c)
                try:
                    sgd_momentum_step(params, state, cosine_lr(step, total_steps, cfg.lr),
                                      cfg.momentum, cfg.weight_decay)
                except NonFiniteError as exc:
                    op = backward_origin(model, images, dataset.train_labels[idx], c, cfg.xi)
                    raise NonFiniteError(f"{exc}; first made by the backward of op '{op}'"
                                         if op else str(exc)) from exc
                step += 1
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
    return rows
