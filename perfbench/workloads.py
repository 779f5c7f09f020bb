"""The benchmark's workloads and the closed-loop runner that measures them.

Every experiment goes through the public path the CLI uses:
``config.build_run_config`` -> ``config.build_experiment`` ->
``train.train``.  The benchmark seed reaches the program only as
``train.seed``.  Experiments run back to back in one process (a closed
loop: the next starts when the previous one ends) until the run's time
is up, and every repeat of the seed must reproduce the first one's
metric rows and trained parameters byte for byte.

The configs are spelled out in full here rather than read from
``configs/`` or the presets, so that a change to a shipped default cannot
silently change what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from sfinet import config as C
from tracing import Patches, Tracer

# the package re-exports the function ``train`` under the module's name
TR = importlib.import_module("sfinet.train")

# configs/default.txt, minus the output directory and the seed
DEFAULT = {
    "backbone.input": "32", "backbone.in_channels": "3",
    "backbone.strides": "4,2,2,1", "backbone.channels": "16,32,64,64",
    "ambiguity.k": "4", "ambiguity.beta_h": "1.1", "ambiguity.beta_l": "0.95",
    "ambiguity.gamma1": "0.1", "noise.gamma2": "0.2",
    "sir.channels": "64", "sir.heads": "4", "sir.gcn_depth": "1", "sir.adjacency_init": "auto",
    "model.bypass_filters": "false",
    "train.xi": "3.0", "train.lr": "0.05", "train.momentum": "0.9",
    "train.weight_decay": "0.0005", "train.epochs": "30", "train.batch_size": "12",
    "train.augment": "false",
    "data.classes": "4", "data.samples_per_class": "64", "data.patch_size": "12",
    "data.signal_amplitude": "1.5", "data.noise_amplitude": "0.3", "data.overlap": "0.0",
    "data.train_fraction": "0.75",
}


@dataclass(frozen=True)
class Workload:
    raw: dict[str, str]
    shape: tuple[int, int, int, int]  # train samples, test samples, batch size, epochs


WORKLOADS = {
    # Criterion 07's model and data (S=69, the paper's batch of 12).  Two
    # epochs stand in for its 30 so that one experiment (~5 s on a two-core
    # Xeon VM) repeats within a run; each epoch is the same work as one of
    # criterion 07's.
    "train-default": Workload(
        {**DEFAULT, "train.epochs": "2"}, (192, 64, 12, 2)),
    # Criterion 08's bypass arm (configs/ambiguous-pair.txt with filters off,
    # S=88), two of its 40 epochs.
    "train-bypass": Workload(
        {**DEFAULT, "data.samples_per_class": "48", "data.overlap": "0.8",
         "data.noise_amplitude": "1.5", "data.signal_amplitude": "1.25",
         "model.bypass_filters": "true", "train.epochs": "2"}, (144, 48, 12, 2)),
    # The tiny preset at its shipped length; per-op Python cost dominates.
    # Left out of BENCHMARK.json: on a shared host its throughput swings
    # too far between runs (NOTES.md, "Steadiness").
    "train-tiny": Workload(
        {**DEFAULT, "backbone.input": "8", "backbone.strides": "2,2", "backbone.channels": "4,6",
         "ambiguity.k": "2", "sir.channels": "8", "sir.heads": "2", "data.classes": "3",
         "data.samples_per_class": "8", "data.patch_size": "4", "train.epochs": "2",
         "train.batch_size": "4"}, (18, 6, 4, 2)),
}

SETUP_REPEATS = 25
COVERAGE_RANGE = (0.9, 1.1)


def build(raw: dict[str, str], seed: int):
    """Raw config to a ready dataset and model: the work ``setup_s`` times."""
    cfg = C.build_run_config({**raw, "train.seed": str(seed)})
    dataset, model, rng = C.build_experiment(cfg)
    return cfg, dataset, model, rng


class LoopClock:
    """Times the steps and evaluation forwards of one ``train.train`` call.

    A step runs from ``SFINet.zero_grad`` entry to ``sgd_momentum_step``
    exit: forward, backward and the optimizer, without the per-epoch
    shuffle or evaluation.  Inside ``train.evaluate`` each
    ``SFINet.forward`` is timed on its own.  An untraced run pays for
    one wrapped call per sample and two per step.
    """

    def __init__(self):
        self.step_s: list[float] = []
        self.step_samples: list[int] = []
        self.eval_s: list[float] = []  # one forward each
        self.evals = 0  # completed evaluate passes
        self._step0 = 0.0
        self._forwards = 0
        self._in_eval = False

    def install(self) -> Patches:
        p = Patches()
        p.wrap("sfinet.model", "SFINet.zero_grad", self._zero_grad)
        p.wrap("sfinet.model", "SFINet.forward", self._forward)
        p.wrap("sfinet.train", "sgd_momentum_step", self._sgd)
        p.wrap("sfinet.train", "evaluate", self._evaluate)
        if p.missing:
            p.restore()
            raise RuntimeError(f"train loop entry points not found: {p.missing}")
        return p

    def _zero_grad(self, fn):
        def zero_grad(*args, **kwargs):
            self._step0 = perf_counter()
            self._forwards = 0
            return fn(*args, **kwargs)
        return zero_grad

    def _forward(self, fn):
        def forward(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            if self._in_eval:
                self.eval_s.append(perf_counter() - t0)
            else:
                self._forwards += 1
            return out
        return forward

    def _sgd(self, fn):
        def sgd_momentum_step(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.step_s.append(perf_counter() - self._step0)
            self.step_samples.append(self._forwards)
            return out
        return sgd_momentum_step

    def _evaluate(self, fn):
        def evaluate(*args, **kwargs):
            self._in_eval = True
            try:
                out = fn(*args, **kwargs)
            finally:
                self._in_eval = False
            self.evals += 1
            return out
        return evaluate


@dataclass
class Experiment:
    """One fresh experiment: its timings, its ops, and what it produced."""
    clock: LoopClock
    attempted: int  # training steps + eval samples planned
    failed: int
    csv: str | None = None  # metrics_csv of the rows, None when aborted
    params: str | None = None  # digest of the trained parameters
    train_loss: float | None = None
    abort: str | None = None  # TrainAbort message
    problem: str | None = None  # a failed output check


def _digest(model) -> str:
    h = hashlib.sha256()
    for name, p in sorted(model.parameters().items()):
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


def run_experiment(workload: Workload, seed: int, tracer: Tracer | None = None) -> Experiment:
    """Build and train one experiment, then check its outputs."""
    with tracer.install() if tracer else nullcontext():
        cfg, dataset, model, rng = build(workload.raw, seed)
        n_train, n_test = len(dataset.train_labels), len(dataset.test_labels)
        epochs, batch = cfg.train.epochs, cfg.train.batch_size
        if (n_train, n_test, batch, epochs) != workload.shape:
            raise RuntimeError(f"workload shape {(n_train, n_test, batch, epochs)}, expected {workload.shape}")
        steps = epochs * math.ceil(n_train / batch)
        exp = Experiment(LoopClock(), attempted=steps + epochs * n_test, failed=0)
        with exp.clock.install():
            try:
                rows = TR.train(model, dataset, cfg.train, rng=rng)
            except TR.TrainAbort as exc:
                # every step and eval sample not finished is failed; no retry
                exp.abort = str(exc)
                exp.failed = (steps - len(exp.clock.step_s)) + (epochs - exp.clock.evals) * n_test
                return exp
    if len(rows) != 2 * epochs:
        exp.problem = f"{len(rows)} metric rows for {epochs} epochs"
    elif not all(math.isfinite(r.loss) and 0.0 <= r.acc <= 1.0 for r in rows):
        exp.problem = "non-finite loss or accuracy outside [0, 1]"
    if exp.problem:
        exp.failed = exp.attempted
        return exp
    exp.csv = TR.metrics_csv(rows)
    exp.params = _digest(model)
    exp.train_loss = rows[-2].loss
    return exp


@dataclass
class Run:
    """Ops and checks accumulated over the experiments of one run."""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    aborts: list[str] = field(default_factory=list)
    reference: Experiment | None = None
    untraced: list[Experiment] = field(default_factory=list)
    traced: list[Experiment] = field(default_factory=list)

    def add(self, exp: Experiment, traced: bool = False) -> None:
        (self.traced if traced else self.untraced).append(exp)
        self.attempted += exp.attempted
        self.failed += exp.failed
        if exp.abort:
            self.aborts.append(exp.abort)
        if exp.problem:
            self.problems.append(exp.problem)
        if exp.csv is None:
            return
        if self.reference is None:
            self.reference = exp
        elif (exp.csv, exp.params) != (self.reference.csv, self.reference.params):
            kind = "traced run" if traced else "repeat"
            self.problems.append(f"{kind} of the seed differs from the first run's rows or parameters")
            self.failed += exp.attempted

    @property
    def correct(self) -> bool:
        return not self.problems and self.reference is not None


# Throughputs come from the fastest step and the fastest forward, not the
# median.  On a shared two-core Xeon VM the same step's time swings by up
# to 1.6x within seconds as other tenants load the host (no steal time is
# recorded, and CPU time equals wall time).  Over eight 40 s train-default
# runs on different seeds, the quartile spread over the median of the
# training rate was 12% for the median step, 16% for the fast decile and
# 7% for the fastest step; for eval forwards 10%, 9% and 7%.  The fastest
# step is bounded by the program's own work, which is what a change moves.
def train_rate(exps: list[Experiment]) -> float:
    """Training samples per second of the fastest step (eval excluded)."""
    return max(n / t for e in exps for n, t in zip(e.clock.step_samples, e.clock.step_s))


def eval_rate(exps: list[Experiment]) -> float:
    """Forward-only test samples per second of the fastest eval forward."""
    return 1.0 / min(t for e in exps for t in e.clock.eval_s)


def tail_percentile(n: int) -> int:
    """Highest percentile up to 90 with at least ten samples beyond it."""
    return max(0, min(90, math.floor(100 * (1 - 10 / n)))) if n else 0


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict[str, tuple[float, str]]]:
    """One benchmark run: end-to-end metrics, or per-layer metrics if traced.

    The traced run alternates untraced and traced experiments of the same
    seed, so that the tracing overhead is measured under the same load and
    each traced experiment is checked against an untraced one.
    """
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    setups = []
    with tracer.install() if tracer else nullcontext():
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            build(workload.raw, seed)
            setups.append(perf_counter() - t0)
    run = Run()
    deadline = perf_counter() + seconds
    while True:
        run.add(run_experiment(workload, seed))
        if tracer:
            run.add(run_experiment(workload, seed, tracer), traced=True)
        if perf_counter() >= deadline:
            break
    if run.reference is None:
        return run, {}
    if not trace:
        return run, {
            "train_samples_per_s": (train_rate(run.untraced), "samples/s"),
            "eval_samples_per_s": (eval_rate(run.untraced), "samples/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "train_loss": (run.reference.train_loss, "loss"),
        }
    metrics = tracer.metrics()
    coverage = metrics["trace.coverage"][0]
    if not COVERAGE_RANGE[0] <= coverage <= COVERAGE_RANGE[1]:
        run.problems.append(f"trace.coverage {coverage:.3f} outside {COVERAGE_RANGE}")
    metrics["trace.overhead"] = (train_rate(run.untraced) / train_rate(run.traced), "ratio")
    steps = [s for e in run.untraced for s in e.clock.step_s]
    pct = tail_percentile(len(steps))
    metrics["train.step_ms_p50"] = (1e3 * statistics.median(steps), "ms")
    metrics["train.step_ms_tail"] = (1e3 * percentile(steps, pct), "ms")
    metrics["train.step_tail_pct"] = (float(pct), "percent")
    metrics["train.step_count"] = (float(len(steps)), "count")
    return run, metrics
