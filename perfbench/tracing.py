"""Per-layer time split for sfinet, installed from outside the package.

The package carries no tracing code.  A :class:`Tracer` replaces each
layer's public entry point with a span wrapper, each tape op with a
timing wrapper, and ``node`` with a wrapper that times the backward
closure it is handed.  Everything is put back on exit, and the wrapped
functions receive and return exactly what the originals do, so a traced
run computes the same numbers as an untraced one.

Accounting rules:

* A layer's self time is its span minus the spans of layers it calls.
  Tape ops are not spans: their forward time stays in the layer that
  called them and is also counted per op.
* A backward closure is charged to its op and to the layer span that was
  open when the op created its output.  Ops created with no layer span
  open (the train loop's ``total_loss``, ``add_n`` and ``scale``) are
  charged to the pseudo-layer ``train.loss``.
* Only work inside training steps (``zero_grad`` entry to
  ``sgd_momentum_step`` exit) is reported, so that "per sample" means
  per training sample; set-up and evaluation forwards go elsewhere.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter

TENSOR_OPS = (
    "add", "add_n", "add_rowvec", "scale", "hadamard", "matmul", "reshape",
    "gather_rows", "gather_cols", "concat_rows", "relu", "tanh", "log", "softmax",
    "sum_all", "mean_rows", "global_average_pool", "channel_average_pool",
)
SIR_OPS = ("semantic_reassembly", "project_heads", "pairwise_scores", "attend",
           "head_mix", "merge_heads")
OPS = TENSOR_OPS + SIR_OPS

# (module, attribute path, span name); installed after the op wrappers so
# that a function that is both a layer and an op (semantic_reassembly)
# gets the span outermost.
LAYER_SPANS = (
    ("sfinet.backbone", "Backbone.forward", "backbone"),
    ("sfinet.filters", "filter_stage", "filters"),
    ("sfinet.filters", "filter_loss", "filters.loss"),
    ("sfinet.reconstitution", "concat_stages", "sir.concat"),
    ("sfinet.reconstitution", "semantic_reassembly", "sir.reassembly"),
    ("sfinet.reconstitution", "talking_head_attention", "sir.attention"),
    ("sfinet.reconstitution", "gcn_forward", "sir.gcn"),
    ("sfinet.reconstitution", "classify", "sir.head"),
    ("sfinet.model", "SFINet.forward", "model"),
    ("sfinet.tensor", "backward", "tensor.backward"),
    ("sfinet.tensor", "CompGraph.from_output", "tensor.graph"),
)
ORPHAN = "train.loss"
# layers reported as .fwd_ms / .bwd_ms per training sample
FWD_BWD_LAYERS = ("backbone", "filters", "sir.concat", "sir.reassembly", "sir.attention",
                  "sir.gcn", "sir.head", ORPHAN)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *owners, name = path.split(".")
    for attr in owners:
        owner = getattr(owner, attr)
    return owner, name


class Patches:
    """Replaces functions in place and restores them last-in first-out."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, module: str, path: str, make) -> None:
        """Replace ``module.path`` by ``make(original)``; skip it if absent."""
        try:
            owner, name = _resolve(module, path)
            raw = vars(owner)[name]
        except (AttributeError, KeyError):
            self.missing.append(f"{module}.{path}")
            return
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, name, new)
        self._saved.append((owner, name, raw))

    def restore(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Table:
    """Accumulators for one phase: inside training steps, or outside them."""

    def __init__(self):
        self.incl = defaultdict(float)
        self.self_ = defaultdict(float)
        self.calls = defaultdict(int)
        self.bwd = defaultdict(float)
        self.op_calls = defaultdict(int)
        self.op_fwd = defaultdict(float)
        self.op_bwd = defaultdict(float)
        self.orphan_fwd = 0.0
        self.nodes = 0
        self.bytes = 0


class Tracer:
    """Span stack plus per-phase accumulators; one per traced run."""

    def __init__(self):
        self.stack: list[list] = []  # [span name, time spent in child spans]
        self.train = Table()
        self.outside = Table()
        self.t = self.outside
        self._t_step = 0.0
        self.step_s: list[float] = []
        self.setup_s: dict[str, list[float]] = defaultdict(list)
        self.missing: list[str] = []

    # -- wrapper factories -------------------------------------------------

    def _span(self, name: str):
        stack = self.stack

        def make(fn):
            def wrapped(*args, **kwargs):
                frame = [name, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    t = self.t
                    t.incl[name] += dt
                    t.self_[name] += dt - frame[1]
                    t.calls[name] += 1
                    if stack:
                        stack[-1][1] += dt
            return wrapped
        return make

    def _op(self, name: str):
        stack = self.stack

        def make(fn):
            def wrapped(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    t = self.t
                    t.op_calls[name] += 1
                    t.op_fwd[name] += dt
                    if not stack:
                        t.orphan_fwd += dt
            return wrapped
        return make

    def _node(self, orig):
        stack = self.stack

        def node(data, parents, backward_fn, op):
            layer = stack[-1][0] if stack else ORPHAN

            def timed_backward(g):
                t0 = perf_counter()
                try:
                    backward_fn(g)
                finally:
                    dt = perf_counter() - t0
                    t = self.t
                    t.bwd[layer] += dt
                    t.op_bwd[op] += dt
                    if stack:
                        stack[-1][1] += dt

            out = orig(data, parents, timed_backward, op)
            t = self.t
            t.nodes += 1
            t.bytes += out.data.nbytes
            return out
        return node

    def _step_start(self, fn):
        span = self._span("model.zero_grad")(fn)

        def zero_grad(*args, **kwargs):
            self.t = self.train
            self._t_step = perf_counter()
            return span(*args, **kwargs)
        return zero_grad

    def _step_end(self, fn):
        span = self._span("train.sgd")(fn)

        def sgd_momentum_step(*args, **kwargs):
            try:
                return span(*args, **kwargs)
            finally:
                self.step_s.append(perf_counter() - self._t_step)
                self.t = self.outside
        return sgd_momentum_step

    def _setup_timer(self, name: str):
        def make(fn):
            def wrapped(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.setup_s[name].append(perf_counter() - t0)
            return wrapped
        return make

    # -- installation --------------------------------------------------------

    def install(self) -> Patches:
        """Wrap the layers; use the result as a context manager to unwrap."""
        p = Patches()
        p.wrap("sfinet.config", "make_synthetic", self._setup_timer("data.make_synthetic"))
        p.wrap("sfinet.model", "SFINet.__init__", self._setup_timer("model.init"))
        for name in TENSOR_OPS:
            p.wrap("sfinet.tensor", name, self._op(name))
        for name in SIR_OPS:
            p.wrap("sfinet.reconstitution", name, self._op(name))
        p.wrap("sfinet.tensor", "node", self._node)
        p.wrap("sfinet.reconstitution", "node", self._node)
        for module, path, span in LAYER_SPANS:
            p.wrap(module, path, self._span(span))
        p.wrap("sfinet.model", "SFINet.zero_grad", self._step_start)
        p.wrap("sfinet.train", "sgd_momentum_step", self._step_end)
        self.missing = p.missing
        return p

    # -- results ---------------------------------------------------------------

    def coverage(self) -> float:
        """Sum of layer self times inside training steps over their wall time."""
        t = self.train
        covered = sum(t.self_.values()) + sum(t.bwd.values()) + t.orphan_fwd
        return covered / sum(self.step_s)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: per training sample unless the name says otherwise."""
        t = self.train
        samples = t.calls["model"]
        batches = t.calls["tensor.backward"]
        steps = t.calls["train.sgd"]
        if not (samples and batches and steps):
            raise RuntimeError(f"traced run recorded no training step (missing wrappers: {self.missing})")

        def per(total: float, n: int) -> float:
            return 1e3 * total / n

        out: dict[str, tuple[float, str]] = {}
        for name in ("data.make_synthetic", "model.init"):
            times = self.setup_s[name]
            out[f"{name}_ms"] = (1e3 * statistics.median(times) if times else 0.0, "ms")
        for layer in FWD_BWD_LAYERS:
            fwd = t.orphan_fwd if layer == ORPHAN else t.self_[layer]
            out[f"{layer}.fwd_ms"] = (per(fwd, samples), "ms")
            out[f"{layer}.bwd_ms"] = (per(t.bwd[layer], samples), "ms")
        out["filters.loss_fwd_ms"] = (per(t.self_["filters.loss"], samples), "ms")
        out["filters.loss_bwd_ms"] = (per(t.bwd["filters.loss"], samples), "ms")
        out["model.fwd_ms"] = (per(t.incl["model"], samples), "ms")
        out["model.loss.fwd_ms"] = (per(t.self_["model"], samples), "ms")
        out["model.loss.bwd_ms"] = (per(t.bwd["model"], samples), "ms")
        out["model.zero_grad_ms"] = (per(t.incl["model.zero_grad"], steps), "ms")
        out["tensor.nodes_per_sample"] = (t.nodes / samples, "count")
        out["tensor.bytes_per_sample"] = (t.bytes / samples, "bytes")
        out["tensor.graph_ms"] = (per(t.incl["tensor.graph"], batches), "ms")
        out["tensor.backward_ms"] = (per(t.incl["tensor.backward"], batches), "ms")
        for op in OPS:
            out[f"tensor.op.{op}.calls"] = (t.op_calls[op] / samples, "count")
            out[f"tensor.op.{op}.fwd_ms"] = (per(t.op_fwd[op], samples), "ms")
            out[f"tensor.op.{op}.bwd_ms"] = (per(t.op_bwd[op], samples), "ms")
        out["train.sgd_ms"] = (per(t.incl["train.sgd"], steps), "ms")
        out["trace.coverage"] = (self.coverage(), "ratio")
        return out
