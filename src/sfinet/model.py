"""Full network: backbone -> per-stage filters -> reconstitution -> head.

Parameter creation consumes the injected RNG in a fixed order (backbone,
then per-stage filter weights, then reconstitution weights), so the same
seed always yields the same initial weights.  Each parameter is named in
one ordered registry on the line that creates it, so creation order is
also checkpoint order: :meth:`SFINet.parameters` returns that registry.
The filter pass's stage layout and the sequence length seen by the
reconstitution stage are fixed by the drop ratios and stage extents
alone, which lets both be built and the adjacency matrix be allocated up
front.

The class-map projections ``mff.stage{i}.class_proj`` only drive the
filters' selections, which are plain checked arrays off the tape, so the
loss gives them no gradient: training changes them through weight decay
alone.  The one filter pass over every stage adds one node per stage to
the tape, the gather of its kept rows.  A labelled forward takes the
class loss and every stage's filter loss in one stacked pass
(``tensor.pooled_cross_entropy``), one node and one ``log`` op per loss
on the tape, and reads the class logits from it; under ``T.no_tape()``,
as in evaluation, that pass takes the losses' values from one log call
and makes no node, to the same bits.  An unlabelled forward runs that
pass's head alone, with no node (``reconstitution.classify``).  Both
report the same probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import filters as F
from . import reconstitution as R
from . import tensor as T
from .backbone import Backbone, BackboneConfig, register, uniform
from .tensor import ConfigError, Tensor


@dataclass
class ForwardResult:
    """Per-sample outputs: probabilities, losses, stage rows and attention weights.

    ``stages`` are the backbone's (S_i, C_i) rows, from which
    :meth:`SFINet.filter_stages` gives the filter records; ``attention``
    holds the (H, S, S) softmax weights, a plain array off the tape.
    """
    probs: np.ndarray
    class_loss: Tensor | None
    filter_loss: Tensor | None
    stages: list[Tensor]
    attention: np.ndarray


class SFINet:
    """Filter-and-reconstitute classifier over the toy backbone.

    The filters are off when ``layout.bypass``; the class count is ``classifier.shape[1]``.
    """

    def __init__(self, backbone_cfg: BackboneConfig, amb: F.AmbiguityParams,
                 noise: F.NoiseParams, sir_cfg: R.SirConfig, n_classes: int,
                 rng: np.random.Generator, bypass_filters: bool = False):
        if amb.k > n_classes:
            raise ConfigError(f"model: top-k ({amb.k}) exceeds class count ({n_classes})")
        shapes = backbone_cfg.stage_shapes()
        self.layout = F.stage_layout([w * h for w, h, _ in shapes], amb.gamma1, noise.gamma2,
                                     bypass_filters)
        self.amb = amb

        self.backbone = Backbone(backbone_cfg, rng)
        self._params = self.backbone.parameters()
        add = partial(register, self._params)

        self.class_projs: list[Tensor] = []
        self.filter_cls: list[Tensor] = []
        for i, (_, _, c) in enumerate(shapes):
            self.class_projs.append(add(f"mff.stage{i}.class_proj", uniform(rng, (c, n_classes), c)))
            self.filter_cls.append(add(f"mff.stage{i}.filter_cls", uniform(rng, (c, n_classes), c)))

        cc = sir_cfg.channels
        self.stage_projs = [add(f"sir.stage{i}.proj", uniform(rng, (c, cc), c))
                            for i, (_, _, c) in enumerate(shapes)]
        # identity-start reassembly: center tap ones, neighbor taps zero
        self.sr_prev = add("sir.sr.w_prev", np.zeros(cc))
        self.sr_self = add("sir.sr.w_self", np.ones(cc))
        self.sr_next = add("sir.sr.w_next", np.zeros(cc))
        d = cc // sir_cfg.heads
        self.wq = add("sir.attn.wq", uniform(rng, (sir_cfg.heads, cc, d), cc))
        self.wk = add("sir.attn.wk", uniform(rng, (sir_cfg.heads, cc, d), cc))
        self.wv = add("sir.attn.wv", uniform(rng, (sir_cfg.heads, cc, d), cc))
        self.mix = add("sir.attn.mix", np.eye(sir_cfg.heads))

        self.gcn_weights = [add(f"sir.gcn.layer{l}.weight", uniform(rng, (cc, cc), cc))
                            for l in range(sir_cfg.gcn_depth)]
        self.seq_len = self.layout.kept[-1].stop
        a0 = sir_cfg.adjacency_init if sir_cfg.adjacency_init is not None else 1.0 / self.seq_len
        self.adjacency = add("sir.gcn.adjacency", np.full((self.seq_len, self.seq_len), a0))
        self.classifier = add("sir.classifier", uniform(rng, (cc, n_classes), cc))

    def parameters(self) -> dict[str, Tensor]:
        """A fresh dict of every trainable tensor by name, in creation (= checkpoint) order."""
        return dict(self._params)

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Replace every parameter from ``state``, or none of them.

        Names, shapes and finiteness are all checked before the first
        assignment, so a rejected checkpoint leaves the model as it was.
        """
        params = self.parameters()
        missing = sorted(set(params) - set(state))
        extra = sorted(set(state) - set(params))
        if missing or extra:
            raise ConfigError(f"checkpoint mismatch: missing {missing}, unexpected {extra}")
        arrays = {}
        for name, p in params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.shape:
                raise ConfigError(f"checkpoint tensor {name}: shape {arr.shape}, model expects {p.shape}")
            if not np.isfinite(arr).all():
                raise ConfigError(f"checkpoint tensor {name}: holds NaN or Inf values")
            arrays[name] = arr
        for name, p in params.items():
            p.data = arrays[name].copy()

    def filter_stages(self, stages: list[Tensor]) -> list[F.FilterArtifacts]:
        """One filter record per stage of ``stages``, a forward's backbone rows.

        The records are views into one pass over every stage.  The forward
        reads only that pass's kept rows, and with the filters bypassed it
        runs no filter pass, so an export asks here for the records.
        """
        arts = F.filter_pass(stages, self.class_projs, self.amb, self.layout)
        return F.split_stages(arts, self.layout)

    def forward(self, image: np.ndarray, label: int | None = None) -> ForwardResult:
        stages = self.backbone.forward(image)
        selected = (stages if self.layout.bypass else
                    F.filter_pass(stages, self.class_projs, self.amb, self.layout).selected_features)

        concatenated = R.concat_stages(selected, self.stage_projs)
        reassembled = R.semantic_reassembly(concatenated, self.sr_prev, self.sr_self, self.sr_next)
        attended, attn = R.talking_head_attention(reassembled, self.wq, self.wk, self.wv, self.mix)
        reconstituted = R.gcn_forward(attended, self.adjacency, self.gcn_weights)

        if label is None:
            class_loss = f_loss = None
            logits = R.classify(reconstituted, self.classifier)
        else:  # the class loss and each stage's filter loss in one stacked pass
            losses, stacked = T.pooled_cross_entropy(
                [(reconstituted, self.classifier), *zip(selected, self.filter_cls)], label)
            class_loss, f_loss, logits = losses[0], T.add_n(losses[1:]), stacked[0]
        # reported only, so a checked array off the tape
        probs = T.checked(T.softmax_values(logits, -1), "softmax")
        return ForwardResult(probs, class_loss, f_loss, stages, attn)

    def predict(self, image: np.ndarray) -> int:
        with T.no_tape():
            return int(np.argmax(self.forward(image).probs))
