"""Full network: backbone -> per-stage filters -> reconstitution -> head.

Parameter creation consumes the injected RNG in a fixed order (backbone,
then per-stage filter weights, then reconstitution weights), so the same
seed always yields the same initial weights.  The sequence length seen by
the reconstitution stage is fixed by the drop ratios and stage extents
alone, which lets the adjacency matrix be allocated up front.

The class-map projections ``mff.stage{i}.class_proj`` only drive the
filters' selections, which are plain checked arrays off the tape, so the
loss gives them no gradient: training changes them through weight decay
alone.  A stage's filter pass adds one node to the tape, the gather of
its kept rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import filters as F
from . import reconstitution as R
from . import tensor as T
from .backbone import Backbone, BackboneConfig
from .tensor import ConfigError, Tensor


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    a = np.sqrt(1.0 / fan_in)
    return rng.uniform(-a, a, size=shape)


@dataclass
class ForwardResult:
    """Per-sample outputs: probabilities, losses, stage rows and attention weights.

    ``stages`` are the backbone's (S_i, C_i) rows, from which
    :meth:`SFINet.filter_stages` gives the filter records; ``attention``
    holds the (H, S, S) softmax weights, off the tape.
    """
    probs: np.ndarray
    class_loss: Tensor | None
    filter_loss: Tensor | None
    stages: list[Tensor]
    attention: Tensor


class SFINet:
    """Filter-and-reconstitute classifier over the toy backbone."""

    def __init__(self, backbone_cfg: BackboneConfig, amb: F.AmbiguityParams,
                 noise: F.NoiseParams, sir_cfg: R.SirConfig, n_classes: int,
                 rng: np.random.Generator, bypass_filters: bool = False):
        if n_classes < 2:
            raise ConfigError(f"model: need at least 2 classes, got {n_classes}")
        if amb.k > n_classes:
            raise ConfigError(f"model: top-k ({amb.k}) exceeds class count ({n_classes})")
        shapes = backbone_cfg.stage_shapes()
        if not bypass_filters:
            F.validate_filter_ratios(amb, noise, shapes)
        self.amb = amb
        self.noise = noise
        self.n_classes = n_classes
        self.bypass_filters = bypass_filters

        self.backbone = Backbone(backbone_cfg, rng)

        self.class_projs: list[Tensor] = []
        self.filter_cls: list[Tensor] = []
        for _, _, c in shapes:
            self.class_projs.append(Tensor(_uniform(rng, (c, n_classes), c), requires_grad=True))
            self.filter_cls.append(Tensor(_uniform(rng, (c, n_classes), c), requires_grad=True))

        cc = sir_cfg.channels
        self.stage_projs = [Tensor(_uniform(rng, (c, cc), c), requires_grad=True)
                            for _, _, c in shapes]
        # identity-start reassembly: center tap ones, neighbor taps zero
        self.sr_prev = Tensor(np.zeros(cc), requires_grad=True)
        self.sr_self = Tensor(np.ones(cc), requires_grad=True)
        self.sr_next = Tensor(np.zeros(cc), requires_grad=True)
        d = cc // sir_cfg.heads
        self.wq = Tensor(_uniform(rng, (sir_cfg.heads, cc, d), cc), requires_grad=True)
        self.wk = Tensor(_uniform(rng, (sir_cfg.heads, cc, d), cc), requires_grad=True)
        self.wv = Tensor(_uniform(rng, (sir_cfg.heads, cc, d), cc), requires_grad=True)
        self.mix = Tensor(np.eye(sir_cfg.heads), requires_grad=True)

        self.seq_len = sum(w * h if bypass_filters else F.kept_rows(w * h, noise.gamma2)
                           for w, h, _ in shapes)
        a0 = sir_cfg.adjacency_init if sir_cfg.adjacency_init is not None else 1.0 / self.seq_len
        self.adjacency = Tensor(np.full((self.seq_len, self.seq_len), a0), requires_grad=True)
        self.gcn_weights = [Tensor(_uniform(rng, (cc, cc), cc), requires_grad=True)
                            for _ in range(sir_cfg.gcn_depth)]
        self.classifier = Tensor(_uniform(rng, (cc, n_classes), cc), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        out = self.backbone.parameters()
        for i, (proj, cls) in enumerate(zip(self.class_projs, self.filter_cls)):
            out[f"mff.stage{i}.class_proj"] = proj
            out[f"mff.stage{i}.filter_cls"] = cls
        for i, proj in enumerate(self.stage_projs):
            out[f"sir.stage{i}.proj"] = proj
        out["sir.sr.w_prev"] = self.sr_prev
        out["sir.sr.w_self"] = self.sr_self
        out["sir.sr.w_next"] = self.sr_next
        out["sir.attn.wq"] = self.wq
        out["sir.attn.wk"] = self.wk
        out["sir.attn.wv"] = self.wv
        out["sir.attn.mix"] = self.mix
        for l, w in enumerate(self.gcn_weights):
            out[f"sir.gcn.layer{l}.weight"] = w
        out["sir.gcn.adjacency"] = self.adjacency
        out["sir.classifier"] = self.classifier
        return out

    def zero_grad(self) -> None:
        for p in self.parameters().values():
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

        The forward reads only the kept rows, and with the filters bypassed
        it runs no filter pass, so an export asks here for the records.
        """
        return [F.filter_stage(feats, proj, self.amb, self.noise, bypass=self.bypass_filters)
                for feats, proj in zip(stages, self.class_projs)]

    def forward(self, image: np.ndarray, label: int | None = None) -> ForwardResult:
        stages = self.backbone.forward(Tensor(image))
        selected = (stages if self.bypass_filters
                    else [a.selected_features for a in self.filter_stages(stages)])

        concatenated = R.concat_stages(selected, self.stage_projs)
        reassembled = R.semantic_reassembly(concatenated, self.sr_prev, self.sr_self, self.sr_next)
        attended, attn = R.talking_head_attention(reassembled, self.wq, self.wk, self.wv, self.mix)
        reconstituted = R.gcn_forward(attended, self.adjacency, self.gcn_weights)
        logits = R.classify(reconstituted, self.classifier)

        class_loss = None
        f_loss = None
        if label is not None:
            class_loss = T.cross_entropy(logits, label)
            f_loss = F.filter_loss(selected, self.filter_cls, int(label), self.n_classes)
        # reported only, so a checked array off the tape
        probs = T.checked(T.softmax_values(logits.data, -1), "softmax")
        return ForwardResult(probs, class_loss, f_loss, stages, attn)

    def predict(self, image: np.ndarray) -> int:
        with T.no_tape():
            return int(np.argmax(self.forward(image).probs))
