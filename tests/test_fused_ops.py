"""The one-op layers against the primitive chains they stand for.

Each fused op (a backbone stage, the stage concat, the attention, a GCN
layer) must give its chain's forward values, every parent gradient and,
for a non-finite value, the chain's ``NonFiniteError``, byte for byte.
The shapes are the ones the model builds for the ``default`` config
(S=69), the bypass arm of the ambiguous-pair config (S=88), the ``tiny``
preset, and ``tiny`` with two GCN layers.  Every parent that accepts a
gradient already holds one before the backward, so the order in which
the fused backward adds its terms shows in the bits.
"""

import numpy as np
import pytest

from sfinet import config as C
from sfinet import filters as F
from sfinet import tensor as T
from sfinet.backbone import backbone_stage
from sfinet.reconstitution import (attend, concat_stages, gcn_forward, gcn_layer, head_mix,
                                   merge_heads, pairwise_scores, project_heads,
                                   talking_head_attention)
from sfinet.tensor import Tensor

from conftest import loop_patch_indices

# name -> (preset, overrides)
CONFIGS = {
    "default": ("default", []),
    "bypass": ("default", ["model.bypass_filters=true", "data.samples_per_class=48",
                           "data.overlap=0.8", "data.noise_amplitude=1.5",
                           "data.signal_amplitude=1.25"]),
    "tiny": ("tiny", []),
    "tiny-gcn2": ("tiny", ["sir.gcn_depth=2"]),
}


def load_config(name, *sets):
    preset, overrides = CONFIGS[name]
    return C.load(preset=preset, sets=[*overrides, *sets])


def chain_stage(x, grid, stride, weight, bias):
    patches = loop_patch_indices(*grid, stride)
    rows = T.reshape(T.gather_rows(x, patches.ravel()), (len(patches), -1))
    return T.tanh(T.add_rowvec(T.matmul(rows, weight), bias))


def chain_concat(selected, projections):
    return T.concat_rows([T.matmul(g, p) for g, p in zip(selected, projections)])


def chain_attention(b, wq, wk, wv, mix):
    q, k, v = (project_heads(b, w) for w in (wq, wk, wv))
    attn = T.softmax(T.scale(pairwise_scores(q, k), 1.0 / np.sqrt(wq.shape[2])), axis=-1)
    return merge_heads(head_mix(attend(attn, v), mix)), attn


def chain_gcn(x, adjacency, weights):
    for w in weights:
        x = T.relu(T.matmul(T.matmul(adjacency, x), w))
    return x


class Twins:
    """Equal leaf tensors for the fused side and the chain side.

    A leaf that requires grad starts with the same nonzero gradient on
    both sides, as a parameter or a shared input does inside a sample.
    """

    def __init__(self, rng):
        self.rng = rng
        self.pairs = []

    def __call__(self, data, requires_grad=True):
        a, b = Tensor(data, requires_grad=requires_grad), Tensor(data, requires_grad=requires_grad)
        if requires_grad:
            a.grad = self.rng.standard_normal(a.shape)
            b.grad = a.grad.copy()
            self.pairs.append((a, b))
        return a, b

    def assert_grads_equal(self):
        for a, b in self.pairs:
            assert a.grad.tobytes() == b.grad.tobytes()


def backward_both(rng, fused, chain):
    """Backpropagate the same random upstream gradient through both outputs."""
    for out in (fused, chain):
        assert out.requires_grad
    upstream = Tensor(rng.standard_normal(fused.shape))
    for out in (fused, chain):
        T.backward(T.sum_all(T.hadamard(out, upstream)))


def assert_same(fused, chain):
    assert fused.shape == chain.shape
    assert fused.data.tobytes() == chain.data.tobytes()


def model_for(name):
    cfg = load_config(name)
    _, model, _ = C.build_experiment(cfg)
    return cfg, model


def stage_rows(cfg, model):
    """(kept rows, channels) per stage, as the filters hand them to the concat."""
    return [(w * h if model.layout.bypass else F.kept_rows(w * h, cfg.noise.gamma2), c)
            for w, h, c in cfg.backbone.stage_shapes()]


def input_grids(cfg):
    """Each backbone stage's input grid (W, H)."""
    return [(cfg.backbone.input, cfg.backbone.input)] + [(w, h) for w, h, _ in cfg.backbone.stage_shapes()]


def uniform(rng, shape, fan_in):
    return rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(fan_in)


@pytest.mark.parametrize("name", sorted(CONFIGS))
class TestAgainstTheChain:
    def test_backbone_stages(self, rng, name):
        cfg, model = model_for(name)
        bb = model.backbone
        rows = cfg.backbone.input ** 2
        c_in = cfg.backbone.in_channels
        strides = cfg.backbone.strides
        for i, (grid, stride, weight, bias) in enumerate(zip(input_grids(cfg), strides,
                                                             bb.weights, bb.biases)):
            twin = Twins(rng)
            # stage 0 reads the image, which takes no gradient
            x, x_ref = twin(rng.standard_normal((rows, c_in)), requires_grad=i > 0)
            w, w_ref = twin(weight.data + uniform(rng, weight.shape, weight.shape[0]))
            b, b_ref = twin(rng.standard_normal(bias.shape) * 0.1)
            fused = backbone_stage(x, grid, stride, w, b)
            chain = chain_stage(x_ref, grid, stride, w_ref, b_ref)
            assert_same(fused, chain)
            backward_both(rng, fused, chain)
            twin.assert_grads_equal()
            rows, c_in = fused.shape

    def test_backbone_forward(self, rng, name):
        """All stages in a row, each output also feeding its own upstream gradient."""
        cfg, model = model_for(name)
        bb = model.backbone
        twin = Twins(rng)
        params = [(twin(w.data), twin(b.data)) for w, b in zip(bb.weights, bb.biases)]
        bb.weights = [w for (w, _), _ in params]
        bb.biases = [b for _, (b, _) in params]
        image = rng.standard_normal((cfg.backbone.input, cfg.backbone.input, cfg.backbone.in_channels))
        fused = bb.forward(image)
        x = T.reshape(Tensor(image), (-1, image.shape[2]))
        chain = []
        for grid, stride, ((_, w_ref), (_, b_ref)) in zip(input_grids(cfg), cfg.backbone.strides,
                                                          params):
            x = chain_stage(x, grid, stride, w_ref, b_ref)
            chain.append(x)
        for f, c in zip(fused, chain):
            assert_same(f, c)
        upstream = [Tensor(rng.standard_normal(f.shape)) for f in fused]
        for outs in (fused, chain):
            T.backward(T.add_n([T.sum_all(T.hadamard(o, u)) for o, u in zip(outs, upstream)]))
        twin.assert_grads_equal()

    def test_concat_stages(self, rng, name):
        cfg, model = model_for(name)
        twin = Twins(rng)
        sel = [twin(rng.standard_normal((n, c))) for n, c in stage_rows(cfg, model)]
        proj = [twin(uniform(rng, p.shape, p.shape[0])) for p in model.stage_projs]
        fused = concat_stages([a for a, _ in sel], [a for a, _ in proj])
        chain = chain_concat([b for _, b in sel], [b for _, b in proj])
        assert fused.shape == (model.seq_len, cfg.sir.channels)
        assert_same(fused, chain)
        backward_both(rng, fused, chain)
        twin.assert_grads_equal()

    def test_attention(self, rng, name):
        cfg, model = model_for(name)
        s, c, h = model.seq_len, cfg.sir.channels, cfg.sir.heads
        twin = Twins(rng)
        b, b_ref = twin(rng.standard_normal((s, c)))
        ws = [twin(uniform(rng, (h, c, c // h), c)) for _ in range(3)]
        mix, mix_ref = twin(np.eye(h) + 0.3 * rng.standard_normal((h, h)))
        out, attn = talking_head_attention(b, *(w for w, _ in ws), mix)
        out_ref, attn_ref = chain_attention(b_ref, *(w for _, w in ws), mix_ref)
        assert_same(out, out_ref)
        assert isinstance(attn, np.ndarray)
        assert attn.shape == attn_ref.shape and attn.tobytes() == attn_ref.data.tobytes()
        backward_both(rng, out, out_ref)
        twin.assert_grads_equal()

    def test_gcn(self, rng, name):
        cfg, model = model_for(name)
        s, c = model.seq_len, cfg.sir.channels
        twin = Twins(rng)
        x, x_ref = twin(rng.standard_normal((s, c)))
        adj, adj_ref = twin(rng.standard_normal((s, s)) / np.sqrt(s))
        ws = [twin(uniform(rng, (c, c), c)) for _ in range(cfg.sir.gcn_depth)]
        fused = gcn_forward(x, adj, [w for w, _ in ws])
        chain = chain_gcn(x_ref, adj_ref, [w for _, w in ws])
        assert 0 < np.count_nonzero(fused.data) < fused.size  # both sides of the relu
        assert_same(fused, chain)
        backward_both(rng, fused, chain)
        twin.assert_grads_equal()


# Each op with its parents' shapes, as the default config builds them:
# backbone stage 1 (input grid 8x8 of 16 channels, stride 2), the four
# filtered stages' rows into the concat, the S=69 GCN layer, and the head
# and the four stages' filter heads of the stacked loss pass, whose losses add.
CONSTANT_PARENT_OPS = {
    "backbone_stage": (lambda x, w, b: backbone_stage(x, (8, 8), 2, w, b),
                       [(64, 16), (64, 32), (32,)]),
    "concat_stages": (lambda *ts: concat_stages(list(ts[:4]), list(ts[4:])),
                      [(51, 16), (12, 32), (3, 64), (3, 64),
                       (16, 64), (32, 64), (64, 64), (64, 64)]),
    "gcn_layer": (gcn_layer, [(69, 64), (69, 69), (64, 64)]),
    "pooled_cross_entropy": (
        lambda *ts: T.add_n(T.pooled_cross_entropy(list(zip(ts[::2], ts[1::2])), 1)[0]),
        [(69, 64), (64, 4), (51, 16), (16, 4), (12, 32), (32, 4), (3, 64), (64, 4),
         (3, 64), (64, 4)]),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_PARENT_OPS))
def test_a_constant_parent_gets_no_gradient_and_changes_no_other(rng, name):
    """Every parent's gradient is computed and ``accumulate`` drops a constant's."""
    op, shapes = CONSTANT_PARENT_OPS[name]
    arrays = [rng.standard_normal(shape) / np.sqrt(shape[0]) for shape in shapes]
    upstream = Tensor(rng.standard_normal(op(*map(Tensor, arrays)).shape))

    def grads(constant):
        parents = [Tensor(a, requires_grad=i != constant) for i, a in enumerate(arrays)]
        T.backward(T.sum_all(T.hadamard(op(*parents), upstream)))
        return [p.grad for p in parents]

    trainable = grads(None)
    for constant in range(len(arrays)):
        got = grads(constant)
        assert got[constant] is None
        for i, (g, ref) in enumerate(zip(got, trainable)):
            if i != constant:
                assert g.tobytes() == ref.tobytes()


class TestShapes:
    def test_backbone_stage(self):
        x = Tensor(np.zeros((4, 2)))  # a 2x2 grid: one stride-2 patch of 8 inputs
        fits = backbone_stage(x, (2, 2), 2, Tensor(np.zeros((8, 3))), Tensor(np.zeros(3)))
        assert fits.shape == (1, 3)
        for grid, stride, w, b in (((2, 2), 2, (8, 3), (2,)), ((2, 2), 2, (9, 3), (3,)),
                                   ((2, 2), 2, (8,), (3,)), ((2, 2), 1, (8, 3), (3,)),
                                   ((1, 4), 2, (8, 3), (3,)), ((2, 3), 1, (2, 3), (3,)),
                                   ((2, 2), 0, (0, 3), (3,))):
            with pytest.raises(T.ShapeError, match="backbone_stage"):
                backbone_stage(x, grid, stride, Tensor(np.zeros(w)), Tensor(np.zeros(b)))

    def test_attention_projections_must_agree(self):
        w = Tensor(np.zeros((2, 4, 2)))
        with pytest.raises(T.ShapeError, match="attention"):
            talking_head_attention(Tensor(np.zeros((3, 4))), w, Tensor(np.zeros((2, 4, 3))), w,
                                   Tensor(np.eye(2)))

    def test_gcn_layer_weight(self):
        with pytest.raises(T.ShapeError, match="gcn_layer"):
            gcn_forward(Tensor(np.zeros((3, 2))), Tensor(np.eye(3)), [Tensor(np.eye(3))])


def _error(fn):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(T.NonFiniteError) as info:
        fn()
    return str(info.value)


def assert_same_error(fused, chain, op, step):
    """The fused op ``op`` names itself and the chain op ``step`` that the chain's error names."""
    assert _error(chain) == f"op '{step}' produced non-finite values"
    assert _error(fused) == f"op '{op}' (chain step '{step}') produced non-finite values"


class TestNonFinite:
    """Values the chain reports, including ones a later step of it would hide."""

    def test_minus_inf_score_with_no_plus_inf(self):
        # q = b and k = -b: row 0's score with itself is -1e400, every other
        # score is finite and none is +Inf, so the softmax alone would turn
        # the -Inf into a weight of 0 and give a finite output
        b = Tensor(np.array([[1e200, 0.0], [0.0, 1.0], [0.0, 2.0]]))
        wq, wk, wv = Tensor(np.eye(2)[None]), Tensor(-np.eye(2)[None]), Tensor(1e-200 * np.eye(2)[None])
        mix = Tensor(np.eye(1))
        with np.errstate(over="ignore"):
            scores = b.data @ -b.data.T
        assert scores[0, 0] == -np.inf and not np.isnan(scores).any() and (scores < np.inf).all()
        assert_same_error(lambda: talking_head_attention(b, wq, wk, wv, mix),
                          lambda: chain_attention(b, wq, wk, wv, mix),
                          "talking_head_attention", "pairwise_scores")

    def test_head_mix_overflow(self, rng):
        # every value row is (4, 4), so each attended row is too, and mixing
        # two heads of 4 with weights 1e308 gives 8e308
        b = Tensor(np.ones((3, 4)))
        wq, wk = (Tensor(uniform(rng, (2, 4, 2), 4)) for _ in range(2))
        wv = Tensor(np.ones((2, 4, 2)))
        mix = Tensor(np.full((2, 2), 1e308))
        assert_same_error(lambda: talking_head_attention(b, wq, wk, wv, mix),
                          lambda: chain_attention(b, wq, wk, wv, mix),
                          "talking_head_attention", "head_mix")

    def test_value_projection_overflow(self, rng):
        b = Tensor(rng.standard_normal((4, 4)))
        wq, wk = (Tensor(uniform(rng, (2, 4, 2), 4)) for _ in range(2))
        wv = Tensor(np.full((2, 4, 2), 1e308))
        assert_same_error(lambda: talking_head_attention(b, wq, wk, wv, Tensor(np.eye(2))),
                          lambda: chain_attention(b, wq, wk, wv, Tensor(np.eye(2))),
                          "talking_head_attention", "project_heads")

    @pytest.mark.parametrize("weight, bias, op", [
        (1e308, 0.0, "matmul"),       # the product overflows
        (1e308 / 4, 1e308, "add_rowvec"),  # the product is 1e308, the bias pushes it over
    ])
    def test_pre_tanh_overflow(self, weight, bias, op):
        # tanh maps +-Inf to +-1, so the stage's output alone would be finite
        x = Tensor(np.ones((4, 1)))  # a 2x2 grid: one stride-2 patch of 4 inputs
        w, b = Tensor(np.full((4, 3), weight)), Tensor(np.full(3, bias))
        assert_same_error(lambda: backbone_stage(x, (2, 2), 2, w, b),
                          lambda: chain_stage(x, (2, 2), 2, w, b), "backbone_stage", op)

    def test_pre_relu_minus_inf(self):
        # the relu maps -Inf to 0
        x = Tensor(np.array([[1e200, 1.0], [1.0, 1.0]]))
        adj, w = Tensor(np.eye(2)), Tensor(np.array([[-1e200, 0.0], [0.0, 1.0]]))
        assert_same_error(lambda: gcn_forward(x, adj, [w]), lambda: chain_gcn(x, adj, [w]),
                          "gcn_layer", "matmul")

    def test_stage_projection_overflow(self):
        g = [Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2)))]
        p = [Tensor(np.eye(2)), Tensor(np.full((2, 2), 1e308))]
        assert_same_error(lambda: concat_stages(g, p), lambda: chain_concat(g, p),
                          "concat_stages", "matmul")
