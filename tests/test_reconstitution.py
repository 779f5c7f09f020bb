import numpy as np
import numpy.testing as npt
import pytest

from sfinet import tensor as T
from sfinet.backbone import ConfigError
from sfinet.reconstitution import (SirConfig, attend, classify, concat_stages, gcn_forward,
                                   head_mix, merge_heads, pairwise_scores, project_heads,
                                   semantic_reassembly, talking_head_attention)
from sfinet.tensor import Tensor

from conftest import assert_grads_match


def msa_reference(b, wq, wk, wv):
    """Dense numpy multi-head attention with direct concatenation."""
    heads, _, d = wq.shape
    outs = []
    for h in range(heads):
        q, k, v = b @ wq[h], b @ wk[h], b @ wv[h]
        scores = q @ k.T / np.sqrt(d)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        outs.append((e / e.sum(axis=-1, keepdims=True)) @ v)
    return np.concatenate(outs, axis=1)


class TestSirConfig:
    def test_heads_must_divide_channels(self):
        with pytest.raises(ConfigError):
            SirConfig(channels=10, heads=4)
        with pytest.raises(ConfigError):
            SirConfig(gcn_depth=0)


class TestConcatStages:
    def test_identity_projection_single_stage(self, rng):
        g = Tensor(rng.standard_normal((4, 3)))
        out = concat_stages([g], [Tensor(np.eye(3))])
        npt.assert_array_equal(out.data, g.data)

    def test_stage_order_preserved(self, rng):
        g1 = Tensor(rng.standard_normal((3, 2)))
        g2 = Tensor(rng.standard_normal((2, 5)))
        p1 = Tensor(rng.standard_normal((2, 4)))
        p2 = Tensor(rng.standard_normal((5, 4)))
        out = concat_stages([g1, g2], [p1, p2])
        assert out.shape == (5, 4)
        npt.assert_allclose(out.data[:3], g1.data @ p1.data, rtol=1e-12)
        npt.assert_allclose(out.data[3:], g2.data @ p2.data, rtol=1e-12)

    def test_projection_gradients(self, rng):
        g1 = Tensor(rng.standard_normal((3, 2)))
        g2 = Tensor(rng.standard_normal((2, 5)))
        p1 = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        p2 = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        assert_grads_match(
            lambda: T.sum_all(T.tanh(concat_stages([g1, g2], [p1, p2]))),
            {"p1": p1, "p2": p2})

    def test_empty_and_mismatched_inputs(self, rng):
        with pytest.raises(T.ShapeError):
            concat_stages([], [])
        with pytest.raises(T.ShapeError):
            concat_stages([Tensor(rng.standard_normal((2, 3)))], [Tensor(np.eye(4))])

    def test_one_projection_too_few(self, rng):
        stages = [Tensor(rng.standard_normal((2, 3))) for _ in range(2)]
        with pytest.raises(T.ShapeError, match="concat_stages: one projection per stage"):
            concat_stages(stages, [Tensor(np.eye(3))])


class TestSemanticReassembly:
    @pytest.mark.parametrize("tap", [0, 1, 2])
    def test_wrong_tap_shape_rejected(self, rng, tap):
        taps = [Tensor(np.ones(3)) for _ in range(3)]
        taps[tap] = Tensor(np.ones(4))
        with pytest.raises(T.ShapeError, match=r"semantic_reassembly: tap weight \(4,\)"):
            semantic_reassembly(Tensor(rng.standard_normal((5, 3))), *taps)

    def test_identity_kernel(self, rng):
        g = Tensor(rng.standard_normal((5, 3)))
        out = semantic_reassembly(g, Tensor(np.zeros(3)), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        npt.assert_array_equal(out.data, g.data)

    def test_hand_value_with_zero_padding(self):
        g = Tensor([[1.0, 2.0], [3.0, 4.0]])
        ones = lambda: Tensor(np.ones(2))
        out = semantic_reassembly(g, ones(), ones(), ones())
        npt.assert_array_equal(out.data, [[4.0, 6.0], [4.0, 6.0]])

    def test_interior_locality(self, rng):
        g = rng.standard_normal((6, 4))
        taps = [Tensor(rng.standard_normal(4)) for _ in range(3)]
        base = semantic_reassembly(Tensor(g), *taps).data
        g2 = g.copy()
        g2[5] += 100.0  # far from row 2
        moved = semantic_reassembly(Tensor(g2), *taps).data
        npt.assert_array_equal(moved[:4], base[:4])
        assert np.any(moved[4:] != base[4:])

    def test_gradients(self, rng):
        g = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        wp = Tensor(rng.standard_normal(3), requires_grad=True)
        ws = Tensor(rng.standard_normal(3), requires_grad=True)
        wn = Tensor(rng.standard_normal(3), requires_grad=True)
        assert_grads_match(
            lambda: T.sum_all(T.tanh(semantic_reassembly(g, wp, ws, wn))),
            {"g": g, "wp": wp, "ws": ws, "wn": wn})

    def test_not_permutation_equivariant(self, rng):
        g = rng.standard_normal((4, 3))
        taps = [Tensor(rng.standard_normal(3)) for _ in range(3)]
        perm = [2, 1, 0, 3]  # transposition of rows 0 and 2
        direct = semantic_reassembly(Tensor(g[perm]), *taps).data
        permuted = semantic_reassembly(Tensor(g), *taps).data[perm]
        assert not np.allclose(direct, permuted)


class TestTalkingHeadAttention:
    def _weights(self, rng, heads=2, c=4):
        d = c // heads
        return (Tensor(rng.standard_normal((heads, c, d)), requires_grad=True),
                Tensor(rng.standard_normal((heads, c, d)), requires_grad=True),
                Tensor(rng.standard_normal((heads, c, d)), requires_grad=True))

    def test_identity_mixing_equals_plain_msa(self, rng):
        wq, wk, wv = self._weights(rng, heads=2, c=6)
        b = Tensor(rng.standard_normal((5, 6)))
        out, _ = talking_head_attention(b, wq, wk, wv, Tensor(np.eye(2)))
        # independent dense reference
        ref = msa_reference(b.data, wq.data, wk.data, wv.data)
        npt.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-15)
        # and bitwise against the same primitives without mixing
        q, k, v = (project_heads(b, w) for w in (wq, wk, wv))
        attn = T.softmax(T.scale(pairwise_scores(q, k), 1.0 / np.sqrt(3)), axis=-1)
        plain = merge_heads(attend(attn, v))
        npt.assert_array_equal(out.data, plain.data)

    def test_single_token_returns_value_row(self, rng):
        wq, wk, wv = self._weights(rng)
        b = Tensor(rng.standard_normal((1, 4)))
        out, attn = talking_head_attention(b, wq, wk, wv, Tensor(np.eye(2)))
        npt.assert_allclose(attn, 1.0, atol=1e-15)
        expected = np.concatenate([b.data @ wv.data[0], b.data @ wv.data[1]], axis=1)
        npt.assert_allclose(out.data, expected, rtol=1e-12)

    def test_small_integer_case_against_dense_oracle(self):
        # H=2, S=2, C=4: every projection product is an exact small integer
        b = Tensor(np.array([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 1.0, 2.0]]))
        base = np.zeros((2, 4, 2))
        base[0, 0, 0] = base[0, 1, 1] = 1.0
        base[1, 2, 0] = base[1, 3, 1] = 1.0
        wq = Tensor(base.copy())
        wk = Tensor(base[::-1].copy())
        wv = Tensor(base.copy())
        u = np.array([[2.0, 1.0], [0.0, 1.0]])
        out, _ = talking_head_attention(b, wq, wk, wv, Tensor(u))
        j = [msa_reference(b.data, w[None, h], w2[None, h], w3[None, h])
             for (w, w2, w3, h) in ((wq.data, wk.data, wv.data, 0), (wq.data, wk.data, wv.data, 1))]
        expected = np.concatenate([u[0, 0] * j[0] + u[0, 1] * j[1],
                                   u[1, 0] * j[0] + u[1, 1] * j[1]], axis=1)
        npt.assert_allclose(out.data, expected, rtol=1e-14)

    def test_permutation_equivariance(self, rng):
        wq, wk, wv = self._weights(rng, heads=3, c=6)
        mix = Tensor(rng.standard_normal((3, 3)))
        for _ in range(20):
            b = rng.standard_normal((7, 6))
            perm = rng.permutation(7)
            direct, _ = talking_head_attention(Tensor(b[perm]), wq, wk, wv, mix)
            base, _ = talking_head_attention(Tensor(b), wq, wk, wv, mix)
            assert np.abs(direct.data - base.data[perm]).max() < 1e-9

    def test_mixing_matrix_shape_checked(self, rng):
        wq, wk, wv = self._weights(rng)
        with pytest.raises(T.ShapeError):
            talking_head_attention(Tensor(rng.standard_normal((3, 4))), wq, wk, wv,
                                   Tensor(np.eye(3)))

    def test_head_split_validated(self, rng):
        w = Tensor(rng.standard_normal((3, 4, 1)))
        with pytest.raises(ConfigError):
            talking_head_attention(Tensor(rng.standard_normal((3, 4))), w, w, w,
                                   Tensor(np.eye(3)))

    def test_gradients(self, rng):
        wq, wk, wv = self._weights(rng)
        mix = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)

        def loss():
            out, _ = talking_head_attention(b, wq, wk, wv, mix)
            return T.sum_all(T.tanh(out))

        assert_grads_match(loss, {"b": b, "wq": wq, "wk": wk, "wv": wv, "mix": mix})


    def test_returned_weights_are_read_only(self):
        """The weights the forward reports are the buffer the backward reads: no write reaches it."""
        from sfinet import config as C
        from sfinet.train import total_loss

        cfg = C.build_run_config({})
        ds, model, _ = C.build_experiment(cfg)
        image, label = ds.train_images[0], int(ds.train_labels[0])
        grads = []
        for write in (False, True):
            model.zero_grad()
            res = model.forward(image, label)
            if write:
                with pytest.raises(ValueError, match="read-only"):
                    res.attention *= 0.5
            total_loss(res.filter_loss, res.class_loss, cfg.train.xi).backward()
            grads.append(model.wq.grad.copy())
        assert np.any(grads[0]) and grads[0].tobytes() == grads[1].tobytes()


class TestEinsumOracle:
    """The matmul-based ops against np.einsum, forward and every parent gradient.

    Every axis has its own length (H=3, S=5, T=6, C=12, d=4) wherever the
    op allows it, so a wrong transpose or reshape changes a shape or the
    values.
    """
    H, S, T_, C, D = 3, 5, 6, 12, 4

    # op, operand shapes in call order, einsum spec over the same operands
    CASES = {
        "project_heads": (project_heads, [(S, C), (H, C, D)], "sc,hcd->hsd"),
        "pairwise_scores": (pairwise_scores, [(H, S, D), (H, S, D)], "hsd,htd->hst"),
        "attend": (attend, [(H, S, T_), (H, T_, D)], "hst,htd->hsd"),
        "head_mix": (head_mix, [(H, S, D), (H, H)], "hsd,gh->gsd"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_forward_and_gradients_match_einsum(self, rng, name):
        op, shapes, spec = self.CASES[name]
        a, b = (Tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes)
        out = op(a, b)
        npt.assert_allclose(out.data, np.einsum(spec, a.data, b.data), rtol=0, atol=1e-12)

        upstream = rng.standard_normal(out.shape)
        T.backward(T.sum_all(T.hadamard(out, Tensor(upstream))))
        sub_a, rest = spec.split(",")
        sub_b, sub_out = rest.split("->")
        npt.assert_allclose(a.grad, np.einsum(f"{sub_out},{sub_b}->{sub_a}", upstream, b.data),
                            rtol=0, atol=1e-12)
        npt.assert_allclose(b.grad, np.einsum(f"{sub_a},{sub_out}->{sub_b}", a.data, upstream),
                            rtol=0, atol=1e-12)


class TestGcn:
    def test_identity_on_nonnegative(self, rng):
        x = Tensor(np.abs(rng.standard_normal((4, 3))))
        out = gcn_forward(x, Tensor(np.eye(4)), [Tensor(np.eye(3))])
        npt.assert_array_equal(out.data, x.data)

    def test_zero_adjacency_gives_zero(self, rng):
        x = Tensor(rng.standard_normal((4, 3)))
        out = gcn_forward(x, Tensor(np.zeros((4, 4))), [Tensor(rng.standard_normal((3, 3)))])
        npt.assert_array_equal(out.data, 0.0)

    def test_hand_matrix_chain(self):
        ad = np.array([[1.0, 2.0], [0.0, 1.0]])
        o = np.array([[1.0, -1.0], [2.0, 3.0]])
        w = np.array([[1.0, 0.0], [1.0, 1.0]])
        out = gcn_forward(Tensor(o), Tensor(ad), [Tensor(w)])
        npt.assert_array_equal(out.data, np.maximum(ad @ o @ w, 0.0))

    def test_adjacency_shape_checked(self, rng):
        with pytest.raises(T.ShapeError):
            gcn_forward(Tensor(rng.standard_normal((4, 3))), Tensor(np.eye(3)),
                        [Tensor(np.eye(3))])

    def test_depth_stacks_with_per_layer_weights(self, rng):
        x = rng.standard_normal((3, 2))
        ad = rng.standard_normal((3, 3))
        w1, w2 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        out = gcn_forward(Tensor(x), Tensor(ad), [Tensor(w1), Tensor(w2)])
        expected = np.maximum(ad @ np.maximum(ad @ x @ w1, 0.0) @ w2, 0.0)
        npt.assert_allclose(out.data, expected, rtol=1e-12)

    def test_gradients(self, rng):
        x = Tensor(rng.standard_normal((4, 3)) + 1.0, requires_grad=True)
        ad = Tensor(np.eye(4) + 0.3, requires_grad=True)
        w = Tensor(np.eye(3) + 0.1 * rng.standard_normal((3, 3)), requires_grad=True)
        assert_grads_match(lambda: T.sum_all(T.tanh(gcn_forward(x, ad, [w]))),
                           {"x": x, "ad": ad, "w": w})


class TestClassify:
    """The unlabelled forward's head: plain (N,) logits, as the model turns them into probabilities."""

    def test_zero_weights_uniform(self, rng):
        logits = classify(Tensor(rng.standard_normal((5, 4))), Tensor(np.zeros((4, 3))))
        npt.assert_allclose(T.softmax_values(logits, -1), 1 / 3, atol=1e-15)

    def test_single_row_pooling_is_identity(self, rng):
        row = rng.standard_normal((1, 4))
        w = rng.standard_normal((4, 3))
        logits = classify(Tensor(row), Tensor(w))
        assert isinstance(logits, np.ndarray) and logits.shape == (3,)
        npt.assert_allclose(logits, (row @ w).ravel(), rtol=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(20):
            probs = T.softmax_values(classify(Tensor(rng.standard_normal((6, 5)) * 10),
                                              Tensor(rng.standard_normal((5, 7)))), -1)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert np.all(probs > 0)


class TestNoDeadSubgraph:
    def test_every_sir_parameter_gets_class_loss_gradient(self, rng):
        from sfinet import config as C

        cfg = C.load(preset="tiny")
        ds, model, _ = C.build_experiment(cfg)
        res = model.forward(ds.train_images[0], int(ds.train_labels[0]))
        model.zero_grad()
        res.class_loss.backward()
        for name, p in model.parameters().items():
            if name.startswith("sir."):
                assert np.abs(p.grad).max() > 0, f"{name} got no gradient"
