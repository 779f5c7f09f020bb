import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sfinet import tensor as T
from sfinet.tensor import CompGraph, GraphError, NonFiniteError, ShapeError, Tensor

from conftest import assert_grads_match


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), a)
        npt.assert_array_equal(out.data, a.data)

    def test_hand_value(self):
        # 1*3 + 2*4 = 11
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        npt.assert_array_equal(out.data, [[11.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_grad_of_sum_vs_finite_differences(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        assert_grads_match(lambda: T.sum_all(T.matmul(a, b)), {"a": a, "b": b})

    def test_associativity(self, rng):
        for _ in range(10):
            a = rng.standard_normal((3, 4))
            b = rng.standard_normal((4, 5))
            c = rng.standard_normal((5, 2))
            left = T.matmul(T.matmul(Tensor(a), Tensor(b)), Tensor(c)).data
            right = T.matmul(Tensor(a), T.matmul(Tensor(b), Tensor(c))).data
            npt.assert_allclose(left, right, rtol=1e-9)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]))
        npt.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_hand_value(self):
        # [1, 2] -> [1/(1+e), e/(1+e)]
        out = T.softmax(Tensor([1.0, 2.0]))
        e = np.e
        npt.assert_allclose(out.data, [1 / (1 + e), e / (1 + e)], rtol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance_and_normalization(self, values, shift):
        x = np.asarray(values)
        a = T.softmax(Tensor(x)).data
        b = T.softmax(Tensor(x + shift)).data
        npt.assert_allclose(a, b, atol=1e-12)
        assert abs(a.sum() - 1.0) < 1e-12

    def test_slices_sum_to_one_along_axis(self, rng):
        x = Tensor(rng.standard_normal((4, 5, 6)))
        for axis in range(3):
            sums = T.softmax(x, axis=axis).data.sum(axis=axis)
            npt.assert_allclose(sums, 1.0, atol=1e-12)

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            T.softmax(Tensor([1.0, 2.0]), axis=3)


class TestCrossEntropy:
    def test_hand_value(self):
        z = np.array([1.0, 2.0, 3.0])
        out = T.cross_entropy(Tensor(z), 0)
        npt.assert_allclose(out.item(), -np.log(np.e / np.exp(z).sum()), rtol=1e-12)

    def test_uniform_logits_give_ln_n_exactly(self):
        for n in (2, 3, 7):
            assert T.cross_entropy(Tensor(np.full(n, 4.5)), n - 1).item() == np.log(n)

    def test_gradient_vs_finite_differences(self, rng):
        z = Tensor(rng.standard_normal(5), requires_grad=True)
        for label in (0, 3):
            assert_grads_match(lambda: T.cross_entropy(z, label), {"z": z})

    def test_gradient_is_softmax_minus_onehot(self, rng):
        z = Tensor(rng.standard_normal(4), requires_grad=True)
        T.cross_entropy(z, 2).backward()
        expected = T.softmax(Tensor(z.data)).data - np.eye(4)[2]
        npt.assert_allclose(z.grad, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("label, loss", [(0, 0.0), (1, 2e6), (2, 3e6)])
    def test_large_logits_stay_finite(self, label, loss):
        # softmax underflows to exactly 0 for the losing classes here, so
        # log(softmax) would be -inf
        z = Tensor(np.array([3e6, 1e6, 0.0]), requires_grad=True)
        out = T.cross_entropy(z, label)
        assert out.item() == loss
        out.backward()
        npt.assert_array_equal(z.grad, np.eye(3)[0] - np.eye(3)[label])

    def test_confident_model_loss_and_gradients_finite(self):
        from sfinet import config as C
        from sfinet.train import total_loss

        ds, model, _ = C.build_experiment(C.preset("tiny"))
        model.classifier.data *= 1e6
        for cls in model.filter_cls:
            cls.data *= 1e6
        res = model.forward(ds.train_images[0], int(ds.train_labels[0]))
        loss = total_loss(res.filter_loss, res.class_loss, 3.0)
        assert np.isfinite(loss.item())
        npt.assert_allclose(res.probs.sum(), 1.0, atol=1e-12)
        model.zero_grad()
        loss.backward()
        assert all(np.all(np.isfinite(p.grad)) for p in model.parameters().values())

    def test_label_and_shape_checked(self):
        with pytest.raises(ShapeError):
            T.cross_entropy(Tensor([1.0, 2.0]), 2)
        with pytest.raises(ShapeError):
            T.cross_entropy(Tensor([1.0, 2.0]), -1)
        with pytest.raises(ShapeError):
            T.cross_entropy(Tensor(np.zeros((2, 2))), 0)


class TestHadamard:
    def test_ones_identity(self, rng):
        a = Tensor(rng.standard_normal((3, 3)))
        npt.assert_array_equal(T.hadamard(a, Tensor(np.ones((3, 3)))).data, a.data)

    def test_hand_value(self):
        out = T.hadamard(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0, 1.0], [1.0, 0.0]]))
        npt.assert_array_equal(out.data, [[0.0, 2.0], [3.0, 0.0]])

    def test_binary_mask_idempotent(self, rng):
        x = Tensor(rng.standard_normal((4, 4)))
        mask = Tensor((rng.random((4, 4)) > 0.5).astype(float))
        once = T.hadamard(x, mask)
        twice = T.hadamard(once, mask)
        npt.assert_array_equal(twice.data, once.data)

    def test_mask_broadcast_over_channels(self, rng):
        f = Tensor(rng.standard_normal((3, 2, 5)))
        mask = np.ones((3, 2))
        mask[1, 0] = 0.0
        out = T.hadamard(f, Tensor(mask))
        npt.assert_array_equal(out.data[1, 0], np.zeros(5))
        npt.assert_array_equal(out.data[0], f.data[0])

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            T.hadamard(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


class TestPooling:
    def test_gap_constant(self):
        m = Tensor(np.full((3, 4, 2), 7.5))
        npt.assert_allclose(T.global_average_pool(m).data, [7.5, 7.5], rtol=1e-15)

    def test_gap_hand_value(self):
        m = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
        npt.assert_allclose(T.global_average_pool(m).data, [2.5])

    def test_gap_gradient(self, rng):
        m = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        out = T.global_average_pool(m)
        T.sum_all(out).backward()
        npt.assert_allclose(m.grad, np.full((2, 3, 4), 1.0 / 6.0), rtol=1e-12)
        assert_grads_match(lambda: T.sum_all(T.global_average_pool(m)), {"m": m})

    def test_cap_single_channel_identity(self, rng):
        x = rng.standard_normal((3, 3, 1))
        npt.assert_array_equal(T.channel_average_pool(Tensor(x)).data, x[:, :, 0])

    def test_cap_hand_value(self):
        m = np.zeros((2, 1, 2))
        m[0, 0] = [1.0, 3.0]
        m[1, 0] = [1.0, 3.0]
        npt.assert_allclose(T.channel_average_pool(Tensor(m)).data, [[2.0], [2.0]])

    def test_cap_shape_contract(self, rng):
        for n in (1, 2, 7):
            out = T.channel_average_pool(Tensor(rng.standard_normal((4, 5, n))))
            assert out.shape == (4, 5)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        T.sum_all(x).backward()
        npt.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_masked_sum_gives_mask(self, rng):
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        mask = (rng.random((3, 3)) > 0.5).astype(float)
        T.sum_all(T.hadamard(x, Tensor(mask))).backward()
        npt.assert_array_equal(x.grad, mask)

    def test_non_scalar_loss_rejected(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        with pytest.raises(GraphError):
            T.scale(x, 2.0).backward()

    def test_repeated_backward_bitwise_identical(self, rng):
        a = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 4)))
        def loss():
            return T.sum_all(T.hadamard(T.softmax(T.matmul(T.tanh(a), b), axis=-1), w))
        loss().backward()
        first_a, first_b = a.grad.copy(), b.grad.copy()
        a.zero_grad(); b.zero_grad()
        loss().backward()
        npt.assert_array_equal(a.grad, first_a)
        npt.assert_array_equal(b.grad, first_b)

    def test_gradients_accumulate_without_reset(self, rng):
        x = Tensor(rng.standard_normal(5), requires_grad=True)
        T.sum_all(x).backward()
        T.sum_all(x).backward()
        npt.assert_array_equal(x.grad, np.full(5, 2.0))

    def test_full_model_loss_on_6x6x4_input(self, rng):
        # every parameter within rel err 1e-3 of central finite differences
        from sfinet.backbone import BackboneConfig
        from sfinet.filters import AmbiguityParams, NoiseParams
        from sfinet.model import SFINet
        from sfinet.reconstitution import SirConfig
        from sfinet.train import total_loss
        from sfinet.gradcheck import check_grad

        cfg = BackboneConfig(input_size=(6, 6), in_channels=4, strides=(2, 1), channels=(4, 6))
        model = SFINet(cfg, AmbiguityParams(k=2), NoiseParams(), SirConfig(channels=8, heads=2),
                       n_classes=3, rng=rng)
        image = rng.standard_normal((6, 6, 4))

        def build():
            res = model.forward(image, 1)
            return total_loss(res.filter_loss, res.class_loss, 3.0)

        errs = check_grad(build, model.parameters())
        assert max(errs.values()) < 1e-3, errs


class TestAccumulate:
    def test_first_write_is_a_fresh_zero_plus_g(self):
        t = T.scale(Tensor(np.ones(3), requires_grad=True), 1.0)  # op output: no buffer yet
        g = np.array([-0.0, 1.5, -2.5])
        zero_plus_g = np.zeros(3) + g
        T.accumulate(t, g)
        assert t.grad.tobytes() == zero_plus_g.tobytes()
        assert not np.signbit(t.grad[0])  # -0.0 became +0.0
        assert not np.shares_memory(t.grad, g)
        T.accumulate(t, g)
        npt.assert_array_equal(t.grad, 2 * g)
        npt.assert_array_equal(g, [-0.0, 1.5, -2.5])  # g was not written through

    def test_no_op_outside_the_tape(self):
        t = Tensor(np.ones(2))
        T.accumulate(t, np.ones(2))
        assert t.grad is None


class TestCompGraph:
    def test_topological_order_and_single_visit(self, rng):
        a = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        b = T.tanh(a)
        c = T.hadamard(b, b)  # diamond: b consumed twice
        loss = T.sum_all(c)
        graph = CompGraph.from_output(loss)
        assert len(graph.nodes) == len({id(n) for n in graph.nodes})
        pos = {id(n): i for i, n in enumerate(graph.nodes)}
        for n in graph.nodes:
            for p in n._parents:
                if id(p) in pos:
                    assert pos[id(p)] < pos[id(n)]
        loss.backward()
        # d(sum(tanh(a)^2))/da = 2 tanh(a) (1 - tanh(a)^2)
        t = np.tanh(a.data)
        npt.assert_allclose(a.grad, 2 * t * (1 - t * t), rtol=1e-12)

    def test_cycle_detected(self, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        b = T.scale(a, 2.0)
        b._parents = (b,)  # corrupt the tape into a self-loop
        with pytest.raises(GraphError, match="cycle"):
            CompGraph.from_output(b)


class TestNonFiniteDetection:
    def test_log_of_zero_reported(self):
        with pytest.raises(NonFiniteError, match="log"):
            T.log(Tensor([0.0, 1.0]))

    def test_overflowing_product_reported(self):
        big = Tensor([1e308])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="hadamard"):
            T.hadamard(big, big)

    def test_non_finite_checked_constant_reported(self):
        with pytest.raises(NonFiniteError, match="probe"):
            T.node(np.array([0.0, np.inf]), (), None, "probe")

    @staticmethod
    @st.composite
    def probe_arrays(draw):
        """Finite arrays, some with squares past the float maximum, with NaN or
        +-Inf planted at random positions and, half the time, transposed."""
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
        big = st.sampled_from([1e200, -1e200, 1.7e308, -1.7e308])
        finite = st.floats(allow_nan=False, allow_infinity=False)
        arr = draw(hnp.arrays(np.float64, shape, elements=st.one_of(finite, big)))
        if arr.size:
            for _ in range(draw(st.integers(0, 3))):
                pos = draw(st.integers(0, arr.size - 1))
                arr.flat[pos] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return arr.T if draw(st.booleans()) else arr

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(probe_arrays())
    @example(np.array(np.nan)).via("0-d NaN")
    @example(np.array(2.0)).via("0-d finite")
    @example(np.zeros((0, 3))).via("empty")
    @example(np.full((3, 2), 1e200).T).via("transposed, squares overflow")
    @example(np.array([1.7e308, -1.7e308, 0.0])).via("squares overflow")
    @example(np.array([[1.0, 2.0], [np.inf, 3.0]]).T).via("transposed Inf")
    def test_raises_exactly_when_an_element_is_not_finite(self, arr):
        finite = bool(np.isfinite(arr).all())
        if finite:
            assert T.node(arr, (), None, "probe").data is arr
        else:
            with pytest.raises(NonFiniteError, match=r"^op 'probe' produced non-finite values$"):
                T.node(arr, (), None, "probe")


class TestElementwiseGradients:
    """Central finite differences against every op's backward rule."""

    def test_add_family(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal(4), requires_grad=True)
        assert_grads_match(lambda: T.sum_all(T.add(a, b)), {"a": a, "b": b})
        assert_grads_match(lambda: T.sum_all(T.add_n([a, b, c])), {"a": a, "b": b, "c": c})
        assert_grads_match(lambda: T.sum_all(T.tanh(T.add_rowvec(a, v))), {"a": a, "v": v})
        assert_grads_match(lambda: T.sum_all(T.scale(a, -1.7)), {"a": a})

    def test_hadamard_both_modes(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        f = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
        m = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        assert_grads_match(lambda: T.sum_all(T.hadamard(a, b)), {"a": a, "b": b})
        assert_grads_match(lambda: T.sum_all(T.hadamard(f, m)), {"f": f, "m": m})

    def test_nonlinearities(self, rng):
        x = Tensor(rng.standard_normal((4, 3)) + 2.5, requires_grad=True)  # keep relu/log away from 0
        assert_grads_match(lambda: T.sum_all(T.relu(x)), {"x": x})
        assert_grads_match(lambda: T.sum_all(T.tanh(x)), {"x": x})
        assert_grads_match(lambda: T.sum_all(T.log(x)), {"x": x})

    def test_softmax_gradient(self, rng):
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 5)))
        assert_grads_match(lambda: T.sum_all(T.hadamard(T.softmax(x, axis=1), w)), {"x": x})

    def test_structural_ops(self, rng):
        x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        y = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3)))
        assert_grads_match(lambda: T.sum_all(T.tanh(T.reshape(x, (3, 6)))), {"x": x})
        assert_grads_match(
            lambda: T.sum_all(T.hadamard(T.gather_rows(x, [4, 0, 4, 2]), w)), {"x": x})
        assert_grads_match(
            lambda: T.sum_all(T.tanh(T.gather_cols(x, [2, 0, 2]))), {"x": x})
        assert_grads_match(
            lambda: T.sum_all(T.tanh(T.concat_rows([x, y]))), {"x": x, "y": y})

    def test_reductions(self, rng):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        m = Tensor(rng.standard_normal((3, 2, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal(3))
        assert_grads_match(lambda: T.sum_all(T.hadamard(T.mean_rows(x), w)), {"x": x})
        assert_grads_match(lambda: T.sum_all(T.tanh(T.global_average_pool(m))), {"m": m})
        assert_grads_match(lambda: T.sum_all(T.tanh(T.channel_average_pool(m))), {"m": m})


class TestTensorBasics:
    def test_requires_grad_allocates_zero_buffer(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        npt.assert_array_equal(t.grad, np.zeros((2, 2)))

    def test_requires_grad_propagates(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3))
        assert T.add(a, b).requires_grad
        assert not T.add(b, b).requires_grad

    def test_constant_graphs_stay_leaves(self):
        out = T.add(Tensor(np.ones(3)), Tensor(np.ones(3)))
        assert out._parents == ()

    def test_parentless_node_is_a_constant(self):
        c = T.node(np.arange(3.0), (), None, "probe")
        assert c.op == "probe" and not c.requires_grad and c._parents == ()


def _old_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """The softmax as it was written with three full-size temporaries."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        T.accumulate(a, y * (g - inner))

    return T.node(y, (a,), bw, "softmax")


def _weighted_sum_backward(out: Tensor, upstream: np.ndarray) -> None:
    T.backward(T.sum_all(T.hadamard(out, Tensor(upstream))))


class TestFusedOps:
    """One-op forms of chains the model used to build, checked against those chains."""

    def test_pooled_logits_gradients(self, rng):
        rows = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        v = Tensor(rng.standard_normal(3))
        assert_grads_match(lambda: T.sum_all(T.hadamard(T.pooled_logits(rows, w), v)),
                           {"rows": rows, "w": w})

    def test_pooled_logits_single_row_is_a_product(self, rng):
        row = rng.standard_normal((1, 4))
        w = rng.standard_normal((4, 3))
        out = T.pooled_logits(Tensor(row), Tensor(w))
        assert out.shape == (3,)
        assert out.data.tobytes() == (row @ w)[0].tobytes()

    @pytest.mark.parametrize("rows, w", [((5,), (5, 3)), ((2, 5), (3,)), ((2, 5), (4, 3)),
                                         ((0, 5), (5, 3)), ((2, 2, 5), (5, 3))])
    def test_pooled_logits_shape_errors(self, rows, w):
        with pytest.raises(ShapeError, match="pooled_logits"):
            T.pooled_logits(Tensor(np.zeros(rows)), Tensor(np.zeros(w)))

    @pytest.mark.parametrize("r, c, n", [(1, 4, 3), (69, 64, 4), (13, 16, 4)])
    def test_pooled_logits_bitwise_equal_to_the_old_chain(self, rng, r, c, n):
        data = rng.standard_normal((r, c))
        head = rng.standard_normal((c, n))
        upstream = rng.standard_normal(n)
        rows, w = Tensor(data, requires_grad=True), Tensor(head, requires_grad=True)
        old_rows, old_w = Tensor(data, requires_grad=True), Tensor(head, requires_grad=True)
        new = T.pooled_logits(rows, w)
        z = T.mean_rows(old_rows)
        old = T.reshape(T.matmul(T.reshape(z, (1, c)), old_w), (n,))
        assert new.data.tobytes() == old.data.tobytes()
        _weighted_sum_backward(new, upstream)
        _weighted_sum_backward(old, upstream)
        assert rows.grad.tobytes() == old_rows.grad.tobytes()
        assert w.grad.tobytes() == old_w.grad.tobytes()

    def test_gather_rows_blocks_gradient_with_repeats(self, rng):
        x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 6)))
        idx = np.array([[4, 0], [4, 4], [2, 5]])
        assert T.gather_rows(x, idx).shape == (3, 6)
        assert_grads_match(lambda: T.sum_all(T.hadamard(T.gather_rows(x, idx), w)), {"x": x})

    def test_gather_rows_block_layout(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.gather_rows(x, [[1, 0], [3, 3]])
        npt.assert_array_equal(out.data, [[3, 4, 5, 0, 1, 2], [9, 10, 11, 9, 10, 11]])

    @pytest.mark.parametrize("shape, idx", [((6,), [[0, 1]]), ((2, 3, 4), [[0, 1]]),
                                            ((6, 3), [[[0]]]), ((6, 3), 0)])
    def test_gather_rows_shape_errors(self, shape, idx):
        with pytest.raises(ShapeError, match="gather_rows"):
            T.gather_rows(Tensor(np.zeros(shape)), idx)

    @pytest.mark.parametrize("m, k, c", [(16, 16, 3), (4, 4, 16), (3, 1, 5)])
    def test_gather_rows_blocks_bitwise_equal_to_the_old_chain(self, rng, m, k, c):
        data = rng.standard_normal((m * k, c))
        idx = rng.integers(0, m * k, size=(m, k))
        upstream = rng.standard_normal((m, k * c))
        x, old_x = Tensor(data, requires_grad=True), Tensor(data, requires_grad=True)
        new = T.gather_rows(x, idx)
        old = T.reshape(T.gather_rows(old_x, idx.ravel()), (-1, k * c))
        assert new.shape == old.shape == (m, k * c)
        assert new.data.tobytes() == old.data.tobytes()
        _weighted_sum_backward(new, upstream)
        _weighted_sum_backward(old, upstream)
        assert x.grad.tobytes() == old_x.grad.tobytes()

    @pytest.mark.parametrize("shape", [(4, 69, 69), (4, 88, 88), (2, 3, 5)])
    def test_softmax_bitwise_equal_to_the_old_three_buffer_form(self, rng, shape):
        data = rng.standard_normal(shape) * 8.0
        upstream = rng.standard_normal(shape)
        x, old_x = Tensor(data, requires_grad=True), Tensor(data, requires_grad=True)
        new, old = T.softmax(x), _old_softmax(old_x)
        assert new.data.tobytes() == old.data.tobytes()
        npt.assert_array_equal(x.data, data)
        _weighted_sum_backward(new, upstream)
        _weighted_sum_backward(old, upstream)
        assert x.grad.tobytes() == old_x.grad.tobytes()

    def test_matmul_skips_the_constant_operand(self, rng):
        a_data, b_data = rng.standard_normal((5, 4)), rng.standard_normal((4, 3))
        upstream = rng.standard_normal((5, 3))
        a, b = Tensor(a_data), Tensor(b_data, requires_grad=True)
        both_a, both_b = Tensor(a_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        _weighted_sum_backward(T.matmul(a, b), upstream)
        _weighted_sum_backward(T.matmul(both_a, both_b), upstream)
        assert a.grad is None
        assert b.grad.tobytes() == both_b.grad.tobytes()
