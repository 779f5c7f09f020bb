"""The stacked loss op against the per-loss chain it stands for.

``tensor.pooled_cross_entropy`` takes a sample's losses in one pass; each
loss, its logits and every parent gradient must equal, byte for byte,
those of ``cross_entropy(pooled_logits(rows, head), label)`` for its pair
alone (``loss_reference``), on random pairs and on the rows the models
feed it.  The forward's two paths (with a label, through this op; without
one, through ``reconstitution.classify``, which reads only the op's head
pass) must report the same probabilities and stop alike on a non-finite
head.  With no tape open the op takes its losses from one ``np.log`` call
and makes no node; a labelled forward must give the same bytes either way.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sfinet import config as C
from sfinet import filters as F
from sfinet import reconstitution as R
from sfinet import tensor as T
from sfinet.tensor import ConfigError, NonFiniteError, ShapeError, Tensor
from sfinet.train import train

import loss_reference as ref
from test_fused_ops import CONFIGS, load_config


def _twins(arrays, prior):
    """Two sets of trainable tensors on the same arrays, each gradient None or ``prior``'s copy."""
    sets = []
    for _ in range(2):
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        for t, p in zip(ts, prior):
            t.grad = None if p is None else p.copy()
        sets.append(ts)
    return sets


def assert_matches_reference(pair_arrays, label, coeffs, priors=None, shared_rows=False):
    """The op's losses (taped and not), logits and parent gradients equal the reference chain's.

    ``pair_arrays`` is a list of (rows, head) arrays; each loss enters the
    total scaled by its coefficient, so every loss node gets its own
    upstream gradient.  With ``shared_rows`` every pair pools the same
    rows tensor, so the order in which the losses add into it shows.
    """
    arrays = [a for pair in pair_arrays for a in pair]
    priors = priors or [None] * len(arrays)
    new, old = _twins(arrays, priors)
    if shared_rows:
        new[2::2], old[2::2] = [new[0]] * (len(new[2::2])), [old[0]] * (len(old[2::2]))
    new_pairs, old_pairs = list(zip(new[::2], new[1::2])), list(zip(old[::2], old[1::2]))
    losses, logits = T.pooled_cross_entropy(new_pairs, label)
    expected = ref.pooled_cross_entropy(old_pairs, label)
    assert len(losses) == len(expected) == len(pair_arrays)
    for i, (got, want) in enumerate(zip(losses, expected)):
        assert got.op == "pooled_cross_entropy" and got.shape == ()
        assert got.data.tobytes() == want.data.tobytes(), i
        assert logits[i].tobytes() == want._parents[0].data.tobytes(), i
    with T.no_tape():  # one log call for every loss, to the same bits
        untaped, _ = T.pooled_cross_entropy(new_pairs, label)
    assert [u.data.tobytes() for u in untaped] == [l.data.tobytes() for l in losses]

    def total(ls):
        return T.add_n([T.scale(l, c) for l, c in zip(ls, coeffs)])

    T.backward(total(losses))
    T.backward(total(expected))
    for i, (a, b) in enumerate(zip(new, old)):
        assert a.grad.tobytes() == b.grad.tobytes(), i


def _forward_counts(monkeypatch, model, image, label):
    """``T.log`` calls and ``pooled_cross_entropy`` nodes made by one labelled forward."""
    logs, nodes = [], []
    log, node = T.log, T.node

    def counting_log(a):
        logs.append(a)
        return log(a)

    def counting_node(*args):
        nodes.append(args[-1])
        return node(*args)

    monkeypatch.setattr(T, "log", counting_log)
    monkeypatch.setattr(T, "node", counting_node)
    res = model.forward(image, label)
    monkeypatch.undo()
    return res, len(logs), nodes.count("pooled_cross_entropy")


class TestPooledCrossEntropyMatchesThePerLossReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_pairs_every_label(self, seed):
        g = np.random.default_rng(seed)
        p, n = int(g.integers(1, 6)), int(g.integers(2, 7))
        scale = 1e3 if seed % 4 == 0 else 1.0  # confident logits: softmax underflows
        pairs = []
        for _ in range(p):
            r, c = int(g.integers(1, 91)), int(g.integers(1, 9))
            pairs.append((g.standard_normal((r, c)), g.standard_normal((c, n)) * scale))
        coeffs = g.standard_normal(p)  # negative ones turn a zero gradient into -0.0
        shapes = [a.shape for pair in pairs for a in pair]
        for label in range(n):
            assert_matches_reference(pairs, label, coeffs)
            assert_matches_reference(pairs, label, coeffs, [g.standard_normal(s) for s in shapes])
            # a -0.0 already held shows the sign of a zero the loss adds
            assert_matches_reference(pairs, label, coeffs, [np.full(s, -0.0) for s in shapes])

    @pytest.mark.parametrize("seed", range(5))
    def test_heads_sharing_their_rows(self, seed):
        g = np.random.default_rng(100 + seed)
        rows = g.standard_normal((7, 3))
        pairs = [(rows, g.standard_normal((3, 4))) for _ in range(3)]
        for label in range(4):
            assert_matches_reference(pairs, label, g.standard_normal(3), shared_rows=True)

    def test_uniform_logits_give_ln_n_exactly(self):
        for n in (2, 3, 7):
            losses, _ = T.pooled_cross_entropy([(Tensor(np.ones((3, 2))), Tensor(np.zeros((2, n))))] * 2,
                                               n - 1)
            assert all(loss.item() == np.log(n) for loss in losses)

    @pytest.mark.parametrize("name", ["default", "bypass", "tiny"])
    def test_the_models_rows(self, monkeypatch, name):
        """Every pair a training forward hands the op, replayed against the reference."""
        cfg = load_config(name)
        ds, model, _ = C.build_experiment(cfg)
        seen = []
        op = T.pooled_cross_entropy

        def recording(pairs, label):
            seen.append(([(r.data.copy(), w.data.copy()) for r, w in pairs], label))
            return op(pairs, label)

        monkeypatch.setattr(T, "pooled_cross_entropy", recording)
        for i in range(3):
            model.forward(ds.train_images[i], int(ds.train_labels[i]))
        monkeypatch.undo()
        assert len(seen) == 3 and all(len(pairs) == 1 + len(model.filter_cls) for pairs, _ in seen)
        g = np.random.default_rng(7)
        for pairs, label in seen:
            for lab in {label, *range(model.classifier.shape[1])}:
                assert_matches_reference(pairs, lab, g.standard_normal(len(pairs)))

    def test_a_training_forward_takes_one_log_per_loss(self, monkeypatch):
        cfg = C.build_run_config({})
        ds, model, _ = C.build_experiment(cfg)
        _, logs, nodes = _forward_counts(monkeypatch, model, ds.train_images[0],
                                         int(ds.train_labels[0]))
        assert logs == nodes == 1 + len(model.filter_cls)


class TestTheUntapedPath:
    """With no tape open the op takes every loss from one ``np.log`` call, to the same bits."""

    @pytest.mark.parametrize("name", ["tiny", "default", "bypass"])
    def test_a_labelled_forward_has_the_same_bits_taped_and_untaped(self, name):
        cfg = load_config(name, "train.epochs=1")
        ds, model, rng = C.build_experiment(cfg)
        for trained in (False, True):
            if trained:
                train(model, ds, cfg.train, rng)
            for image, label in zip(ds.test_images[:6], ds.test_labels[:6]):
                taped = model.forward(image, int(label))
                with T.no_tape():
                    untaped = model.forward(image, int(label))
                assert taped.class_loss.requires_grad and not untaped.class_loss.requires_grad
                for key in ("class_loss", "filter_loss"):
                    got, want = getattr(untaped, key), getattr(taped, key)
                    assert got.data.tobytes() == want.data.tobytes(), (trained, key)
                assert untaped.probs.tobytes() == taped.probs.tobytes(), trained

    @pytest.mark.parametrize("name", ["tiny", "default", "bypass"])
    def test_an_untaped_forward_takes_no_log_and_makes_no_loss_node(self, monkeypatch, name):
        cfg = load_config(name)
        ds, model, _ = C.build_experiment(cfg)
        with T.no_tape():
            res, logs, nodes = _forward_counts(monkeypatch, model, ds.train_images[0],
                                               int(ds.train_labels[0]))
        assert (logs, nodes) == (0, 0)
        assert res.class_loss.op == "leaf" and res.class_loss._backward_fn is None

    def test_a_non_finite_loss_names_the_op_on_both_paths(self):
        # finite logits whose difference overflows: the label's shifted logit and loss are Inf
        pairs = [(Tensor(np.ones((2, 1))), Tensor(np.array([[1e308, -1e308]])))]
        for context in (T.no_tape, nullcontext):
            with context(), np.errstate(over="ignore"), \
                    pytest.raises(NonFiniteError, match="^op 'pooled_cross_entropy' produced"):
                T.pooled_cross_entropy(pairs, 1)

    @given(st.integers(2, 64).flatmap(lambda n: hnp.arrays(
        np.float64, st.integers(1, 17), elements=st.floats(1.0, float(n)))))
    @settings(max_examples=300, deadline=None)
    def test_one_log_call_equals_one_call_per_value(self, totals):
        """The untaped path's premise: ``np.log`` over (P,) sums in [1, N] rounds as P 0-d calls."""
        whole = np.log(totals)
        for i, v in enumerate(totals):
            assert whole[i].tobytes() == np.log(np.asarray(v)).tobytes(), v


class TestPooledCrossEntropyErrors:
    @pytest.mark.parametrize("site", range(3))
    def test_a_nan_in_one_head_names_pooled_logits(self, rng, site):
        heads = [rng.standard_normal((4, 3)) for _ in range(3)]
        heads[site][1, 2] = np.nan
        pairs = [(Tensor(rng.standard_normal((5, 4))), Tensor(h)) for h in heads]
        with pytest.raises(NonFiniteError, match="^op 'pooled_logits' produced non-finite values$"):
            T.pooled_cross_entropy(pairs, 0)

    @pytest.mark.parametrize("rows, w", [((5,), (5, 3)), ((2, 5), (3,)), ((2, 5), (4, 3)),
                                         ((0, 5), (5, 3)), ((2, 2, 5), (5, 3))])
    def test_shape_errors_name_pooled_logits(self, rows, w):
        with pytest.raises(ShapeError, match="pooled_logits"):
            T.pooled_cross_entropy([(Tensor(np.zeros(rows)), Tensor(np.zeros(w)))], 0)

    def test_heads_must_agree_on_the_classes_and_exist(self):
        with pytest.raises(ShapeError, match="differ in classes"):
            T.pooled_cross_entropy([(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))),
                                    (Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))))], 0)
        with pytest.raises(ShapeError, match="no heads"):
            T.pooled_cross_entropy([], 0)

    @pytest.mark.parametrize("label", [-1, 4])
    def test_an_out_of_range_label_raises_as_before(self, label):
        cfg = C.build_run_config({})
        ds, model, _ = C.build_experiment(cfg)
        with pytest.raises(ShapeError) as caught:
            model.forward(ds.train_images[0], label)
        assert str(caught.value) == f"cross_entropy: label {label} outside 0..3"
        rows = [Tensor(np.ones((2, 3))) for _ in range(2)]
        with pytest.raises(ConfigError) as caught:
            F.filter_loss(rows, [Tensor(np.zeros((3, 4)))] * 2, label, 4)
        assert str(caught.value) == f"filter_loss: label {label} outside 0..3"


@pytest.mark.parametrize("name", ["tiny", "default", "bypass"])
def test_the_forwards_with_and_without_a_label_report_the_same_probabilities(name):
    """``predict`` and ``export-maps`` read the unlabelled path, ``evaluate`` the labelled one."""
    cfg = load_config(name)
    ds, model, _ = C.build_experiment(cfg)
    for image, label in zip(ds.test_images[:4], ds.test_labels[:4]):
        unlabelled = model.forward(image).probs
        with T.no_tape():
            assert model.forward(image).probs.tobytes() == unlabelled.tobytes()
            for y in range(model.classifier.shape[1]):
                assert model.forward(image, y).probs.tobytes() == unlabelled.tobytes()
        assert model.forward(image, int(label)).probs.tobytes() == unlabelled.tobytes()


@pytest.mark.parametrize("name", ["tiny", "default", "bypass"])
def test_both_forwards_share_one_head_and_the_unlabelled_one_tapes_none_of_it(monkeypatch, name):
    """A NaN head stops either forward with the head pass's error; ``classify`` makes no node."""
    cfg = load_config(name)
    ds, model, _ = C.build_experiment(cfg)
    made = []
    node = T.node

    def counting_node(*args):
        made.append(args[-1])
        return node(*args)

    monkeypatch.setattr(T, "node", counting_node)
    monkeypatch.setattr(R, "node", counting_node)
    rows = Tensor(np.ones((model.seq_len, model.classifier.shape[0])), requires_grad=True)
    logits = R.classify(rows, model.classifier)
    assert made == [] and isinstance(logits, np.ndarray) and logits.shape == model.classifier.shape[1:]
    model.classifier.data[1, 2] = np.nan
    for label in (None, int(ds.test_labels[0])):
        with pytest.raises(NonFiniteError, match="^op 'pooled_logits' produced non-finite values$"):
            model.forward(ds.test_images[0], label)
