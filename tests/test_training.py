import copy
import importlib
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from sfinet import backbone as B
from sfinet import config as C
from sfinet import reconstitution as R
from sfinet import tensor as T
from sfinet.backbone import ConfigError
from sfinet.data import make_synthetic
from sfinet.model import SFINet
from sfinet.serialization import load_checkpoint, save_checkpoint
from sfinet.tensor import Tensor
from sfinet.train import (TrainAbort, cosine_lr, evaluate, metrics_csv,
                          sgd_momentum_step, total_loss, train)


TR = importlib.import_module("sfinet.train")  # the package re-exports train()


def preset_cfg(preset, **overrides):
    return C.load(preset=preset, sets=[f"{k}={v}" for k, v in overrides.items()])


def tiny_cfg(**overrides):
    return preset_cfg("tiny", **overrides)


class TestTotalLoss:
    def test_zero_coefficient(self, rng):
        lf = Tensor(np.array(0.7), requires_grad=True)
        lc = Tensor(np.array(0.4), requires_grad=True)
        assert total_loss(lf, lc, 0.0).item() == 0.4

    def test_hand_value(self):
        out = total_loss(Tensor(np.array(0.2)), Tensor(np.array(0.5)), 3.0)
        npt.assert_allclose(out.item(), 1.1, rtol=1e-15)

    def test_gradient_wrt_filter_loss_is_xi(self):
        lf = Tensor(np.array(0.2), requires_grad=True)
        lc = Tensor(np.array(0.5), requires_grad=True)
        total_loss(lf, lc, 3.0).backward()
        assert lf.grad == 3.0 and lc.grad == 1.0


class TestSgdMomentum:
    def test_cold_start_is_plain_gradient_step(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.array([0.5, -0.5])
        state = {"p": np.zeros(2)}
        sgd_momentum_step({"p": p}, state, lr=0.1, momentum=0.9, weight_decay=0.0)
        npt.assert_allclose(p.data, [1.0 - 0.05, 2.0 + 0.05], rtol=1e-15)

    def test_two_steps_hand_recursion(self):
        # constant grad g: total displacement -lr * g * (2 + momentum)
        g = np.array([1.0])
        p = Tensor(np.array([0.0]), requires_grad=True)
        state = {"p": np.zeros(1)}
        for _ in range(2):
            p.grad = g.copy()
            sgd_momentum_step({"p": p}, state, lr=0.1, momentum=0.9, weight_decay=0.0)
        npt.assert_allclose(p.data, -0.1 * g * 2.9, rtol=1e-12)

    def test_fixed_point_without_grad_or_decay(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        state = {"p": np.zeros(1)}
        sgd_momentum_step({"p": p}, state, lr=0.1, momentum=0.9, weight_decay=0.0)
        npt.assert_array_equal(p.data, [3.0])

    def test_weight_decay_pulls_toward_zero(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        state = {"p": np.zeros(1)}
        sgd_momentum_step({"p": p}, state, lr=0.1, momentum=0.0, weight_decay=0.5)
        npt.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0], rtol=1e-15)

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.zeros(3)
        with pytest.raises(T.ShapeError):
            sgd_momentum_step({"p": p}, {"p": np.zeros(2)}, 0.1, 0.9, 0.0)

    def test_a_parameter_the_loss_never_reaches_moves_by_weight_decay_alone(self):
        cfg = tiny_cfg()
        ds, model, _ = C.build_experiment(cfg)
        params = model.parameters()
        p = params["mff.stage0.class_proj"]  # the class maps are not trained yet
        res = model.forward(ds.train_images[0], int(ds.train_labels[0]))
        total_loss(res.filter_loss, res.class_loss, cfg.train.xi).backward()
        assert p.grad is None
        old = p.data.copy()
        state = {name: np.zeros_like(q.data) for name, q in params.items()}
        sgd_momentum_step(params, state, lr=0.1, momentum=0.9, weight_decay=0.5)
        assert p.data.tobytes() == (old - 0.1 * (0.5 * old)).tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_rejected_before_any_change(self, value):
        p, q = (Tensor(np.array([1.0, 2.0]), requires_grad=True) for _ in range(2))
        p.grad, q.grad = np.array([0.5, -0.5]), np.array([0.25, value])
        state = {"p": np.ones(2), "q": np.ones(2)}
        with pytest.raises(T.NonFiniteError, match="gradient of parameter 'q'"):
            sgd_momentum_step({"p": p, "q": q}, state, lr=0.1, momentum=0.9, weight_decay=0.0)
        for t in (p, q):
            npt.assert_array_equal(t.data, [1.0, 2.0])
        for v in state.values():
            npt.assert_array_equal(v, [1.0, 1.0])


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 0.5) == 0.5
        npt.assert_allclose(cosine_lr(100, 100, 0.5), 0.0, atol=1e-16)
        npt.assert_allclose(cosine_lr(50, 100, 0.5), 0.25, rtol=1e-12)

    def test_monotone_decreasing(self):
        values = [cosine_lr(s, 50, 1.0) for s in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            cosine_lr(5, 4, 1.0)


class TestTrainingLoop:
    def test_lr_zero_keeps_metrics_constant(self):
        cfg = tiny_cfg(**{"train.lr": 0, "train.epochs": 3})
        ds, model, rng = C.build_experiment(cfg)
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        rows = train(model, ds, cfg.train, rng=rng)
        accs = {r.acc for r in rows if r.split == "test"}
        assert len(accs) == 1
        after = model.parameters()
        for k in before:
            npt.assert_allclose(after[k].data, before[k], atol=1e-20)

    def test_same_seed_reproduces_metric_history_exactly(self):
        cfg = tiny_cfg(**{"train.epochs": 2})
        runs = []
        for _ in range(2):
            ds, model, rng = C.build_experiment(cfg)
            runs.append(metrics_csv(train(model, ds, cfg.train, rng=rng)))
        assert runs[0] == runs[1]

    def test_loss_strictly_decreases_first_five_fullbatch_steps(self):
        cfg = tiny_cfg(**{"train.batch_size": 18, "train.epochs": 5, "train.lr": 0.05,
                          "data.noise_amplitude": 0.2})
        ds, model, rng = C.build_experiment(cfg)
        rows = train(model, ds, cfg.train, rng=rng)
        losses = [r.loss for r in rows if r.split == "train"]
        assert all(a > b for a, b in zip(losses, losses[1:])), losses

    def test_doubling_xi_doubles_filter_only_gradients(self):
        cfg = tiny_cfg()
        ds, model, rng = C.build_experiment(cfg)
        img, y = ds.train_images[0], int(ds.train_labels[0])
        grads = {}
        for xi in (1.0, 2.0):
            model.zero_grad()
            res = model.forward(img, y)
            total_loss(res.filter_loss, res.class_loss, xi).backward()
            grads[xi] = {k: p.grad.copy() for k, p in model.parameters().items()
                         if "filter_cls" in k}
        for k in grads[1.0]:
            npt.assert_allclose(grads[2.0][k], 2.0 * grads[1.0][k], rtol=1e-12)

    def test_metrics_row_count_and_format(self):
        cfg = tiny_cfg(**{"train.epochs": 2})
        ds, model, rng = C.build_experiment(cfg)
        rows = train(model, ds, cfg.train, rng=rng)
        assert len(rows) == 4  # train + test per epoch
        text = metrics_csv(rows)
        assert text.splitlines()[0] == "epoch,split,loss,acc"
        assert len(text.splitlines()) == 5

    def test_nonfinite_loss_aborts_with_diagnostic(self):
        cfg = tiny_cfg()
        ds, model, rng = C.build_experiment(cfg)
        model.classifier.data[0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(TrainAbort, match="non-finite"):
            train(model, ds, cfg.train, rng=rng)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_gradient_aborts_naming_the_parameter(self, monkeypatch):
        # a planted backward puts an Inf into one bias gradient of the first step
        cfg = tiny_cfg()
        ds, model, rng = C.build_experiment(cfg)
        bias = model.backbone.biases[1]
        stage = B.backbone_stage

        def backbone_stage(x, grid, stride, weight, b):
            out = stage(x, grid, stride, weight, b)
            if b is bias:
                backward_fn = out._backward_fn

                def planted(g):
                    backward_fn(g)
                    bias.grad[0] = np.inf

                out._backward_fn = planted
            return out

        monkeypatch.setattr(B, "backbone_stage", backbone_stage)
        before = {k: p.data.tobytes() for k, p in model.parameters().items()}
        with pytest.raises(TrainAbort, match=r"^non-finite value at epoch 1, step 0: gradient of "
                                             r"parameter 'backbone\.stage1\.bias' holds non-finite "
                                             r"values; first made by the backward of op "
                                             r"'backbone_stage'$"):
            train(model, ds, cfg.train, rng=rng)
        assert {k: p.data.tobytes() for k, p in model.parameters().items()} == before

    def test_a_gradient_abort_names_the_backward_op_that_made_it(self, monkeypatch):
        # an Inf from attention's softmax backward spreads to every upstream gradient
        cfg = tiny_cfg()
        ds, model, rng = C.build_experiment(cfg)
        monkeypatch.setattr(T, "softmax_grad", lambda g, y, axis: np.full_like(g, np.inf))
        before = {k: p.data.tobytes() for k, p in model.parameters().items()}
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(TrainAbort) as info:
            train(model, ds, cfg.train, rng=rng)
        # the registry's first parameter, far upstream of the op
        assert str(info.value) == ("non-finite value at epoch 1, step 0: gradient of parameter "
                                   "'backbone.stage0.weight' holds non-finite values; first made "
                                   "by the backward of op 'talking_head_attention'")
        assert {k: p.data.tobytes() for k, p in model.parameters().items()} == before

    @pytest.mark.parametrize("preset, augment", [("tiny", "false"), ("tiny", "true"),
                                                 ("default", "false")])
    def test_one_generator_by_hand_matches_build_experiment(self, preset, augment):
        # the seeding contract: one generator seeded by train.seed drives the
        # data, then the weights, then shuffling and augmentation
        cfg = preset_cfg(preset, **{"train.seed": 11, "train.epochs": 1, "train.augment": augment})

        def run(ds, model, rng):
            csv = metrics_csv(train(model, ds, cfg.train, rng))
            return csv, {k: p.data.tobytes() for k, p in model.parameters().items()}

        via_config = run(*C.build_experiment(cfg))
        rng = np.random.default_rng(11)
        ds = make_synthetic(cfg.data, rng)
        model = SFINet(cfg.backbone, cfg.ambiguity, cfg.noise, cfg.sir, cfg.data.num_classes,
                       rng, bypass_filters=cfg.bypass_filters)
        assert run(ds, model, rng) == via_config

    def test_augmentation_path_still_deterministic(self):
        cfg = tiny_cfg(**{"train.augment": "true", "train.epochs": 2})
        runs = []
        for _ in range(2):
            ds, model, rng = C.build_experiment(cfg)
            runs.append(metrics_csv(train(model, ds, cfg.train, rng=rng)))
        assert runs[0] == runs[1]


def checkpoint_order(stages, gcn_depth):
    return ([n for i in range(stages) for n in (f"backbone.stage{i}.weight", f"backbone.stage{i}.bias")]
            + [n for i in range(stages) for n in (f"mff.stage{i}.class_proj", f"mff.stage{i}.filter_cls")]
            + [f"sir.stage{i}.proj" for i in range(stages)]
            + ["sir.sr.w_prev", "sir.sr.w_self", "sir.sr.w_next",
               "sir.attn.wq", "sir.attn.wk", "sir.attn.wv", "sir.attn.mix"]
            + [f"sir.gcn.layer{l}.weight" for l in range(gcn_depth)]
            + ["sir.gcn.adjacency", "sir.classifier"])


class TestParameterRegistry:
    @pytest.mark.parametrize("preset, overrides, stages, gcn_depth", [
        ("tiny", {}, 2, 1), ("tiny", {"sir.gcn_depth": 2}, 2, 2), ("default", {}, 4, 1),
    ], ids=["tiny", "tiny-gcn2", "default"])
    def test_checkpoint_order_is_pinned(self, preset, overrides, stages, gcn_depth):
        model = C.build_model(preset_cfg(preset, **overrides), np.random.default_rng(0))
        assert list(model.parameters()) == checkpoint_order(stages, gcn_depth)

    def test_names_the_tensors_the_forward_reads(self):
        model = C.build_model(tiny_cfg(**{"sir.gcn_depth": 2}), np.random.default_rng(0))
        bb = model.backbone
        params = model.parameters()
        assert params is not model.parameters()
        assert bb.parameters() == {k: v for k, v in params.items() if k.startswith("backbone.")}
        named = {"sir.sr.w_prev": model.sr_prev, "sir.sr.w_self": model.sr_self,
                 "sir.sr.w_next": model.sr_next, "sir.attn.wq": model.wq,
                 "sir.attn.wk": model.wk, "sir.attn.wv": model.wv, "sir.attn.mix": model.mix,
                 "sir.gcn.adjacency": model.adjacency, "sir.classifier": model.classifier}
        for i in range(2):
            named[f"backbone.stage{i}.weight"] = bb.weights[i]
            named[f"backbone.stage{i}.bias"] = bb.biases[i]
            named[f"mff.stage{i}.class_proj"] = model.class_projs[i]
            named[f"mff.stage{i}.filter_cls"] = model.filter_cls[i]
            named[f"sir.stage{i}.proj"] = model.stage_projs[i]
            named[f"sir.gcn.layer{i}.weight"] = model.gcn_weights[i]
        assert params.keys() == named.keys()
        assert all(params[k] is t and t.requires_grad for k, t in named.items())


class TestCheckpointRoundTrip:
    def test_forward_outputs_bitwise_identical(self, tmp_path):
        cfg = tiny_cfg(**{"train.epochs": 1})
        ds, model, rng = C.build_experiment(cfg)
        train(model, ds, cfg.train, rng=rng)
        path = tmp_path / "ckpt.csv"
        save_checkpoint(path, {k: v.data for k, v in model.parameters().items()})

        ds2, model2, _ = C.build_experiment(cfg)
        model2.load_state(load_checkpoint(path))
        for img in ds.test_images[:4]:
            a = model.forward(img).probs
            b = model2.forward(img).probs
            npt.assert_array_equal(a, b)

    def test_shape_mismatch_rejected(self, tmp_path):
        cfg = tiny_cfg()
        _, model, _ = C.build_experiment(cfg)
        state = {k: v.data for k, v in model.parameters().items()}
        state["sir.classifier"] = np.zeros((99, 3))
        with pytest.raises(ConfigError, match="sir.classifier"):
            model.load_state(state)

    def test_missing_tensor_rejected(self):
        cfg = tiny_cfg()
        _, model, _ = C.build_experiment(cfg)
        state = {k: v.data for k, v in model.parameters().items()}
        del state["sir.classifier"]
        with pytest.raises(ConfigError, match="missing"):
            model.load_state(state)

    @pytest.mark.parametrize("fault", ["nan", "shape"])
    def test_rejected_state_leaves_every_parameter_unchanged(self, fault):
        _, model, _ = C.build_experiment(tiny_cfg())
        params = model.parameters()
        before = {k: v.data.tobytes() for k, v in params.items()}
        state = {k: v.data + 1.0 for k, v in params.items()}
        last = list(params)[-1]  # every other tensor would load
        state[last] = np.full_like(state[last], np.nan) if fault == "nan" else np.zeros((99, 3))
        with pytest.raises(ConfigError, match=last):
            model.load_state(state)
        assert {k: v.data.tobytes() for k, v in model.parameters().items()} == before

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected_by_name(self, value):
        _, model, _ = C.build_experiment(tiny_cfg())
        state = {k: v.data.copy() for k, v in model.parameters().items()}
        state["sir.classifier"][0, 0] = value
        with pytest.raises(ConfigError, match="sir.classifier"):
            model.load_state(state)


class TestEvaluate:
    def test_eval_matches_manual_accuracy(self):
        cfg = tiny_cfg()
        ds, model, _ = C.build_experiment(cfg)
        loss, acc = evaluate(model, ds.test_images, ds.test_labels, xi=cfg.train.xi)
        manual = np.mean([model.predict(img) == y
                          for img, y in zip(ds.test_images, ds.test_labels)])
        assert acc == manual
        assert np.isfinite(loss)

    def test_evaluate_tapes_nothing_and_training_still_does(self, monkeypatch):
        made = []
        real = T.node

        def node(*args):
            made.append(real(*args))
            return made[-1]

        monkeypatch.setattr(T, "node", node)
        monkeypatch.setattr(R, "node", node)
        cfg = preset_cfg("default")
        ds, model, _ = C.build_experiment(cfg)
        evaluate(model, ds.test_images[:3], ds.test_labels[:3], xi=cfg.train.xi)
        model.predict(ds.test_images[0])
        assert made and not any(t._parents or t.requires_grad for t in made)
        made.clear()
        res = model.forward(ds.train_images[0], int(ds.train_labels[0]))
        loss = total_loss(res.filter_loss, res.class_loss, cfg.train.xi)
        assert len(made) == 25
        assert sum(1 for t in made if t._parents) == 20  # not the five logs
        loss.backward()
        assert model.classifier.grad.any()


def batch_backward_train(model, dataset, cfg, rng):
    """The reference loop: every forward of a batch first, then one backward of the batch loss."""
    params = model.parameters()
    state = {name: np.zeros_like(p.data) for name, p in params.items()}
    n = dataset.train_images.shape[0]
    batches_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * batches_per_epoch
    rows = []
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
                        img = TR.augment_image(img, rng)
                    res = model.forward(img, int(dataset.train_labels[i]))
                    sample_losses.append(total_loss(res.filter_loss, res.class_loss, cfg.xi))
                    if int(np.argmax(res.probs)) == int(dataset.train_labels[i]):
                        correct += 1
                batch_loss = T.scale(T.add_n(sample_losses), 1.0 / len(idx))
                batch_loss.backward()
                lr_t = cosine_lr(step, total_steps, cfg.lr)
                step += 1
                TR.sgd_momentum_step(params, state, lr_t, cfg.momentum, cfg.weight_decay)
                ep_loss += batch_loss.item() * len(idx)
            rows.append(TR.MetricRow(epoch, "train", ep_loss / n, correct / n))
            test_loss, test_acc = evaluate(model, dataset.test_images, dataset.test_labels,
                                           xi=cfg.xi)
            rows.append(TR.MetricRow(epoch, "test", test_loss, test_acc))
    except T.NonFiniteError as exc:
        raise TrainAbort(f"non-finite value at epoch {len(rows) // 2 + 1}, step {step}: {exc}") from exc
    return rows


@pytest.fixture
def steps(monkeypatch):
    """Per optimizer step: every parameter's gradient bytes before it, data bytes after it."""
    record = []
    real = TR.sgd_momentum_step

    def sgd_momentum_step(params, *args):
        grads = {k: None if p.grad is None else p.grad.tobytes() for k, p in params.items()}
        real(params, *args)
        record.append((grads, {k: p.data.tobytes() for k, p in params.items()}))

    monkeypatch.setattr(TR, "sgd_momentum_step", sgd_momentum_step)
    return record


def _tape_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPerSampleBackward:
    """Each sample is backpropagated right after its forward, last sample of a batch first."""

    @pytest.mark.parametrize("preset, overrides", [
        ("default", {"train.batch_size": 12}),
        ("tiny", {"train.batch_size": 5}),  # 18 samples: a partial last batch
        ("tiny", {"sir.gcn_depth": 2}),
        ("tiny", {"train.augment": "true"}),
    ])
    def test_bytes_match_the_batch_loss_backward(self, steps, preset, overrides):
        cfg = preset_cfg(preset, **{"train.epochs": 2, **overrides})
        runs = []
        for loop in (train, batch_backward_train):
            ds, model, rng = C.build_experiment(cfg)
            csv = metrics_csv(loop(model, ds, cfg.train, rng=rng))
            runs.append((csv, list(steps)))
            steps.clear()
        (csv, got), (ref_csv, want) = runs
        assert len(got) == len(want) == 2 * -(-len(ds.train_labels) // cfg.train.batch_size)
        for step, ((grads, params), (ref_grads, ref_params)) in enumerate(zip(got, want)):
            for name in ref_grads:
                assert grads[name] == ref_grads[name], f"step {step}: grad of {name}"
                assert params[name] == ref_params[name], f"step {step}: {name}"
        assert csv == ref_csv

    def test_every_backward_walks_one_samples_graph(self, monkeypatch):
        cfg = tiny_cfg(**{"train.epochs": 2, "train.batch_size": 5})
        ds, model, rng = C.build_experiment(cfg)
        param_ids = {id(p) for p in model.parameters().values()}
        forward_starts, graphs = [], []
        real_forward, real_graph = SFINet.forward, T.CompGraph.from_output

        def forward(self, *args, **kwargs):
            forward_starts.append(Tensor(0.0)._seq_id)
            return real_forward(self, *args, **kwargs)

        def from_output(out):
            graph = real_graph(out)
            ops = [t for t in graph.nodes if t.op != "leaf"]
            leaves = {id(t) for t in graph.nodes if t.op == "leaf"}
            graphs.append((min(t._seq_id for t in ops), forward_starts[-1], leaves))
            return graph

        monkeypatch.setattr(SFINet, "forward", forward)
        monkeypatch.setattr(T.CompGraph, "from_output", from_output)
        train(model, ds, cfg.train, rng=rng)
        assert len(graphs) == cfg.train.epochs * len(ds.train_labels)
        for first_op, forward_start, leaves in graphs:
            assert first_op > forward_start  # nothing from an earlier forward
            assert leaves <= param_ids

    @pytest.mark.parametrize("preset, overrides", [
        ("default", {}),
        ("default", {"model.bypass_filters": "true", "data.samples_per_class": 48,
                     "data.overlap": 0.8, "data.noise_amplitude": 1.5,
                     "data.signal_amplitude": 1.25}),  # ambiguous-pair data, S=88
    ], ids=["default", "bypass"])
    def test_epoch_peak_is_about_one_samples_tape(self, preset, overrides):
        cfg = preset_cfg(preset, **{"train.epochs": 1, **overrides})
        ds, model, rng = C.build_experiment(cfg)

        def one_sample():
            res = model.forward(ds.train_images[0], int(ds.train_labels[0]))
            total_loss(res.filter_loss, res.class_loss, cfg.train.xi).backward()

        one_sample()  # allocate every gradient buffer before measuring
        model.zero_grad()
        sample = _tape_peak(one_sample)
        epoch = _tape_peak(lambda: train(model, ds, cfg.train, rng=rng))
        assert epoch <= 2 * sample, (epoch, sample)

    def test_abort_mid_batch_names_the_step_and_keeps_every_parameter(self, steps):
        cfg = tiny_cfg(**{"train.epochs": 1})
        batch = cfg.train.batch_size
        results = []
        for loop in (train, batch_backward_train):
            ds, model, rng = C.build_experiment(cfg)
            order = copy.deepcopy(rng).permutation(len(ds.train_labels))
            ds.train_images[order[batch + 2]] = np.nan  # the 3rd sample of the 2nd batch
            with np.errstate(invalid="ignore"), pytest.raises(TrainAbort) as info:
                loop(model, ds, cfg.train, rng=rng)
            assert len(steps) == 1
            after_step = steps.pop()[1]
            params = {k: p.data.tobytes() for k, p in model.parameters().items()}
            assert params == after_step  # no optimizer step ran for the aborted batch
            results.append((str(info.value), params))
        assert results[0][0].startswith("non-finite value at epoch 1, step 1: op ")
        assert results[0] == results[1]
