import importlib
import os

import numpy as np
import numpy.testing as npt
import pytest

from sfinet import config as C
from sfinet import tensor as T
from sfinet.backbone import ConfigError
from sfinet.serialization import load_checkpoint, save_checkpoint
from sfinet.tensor import Tensor
from sfinet.train import (TrainAbort, TrainConfig, cosine_lr, evaluate, metrics_csv,
                          sgd_momentum_step, total_loss, train)


def tiny_cfg(**overrides):
    raw = dict(C.PRESETS["tiny"])
    raw.update({k: str(v) for k, v in overrides.items()})
    return C.build_run_config(raw)


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

    def test_augmentation_path_still_deterministic(self):
        cfg = tiny_cfg(**{"train.augment": "true", "train.epochs": 2})
        runs = []
        for _ in range(2):
            ds, model, rng = C.build_experiment(cfg)
            runs.append(metrics_csv(train(model, ds, cfg.train, rng=rng)))
        assert runs[0] == runs[1]


class TestOutputFiles:
    def test_failed_metrics_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        TR = importlib.import_module("sfinet.train")  # the package re-exports train()
        (tmp_path / "metrics.csv").write_text("previous\n")

        def fail(rows):
            raise RuntimeError("injected")

        monkeypatch.setattr(TR, "metrics_csv", fail)
        cfg = tiny_cfg(**{"train.epochs": 1})
        ds, model, rng = C.build_experiment(cfg)
        with pytest.raises(RuntimeError, match="injected"):
            train(model, ds, cfg.train, rng=rng, out_dir=tmp_path)
        assert (tmp_path / "metrics.csv").read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["metrics.csv"]


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
