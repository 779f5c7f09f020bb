import numpy as np
import numpy.testing as npt
import pytest

from sfinet.backbone import Backbone, BackboneConfig, ConfigError, _patch_indices
from sfinet.tensor import ShapeError, Tensor
from sfinet import tensor as T

from conftest import assert_grads_match


def tiny_config():
    return BackboneConfig(input_size=(16, 16), in_channels=3, strides=(4, 2), channels=(5, 8))


class TestConfig:
    def test_stage_shape_arithmetic(self):
        cfg = tiny_config()
        assert cfg.stage_shapes() == [(4, 4, 5), (2, 2, 8)]

    def test_shapes_are_config_only(self, rng):
        cfg = tiny_config()
        bb = Backbone(cfg, rng)
        for img in (np.zeros((16, 16, 3)), rng.standard_normal((16, 16, 3))):
            shapes = [s.shape for s in bb.forward(Tensor(img))]
            assert shapes == [(16, 5), (4, 8)]

    def test_indivisible_extent_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            BackboneConfig(input_size=(10, 10), strides=(4, 2), channels=(4, 8))

    def test_shrinking_channels_rejected(self):
        with pytest.raises(ConfigError, match="shrink"):
            BackboneConfig(input_size=(16, 16), strides=(2, 2), channels=(8, 4))

    def test_final_extent_below_2x2_rejected(self):
        with pytest.raises(ConfigError, match="2x2"):
            BackboneConfig(input_size=(8, 8), strides=(4, 2), channels=(4, 8))

    def test_wrong_image_shape_rejected(self, rng):
        bb = Backbone(tiny_config(), rng)
        with pytest.raises(ShapeError, match="image shape"):
            bb.forward(Tensor(np.zeros((8, 8, 3))))


class TestForward:
    def test_zero_weights_give_zero_outputs(self, rng):
        bb = Backbone(tiny_config(), rng)
        for w, b in zip(bb.weights, bb.biases):
            w.data = np.zeros_like(w.data)
            b.data = np.zeros_like(b.data)
        stages = bb.forward(Tensor(rng.standard_normal((16, 16, 3))))
        for s in stages:
            npt.assert_array_equal(s.data, 0.0)

    def test_patch_weight_gradient(self, rng):
        bb = Backbone(tiny_config(), rng)
        img = rng.standard_normal((16, 16, 3))

        def loss():
            return T.sum_all(T.tanh(bb.forward(Tensor(img))[-1]))

        assert_grads_match(loss, bb.parameters())

    def test_translation_by_one_stride_shifts_stage1_by_one_cell(self, rng):
        cfg = tiny_config()
        bb = Backbone(cfg, rng)
        img = np.zeros((16, 16, 3))
        img[4:12, 4:12] = rng.standard_normal((8, 8, 3))  # borderless: edges stay zero
        shifted = np.zeros_like(img)
        shifted[4:] = img[:-4]  # shift by the stage-1 stride
        # stage-0 rows are its 4x4 grid in row-major order
        base = bb.forward(Tensor(img))[0].data.reshape(4, 4, 5)
        moved = bb.forward(Tensor(shifted))[0].data.reshape(4, 4, 5)
        npt.assert_array_equal(moved[1:], base[:-1])

    def test_deterministic_given_weights(self, rng):
        bb = Backbone(tiny_config(), rng)
        img = rng.standard_normal((16, 16, 3))
        a = bb.forward(Tensor(img))[-1].data
        b = bb.forward(Tensor(img))[-1].data
        npt.assert_array_equal(a, b)

    def test_init_scale_follows_fan_in(self):
        cfg = tiny_config()
        bb = Backbone(cfg, np.random.default_rng(0))
        bound0 = np.sqrt(1.0 / (4 * 4 * 3))
        assert np.abs(bb.weights[0].data).max() <= bound0


def loop_patch_indices(w, h, stride):
    """One row per patch in row-major patch order, its (di, dj) taps row-major."""
    out = []
    for i in range(w // stride):
        for j in range(h // stride):
            out.append([(i * stride + di) * h + (j * stride + dj)
                        for di in range(stride) for dj in range(stride)])
    return np.asarray(out, dtype=np.intp)


@pytest.mark.parametrize("w, h, stride", [(32, 32, 4), (8, 8, 2), (4, 4, 2), (4, 4, 1),
                                          (8, 4, 2), (6, 12, 3)])
def test_patch_indices_match_the_loop(w, h, stride):
    got = _patch_indices(w, h, stride)
    want = loop_patch_indices(w, h, stride)
    assert got.dtype == want.dtype and got.shape == want.shape
    npt.assert_array_equal(got, want)
    assert sorted(got.ravel()) == list(range(w * h))
