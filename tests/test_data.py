import numpy as np
import numpy.testing as npt
import pytest

from sfinet.backbone import ConfigError
from sfinet.data import (DataConfig, _anchors, augment_image, linear_probe, make_synthetic,
                         probe_accuracies)


def small_cfg(**kw):
    base = dict(num_classes=4, samples_per_class=16, image_size=16, patch_size=6)
    base.update(kw)
    return DataConfig(**base)


class TestGeneration:
    def test_same_seed_bitwise_identical(self):
        a = make_synthetic(small_cfg(seed=7))
        b = make_synthetic(small_cfg(seed=7))
        npt.assert_array_equal(a.train_images, b.train_images)
        npt.assert_array_equal(a.test_images, b.test_images)
        npt.assert_array_equal(a.train_labels, b.train_labels)

    def test_different_seed_differs(self):
        a = make_synthetic(small_cfg(seed=1))
        b = make_synthetic(small_cfg(seed=2))
        assert not np.array_equal(a.train_images, b.train_images)

    def test_split_sizes_and_balance(self):
        ds = make_synthetic(small_cfg(train_fraction=0.75))
        assert ds.train_images.shape[0] == 4 * 12
        assert ds.test_images.shape[0] == 4 * 4
        for c in range(4):
            assert (ds.train_labels == c).sum() == 12
            assert (ds.test_labels == c).sum() == 4

    def test_smallest_split_keeps_one_image_each_side(self):
        ds = make_synthetic(small_cfg(samples_per_class=2, train_fraction=0.5))
        assert ds.train_images.shape[0] == ds.test_images.shape[0] == 4
        with pytest.raises(ConfigError, match="gives 2 training and 0 test images"):
            small_cfg(samples_per_class=2, train_fraction=0.6)

    def test_splits_disjoint(self):
        # noise makes every sample unique, so equality across splits means leakage
        ds = make_synthetic(small_cfg())
        train_flat = {img.tobytes() for img in ds.train_images}
        assert all(img.tobytes() not in train_flat for img in ds.test_images)

    def test_zero_noise_images_constant_per_class(self):
        ds = make_synthetic(small_cfg(noise_amplitude=0.0, overlap=0.0))
        for c in range(4):
            imgs = ds.train_images[ds.train_labels == c]
            npt.assert_array_equal(imgs.min(axis=0), imgs.max(axis=0))

    def test_patch_larger_than_image_rejected(self):
        with pytest.raises(ConfigError, match="patch"):
            DataConfig(patch_size=40, image_size=32)

    def test_overlap_bounds_checked(self):
        with pytest.raises(ConfigError):
            DataConfig(overlap=1.5)


class TestAnchors:
    @pytest.mark.parametrize("classes, expected", [
        (4, [(3, 3), (3, 3), (17, 17), (3, 17)]),
        (8, [(3, 3), (3, 3), (17, 17), (3, 17), (17, 3), (11, 11), (13, 13), (15, 15)]),
    ])
    def test_anchors_at_32px_unchanged(self, classes, expected):
        assert _anchors(DataConfig(num_classes=classes)) == expected

    def test_colliding_anchors_rejected(self):
        # 19 slots on a 14 px diagonal: the fill step rounds down to 0
        with pytest.raises(ConfigError, match="20 classes get colliding anchors"):
            DataConfig(num_classes=20, image_size=32, patch_size=12)


class TestLinearProbe:
    def test_clean_data_linearly_separable(self):
        ds = make_synthetic(small_cfg(noise_amplitude=0.0, overlap=0.0))
        acc = probe_accuracies(ds)
        assert acc["overall"] == 1.0

    def test_ambiguous_pair_harder_than_overall(self):
        cfg = DataConfig(overlap=0.8, noise_amplitude=2.0, signal_amplitude=1.0, seed=42)
        acc = probe_accuracies(make_synthetic(cfg))
        assert acc["pair"] < acc["overall"]

    def test_probe_predictions_shape(self, rng):
        x_train = rng.standard_normal((20, 12))
        y_train = np.repeat(np.arange(4), 5)
        x_test = rng.standard_normal((8, 12))
        preds = linear_probe(x_train, y_train, x_test)
        assert preds.shape == (8,)
        assert set(preds) <= {0, 1, 2, 3}


class TestAugmentation:
    def test_deterministic_given_seed(self, rng):
        img = rng.standard_normal((16, 16, 3))
        a = augment_image(img, np.random.default_rng(3))
        b = augment_image(img, np.random.default_rng(3))
        npt.assert_array_equal(a, b)

    def test_preserves_shape(self, rng):
        img = rng.standard_normal((16, 16, 3))
        assert augment_image(img, rng).shape == (16, 16, 3)
