import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from sfinet import data
from sfinet.backbone import ConfigError
from sfinet.data import (DataConfig, SyntheticDataset, _anchors, _class_patches, augment_image,
                         linear_probe, make_synthetic, probe_accuracies)


def small_cfg(**kw):
    base = dict(classes=4, samples_per_class=16, image_size=16, patch_size=6)
    base.update(kw)
    return DataConfig(**base)


def per_image_synthetic(cfg, rng):
    """One image at a time, then stacked: the generator whose bytes the split fill keeps."""
    anchors = _anchors(cfg)
    patches = _class_patches(cfg, rng)
    size, ch, p = cfg.image_size, cfg.channels, cfg.patch_size
    n_train = cfg.train_per_class
    train_x, train_y, test_x, test_y = [], [], [], []
    for c in range(cfg.classes):
        ax, ay = anchors[c]
        for s in range(cfg.samples_per_class):
            img = cfg.noise_amplitude * rng.standard_normal((size, size, ch))
            img[ax:ax + p, ay:ay + p] += patches[c]
            if s < n_train:
                train_x.append(img)
                train_y.append(c)
            else:
                test_x.append(img)
                test_y.append(c)
    return SyntheticDataset(np.asarray(train_x), np.asarray(train_y, dtype=np.intp),
                            np.asarray(test_x), np.asarray(test_y, dtype=np.intp))


AMBIGUOUS_PAIR = DataConfig(samples_per_class=48, overlap=0.8, noise_amplitude=1.5,
                            signal_amplitude=1.25)


class TestGeneration:
    def test_same_seed_bitwise_identical(self):
        a = make_synthetic(small_cfg(), np.random.default_rng(7))
        b = make_synthetic(small_cfg(), np.random.default_rng(7))
        npt.assert_array_equal(a.train_images, b.train_images)
        npt.assert_array_equal(a.test_images, b.test_images)
        npt.assert_array_equal(a.train_labels, b.train_labels)

    def test_different_seed_differs(self):
        a = make_synthetic(small_cfg(), np.random.default_rng(1))
        b = make_synthetic(small_cfg(), np.random.default_rng(2))
        assert not np.array_equal(a.train_images, b.train_images)

    def test_split_sizes_and_balance(self):
        ds = make_synthetic(small_cfg(train_fraction=0.75), np.random.default_rng(42))
        assert ds.train_images.shape[0] == 4 * 12
        assert ds.test_images.shape[0] == 4 * 4
        for c in range(4):
            assert (ds.train_labels == c).sum() == 12
            assert (ds.test_labels == c).sum() == 4

    def test_smallest_split_keeps_one_image_each_side(self):
        ds = make_synthetic(small_cfg(samples_per_class=2, train_fraction=0.5),
                            np.random.default_rng(42))
        assert ds.train_images.shape[0] == ds.test_images.shape[0] == 4
        with pytest.raises(ConfigError, match="gives 2 training and 0 test images"):
            small_cfg(samples_per_class=2, train_fraction=0.6)

    def test_splits_disjoint(self):
        # noise makes every sample unique, so equality across splits means leakage
        ds = make_synthetic(small_cfg(), np.random.default_rng(42))
        train_flat = {img.tobytes() for img in ds.train_images}
        assert all(img.tobytes() not in train_flat for img in ds.test_images)

    def test_zero_noise_images_constant_per_class(self):
        ds = make_synthetic(small_cfg(noise_amplitude=0.0, overlap=0.0), np.random.default_rng(42))
        for c in range(4):
            imgs = ds.train_images[ds.train_labels == c]
            npt.assert_array_equal(imgs.min(axis=0), imgs.max(axis=0))

    def test_patch_larger_than_image_rejected(self):
        with pytest.raises(ConfigError, match="patch"):
            DataConfig(patch_size=40, image_size=32)

    def test_overlap_bounds_checked(self):
        with pytest.raises(ConfigError):
            DataConfig(overlap=1.5)


class TestSplitFill:
    @pytest.mark.parametrize("cfg", [
        DataConfig(),
        AMBIGUOUS_PAIR,
        DataConfig(classes=3, samples_per_class=8, image_size=8, patch_size=4),  # tiny
        small_cfg(noise_amplitude=0.0),
        small_cfg(samples_per_class=2, train_fraction=0.5),
    ], ids=["default", "ambiguous-pair", "tiny", "zero-noise", "smallest-split"])
    @pytest.mark.parametrize("seed", [3, 42])
    def test_bytes_match_the_per_image_generator(self, cfg, seed):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = make_synthetic(cfg, got_rng), per_image_synthetic(cfg, want_rng)
        for name in ("train_images", "train_labels", "test_images", "test_labels"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.shape, a.dtype, a.flags.c_contiguous) == (b.shape, b.dtype, True), name
            assert a.tobytes() == b.tobytes(), name
        assert got_rng.bit_generator.state == want_rng.bit_generator.state  # later draws agree

    @pytest.mark.parametrize("cfg", [DataConfig(), AMBIGUOUS_PAIR], ids=["default", "ambiguous-pair"])
    def test_peak_memory_is_about_the_dataset(self, cfg):
        # the per-image generator peaked at 2.0-2.13x: every image twice, then the stacked copy
        rng = np.random.default_rng(7)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ds = make_synthetic(cfg, rng)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (ds.train_images.nbytes + ds.test_images.nbytes)


class TestAnchors:
    @pytest.mark.parametrize("classes, expected", [
        (4, [(3, 3), (3, 3), (17, 17), (3, 17)]),
        (8, [(3, 3), (3, 3), (17, 17), (3, 17), (17, 3), (11, 11), (13, 13), (15, 15)]),
    ])
    def test_anchors_at_32px_unchanged(self, classes, expected):
        assert _anchors(DataConfig(classes=classes)) == expected

    @pytest.mark.parametrize("classes", [4, 8])
    def test_anchor_shared_by_the_confusable_pair_alone(self, monkeypatch, classes):
        monkeypatch.setattr(data, "CONFUSABLE_PAIR", (1, 3))
        anchors = _anchors(DataConfig(classes=classes))
        assert anchors[1] == anchors[3] and len(set(anchors)) == classes - 1

    def test_colliding_anchors_rejected(self):
        # 19 slots on a 14 px diagonal: the fill step rounds down to 0
        with pytest.raises(ConfigError, match="20 classes get colliding anchors"):
            DataConfig(classes=20, image_size=32, patch_size=12)


class TestLinearProbe:
    def test_clean_data_linearly_separable(self):
        ds = make_synthetic(small_cfg(noise_amplitude=0.0, overlap=0.0), np.random.default_rng(42))
        acc = probe_accuracies(ds)
        assert acc["overall"] == 1.0

    def test_ambiguous_pair_harder_than_overall(self):
        cfg = DataConfig(overlap=0.8, noise_amplitude=2.0, signal_amplitude=1.0)
        acc = probe_accuracies(make_synthetic(cfg, np.random.default_rng(42)))
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
