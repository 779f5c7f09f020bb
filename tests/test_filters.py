import math
import os

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfinet import tensor as T
from sfinet.backbone import ConfigError
from sfinet.filters import (AmbiguityParams, FilterArtifacts, NoiseParams, ambiguity_map,
                            ambiguity_mask, apply_mask, class_maps, filter_loss, filter_pass,
                            filter_stage, gather_kept_rows, noise_scores, noise_select,
                            split_stages, stage_layout, topk_weights, validate_filter_ratios)
from sfinet.tensor import Tensor

import filter_reference as ref
from conftest import assert_grads_match


# --- one-stage calls of the stacked helpers --------------------------------

def rows(*sizes: int):
    """A layout that only places stages of ``sizes`` rows in the stack."""
    return stage_layout(sizes, 0.5, 0.5, bypass=True)


def mask_of(scores: np.ndarray, gamma1: float) -> np.ndarray:
    """The ambiguity mask of one stage whose scores are ``scores``."""
    return ambiguity_mask(scores, stage_layout([scores.size], gamma1, gamma1))


def select_of(scores: np.ndarray, gamma2: float, keep_mask: np.ndarray) -> np.ndarray:
    """The kept rows of one stage whose noise scores are ``scores``."""
    return noise_select(scores, keep_mask, stage_layout([scores.size], gamma2, gamma2))


# --- naive full-sort references, kept deliberately independent ------------

def naive_mask(scores: np.ndarray, gamma1: float) -> np.ndarray:
    """Rank every cell by (score, row-major position); keep the lowest."""
    w, h = scores.shape
    cells = sorted(((scores[x, y], x * h + y) for x in range(w) for y in range(h)))
    keep = math.floor((1.0 - gamma1) * (w * h))
    mask = np.zeros(w * h)
    for _, flat in cells[:keep]:
        mask[flat] = 1.0
    return mask.reshape(w, h)


def naive_select(masked_maps: np.ndarray, gamma2: float, mask: np.ndarray | None) -> list[int]:
    """Sort candidates by (-score, position), take the keep quota."""
    w, h, n = masked_maps.shape
    scores = masked_maps.mean(axis=2).ravel()
    flats = range(w * h) if mask is None else [i for i in range(w * h) if mask.ravel()[i] > 0.5]
    ranked = sorted(flats, key=lambda i: (-scores[i], i))
    return ranked[: math.floor((1.0 - gamma2) * (w * h))]


class TestParams:
    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            AmbiguityParams(k=1)
        with pytest.raises(ConfigError):
            AmbiguityParams(beta_h=0.9, beta_l=0.95)
        with pytest.raises(ConfigError):
            AmbiguityParams(gamma1=0.0)
        with pytest.raises(ConfigError):
            NoiseParams(gamma2=1.0)

    def test_gamma1_above_gamma2_rejected(self):
        with pytest.raises(ConfigError, match="gamma1"):
            validate_filter_ratios([16], 0.3, 0.2)

    # floor((1 - 0.8) * 4) = 0 of a 2x2 stage's rows, for a config and a direct one-stage call
    @pytest.mark.parametrize("check", [
        lambda: validate_filter_ratios([4], 0.5, 0.8),
        lambda: filter_stage(Tensor(np.ones((4, 1))), Tensor(np.ones((1, 4))),
                             AmbiguityParams(gamma1=0.5), NoiseParams(gamma2=0.8)),
    ], ids=["validate_filter_ratios", "noise_select"])
    def test_gamma2_keeping_no_row_rejected(self, check):
        with pytest.raises(ConfigError, match="gamma2=0.8 keeps no positions of 4"):
            check()


class TestClassMaps:
    def test_zero_weights(self, rng):
        maps, coarse = class_maps([rng.standard_normal((9, 4))], [np.zeros((4, 5))], rows(9))
        npt.assert_array_equal(maps, 0.0)
        npt.assert_array_equal(coarse, 0.0)

    def test_single_pixel_coarse_equals_that_pixel(self, rng):
        maps, coarse = class_maps([rng.standard_normal((1, 4))], [rng.standard_normal((4, 6))],
                                  rows(1))
        npt.assert_allclose(coarse[0], maps[0], rtol=1e-15)

    def test_coarse_matches_hand_pooling(self, rng):
        f = rng.standard_normal((4, 3))
        proj = np.zeros((3, 5))
        proj[:3, :3] = np.eye(3)  # identity-extended weights
        _, coarse = class_maps([f], [proj], rows(4))
        expected = np.concatenate([f.mean(axis=0), [0.0, 0.0]])
        npt.assert_allclose(coarse[0], expected, rtol=1e-12)

    def test_channel_mismatch(self, rng):
        with pytest.raises(T.ShapeError):
            class_maps([rng.standard_normal((4, 3))], [np.zeros((4, 5))], rows(4))
        with pytest.raises(T.ShapeError, match="feature rows"):  # a (W, H, C) grid, not rows
            class_maps([rng.standard_normal((2, 2, 3))], [np.zeros((3, 5))], rows(4))


class TestTopkWeights:
    def test_table_defaults_exact(self):
        _, w = topk_weights(np.array([0.4, 0.3, 0.2, 0.1]), AmbiguityParams())
        npt.assert_allclose(w, [1.10, 1.05, 1.00, 0.95], atol=1e-12)

    def test_k2_endpoints_exact(self):
        _, w = topk_weights(np.array([1.0, 2.0]), AmbiguityParams(k=2))
        assert w[0] == 1.1 and w[1] == 0.95

    def test_hand_sorted_indices(self):
        idx, _ = topk_weights(np.array([0.1, 0.9, 0.5]), AmbiguityParams(k=2))
        assert idx.tolist() == [1, 2]

    def test_ties_prefer_lower_class_index(self):
        idx, _ = topk_weights(np.array([0.5, 0.7, 0.5, 0.7]), AmbiguityParams(k=3))
        assert idx.tolist() == [1, 3, 0]

    def test_spacing_constant_for_k_2_to_8(self):
        for k in range(2, 9):
            p = np.linspace(1.0, 0.0, max(k, 8))
            _, w = topk_weights(p, AmbiguityParams(k=k))
            assert w[0] == 1.1 and w[-1] == 0.95
            npt.assert_allclose(np.diff(w), -(1.1 - 0.95) / (k - 1), atol=1e-12)

    def test_k_exceeding_classes_rejected(self):
        with pytest.raises(ConfigError):
            topk_weights(np.array([1.0, 2.0]), AmbiguityParams(k=3))


class TestAmbiguityMap:
    def test_identical_slices_scale_by_mean_weight(self, rng):
        x = rng.standard_normal(9)
        maps = np.stack([x, x, x], axis=1)
        out = ambiguity_map(maps, np.array([[0, 2]]), np.array([1.1, 0.95]), rows(9))
        npt.assert_allclose(out, x * (1.1 + 0.95) / 2, rtol=1e-12)

    def test_hand_value_ones_and_zeros(self):
        maps = np.stack([np.ones(4), np.zeros(4)], axis=1)
        out = ambiguity_map(maps, np.array([[0, 1]]), np.array([1.1, 0.95]), rows(4))
        npt.assert_allclose(out, np.full(4, 0.55), rtol=1e-12)

    def test_only_selected_slices_matter(self, rng):
        maps = rng.standard_normal((9, 5))
        out1 = ambiguity_map(maps, np.array([[0, 2]]), np.array([1.1, 0.95]), rows(9))
        shuffled = maps.copy()
        shuffled[:, [1, 3, 4]] = maps[:, [4, 1, 3]]
        out2 = ambiguity_map(shuffled, np.array([[0, 2]]), np.array([1.1, 0.95]), rows(9))
        npt.assert_array_equal(out1, out2)


class TestAmbiguityMask:
    def test_hand_case_drops_highest(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        mask = mask_of(scores, 0.25)
        npt.assert_array_equal(mask, [1.0, 0.0, 1.0, 1.0])

    def test_constant_map_drops_last_row_major_cell(self):
        mask = mask_of(np.ones(4), 0.25)
        npt.assert_array_equal(mask, [1.0, 1.0, 1.0, 0.0])

    @given(st.integers(2, 8), st.integers(2, 8),
           st.floats(0.01, 0.6), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_cardinality_contract(self, w, h, gamma1, seed):
        scores = np.random.default_rng(seed).standard_normal(w * h)
        keep = math.floor((1.0 - gamma1) * (w * h))
        if keep <= 0 or keep >= w * h:
            return
        mask = mask_of(scores, gamma1)
        assert int(mask.sum()) == keep

    @given(st.floats(0.01, 100.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_positive_scaling_leaves_mask_unchanged(self, c, seed):
        scores = np.random.default_rng(seed).standard_normal(20)
        a = mask_of(scores, 0.3)
        b = mask_of(scores * c, 0.3)
        npt.assert_array_equal(a, b)

    def test_degenerate_requests_rejected(self):
        with pytest.raises(ConfigError, match="degenerate"):
            mask_of(np.ones(4), 0.9999)  # keeps 0
        with pytest.raises(ConfigError):
            mask_of(np.ones(400), 1e-17)  # rounds to keeping all

    def test_mask_is_constant_not_differentiable(self, rng):
        mask = mask_of(rng.standard_normal(9), 0.3)
        assert type(mask) is np.ndarray and mask.dtype == np.float64


class TestApplyMask:
    def test_all_ones_identity(self, rng):
        maps = rng.standard_normal((9, 4))
        m2 = apply_mask(np.ones(9), maps)
        npt.assert_array_equal(m2, maps)

    def test_single_zero_clears_all_channels(self, rng):
        maps = rng.standard_normal((9, 6))
        mask = np.ones(9)
        mask[5] = 0.0
        m2 = apply_mask(mask, maps)
        npt.assert_array_equal(m2[5], np.zeros(6))

    def test_reapplying_is_noop(self, rng):
        maps = rng.standard_normal((9, 4))
        mask = mask_of(rng.standard_normal(9), 0.3)
        m2 = apply_mask(mask, maps)
        m3 = apply_mask(mask, m2)
        npt.assert_array_equal(m3, m2)


class TestNoiseSelect:
    def test_hand_case(self):
        # scores per position: 3, 1, 4, 2 -> keep [2, 0]
        maps = np.array([3.0, 1.0, 4.0, 2.0]).reshape(4, 1)
        feats = np.arange(8, dtype=float).reshape(4, 2)
        chosen = select_of(noise_scores(maps), 0.5, np.ones(4))
        assert chosen.dtype == np.intp and chosen.tolist() == [2, 0]
        npt.assert_array_equal(gather_kept_rows(Tensor(feats), chosen).data, feats[[2, 0]])

    def test_all_equal_scores_keep_first_flat_indices(self):
        chosen = select_of(noise_scores(np.ones((6, 2))), 0.5, np.ones(6))
        assert chosen.tolist() == [0, 1, 2]

    @given(st.integers(2, 6), st.integers(2, 6),
           st.floats(0.05, 0.8), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_cardinality_contract(self, w, h, gamma2, seed):
        g = np.random.default_rng(seed)
        keep = math.floor((1.0 - gamma2) * (w * h))
        if keep < 1:
            return
        chosen = select_of(noise_scores(g.standard_normal((w * h, 3))), gamma2, np.ones(w * h))
        assert len(chosen) == keep
        assert gather_kept_rows(Tensor(g.standard_normal((w * h, 5))), chosen).shape == (keep, 5)

    def test_mask_restriction_guarantees_membership(self, rng):
        for _ in range(50):
            maps = rng.standard_normal((12, 2))
            mask = mask_of(rng.standard_normal(12), 0.25)
            chosen = select_of(noise_scores(apply_mask(mask, maps)), 0.4, keep_mask=mask)
            assert all(mask[i] == 1.0 for i in chosen)

    def test_selection_makes_no_tape_node(self, rng, monkeypatch):
        mask = mask_of(rng.standard_normal(12), 0.25)
        scores = noise_scores(apply_mask(mask, rng.standard_normal((12, 3))))
        calls = []
        monkeypatch.setattr(T, "node", lambda *args: calls.append(args))
        chosen = noise_select(scores, mask, stage_layout([12], 0.4, 0.4))
        assert calls == [] and type(chosen) is np.ndarray and chosen.dtype == np.intp

    @pytest.mark.parametrize("bypass", [False, True])
    def test_filter_stage_gathers_the_selected_rows(self, rng, bypass):
        feats = Tensor(rng.standard_normal((16, 6)), requires_grad=True)
        noise = NoiseParams()
        art = filter_stage(feats, Tensor(rng.standard_normal((6, 5))), AmbiguityParams(), noise,
                           bypass=bypass)
        if bypass:
            assert art.selected_features is feats
        else:
            chosen = select_of(art.noise_scores, noise.gamma2, art.mask)
            assert art.selected_indices.tobytes() == chosen.tobytes()
            kept = gather_kept_rows(feats, chosen)
            assert art.selected_features.data.tobytes() == kept.data.tobytes()

    def test_quota_infeasible_rejected(self, rng):
        mask = np.zeros(4)
        with pytest.raises(ConfigError, match="unmasked"):
            select_of(noise_scores(rng.standard_normal((4, 2))), 0.2, keep_mask=mask)


class TestOracleEquivalence:
    def test_mask_matches_naive_reference(self, rng):
        for _ in range(100):
            w, h = rng.integers(2, 9, size=2)
            gamma1 = float(rng.uniform(0.05, 0.6))
            keep = math.floor((1.0 - gamma1) * (w * h))
            if keep <= 0 or keep >= w * h:
                continue
            scores = rng.standard_normal((w, h))
            if rng.random() < 0.3:  # force ties
                scores = np.round(scores, 1)
            npt.assert_array_equal(mask_of(scores.ravel(), gamma1),
                                   naive_mask(scores, gamma1).ravel())

    def test_select_matches_naive_reference(self, rng):
        for _ in range(100):
            w, h = rng.integers(2, 7, size=2)
            gamma2 = float(rng.uniform(0.05, 0.7))
            if math.floor((1.0 - gamma2) * (w * h)) < 1:
                continue
            maps = rng.standard_normal((int(w), int(h), 3))
            if rng.random() < 0.3:
                maps = np.round(maps, 1)
            feats = rng.standard_normal((int(w) * int(h), 4))
            use_mask = rng.random() < 0.5
            mask = None
            if use_mask:
                gamma1 = min(0.3, gamma2)
                if math.floor((1.0 - gamma1) * (w * h)) in (0, w * h):
                    use_mask = False
                else:
                    mask = mask_of(rng.standard_normal((int(w), int(h))).ravel(), gamma1)
            chosen = select_of(noise_scores(maps.reshape(-1, 3)), gamma2,
                                  keep_mask=mask if use_mask else np.ones(w * h))
            expected = naive_select(maps, gamma2,
                                    mask.reshape(int(w), int(h)) if use_mask else None)
            assert chosen.tolist() == expected
            npt.assert_array_equal(gather_kept_rows(Tensor(feats), chosen).data, feats[expected])

    def test_keep_count_rounds_the_product_of_the_extents(self, rng):
        # (1 - 0.3) * 6 * 5 rounds to 20.999..., (1 - 0.3) * 30 to 21.0
        w, h, gamma = 6, 5, 0.3
        assert math.floor((1.0 - gamma) * w * h) == 20
        scores = rng.standard_normal((w, h))
        mask = mask_of(scores.ravel(), gamma)
        oracle_mask = naive_mask(scores, gamma)
        assert mask.sum() == oracle_mask.sum() == 21
        npt.assert_array_equal(mask, oracle_mask.ravel())
        maps = rng.standard_normal((w, h, 3))
        chosen = select_of(noise_scores(maps.reshape(-1, 3)), gamma, np.ones(w * h))
        assert len(chosen) == len(naive_select(maps, gamma, None)) == 21
        assert chosen.tolist() == naive_select(maps, gamma, None)


class TestStackedPassMatchesTheOneStageReference:
    """Every record of the stacked pass equals its stage filtered alone, byte for byte."""

    @staticmethod
    def assert_same_records(got, want, bypass):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            for name in FilterArtifacts._fields[:-1]:
                x, y = getattr(a, name), getattr(b, name)
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
            if bypass:
                assert a.selected_features is b.selected_features
            else:
                assert a.selected_features.data.tobytes() == b.selected_features.data.tobytes()

    def test_random_layouts_of_one_to_four_stages(self):
        g = np.random.default_rng(20261019)
        seen = {"signed_zero_maps": 0, "tied_scores": 0}
        for _ in range(300):
            n = int(g.integers(2, 9))
            amb = AmbiguityParams(k=int(g.integers(2, n + 1)), gamma1=float(g.uniform(0.05, 0.5)))
            noise = NoiseParams(gamma2=float(g.uniform(amb.gamma1, 0.8)))
            feats, projs = [], []
            while len(feats) < g.integers(1, 5):
                s, c = int(g.integers(2, 70)), int(g.integers(1, 20))
                try:
                    stage_layout([s], amb.gamma1, noise.gamma2)
                except ConfigError:
                    continue
                f = g.standard_normal((s, c)) * 10.0 ** float(g.integers(-3, 4))
                p = g.standard_normal((c, n))
                kind = g.integers(4)
                if kind == 1:  # small integers: tied maps and scores
                    f, p = np.round(f / np.abs(f).max() * 3), np.round(p * 2)
                elif kind == 2:  # every row alike: constant maps
                    f = np.repeat(f[:1], s, 0)
                elif kind == 3:  # scores <= 0, some rows zero: masked rows score -0.0 or 0.0
                    f, p = np.abs(f), -np.abs(p)
                    f[g.random(s) < 0.3] = 0.0
                feats.append(Tensor(f, requires_grad=True))
                projs.append(Tensor(p))
            sizes = [f.shape[0] for f in feats]
            for bypass in (False, True):
                layout = stage_layout(sizes, amb.gamma1, noise.gamma2, bypass)
                got = split_stages(filter_pass(feats, projs, amb, layout), layout)
                want = [ref.filter_stage(f, p, amb, noise, bypass) for f, p in zip(feats, projs)]
                self.assert_same_records(got, want, bypass)
                masked = np.concatenate([a.masked_maps for a in want])
                seen["signed_zero_maps"] += bool(np.signbit(masked[masked == 0]).any())
                scores = np.concatenate([a.noise_scores for a in want])
                seen["tied_scores"] += np.unique(scores).size < scores.size
            # the rankings alone, on scores where -0.0 and 0.0 tie
            layout = stage_layout(sizes, amb.gamma1, noise.gamma2)
            scores = g.choice([-0.0, 0.0, -1.0, 1.0, 2.0], size=sum(sizes))
            mask = ambiguity_mask(scores, layout)
            chosen = noise_select(-scores, mask, layout)
            for r, k in zip(layout.rows, layout.kept):
                want_mask = ref.ambiguity_mask(scores[r], amb.gamma1)
                assert mask[r].tobytes() == want_mask.tobytes()
                want_chosen = ref.noise_select(-scores[r], noise.gamma2, want_mask)
                assert chosen[k].tobytes() == want_chosen.tobytes()
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("setting", ["tiny", "default", "ambiguous-pair", "ambiguous-pair-bypass"])
    def test_models(self, monkeypatch, setting):
        from sfinet import config as C
        from sfinet import reconstitution as R

        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "ambiguous-pair.txt")
        sets = ["model.bypass_filters=true"] if setting.endswith("bypass") else []
        cfg = C.load(preset=setting, sets=sets) if setting in C.PRESETS else C.load(path, sets=sets)
        ds, model, _ = C.build_experiment(cfg)
        concat, kept = R.concat_stages, []
        monkeypatch.setattr(R, "concat_stages", lambda rows, projs: kept.append(rows) or concat(rows, projs))
        for image, label in zip(ds.test_images[:6], ds.test_labels[:6]):
            res = model.forward(image, int(label))
            want = [ref.filter_stage(f, p, cfg.ambiguity, cfg.noise, cfg.bypass_filters)
                    for f, p in zip(res.stages, model.class_projs)]
            self.assert_same_records(model.filter_stages(res.stages), want, cfg.bypass_filters)
            # the rows the forward passed on are the reference's kept rows
            for rows, art in zip(kept.pop(), want):
                assert rows.data.tobytes() == art.selected_features.data.tobytes()


class TestSelectedRegionInvariance:
    def test_perturbing_dropped_positions_leaves_g_unchanged(self, rng):
        feats = rng.standard_normal((16, 6))
        maps = rng.standard_normal((16, 3))
        mask = mask_of(rng.standard_normal(16), 0.25)
        mm = apply_mask(mask, maps)
        chosen = select_of(noise_scores(mm), 0.25, keep_mask=mask)
        dropped = sorted(set(range(16)) - set(chosen.tolist()))
        perturbed = feats.copy()
        perturbed[dropped] += rng.standard_normal((len(dropped), 6)) * 10
        npt.assert_array_equal(gather_kept_rows(Tensor(perturbed), chosen).data,
                               gather_kept_rows(Tensor(feats), chosen).data)


class TestFilterLoss:
    def test_uniform_predictions_give_stages_times_log_n(self, rng):
        n = 5
        gs = [Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((2, 6)))]
        classifiers = [Tensor(np.zeros((3, n))), Tensor(np.zeros((6, n)))]
        loss = filter_loss(gs, classifiers, 2, n)
        npt.assert_allclose(loss.item(), 2 * np.log(n), rtol=1e-12)

    def test_single_stage_two_classes_uniform(self, rng):
        loss = filter_loss([Tensor(rng.standard_normal((3, 4)))], [Tensor(np.zeros((4, 2)))], 0, 2)
        npt.assert_allclose(loss.item(), np.log(2), rtol=1e-12)

    def test_growing_margin_drives_loss_to_zero(self):
        g = Tensor(np.ones((2, 2)))
        losses = []
        for margin in (5.0, 10.0, 20.0):
            cls = np.zeros((2, 3))
            cls[:, 1] = margin / 2  # true-class logit = margin after the row mean
            losses.append(filter_loss([g], [Tensor(cls)], 1, 3).item())
        assert losses[0] > losses[1] > losses[2] > 0
        assert losses[2] < 1e-8

    def test_label_out_of_range(self, rng):
        with pytest.raises(ConfigError):
            filter_loss([Tensor(rng.standard_normal((2, 2)))], [Tensor(np.zeros((2, 3)))], 3, 3)


class TestEndToEndDifferentiability:
    def test_filter_loss_gradient_reaches_backbone(self, rng):
        from sfinet.backbone import Backbone, BackboneConfig

        cfg = BackboneConfig(input_size=(8, 8), strides=(2, 2), channels=(4, 6))
        bb = Backbone(cfg, rng)
        amb = AmbiguityParams(k=2, gamma1=0.1)
        noise = NoiseParams(gamma2=0.2)
        projs = [Tensor(rng.standard_normal((4, 3)) * 0.5, requires_grad=True),
                 Tensor(rng.standard_normal((6, 3)) * 0.5, requires_grad=True)]
        clss = [Tensor(rng.standard_normal((4, 3)) * 0.5, requires_grad=True),
                Tensor(rng.standard_normal((6, 3)) * 0.5, requires_grad=True)]
        img = rng.standard_normal((8, 8, 3))

        def loss():
            stages = bb.forward(Tensor(img))
            selected = []
            for feats, proj in zip(stages, projs):
                art = filter_stage(feats, proj, amb, noise)
                selected.append(art.selected_features)
            return filter_loss(selected, clss, 1, 3)

        params = dict(bb.parameters())
        params.update({f"cls{i}": c for i, c in enumerate(clss)})
        assert_grads_match(loss, params, tol=1e-4)


class TestCheckedConstants:
    """Selection-only values are computed off the tape, with the finiteness check kept."""

    @staticmethod
    def old_tape_chains(features: Tensor, proj: Tensor, topk, weights, mask: Tensor,
                        indices, bypass: bool):
        """Class maps, coarse pool, ambiguity map, masked maps, noise scores and
        kept rows as tape ops, the kept rows gathered from the masked features."""
        w, h, c = features.shape
        n = proj.shape[1]
        k = len(topk)
        maps = T.reshape(T.matmul(T.reshape(features, (w * h, c)), proj), (w, h, n))
        coarse = T.global_average_pool(maps)
        picked = T.gather_cols(T.reshape(maps, (w * h, n)), topk)
        combo = T.matmul(picked, Tensor(np.asarray(weights, dtype=np.float64).reshape(k, 1)))
        amb = T.reshape(T.scale(combo, 1.0 / k), (w, h))
        masked = T.hadamard(maps, mask)
        flat = T.reshape(T.hadamard(features, mask), (w * h, c))
        rows = flat if bypass else T.gather_rows(flat, indices)
        return maps, coarse, amb, masked, T.channel_average_pool(masked), rows

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", [(2, 3, 5, 6), (4, 4, 7, 5), (8, 8, 4, 16)])
    def test_bitwise_equal_to_the_old_tape_chains(self, seed, shape):
        w, h, n, c = shape
        g = np.random.default_rng(seed)
        data = g.standard_normal((w, h, c)) * 10.0 ** g.integers(-3, 4)
        proj = Tensor(g.standard_normal((c, n)), requires_grad=True)
        for bypass in (False, True):
            feats = Tensor(data.reshape(w * h, c), requires_grad=True)
            old_feats = Tensor(data.copy(), requires_grad=True)
            art = filter_stage(feats, proj, AmbiguityParams(k=2 + seed % 3, gamma1=0.2),
                               NoiseParams(gamma2=0.3), bypass=bypass)
            old = self.old_tape_chains(old_feats, proj, art.topk_indices, art.weights,
                                       Tensor(art.mask.reshape(w, h)),
                                       art.selected_indices, bypass)
            new = (art.maps, art.coarse, art.ambiguity_map, art.masked_maps, art.noise_scores,
                   art.selected_features.data)
            # the same values, flat over the grid's rows where the old chains kept (W, H)
            shapes = [(w * h, n), (n,), (w * h,), (w * h, n), (w * h,), old[-1].shape]
            for a, b, shape in zip(new, old, shapes):
                assert a.shape == shape and a.size == b.data.size
                assert a.tobytes() == b.data.tobytes()
            upstream = g.standard_normal(art.selected_features.shape)
            upstream[0] = -0.0
            T.backward(T.sum_all(T.hadamard(art.selected_features, Tensor(upstream))))
            T.backward(T.sum_all(T.hadamard(old[-1], Tensor(upstream))))
            assert feats.grad.tobytes() == old_feats.grad.tobytes()

    @pytest.mark.parametrize("bypass", [False, True])
    def test_only_the_feature_path_requires_grad(self, rng, bypass):
        feats = Tensor(rng.standard_normal((16, 6)), requires_grad=True)
        proj = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        art = filter_stage(feats, proj, AmbiguityParams(), NoiseParams(), bypass=bypass)
        for value in (art.maps, art.coarse, art.ambiguity_map, art.mask, art.masked_maps,
                      art.noise_scores):
            assert type(value) is np.ndarray and value.dtype == np.float64
        for indices in (art.topk_indices, art.selected_indices):
            assert type(indices) is np.ndarray and indices.dtype == np.intp
        nodes = T.CompGraph.from_output(art.selected_features).nodes
        assert nodes[0] is feats
        assert [t.op for t in nodes[1:]] == ([] if bypass else ["gather_kept_rows"])

    def test_overflowing_ambiguity_map_still_raises(self):
        # one class score near the float maximum: the maps and their mean are
        # finite, but the top weight 1.1 pushes the ambiguity map to Inf
        feats = np.zeros((4, 1))
        feats[0, 0] = 1.7e308
        proj = Tensor(np.array([[1.0, 0.5]]))
        maps, coarse = class_maps([feats], [proj.data], rows(4))
        assert np.isfinite(maps).all() and np.isfinite(coarse).all()
        with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError, match="ambiguity_map"):
            filter_stage(Tensor(feats), proj, AmbiguityParams(k=2), NoiseParams())

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    @pytest.mark.parametrize("op", ["class_maps", "coarse_pool", "ambiguity_map", "noise_scores"])
    def test_planted_overflow_raises_naming_the_value(self, monkeypatch, op):
        """Finite rows of the first or the last stage whose filter value overflows.

        The pass checks each value once over every stage's rows, so the
        error names the value wherever it fails, in the forward and in
        filter_stages.
        """
        from sfinet import config as C

        cfg = C.build_run_config({"data.classes": "6"})
        ds, model, _ = C.build_experiment(cfg)
        big = np.finfo(np.float64).max
        shapes = cfg.backbone.stage_shapes()
        for site in (0, len(shapes) - 1):
            stages = [Tensor(np.zeros((w * h, c))) for w, h, c in shapes]
            feats, proj = stages[site].data, np.zeros(model.class_projs[site].shape)
            if op == "class_maps":  # each score sums C_i products equal to the float maximum
                feats[:] = 1.0
                proj[:] = big
            elif op == "coarse_pool":  # every score is half the maximum, so every column sum overflows
                feats[:, 0] = 1.0
                proj[0] = 0.5 * big
            elif op == "ambiguity_map":  # one row's top two scores, weighted 1.1 and 1.05
                feats[0, 0] = 1.0
                proj[0, :2] = 0.9 * big
            else:
                # rows 0 and 1 score +-0.6 max in classes 4 and 5, which cancel in
                # the column sums, rank below classes 0-3 (row 2) and so stay out of
                # the ambiguity map; both rows keep mask 1, and their row sums overflow
                feats[0, 0], feats[1, 0], feats[2, 1] = 1.0, -1.0, 1.0
                proj[0, 4:] = 0.6 * big
                proj[1, :4] = [4.0, 3.0, 2.0, 1.0]
            for i, p in enumerate(model.class_projs):
                p.data = proj if i == site else np.zeros(p.shape)
            monkeypatch.setattr(model.backbone, "forward", lambda image: stages)
            with pytest.raises(T.NonFiniteError, match=f"^op '{op}'"):
                model.forward(ds.train_images[0], int(ds.train_labels[0]))
            with pytest.raises(T.NonFiniteError, match=f"^op '{op}'"):
                model.filter_stages(stages)

    @pytest.mark.parametrize("seed", range(3))
    def test_kept_row_gather_matches_the_scatter_add_gather(self, seed):
        g = np.random.default_rng(seed)
        data = g.standard_normal((16, 5))
        idx = g.permutation(16)[:11]
        upstream = g.standard_normal((11, 5))
        upstream[0] = -0.0  # assigned, it stays -0.0 until the features' gradient adds it
        for prior in (None, np.zeros((16, 5)), g.standard_normal((16, 5))):
            new, old = Tensor(data, requires_grad=True), Tensor(data, requires_grad=True)
            new.grad = old.grad = None
            if prior is not None:
                new.grad, old.grad = prior.copy(), prior.copy()
            out_new, out_old = gather_kept_rows(new, idx), T.gather_rows(old, idx)
            assert out_new.data.tobytes() == out_old.data.tobytes()
            out_new._backward_fn(upstream.copy())
            out_old._backward_fn(upstream.copy())
            assert new.grad.tobytes() == old.grad.tobytes()

    def test_backward_graph_of_a_default_sample_is_unchanged(self):
        from collections import Counter

        from sfinet import config as C
        from sfinet.train import total_loss

        cfg = C.build_run_config({})
        ds, model, _ = C.build_experiment(cfg)
        res = model.forward(ds.train_images[0], int(ds.train_labels[0]))
        loss = total_loss(res.filter_loss, res.class_loss, cfg.train.xi)
        counts = Counter(t.op for t in T.CompGraph.from_output(loss).nodes)
        # recorded when the selection values were still tape ops, less the four
        # hadamard masks the features no longer pass through, the eleven
        # reshapes the (W, H, C) stage maps needed before features became rows,
        # the mean_rows/reshape/matmul/reshape chains that pooled_logits and the
        # (S_i, stride**2) patch gathers replaced, the chains that became
        # one op per layer: each backbone stage (gather_rows, matmul,
        # add_rowvec, tanh), the stage concat (four matmuls, concat_rows),
        # the attention (three project_heads, pairwise_scores, scale, softmax,
        # attend, head_mix, merge_heads) and the GCN layer (two matmuls, relu),
        # and each loss's pooled_logits and cross_entropy, one
        # pooled_cross_entropy node since the five losses are one stacked pass
        assert counts == {
            "add": 1, "add_n": 1, "backbone_stage": 4, "concat_stages": 1,
            "gather_kept_rows": 4, "gcn_layer": 1, "leaf": 26,
            "pooled_cross_entropy": 5, "scale": 1, "semantic_reassembly": 1,
            "talking_head_attention": 1,
        }

    def test_tape_size_of_a_default_sample(self, monkeypatch):
        from sfinet import config as C
        from sfinet import reconstitution as R
        from sfinet.train import total_loss

        cfg = C.build_run_config({})
        ds, model, _ = C.build_experiment(cfg)
        ops = []
        node = T.node

        def counting_node(data, parents, backward_fn, op):
            ops.append(op)
            return node(data, parents, backward_fn, op)

        monkeypatch.setattr(T, "node", counting_node)
        monkeypatch.setattr(R, "node", counting_node)
        res = model.forward(ds.train_images[0], int(ds.train_labels[0]))
        total_loss(res.filter_loss, res.class_loss, cfg.train.xi)
        # every node one training sample creates; the filters' selection
        # values are checked arrays, so each stage adds its kept-row gather
        # alone, the reported probabilities are a checked array too, and each
        # loss is one node of the stacked loss pass; the image enters as a
        # checked constant, no node
        assert len(ops) == 25


class TestDeferredBypassValues:
    """With the filters bypassed, the forward runs no filter pass; export asks for one."""

    @staticmethod
    def bypass_sample():
        from sfinet import config as C

        cfg = C.build_run_config({"model.bypass_filters": "true"})
        ds, model, _ = C.build_experiment(cfg)
        return cfg, model, ds.train_images[0], int(ds.train_labels[0])

    def test_tape_size_of_a_bypass_sample(self, monkeypatch):
        from sfinet import reconstitution as R
        from sfinet.train import total_loss

        cfg, model, image, label = self.bypass_sample()
        ops, checks = [], []
        node, checked = T.node, T.checked

        def counting_node(data, parents, backward_fn, op):
            ops.append(op)
            return node(data, parents, backward_fn, op)

        def counting_checked(arr, op):  # every node's check and every filter value's
            checks.append(op)
            return checked(arr, op)

        monkeypatch.setattr(T, "node", counting_node)
        monkeypatch.setattr(R, "node", counting_node)
        monkeypatch.setattr(T, "checked", counting_checked)
        res = model.forward(image, label)
        total_loss(res.filter_loss, res.class_loss, cfg.train.xi)
        filter_values = {"class_maps", "coarse_pool", "ambiguity_map", "masked_maps", "noise_scores"}
        assert filter_values.isdisjoint(checks)
        # every node one training sample creates, one per loss in the stacked loss pass
        assert len(ops) == 21
        # one pass checks each value once, over every stage's rows
        arts = model.filter_stages(res.stages)
        assert len(arts) == len(res.stages)
        assert all(checks.count(value) == 1 for value in filter_values)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_class_maps_raise_when_read(self):
        cfg, model, image, label = self.bypass_sample()
        model.class_projs[0].data = np.full(model.class_projs[0].shape, np.finfo(np.float64).max)
        res = model.forward(image, label)
        assert np.isfinite(res.class_loss.data) and np.isfinite(res.filter_loss.data)
        with pytest.raises(T.NonFiniteError, match="^op 'class_maps'"):
            model.filter_stages(res.stages)


class TestMeansMatchNumpyMean:
    """The per-sample means are ``np.add.reduce(x, axis) / n``, byte for byte ``x.mean(axis)``."""

    def test_pooled_head_coarse_pool_and_noise_scores(self):
        rng = np.random.default_rng(20261018)
        shapes = [(1, 1), (1, 9), (9, 1), (69, 64), (88, 64), (69, 4)]
        shapes += [tuple(int(v) for v in rng.integers(1, 100, size=2)) for _ in range(60)]
        for r, c in shapes:
            x = rng.standard_normal((r, c)) * 10.0 ** float(rng.integers(-6, 7))
            head = rng.standard_normal((c, 3))
            got = T.pooled_heads([(Tensor(x), Tensor(head))])[1][0]
            assert got.tobytes() == (x.mean(axis=0)[None] @ head)[0].tobytes(), (r, c)
            maps, coarse = class_maps([x], [np.eye(c)], rows(r))
            assert coarse.tobytes() == maps.mean(axis=0).tobytes(), (r, c)
            scores = noise_scores(x)
            assert scores.tobytes() == x.mean(axis=1).tobytes(), (r, c)
