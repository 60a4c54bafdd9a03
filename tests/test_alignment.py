import math

import numpy as np
import pytest

from semproto.alignment import (
    LossReport,
    PseudoLabelGrid,
    assign_pseudo_labels,
    det_cls_loss,
    scene_loss,
    scene_loss_and_grad,
    scene_similarities,
    total_loss,
    weak_cls_loss,
)
from semproto.core import sigmoid
from semproto.errors import DimensionMismatch
from semproto.prototypes import Aggregation, PrototypeBank

from .oracles import central_diff_grad, pseudo_label_loop, scene_loss_loop

HALF_LOG2 = 0.5 * math.log(2.0)


def _random_bank(rng, n_classes, l, dim):
    sesp = rng.standard_normal((n_classes, dim))
    sesp /= np.linalg.norm(sesp, axis=1, keepdims=True)
    sapp = rng.standard_normal((n_classes, l, dim))
    sapp /= np.linalg.norm(sapp, axis=2, keepdims=True)
    return PrototypeBank(
        vocab=tuple(f"c{i}" for i in range(n_classes)),
        sesp=sesp,
        sapp=sapp,
        strategy=Aggregation.MEAN,
        k=1,
        l=l,
    )


def _random_batch(rng, b, n_classes, dim):
    feats = rng.standard_normal((b, dim))
    labels = rng.integers(n_classes, size=b)
    return feats, labels


def _weak_losses(bank):
    """The two weak-split losses, each as a (features, labels) call."""
    return (lambda x, y: weak_cls_loss(x, y, bank, 0.1),
            lambda x, y: scene_loss_and_grad(x, y, bank, tau=0.25))


class TestWeakLossInputs:
    def test_validates_shapes(self):
        bank = _random_bank(np.random.default_rng(98), 3, 2, 4)
        for loss in _weak_losses(bank):
            with pytest.raises(DimensionMismatch, match="batch size 2"):
                loss(np.ones((2, 4)), np.zeros(3, dtype=np.int64))

    @pytest.mark.parametrize("labels", [[0.5, 1.5], [0.0, 1.0], [True, False], ["0", "1"]])
    def test_non_integer_labels_rejected(self, labels):
        # a cast to int64 before the kernel would hide the floats from it
        bank = _random_bank(np.random.default_rng(97), 3, 2, 4)
        for loss in _weak_losses(bank):
            with pytest.raises(DimensionMismatch, match="integer"):
                loss(np.ones((2, 4)), labels)

    def test_out_of_vocabulary_labels_rejected_at_use(self):
        rng = np.random.default_rng(99)
        bank = _random_bank(rng, 3, 2, 8)
        feats = rng.standard_normal((2, 8))
        for loss in _weak_losses(bank):
            with pytest.raises(DimensionMismatch):
                loss(feats, np.array([0, 3]))


class TestSceneSimilarities:
    def test_exact_match_scores_one(self):
        rng = np.random.default_rng(0)
        bank = _random_bank(rng, 2, 3, 8)
        s = scene_similarities(bank.sapp[1, 2][None, :], bank)
        assert s[0, 1, 2] == pytest.approx(1.0, abs=1e-12)

    def test_hand_built_orthogonal_case(self):
        dim = 6
        sapp = np.zeros((2, 2, dim))
        sapp[0, 0, 0] = 1.0
        sapp[0, 1, 1] = 1.0
        sapp[1, 0, 2] = 1.0
        sapp[1, 1, 3] = 1.0
        bank = PrototypeBank(vocab=("a", "b"), sesp=np.eye(dim)[4:6],
                             sapp=sapp, strategy=Aggregation.MEAN, k=1, l=2)
        feature = np.array([3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
        s = scene_similarities(feature[None, :], bank)
        np.testing.assert_allclose(
            s[0], [[0.6, 0.8], [0.0, 0.0]], atol=1e-12
        )

    def test_range_clamped(self):
        rng = np.random.default_rng(1)
        bank = _random_bank(rng, 4, 3, 16)
        feats, _ = _random_batch(rng, 8, 4, 16)
        s = scene_similarities(feats, bank)
        assert s.min() >= -1.0 and s.max() <= 1.0
        assert s.shape == (8, 4, 3)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(2)
        bank = _random_bank(rng, 2, 2, 8)
        with pytest.raises(DimensionMismatch):
            scene_similarities(_random_batch(rng, 2, 2, 9)[0], bank)


class TestAssignPseudoLabels:
    def test_other_classes_never_positive(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(-1, 1, size=(4, 5, 3))
        labels = np.array([0, 1, 2, 3])
        grid = assign_pseudo_labels(s, labels, tau=-1.0)
        for b, lab in enumerate(labels):
            other = np.delete(grid.y[b], lab, axis=0)
            assert other.sum() == 0

    def test_threshold_is_inclusive(self):
        s = np.full((1, 2, 1), 0.25)
        grid = assign_pseudo_labels(s, np.array([0]), tau=0.25)
        assert grid.y[0, 0, 0] == 1
        assert grid.y[0, 1, 0] == 0

    def test_tau_boundary_sweep(self):
        rng = np.random.default_rng(4)
        s = rng.uniform(-1, 1, size=(3, 4, 5))
        labels = np.array([1, 2, 3])
        low = assign_pseudo_labels(s, labels, tau=-1.0)
        for b, lab in enumerate(labels):
            assert low.y[b, lab].sum() == 5
        high = assign_pseudo_labels(s, labels, tau=1.0)
        assert high.y.sum() == int((s == 1.0).sum())

    def test_matches_triple_loop_exactly(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(-1, 1, size=(3, 4, 5))
        labels = np.array([0, 3, 1])
        grid = assign_pseudo_labels(s, labels, tau=0.2)
        y_ref, w_ref = pseudo_label_loop(s.tolist(), labels.tolist(), 0.2)
        np.testing.assert_array_equal(grid.y, np.array(y_ref, dtype=np.uint8))
        assert np.abs(grid.w - np.array(w_ref)).max() < 1e-12

    def test_weights_are_sigmoid_of_scores(self):
        rng = np.random.default_rng(6)
        s = rng.uniform(-1, 1, size=(2, 3, 4))
        grid = assign_pseudo_labels(s, np.array([0, 1]), tau=0.0)
        np.testing.assert_array_equal(grid.w, sigmoid(s))

    def test_raising_tau_never_adds_labels(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(-1, 1, size=(4, 6, 5))
        labels = rng.integers(6, size=4)
        taus = [-1.0, -0.5, 0.0, 0.3, 0.7, 1.0]
        grids = [assign_pseudo_labels(s, labels, tau=t) for t in taus]
        for lo, hi in zip(grids, grids[1:]):
            assert np.all(hi.y <= lo.y)

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            assign_pseudo_labels(np.zeros((1, 1, 1)), np.array([0]), tau=1.5)

    @pytest.mark.parametrize("labels", [[0, 7], [0, 3], [-1, 0], [0], [0, 1, 2]])
    def test_labels_outside_the_vocabulary_or_batch_rejected(self, labels):
        # as in the fused scene kernel: C = 3, so 3 and 7 name no class
        s = np.zeros((2, 3, 2))
        with pytest.raises(DimensionMismatch):
            assign_pseudo_labels(s, labels, 0.25)


class TestSceneLoss:
    def test_single_positive_term_at_zero(self):
        grid = PseudoLabelGrid(
            y=np.ones((1, 1, 1), dtype=np.uint8),
            w=np.full((1, 1, 1), 0.5),
            s=np.zeros((1, 1, 1)),
        )
        assert scene_loss(grid) == pytest.approx(HALF_LOG2, abs=1e-12)

    def test_single_negative_term_at_zero_same_by_symmetry(self):
        grid = PseudoLabelGrid(
            y=np.zeros((1, 1, 1), dtype=np.uint8),
            w=np.full((1, 1, 1), 0.5),
            s=np.zeros((1, 1, 1)),
        )
        assert scene_loss(grid) == pytest.approx(HALF_LOG2, abs=1e-12)

    def test_saturated_positive_vanishes(self):
        grid = PseudoLabelGrid(
            y=np.ones((1, 1, 1), dtype=np.uint8),
            w=sigmoid(np.full((1, 1, 1), 30.0)),
            s=np.full((1, 1, 1), 30.0),
        )
        assert scene_loss(grid) < 1e-9

    def test_nonnegative_on_random_grids(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            s = rng.uniform(-1, 1, size=(3, 4, 2))
            grid = assign_pseudo_labels(s, rng.integers(4, size=3), tau=0.1)
            assert scene_loss(grid) >= 0.0

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            b, c, l = rng.integers(1, 5), rng.integers(1, 6), rng.integers(1, 4)
            s = rng.uniform(-1, 1, size=(b, c, l))
            labels = rng.integers(c, size=b)
            grid = assign_pseudo_labels(s, labels, tau=0.2)
            ref = scene_loss_loop(s.tolist(), grid.y.tolist(), grid.w.tolist())
            got = scene_loss(grid)
            assert got == pytest.approx(ref, rel=1e-10)


def _frozen_weight_scene_loss(features, bank, labels, tau, logit_scale, w_frozen):
    """Oracle for the detached flag: grid weights held constant."""
    s = scene_similarities(features, bank)
    grid = assign_pseudo_labels(s, labels, tau, logit_scale=logit_scale)
    frozen = PseudoLabelGrid(y=grid.y, w=w_frozen, s=grid.s)
    return scene_loss(frozen, logit_scale=logit_scale)


class TestSceneLossGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            bank = _random_bank(rng, 3, 2, 8)
            feats, labels = _random_batch(rng, 2, 3, 8)
            loss, grad = scene_loss_and_grad(feats, labels, bank, tau=0.25)

            def fn(x):
                l, _ = scene_loss_and_grad(x, labels, bank, tau=0.25)
                return l

            fd = central_diff_grad(fn, feats, h=1e-5)
            rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-30)
            assert rel < 1e-6

    def test_detached_matches_frozen_weight_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(6):
            bank = _random_bank(rng, 3, 2, 8)
            feats, labels = _random_batch(rng, 2, 3, 8)
            s = scene_similarities(feats, bank)
            grid = assign_pseudo_labels(s, labels, tau=0.25)
            w_frozen = grid.w.copy()
            _, grad = scene_loss_and_grad(feats, labels, bank, tau=0.25,
                                          detach_weights=True)

            def fn(x):
                return _frozen_weight_scene_loss(
                    x, bank, labels, 0.25, 1.0, w_frozen
                )

            fd = central_diff_grad(fn, feats, h=1e-5)
            rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-30)
            assert rel < 1e-6

    def test_fused_loss_agrees_with_grid_path(self):
        rng = np.random.default_rng(12)
        bank = _random_bank(rng, 4, 3, 10)
        feats, labels = _random_batch(rng, 5, 4, 10)
        fused, _ = scene_loss_and_grad(feats, labels, bank, tau=0.25)
        grid = assign_pseudo_labels(scene_similarities(feats, bank),
                                    labels, tau=0.25)
        assert fused == pytest.approx(scene_loss(grid), rel=1e-9)

    def test_deep_saturation_kills_gradient(self):
        # anti-aligned features at a huge logit scale: all labels stay 0
        # and every sigmoid saturates to ~0
        rng = np.random.default_rng(13)
        bank = _random_bank(rng, 2, 2, 6)
        feats = -bank.sapp[0, 0][None, :]
        _, grad = scene_loss_and_grad(feats, np.array([1]), bank, tau=0.9,
                                      logit_scale=30.0)
        # only slots anti-aligned with the feature saturate; check the
        # fully-saturated slot's contribution via a one-slot bank
        tiny_bank = PrototypeBank(vocab=("a",), sesp=bank.sesp[:1],
                                  sapp=bank.sapp[:1, :1], strategy=Aggregation.MEAN,
                                  k=1, l=1)
        _, g1 = scene_loss_and_grad(-tiny_bank.sapp[0, 0][None, :], np.array([0]),
                                    tiny_bank, tau=0.9, logit_scale=30.0)
        assert np.abs(g1).max() < 1e-8

    def test_gradient_orthogonal_to_feature(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            bank = _random_bank(rng, 3, 2, 12)
            feats, labels = _random_batch(rng, 3, 3, 12)
            _, grad = scene_loss_and_grad(feats, labels, bank, tau=0.0)
            for b in range(len(feats)):
                g = grad[b]
                f = feats[b]
                proj = abs(float(g @ f)) / np.linalg.norm(f)
                assert proj < 1e-8 * max(np.linalg.norm(g), 1e-30)

    def test_feature_scaling_preserves_cosines(self):
        rng = np.random.default_rng(15)
        bank = _random_bank(rng, 2, 2, 8)
        feats, labels = _random_batch(rng, 2, 2, 8)
        scaled = 2.0 * feats
        s1 = scene_similarities(feats, bank)
        s2 = scene_similarities(scaled, bank)
        np.testing.assert_allclose(s1, s2, atol=1e-12)
        _, g1 = scene_loss_and_grad(feats, labels, bank, tau=0.25)
        _, g2 = scene_loss_and_grad(scaled, labels, bank, tau=0.25)
        # gradient halves when the feature doubles (1/|f| prefactor)
        np.testing.assert_allclose(g2, g1 / 2.0, atol=1e-10)


class TestClassificationLosses:
    def test_confident_correct_has_tiny_loss(self):
        rng = np.random.default_rng(16)
        bank = _random_bank(rng, 3, 2, 8)
        loss, _ = weak_cls_loss(bank.sesp[1][None, :], np.array([1]), bank,
                                temperature=0.001)
        assert loss < 1e-3

    def test_equidistant_feature_gives_log_c(self):
        dim, c = 12, 4
        sesp = np.eye(dim)[:c]
        sapp = np.eye(dim)[c:c + c].reshape(c, 1, dim)
        bank = PrototypeBank(vocab=tuple(f"c{i}" for i in range(c)), sesp=sesp,
                             sapp=sapp, strategy=Aggregation.MEAN, k=1, l=1)
        f = sesp.sum(axis=0)
        loss, _ = weak_cls_loss(f[None, :], np.array([2]), bank, 0.5)
        assert loss == pytest.approx(math.log(c), abs=1e-12)

    def test_weak_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            bank = _random_bank(rng, 4, 2, 8)
            feats, labels = _random_batch(rng, 3, 4, 8)
            loss, grad = weak_cls_loss(feats, labels, bank, temperature=0.1)

            def fn(x):
                l, _ = weak_cls_loss(x, labels, bank, 0.1)
                return l

            fd = central_diff_grad(fn, feats, h=1e-5)
            rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-30)
            assert rel < 1e-6

    def test_shared_kernel_equality(self):
        rng = np.random.default_rng(18)
        bank = _random_bank(rng, 3, 2, 8)
        feats, labels = _random_batch(rng, 4, 3, 8)
        a = weak_cls_loss(feats, labels, bank, 0.2)
        b = det_cls_loss(feats, labels, bank, 0.2)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    def test_empty_det_batch(self):
        rng = np.random.default_rng(19)
        bank = _random_bank(rng, 3, 2, 8)
        loss, grad = det_cls_loss([], [], bank, 0.2)
        assert loss == 0.0
        assert grad.shape == (0, 8)

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_det_label_count_must_match_batch(self, n_labels):
        rng = np.random.default_rng(23)
        bank = _random_bank(rng, 3, 2, 8)
        with pytest.raises(DimensionMismatch, match="batch size 2"):
            det_cls_loss(rng.standard_normal((2, 8)), np.zeros(n_labels, dtype=np.int64),
                         bank, 0.2)

    def test_det_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        bank = _random_bank(rng, 3, 2, 6)
        feats = rng.standard_normal((2, 6))
        labels = np.array([0, 2])
        _, grad = det_cls_loss(feats, labels, bank, 0.15)

        def fn(x):
            l, _ = det_cls_loss(x, labels, bank, 0.15)
            return l

        fd = central_diff_grad(fn, feats, h=1e-5)
        rel = np.abs(grad - fd).max() / np.abs(fd).max()
        assert rel < 1e-6

    def test_ce_gradient_orthogonal_to_feature(self):
        rng = np.random.default_rng(21)
        bank = _random_bank(rng, 3, 2, 10)
        feats, labels = _random_batch(rng, 4, 3, 10)
        _, grad = weak_cls_loss(feats, labels, bank, 0.1)
        for b in range(len(feats)):
            proj = abs(float(grad[b] @ feats[b]))
            proj /= np.linalg.norm(feats[b])
            assert proj < 1e-8 * max(np.linalg.norm(grad[b]), 1e-30)

    def test_temperature_positive(self):
        rng = np.random.default_rng(22)
        bank = _random_bank(rng, 2, 2, 4)
        with pytest.raises(ValueError):
            weak_cls_loss(*_random_batch(rng, 1, 2, 4), bank, 0.0)


class TestTotalLoss:
    def test_lambda_zero_drops_scene_term(self):
        report = total_loss(1.5, 2.5, 100.0, lam=0.0)
        assert report.total == 4.0

    def test_default_weight_arithmetic(self):
        report = total_loss(1.0, 2.0, 3.0, lam=0.1)
        assert report.total == pytest.approx(3.3, abs=1e-12)

    def test_invariant_on_random_inputs(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            det, weak, scene = rng.uniform(0, 5, size=3)
            lam = rng.uniform(0, 1)
            r = total_loss(det, weak, scene, lam)
            assert abs(r.total - (r.l_det_cls + r.l_weak + r.lam * r.l_scene)) < 1e-12

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            total_loss(1.0, 1.0, 1.0, lam=-0.1)
