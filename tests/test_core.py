import numpy as np
import pytest

from semproto.core import (
    as_embedding,
    cosine,
    l2_normalize,
    log_sigmoid,
    sigmoid,
    validate_similarity_tensor,
)
from semproto.errors import DimensionMismatch, InvalidEmbedding, ZeroNorm

from .oracles import cosine_loop


class TestCosine:
    def test_identity_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = l2_normalize(rng.standard_normal(16))
            assert cosine(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_is_zero(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        assert cosine(e1, e2) == 0.0

    def test_hand_computed_value(self):
        # dot = 8, both norms = 3
        assert cosine([1, 2, 2], [2, 1, 2]) == pytest.approx(8 / 9, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.standard_normal(9)
            b = rng.standard_normal(9)
            assert cosine(a, b) == pytest.approx(cosine_loop(a, b), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(7), rng.standard_normal(7)
        assert cosine(a, b) == cosine(b, a)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(12), rng.standard_normal(12)
        base = cosine(a, b)
        for alpha in (0.5, 3.0, 100.0):
            assert abs(cosine(alpha * a, b) - base) < 1e-12
            assert abs(cosine(a, alpha * b) - base) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_norm(self):
        with pytest.raises(ZeroNorm):
            cosine([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroNorm):
            cosine([1.0, 0.0], [1e-13, 0.0])


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            v = l2_normalize(rng.standard_normal(10))
            np.testing.assert_allclose(l2_normalize(v), v, atol=1e-12)

    def test_axis_vector(self):
        v = np.zeros(6)
        v[0] = 2.0
        out = l2_normalize(v)
        assert out[0] == 1.0
        assert np.all(out[1:] == 0.0)

    def test_direction_preserved(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(8)
        assert cosine(v, l2_normalize(v)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_norm(self):
        with pytest.raises(ZeroNorm):
            l2_normalize(np.zeros(4))


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry_sums_to_one(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-50, 50, size=1000)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_value_at_one(self):
        assert sigmoid(1.0) == pytest.approx(0.7310585786300049, abs=1e-9)

    def test_strictly_monotone(self):
        x = np.linspace(-20, 20, 5000)
        assert np.all(np.diff(sigmoid(x)) > 0)

    def test_saturates_without_overflow(self):
        assert sigmoid(1000.0) == 1.0
        assert sigmoid(-1000.0) == 0.0


class TestLogSigmoid:
    def test_matches_log_of_sigmoid(self):
        x = np.linspace(-30, 30, 500)
        np.testing.assert_allclose(log_sigmoid(x), np.log(sigmoid(x)), atol=1e-12)

    def test_deep_negative_tail(self):
        # log sigmoid(x) -> x as x -> -inf; a naive log(sigmoid) underflows
        assert log_sigmoid(-800.0) == pytest.approx(-800.0, rel=1e-12)

    def test_deep_positive_tail(self):
        assert abs(log_sigmoid(40.0)) < 1e-9


class TestEmbeddingValidation:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidEmbedding):
            as_embedding([1.0, float("nan")])
        with pytest.raises(InvalidEmbedding):
            as_embedding([1.0, float("inf")])

    def test_rejects_matrix(self):
        with pytest.raises(InvalidEmbedding):
            as_embedding([[1.0, 2.0]])

    def test_dim_check(self):
        with pytest.raises(DimensionMismatch):
            as_embedding([1.0, 2.0], dim=3)

    def test_returns_float64(self):
        v = as_embedding([1, 2, 3])
        assert v.dtype == np.float64


class TestSimilarityTensorValidation:
    def test_accepts_valid(self):
        s = np.zeros((2, 3, 4))
        out = validate_similarity_tensor(s)
        assert out.shape == (2, 3, 4)

    def test_rejects_out_of_range(self):
        s = np.zeros((1, 1, 1))
        s[0, 0, 0] = 1.5
        with pytest.raises(InvalidEmbedding):
            validate_similarity_tensor(s)

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionMismatch):
            validate_similarity_tensor(np.zeros((2, 2)))
