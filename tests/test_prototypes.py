import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semproto.alignment import det_cls_loss
from semproto.descriptions import DescriptionSet, DeterministicToyEncoder, generate_descriptions
from semproto.entry import fixture_path
from semproto.errors import (
    DimensionMismatch,
    EmptyStateList,
    MalformedResponse,
    ZeroNorm,
)
from semproto.prototypes import (
    Aggregation,
    PrototypeBank,
    aggregate,
    aggregate_mean,
    aggregate_median,
    aggregate_similarity_weighted,
    aggregate_two_stage,
    build_bank,
)
from semproto.synthbench import (
    ProbeModel,
    WorldSpec,
    build_toy_bank,
    evaluate,
    generate_world,
)

from .oracles import (
    mean_agg_loop,
    median_agg_loop,
    similarity_weighted_agg_loop,
    two_stage_agg_loop,
)

SQRT2_2 = np.sqrt(2.0) / 2.0


def _random_units(rng, n, dim):
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestAggregateMean:
    def test_identical_inputs_collapse(self):
        g = np.array([0.6, 0.8])
        np.testing.assert_allclose(aggregate_mean(g, [g]), g, atol=1e-15)

    def test_symmetric_two_vector_case(self):
        out = aggregate_mean([1.0, 0.0], [[0.0, 1.0]])
        np.testing.assert_allclose(out, [SQRT2_2, SQRT2_2], atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        for k in (1, 5, 9):
            g = _random_units(rng, 1, 64)[0]
            states = _random_units(rng, k, 64)
            expect = mean_agg_loop(list(g), [list(s) for s in states])
            got = aggregate_mean(g, states)
            assert np.abs(got - np.array(expect)).max() < 1e-12

    def test_empty_states(self):
        with pytest.raises(EmptyStateList):
            aggregate_mean([1.0, 0.0], [])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            aggregate_mean([1.0, 0.0], [[1.0, 0.0, 0.0]])


class TestAggregateMedian:
    def test_identical_inputs(self):
        g = np.array([0.0, 1.0])
        np.testing.assert_allclose(aggregate_median(g, [g, g]), g, atol=1e-15)

    def test_robust_to_outlier(self):
        # the outlier points away from the other two, so the mean's
        # direction is far from the median's [2, 2]
        g = np.array([1.0, 3.0])
        states = [np.array([2.0, 2.0]), np.array([100.0, -100.0])]
        out = aggregate_median(g, states)
        np.testing.assert_allclose(out, [SQRT2_2, SQRT2_2], atol=1e-15)

    def test_even_count_matches_sort_oracle(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal(12)
        states = rng.standard_normal((3, 12))  # K+1 = 4, even
        expect = median_agg_loop(list(g), [list(s) for s in states])
        got = aggregate_median(g, states)
        assert np.abs(got - np.array(expect)).max() < 1e-12

    def test_degenerate_zero_median(self):
        g = np.array([0.0, 1.0])
        states = [np.array([0.0, -1.0]), np.array([0.0, 0.0])]
        with pytest.raises(ZeroNorm):
            aggregate_median(g, states)


class TestAggregateTwoStage:
    def test_k1_equals_mean(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal(8)
        s = rng.standard_normal(8)
        np.testing.assert_allclose(
            aggregate_two_stage(g, [s]), aggregate_mean(g, [s]), atol=1e-15
        )

    def test_symmetric_example(self):
        out = aggregate_two_stage([1.0, 0.0], [[0.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(out, [SQRT2_2, SQRT2_2], atol=1e-15)

    def test_matches_two_step_oracle(self):
        rng = np.random.default_rng(13)
        g = _random_units(rng, 1, 32)[0]
        states = _random_units(rng, 5, 32)
        expect = two_stage_agg_loop(list(g), [list(s) for s in states])
        got = aggregate_two_stage(g, states)
        assert np.abs(got - np.array(expect)).max() < 1e-12


class TestAggregateSimilarityWeighted:
    def test_states_equal_generic_collapses_to_mean(self):
        rng = np.random.default_rng(14)
        g = _random_units(rng, 1, 16)[0]
        states = [g.copy() for _ in range(4)]
        a = aggregate_similarity_weighted(g, states)
        b = aggregate_mean(g, states)
        assert np.abs(a - b).max() < 1e-10

    def test_matches_weighted_sum_oracle(self):
        rng = np.random.default_rng(15)
        g = _random_units(rng, 1, 24)[0]
        states = _random_units(rng, 5, 24)
        expect = similarity_weighted_agg_loop(list(g), [list(s) for s in states])
        got = aggregate_similarity_weighted(g, states)
        assert np.abs(got - np.array(expect)).max() < 1e-12

    def test_all_states_orthogonal_returns_generic(self):
        g = np.zeros(6)
        g[0] = 1.0
        states = [np.eye(6)[i] for i in range(1, 4)]
        out = aggregate_similarity_weighted(g, states)
        np.testing.assert_allclose(out, g, atol=1e-12)

    def test_negative_weights_clamped_by_default(self):
        g = np.array([1.0, 0.0])
        s_opposed = np.array([-1.0, 0.0])
        out = aggregate_similarity_weighted(g, [s_opposed])
        np.testing.assert_allclose(out, g, atol=1e-12)


class TestAggregationProperties:
    @pytest.mark.parametrize("strategy", list(Aggregation))
    def test_output_unit_norm(self, strategy):
        rng = np.random.default_rng(16)
        for _ in range(10):
            g = _random_units(rng, 1, 20)[0]
            states = _random_units(rng, 5, 20)
            out = aggregate(strategy, g, states)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-9

    @pytest.mark.parametrize("strategy", [Aggregation.MEAN, Aggregation.MEDIAN,
                                          Aggregation.SIMILARITY_WEIGHTED,
                                          Aggregation.TWO_STAGE])
    def test_permutation_invariance_in_states(self, strategy):
        rng = np.random.default_rng(17)
        g = _random_units(rng, 1, 12)[0]
        states = _random_units(rng, 6, 12)
        a = aggregate(strategy, g, states)
        perm = rng.permutation(6)
        b = aggregate(strategy, g, states[perm])
        np.testing.assert_allclose(a, b, atol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(dim=st.integers(1, 32), k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-3, 1e3))
    def test_c5_identities_hold_on_random_inputs(self, dim, k, seed, scale):
        # C5's three identities, at its tolerances, on random dims, K and
        # inputs
        rng = np.random.default_rng(seed)
        g = scale * rng.standard_normal(dim)
        states = scale * rng.standard_normal((k, dim))
        same = np.tile(g, (k, 1))  # every state equal: every weight equal
        assert np.abs(aggregate_similarity_weighted(g, same)
                      - aggregate_mean(g, same)).max() < 1e-10
        assert np.abs(aggregate_two_stage(g, states[:1])
                      - aggregate_mean(g, states[:1])).max() < 1e-15
        ref = median_agg_loop(list(g), [list(x) for x in states])
        assert np.abs(aggregate_median(g, states) - np.array(ref)).max() < 1e-12

    def test_string_strategy_accepted(self):
        g = np.array([1.0, 0.0])
        out = aggregate("mean", g, [[0.0, 1.0]])
        np.testing.assert_allclose(out, [SQRT2_2, SQRT2_2], atol=1e-15)


def _fixture_descriptions():
    return generate_descriptions(["cat", "dog"], 5, 5, fixture_path("descriptions_small.json"))


class TestBuildBank:
    def test_shapes_and_norms(self):
        desc = _fixture_descriptions()
        enc = DeterministicToyEncoder(dim=32, seed=7)
        bank = build_bank(desc, enc, k=5, l=5)
        assert bank.vocab == ("cat", "dog")
        assert bank.sesp.shape == (2, 32)
        assert bank.sapp.shape == (2, 5, 32)
        np.testing.assert_allclose(np.linalg.norm(bank.sesp, axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(
            np.linalg.norm(bank.sapp, axis=2), 1.0, atol=1e-9
        )

    def test_input_order_does_not_matter(self):
        desc = _fixture_descriptions()
        enc = DeterministicToyEncoder(dim=32, seed=7)
        a = build_bank(dict(sorted(desc.items())), enc)
        b = build_bank(dict(sorted(desc.items(), reverse=True)), enc)
        assert a.vocab == b.vocab
        np.testing.assert_array_equal(a.sesp, b.sesp)
        np.testing.assert_array_equal(a.sapp, b.sapp)

    def test_name_only_bank_uses_generic_alone(self):
        desc = _fixture_descriptions()
        enc = DeterministicToyEncoder(dim=32, seed=7)
        bank = build_bank(desc, enc, k=0, l=5)
        from semproto.descriptions import encode

        np.testing.assert_array_equal(bank.sesp[0], encode(desc["cat"].generic, enc))

    def test_insufficient_states_rejected(self):
        desc = _fixture_descriptions()
        enc = DeterministicToyEncoder(dim=32, seed=7)
        with pytest.raises(EmptyStateList):
            build_bank(desc, enc, k=9, l=5)

    def test_strategies_produce_distinct_banks(self):
        desc = _fixture_descriptions()
        enc = DeterministicToyEncoder(dim=32, seed=7)
        mean_bank = build_bank(desc, enc, strategy=Aggregation.MEAN)
        median_bank = build_bank(desc, enc, strategy=Aggregation.MEDIAN)
        assert np.linalg.norm(mean_bank.sesp - median_bank.sesp) > 0


def _bank_body(**changes) -> bytes:
    """A valid 1-class, dim-2 bank file; a change to None drops the key."""
    payload = {"dim": 2, "vocab": ["a"], "strategy": "mean", "k": 1, "l": 1,
               "sesp": [[1.0, 0.0]], "sapp": [[[0.0, 1.0]]]}
    payload.update(changes)
    payload = {k: v for k, v in payload.items() if v is not None}
    return json.dumps(payload).encode("utf-8")


def _write(tmp_path, body: bytes):
    path = tmp_path / "bank.json"
    path.write_bytes(body)
    return path


class TestBankPersistence:
    def test_round_trip_value_exact(self, tmp_path):
        desc = _fixture_descriptions()
        enc = DeterministicToyEncoder(dim=32, seed=7)
        bank = build_bank(desc, enc)
        path = tmp_path / "bank.json"
        bank.save(str(path))
        loaded = PrototypeBank.load(str(path))
        assert loaded.vocab == bank.vocab
        assert loaded.strategy == bank.strategy
        assert (loaded.k, loaded.l) == (bank.k, bank.l)
        np.testing.assert_array_equal(loaded.sesp, bank.sesp)
        np.testing.assert_array_equal(loaded.sapp, bank.sapp)

    @pytest.mark.parametrize("body", [
        b'{"vocab": ["a"], "strategy": "mean"}',
        _bank_body(dim=None),
        _bank_body(dim="x"),
        _bank_body(dim=2.5),
        _bank_body(dim=True),
        b'not json at all',
        b'["a", "list"]',
        b'\xff\xfe{"dim": 2}',
        _bank_body(vocab="a"),
        _bank_body(vocab=[1]),
        _bank_body(vocab=["a", "a"], sesp=[[1.0, 0.0]] * 2, sapp=[[[0.0, 1.0]]] * 2),
        _bank_body(vocab=["b", "a"], sesp=[[1.0, 0.0]] * 2, sapp=[[[0.0, 1.0]]] * 2),
        _bank_body(k=2.7),
        _bank_body(k="5"),
        _bank_body(k=True),
        _bank_body(k=-3),
        _bank_body(l=1.5),
        _bank_body(l=-1, sapp=[]),
        _bank_body(l=0, sapp=[[]]),
        _bank_body(vocab=["a", "b"]),
        _bank_body(sesp=[1.0, 0.0]),
        _bank_body(sapp=[[[0.0, 1.0]], [[1.0, 0.0]]]),
        _bank_body(sapp=[[0.0, 1.0]]),
        _bank_body(l=2),
        _bank_body(sapp=[[[0.0, 1.0, 0.0]]]),
        _bank_body(sesp=[[float("nan"), 0.0]]),
        _bank_body(sapp=[[[0.0, float("inf")]]]),
        _bank_body().replace(b'"k": 1', b'"k": 1, "k": 1'),
        _bank_body(vocab=["a\ud800"]),
    ], ids=["missing-arrays", "missing-dim", "string-dim", "float-dim",
            "bool-dim", "not-json", "not-an-object", "not-utf8", "string-vocab",
            "int-vocab", "duplicate-vocab", "unsorted-vocab", "float-k", "string-k",
            "bool-k", "negative-k", "float-l", "negative-l", "zero-l",
            "sesp-rows-not-vocab", "flat-sesp", "sapp-rows-not-vocab", "flat-sapp",
            "sapp-slots-not-l", "sapp-dim-not-sesp", "nan-sesp", "inf-sapp",
            "repeated-key", "surrogate-vocab"])
    def test_malformed_file(self, tmp_path, body):
        assert PrototypeBank.load(str(_write(tmp_path, _bank_body()))).dim == 2
        path = _write(tmp_path, body)
        with pytest.raises(MalformedResponse, match="bank.json"):
            PrototypeBank.load(str(path))

    def test_toy_bank_of_101_classes_round_trips(self, tmp_path):
        # class_100 must sort after class_99, or load refuses what save wrote
        bank = build_toy_bank(generate_world(WorldSpec(n_classes=101, n_base=50, dim=111)))
        path = tmp_path / "bank.json"
        bank.save(str(path))
        loaded = PrototypeBank.load(str(path))
        assert loaded.vocab == bank.vocab
        np.testing.assert_array_equal(loaded.sesp, bank.sesp)

    def test_unsorted_vocab_is_refused_on_construction(self):
        with pytest.raises(MalformedResponse, match="lexicographic"):
            PrototypeBank(vocab=("b", "a"), sesp=np.eye(2), sapp=np.eye(2)[:, None],
                          strategy=Aggregation.MEAN, k=1, l=1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PrototypeBank.load(str(tmp_path / "absent.json"))

    def test_declared_dim_mismatch(self, tmp_path):
        desc = _fixture_descriptions()
        enc = DeterministicToyEncoder(dim=16, seed=7)
        bank = build_bank(desc, enc)
        path = tmp_path / "bank.json"
        bank.save(str(path))
        payload = json.loads(path.read_text())
        payload["dim"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DimensionMismatch):
            PrototypeBank.load(str(path))


def _orthogonal_bank(dim=10, n_classes=3, l=2):
    assert dim >= n_classes * (1 + l)
    sesp = np.eye(dim)[:n_classes]
    sapp = np.stack([np.eye(dim)[n_classes + i * l:n_classes + (i + 1) * l]
                     for i in range(n_classes)])
    return PrototypeBank(
        vocab=tuple(f"c{i}" for i in range(n_classes)),
        sesp=sesp,
        sapp=sapp,
        strategy=Aggregation.MEAN,
        k=1,
        l=l,
    )


class TestClassify:
    """Cosine-argmax classification: evaluate() with the identity probe
    scores features directly against the bank's sesp rows."""

    @staticmethod
    def _acc(bank, features, labels) -> float:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        identity = ProbeModel(np.eye(bank.dim), np.zeros(bank.dim))
        [metrics] = evaluate([(identity, bank)], [(features, np.asarray(labels))], n_base=1)
        return metrics["acc_all"]

    def test_self_match_wins(self):
        bank = _orthogonal_bank()
        assert self._acc(bank, bank.sesp, range(bank.n_classes)) == 1.0

    def test_scale_invariance(self):
        bank = _orthogonal_bank()
        rng = np.random.default_rng(18)
        f = rng.standard_normal((40, bank.dim))
        labels = rng.integers(bank.n_classes, size=40)
        assert self._acc(bank, f, labels) == self._acc(bank, 3.7 * f, labels)

    def test_hand_built_mixture(self):
        bank = _orthogonal_bank()
        f = bank.sesp[1] + 0.1 * bank.sesp[2]
        assert self._acc(bank, [f, f], [1, 2]) == 0.5
        assert self._acc(bank, f, [1]) == 1.0

    def test_dim_mismatch(self):
        bank = _orthogonal_bank()
        with pytest.raises(DimensionMismatch):
            det_cls_loss(np.ones((1, 5)), [0], bank, 0.1)
