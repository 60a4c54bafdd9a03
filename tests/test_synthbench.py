import contextlib
import dataclasses
import json
import math
import os
import signal
import tempfile
import tracemalloc
import types
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semproto.config import (
    AGGREGATIONS,
    CONFIG_SCHEMA,
    TrainConfig,
    WorldSpec,
    derive_seed,
    load_config,
    parse_override,
    resolved_config,
)
from semproto.core import ZERO_NORM_EPS
from semproto.errors import (
    ConfigError,
    DimensionMismatch,
    DivergenceDetected,
    EmptyProposals,
    EmptyTestSet,
    InfeasibleWorld,
    ZeroNorm,
)
from semproto.prototypes import Aggregation, PrototypeBank
from semproto.synthbench import (
    ABLATION_GRIDS,
    ProbeModel,
    build_run_bank,
    build_toy_bank,
    evaluate,
    generate_world,
    initial_probe,
    run_ablation,
    run_world,
    select_max_size_proposal,
    train,
    train_and_evaluate,
)
from semproto import backend, synthbench

SMALL_WORLD = dict(dim=20, n_classes=6, n_base=4, k_states=3, l_scenes=3,
                   det_per_class=6, weak_per_class=4, test_per_class=12,
                   proposals_per_image=3, seed=5)
FAST_TRAIN = dict(steps=40, temperature=0.2)


def _test_split(world):
    """The test split's (features, labels), joined from one pass over its
    blocks."""
    blocks = list(world.test_blocks())
    return (np.concatenate([x for x, _ in blocks]),
            np.concatenate([y for _, y in blocks]))


def _splits(world):
    """(features, labels) per split; the weak split's are its pseudo-boxes."""
    weak_x = select_max_size_proposal(world.weak_areas, world.weak_proposals)
    return ((world.det_x, world.det_y), (weak_x, world.weak_y), _test_split(world))


def _run_record(world_spec, config, world=None):
    """The record of one configuration run alone."""
    [(record, _)] = train_and_evaluate(world_spec, [config], world)
    return record


class TestGenerateWorld:
    def test_bitwise_determinism(self):
        spec = WorldSpec(**SMALL_WORLD)
        a = generate_world(spec)
        b = generate_world(spec)
        for (fa, la), (fb, lb) in zip(_splits(a), _splits(b)):
            np.testing.assert_array_equal(fa, fb)
            np.testing.assert_array_equal(la, lb)
        np.testing.assert_array_equal(a.weak_areas, b.weak_areas)
        np.testing.assert_array_equal(a.weak_proposals, b.weak_proposals)

    def test_degenerate_world_reproduces_class_directions(self):
        spec = WorldSpec(**{**SMALL_WORLD, "state_strength": 0.0,
                            "context_strength": 0.0, "noise_sigma": 0.0})
        world = generate_world(spec)
        for feats, labels in _splits(world):
            np.testing.assert_array_equal(feats, world.class_dirs[labels])

    def test_base_novel_split_contract(self):
        spec = WorldSpec(**{**SMALL_WORLD, "n_classes": 3, "n_base": 2})
        world = generate_world(spec)
        assert set(world.det_y.tolist()) == {0, 1}
        assert set(world.weak_y.tolist()) == {0, 1, 2}
        assert set(world.test_y.tolist()) == {0, 1, 2}

    def test_factor_direction_shapes_and_norms(self):
        spec = WorldSpec(**SMALL_WORLD)
        world = generate_world(spec)
        assert world.class_dirs.shape == (6, 20)
        assert world.state_dirs.shape == (6, 3, 20)
        assert world.scene_dirs.shape == (3, 20)
        for arr in (world.class_dirs, world.scene_dirs):
            np.testing.assert_allclose(np.linalg.norm(arr, axis=-1), 1.0,
                                       atol=1e-12)

    def test_class_and_scene_sets_are_centered(self):
        spec = WorldSpec(**SMALL_WORLD)
        world = generate_world(spec)
        # centered before normalization keeps the set's resultant small
        assert np.linalg.norm(world.class_dirs.sum(0)) < 0.6
        assert np.linalg.norm(world.scene_dirs.sum(0)) < 0.6

    def test_weak_proposal_areas_distinct_and_context_largest(self):
        # noise_sigma draws the same random stream at any scale, so this
        # world has SMALL_WORLD's areas, and without noise a distractor
        # proposal is exactly a scene direction
        spec = WorldSpec(**{**SMALL_WORLD, "noise_sigma": 0.0})
        world = generate_world(spec)
        pseudo = select_max_size_proposal(world.weak_areas, world.weak_proposals)
        for areas, props, feature in zip(world.weak_areas, world.weak_proposals,
                                         pseudo):
            assert len(set(areas.tolist())) == len(areas)
            context_only = [any(np.array_equal(p, d) for d in world.scene_dirs)
                            for p in props]
            assert context_only.count(False) == 1
            np.testing.assert_array_equal(feature, props[context_only.index(False)])

    def test_infeasible_specs_rejected(self):
        with pytest.raises(InfeasibleWorld):
            WorldSpec(**{**SMALL_WORLD, "dim": 5})
        with pytest.raises(InfeasibleWorld):
            WorldSpec(**{**SMALL_WORLD, "n_base": 6})
        with pytest.raises(InfeasibleWorld):
            WorldSpec(**{**SMALL_WORLD, "noise_sigma": -0.1})
        # one scene direction centers to zero: see _unit_rows
        with pytest.raises(InfeasibleWorld, match="l_scenes"):
            WorldSpec(**{**SMALL_WORLD, "l_scenes": 1})


def _compose_row(base_unit, terms):
    """One vector: base + sum(scale * vec), renormalized only if a term
    was added."""
    v = base_unit
    added = False
    for scale, vec in terms:
        if scale != 0.0:
            v = v + scale * vec
            added = True
    if not added:
        return base_unit
    norm = math.sqrt(v.dot(v))
    if norm < ZERO_NORM_EPS:
        raise ZeroNorm(f"norm {norm:g} below {ZERO_NORM_EPS:g}")
    return v / norm


def _per_row_world(spec):
    """The reference for generate_world and its test split: every draw,
    composition and normalization made one row at a time, in stream
    order, each split an attribute of the namespace returned."""
    rng = np.random.default_rng(spec.seed)
    dim = spec.dim
    class_dirs = synthbench._unit_rows(rng, (spec.n_classes, dim))
    state_dirs = synthbench._unit_rows(rng, (spec.n_classes, spec.k_states, dim))
    scene_dirs = synthbench._unit_rows(rng, (spec.l_scenes, dim))
    sqrt_dim = math.sqrt(dim)

    def noise():
        return rng.standard_normal(dim) / sqrt_dim

    det_y = np.repeat(np.arange(spec.n_base, dtype=np.int64), spec.det_per_class)
    det_x = np.empty((len(det_y), dim))
    for i, c in enumerate(det_y):
        k_idx = int(rng.integers(spec.k_states))
        det_x[i] = _compose_row(class_dirs[c], [
            (spec.state_strength, state_dirs[c, k_idx]),
            (spec.noise_sigma, noise()),
        ])

    n_prop = spec.proposals_per_image
    weak_y = np.repeat(np.arange(spec.n_classes, dtype=np.int64), spec.weak_per_class)
    weak_areas = np.empty((len(weak_y), n_prop))
    weak_proposals = np.empty((len(weak_y), n_prop, dim))
    for i, c in enumerate(weak_y):
        k_idx = int(rng.integers(spec.k_states))
        scene_idx = int(rng.integers(spec.l_scenes))
        ctx_feat = _compose_row(class_dirs[c], [
            (spec.state_strength, state_dirs[c, k_idx]),
            (spec.context_strength, scene_dirs[scene_idx]),
            (spec.noise_sigma, noise()),
        ])
        areas = rng.uniform(0.2, 1.0, n_prop)
        ctx_pos = int(rng.integers(n_prop))
        for j in range(n_prop):
            if j == ctx_pos:
                weak_proposals[i, j] = ctx_feat
            else:
                d_scene = int(rng.integers(spec.l_scenes))
                weak_proposals[i, j] = _compose_row(scene_dirs[d_scene],
                                                    [(spec.noise_sigma, noise())])
        areas[ctx_pos] = areas.max() * 1.5
        weak_areas[i] = areas

    test_y = np.repeat(np.arange(spec.n_classes, dtype=np.int64), spec.test_per_class)
    test_x = np.empty((len(test_y), dim))
    for i, c in enumerate(test_y):
        k_idx = int(rng.integers(spec.k_states))
        scene_idx = int(rng.integers(spec.l_scenes))
        test_x[i] = _compose_row(class_dirs[c], [
            (spec.state_strength, state_dirs[c, k_idx]),
            (spec.context_strength, scene_dirs[scene_idx]),
            (spec.noise_sigma, noise()),
        ])
    return types.SimpleNamespace(
        spec=spec, class_dirs=class_dirs, state_dirs=state_dirs,
        scene_dirs=scene_dirs, det_x=det_x, det_y=det_y, weak_areas=weak_areas,
        weak_proposals=weak_proposals, weak_y=weak_y, test_x=test_x, test_y=test_y,
    )


# every array a world holds; its test split is streamed, not held
WORLD_ARRAYS = tuple(f.name for f in dataclasses.fields(synthbench.ToyWorld)
                     if f.name not in ("spec", "test_stream"))


@contextlib.contextmanager
def _blocks_of(rows):
    """Run the row-blocked loops over blocks of `rows` rows (None: the
    default ROW_BLOCK_BYTES budget)."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(synthbench, "_block_rows", lambda width: rows)
        yield


@st.composite
def _feasible_specs(draw):
    n_classes = draw(st.integers(2, 12), label="n_classes")
    k_states = draw(st.integers(1, 5), label="k_states")
    # one scene direction centers to zero: see _unit_rows
    l_scenes = draw(st.integers(2, 5), label="l_scenes")
    scale = st.sampled_from([0.0, 0.3, 1.0, 1.4, 2.5])
    return WorldSpec(
        dim=draw(st.integers(n_classes + k_states + l_scenes, 130), label="dim"),
        n_classes=n_classes,
        n_base=draw(st.integers(1, n_classes - 1), label="n_base"),
        k_states=k_states,
        l_scenes=l_scenes,
        state_strength=draw(scale, label="state_strength"),
        context_strength=draw(scale, label="context_strength"),
        noise_sigma=draw(scale, label="noise_sigma"),
        seed=draw(st.integers(0, 2**32 - 1), label="seed"),
        det_per_class=draw(st.integers(0, 5), label="det_per_class"),
        weak_per_class=draw(st.integers(1, 5), label="weak_per_class"),
        test_per_class=draw(st.integers(1, 25), label="test_per_class"),
        proposals_per_image=draw(st.integers(1, 5), label="proposals_per_image"),
    )


class TestBulkWorld:
    """generate_world draws row by row but composes in row blocks; its
    bytes must equal the per-row reference's for every block size."""

    @settings(max_examples=60, deadline=None)
    @given(spec=_feasible_specs(), rows=st.sampled_from([1, 2, 3, None]))
    def test_bytes_equal_per_row_reference(self, spec, rows):
        expected = _per_row_world(spec)
        with _blocks_of(rows):
            world = generate_world(spec)
            arrays = {name: getattr(world, name) for name in WORLD_ARRAYS}
            arrays["test_x"], arrays["test_y"] = _test_split(world)
        for name in arrays:
            got, want = arrays[name], getattr(expected, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @settings(max_examples=60, deadline=None)
    @given(spec=_feasible_specs(), data=st.data())
    def test_accepted_world_has_finite_unit_rows(self, spec, data):
        # every spec WorldSpec accepts generates without a numpy warning
        # (a 0/0 would warn) and gives finite unit rows everywhere; fewer
        # scenes than drawn keep dim above its floor
        l_scenes = data.draw(st.integers(1, spec.l_scenes), label="l_scenes")
        try:
            spec = dataclasses.replace(spec, l_scenes=l_scenes)
        except InfeasibleWorld:
            assert l_scenes == 1
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            world = generate_world(spec)
        arrays = {name: getattr(world, name) for name in
                  ("class_dirs", "state_dirs", "scene_dirs", "det_x", "weak_proposals")}
        arrays["test_x"] = _test_split(world)[0]
        for name, rows in arrays.items():
            assert np.isfinite(rows).all(), name
            np.testing.assert_allclose(np.linalg.norm(rows, axis=-1), 1.0,
                                       rtol=0, atol=1e-12, err_msg=name)

    @settings(max_examples=40, deadline=None)
    @given(spec=_feasible_specs(), rows=st.sampled_from([1, 2, 3, None]))
    def test_run_worlds_test_split_equals_generate_worlds(self, spec, rows):
        # each pass draws it from where the weak split's draws ended, in
        # row order and in full blocks but the last, with the same bytes
        expected = _per_row_world(spec)
        world = run_world(spec)
        with _blocks_of(rows):
            passes = [list(world.test_blocks()) for _ in range(2)]
        n_test = len(expected.test_y)
        step = rows or synthbench._block_rows(spec.dim)
        for blocks in passes:
            assert [len(y) for _, y in blocks] == [
                min(step, n_test - lo) for lo in range(0, n_test, step)]
            for x, y in blocks:
                assert x.shape == (len(y), spec.dim) and x.dtype == np.float64
                assert y.dtype == expected.test_y.dtype
                if rows is None:
                    assert x.nbytes <= synthbench.ROW_BLOCK_BYTES
            assert b"".join(x.tobytes() for x, _ in blocks) == expected.test_x.tobytes()
            assert b"".join(y.tobytes() for _, y in blocks) == expected.test_y.tobytes()
        assert world.test_y.tobytes() == expected.test_y.tobytes()

    def test_cancelling_terms_raise_zero_norm(self, monkeypatch):
        # each state direction is minus its class direction, so a box
        # feature without noise composes to exactly zero
        spec = WorldSpec(**{**SMALL_WORLD, "state_strength": 1.0,
                            "context_strength": 0.0, "noise_sigma": 0.0})
        unit_rows = synthbench._unit_rows
        drawn = []

        def cancelling(rng, shape):
            drawn.append(unit_rows(rng, shape))
            if len(shape) == 3:
                return -np.repeat(drawn[0][:, None], shape[1], axis=1)
            return drawn[-1]

        monkeypatch.setattr(synthbench, "_unit_rows", cancelling)
        with pytest.raises(ZeroNorm):
            generate_world(spec)

    def test_traced_peak_is_the_world_plus_its_indices(self):
        # numpy reports its allocations to tracemalloc, so the bound is
        # exact: the world's arrays, one int64 per index (det: state; weak:
        # per slot a scene; per image the context-rich row's state, slot,
        # row and gathered scene; per distractor its row and gathered
        # scene) and a few block temporaries, whatever the split size. The
        # world holds no test split (see TestEvaluate for a pass over it).
        spec = WorldSpec()
        n_det = spec.n_base * spec.det_per_class
        n_weak = spec.n_classes * spec.weak_per_class
        index_bytes = 8 * (n_det + (3 * spec.proposals_per_image + 2) * n_weak)
        # the first generate_world in a process imports numpy.random: load it
        # before tracing, or its modules count towards the peak
        np.random.default_rng(0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            world = generate_world(spec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        world_bytes = sum(getattr(world, name).nbytes for name in WORLD_ARRAYS)
        assert peak <= world_bytes + index_bytes + 3 * synthbench.ROW_BLOCK_BYTES


class TestSelectMaxSizeProposal:
    def _weak(self, areas):
        rng = np.random.default_rng(0)
        areas = np.array([areas], dtype=np.float64)
        return areas, rng.standard_normal((1, areas.shape[1], 4))

    def test_picks_largest(self):
        areas, props = self._weak([3.0, 7.0, 1.0])
        np.testing.assert_array_equal(
            select_max_size_proposal(areas, props), props[:, 1]
        )

    def test_single_proposal(self):
        areas, props = self._weak([2.0])
        np.testing.assert_array_equal(
            select_max_size_proposal(areas, props), props[:, 0]
        )

    def test_tie_breaks_to_lowest_index(self):
        areas, props = self._weak([5.0, 5.0])
        np.testing.assert_array_equal(
            select_max_size_proposal(areas, props), props[:, 0]
        )

    def test_weak_sample_needs_proposals(self):
        with pytest.raises(EmptyProposals):
            select_max_size_proposal(np.zeros((2, 0)), np.zeros((2, 0, 4)))

    @pytest.mark.parametrize("areas_shape, props_shape", [
        ((2, 3), (2, 4, 5)),
        ((2, 3), (3, 3, 5)),
        ((2, 3), (2, 3)),
        ((6,), (2, 3, 5)),
    ])
    def test_shapes_must_agree(self, areas_shape, props_shape):
        with pytest.raises(DimensionMismatch):
            select_max_size_proposal(np.ones(areas_shape), np.ones(props_shape))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_first_max_loop(self, data):
        n = data.draw(st.integers(0, 6), label="N")
        p = data.draw(st.integers(1, 5), label="P")
        d = data.draw(st.integers(1, 4), label="D")
        # a small set of areas, so that ties are common
        areas = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=p, max_size=p),
            min_size=n, max_size=n), label="areas"), dtype=np.float64).reshape(n, p)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        props = np.random.default_rng(seed).standard_normal((n, p, d))
        expected = np.empty((n, d))
        for i in range(n):
            best = 0
            for j in range(1, p):
                if areas[i, j] > areas[i, best]:
                    best = j
            expected[i] = props[i, best]
        got = select_max_size_proposal(areas, props)
        np.testing.assert_array_equal(got, expected)
        # a lone proposal is its image's pseudo-box as it stands: a view
        assert np.shares_memory(got, props) == (p == 1 and n > 0)


class TestBuildToyBank:
    def test_name_only_is_generic_alone(self):
        world = generate_world(WorldSpec(**SMALL_WORLD))
        bank0 = build_toy_bank(world, k=0, l=3, enc_noise_sigma=0.0, seed=1)
        np.testing.assert_allclose(
            bank0.sesp, world.class_dirs, atol=1e-12
        )

    def test_state_enhanced_prototypes_track_features_better(self):
        gains = []
        for seed in range(5):
            spec = WorldSpec(**{**SMALL_WORLD, "seed": 100 + seed,
                                "state_strength": 1.2})
            world = generate_world(spec)
            name_only = build_toy_bank(world, k=0, l=3,
                                       enc_noise_sigma=0.1, seed=7)
            sesp = build_toy_bank(world, k=spec.k_states, l=3,
                                  enc_noise_sigma=0.1, seed=7)
            feats, labels = _test_split(world)
            fhat = feats / np.linalg.norm(feats, axis=1, keepdims=True)

            def mean_cos(bank):
                phat = bank.sesp / np.linalg.norm(bank.sesp, axis=1,
                                                  keepdims=True)
                return float((fhat * phat[labels]).sum(axis=1).mean())

            gains.append(mean_cos(sesp) - mean_cos(name_only))
        assert all(g > 0 for g in gains)

    def test_bank_shapes(self):
        world = generate_world(WorldSpec(**SMALL_WORLD))
        bank = build_toy_bank(world, k=3, l=3, seed=0)
        assert bank.sesp.shape == (6, 20)
        assert bank.sapp.shape == (6, 3, 20)
        assert bank.vocab == tuple(f"class_{i:02d}" for i in range(6))

    def test_slots_beyond_true_scenes_are_synthesized(self):
        world = generate_world(WorldSpec(**SMALL_WORLD))
        bank = build_toy_bank(world, k=5, l=5, enc_noise_sigma=0.0, seed=0)
        assert bank.sapp.shape == (6, 5, 20)
        np.testing.assert_allclose(
            np.linalg.norm(bank.sapp, axis=2), 1.0, atol=1e-9
        )


class TestProbeModel:
    def test_identity_apply(self):
        probe = ProbeModel(np.eye(4), np.zeros(4))
        x = np.arange(8.0).reshape(2, 4)
        np.testing.assert_array_equal(probe.apply(x), x)

    def test_near_identity_jitter_zero_is_identity(self):
        probe = ProbeModel.near_identity(5, seed=3, jitter=0.0)
        np.testing.assert_array_equal(probe.weight, np.eye(5))

    def test_shape_validation(self):
        with pytest.raises(Exception):
            ProbeModel(weight=np.eye(3), bias=np.zeros(2))

    def test_nonfinite_rejected(self):
        w = np.eye(2)
        w[0, 0] = np.nan
        with pytest.raises(DivergenceDetected):
            ProbeModel(weight=w, bias=np.zeros(2))


class TestTrain:
    def _setup(self, **cfg_kw):
        spec = WorldSpec(**SMALL_WORLD)
        world = generate_world(spec)
        cfg = TrainConfig(**{**FAST_TRAIN, **cfg_kw})
        bank = build_toy_bank(world, k=cfg.k if cfg.use_sesp else 0, l=cfg.l,
                              enc_noise_sigma=0.15, seed=9)
        probe = ProbeModel.near_identity(spec.dim, seed=11, jitter=0.5)
        return world, bank, probe, cfg

    def test_lambda_zero_equals_sapp_disabled(self):
        world, bank, probe, _ = self._setup()
        cfg_zero = TrainConfig(**FAST_TRAIN, lam=0.0, use_sapp=True)
        cfg_off = TrainConfig(**FAST_TRAIN, lam=0.1, use_sapp=False)
        probe_a, trace_a = train(probe, world, bank, cfg_zero)
        probe_b, trace_b = train(probe, world, bank, cfg_off)
        assert trace_a == trace_b
        np.testing.assert_array_equal(probe_a.weight, probe_b.weight)
        np.testing.assert_array_equal(probe_a.bias, probe_b.bias)

    def test_zero_learning_rate_is_a_no_op(self):
        world, bank, probe, _ = self._setup()
        cfg = TrainConfig(**{**FAST_TRAIN, "lr": 0.0, "steps": 10})
        trained, trace = train(probe, world, bank, cfg)
        np.testing.assert_array_equal(trained.weight, probe.weight)
        np.testing.assert_array_equal(trained.bias, probe.bias)
        assert len({r.total for r in trace}) == 1

    def test_default_config_reduces_loss_across_seeds(self):
        for seed in range(5):
            record = _run_record(
                dataclasses.replace(WorldSpec(), test_per_class=20), TrainConfig(seed=seed))
            assert record["loss_summary"]["final"] < record["loss_summary"]["initial"]

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_detected(self):
        # cosine-space losses are bounded, so the guard can only fire on
        # non-finite inputs; corrupt one detection feature to exercise it
        world, bank, probe, cfg = self._setup()
        bad_det = world.det_x.copy()
        bad_det[0, 0] = np.inf
        corrupted = dataclasses.replace(world, det_x=bad_det)
        with pytest.raises(DivergenceDetected):
            train(probe, corrupted, bank, cfg)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_scene_scratch_released_when_train_ends(self, monkeypatch):
        # evaluate runs next and must not peak on top of the buffers
        world, bank, probe, cfg = self._setup()
        held = []
        kernel = backend.scene_loss_grad_kernel

        def recording(*args, **kwargs):
            result = kernel(*args, **kwargs)
            held.append(getattr(backend._scratch, "scene", None) is not None)
            return result

        monkeypatch.setattr(backend, "scene_loss_grad_kernel", recording)
        train(probe, world, bank, cfg)
        assert held == [True] * cfg.steps
        assert getattr(backend._scratch, "scene", None) is None
        bad_det = world.det_x.copy()
        bad_det[0, 0] = np.inf
        with pytest.raises(DivergenceDetected):
            train(probe, dataclasses.replace(world, det_x=bad_det), bank, cfg)
        assert held[cfg.steps:] == [True]
        assert getattr(backend._scratch, "scene", None) is None

    def test_trace_length_and_report_invariant(self):
        world, bank, probe, cfg = self._setup()
        _, trace = train(probe, world, bank, cfg)
        assert len(trace) == cfg.steps
        for r in trace:
            assert abs(r.total - (r.l_det_cls + r.l_weak + r.lam * r.l_scene)) < 1e-12


# the shape of the benchmark's train-large workload (perfbench/workloads.py)
LARGE_WORLD = dict(dim=64, n_classes=48, n_base=30, l_scenes=9,
                   weak_per_class=20, test_per_class=50)


class TestRunWorld:
    """run_world keeps each weak image's max-size proposal only: a run on
    it has the full world's bits and holds no distractor proposal."""

    @pytest.mark.parametrize("arm", ABLATION_GRIDS["components"],
                             ids=lambda arm: arm["arm"])
    def test_run_world_gives_the_full_worlds_bits(self, arm):
        spec = WorldSpec(**SMALL_WORLD)
        cfg = TrainConfig(**FAST_TRAIN, **{k: v for k, v in arm.items() if k != "arm"})
        runs = []
        for world in (generate_world(spec), run_world(spec)):
            probe, reports = train(initial_probe(world), world,
                                   build_run_bank(world, cfg), cfg)
            runs.append((probe.weight.tobytes(), probe.bias.tobytes(),
                         np.array([dataclasses.astuple(r) for r in reports]).tobytes()))
        assert runs[0] == runs[1]

    def test_train_reads_the_pseudo_boxes_in_place(self, monkeypatch):
        spec = WorldSpec(**SMALL_WORLD)
        full, world = generate_world(spec), run_world(spec)
        n_weak = len(world.weak_y)
        assert world.weak_proposals.shape == (n_weak, 1, spec.dim)
        np.testing.assert_array_equal(world.weak_areas[:, 0], full.weak_areas.max(axis=1))
        read = []

        def recording(areas, proposals):
            read.append(select_max_size_proposal(areas, proposals))
            return read[-1]

        monkeypatch.setattr(synthbench, "select_max_size_proposal", recording)
        cfg = TrainConfig(**FAST_TRAIN)
        train(initial_probe(world), world, build_run_bank(world, cfg), cfg)
        [pseudo] = read
        assert np.shares_memory(pseudo, world.weak_proposals)
        assert not pseudo.flags.writeable
        np.testing.assert_array_equal(
            pseudo, select_max_size_proposal(full.weak_areas, full.weak_proposals))

    @pytest.mark.parametrize("arm", ABLATION_GRIDS["components"],
                             ids=lambda arm: arm["arm"])
    def test_run_world_gives_the_full_worlds_record(self, arm):
        # the run world draws its test split once training is done
        cfg = TrainConfig(**FAST_TRAIN, **{k: v for k, v in arm.items() if k != "arm"})
        spec = WorldSpec(**SMALL_WORLD)
        full = _run_record(spec, cfg, generate_world(spec))
        assert _run_record(spec, cfg, run_world(spec)) == full
        assert _run_record(spec, cfg) == full

    @staticmethod
    def _traced_large_run():
        """One two-step run at the train-large shape, world to evaluation:
        its traced peak, and the bytes of what may be alive at its
        training peak, by part.

        numpy reports its allocations to tracemalloc, so the bound counts
        arrays. The peak is the second step's weak term, on top of: the
        run world; the bank's vectors and their unit copies; the probe's
        three (D, D) matrices; the scene kernel's buffers, one of a
        balanced panel's rows and four of a block's rows, the last of
        bools; the projections. The weak term adds its unit features,
        gradient, cosines and logits, per-row vectors and one ufunc
        reduction buffer. It runs before the scene term, so the scene
        gradient is not alive under it.
        """
        spec = WorldSpec(**LARGE_WORLD)
        cfg = TrainConfig(l=9, steps=2)
        n, d = spec.n_classes * spec.weak_per_class, spec.dim
        c, cl = spec.n_classes, spec.n_classes * cfg.l
        n_panels = -(-n // backend.SCENE_PANEL_ROWS)
        panel_rows = -(-n // n_panels)
        rows = min(panel_rows, backend.SCENE_BLOCK_BYTES // (8 * cl))
        parts = {
            "world": 8 * (c * d * (1 + spec.k_states) + spec.l_scenes * d
                          + spec.n_base * spec.det_per_class * (d + 1) + n * (d + 2)),
            "test split": 8 * c * spec.test_per_class * (d + 1),
            "bank": 2 * 8 * (c * d + cl * d),
            "scratch": 8 * (panel_rows * cl + 4 * rows * cl) + rows * cl,
            "step": 8 * (3 * d * d + 3 * n * d + 2 * n * c + 16 * n + np.getbufsize()),
        }
        # load what a first run imports (numpy.random) before tracing
        _run_record(_small_spec(), TrainConfig(steps=1))
        backend.release_scene_scratch()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _run_record(spec, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return peak, parts

    def test_traced_peak_of_a_run_holds_no_distractor(self):
        # A run that kept the world's distractor proposals would add
        # (P - 1) * N * D floats, 1.41 MiB here.
        peak, parts = self._traced_large_run()
        assert peak <= sum(parts.values())

    def test_traced_peak_of_a_run_holds_no_test_split(self):
        # The run draws its test split once training is done, so the
        # split's features and labels (2400 x 65 floats, 1.19 MiB here)
        # are not alive at the training peak.
        peak, parts = self._traced_large_run()
        assert peak <= sum(parts.values()) - parts["test split"]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_train_probe_does_not_depend_on_the_blas_thread_count():
    # At the train-large shape OpenBLAS splits the products over two
    # threads and rounds them differently; train runs them on one thread
    # and gives the caller's count back when it returns or raises.
    blas = backend._bundled_openblas()
    if blas is None:
        pytest.skip("numpy does not bundle scipy-openblas, so its thread count cannot be set")
    set_threads, get_threads = blas
    spec = WorldSpec(**LARGE_WORLD)
    cfg = TrainConfig(l=9, steps=1)
    world = run_world(spec)
    bank, probe = build_run_bank(world, cfg), initial_probe(world)
    with backend.one_blas_thread():
        want, _ = train(probe, world, bank, cfg)
    caller = get_threads()
    set_threads(2)
    try:
        two = get_threads()
        got, _ = train(probe, world, bank, cfg)
        assert get_threads() == two
        bad_det = world.det_x.copy()
        bad_det[0, 0] = np.inf
        with pytest.raises(DivergenceDetected):
            train(probe, dataclasses.replace(world, det_x=bad_det), bank, cfg)
        assert get_threads() == two
    finally:
        set_threads(caller)
    assert got.weight.tobytes() == want.weight.tobytes()
    assert got.bias.tobytes() == want.bias.tobytes()


class TestEvaluate:
    def test_perfect_world_is_fully_separable(self):
        spec = WorldSpec(**{**SMALL_WORLD, "state_strength": 0.0,
                            "context_strength": 0.0, "noise_sigma": 0.0})
        world = generate_world(spec)
        bank = build_toy_bank(world, k=3, l=3, enc_noise_sigma=0.0, seed=0)
        identity = ProbeModel(np.eye(spec.dim), np.zeros(spec.dim))
        [metrics] = evaluate([(identity, bank)], world.test_blocks(), spec.n_base)
        assert metrics == {"acc_novel": 1.0, "acc_base": 1.0, "acc_all": 1.0}

    def test_random_probe_sits_at_chance(self):
        spec = WorldSpec(**{**SMALL_WORLD, "n_classes": 8, "n_base": 4,
                            "dim": 24, "test_per_class": 150})
        world = generate_world(spec)
        bank = build_toy_bank(world, k=3, l=3, enc_noise_sigma=0.0, seed=0)
        accs = []
        for seed in range(4):
            w = np.random.default_rng(seed).standard_normal((spec.dim, spec.dim))
            probe = ProbeModel(w / math.sqrt(spec.dim), np.zeros(spec.dim))
            accs.append(evaluate([(probe, bank)], world.test_blocks(), 4)[0]["acc_all"])
        n = 8 * 150
        p = 1.0 / 8
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(np.mean(accs) - p) < 3 * sigma + 2 * np.std(accs)

    def test_accounting_identity(self):
        spec = WorldSpec(**SMALL_WORLD)
        world = generate_world(spec)
        bank = build_toy_bank(world, k=3, l=3, seed=0)
        probe = ProbeModel.near_identity(spec.dim, seed=2)
        [m] = evaluate([(probe, bank)], world.test_blocks(), spec.n_base)
        labels = world.test_y
        n_base_samples = int((labels < spec.n_base).sum())
        n_novel = len(labels) - n_base_samples
        mixed = (m["acc_base"] * n_base_samples + m["acc_novel"] * n_novel) / len(labels)
        assert m["acc_all"] == pytest.approx(mixed, abs=1e-12)

    def test_empty_test_set(self):
        spec = WorldSpec(**SMALL_WORLD)
        world = generate_world(spec)
        bank = build_toy_bank(world, k=3, l=3, seed=0)
        with pytest.raises(EmptyTestSet):
            evaluate([(ProbeModel(np.eye(spec.dim), np.zeros(spec.dim)), bank)],
                     [(np.zeros((0, spec.dim)), np.zeros(0, dtype=np.int64))],
                     spec.n_base)
        with pytest.raises(EmptyTestSet):
            evaluate([(ProbeModel(np.eye(spec.dim), np.zeros(spec.dim)), bank)], [],
                     spec.n_base)


    @staticmethod
    def _whole_array_cosines(probe, bank, features):
        # evaluate's products run on one BLAS thread; with more, OpenBLAS
        # splits them and rounds differently, so the oracle's run on one too
        with backend.one_blas_thread():
            proj = features @ probe.weight + probe.bias
            cosm = proj @ bank.sesp.T
        fn = np.linalg.norm(proj, axis=1)
        pn = np.linalg.norm(bank.sesp, axis=1)
        return cosm / (fn[:, None] * pn[None, :])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), rows=st.sampled_from([1, 2, 3, None]))
    def test_in_place_scores_equal_whole_array_expression(self, data, rows):
        n = data.draw(st.integers(1, 300), label="N")
        d_in = data.draw(st.integers(1, 130), label="dim_in")
        d_emb = data.draw(st.integers(1, 130), label="dim_embed")
        c = data.draw(st.integers(2, 40), label="C")
        n_base = data.draw(st.integers(1, c - 1), label="n_base")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        probe = ProbeModel(weight=rng.standard_normal((d_in, d_emb)),
                           bias=rng.standard_normal(d_emb))
        bank = PrototypeBank(
            vocab=tuple(f"class_{i:02d}" for i in range(c)),
            sesp=rng.standard_normal((c, d_emb)) * rng.uniform(0.1, 10.0, (c, 1)),
            sapp=rng.standard_normal((c, 1, d_emb)), strategy=Aggregation.MEAN,
            k=1, l=1,
        )
        features = rng.standard_normal((n, d_in))
        labels = rng.integers(c, size=n)
        expected = self._whole_array_cosines(probe, bank, features)
        correct = expected.argmax(axis=1) == labels
        base = labels < n_base

        def acc(mask):
            return float(correct[mask].mean()) if mask.any() else float("nan")

        with _blocks_of(rows):
            cosines = synthbench._cosines(probe, bank, features)
            [metrics] = evaluate([(probe, bank)], [(features, labels)], n_base)
        assert cosines.tobytes() == expected.tobytes()
        np.testing.assert_equal(metrics, {"acc_novel": acc(~base),
                                          "acc_base": acc(base),
                                          "acc_all": float(correct.mean())})

    @pytest.mark.parametrize("n_classes", [None, 64])
    def test_traced_peak_is_the_projection_plus_the_cosines(self, n_classes):
        # Scoring one block of N rows: N*D for the projected features and
        # N*C for the cosines, plus two block budgets; numpy reports its
        # allocations to tracemalloc, so the bound is exact. The run's own
        # bank, and a bank wider than the features, where the cosines'
        # division dominates. The whole test split is the block here.
        world = generate_world(WorldSpec())
        bank = build_run_bank(world, TrainConfig())
        if n_classes is not None:
            rng = np.random.default_rng(0)
            bank = PrototypeBank(
                vocab=tuple(f"class_{i:02d}" for i in range(n_classes)),
                sesp=rng.standard_normal((n_classes, bank.dim)),
                sapp=rng.standard_normal((n_classes, 1, bank.dim)),
                strategy=Aggregation.MEAN, k=1, l=1,
            )
        probe = initial_probe(world)
        block = _test_split(world)
        n, c = len(block[1]), len(bank.vocab)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            evaluate([(probe, bank)], [block], world.spec.n_base)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (n * bank.dim + n * c) + 2 * synthbench.ROW_BLOCK_BYTES

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_pass_scores_each_run_as_alone(self, data):
        # several (probe, bank) pairs of different embedding widths scored
        # in one pass over blocks cut anywhere get what each gets alone
        n = data.draw(st.integers(1, 120), label="N")
        d_in = data.draw(st.integers(1, 40), label="dim_in")
        c = data.draw(st.integers(2, 12), label="C")
        n_base = data.draw(st.integers(1, c - 1), label="n_base")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        scorers = []
        for d_emb in data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=4),
                               label="dim_embed"):
            scorers.append((
                ProbeModel(weight=rng.standard_normal((d_in, d_emb)),
                           bias=rng.standard_normal(d_emb)),
                PrototypeBank(vocab=tuple(f"class_{i:02d}" for i in range(c)),
                              sesp=rng.standard_normal((c, d_emb)),
                              sapp=rng.standard_normal((c, 1, d_emb)),
                              strategy=Aggregation.MEAN, k=1, l=1)))
        features = rng.standard_normal((n, d_in))
        labels = rng.integers(c, size=n)
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=5), label="cuts"))
        bounds = list(zip([0, *cuts], [*cuts, n]))
        blocks = [(features[lo:hi], labels[lo:hi]) for lo, hi in bounds]
        together = evaluate(scorers, blocks, n_base)
        alone = [evaluate([scorer], blocks, n_base)[0] for scorer in scorers]
        np.testing.assert_equal(together, alone)

    def test_scoring_a_world_holds_no_test_split(self):
        # Scoring the default world's four component arms in one pass, as
        # an ablation chunk does, allocates less than one (n_test, D)
        # array: the split is drawn and scored one block at a time.
        spec = WorldSpec()
        world = run_world(spec)
        scorers = []
        for arm in ABLATION_GRIDS["components"]:
            cfg = TrainConfig(**{k: v for k, v in arm.items() if k != "arm"})
            scorers.append((initial_probe(world), build_run_bank(world, cfg)))
        n_test = spec.n_classes * spec.test_per_class
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            evaluate(scorers, world.test_blocks(), spec.n_base)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 8 * n_test * spec.dim

SMALL_CFG = dict(steps=40, temperature=0.2)


def _small_spec(**kw):
    return WorldSpec(**{**SMALL_WORLD, **kw})


class TestRunAblation:
    def test_component_grid_emits_expected_rows(self):
        records = run_ablation(_small_spec(), TrainConfig(**SMALL_CFG),
                               "components", seeds=[0, 1])
        runs = [r for r in records if r["kind"] == "run"]
        summaries = [r for r in records if r["kind"] == "summary"]
        assert len(runs) == 8
        assert len(summaries) == 4
        assert {r["arm"] for r in runs} == {"baseline", "+sesp", "+sapp", "full"}
        for s in summaries:
            assert set(s["metrics_mean"]) == {"acc_novel", "acc_base", "acc_all"}
            assert set(s["metrics_std"]) == {"acc_novel", "acc_base", "acc_all"}

    def test_k_and_l_sweep_axes(self):
        assert [a["k"] for a in ABLATION_GRIDS["k"]] == [3, 5, 7, 9]
        assert [a["l"] for a in ABLATION_GRIDS["l"]] == [3, 5, 7, 9]
        assert [a["tau"] for a in ABLATION_GRIDS["tau"]] == [0.0, 0.1, 0.25, 0.4]
        assert {a["aggregation"] for a in ABLATION_GRIDS["aggregator"]} == {
            s.value for s in Aggregation
        }

    def test_k_sweep_runs_on_small_world(self):
        records = run_ablation(_small_spec(), TrainConfig(**SMALL_CFG), "k",
                               seeds=[0])
        runs = [r for r in records if r["kind"] == "run"]
        assert [r["config"]["train.k"] for r in runs] == [3, 5, 7, 9]

    def test_aggregator_grid_exercises_every_strategy(self):
        records = run_ablation(_small_spec(), TrainConfig(**SMALL_CFG),
                               "aggregator", seeds=[0])
        runs = [r for r in records if r["kind"] == "run"]
        assert {r["config"]["train.aggregation"] for r in runs} == {
            s.value for s in Aggregation
        }
        for r in runs:
            assert 0.0 <= r["metrics"]["acc_all"] <= 1.0

    def test_deterministic_records(self):
        a = run_ablation(_small_spec(), TrainConfig(**SMALL_CFG),
                         "components", seeds=[0])
        b = run_ablation(_small_spec(), TrainConfig(**SMALL_CFG),
                         "components", seeds=[0])
        assert a == b

    def test_flag_off_indistinguishable_from_lambda_zero(self):
        spec = _small_spec()
        rec_off = _run_record(spec, TrainConfig(**SMALL_CFG, use_sapp=False))
        rec_zero = _run_record(spec, TrainConfig(**SMALL_CFG, lam=0.0))
        assert rec_off["metrics"] == rec_zero["metrics"]
        assert rec_off["loss_summary"] == rec_zero["loss_summary"]

    def test_unknown_grid_rejected(self):
        with pytest.raises(ValueError):
            run_ablation(_small_spec(), TrainConfig(**SMALL_CFG), "nope", [0])
        with pytest.raises(ValueError):
            run_ablation(_small_spec(), TrainConfig(**SMALL_CFG),
                         "components", [])

    def test_record_carries_backend_and_version(self):
        rec = _run_record(_small_spec(), TrainConfig(**SMALL_CFG))
        assert rec["config"]["backend"] == backend.active_backend()
        assert rec["version"] == rec["config"]["version"]


class TestSharedWorlds:
    """run_ablation generates each distinct world once and shares it
    across the arms that run on it."""

    @staticmethod
    def _assert_records_equal_single_runs(records, seeds):
        runs = [r for r in records if r["kind"] == "run"]
        arms = ABLATION_GRIDS["components"]
        assert [(r["arm"], r["seed"]) for r in runs] == [
            (a["arm"], s) for a in arms for s in seeds
        ]
        for arm, rec in zip((a for a in arms for _ in seeds), runs):
            overrides = {k: v for k, v in arm.items() if k != "arm"}
            cfg = TrainConfig(**{**SMALL_CFG, **overrides, "seed": rec["seed"]})
            expected = _run_record(_small_spec(), cfg)
            assert {k: v for k, v in rec.items() if k not in ("arm", "seed")} == expected

    def test_records_equal_run_single(self):
        records = run_ablation(_small_spec(), TrainConfig(**SMALL_CFG),
                               "components", seeds=[0, 1])
        self._assert_records_equal_single_runs(records, (0, 1))

    def test_one_pass_runs_equal_single_runs(self):
        # the arms trained on one world and scored in one pass get the
        # records and probes each gets run alone
        cfgs = [TrainConfig(**{**SMALL_CFG, **{k: v for k, v in arm.items() if k != "arm"},
                               "seed": 1})
                for arm in ABLATION_GRIDS["components"]]
        runs = train_and_evaluate(_small_spec(), cfgs)
        assert len(runs) == len(cfgs)
        for cfg, (record, probe) in zip(cfgs, runs):
            [(alone, alone_probe)] = train_and_evaluate(_small_spec(), [cfg])
            assert record == alone
            assert probe.weight.tobytes() == alone_probe.weight.tobytes()
            assert probe.bias.tobytes() == alone_probe.bias.tobytes()

    def test_one_pass_needs_one_run_seed(self):
        # configs of different run seeds have different worlds
        with pytest.raises(ConfigError, match="seed"):
            train_and_evaluate(_small_spec(), [TrainConfig(**SMALL_CFG, seed=0),
                                               TrainConfig(**SMALL_CFG, seed=1)])
        with pytest.raises(ConfigError, match="seed"):
            train_and_evaluate(_small_spec(), [])

    @staticmethod
    def _count_worlds(monkeypatch, tmp_path):
        """Cut the affinity mask to at most two CPUs and log the seed of
        every run world built and of every pass over a test split; returns
        the CPU count and two functions that read the logs.

        The forked workers inherit the patches, but a list they append to
        never reaches this process; a file does.
        """
        cpus = set(sorted(os.sched_getaffinity(0))[:2])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        built, drawn = tmp_path / "built.txt", tmp_path / "drawn.txt"
        build, blocks = synthbench.run_world, synthbench.ToyWorld.test_blocks

        def log(path, seed):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(f"{seed}\n")

        def counting_build(spec):
            log(built, spec.seed)
            return build(spec)

        def counting_pass(world):
            log(drawn, world.spec.seed)
            yield from blocks(world)

        monkeypatch.setattr(synthbench, "run_world", counting_build)
        monkeypatch.setattr(synthbench.ToyWorld, "test_blocks", counting_pass)

        def read(path):
            return lambda: sorted(int(s) for s in path.read_text().split())
        return len(cpus), read(built), read(drawn)

    def test_one_world_per_distinct_spec(self, monkeypatch, tmp_path):
        # two worlds on at most two CPUs: each worker builds its own once
        _, generated, _ = self._count_worlds(monkeypatch, tmp_path)
        run_ablation(_small_spec(), TrainConfig(**SMALL_CFG), "components",
                     seeds=[0, 1])
        assert generated() == [5, 6]

    def test_split_group_records_equal_run_single(self, monkeypatch, tmp_path):
        # At most two CPUs for three worlds: with two, the third world's
        # arms are split between the workers, and each builds it.
        n_cpus, generated, _ = self._count_worlds(monkeypatch, tmp_path)
        records = run_ablation(_small_spec(), TrainConfig(**SMALL_CFG),
                               "components", seeds=[0, 1, 2])
        assert generated() == [5, 6, 7] + [7] * (n_cpus - 1)
        self._assert_records_equal_single_runs(records, (0, 1, 2))

    def test_lone_group_is_split_over_the_cpus(self, monkeypatch, tmp_path):
        # One seed is one world: with two CPUs its four arms run two per
        # worker, and each worker builds the world.
        n_cpus, generated, _ = self._count_worlds(monkeypatch, tmp_path)
        records = run_ablation(_small_spec(), TrainConfig(**SMALL_CFG),
                               "components", seeds=[0])
        assert generated() == [5] * n_cpus
        self._assert_records_equal_single_runs(records, (0,))

    @pytest.mark.parametrize("seeds", [[0], [0, 1, 2]])
    def test_each_chunk_draws_its_test_split_once(self, monkeypatch, tmp_path, seeds):
        # a chunk's arms are scored in one pass over its world's test
        # split: one pass per world a worker builds, not one per arm
        n_cpus, generated, drawn = self._count_worlds(monkeypatch, tmp_path)
        run_ablation(_small_spec(), TrainConfig(**SMALL_CFG), "components", seeds=seeds)
        n_arms = len(ABLATION_GRIDS["components"])
        assert drawn() == generated()
        assert len(drawn()) < n_arms * len(seeds)


class TestSplitGroups:
    """_split_groups hands whole groups out first and splits only the
    groups that do not divide evenly among the workers."""

    @pytest.mark.parametrize("n_groups, n_workers",
                             [(1, 2), (2, 2), (5, 2), (5, 4), (3, 1)])
    def test_chunks(self, n_groups, n_workers):
        n_arms = len(ABLATION_GRIDS["components"])
        # one job per arm and world, numbered arm-major as in run_ablation
        groups = {f"world{g}": [a * n_groups + g for a in range(n_arms)]
                  for g in range(n_groups)}
        chunks = synthbench._split_groups(groups, n_workers)
        assert sorted(i for _, indices in chunks for i in indices) == list(
            range(n_groups * n_arms))
        for world, indices in chunks:
            assert indices and set(indices) <= set(groups[world])
        # each chunk generates its world once
        r = n_groups % n_workers
        assert len(chunks) == n_groups - r + r * min(n_workers, n_arms)
        whole = n_groups - r
        assert chunks[:whole] == list(groups.items())[:whole]


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in this process if the block outlives `seconds`."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestAblationWorkers:
    """run_ablation trains in forked worker processes, which inherit the
    monkeypatches below; what goes wrong there must reach the caller."""

    def test_worker_exception_reaches_caller(self, monkeypatch):
        def diverging(*args, **kwargs):
            raise DivergenceDetected("total loss became nan")

        monkeypatch.setattr(synthbench, "train", diverging)
        with pytest.raises(DivergenceDetected, match="^total loss became nan$"):
            run_ablation(_small_spec(), TrainConfig(**SMALL_CFG), "components",
                         seeds=[0, 1])

    def test_dead_worker_raises_broken_pool(self, monkeypatch):
        monkeypatch.setattr(synthbench, "train", lambda *args, **kwargs: os._exit(1))
        with _deadline(60), pytest.raises(BrokenProcessPool):
            run_ablation(_small_spec(), TrainConfig(**SMALL_CFG), "components",
                         seeds=[0, 1])


class TestMonotoneNoiseSanity:
    def test_more_noise_never_helps_beyond_seed_noise(self):
        means = []
        stds = []
        for noise in (0.3, 0.8, 1.4):
            accs = []
            for seed in range(5):
                spec = _small_spec(noise_sigma=noise, test_per_class=40)
                rec = _run_record(spec, TrainConfig(**SMALL_CFG, seed=seed))
                accs.append(rec["metrics"]["acc_all"])
            means.append(np.mean(accs))
            stds.append(np.std(accs, ddof=1))
        for i in range(len(means) - 1):
            assert means[i + 1] <= means[i] + stds[i + 1]


_NON_NEGATIVE = st.floats(0.0, 10.0)


@st.composite
def _valid_overrides(draw):
    """--set strings for a random subset of the config keys, each set to a
    value that loads."""
    # n_classes + k_states + l_scenes never exceeds the smallest dim, 28
    values = draw(st.fixed_dictionaries({}, optional={
        "world.dim": st.integers(28, 64),
        "world.n_classes": st.integers(2, 16),
        "world.k_states": st.integers(1, 6),
        "world.l_scenes": st.integers(2, 6),
        "world.state_strength": _NON_NEGATIVE,
        "world.context_strength": _NON_NEGATIVE,
        "world.noise_sigma": _NON_NEGATIVE,
        "world.seed": st.integers(0, 2**40),
        "world.det_per_class": st.integers(0, 50),
        "world.weak_per_class": st.integers(1, 50),
        "world.test_per_class": st.integers(1, 500),
        "world.proposals_per_image": st.integers(1, 8),
        "train.lam": _NON_NEGATIVE,
        "train.tau": st.floats(-1.0, 1.0),
        "train.temperature": st.floats(1e-3, 10.0),
        "train.k": st.integers(1, 8),
        "train.l": st.integers(1, 8),
        "train.aggregation": st.sampled_from(AGGREGATIONS),
        "train.lr": _NON_NEGATIVE,
        "train.steps": st.integers(1, 1000),
        "train.seed": st.integers(-1000, 1000),
        "train.use_sesp": st.booleans(),
        "train.use_sapp": st.booleans(),
    }))
    n_classes = values.get("world.n_classes", WorldSpec.n_classes)
    if "world.n_classes" in values or draw(st.booleans()):
        values["world.n_base"] = draw(st.integers(1, n_classes - 1))
    return [f"{key}={json.dumps(value)}" for key, value in values.items()]


class TestConfigHandling:
    def test_defaults_match_schema(self):
        world, cfg = load_config(None, [])
        for key, field in CONFIG_SCHEMA.items():
            section, name = key.split(".", 1)
            src = world if section == "world" else cfg
            assert getattr(src, name) == field.default

    def test_file_and_overrides_precedence(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"world": {"dim": 30}, "train": {"lam": 0.2}}')
        world, cfg = load_config(str(path), ["train.lam=0.5"])
        assert world.dim == 30
        assert cfg.lam == 0.5

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"world": {"frobnicate": 1}}')
        with pytest.raises(ConfigError):
            load_config(str(path), [])
        with pytest.raises(ConfigError):
            load_config(None, ["train.nonsense=1"])

    @settings(max_examples=60, deadline=None)
    @given(_valid_overrides())
    def test_flat_echo_is_reloadable(self, overrides):
        world, cfg = load_config(None, overrides)
        echo = resolved_config(world, cfg)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "echo.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(echo, fh)
            world2, cfg2 = load_config(path, [])
        assert world2 == world
        assert cfg2 == cfg
        assert resolved_config(world2, cfg2) == echo

    def test_override_parsing(self):
        assert parse_override("train.lam=0.3") == ("train.lam", 0.3)
        assert parse_override("train.use_sapp=false") == ("train.use_sapp", False)
        assert parse_override('train.aggregation="median"') == (
            "train.aggregation", "median")
        with pytest.raises(ConfigError):
            parse_override("no-equals-sign")

    def test_type_coercion_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            load_config(None, ["world.dim=2.5"])
        with pytest.raises(ConfigError):
            load_config(None, ["train.use_sapp=maybe"])

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            TrainConfig(tau=2.0)
        with pytest.raises(ConfigError):
            TrainConfig(temperature=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(aggregation="average")

    def test_derive_seed_is_stable_and_labeled(self):
        assert derive_seed(7, "bank") == derive_seed(7, "bank")
        assert derive_seed(7, "bank") != derive_seed(7, "probe")
        assert derive_seed(7, "bank") != derive_seed(8, "bank")
