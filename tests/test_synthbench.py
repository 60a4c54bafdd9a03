import contextlib
import dataclasses
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semproto.config import (
    CONFIG_SCHEMA,
    TrainConfig,
    WorldSpec,
    derive_seed,
    load_config,
    parse_override,
    resolved_config,
)
from semproto.errors import (
    ConfigError,
    DimensionMismatch,
    DivergenceDetected,
    EmptyProposals,
    EmptyTestSet,
    InfeasibleWorld,
)
from semproto.prototypes import Aggregation
from semproto.synthbench import (
    ABLATION_GRIDS,
    ProbeModel,
    build_toy_bank,
    evaluate,
    generate_world,
    run_ablation,
    run_single,
    select_max_size_proposal,
    train,
)
from semproto import backend, synthbench

SMALL_WORLD = dict(dim=20, n_classes=6, n_base=4, k_states=3, l_scenes=3,
                   det_per_class=6, weak_per_class=4, test_per_class=12,
                   proposals_per_image=3, seed=5)
FAST_TRAIN = dict(steps=40, temperature=0.2)


def _splits(world):
    """(features, labels) per split; the weak split's are its pseudo-boxes."""
    weak_x = select_max_size_proposal(world.weak_areas, world.weak_proposals)
    return ((world.det_x, world.det_y), (weak_x, world.weak_y),
            (world.test_x, world.test_y))


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
        np.testing.assert_array_equal(select_max_size_proposal(areas, props),
                                      expected)


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
            feats, labels = world.test_x, world.test_y
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
        probe = ProbeModel.identity(4)
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
            record = run_single(dataclasses.replace(WorldSpec(), test_per_class=20),
                                TrainConfig(seed=seed))
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


class TestEvaluate:
    def test_perfect_world_is_fully_separable(self):
        spec = WorldSpec(**{**SMALL_WORLD, "state_strength": 0.0,
                            "context_strength": 0.0, "noise_sigma": 0.0})
        world = generate_world(spec)
        bank = build_toy_bank(world, k=3, l=3, enc_noise_sigma=0.0, seed=0)
        metrics = evaluate(ProbeModel.identity(spec.dim), bank, world.test_x,
                           world.test_y, spec.n_base)
        assert metrics == {"acc_novel": 1.0, "acc_base": 1.0, "acc_all": 1.0}

    def test_random_probe_sits_at_chance(self):
        spec = WorldSpec(**{**SMALL_WORLD, "n_classes": 8, "n_base": 4,
                            "dim": 24, "test_per_class": 150})
        world = generate_world(spec)
        bank = build_toy_bank(world, k=3, l=3, enc_noise_sigma=0.0, seed=0)
        accs = []
        for seed in range(4):
            probe = ProbeModel.random(spec.dim, spec.dim, seed=seed)
            accs.append(evaluate(probe, bank, world.test_x, world.test_y,
                                 4)["acc_all"])
        n = 8 * 150
        p = 1.0 / 8
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(np.mean(accs) - p) < 3 * sigma + 2 * np.std(accs)

    def test_accounting_identity(self):
        spec = WorldSpec(**SMALL_WORLD)
        world = generate_world(spec)
        bank = build_toy_bank(world, k=3, l=3, seed=0)
        probe = ProbeModel.near_identity(spec.dim, seed=2)
        m = evaluate(probe, bank, world.test_x, world.test_y, spec.n_base)
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
            evaluate(ProbeModel.identity(spec.dim), bank,
                     np.zeros((0, spec.dim)), np.zeros(0, dtype=np.int64),
                     spec.n_base)


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
        rec_off = run_single(spec, TrainConfig(**SMALL_CFG, use_sapp=False))
        rec_zero = run_single(spec, TrainConfig(**SMALL_CFG, lam=0.0))
        assert rec_off["metrics"] == rec_zero["metrics"]
        assert rec_off["loss_summary"] == rec_zero["loss_summary"]

    def test_unknown_grid_rejected(self):
        with pytest.raises(ValueError):
            run_ablation(_small_spec(), TrainConfig(**SMALL_CFG), "nope", [0])
        with pytest.raises(ValueError):
            run_ablation(_small_spec(), TrainConfig(**SMALL_CFG),
                         "components", [])

    def test_record_carries_backend_and_version(self):
        rec = run_single(_small_spec(), TrainConfig(**SMALL_CFG))
        assert rec["config"]["backend"] == backend.active_backend()
        assert rec["version"] == rec["config"]["version"]


class TestSharedWorlds:
    """run_ablation generates each distinct world once and shares it
    across the arms that run on it."""

    @staticmethod
    def _assert_records_equal_run_single(records, seeds):
        runs = [r for r in records if r["kind"] == "run"]
        arms = ABLATION_GRIDS["components"]
        assert [(r["arm"], r["seed"]) for r in runs] == [
            (a["arm"], s) for a in arms for s in seeds
        ]
        for arm, rec in zip((a for a in arms for _ in seeds), runs):
            overrides = {k: v for k, v in arm.items() if k != "arm"}
            cfg = TrainConfig(**{**SMALL_CFG, **overrides, "seed": rec["seed"]})
            expected = run_single(_small_spec(), cfg)
            assert {k: v for k, v in rec.items() if k not in ("arm", "seed")} == expected

    def test_records_equal_run_single(self):
        records = run_ablation(_small_spec(), TrainConfig(**SMALL_CFG),
                               "components", seeds=[0, 1])
        self._assert_records_equal_run_single(records, (0, 1))

    @staticmethod
    def _count_worlds(monkeypatch, tmp_path):
        """Cut the affinity mask to at most two CPUs and log the seed of
        every generated world; returns the CPU count and a function that
        reads the log.

        The forked workers inherit the patch, but a list they append to
        never reaches this process; a file does.
        """
        cpus = set(sorted(os.sched_getaffinity(0))[:2])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        log = tmp_path / "generated.txt"
        original = synthbench.generate_world

        def counting(spec):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{spec.seed}\n")
            return original(spec)

        monkeypatch.setattr(synthbench, "generate_world", counting)
        return len(cpus), lambda: sorted(int(s) for s in log.read_text().split())

    def test_one_world_per_distinct_spec(self, monkeypatch, tmp_path):
        # two worlds on at most two CPUs: each worker generates its own once
        _, generated = self._count_worlds(monkeypatch, tmp_path)
        run_ablation(_small_spec(), TrainConfig(**SMALL_CFG), "components",
                     seeds=[0, 1])
        assert generated() == [5, 6]

    def test_split_group_records_equal_run_single(self, monkeypatch, tmp_path):
        # At most two CPUs for three worlds: with two, the third world's
        # arms are split between the workers, and each generates it.
        n_cpus, generated = self._count_worlds(monkeypatch, tmp_path)
        records = run_ablation(_small_spec(), TrainConfig(**SMALL_CFG),
                               "components", seeds=[0, 1, 2])
        assert generated() == [5, 6, 7] + [7] * (n_cpus - 1)
        self._assert_records_equal_run_single(records, (0, 1, 2))

    def test_lone_group_is_split_over_the_cpus(self, monkeypatch, tmp_path):
        # One seed is one world: with two CPUs its four arms run two per
        # worker, and each worker generates the world.
        n_cpus, generated = self._count_worlds(monkeypatch, tmp_path)
        records = run_ablation(_small_spec(), TrainConfig(**SMALL_CFG),
                               "components", seeds=[0])
        assert generated() == [5] * n_cpus
        self._assert_records_equal_run_single(records, (0,))


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
                rec = run_single(spec, TrainConfig(**SMALL_CFG, seed=seed))
                accs.append(rec["metrics"]["acc_all"])
            means.append(np.mean(accs))
            stds.append(np.std(accs, ddof=1))
        for i in range(len(means) - 1):
            assert means[i + 1] <= means[i] + stds[i + 1]


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

    def test_flat_echo_is_reloadable(self, tmp_path):
        world, cfg = load_config(None, ["world.dim=32", "train.steps=7"])
        echo = resolved_config(world, cfg)
        path = tmp_path / "echo.json"
        import json

        path.write_text(json.dumps(echo))
        world2, cfg2 = load_config(str(path), [])
        assert world2 == world
        assert cfg2 == cfg

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
