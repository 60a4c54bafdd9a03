"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line (run with -s or -rA to see them on success).

Numeric tolerances and runtime budgets are pinned here and nowhere else.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from semproto.alignment import (
    assign_pseudo_labels,
    det_cls_loss,
    scene_loss,
    scene_loss_and_grad,
    scene_similarities,
    weak_cls_loss,
)
from semproto.config import CONFIG_SCHEMA, TrainConfig, WorldSpec
from semproto.core import sigmoid
from semproto.alignment import PseudoLabelGrid
from semproto.prototypes import (
    Aggregation,
    PrototypeBank,
    aggregate_mean,
    aggregate_median,
    aggregate_similarity_weighted,
    aggregate_two_stage,
)
from semproto.synthbench import run_ablation

from .oracles import (
    central_diff_grad,
    mean_agg_loop,
    median_agg_loop,
    pseudo_label_loop,
    scene_loss_loop,
)

SMALL_WORLD_ARGS = [
    "--set", "world.dim=20",
    "--set", "world.n_classes=6",
    "--set", "world.n_base=4",
    "--set", "world.k_states=3",
    "--set", "world.l_scenes=3",
    "--set", "world.det_per_class=6",
    "--set", "world.weak_per_class=4",
    "--set", "world.test_per_class=12",
    "--set", "train.steps=30",
]


def _cli(*args):
    out = subprocess.run([sys.executable, "-m", "semproto", *args],
                         capture_output=True, text=True)
    assert out.returncode == 0, f"cli failed: {out.stderr}"
    return out


def _report(line):
    print(line)


def _random_bank(rng, n_classes, l, dim):
    sesp = rng.standard_normal((n_classes, dim))
    sesp /= np.linalg.norm(sesp, axis=1, keepdims=True)
    sapp = rng.standard_normal((n_classes, l, dim))
    sapp /= np.linalg.norm(sapp, axis=2, keepdims=True)
    return PrototypeBank(vocab=tuple(f"c{i}" for i in range(n_classes)),
                         sesp=sesp, sapp=sapp, strategy=Aggregation.MEAN,
                         k=1, l=l)


def test_c1_mean_aggregation_formula_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(100):
        k = (1, 5, 9)[trial % 3]
        generic = rng.standard_normal(64)
        states = rng.standard_normal((k, 64))
        got = aggregate_mean(generic, states)
        expect = np.array(mean_agg_loop(list(generic),
                                        [list(s) for s in states]))
        worst = max(worst, float(np.abs(got - expect).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12, f"max deviation {worst:.2e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(f"ACCEPTANCE C1 mean-aggregation vs loop oracle "
            f"(|delta|inf={worst:.1e}, {elapsed:.2f}s): PASS")


def test_c2_pseudo_label_assignment_matches_triple_loop():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    taus = (-1.0, 0.0, 0.25, 1.0)
    worst_w = 0.0
    for trial in range(200):
        b = int(rng.integers(1, 9))
        c = int(rng.integers(1, 17))
        l = int(rng.integers(1, 9))
        s = rng.uniform(-1, 1, size=(b, c, l))
        labels = rng.integers(c, size=b)
        tau = taus[trial % 4]
        grid = assign_pseudo_labels(s, labels, tau)
        y_ref, w_ref = pseudo_label_loop(s.tolist(), labels.tolist(), tau)
        assert np.array_equal(grid.y, np.array(y_ref, dtype=np.uint8))
        worst_w = max(worst_w, float(np.abs(grid.w - np.array(w_ref)).max()))
    elapsed = time.perf_counter() - start
    assert worst_w < 1e-12
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    _report(f"ACCEPTANCE C2 pseudo-labels vs triple loop "
            f"(y exact, |w err|={worst_w:.1e}, {elapsed:.2f}s): PASS")


def test_c3_scene_loss_values():
    # closed-form single-term cases
    grid_pos = PseudoLabelGrid(y=np.ones((1, 1, 1), dtype=np.uint8),
                               w=np.full((1, 1, 1), 0.5),
                               s=np.zeros((1, 1, 1)))
    assert abs(scene_loss(grid_pos) - 0.5 * math.log(2.0)) < 1e-9
    grid_sat = PseudoLabelGrid(y=np.ones((1, 1, 1), dtype=np.uint8),
                               w=sigmoid(np.full((1, 1, 1), 30.0)),
                               s=np.full((1, 1, 1), 30.0))
    assert scene_loss(grid_sat) < 1e-9

    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        b = int(rng.integers(1, 9))
        c = int(rng.integers(1, 17))
        l = int(rng.integers(1, 9))
        s = rng.uniform(-1, 1, size=(b, c, l))
        labels = rng.integers(c, size=b)
        grid = assign_pseudo_labels(s, labels, tau=0.25)
        got = scene_loss(grid)
        ref = scene_loss_loop(s.tolist(), grid.y.tolist(), grid.w.tolist())
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-10
    _report(f"ACCEPTANCE C3 scene-loss closed forms and loop oracle "
            f"(rel err={worst:.1e}): PASS")


def test_c4_analytic_gradients_match_finite_differences():
    start = time.perf_counter()
    h = 1e-5
    worst = {"scene": 0.0, "scene-detached": 0.0, "weak": 0.0, "det": 0.0}

    rng = np.random.default_rng(404)
    for detach in (False, True):
        key = "scene-detached" if detach else "scene"
        for _ in range(100):
            bank = _random_bank(rng, 3, 2, 8)
            feats = rng.standard_normal((2, 8))
            labels = rng.integers(3, size=2)
            _, grad = scene_loss_and_grad(feats, labels, bank,
                                          tau=0.25, detach_weights=detach)
            if detach:
                base = assign_pseudo_labels(
                    scene_similarities(feats, bank),
                    labels, 0.25)
                w_frozen = base.w.copy()

                def fn(x):
                    s = scene_similarities(x, bank)
                    g = assign_pseudo_labels(s, labels, 0.25)
                    return scene_loss(PseudoLabelGrid(y=g.y, w=w_frozen, s=g.s))
            else:
                def fn(x):
                    l, _ = scene_loss_and_grad(x, labels, bank, tau=0.25)
                    return l

            fd = central_diff_grad(fn, feats, h=h)
            rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-30)
            worst[key] = max(worst[key], rel)

    for name, loss_fn in (("weak", None), ("det", None)):
        rng = np.random.default_rng(505 if name == "weak" else 606)
        for _ in range(100):
            bank = _random_bank(rng, 4, 2, 8)
            feats = rng.standard_normal((2, 8))
            labels = rng.integers(4, size=2)
            if name == "weak":
                _, grad = weak_cls_loss(feats, labels, bank, 0.1)

                def fn(x):
                    return weak_cls_loss(x, labels, bank, 0.1)[0]
            else:
                _, grad = det_cls_loss(feats, labels, bank, 0.1)

                def fn(x):
                    return det_cls_loss(x, labels, bank, 0.1)[0]

            fd = central_diff_grad(fn, feats, h=h)
            rel = np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-30)
            worst[name] = max(worst[name], rel)

    elapsed = time.perf_counter() - start
    for key, rel in worst.items():
        assert rel < 1e-6, f"{key}: rel err {rel:.2e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report("ACCEPTANCE C4 analytic gradients vs central differences "
            + " ".join(f"{k}={v:.1e}" for k, v in worst.items())
            + f" ({elapsed:.1f}s): PASS")


def test_c5_aggregator_structural_relations():
    rng = np.random.default_rng(707)
    # similarity-weighted equals mean when every weight is equal
    g = rng.standard_normal(32)
    g /= np.linalg.norm(g)
    states_same = [g.copy() for _ in range(5)]
    delta = np.abs(aggregate_similarity_weighted(g, states_same)
                   - aggregate_mean(g, states_same)).max()
    assert delta < 1e-10

    # two-stage equals mean at K=1
    s = rng.standard_normal(32)
    delta2 = np.abs(aggregate_two_stage(g, [s]) - aggregate_mean(g, [s])).max()
    assert delta2 < 1e-15

    # median matches a sort-based oracle
    worst = 0.0
    for _ in range(50):
        gg = rng.standard_normal(16)
        states = rng.standard_normal((int(rng.integers(1, 7)), 16))
        got = aggregate_median(gg, states)
        ref = np.array(median_agg_loop(list(gg), [list(x) for x in states]))
        worst = max(worst, float(np.abs(got - ref).max()))
    assert worst < 1e-12
    _report(f"ACCEPTANCE C5 aggregator structure (sw-mean={delta:.1e}, "
            f"two-stage={delta2:.1e}, median={worst:.1e}): PASS")


def test_c6_component_ablation_ordering():
    start = time.perf_counter()
    records = run_ablation(WorldSpec(), TrainConfig(), "components",
                           seeds=[0, 1, 2, 3, 4])
    elapsed = time.perf_counter() - start
    sums = {r["arm"]: r for r in records if r["kind"] == "summary"}
    mean = {arm: sums[arm]["metrics_mean"]["acc_novel"] for arm in sums}
    std = {arm: sums[arm]["metrics_std"]["acc_novel"] for arm in sums}
    pooled = math.sqrt(sum(v ** 2 for v in std.values()) / len(std))
    gain = mean["full"] - mean["baseline"]

    assert mean["baseline"] < mean["+sesp"], mean
    assert mean["baseline"] < mean["+sapp"], mean
    assert max(mean["+sesp"], mean["+sapp"]) < mean["full"], mean
    assert gain > 2.0 * pooled, f"gain {gain:.4f} vs 2*pooled {2 * pooled:.4f}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report("ACCEPTANCE C6 ablation ordering "
            + " ".join(f"{a}={mean[a]:.3f}" for a in
                       ("baseline", "+sesp", "+sapp", "full"))
            + f" gain={gain:.3f} pooled-std={pooled:.3f} ({elapsed:.0f}s): PASS")


def test_c7_sweep_harness(tmp_path):
    for axis, key, values in (("k", "train.k", [3, 5, 7, 9]),
                              ("l", "train.l", [3, 5, 7, 9])):
        out_path = tmp_path / f"sweep_{axis}.jsonl"
        _cli("ablate", *SMALL_WORLD_ARGS, "--grid", axis, "--seeds", "2",
             "--out", str(out_path))
        records = [json.loads(line)
                   for line in out_path.read_text().splitlines()]
        runs = [r for r in records if r["kind"] == "run"]
        summaries = [r for r in records if r["kind"] == "summary"]
        assert sorted({r["config"][key] for r in runs}) == values
        assert len(runs) == 8 and len(summaries) == 4
        for s in summaries:
            assert set(s["metrics_mean"]) == {"acc_novel", "acc_base", "acc_all"}
            assert set(s["metrics_std"]) == {"acc_novel", "acc_base", "acc_all"}
        for r in runs:
            assert r["config"]["train.lam"] == 0.1

    assert CONFIG_SCHEMA["train.k"].default == 5
    assert CONFIG_SCHEMA["train.k"].provenance == "paper"
    assert CONFIG_SCHEMA["train.l"].default == 5
    assert CONFIG_SCHEMA["train.l"].provenance == "paper"
    assert CONFIG_SCHEMA["train.lam"].default == 0.1
    assert CONFIG_SCHEMA["train.lam"].provenance == "paper"
    _report("ACCEPTANCE C7 K/L sweep harness emits well-formed results "
            "with paper defaults K=5 L=5 lambda=0.1: PASS")


def test_c8_bitwise_determinism(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["ablate", *SMALL_WORLD_ARGS, "--grid", "components",
            "--seeds", "2"]
    _cli(*args, "--out", str(a))
    _cli(*args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    _report("ACCEPTANCE C8 identical resolved config reproduces results "
            "bitwise: PASS")


def test_c9_end_to_end_offline(tmp_path):
    start = time.perf_counter()
    out_path = tmp_path / "default_ablation.jsonl"
    _cli("ablate", "--grid", "components", "--seeds", "5",
         "--out", str(out_path))
    elapsed = time.perf_counter() - start
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert sum(1 for r in records if r["kind"] == "run") == 20
    bank_path = tmp_path / "bank.json"
    _cli("build-bank", "--out", str(bank_path))
    assert bank_path.exists()
    assert elapsed < 180.0, f"default ablation took {elapsed:.0f}s"
    _report(f"ACCEPTANCE C9 default ablation + shipped fixtures offline "
            f"({elapsed:.0f}s): PASS")
