import gc
import json
import os
import resource
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semproto import backend
from semproto.alignment import (
    assign_pseudo_labels,
    scene_loss,
    scene_loss_and_grad,
    scene_similarities,
    weak_cls_loss,
)
from semproto.errors import DimensionMismatch, ZeroNorm
from semproto.prototypes import Aggregation, PrototypeBank


class TestKernelEdgeCases:
    def test_empty_batches(self):
        feats = np.zeros((0, 8))
        sapp = np.ones((2, 2, 8))
        protos = np.ones((2, 8))
        labels = np.zeros(0, dtype=np.int64)
        loss, grad = backend.scene_loss_grad_kernel(feats, sapp, labels, 0.0)
        assert loss == 0.0 and grad.shape == (0, 8)
        loss, grad = backend.softmax_ce_kernel(feats, protos, labels, 2.0)
        assert loss == 0.0 and grad.shape == (0, 8)
        # the weak-split losses pass an empty batch through, as det_cls_loss does
        bank = PrototypeBank(vocab=("a", "b"), sesp=protos, sapp=sapp,
                             strategy=Aggregation.MEAN, k=1, l=2)
        for loss, grad in (weak_cls_loss(feats, labels, bank, 0.5),
                           scene_loss_and_grad(feats, labels, bank, 0.0)):
            assert loss == 0.0 and grad.shape == (0, 8)
        assert scene_similarities(feats, bank).shape == (0, 2, 2)

    @pytest.mark.parametrize("feats", [[], np.zeros(0), np.zeros((0, 5)), np.zeros((3, 0))])
    def test_any_empty_array_is_the_empty_batch(self, feats):
        sapp, protos = np.ones((2, 2, 8)), np.ones((2, 8))
        assert backend.scene_similarity_kernel(feats, sapp).shape == (0, 2, 2)
        for loss, grad in (backend.scene_loss_grad_kernel(feats, sapp, [], 0.0),
                           backend.softmax_ce_kernel(feats, protos, [], 2.0)):
            assert loss == 0.0 and grad.shape == (0, 8)

    @pytest.mark.parametrize("feats, sapp, protos", [
        (np.ones((2, 5)), np.ones((3, 2, 4)), np.ones((3, 4))),  # width 5, dim 4
        (np.ones(4), np.ones((3, 2, 4)), np.ones((3, 4))),  # a vector, not a batch
        (np.ones((2, 1, 4)), np.ones((3, 2, 4)), np.ones((3, 4))),
        (np.ones((2, 4)), np.ones((3, 4)), np.ones(4)),  # prototypes a rank short
        (np.ones((2, 4)), np.ones((3, 2, 2, 4)), np.ones((3, 2, 4))),  # a rank over
    ])
    def test_kernels_reject_misshapen_features(self, feats, sapp, protos):
        labels = np.zeros(len(feats), dtype=np.int64)
        calls = (lambda: backend.scene_similarity_kernel(feats, sapp),
                 lambda: backend.scene_loss_grad_kernel(feats, sapp, labels, 0.25),
                 lambda: backend.softmax_ce_kernel(feats, protos, labels, 2.0))
        for call in calls:
            with pytest.raises(DimensionMismatch):
                call()

    @pytest.mark.parametrize("labels", [[0, -1], [3, 0], [0], [0, 1, 2]],
                             ids=["minus-one", "C", "too-few", "too-many"])
    def test_kernels_reject_bad_labels(self, labels):
        # label -1 would read the last class's column through wrap-around
        feats = np.random.default_rng(0).standard_normal((2, 4))
        with pytest.raises(DimensionMismatch):
            backend.scene_loss_grad_kernel(feats, np.ones((3, 2, 4)), labels, 0.25)
        with pytest.raises(DimensionMismatch):
            backend.softmax_ce_kernel(feats, np.ones((3, 4)), labels, 2.0)

    @pytest.mark.parametrize("labels", [[0.9, 2.7], [0.0, 2.0], ["1", "2"], [True, False],
                                        np.array([0, 2], dtype=object)],
                             ids=["fractional", "whole-floats", "strings", "bools", "objects"])
    def test_kernels_reject_non_integer_labels(self, labels):
        # a cast to int64 would truncate [0.9, 2.7] to the class ids [0, 2]
        feats = np.random.default_rng(0).standard_normal((2, 4))
        with pytest.raises(DimensionMismatch, match="integer"):
            backend.scene_loss_grad_kernel(feats, np.ones((3, 2, 4)), labels, 0.25)
        with pytest.raises(DimensionMismatch, match="integer"):
            backend.softmax_ce_kernel(feats, np.eye(4)[:3], labels, 2.0)
        with pytest.raises(DimensionMismatch, match="integer"):
            backend.class_labels(labels, 2, 3)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.int64])
    def test_any_integer_dtype_gives_the_same_loss(self, dtype):
        feats = np.random.default_rng(0).standard_normal((2, 4))
        want = backend.softmax_ce_kernel(feats, np.eye(4)[:3], [0, 2], 2.0)
        got = backend.softmax_ce_kernel(feats, np.eye(4)[:3], np.array([0, 2], dtype), 2.0)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])

    def test_zero_norm_rejected(self):
        # features are checked by the kernel, prototypes once per bank
        with pytest.raises(ZeroNorm):
            backend.scene_similarity_kernel(np.zeros((1, 4)), np.ones((1, 1, 4)))
        bank = PrototypeBank(vocab=("a",), sesp=np.ones((1, 4)),
                             sapp=np.zeros((1, 1, 4)),
                             strategy=Aggregation.MEAN, k=1, l=1)
        with pytest.raises(ZeroNorm):
            scene_similarities(np.ones((1, 4)), bank)

    def test_fused_kernel_clamps_cosines_like_grid_path(self):
        # The feature is anti-parallel to its class's only slot; its raw
        # cosine rounds to -1.0000000000000002, below tau = -1. Both paths
        # must threshold the clamped cosine, so both assign y = 1.
        rng = np.random.default_rng(0)
        bank = PrototypeBank(vocab=("a",), sesp=rng.standard_normal((1, 6)),
                             sapp=rng.standard_normal((1, 1, 6)),
                             strategy=Aggregation.MEAN, k=1, l=1)
        feats, labels = -bank.sapp[0, 0][None, :], np.array([0])
        fused, _ = scene_loss_and_grad(feats, labels, bank, -1.0)
        grid = assign_pseudo_labels(scene_similarities(feats, bank), labels, -1.0)
        assert grid.y.all()
        assert fused == pytest.approx(scene_loss(grid), rel=1e-12)


class TestPreparedBank:
    def test_unit_rows_are_unit_and_read_only(self):
        rng = np.random.default_rng(0)
        bank = PrototypeBank(vocab=("a", "b"), sesp=3.0 * rng.standard_normal((2, 5)),
                             sapp=rng.standard_normal((2, 3, 5)),
                             strategy=Aggregation.MEAN, k=1, l=3)
        np.testing.assert_allclose(np.linalg.norm(bank.unit_sesp, axis=1), 1.0,
                                   atol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(bank.unit_sapp, axis=2), 1.0,
                                   atol=1e-15)
        assert bank.unit_sapp is bank.unit_sapp
        for arr in (bank.sesp, bank.sapp, bank.unit_sesp, bank.unit_sapp):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_bank_does_not_alias_caller_arrays(self):
        sesp = np.eye(3)
        bank = PrototypeBank(vocab=("a", "b", "c"), sesp=sesp,
                             sapp=np.eye(3)[:, None, :],
                             strategy=Aggregation.MEAN, k=1, l=1)
        before = bank.unit_sesp.copy()
        sesp[0, 0] = 0.0
        np.testing.assert_array_equal(bank.sesp, np.eye(3))
        np.testing.assert_array_equal(bank.unit_sesp, before)


# ---------------------------------------------------------------------------
# property tests of the fused kernels over random shapes and settings
# ---------------------------------------------------------------------------

@st.composite
def _instances(draw):
    b = draw(st.integers(1, 12))
    c = draw(st.integers(1, 6))
    l = draw(st.integers(1, 5))
    dim = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bank = PrototypeBank(
        vocab=tuple(f"c{i}" for i in range(c)),
        sesp=rng.standard_normal((c, dim)),
        sapp=rng.standard_normal((c, l, dim)),
        strategy=Aggregation.MEAN,
        k=1,
        l=l,
    )
    feats, labels = rng.standard_normal((b, dim)), rng.integers(c, size=b)
    scales = rng.uniform(1e-3, 1e3, size=(b, 1))
    return bank, feats, labels, scales


_TAU = st.floats(-1.0, 1.0)
_LOGIT_SCALE = st.floats(0.1, 8.0)
_TEMPERATURE = st.floats(0.05, 2.0)
_SETTINGS = settings(max_examples=60, deadline=None)


def _assert_orthogonal_rows(grad, features):
    # Relative to the batch's largest |g_b| |f_b|, not each row's own: a
    # row that nearly cancels to zero keeps the rounding error of its terms.
    dots = np.abs(np.einsum("bd,bd->b", grad, features))
    scale = np.linalg.norm(grad, axis=1) * np.linalg.norm(features, axis=1)
    assert dots.max() <= 1e-12 * scale.max(), (dots, scale)


class TestFusedKernelProperties:
    @_SETTINGS
    @given(_instances(), _TAU, _LOGIT_SCALE, st.booleans())
    def test_scene_gradient_rows_orthogonal_to_features(self, inst, tau, gamma, detach):
        bank, feats, labels, _ = inst
        _, grad = scene_loss_and_grad(feats, labels, bank, tau, logit_scale=gamma,
                                      detach_weights=detach)
        _assert_orthogonal_rows(grad, feats)

    @_SETTINGS
    @given(_instances(), _TEMPERATURE)
    def test_ce_gradient_rows_orthogonal_to_features(self, inst, temperature):
        bank, feats, labels, _ = inst
        _, grad = weak_cls_loss(feats, labels, bank, temperature)
        _assert_orthogonal_rows(grad, feats)

    @_SETTINGS
    @given(_instances(), _TAU, _LOGIT_SCALE, st.booleans(), _TEMPERATURE)
    def test_losses_invariant_to_row_scaling(self, inst, tau, gamma, detach,
                                             temperature):
        bank, feats, labels, scales = inst
        for fn in (
            lambda x: scene_loss_and_grad(x, labels, bank, tau, logit_scale=gamma,
                                          detach_weights=detach)[0],
            lambda x: weak_cls_loss(x, labels, bank, temperature)[0],
        ):
            assert fn(scales * feats) == pytest.approx(fn(feats), rel=1e-12, abs=1e-300)

    @_SETTINGS
    @given(_instances(), _TAU, _LOGIT_SCALE, st.booleans())
    def test_fused_scene_loss_equals_grid_path(self, inst, tau, gamma, detach):
        bank, feats, labels, _ = inst
        fused, _ = scene_loss_and_grad(feats, labels, bank, tau, logit_scale=gamma,
                                       detach_weights=detach)
        grid = assign_pseudo_labels(scene_similarities(feats, bank),
                                    labels, tau, logit_scale=gamma)
        assert fused == pytest.approx(scene_loss(grid, logit_scale=gamma),
                                      rel=1e-12, abs=1e-300)


    @_SETTINGS
    @given(_instances(), _TAU, _LOGIT_SCALE, st.booleans(), _TEMPERATURE, st.data())
    def test_losses_equivariant_under_batch_permutation(self, inst, tau, gamma,
                                                        detach, temperature, data):
        bank, feats, labels, _ = inst
        perm = np.array(data.draw(st.permutations(range(len(labels)))))
        for fn in (
            lambda x, y: scene_loss_and_grad(x, y, bank, tau, logit_scale=gamma,
                                             detach_weights=detach),
            lambda x, y: weak_cls_loss(x, y, bank, temperature),
        ):
            (loss, grad), (p_loss, p_grad) = fn(feats, labels), fn(feats[perm], labels[perm])
            assert p_loss == pytest.approx(loss, rel=1e-12, abs=1e-300)
            np.testing.assert_allclose(p_grad, grad[perm], rtol=1e-12,
                                       atol=1e-12 * np.abs(grad).max())


# ---------------------------------------------------------------------------
# the scene loss's streamed sum
# ---------------------------------------------------------------------------

_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.just(0), st.integers(1, 7), st.integers(8, 128),
                 st.integers(129, 5000), st.integers(5000, 400_000),
                 st.integers(2_000, 100_000).map(lambda k: 2 * k + 1)),
       st.integers(0, 2**32 - 1), st.integers(0, 40), st.booleans(), st.booleans())
def test_pairwise_sum_equals_add_reduce(n, seed, n_cuts, specials, rows):
    # Random chunkings (empty chunks too, and fixed-width rows as the
    # kernel feeds them) fall anywhere relative to the tree's nodes, and
    # the node buffer may be far smaller than a chunk or larger than n.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n) * np.exp(rng.uniform(-30.0, 30.0, n))
    if specials and n:
        a[rng.integers(n, size=3)] = rng.choice(_SPECIALS, size=3)
    if rows:
        width = int(rng.integers(1, 2000))
        cuts = np.arange(0, n + 1, width * int(rng.integers(1, 8)))
    else:
        cuts = np.sort(rng.integers(0, n + 1, size=n_cuts))
    bounds = [0, *cuts.tolist(), n]
    total = backend.PairwiseSum(n, np.empty(int(rng.integers(128, 70_000))))
    with np.errstate(invalid="ignore"):  # inf - inf
        for lo, hi in zip(bounds, bounds[1:]):
            total.add(a[lo:hi])
        got, want = np.float64(total.total()), np.add.reduce(a)
    if np.isnan(want):  # which NaN's payload survives may depend on operand order
        assert np.isnan(got)
    else:
        assert got.tobytes() == want.tobytes(), (n, got, want)


def test_pairwise_sum_node_buffer_holds_a_leaf():
    # a leaf of up to 128 elements is summed in eight interleaved
    # accumulators, so it cannot be split into smaller nodes
    with pytest.raises(ValueError, match="leaf"):
        backend.PairwiseSum(1000, np.empty(127))


# ---------------------------------------------------------------------------
# the scene kernel's bits and its reused per-thread buffers
# ---------------------------------------------------------------------------

# (B, C, L, D): the default world's weak batch and the train-large one
_DEFAULT_SHAPE = (160, 16, 5, 28)
_LARGE_SHAPE = (960, 48, 9, 64)


def kernel_inputs(b, c, l, dim, seed=7):
    # features near one of their class's slots, so every tau fires somewhere
    rng = np.random.default_rng(seed)
    sapp = rng.standard_normal((c, l, dim))
    unit = sapp / np.linalg.norm(sapp, axis=2, keepdims=True)
    labels = rng.integers(c, size=b)
    feats = (unit[labels, rng.integers(l, size=b)]
             + 0.6 / np.sqrt(dim) * rng.standard_normal((b, dim)))
    feats *= rng.uniform(0.5, 2.0, size=(b, 1))
    return feats, unit, labels


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), st.integers(1, 5), st.integers(2, 16),
       st.integers(1, 6), st.integers(0, 2**32 - 1), _TAU, _LOGIT_SCALE, st.booleans())
def test_scene_kernel_bits_do_not_depend_on_block_size(b, c, l, dim, block_rows,
                                                       seed, tau, gamma, detach):
    # Blocks of block_rows rows (B may be smaller than one block, or not a
    # multiple of it) against one block holding the whole batch.
    args = (*kernel_inputs(b, c, l, dim, seed), tau, gamma, detach)
    row_bytes = 8 * c * l
    results = []
    for budget in (b * row_bytes, block_rows * row_bytes + row_bytes // 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(backend, "SCENE_BLOCK_BYTES", budget)
            loss, grad = backend.scene_loss_grad_kernel(*args)
        results.append((np.float64(loss).tobytes(), grad.tobytes()))
    assert results[0] == results[1]


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 8), st.integers(9, 70), st.integers(1, 6), st.integers(1, 5),
       st.integers(2, 16), st.integers(1, 6), st.integers(0, 2**32 - 1), _TAU,
       _LOGIT_SCALE, st.booleans())
def test_scene_kernel_bits_across_panels_do_not_depend_on_block_size(
        panel_rows, b, c, l, dim, block_rows, seed, tau, gamma, detach):
    # Panels of at most panel_rows rows on both sides, so every batch spans
    # several panels, of uneven sizes where their count does not divide B.
    # Blocks of block_rows rows are cut short at a panel's end, and a
    # panel of at most 8 x 30 elements is often smaller than a loss-sum
    # tree node (at least a 128-element leaf), so nodes cross panels.
    args = (*kernel_inputs(b, c, l, dim, seed), tau, gamma, detach)
    row_bytes = 8 * c * l
    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backend, "SCENE_PANEL_ROWS", panel_rows)
        for budget in (panel_rows * row_bytes, block_rows * row_bytes + row_bytes // 2):
            mp.setattr(backend, "SCENE_BLOCK_BYTES", budget)
            loss, grad = backend.scene_loss_grad_kernel(*args)
            results.append((np.float64(loss).tobytes(), grad.tobytes()))
    assert results[0] == results[1]
    # and each panel's rows land where one whole-batch panel puts them
    whole_loss, whole_grad = backend.scene_loss_grad_kernel(*args)
    assert loss == pytest.approx(whole_loss, rel=1e-12, abs=1e-300)
    np.testing.assert_allclose(grad, whole_grad, rtol=0,
                               atol=1e-12 * np.abs(whole_grad).max())


def softmax_inputs(b, c, dim, seed=7):
    # features near their class's prototype, at mixed norms
    rng = np.random.default_rng(seed)
    protos = rng.standard_normal((c, dim))
    unit = protos / np.linalg.norm(protos, axis=1, keepdims=True)
    labels = rng.integers(c, size=b)
    feats = unit[labels] + 0.8 / np.sqrt(dim) * rng.standard_normal((b, dim))
    feats *= rng.uniform(0.5, 2.0, size=(b, 1))
    return feats, unit, labels


def test_softmax_kernel_peak_at_the_large_weak_batch():
    # Beside its unit features and gradient, (B, dim) each, the kernel
    # holds at most three (B, C) float64 arrays at once (the cosines, the
    # logits, then the coefficients in their place, and the transposed
    # copy for the row maxima), plus per-row vectors.
    b, c, _, dim = _LARGE_SHAPE
    args = (*softmax_inputs(b, c, dim), 5.0)
    backend.softmax_ce_kernel(*args)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        backend.softmax_ce_kernel(*args)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * b * dim + 3 * 8 * b * c, peak


def _fresh_thread_call(*args):
    # a new thread starts with no scratch, so this call allocates its own
    result = []
    worker = threading.Thread(target=lambda: result.append(
        backend.scene_loss_grad_kernel(*(np.copy(a) for a in args[:3]), *args[3:])))
    worker.start()
    worker.join()
    return result[0]


class TestSceneScratch:
    def _cases(self):
        small = kernel_inputs(*_DEFAULT_SHAPE)
        other_bank = kernel_inputs(*_DEFAULT_SHAPE, seed=8)
        return [(*small, 0.25, 1.0, False),
                (*kernel_inputs(40, 6, 3, 12), 0.5, 3.0, True),
                (*other_bank, -0.5, 0.5, False),
                (small[0], other_bank[1], small[2], 0.9, 1.0, True),
                (*kernel_inputs(40, 16, 5, 28), 0.25, 1.0, False),  # same C*L as small
                # 1152-byte rows: one 227-row block of 256 KiB, then 173 rows
                (*kernel_inputs(400, 16, 9, 24), 0.25, 3.0, False)]

    def test_interleaved_calls_equal_fresh_calls(self):
        cases = self._cases()
        expected = [_fresh_thread_call(*case) for case in cases]
        previous = None
        for i in (0, 1, 5, 0, 4, 2, 5, 5, 3, 4, 1, 2, 0, 5, 3, 3):
            loss, grad = backend.scene_loss_grad_kernel(*cases[i])
            assert loss == expected[i][0]
            np.testing.assert_array_equal(grad, expected[i][1])
            if previous is not None:
                assert not np.shares_memory(grad, previous)
                previous[...] = np.nan  # a caller may write into its gradient
            previous = grad

    def test_threads_do_not_share_buffers(self):
        cases = self._cases()
        expected = [_fresh_thread_call(*case) for case in cases]
        failures = []

        def run(order):
            try:
                for i in order:
                    loss, grad = backend.scene_loss_grad_kernel(*cases[i])
                    if loss != expected[i][0] or not np.array_equal(grad, expected[i][1]):
                        failures.append(i)
            except Exception as exc:  # a thread's exception would not fail the test
                failures.append(exc)

        workers = [threading.Thread(target=run, args=([0, 1, 5, 2, 3, 4] * 8,)),
                   threading.Thread(target=run, args=([4, 5, 1, 0, 3, 2] * 8,))]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert failures == []

    def test_large_shape_holds_one_panel_buffer(self):
        # A full (B, C*L) float64 buffer would be 3.3 MB here; the batch is
        # four 240-row panels, and one (240, C*L) panel buffer is 0.83 MB,
        # the gradient and the unit features 0.5 MB each, a block buffer
        # 0.25 MB. Called with no buffers, the kernel allocates one panel
        # buffer, its block buffers and its gradient, and less than another
        # panel beside them; a warm call allocates its gradient and its
        # unit features, and less than an eighth of a full buffer beside them.
        b, c, l, dim = _LARGE_SHAPE
        full, grad = 8 * b * c * l, 8 * b * dim
        panel = 8 * 240 * c * l
        assert -(-b // backend.SCENE_PANEL_ROWS) == 4  # 4 balanced panels of 240 rows
        rows = backend.SCENE_BLOCK_BYTES // (8 * c * l)
        blocks = 4 * 8 * rows * c * l + rows * c * l  # 3 float, the node buffer, bool
        args = (*kernel_inputs(*_LARGE_SHAPE), 0.25)
        backend.release_scene_scratch()
        tracemalloc.start()
        try:
            backend.scene_loss_grad_kernel(*args)
            cold = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            backend.scene_loss_grad_kernel(*args)
            warm = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert cold - panel - blocks - grad < panel, (cold, panel)
        assert warm - 2 * grad < full / 8, (warm, full)

    def test_repeated_calls_leave_traced_memory_flat(self):
        # Two blocks, so the loss sum carries a node across them. With the
        # cycle collector off, a per-call reference cycle would keep each
        # call's objects alive and show as growth.
        args = (*kernel_inputs(400, 16, 9, 24), 0.25, 3.0, False)
        for _ in range(3):
            backend.scene_loss_grad_kernel(*args)
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(300):
                backend.scene_loss_grad_kernel(*args)
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert growth < 4096, growth

    def test_large_shape_reuses_its_pages(self):
        # One (B, C*L) float64 buffer is 810 pages; without reuse, each call
        # faults all its buffers in again once glibc has trimmed them.
        feats, unit, labels = kernel_inputs(*_LARGE_SHAPE)
        backend.scene_loss_grad_kernel(feats, unit, labels, 0.25)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            backend.scene_loss_grad_kernel(feats, unit, labels, 0.25)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / 5 < 810, faults


def test_evaluate_runs_its_products_on_one_blas_thread():
    # In a child process started with two OpenBLAS threads: the thread
    # count seen at each of evaluate's two products, and after evaluate
    # returns and after it raises inside its products.
    script = textwrap.dedent("""
        import ctypes
        import json
        from pathlib import Path
        import numpy as np
        from semproto.config import TrainConfig, WorldSpec
        from semproto.synthbench import build_run_bank, evaluate, generate_world, initial_probe
        libs = Path(np.__file__).parent.parent / "numpy.libs"
        paths = sorted(libs.glob("libscipy_openblas64_*.so"))
        if not paths:
            print("absent")
            raise SystemExit
        get_threads = ctypes.CDLL(str(paths[0])).scipy_openblas_get_num_threads64_
        get_threads.restype = ctypes.c_int
        seen = []

        class Recording(np.ndarray):
            # features @ W gives a Recording, so both products land here
            fail_at = None

            def __matmul__(self, other):
                seen.append(get_threads())
                if len(seen) == Recording.fail_at:
                    raise RuntimeError("in the products")
                return super().__matmul__(other)

        world = generate_world(WorldSpec())
        bank = build_run_bank(world, TrainConfig())
        probe = initial_probe(world)
        # the whole split as one block: two products
        features = np.concatenate([x for x, _ in world.test_blocks()])
        blocks = [(features.view(Recording), world.test_y)]
        out = {"before": get_threads()}
        evaluate([(probe, bank)], blocks, world.spec.n_base)
        out["products"], out["returned"] = list(seen), get_threads()
        seen.clear()
        Recording.fail_at = 2
        try:
            evaluate([(probe, bank)], blocks, world.spec.n_base)
        except RuntimeError:
            out["raised"] = get_threads()
        print(json.dumps(out))
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
    if out.stdout.strip() == "absent":
        pytest.skip("numpy does not bundle scipy-openblas")
    assert json.loads(out.stdout) == {"before": 2, "products": [1, 1],
                                      "returned": 2, "raised": 2}


def test_pin_blas_to_one_thread():
    # In a child process, since the pin holds for the rest of a process.
    script = textwrap.dedent("""
        import ctypes
        from pathlib import Path
        import numpy as np
        from semproto.backend import pin_blas_to_one_thread
        libs = Path(np.__file__).parent.parent / "numpy.libs"
        paths = sorted(libs.glob("libscipy_openblas64_*.so"))
        if not paths:
            print("absent")
        else:
            get_threads = ctypes.CDLL(str(paths[0])).scipy_openblas_get_num_threads64_
            get_threads.restype = ctypes.c_int
            pin_blas_to_one_thread()
            print(get_threads())
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
    if out.stdout.strip() == "absent":
        pytest.skip("numpy does not bundle scipy-openblas")
    assert out.stdout.strip() == "1"
