import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semproto import backend
from semproto.alignment import (
    WeakBatch,
    assign_pseudo_labels,
    scene_loss,
    scene_loss_and_grad,
    scene_similarities,
    weak_cls_loss,
)
from semproto.errors import ZeroNorm
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

    def test_zero_norm_rejected(self):
        # features are checked by the kernel, prototypes once per bank
        with pytest.raises(ZeroNorm):
            backend.scene_similarity_kernel(np.zeros((1, 4)), np.ones((1, 1, 4)))
        bank = PrototypeBank(vocab=("a",), sesp=np.ones((1, 4)),
                             sapp=np.zeros((1, 1, 4)),
                             strategy=Aggregation.MEAN, k=1, l=1)
        with pytest.raises(ZeroNorm):
            scene_similarities(WeakBatch(np.ones((1, 4)), np.array([0])), bank)


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
    batch = WeakBatch(rng.standard_normal((b, dim)), rng.integers(c, size=b))
    scales = rng.uniform(1e-3, 1e3, size=(b, 1))
    return bank, batch, scales


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
        bank, batch, _ = inst
        _, grad = scene_loss_and_grad(batch, bank, tau, logit_scale=gamma,
                                      detach_weights=detach)
        _assert_orthogonal_rows(grad, batch.features)

    @_SETTINGS
    @given(_instances(), _TEMPERATURE)
    def test_ce_gradient_rows_orthogonal_to_features(self, inst, temperature):
        bank, batch, _ = inst
        _, grad = weak_cls_loss(batch, bank, temperature)
        _assert_orthogonal_rows(grad, batch.features)

    @_SETTINGS
    @given(_instances(), _TAU, _LOGIT_SCALE, st.booleans(), _TEMPERATURE)
    def test_losses_invariant_to_row_scaling(self, inst, tau, gamma, detach,
                                             temperature):
        bank, batch, scales = inst
        scaled = WeakBatch(scales * batch.features, batch.labels)
        for fn in (
            lambda b: scene_loss_and_grad(b, bank, tau, logit_scale=gamma,
                                          detach_weights=detach)[0],
            lambda b: weak_cls_loss(b, bank, temperature)[0],
        ):
            assert fn(scaled) == pytest.approx(fn(batch), rel=1e-12, abs=1e-300)

    @_SETTINGS
    @given(_instances(), _TAU, _LOGIT_SCALE, st.booleans())
    def test_fused_scene_loss_equals_grid_path(self, inst, tau, gamma, detach):
        bank, batch, _ = inst
        fused, _ = scene_loss_and_grad(batch, bank, tau, logit_scale=gamma,
                                       detach_weights=detach)
        grid = assign_pseudo_labels(scene_similarities(batch, bank),
                                    batch.labels, tau, logit_scale=gamma)
        assert fused == pytest.approx(scene_loss(grid, logit_scale=gamma),
                                      rel=1e-12, abs=1e-300)


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
