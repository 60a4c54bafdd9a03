"""Hot numeric kernels, vectorized in numpy.

The three inner loops that dominate training and ablation runtime: the
scene similarity tensor, the fused scene loss + gradient, and the fused
softmax cross-entropy + gradient. Prototype arrays come in with unit-norm
rows (PrototypeBank.unit_sesp / unit_sapp prepare them once per bank);
feature batches are normalized here, per call, because they change every
step. Results are bitwise reproducible run to run.
"""

import ctypes
from pathlib import Path

import numpy as np

from .core import ZERO_NORM_EPS
from .errors import DimensionMismatch, ZeroNorm


def active_backend() -> str:
    """The kernel implementation, as echoed into every run record."""
    return "numpy"


def pin_blas_to_one_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread in this process.

    Pool workers call this so that N workers on N cores do not each
    start N BLAS threads. Does nothing when numpy links another BLAS.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in libs.glob("libscipy_openblas64_*.so"):
        set_threads = getattr(ctypes.CDLL(str(path)),
                              "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            set_threads(1)


def _unit_features(features) -> tuple[np.ndarray, np.ndarray]:
    """(features / |features| row-wise, the row norms), validated."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DimensionMismatch(f"features must be (B, dim), got {features.shape}")
    norms = np.linalg.norm(features, axis=1)
    if features.shape[0] and norms.min() < ZERO_NORM_EPS:
        raise ZeroNorm("a feature vector has near-zero norm")
    return features / norms[:, None], norms


def _check_protos(unit_protos: np.ndarray, dim: int, rank: int) -> None:
    if unit_protos.ndim != rank or unit_protos.shape[-1] != dim:
        raise DimensionMismatch(
            f"prototype array must be rank {rank} with last dim {dim}, "
            f"got {unit_protos.shape}"
        )


def scene_similarity_kernel(features, unit_sapp) -> np.ndarray:
    """Cosine of every feature with every (class, slot) prototype.

    Returns a (B, C, L) tensor clamped to [-1, 1].
    """
    fhat, _ = _unit_features(features)
    _check_protos(unit_sapp, fhat.shape[1], rank=3)
    n_classes, n_slots, dim = unit_sapp.shape
    s = fhat @ unit_sapp.reshape(n_classes * n_slots, dim).T
    np.clip(s, -1.0, 1.0, out=s)
    return s.reshape(fhat.shape[0], n_classes, n_slots)


def scene_loss_grad_kernel(features, unit_sapp, labels, tau: float,
                           logit_scale: float = 1.0,
                           detach_weights: bool = False):
    """Confidence-weighted multi-label BCE over scene slots, fused with
    its analytic gradient w.r.t. each feature vector.

    Pseudo-labels are recomputed inside (hard assignment, constant under
    differentiation); the sigmoid confidence weights receive gradient
    unless detach_weights is set. With z = logit_scale * s and
    t = exp(-|z|), one exp and one log1p per element give
        sigmoid(z)       = 1 / (1 + t)  if z >= 0 else t / (1 + t)
        log_sigmoid(+-z) = min(+-z, 0) - log1p(t).
    Five (B, C*L) float64 buffers are allocated and reused in place.
    """
    fhat, fnorm = _unit_features(features)
    _check_protos(unit_sapp, fhat.shape[1], rank=3)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    n_batch = fhat.shape[0]
    if n_batch == 0:
        return 0.0, np.zeros_like(fhat)
    n_classes, n_slots, dim = unit_sapp.shape
    gamma = float(logit_scale)
    vhat = unit_sapp.reshape(n_classes * n_slots, dim)

    s = fhat @ vhat.T  # (B, C*L)
    rows = np.arange(n_batch)
    y = np.zeros((n_batch, n_classes, n_slots), dtype=bool)
    y[rows, labels] = s.reshape(y.shape)[rows, labels] >= float(tau)
    y = y.reshape(s.shape)

    z = np.multiply(s, gamma)
    sig = np.abs(z)
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)  # t
    lp = np.log1p(sig)
    g = np.add(sig, 1.0)
    np.divide(sig, g, out=sig)
    np.divide(1.0, g, out=sig, where=z >= 0.0)  # sigmoid(z)

    # g = y * log_sigmoid(z) + (1 - y) * log_sigmoid(-z)
    np.negative(z, out=g)
    np.minimum(g, 0.0, out=g)
    np.minimum(z, 0.0, out=g, where=y)
    g -= lp

    work = lp
    np.multiply(sig, g, out=work)
    loss = -float(work.sum()) / n_batch

    # dlds = -(gamma / B) * [sig * (y - sig) + (sig * (1 - sig) * g unless detached)]
    dlds = z
    np.subtract(y, sig, out=dlds)
    dlds *= sig
    if not detach_weights:
        np.subtract(1.0, sig, out=work)
        work *= sig
        work *= g
        dlds += work
    dlds *= -(gamma / n_batch)

    grad = dlds @ vhat
    np.multiply(dlds, s, out=work)
    grad -= work.sum(axis=1)[:, None] * fhat
    grad /= fnorm[:, None]
    return loss, grad


def softmax_ce_kernel(features, unit_protos, labels, inv_temp: float):
    """Mean softmax cross-entropy over cosine/temperature logits, fused
    with its analytic gradient w.r.t. each feature vector.

    An empty batch contributes loss 0 with empty gradients.
    """
    fhat, fnorm = _unit_features(features)
    _check_protos(unit_protos, fhat.shape[1], rank=2)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    n_batch = fhat.shape[0]
    if n_batch == 0:
        return 0.0, np.zeros_like(fhat)
    inv_temp = float(inv_temp)

    cosm = fhat @ unit_protos.T
    logits = cosm * inv_temp
    m = logits.max(axis=1)
    expd = np.exp(logits - m[:, None])
    sumexp = expd.sum(axis=1)
    lse = m + np.log(sumexp)
    rows = np.arange(n_batch)
    loss = float((lse - logits[rows, labels]).mean())

    coef = expd / sumexp[:, None]
    coef[rows, labels] -= 1.0
    coef *= inv_temp / n_batch
    grad = coef @ unit_protos
    grad -= (coef * cosm).sum(axis=1)[:, None] * fhat
    grad /= fnorm[:, None]
    return loss, grad
