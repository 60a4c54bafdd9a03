"""Hot numeric kernels, vectorized in numpy.

The three inner loops that dominate training and ablation runtime: the
scene similarity tensor, the fused scene loss + gradient, and the fused
softmax cross-entropy + gradient. Prototype arrays come in with unit-norm
rows (PrototypeBank.unit_sesp / unit_sapp prepare them once per bank);
feature batches are normalized here, per call, because they change every
step. The kernels hold every check of their array inputs, each done
once (_unit_features, class_labels); alignment checks only its
hyperparameters. The fused scene kernel runs its batch in balanced row
panels of at most SCENE_PANEL_ROWS rows and keeps one panel buffer: it
holds the cosines of the panel's first matrix product, and each row
block writes its dL/dS back over its own rows, which feed the panel's
second product, written straight into the gradient. A batch that fits
one panel gets the whole products' bits; a larger one may round
differently from whole products at shapes where that was not measured.
The elementwise work between the products runs in row blocks of at most
SCENE_BLOCK_BYTES per buffer, which stay in L2: three float64 block
buffers and one bool one beside the panel buffer. The loss is the sum of
per-row sums, each row summed on its own, so no panel or block size
changes a bit. Each thread keeps and reuses those buffers across calls
of the same shape, so a training loop does not fault fresh pages in
every step, and the kernel selects the sigmoid's branch with exact
arithmetic instead of a masked (where=) ufunc. The softmax kernel works
in place on its logits. The kernels call ufuncs and reductions directly
rather than numpy's Python-level wrappers (np.linalg.norm, np.clip,
ndarray.sum/max/mean), with the same bits.
Results are bitwise reproducible run to run. At large shapes the
matmuls round differently when OpenBLAS splits them over another number
of threads, so one_blas_thread runs a block on one thread and restores
the caller's count after it: train and evaluate run their products
there, so probes, records and scores do not depend on the thread count.
"""
import contextlib
import ctypes
import functools
import threading
from pathlib import Path

import numpy as np

from .core import unit_rows
from .errors import DimensionMismatch

_scratch = threading.local()

# Byte budget of one (rows, C*L) float64 block buffer in the scene kernel:
# its block buffers and the block's rows of its panel buffer stay in L2.
SCENE_BLOCK_BYTES = 256 * 1024
# Most rows of one of the scene kernel's balanced row panels: a batch of at
# most this many rows is one panel, so it gets the whole products' bits.
SCENE_PANEL_ROWS = 256


def active_backend() -> str:
    """The kernel implementation, as echoed into every run record."""
    return "numpy"


@functools.cache
def _bundled_openblas():
    """(set_num_threads, get_num_threads) of numpy's bundled OpenBLAS,
    looked up once per process; None when numpy links another BLAS."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(str(path))
        set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if set_threads is not None and get_threads is not None:
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            return set_threads, get_threads
    return None


def pin_blas_to_one_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread in this process.

    Pool workers call this so that N workers on N cores do not each
    start N BLAS threads. Does nothing when numpy links another BLAS.
    """
    blas = _bundled_openblas()
    if blas is not None:
        blas[0](1)


@contextlib.contextmanager
def one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread inside the block, and
    on the caller's thread count again once it exits or raises.

    The thread count is the process's, so the package starts no thread
    that runs BLAS beside the block. Does nothing when numpy links
    another BLAS.
    """
    blas = _bundled_openblas()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    n_threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(n_threads)


def _unit_features(features, protos: np.ndarray,
                   rank: int) -> tuple[np.ndarray, np.ndarray]:
    """(features / |features| row-wise, the (B, 1) row norms) for a
    (B, dim) batch against a rank-`rank` prototype array of that dim.

    Any empty array is the empty batch and comes back as (0, dim); a
    wrong rank or width raises DimensionMismatch, a zero row ZeroNorm.
    """
    features = np.asarray(features, dtype=np.float64)
    dim = protos.shape[-1] if protos.ndim == rank else -1
    if features.size == 0 and dim >= 0:
        features = features.reshape(0, dim)
    if features.ndim != 2 or features.shape[1] != dim:
        raise DimensionMismatch(f"features {features.shape} do not match "
                                f"rank-{rank} prototypes {protos.shape}")
    return unit_rows(features)


def class_labels(labels, n_batch: int, n_classes: int) -> np.ndarray:
    """labels as contiguous int64, one integer class id in [0, n_classes)
    per batch item; anything else raises DimensionMismatch. Labels of a
    non-integer dtype (floats, bools, strings) raise rather than being
    truncated; an empty array of any dtype is no labels."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu" and labels.size:
        raise DimensionMismatch(f"labels must be integer class ids, got dtype {labels.dtype}")
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    if labels.shape != (n_batch,):
        raise DimensionMismatch(f"labels shape {labels.shape} != batch size {n_batch}")
    # the reductions ndarray.min/max run, without their Python wrappers
    if n_batch and (np.minimum.reduce(labels) < 0
                    or np.maximum.reduce(labels) >= n_classes):
        raise DimensionMismatch(f"labels must lie in [0, {n_classes}), got "
                                f"[{labels.min()}, {labels.max()}]")
    return labels


def _clamp_cosines(s: np.ndarray) -> None:
    """Clip s to [-1, 1] in place: np.clip's result, without its wrapper."""
    np.maximum(s, -1.0, out=s)
    np.minimum(s, 1.0, out=s)


def scene_similarity_kernel(features, unit_sapp) -> np.ndarray:
    """Cosine of every feature with every (class, slot) prototype.

    Returns a (B, C, L) tensor clamped to [-1, 1].
    """
    fhat, _ = _unit_features(features, unit_sapp, rank=3)
    n_classes, n_slots, dim = unit_sapp.shape
    s = fhat @ unit_sapp.reshape(n_classes * n_slots, dim).T
    _clamp_cosines(s)
    return s.reshape(fhat.shape[0], n_classes, n_slots)


def _scene_scratch(panel_rows: int, n_cols: int,
                   n_rows: int) -> tuple[np.ndarray, ...]:
    """This thread's scene-kernel buffers: one (panel_rows, C*L) float64
    panel buffer, three (n_rows, C*L) float64 block buffers and one
    (n_rows, C*L) bool buffer.

    Kept across calls of the same shape, so the pages stay mapped;
    replaced (the old ones released first) when the shape changes.
    """
    bufs = getattr(_scratch, "scene", None)
    if (bufs is None or bufs[0].shape != (panel_rows, n_cols)
            or bufs[1].shape[0] != n_rows):
        _scratch.scene = None
        bufs = tuple(np.empty((n, n_cols)) for n in (panel_rows, n_rows, n_rows, n_rows))
        bufs += (np.empty((n_rows, n_cols), dtype=bool),)
        _scratch.scene = bufs
    return bufs


def release_scene_scratch() -> None:
    """Drop this thread's scene-kernel buffers; the next call allocates anew."""
    _scratch.scene = None


def scene_loss_grad_kernel(features, unit_sapp, labels, tau: float,
                           logit_scale: float = 1.0,
                           detach_weights: bool = False):
    """Confidence-weighted multi-label BCE over scene slots, fused with
    its analytic gradient w.r.t. each feature vector.

    Pseudo-labels are recomputed inside (hard assignment on cosines
    clamped to [-1, 1], as in scene_similarity_kernel; constant under
    differentiation); the sigmoid confidence weights receive gradient
    unless detach_weights is set. With z = logit_scale * s and
    t = exp(-|z|), one exp and one log1p per element give
        sigmoid(z)       = (t * [z < 0] + [z >= 0]) / (1 + t)
        log_sigmoid(+-z) = min(+-z, 0) - log1p(t).
    Multiplying t by 0 or 1 and adding 0 are exact, so the sigmoid is
    selected without a masked ufunc; so are the sign flips that give
    -|z| and -z straight from s. Pseudo-positives can only sit in a
    row's own class block, so every slot first gets the negative terms
    and only the gathered block entries with s >= tau are overwritten.

    The products run in ceil(B / SCENE_PANEL_ROWS) balanced row panels
    of <= 256 rows (sizes differ by at most one row, so no 1-row tail
    reaches BLAS). Per panel, one (rows, C*L) buffer first holds the
    cosines S_p = fhat[p] @ vhat.T; each block of rows, once done with
    its cosines, writes its dL/dS over them, so the buffer ends as
    dL/dS_p and feeds grad[p] = dL/dS_p @ vhat, written into the returned
    gradient. A batch that fits one panel gets the whole products' bits.
    Row-split GEMMs round like whole ones only at shapes where that was
    measured: the train-large batch's four 240-row panels do at one BLAS
    thread, but a larger batch at another shape may round differently
    from one whole product. Everything between the products runs over
    blocks of rows whose (rows, C*L) float64 buffers fit
    SCENE_BLOCK_BYTES, so they stay in L2; a block is cut short at its
    panel's end, and the default world's weak batch is one panel of one
    block. The buffers are one panel buffer, three float block buffers
    and one bool block buffer. Each block sums its rows' loss products
    row by row into a (B,) vector, as it does their dL/dS * S for the
    gradient, and the loss is the sum of that vector; each row is summed
    on its own, so no panel or block size changes a bit. All buffers are
    per thread and reused across calls of the same shape; the returned
    gradient is a new array.
    """
    fhat, fnorm = _unit_features(features, unit_sapp, rank=3)
    n_batch = fhat.shape[0]
    n_classes, n_slots, dim = unit_sapp.shape
    labels = class_labels(labels, n_batch, n_classes)
    if n_batch == 0:
        return 0.0, np.zeros_like(fhat)
    n_cols = n_classes * n_slots
    gamma = float(logit_scale)
    tau = float(tau)
    vhat = unit_sapp.reshape(n_cols, dim)
    n_panels = -(-n_batch // SCENE_PANEL_ROWS)
    panel_rows = -(-n_batch // n_panels)
    n_rows = min(panel_rows, max(1, SCENE_BLOCK_BYTES // (8 * n_cols)))
    s_panel, t_buf, lp_buf, g_buf, neg_buf = _scene_scratch(
        panel_rows, n_cols, n_rows)
    # per block row, the flat offsets of slots 0..L-1; adding label * L
    # gives the row's true-class slots
    class_slots = np.arange(n_rows)[:, None] * n_cols + np.arange(n_slots)
    lsum = np.empty(n_batch)  # per row: sum over slots of the loss products
    dsum = np.empty(n_batch)  # per row: sum over slots of dlds * s
    grad = np.empty_like(fhat)

    # balanced panels: their sizes differ by at most one row
    bounds = [p * n_batch // n_panels for p in range(n_panels + 1)]
    for p0, p1 in zip(bounds, bounds[1:]):
        s_p = s_panel[:p1 - p0]
        np.matmul(fhat[p0:p1], vhat.T, out=s_p)
        for r0 in range(p0, p1, n_rows):
            r1 = min(r0 + n_rows, p1)
            n = r1 - r0
            s = s_p[r0 - p0:r1 - p0]
            t, lp, g, neg = t_buf[:n], lp_buf[:n], g_buf[:n], neg_buf[:n]

            _clamp_cosines(s)
            # flat indices of the pseudo-positives: true-class slots with s >= tau
            block = class_slots[:n] + (labels[r0:r1] * n_slots)[:, None]
            pos = block[s.ravel()[block] >= tau]

            np.abs(s, out=t)
            t *= -abs(gamma)  # -|z|
            np.exp(t, out=t)
            np.log1p(t, out=lp)

            # g = log_sigmoid(-z) everywhere, then log_sigmoid(z) at the positives
            np.multiply(s, -gamma, out=g)  # -z
            np.greater(g, 0.0, out=neg)  # z < 0
            np.minimum(g, 0.0, out=g)
            g -= lp
            g.ravel()[pos] = np.minimum(s.ravel()[pos] * gamma, 0.0) - lp.ravel()[pos]

            sig = lp
            np.multiply(t, neg, out=sig)
            t += 1.0
            np.logical_not(neg, out=neg)
            sig += neg
            sig /= t  # sigmoid(z)

            np.multiply(sig, g, out=t)  # the loss products
            np.add.reduce(t, axis=1, out=lsum[r0:r1])

            # dlds = -(gamma / B) * [sig * (y - sig)
            #                        + (sig * (1 - sig) * g unless detached)],
            # built in g once the weight term has read it
            if not detach_weights:
                np.subtract(1.0, sig, out=t)
                t *= sig
                t *= g
            dlds = g
            np.subtract(0.0, sig, out=dlds)
            dlds.ravel()[pos] = 1.0 - sig.ravel()[pos]
            dlds *= sig
            if not detach_weights:
                dlds += t
            dlds *= -(gamma / n_batch)
            np.multiply(dlds, s, out=t)
            np.add.reduce(t, axis=1, out=dsum[r0:r1])
            np.copyto(s, dlds)  # the cosines are used up
        np.matmul(s_p, vhat, out=grad[p0:p1])

    loss = -float(np.add.reduce(lsum)) / n_batch
    fhat *= dsum[:, None]
    grad -= fhat
    grad /= fnorm
    return loss, grad


def softmax_ce_kernel(features, unit_protos, labels, inv_temp: float):
    """Mean softmax cross-entropy over cosine/temperature logits, fused
    with its analytic gradient w.r.t. each feature vector.

    An empty batch contributes loss 0 with a (0, dim) gradient. Works in
    place, with the bits of the out-of-place expressions: the logits'
    array holds exp(logits - m), then the coefficients, and the cosines'
    array their products with the coefficients.
    """
    fhat, fnorm = _unit_features(features, unit_protos, rank=2)
    n_batch = fhat.shape[0]
    labels = class_labels(labels, n_batch, unit_protos.shape[0])
    if n_batch == 0:
        return 0.0, np.zeros_like(fhat)
    inv_temp = float(inv_temp)

    cosm = fhat @ unit_protos.T
    logits = cosm * inv_temp
    # Row maxima as elementwise maxima over the C rows of a (C, B) copy,
    # which beats B short reductions along rows. Order cannot change a
    # maximum beyond the sign of a zero, and that sign cancels in both
    # logits - m and m + log(sumexp), where log(sumexp) >= 0.
    m = np.maximum.reduce(np.ascontiguousarray(logits.T), axis=0)
    # each row's true-class entry, as one index into the flat (B, C) array
    true_class = np.arange(n_batch) * logits.shape[1] + labels
    picked = logits.ravel()[true_class]
    expd = logits  # expd, then coef, reuse the logits' array
    expd -= m[:, None]
    np.exp(expd, out=expd)
    sumexp = np.add.reduce(expd, axis=1)
    lse = np.log(sumexp)
    lse += m
    lse -= picked
    loss = float(np.add.reduce(lse)) / n_batch  # the mean

    coef = expd
    coef /= sumexp[:, None]
    coef.ravel()[true_class] -= 1.0
    coef *= inv_temp / n_batch
    grad = coef @ unit_protos
    cosm *= coef
    fhat *= np.add.reduce(cosm, axis=1)[:, None]
    grad -= fhat
    grad /= fnorm
    return loss, grad
