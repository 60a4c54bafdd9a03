"""Dimension-checked vector arithmetic and scalar primitives.

Everything here is pure, double precision, and safe to call from any
thread. These are the atoms the prototype and loss modules build on.
"""

import numpy as np

from .errors import DimensionMismatch, InvalidEmbedding, ZeroNorm

# Below this, a vector is treated as degenerate rather than normalized.
ZERO_NORM_EPS = 1e-12


def as_embedding(values, dim: int | None = None) -> np.ndarray:
    """Validate and return a 1-D float64 embedding vector.

    Raises InvalidEmbedding on non-numeric entries, NaN/inf or wrong
    rank, DimensionMismatch if `dim` is given and does not match.
    """
    try:
        v = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # Overflow: an int beyond float range
        raise InvalidEmbedding(f"embedding is not numeric: {exc}") from exc
    if v.ndim != 1 or v.size < 1:
        raise InvalidEmbedding(f"expected a nonempty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidEmbedding("embedding contains NaN or infinity")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected dim {dim}, got {v.shape[0]}")
    return v


def cosine(a, b) -> float:
    """Cosine similarity dot(a,b) / (|a| |b|), in [-1, 1].

    Symmetric and invariant to positive scaling of either argument.
    """
    a = as_embedding(a)
    b = as_embedding(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"dims differ: {a.shape[0]} vs {b.shape[0]}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < ZERO_NORM_EPS or nb < ZERO_NORM_EPS:
        raise ZeroNorm(f"norms {na:g}, {nb:g} below {ZERO_NORM_EPS:g}")
    return float(np.dot(a, b) / (na * nb))


def l2_normalize(a) -> np.ndarray:
    """Return a / |a|. Direction-preserving, idempotent to 1e-12."""
    a = as_embedding(a)
    n = float(np.linalg.norm(a))
    if n < ZERO_NORM_EPS:
        raise ZeroNorm(f"norm {n:g} below {ZERO_NORM_EPS:g}")
    return a / n


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x / |x| along the last axis, those norms with the axis kept);
    a norm below ZERO_NORM_EPS raises ZeroNorm. The norms are the ufuncs
    np.linalg.norm(x, axis=-1, keepdims=True) runs: same bits, without
    its Python wrapper."""
    norms = np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))
    if norms.size and np.minimum.reduce(norms, axis=None) < ZERO_NORM_EPS:
        raise ZeroNorm(f"a vector has a norm below {ZERO_NORM_EPS:g}")
    return x / norms, norms


def sigmoid(x):
    """Numerically stable logistic 1 / (1 + exp(-x)).

    Accepts scalars or arrays; never overflows (saturates gracefully).
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.exp(-np.abs(x))
    out = np.where(x >= 0.0, 1.0 / (1.0 + t), t / (1.0 + t))
    if out.ndim == 0:
        return float(out)
    return out


def log_sigmoid(x):
    """log(sigmoid(x)) computed without exponentiate-then-log.

    Uses min(x, 0) - log1p(exp(-|x|)), exact in both tails.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
    if out.ndim == 0:
        return float(out)
    return out


def validate_similarity_tensor(s) -> np.ndarray:
    """Check a batch x classes x slots cosine tensor: 3-D, finite, in [-1, 1]."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 3:
        raise DimensionMismatch(f"similarity tensor must be 3-D, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise InvalidEmbedding("similarity tensor contains NaN or infinity")
    if s.size and (s.min() < -1.0 or s.max() > 1.0):
        raise InvalidEmbedding("similarity tensor has entries outside [-1, 1]")
    return s
