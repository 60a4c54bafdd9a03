"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (pure-python loops, math module
scalars) and stays independent of the library's vectorized and compiled
paths it checks. The one vectorized reference, scene_loss_longdouble,
is independent by its precision instead: it works in np.longdouble.
"""

import math


def cosine_loop(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


def normalize_loop(v):
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v]


def mean_agg_loop(generic, states, normalize=True):
    dim = len(generic)
    out = [0.0] * dim
    for d in range(dim):
        acc = generic[d]
        for s in states:
            acc += s[d]
        out[d] = acc / (len(states) + 1)
    return normalize_loop(out) if normalize else out


def median_agg_loop(generic, states, normalize=True):
    rows = [list(generic)] + [list(s) for s in states]
    dim = len(generic)
    out = [0.0] * dim
    for d in range(dim):
        col = sorted(r[d] for r in rows)
        n = len(col)
        if n % 2 == 1:
            out[d] = col[n // 2]
        else:
            out[d] = 0.5 * (col[n // 2 - 1] + col[n // 2])
    return normalize_loop(out) if normalize else out


def two_stage_agg_loop(generic, states, normalize=True):
    dim = len(generic)
    state_mean = [sum(s[d] for s in states) / len(states) for d in range(dim)]
    out = [(generic[d] + state_mean[d]) / 2.0 for d in range(dim)]
    return normalize_loop(out) if normalize else out


def similarity_weighted_agg_loop(generic, states, normalize=True, clamp=True):
    weights = [1.0] + [cosine_loop(s, generic) for s in states]
    if clamp:
        weights = [max(w, 0.0) for w in weights]
    total = sum(weights)
    weights = [w / total for w in weights]
    rows = [list(generic)] + [list(s) for s in states]
    dim = len(generic)
    out = [sum(weights[i] * rows[i][d] for i in range(len(rows))) for d in range(dim)]
    return normalize_loop(out) if normalize else out


def pseudo_label_loop(s, labels, tau):
    """Triple-loop Eq.-style assignment: y=1 iff c==label and s>=tau."""
    B = len(s)
    C = len(s[0])
    L = len(s[0][0])
    y = [[[0 for _ in range(L)] for _ in range(C)] for _ in range(B)]
    w = [[[0.0 for _ in range(L)] for _ in range(C)] for _ in range(B)]
    for b in range(B):
        for c in range(C):
            for l in range(L):
                if c == labels[b] and s[b][c][l] >= tau:
                    y[b][c][l] = 1
                w[b][c][l] = sigmoid_scalar(s[b][c][l])
    return y, w


def sigmoid_scalar(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    t = math.exp(x)
    return t / (1.0 + t)


def log_sigmoid_scalar(x):
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def scene_loss_loop(s, y, w, logit_scale=1.0):
    """Naive confidence-weighted multi-label BCE over the whole grid."""
    B = len(s)
    total = 0.0
    for b in range(B):
        for c in range(len(s[b])):
            for l in range(len(s[b][c])):
                z = logit_scale * s[b][c][l]
                bce = (y[b][c][l] * log_sigmoid_scalar(z)
                       + (1 - y[b][c][l]) * log_sigmoid_scalar(-z))
                total += w[b][c][l] * bce
    return -total / B


def scene_loss_longdouble(features, unit_sapp, labels, tau, logit_scale=1.0):
    """The scene loss of backend.scene_loss_grad_kernel, vectorized in
    np.longdouble from the float64 inputs: unit features, clamped
    cosines, sigmoid weights, the confidence-weighted BCE and its mean
    over the batch. Only the pseudo-labels are decided in float64, on
    float64 cosines against tau, as the kernel decides them, so that the
    two compare the same labels. Returns an np.longdouble scalar."""
    import numpy as np

    f = np.asarray(features, dtype=np.float64)
    v = np.asarray(unit_sapp, dtype=np.float64)
    n_classes, n_slots, dim = v.shape
    v = v.reshape(n_classes * n_slots, dim)
    labels = np.asarray(labels)

    s64 = (f / np.sqrt(np.sum(f * f, axis=1, keepdims=True))) @ v.T
    own = np.arange(n_classes * n_slots)[None, :] // n_slots == labels[:, None]
    y = own & (np.clip(s64, -1.0, 1.0) >= tau)

    f, v = f.astype(np.longdouble), v.astype(np.longdouble)
    s = np.clip((f / np.sqrt(np.sum(f * f, axis=1, keepdims=True))) @ v.T, -1, 1)
    z = np.longdouble(logit_scale) * s
    t = np.exp(-np.abs(z))
    sig = np.where(z >= 0, 1 / (1 + t), t / (1 + t))
    log_sig_pos = np.minimum(z, 0) - np.log1p(t)  # log sigmoid(z)
    log_sig_neg = np.minimum(-z, 0) - np.log1p(t)  # log sigmoid(-z)
    bce = np.where(y, log_sig_pos, log_sig_neg)
    return -np.sum(sig * bce) / len(f)


def central_diff_grad(fn, x, h=1e-5):
    """Central finite differences of a scalar function of a 2-D array."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for idx in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[idx] += h
        xm.flat[idx] -= h
        grad.flat[idx] = (fn(xp) - fn(xm)) / (2.0 * h)
    return grad
