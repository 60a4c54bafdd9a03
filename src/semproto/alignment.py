"""Loss kernels for weakly supervised prototype alignment.

Covers the scene-slot pipeline (similarity tensor, thresholded
pseudo-labels, confidence-weighted multi-label BCE), the temperature-
scaled cosine cross-entropy used for both detection-box and weak
classification, the combined objective, and hand-derived analytic
gradients for every loss. Gradients are always taken w.r.t. the input
feature vectors; because scores are cosines, every gradient is
orthogonal to its feature.

Every loss takes its batch as arrays: (B, dim) features and (B,)
integer class labels. The backend kernels check both, once per call;
this module checks only the hyperparameters.
"""

from dataclasses import dataclass

import numpy as np

from . import backend
from .core import log_sigmoid, sigmoid, validate_similarity_tensor
from .errors import ConfigError, DimensionMismatch
from .prototypes import PrototypeBank


@dataclass(frozen=True)
class PseudoLabelGrid:
    """Thresholded assignments y, confidence weights w, similarities s.

    All three share shape (B, C, L). y[b,c,l] is 1 only when c is the
    image-level label of item b and s[b,c,l] clears the threshold;
    w is the sigmoid of the (scaled) similarity everywhere.
    """

    y: np.ndarray
    w: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        if not (self.y.shape == self.w.shape == self.s.shape) or self.y.ndim != 3:
            raise DimensionMismatch(
                f"grid arrays must share a (B, C, L) shape, got "
                f"{self.y.shape}, {self.w.shape}, {self.s.shape}"
            )


@dataclass(frozen=True)
class LossReport:
    """One training step's loss decomposition; total is always the
    recomputed combination det + weak + lam * scene."""

    l_det_cls: float
    l_weak: float
    l_scene: float
    lam: float
    total: float


def total_loss(det_part: float, weak_part: float, scene_part: float,
               lam: float) -> LossReport:
    """Combine the three loss terms; lam weights the scene term."""
    if lam < 0:
        raise ConfigError(f"lambda must be >= 0, got {lam}")
    det_part = float(det_part)
    weak_part = float(weak_part)
    scene_part = float(scene_part)
    return LossReport(
        l_det_cls=det_part,
        l_weak=weak_part,
        l_scene=scene_part,
        lam=float(lam),
        total=det_part + weak_part + float(lam) * scene_part,
    )


def scene_similarities(features, bank: PrototypeBank) -> np.ndarray:
    """Cosine of every (B, dim) feature with every scene slot vector.

    Returns the (B, C, L) similarity tensor, clamped into [-1, 1].
    """
    return backend.scene_similarity_kernel(features, bank.unit_sapp)


def assign_pseudo_labels(s, labels, tau: float,
                         logit_scale: float = 1.0) -> PseudoLabelGrid:
    """Hard pseudo-labels and sigmoid confidence weights from a
    similarity tensor.

    y[b,c,l] = 1 iff c == labels[b] and s[b,c,l] >= tau (inclusive);
    w = sigmoid(logit_scale * s) everywhere.
    """
    if not -1.0 <= tau <= 1.0:
        raise ConfigError(f"tau must lie in [-1, 1], got {tau}")
    s = validate_similarity_tensor(s)
    n_batch, n_classes = s.shape[:2]
    labels = backend.class_labels(labels, n_batch, n_classes)
    hit = labels[:, None] == np.arange(n_classes)[None, :]
    y = (hit[:, :, None] & (s >= tau)).astype(np.uint8)
    w = sigmoid(logit_scale * s)
    return PseudoLabelGrid(y=y, w=w, s=s)


def scene_loss(grid: PseudoLabelGrid, logit_scale: float = 1.0) -> float:
    """Confidence-weighted multi-label binary cross-entropy.

    -(1/B) * sum_{b,c,l} w * [y log sig(z) + (1-y) log(1 - sig(z))]
    with z the (scaled) similarity. Nonnegative; zero only in the
    saturation limits. Log-sigmoids use the stable log1p form.
    """
    z = logit_scale * grid.s
    y = grid.y.astype(np.float64)
    bce = y * log_sigmoid(z) + (1.0 - y) * log_sigmoid(-z)
    return -float((grid.w * bce).sum()) / grid.s.shape[0]


def scene_loss_and_grad(features, labels, bank: PrototypeBank, tau: float,
                        logit_scale: float = 1.0,
                        detach_weights: bool = False):
    """Scene loss with its analytic gradient w.r.t. every (B, dim) feature,
    against the (B,) image-level labels.

    Pseudo-labels are recomputed as hard constants; the confidence
    weights are differentiated through unless detach_weights is set.
    Returns (loss, grad) with grad shaped like features; an empty batch
    yields loss 0 with a (0, dim) gradient.
    """
    if not -1.0 <= tau <= 1.0:
        raise ConfigError(f"tau must lie in [-1, 1], got {tau}")
    return backend.scene_loss_grad_kernel(
        features, bank.unit_sapp, labels, tau,
        logit_scale=logit_scale, detach_weights=detach_weights,
    )


def weak_cls_loss(features, labels, bank: PrototypeBank, temperature: float):
    """Mean softmax cross-entropy of cosine/temperature logits against
    the image-level labels, with analytic feature gradients. The same
    kernel as det_cls_loss, kept a function of its own so that
    perfbench/spans.py times the weak term apart from the det term."""
    return det_cls_loss(features, labels, bank, temperature)


def det_cls_loss(features, labels, bank: PrototypeBank, temperature: float):
    """Same kernel as weak_cls_loss, at the detection-box call site.

    An empty feature list yields loss 0 with a (0, dim) gradient.
    """
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    return backend.softmax_ce_kernel(features, bank.unit_sesp, labels,
                                     1.0 / temperature)
