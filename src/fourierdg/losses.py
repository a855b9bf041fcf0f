"""Training objectives and the attention diagnostic.

All losses return their analytic input gradient alongside the scalar so
the training loop can chain them onto gradient tapes; every gradient is
validated against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .tensor_core import Array

COS_EPS = 1e-12
PROB_EPS = 1e-12


@dataclass
class LossBreakdown:
    """The three objective terms and their weighted sum."""

    l_asy: float
    l_adv: float
    l_cls: float
    total: float


def asymmetric_loss(z: Array, response) -> tuple[float, Array, bool]:
    """Asymmetric cosine clustering loss over a batch of frequency features.

    Each drug-sensitive row acts as an anchor: its term is minus the mean
    cosine to the other sensitive rows plus the mean cosine to the
    resistant rows; resistant rows are never coupled with each other.  The
    loss is the mean anchor term.  Anchors with an empty positive or
    negative set contribute 0 for the missing part; a batch with no usable
    pair returns 0 with the degenerate flag set.

    Returns (loss, dLoss/dZ, degenerate).
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(response)
    b = z.shape[0]
    if b < 1:
        raise ParameterError("asymmetric_loss needs at least one sample")
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y != 1)
    n_pos, n_neg = pos.size, neg.size
    if n_pos == 0 or (n_pos == 1 and n_neg == 0):
        return 0.0, np.zeros_like(z), True

    norms = np.maximum(np.linalg.norm(z, axis=1), COS_EPS)
    zh = z / norms[:, None]
    cos = zh @ zh.T

    weights = np.zeros((b, b))
    if n_pos > 1:
        w_pp = -1.0 / (n_pos * (n_pos - 1))
        weights[np.ix_(pos, pos)] = w_pp
        weights[pos, pos] = 0.0
    if n_neg > 0:
        weights[np.ix_(pos, neg)] = 1.0 / (n_pos * n_neg)

    loss = float(np.sum(weights * cos))
    # d cos(i,j)/d z_i = (zh_j - cos_ij * zh_i) / ||z_i||; symmetrize the
    # anchor/other roles through S = W + W^T.
    sym = weights + weights.T
    grad = (sym @ zh - (sym * cos).sum(axis=1)[:, None] * zh) / norms[:, None]
    return loss, grad, False


def domain_adversarial_loss(logits: Array, domain) -> tuple[float, Array]:
    """Mean softmax cross-entropy of domain predictions.

    Gradient is (softmax - onehot) / batch.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ParameterError("domain logits must be b x M with M >= 2")
    b, m = logits.shape
    dom = np.asarray(domain, dtype=np.int64)
    if dom.shape != (b,):
        raise ParameterError(f"domain labels must have length {b}")
    if dom.min() < 0 or dom.max() >= m:
        raise ParameterError(f"domain index out of range [0, {m})")
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    denom = exp.sum(axis=1, keepdims=True)
    log_softmax = shift - np.log(denom)
    loss = float(-log_softmax[np.arange(b), dom].mean())
    grad = exp / denom
    grad[np.arange(b), dom] -= 1.0
    return loss, grad / b


def classification_loss(p, response) -> tuple[float, Array]:
    """Mean binary cross-entropy on predicted sensitivity probabilities.

    Probabilities are clamped to [1e-12, 1 - 1e-12] before the logs; the
    gradient is taken at the clamped values.
    """
    p = np.clip(np.asarray(p, dtype=np.float64).ravel(), PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(response, dtype=np.float64).ravel()
    if p.shape != y.shape:
        raise ParameterError("probability and label vectors must match in length")
    b = p.size
    loss = float(-(y * np.log(p) + (1.0 - y) * np.log1p(-p)).mean())
    grad = (p - y) / (p * (1.0 - p)) / b
    return loss, grad


def total_loss(
    l_asy: float, l_adv: float, l_cls: float, lambda1: float, lambda2: float
) -> LossBreakdown:
    """Combine the terms: total = l_adv + lambda1 * l_asy + lambda2 * l_cls."""
    for name, w in (("lambda1", lambda1), ("lambda2", lambda2)):
        if not np.isfinite(w) or w < 0:
            raise ParameterError(f"{name} must be finite and >= 0, got {w}")
    total = l_adv + lambda1 * l_asy + lambda2 * l_cls
    return LossBreakdown(l_asy=l_asy, l_adv=l_adv, l_cls=l_cls, total=total)


def attention_diagnostic(z: Array) -> Array:
    """Scaled dot-product similarity z_i . z_j / sqrt(d), inspection only."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise ParameterError("attention_diagnostic needs a non-empty b x d matrix")
    return (z @ z.T) / np.sqrt(z.shape[1])
