"""Training objectives.

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


def _class_sums(z: Array, response):
    """Class sums of the unit rows zh_i = z_i / max(||z_i||, COS_EPS).

    Returns (z, inv, q, sensitive, sums): ``z`` as float64, ``inv`` the
    divisors' reciprocals, ``q`` each ||zh_i||^2 (1, less for a row shorter
    than COS_EPS), ``sensitive`` the rows whose response is 1, and ``sums``
    (2 x d) the sum of the sensitive unit rows, then of the resistant ones.
    The unit rows themselves are never formed.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape[0] < 1:
        raise ParameterError("need at least one sample")
    sensitive = np.asarray(response) == 1
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    inv = 1.0 / np.maximum(norms, COS_EPS)
    sums = (np.stack([sensitive, ~sensitive]) * inv) @ z
    return z, inv, (norms * inv) ** 2, sensitive, sums


def asymmetric_loss(z: Array, response) -> tuple[float, Array, bool]:
    """Asymmetric cosine clustering loss over a batch of frequency features.

    Each drug-sensitive row acts as an anchor: its term is minus the mean
    cosine to the other sensitive rows plus the mean cosine to the
    resistant rows; resistant rows are never coupled with each other.  The
    loss is the mean anchor term.  Anchors with an empty positive or
    negative set contribute 0 for the missing part; a batch with no usable
    pair returns 0 with the degenerate flag set.

    With s+ and s- the class sums of the unit rows zh_i, the loss is
    w_pp (s+.s+ - sum_sensitive ||zh_i||^2) + w_pn s+.s-, so no b x b
    cosine matrix is formed.

    Returns (loss, dLoss/dZ, degenerate).
    """
    z, inv, q, sensitive, sums = _class_sums(z, response)
    n_pos = int(np.count_nonzero(sensitive))
    n_neg = sensitive.size - n_pos
    if n_pos == 0 or (n_pos == 1 and n_neg == 0):
        return 0.0, np.zeros_like(z), True

    w_pp = -1.0 / (n_pos * (n_pos - 1)) if n_pos > 1 else 0.0
    w_pn = 1.0 / (n_pos * n_neg) if n_neg > 0 else 0.0
    s_pos, s_neg = sums
    loss = float(w_pp * (s_pos @ s_pos - q[sensitive].sum()) + w_pn * (s_pos @ s_neg))
    # d cos(i,j)/d z_i = (zh_j - cos_ij zh_i) * inv_i, so row i's gradient
    # is (g_i - (g_i.zh_i) zh_i) * inv_i with g_i = c_i @ sums - 2 w_pp zh_i
    # for a sensitive row (c_i = [2 w_pp, w_pn]) and c_i @ sums for a
    # resistant one (c_i = [w_pn, 0]); zh_i = inv_i z_i is folded in
    coupling = np.where(sensitive[:, None], [2.0 * w_pp, w_pn], [w_pn, 0.0])
    along = inv * np.einsum("ij,ij->i", coupling, z @ sums.T)
    along += 2.0 * w_pp * sensitive * (1.0 - q)
    grad = (coupling * inv[:, None]) @ sums
    grad -= (along * inv * inv)[:, None] * z
    return loss, grad, False


def class_cosines(z: Array, response) -> tuple[float, float, float]:
    """Mean cosine over sensitive pairs, over sensitive-resistant pairs and
    over resistant pairs of the rows of ``z``.

    A mean with no pair to average is NaN.  Where the first two are
    defined, :func:`asymmetric_loss` of the same rows is -first + second.
    """
    _, _, q, sensitive, sums = _class_sums(z, response)
    n_pos = int(np.count_nonzero(sensitive))
    n_neg = sensitive.size - n_pos
    dots = sums @ sums.T

    def mean(total, pairs):
        return float(total) / pairs if pairs else float("nan")

    return (
        mean(dots[0, 0] - q[sensitive].sum(), n_pos * (n_pos - 1)),
        mean(dots[0, 1], n_pos * n_neg),
        mean(dots[1, 1] - q[~sensitive].sum(), n_neg * (n_neg - 1)),
    )


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
