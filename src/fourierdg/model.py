"""Full network: encoder, frequency projection, response classifier, and
adversarial domain discriminator joined by a gradient reversal layer.

The encoder is two Linear -> BatchNorm -> ReLU -> Dropout blocks (default
widths 1024 and 740); its output is projected onto the fixed real-Fourier
basis, and both heads consume the projected features.  The reversal layer
is the identity in the forward pass and negates (and scales) the gradient
flowing from the domain discriminator back into the encoder.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import fourier
from .data import NormStats
from .errors import DimensionError, ParameterError
from .losses import asymmetric_loss, classification_loss, domain_adversarial_loss
from .tensor_core import (
    Array,
    GradTape,
    Param,
    RngState,
    RunningStats,
    affine,
    batchnorm,
    dropout,
    grad_check,
    relu,
    sigmoid,
)

CHECKPOINT_FORMAT_VERSION = 2


@dataclass
class GrlConfig:
    """Gradient reversal strength; forward is always the identity."""

    coefficient: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.coefficient) or self.coefficient < 0:
            raise ParameterError(
                f"GRL coefficient must be finite and >= 0, got {self.coefficient}"
            )


def grl_backward(upstream: Array, coefficient: float) -> Array:
    """Reversal rule: forward identity, backward -coefficient * upstream."""
    if not np.isfinite(coefficient) or coefficient < 0:
        raise ParameterError(
            f"GRL coefficient must be finite and >= 0, got {coefficient}"
        )
    return -coefficient * np.asarray(upstream, dtype=np.float64)


@dataclass
class ForwardTapes:
    """One tape per branch so head gradients can be merged at z."""

    encoder: GradTape = field(default_factory=GradTape)
    classifier: GradTape = field(default_factory=GradTape)
    discriminator: GradTape = field(default_factory=GradTape)


class ModelParams:
    """Weights, biases, and batch-norm state for the whole network."""

    # Parameter and batch-norm slots in constructor order.
    LAYOUT = (
        "w1", "b1", "bn1_gamma", "bn1_beta", "bn1_stats",
        "w2", "b2", "bn2_gamma", "bn2_beta", "bn2_stats",
        "clf_w", "clf_b", "disc_w1", "disc_b1", "disc_w2", "disc_b2",
    )

    def __init__(
        self,
        gene_list: Sequence[str],
        m_domains: int,
        w1: Param,
        b1: Param,
        bn1_gamma: Param,
        bn1_beta: Param,
        bn1_stats: RunningStats,
        w2: Param,
        b2: Param,
        bn2_gamma: Param,
        bn2_beta: Param,
        bn2_stats: RunningStats,
        clf_w: Param,
        clf_b: Param,
        disc_w1: Param,
        disc_b1: Param,
        disc_w2: Param,
        disc_b2: Param,
    ):
        self.gene_list = list(gene_list)
        self.m_domains = int(m_domains)
        self.w1, self.b1 = w1, b1
        self.bn1_gamma, self.bn1_beta, self.bn1_stats = bn1_gamma, bn1_beta, bn1_stats
        self.w2, self.b2 = w2, b2
        self.bn2_gamma, self.bn2_beta, self.bn2_stats = bn2_gamma, bn2_beta, bn2_stats
        self.clf_w, self.clf_b = clf_w, clf_b
        self.disc_w1, self.disc_b1 = disc_w1, disc_b1
        self.disc_w2, self.disc_b2 = disc_w2, disc_b2
        self.d = int(w2.value.shape[1])
        if self.d % 2 != 0:
            raise ParameterError(f"encoder output dimension must be even, got {self.d}")
        self.basis = fourier.build_basis(self.d)

    def encoder_trainables(self) -> list[Param]:
        return [
            self.w1, self.b1, self.bn1_gamma, self.bn1_beta,
            self.w2, self.b2, self.bn2_gamma, self.bn2_beta,
        ]

    def head_trainables(self) -> list[Param]:
        return [
            self.clf_w, self.clf_b,
            self.disc_w1, self.disc_b1, self.disc_w2, self.disc_b2,
        ]

    def trainables(self) -> list[Param]:
        return self.encoder_trainables() + self.head_trainables()

    def copy(self) -> "ModelParams":
        return ModelParams(
            self.gene_list,
            self.m_domains,
            *(getattr(self, name).copy() for name in self.LAYOUT),
        )


def _glorot(rng: RngState, fan_in: int, fan_out: int) -> Param:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Param(rng.uniform(-bound, bound, (fan_in, fan_out)))


def init_params(
    genes: Union[int, Sequence[str]],
    m_domains: int,
    rng: RngState,
    hidden: int = 1024,
    d: int = 740,
    disc_hidden: int = 256,
) -> ModelParams:
    """Glorot-uniform weights, zero biases, identity batch-norm state."""
    if isinstance(genes, int):
        gene_list = [f"g{i}" for i in range(genes)]
    else:
        gene_list = list(genes)
    g = len(gene_list)
    if g < 1:
        raise ParameterError("need at least one gene")
    if m_domains < 2:
        raise ParameterError(f"need at least 2 domains, got {m_domains}")
    return ModelParams(
        gene_list,
        m_domains,
        _glorot(rng, g, hidden), Param(np.zeros(hidden)),
        Param(np.ones(hidden)), Param(np.zeros(hidden)), RunningStats(hidden),
        _glorot(rng, hidden, d), Param(np.zeros(d)),
        Param(np.ones(d)), Param(np.zeros(d)), RunningStats(d),
        _glorot(rng, d, 1), Param(np.zeros(1)),
        _glorot(rng, d, disc_hidden), Param(np.zeros(disc_hidden)),
        _glorot(rng, disc_hidden, m_domains), Param(np.zeros(m_domains)),
    )


def encode(
    x: Array,
    params: ModelParams,
    mode: str,
    rng: Optional[RngState] = None,
    dropout_p: float = 0.1,
    tape: Optional[GradTape] = None,
) -> Array:
    """Two-block feature extractor; output width params.d."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != len(params.gene_list):
        raise DimensionError(
            f"expected {len(params.gene_list)} gene columns, got "
            f"{x.shape[1] if x.ndim == 2 else 'non-matrix input'}"
        )
    h = affine(x, params.w1, params.b1, tape)
    h = batchnorm(h, params.bn1_gamma, params.bn1_beta, params.bn1_stats, mode, tape)
    h = relu(h, tape)
    h = dropout(h, dropout_p, rng, mode, tape)
    h = affine(h, params.w2, params.b2, tape)
    h = batchnorm(h, params.bn2_gamma, params.bn2_beta, params.bn2_stats, mode, tape)
    h = relu(h, tape)
    h = dropout(h, dropout_p, rng, mode, tape)
    return h


def forward_full(
    x: Array,
    params: ModelParams,
    grl: Optional[GrlConfig],
    mode: str,
    rng: Optional[RngState] = None,
    dropout_p: float = 0.1,
    tapes: Optional[ForwardTapes] = None,
) -> tuple[Array, Array, Array]:
    """Run the whole network.

    Returns (z, p_response, domain_logits) where z are the frequency
    features feeding both heads.  ``grl=None`` omits the reversal record
    entirely (forward output is identical either way).
    """
    enc_tape = tapes.encoder if tapes is not None else None
    clf_tape = tapes.classifier if tapes is not None else None
    disc_tape = tapes.discriminator if tapes is not None else None

    h = encode(x, params, mode, rng, dropout_p, enc_tape)
    z = fourier.project(h, params.basis, enc_tape)

    logit = affine(z, params.clf_w, params.clf_b, clf_tape)
    p = sigmoid(logit, clf_tape).ravel()

    if disc_tape is not None and grl is not None:
        coeff = grl.coefficient
        disc_tape.record(lambda dy: grl_backward(dy, coeff))
    a = relu(affine(z, params.disc_w1, params.disc_b1, disc_tape), disc_tape)
    logits = affine(a, params.disc_w2, params.disc_b2, disc_tape)
    return z, p, logits


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """Everything needed to score new samples with a trained model."""

    params: ModelParams
    stats: NormStats
    grl: GrlConfig
    train_config: dict
    domains: list[str]


def _encode_array(a: Array) -> dict:
    """Format 2: the shape and the base64 of the little-endian float64 bytes."""
    raw = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(raw.shape), "b64": base64.b64encode(raw).decode("ascii")}


def _decode_array(stored, version: int) -> Array:
    """Inverse of the array encoding of checkpoint ``format_version``."""
    if version == 1:
        return np.asarray(stored, dtype=np.float64)
    try:
        shape = tuple(int(n) for n in stored["shape"])
        raw = base64.b64decode(stored["b64"], validate=True)
    except (KeyError, TypeError, ValueError) as e:  # binascii.Error is a ValueError
        raise ParameterError(f"malformed checkpoint array: {e!r}") from None
    if any(n < 0 for n in shape) or len(raw) != 8 * math.prod(shape):
        raise ParameterError(
            f"checkpoint array of shape {list(shape)} holds {len(raw)} bytes"
        )
    # frombuffer over bytes is read-only; the copy lets Adam update in place
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def _stats_keys(slot: str) -> tuple[str, str]:
    stem = slot[: -len("_stats")]
    return stem + "_mean", stem + "_var"


def checkpoint_to_dict(ckpt: Checkpoint) -> dict:
    p = ckpt.params
    arrays = {}
    for slot in ModelParams.LAYOUT:
        value = getattr(p, slot)
        if slot.endswith("_stats"):
            mean_key, var_key = _stats_keys(slot)
            arrays[mean_key] = _encode_array(value.mean)
            arrays[var_key] = _encode_array(value.var)
        else:
            arrays[slot] = _encode_array(value.value)
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "d": p.d,
        "M": p.m_domains,
        "gene_list": p.gene_list,
        "norm_mean": _encode_array(ckpt.stats.mean),
        "norm_std": _encode_array(ckpt.stats.std),
        "grl": {"coefficient": ckpt.grl.coefficient},
        "train_config": ckpt.train_config,
        "domains": list(ckpt.domains),
        "params": arrays,
    }


def checkpoint_from_dict(doc: dict) -> Checkpoint:
    """Rebuild a checkpoint of ``format_version`` 1 (nested lists) or 2."""
    if not isinstance(doc, dict):
        raise ParameterError("checkpoint must be a JSON object")
    version = doc.get("format_version")
    if version not in (1, CHECKPOINT_FORMAT_VERSION):
        raise ParameterError(f"unsupported checkpoint format_version {version!r}")
    try:
        raw = doc["params"]

        def arr(key):
            return _decode_array(raw[key], version)

        slots = []
        for slot in ModelParams.LAYOUT:
            if slot.endswith("_stats"):
                mean_key, var_key = _stats_keys(slot)
                running = RunningStats(0)
                running.mean, running.var = arr(mean_key), arr(var_key)
                slots.append(running)
            else:
                slots.append(Param(arr(slot)))
        params = ModelParams(doc["gene_list"], int(doc["M"]), *slots)
        if params.d != int(doc["d"]):
            raise ParameterError("checkpoint d field disagrees with stored arrays")
        stats = NormStats(
            gene_names=list(doc["gene_list"]),
            mean=_decode_array(doc["norm_mean"], version),
            std=_decode_array(doc["norm_std"], version),
        )
        return Checkpoint(
            params=params,
            stats=stats,
            grl=GrlConfig(coefficient=float(doc["grl"]["coefficient"])),
            train_config=dict(doc["train_config"]),
            domains=list(doc["domains"]),
        )
    except KeyError as e:
        raise ParameterError(f"checkpoint is missing field {e}") from None


def checkpoint_to_json(ckpt: Checkpoint) -> str:
    return json.dumps(checkpoint_to_dict(ckpt), sort_keys=True, separators=(",", ":"))


def save_checkpoint(path, ckpt: Checkpoint):
    Path(path).write_text(checkpoint_to_json(ckpt) + "\n", encoding="utf-8")


def load_checkpoint(path) -> Checkpoint:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ParameterError(f"checkpoint is not valid JSON: {e}") from None
    return checkpoint_from_dict(doc)


# ---------------------------------------------------------------------------
# Gradient verification on a reduced model
# ---------------------------------------------------------------------------

def params_to_vector(params: ModelParams) -> Array:
    return np.concatenate([p.value.ravel() for p in params.trainables()])


def set_params_from_vector(params: ModelParams, vec: Array):
    offset = 0
    for p in params.trainables():
        n = p.value.size
        p.value = vec[offset: offset + n].reshape(p.value.shape).copy()
        offset += n
    if offset != vec.size:
        raise DimensionError("parameter vector length mismatch")


def gradient_suite(seed: int = 0, h: float = 1e-5) -> float:
    """Finite-difference audit of the full training gradient.

    Builds a reduced model (12 genes -> 10 hidden -> 8 frequency dims,
    3 domains, batch 6, dropout off), runs one train-mode backward with
    the reversal layer active, and checks every coordinate against central
    differences.  Encoder coordinates are checked against the objective
    the reversal layer actually optimizes (classification + clustering
    minus coefficient * domain term); head coordinates against the plain
    weighted sum.  Returns the max relative error over all coordinates.
    """
    lambda1, lambda2, coeff = 0.7, 1.3, 0.9
    rng = RngState(seed)
    base = init_params(12, 3, rng, hidden=10, d=8, disc_hidden=6)
    x = rng.normal((6, 12))
    y = np.array([1, 1, 1, 0, 0, 0])
    dom = np.array([0, 1, 2, 0, 1, 2])

    # Analytic pass: one forward/backward with the reversal in place.
    work = base.copy()
    tapes = ForwardTapes()
    z, p, logits = forward_full(
        x, work, GrlConfig(coeff), "train", dropout_p=0.0, tapes=tapes
    )
    _, dp = classification_loss(p, y)
    _, dlogits = domain_adversarial_loss(logits, dom)
    _, dz_asy, _ = asymmetric_loss(z, y)
    for t in work.trainables():
        t.zero_grad()
    dz = tapes.classifier.backward(lambda2 * dp[:, None])
    dz = dz + tapes.discriminator.backward(dlogits)
    dz = dz + lambda1 * dz_asy
    tapes.encoder.backward(dz)
    analytic = np.concatenate([t.grad.ravel() for t in work.trainables()])

    vec0 = params_to_vector(base)
    n_enc = sum(p.value.size for p in base.encoder_trainables())

    def losses_at(vec):
        m = base.copy()
        set_params_from_vector(m, vec)
        z_, p_, logits_ = forward_full(x, m, None, "train", dropout_p=0.0)
        l_asy = asymmetric_loss(z_, y)[0]
        l_adv = domain_adversarial_loss(logits_, dom)[0]
        l_cls = classification_loss(p_, y)[0]
        return l_asy, l_adv, l_cls

    def f_encoder(v):
        vec = vec0.copy()
        vec[:n_enc] = v
        l_asy, l_adv, l_cls = losses_at(vec)
        return lambda1 * l_asy + lambda2 * l_cls - coeff * l_adv, analytic[:n_enc]

    def f_heads(v):
        vec = vec0.copy()
        vec[n_enc:] = v
        l_asy, l_adv, l_cls = losses_at(vec)
        return l_adv + lambda1 * l_asy + lambda2 * l_cls, analytic[n_enc:]

    err_enc = grad_check(f_encoder, vec0[:n_enc], h)
    err_head = grad_check(f_heads, vec0[n_enc:], h)
    return max(err_enc, err_head)
