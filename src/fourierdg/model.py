"""Full network: encoder, frequency projection, response classifier, and
adversarial domain discriminator joined by a gradient reversal layer.

The encoder is two Linear -> BatchNorm -> ReLU -> Dropout blocks (widths
1024 and 740 in the reference ``TrainConfig``); its output is projected
onto the fixed real-Fourier basis, and both heads consume the projected
features.  The reversal layer is the identity in the forward pass and
negates (and scales) the gradient flowing from the domain discriminator
back into the encoder.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import fourier
from .data import NormStats
from .errors import DimensionError, ParameterError, TapeError
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
    flat_views,
    grad_check,
    relu,
    sigmoid,
    zeros_mapped,
)

CHECKPOINT_FORMAT_VERSION = 2


@dataclass
class GrlConfig:
    """Gradient reversal strength; forward is always the identity."""

    coefficient: float

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
    """Weights, biases, and batch-norm state for the whole network.

    Every trainable lives in one flat float64 arena: ``values`` and
    ``grads`` hold the parameters back to back in ``trainables()`` order,
    and each ``Param.value`` / ``Param.grad`` is a reshaped view into them.
    So the optimizer, ``copy`` and the gradient audit each walk two buffers
    instead of 14 arrays.  Write parameters in place; rebinding a
    ``Param.value`` detaches it from the arena.
    """

    # (slot, shape in named widths, initial value) in trainables() order;
    # the first N_ENCODER slots are the encoder group, the rest the heads.
    TRAINABLES = (
        ("w1", ("genes", "hidden"), "glorot"),
        ("b1", ("hidden",), "zeros"),
        ("bn1_gamma", ("hidden",), "ones"),
        ("bn1_beta", ("hidden",), "zeros"),
        ("w2", ("hidden", "d"), "glorot"),
        ("b2", ("d",), "zeros"),
        ("bn2_gamma", ("d",), "ones"),
        ("bn2_beta", ("d",), "zeros"),
        ("clf_w", ("d", "one"), "glorot"),
        ("clf_b", ("one",), "zeros"),
        ("disc_w1", ("d", "disc_hidden"), "glorot"),
        ("disc_b1", ("disc_hidden",), "zeros"),
        ("disc_w2", ("disc_hidden", "m_domains"), "glorot"),
        ("disc_b2", ("m_domains",), "zeros"),
    )
    N_ENCODER = 8
    # batch-norm running statistics, outside the arena: (slot, width)
    STATS = (("bn1_stats", "hidden"), ("bn2_stats", "d"))

    def __init__(
        self,
        gene_list: Sequence[str],
        m_domains: int,
        hidden: int,
        d: int,
        disc_hidden: int,
    ):
        """Zero-filled arena; ``init_params`` or a checkpoint fills it."""
        self.gene_list = list(gene_list)
        self.m_domains = int(m_domains)
        self.hidden, self.d, self.disc_hidden = int(hidden), int(d), int(disc_hidden)
        if self.d % 2 != 0:
            raise ParameterError(f"encoder output dimension must be even, got {self.d}")
        widths = {
            "genes": len(self.gene_list), "hidden": self.hidden, "d": self.d,
            "disc_hidden": self.disc_hidden, "m_domains": self.m_domains, "one": 1,
        }
        shapes = [tuple(widths[w] for w in dims) for _, dims, _ in self.TRAINABLES]
        total = sum(math.prod(shape) for shape in shapes)
        self.values = zeros_mapped(total)
        self.grads = zeros_mapped(total)
        self._trainables = []
        for (slot, _, init), value, grad in zip(
            self.TRAINABLES, flat_views(self.values, shapes), flat_views(self.grads, shapes)
        ):
            if init == "ones":
                value[...] = 1.0
            param = Param(value, grad)
            setattr(self, slot, param)
            self._trainables.append(param)
        for slot, width in self.STATS:
            setattr(self, slot, RunningStats(widths[width]))
        self.basis = fourier.build_basis(self.d)

    def encoder_trainables(self) -> list[Param]:
        return self._trainables[: self.N_ENCODER]

    def trainables(self) -> list[Param]:
        return list(self._trainables)

    def copy(self) -> "ModelParams":
        out = ModelParams(
            self.gene_list, self.m_domains, self.hidden, self.d, self.disc_hidden
        )
        out.values[...] = self.values
        out.grads[...] = self.grads
        for slot, _ in self.STATS:
            setattr(out, slot, getattr(self, slot).copy())
        return out


def init_params(
    genes: Union[int, Sequence[str]],
    m_domains: int,
    rng: RngState,
    hidden: int,
    d: int,
    disc_hidden: int,
) -> ModelParams:
    """Glorot-uniform weights, zero biases, identity batch-norm state."""
    if isinstance(genes, int):
        gene_list = [f"g{i}" for i in range(genes)]
    else:
        gene_list = list(genes)
    if len(gene_list) < 1:
        raise ParameterError("need at least one gene")
    if m_domains < 2:
        raise ParameterError(f"need at least 2 domains, got {m_domains}")
    params = ModelParams(gene_list, m_domains, hidden, d, disc_hidden)
    for (_, _, init), param in zip(params.TRAINABLES, params.trainables()):
        if init == "glorot":
            fan_in, fan_out = param.value.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            param.value[...] = rng.uniform(-bound, bound, (fan_in, fan_out))
    return params


def encode(
    x: Array,
    params: ModelParams,
    mode: str,
    rng: Optional[RngState] = None,
    dropout_p: float = 0.0,
    tape: Optional[GradTape] = None,
) -> Array:
    """Two-block feature extractor; output width params.d."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != len(params.gene_list):
        raise DimensionError(
            f"expected {len(params.gene_list)} gene columns, got "
            f"{x.shape[1] if x.ndim == 2 else 'non-matrix input'}"
        )
    h = affine(x, params.w1, params.b1, tape, input_grad=False)
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
    dropout_p: float = 0.0,
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


def batch_objective(
    x: Array,
    response,
    domain,
    params: ModelParams,
    grl: Optional[GrlConfig],
    lambda1: float,
    lambda2: float,
    rng: Optional[RngState] = None,
    dropout_p: float = 0.0,
) -> tuple[tuple[float, float, float], Callable[[], None]]:
    """One train-mode forward of a batch: ``((l_asy, l_adv, l_cls), backward)``.

    ``backward()`` zeroes ``params.grads`` and leaves there the gradient of
    l_adv + lambda1 * l_asy + lambda2 * l_cls, with the encoder's share of
    l_adv passed through the reversal layer of ``grl`` (``None``: not
    reversed).  The head gradients are merged at z.  ``lambda1 == 0``
    skips the clustering loss, and l_asy is then 0.0.  Like a tape,
    ``backward`` runs once and then drops the batch's tapes and gradients.
    """
    tapes = ForwardTapes()
    z, p, logits = forward_full(x, params, grl, "train", rng, dropout_p, tapes)
    l_cls, dp = classification_loss(p, response)
    l_adv, dlogits = domain_adversarial_loss(logits, domain)
    l_asy, dz_asy = asymmetric_loss(z, response)[:2] if lambda1 != 0.0 else (0.0, None)

    def backward():
        nonlocal tapes, dp, dlogits, dz_asy
        if tapes is None:
            raise TapeError("batch already back-propagated; one backward per forward")
        for t in params.trainables():
            t.zero_grad()
        dz = tapes.classifier.backward(lambda2 * dp[:, None])
        dz = dz + tapes.discriminator.backward(dlogits)
        if dz_asy is not None:
            dz = dz + lambda1 * dz_asy
        tapes.encoder.backward(dz)
        tapes = dp = dlogits = dz_asy = None

    return (l_asy, l_adv, l_cls), backward


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
    """Inverse of the array encoding of checkpoint ``format_version``.

    A format-2 array is a read-only view of the decoded bytes; callers copy
    it into place.
    """
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
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _fill(target: Array, value: Array, key: str):
    """Copy a decoded checkpoint array into its slot of the model."""
    if value.shape != target.shape:
        raise ParameterError(
            f"checkpoint array {key!r} has shape {list(value.shape)}, "
            f"expected {list(target.shape)}"
        )
    target[...] = value


def _stats_keys(slot: str) -> tuple[str, str]:
    stem = slot[: -len("_stats")]
    return stem + "_mean", stem + "_var"


def checkpoint_to_dict(ckpt: Checkpoint) -> dict:
    p = ckpt.params
    arrays = {
        slot: _encode_array(getattr(p, slot).value)
        for slot, _, _ in ModelParams.TRAINABLES
    }
    for slot, _ in ModelParams.STATS:
        running = getattr(p, slot)
        mean_key, var_key = _stats_keys(slot)
        arrays[mean_key] = _encode_array(running.mean)
        arrays[var_key] = _encode_array(running.var)
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

        m_domains, d, domains = doc["M"], doc["d"], doc["domains"]
        for key, value in (("M", m_domains), ("d", d)):
            if type(value) is not int:  # a JSON integer: bool and float are not
                raise ParameterError(f"checkpoint field {key!r} must be an integer")
        if not (isinstance(domains, list) and len(domains) == m_domains
                and all(isinstance(name, str) for name in domains)
                and len(set(domains)) == m_domains):
            raise ParameterError(
                f"checkpoint field 'domains' must list {m_domains} distinct names"
            )
        params = ModelParams(
            doc["gene_list"], m_domains,
            hidden=arr("b1").size, d=d, disc_hidden=arr("disc_b1").size,
        )
        for slot, _, _ in ModelParams.TRAINABLES:
            _fill(getattr(params, slot).value, arr(slot), slot)
        for slot, _ in ModelParams.STATS:
            running = getattr(params, slot)
            mean_key, var_key = _stats_keys(slot)
            _fill(running.mean, arr(mean_key), mean_key)
            _fill(running.var, arr(var_key), var_key)
        n_genes = len(params.gene_list)
        stats = NormStats(list(params.gene_list), np.empty(n_genes), np.empty(n_genes))
        _fill(stats.mean, _decode_array(doc["norm_mean"], version), "norm_mean")
        _fill(stats.std, _decode_array(doc["norm_std"], version), "norm_std")
        return Checkpoint(
            params=params,
            stats=stats,
            grl=GrlConfig(coefficient=float(doc["grl"]["coefficient"])),
            train_config=dict(doc["train_config"]),
            domains=list(domains),
        )
    except KeyError as e:
        raise ParameterError(f"checkpoint is missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise ParameterError(f"malformed checkpoint: {e}") from None


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

def gradient_suite(seed: int = 0) -> float:
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
    _, backward = batch_objective(x, y, dom, work, GrlConfig(coeff), lambda1, lambda2)
    backward()
    analytic = work.grads.copy()

    vec0 = base.values.copy()
    n_enc = sum(p.value.size for p in base.encoder_trainables())

    def losses_at(vec):
        m = base.copy()
        m.values[...] = vec
        return batch_objective(x, y, dom, m, None, lambda1, lambda2)[0]

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

    err_enc = grad_check(f_encoder, vec0[:n_enc])
    err_head = grad_check(f_heads, vec0[n_enc:])
    return max(err_enc, err_head)
