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

import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import fourier
from .data import NormStats
from .errors import ParameterError, naming_path
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
    eval_norm_relu,
    flat_views,
    grad_check,
    relu,
    zeros_mapped,
)

CHECKPOINT_FORMAT_VERSION = 3


@dataclass
class GrlConfig:
    """Gradient reversal strength; forward is always the identity."""

    coefficient: float

    def __post_init__(self):
        if not np.isfinite(self.coefficient) or self.coefficient < 0:
            raise ParameterError(
                f"GRL coefficient must be finite and >= 0, got {self.coefficient}"
            )


@dataclass
class ForwardTapes:
    """One tape per branch so head gradients can be merged at z."""

    encoder: GradTape = field(default_factory=GradTape)
    classifier: GradTape = field(default_factory=GradTape)
    discriminator: GradTape = field(default_factory=GradTape)


class ModelParams:
    """Weights, biases, and batch-norm state for the whole network.

    Every trainable lives in one flat arena of ``dtype`` (float64 unless
    asked for float32, which ``fit`` trains in): ``values`` and ``grads``
    hold the parameters back to back in ``trainables()`` order, and each
    ``Param.value`` / ``Param.grad`` is a reshaped view into them.  So the
    optimizer, ``copy`` and the gradient audit each walk two buffers
    instead of 14 arrays.  The batch-norm statistics and the basis have
    the same dtype.  Write parameters in place; rebinding a
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
        dtype=np.float64,
    ):
        """Zero-filled arena; ``init_params`` or a checkpoint fills it."""
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise ParameterError(f"dtype must be float32 or float64, got {self.dtype}")
        self.gene_list = list(gene_list)
        self.m_domains = int(m_domains)
        self.hidden, self.d, self.disc_hidden = int(hidden), int(d), int(disc_hidden)
        widths = _model_widths(
            len(self.gene_list), self.m_domains, self.hidden, self.d, self.disc_hidden
        )
        shapes = [tuple(widths[w] for w in dims) for _, dims, _ in self.TRAINABLES]
        total = sum(math.prod(shape) for shape in shapes)
        self.values = zeros_mapped(total, self.dtype)
        self.grads = zeros_mapped(total, self.dtype)
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
            setattr(self, slot, RunningStats(widths[width], self.dtype))
        self.basis = fourier.build_basis(self.d, self.dtype)

    def encoder_trainables(self) -> list[Param]:
        return self._trainables[: self.N_ENCODER]

    def trainables(self) -> list[Param]:
        return list(self._trainables)

    def astype(self, dtype) -> "ModelParams":
        """A new model of ``dtype`` holding this one's values and batch-norm
        statistics, cast; its gradient arena is untouched zeros."""
        out = ModelParams(
            self.gene_list, self.m_domains, self.hidden, self.d, self.disc_hidden, dtype
        )
        out.values[...] = self.values
        for slot, _ in self.STATS:
            setattr(out, slot, getattr(self, slot).astype(out.dtype))
        return out

    def copy(self) -> "ModelParams":
        out = self.astype(self.dtype)
        out.grads[...] = self.grads
        return out


def _model_widths(
    n_genes: int, m_domains: int, hidden: int, d: int, disc_hidden: int
) -> dict[str, int]:
    """The named widths of ``ModelParams.TRAINABLES``; ParameterError unless
    ``d`` is even and at most ``fourier.MAX_DIM`` and every width is at
    least 1."""
    if d % 2 != 0 or d > fourier.MAX_DIM:
        raise ParameterError(f"d must be even and at most {fourier.MAX_DIM}, got {d}")
    widths = {
        "genes": n_genes, "hidden": hidden, "d": d,
        "disc_hidden": disc_hidden, "m_domains": m_domains, "one": 1,
    }
    if min(widths.values()) < 1:
        raise ParameterError(f"every width must be >= 1, got {widths}")
    return widths


def init_params(
    genes: Union[int, Sequence[str]],
    m_domains: int,
    rng: RngState,
    hidden: int,
    d: int,
    disc_hidden: int,
    dtype=np.float64,
) -> ModelParams:
    """Glorot-uniform weights, zero biases, identity batch-norm state; the
    weights are drawn in float64 and rounded to ``dtype``."""
    if isinstance(genes, int):
        gene_list = [f"g{i}" for i in range(genes)]
    else:
        gene_list = list(genes)
    if len(gene_list) < 1:
        raise ParameterError("need at least one gene")
    if m_domains < 2:
        raise ParameterError(f"need at least 2 domains, got {m_domains}")
    params = ModelParams(gene_list, m_domains, hidden, d, disc_hidden, dtype)
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
    """Two-block feature extractor; output width params.d.

    ``"train"`` mode records on ``tape``.  ``"eval"`` records nothing: it
    normalizes by the running statistics and applies ReLU in the buffer
    each affine returned, and skips dropout, the identity there."""
    if mode not in ("train", "eval"):
        raise ParameterError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=params.dtype)
    if x.ndim != 2 or x.shape[1] != len(params.gene_list):
        raise ParameterError(
            f"expected {len(params.gene_list)} gene columns, got "
            f"{x.shape[1] if x.ndim == 2 else 'non-matrix input'}"
        )
    if mode == "eval":
        h = affine(x, params.w1, params.b1)
        h = eval_norm_relu(h, params.bn1_gamma, params.bn1_beta, params.bn1_stats)
        h = affine(h, params.w2, params.b2)
        return eval_norm_relu(h, params.bn2_gamma, params.bn2_beta, params.bn2_stats)
    h = affine(x, params.w1, params.b1, tape, input_grad=False)
    h = batchnorm(h, params.bn1_gamma, params.bn1_beta, params.bn1_stats, tape)
    h = relu(h, tape)
    h = dropout(h, dropout_p, rng, tape)
    h = affine(h, params.w2, params.b2, tape)
    h = batchnorm(h, params.bn2_gamma, params.bn2_beta, params.bn2_stats, tape)
    h = relu(h, tape)
    h = dropout(h, dropout_p, rng, tape)
    return h


def forward_full(
    x: Array,
    params: ModelParams,
    grl: Optional[GrlConfig],
    tapes: ForwardTapes,
    rng: Optional[RngState] = None,
    dropout_p: float = 0.0,
) -> tuple[Array, Array, Array]:
    """Train-mode forward of the whole network, recorded on ``tapes``.

    Returns (z, logit, domain_logits) where z are the frequency features
    feeding both heads and ``logit`` (b x 1) is the response logit.  The
    discriminator tape starts with the reversal layer of ``grl``, whose
    backward is -coefficient * upstream; ``grl=None`` omits it (forward
    output is identical either way).
    Scoring uses the eval-mode path of ``train._score``.
    """
    h = encode(x, params, "train", rng, dropout_p, tapes.encoder)
    z = fourier.project(h, params.basis, tapes.encoder)

    logit = affine(z, params.clf_w, params.clf_b, tapes.classifier)

    disc_tape = tapes.discriminator
    if grl is not None:
        coeff = float(grl.coefficient)  # a numpy scalar would upcast float32
        disc_tape.record(lambda dy: -coeff * dy)
    a = relu(affine(z, params.disc_w1, params.disc_b1, disc_tape), disc_tape)
    logits = affine(a, params.disc_w2, params.disc_b2, disc_tape)
    return z, logit, logits


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
) -> tuple[float, float, float]:
    """One train-mode step of a batch; returns ``(l_asy, l_adv, l_cls)``.

    Resets every gradient (``Param.zero_grad``) and leaves in
    ``params.grads`` the gradient of
    l_adv + lambda1 * l_asy + lambda2 * l_cls, with the encoder's share of
    l_adv passed through the reversal layer of ``grl`` (``None``: not
    reversed).  The head gradients are merged at z.  ``lambda1 == 0``
    skips the clustering loss, and l_asy is then 0.0.  The losses compute
    in float64; their gradients are cast to the model's dtype.
    """
    tapes = ForwardTapes()
    z, logit, logits = forward_full(x, params, grl, tapes, rng, dropout_p)
    l_cls, dlogit = classification_loss(logit, response)
    l_adv, dlogits = domain_adversarial_loss(logits, domain)
    l_asy, dz_asy = asymmetric_loss(z, response)[:2] if lambda1 != 0.0 else (0.0, None)
    dlogit, dlogits = (g.astype(params.dtype, copy=False) for g in (dlogit, dlogits))
    lambda1, lambda2 = float(lambda1), float(lambda2)  # numpy scalars would upcast

    for t in params.trainables():
        t.zero_grad()
    dz = tapes.classifier.backward(lambda2 * dlogit[:, None])
    dz = dz + tapes.discriminator.backward(dlogits)
    if dz_asy is not None:
        dz = dz + lambda1 * dz_asy.astype(params.dtype, copy=False)
    tapes.encoder.backward(dz)
    return l_asy, l_adv, l_cls


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


def _stored_arrays(ckpt: Checkpoint) -> dict[str, Array]:
    """The arrays a checkpoint stores, by key, in file order: the
    trainables, each batch norm's running statistics, then the
    standardization statistics."""
    p = ckpt.params
    return {
        **{slot: getattr(p, slot).value for slot, _, _ in ModelParams.TRAINABLES},
        "bn1_mean": p.bn1_stats.mean, "bn1_var": p.bn1_stats.var,
        "bn2_mean": p.bn2_stats.mean, "bn2_var": p.bn2_stats.var,
        "norm_mean": ckpt.stats.mean, "norm_std": ckpt.stats.std,
    }


def _stored_shapes(widths: dict[str, int]) -> dict[str, tuple]:
    """The shape of each array ``_stored_arrays`` gives for a model of
    ``widths``, by key, in file order."""
    shapes = {slot: tuple(widths[w] for w in dims)
              for slot, dims, _ in ModelParams.TRAINABLES}
    for slot, width in ModelParams.STATS:
        bn = slot.removesuffix("_stats")
        shapes[f"{bn}_mean"] = shapes[f"{bn}_var"] = (widths[width],)
    shapes["norm_mean"] = shapes["norm_std"] = (widths["genes"],)
    return shapes


def _distinct_names(value) -> bool:
    """Whether a JSON value is a list of distinct strings."""
    return (isinstance(value, list) and all(isinstance(v, str) for v in value)
            and len(set(value)) == len(value))


def _checked_fields(header: dict, body_bytes: int):
    """Check a checkpoint header's fields, each listed array shape against
    the shape its named widths imply, and the ``body_bytes`` that follow
    the header against the arrays it lists, before anything the size of
    the model is allocated.

    Returns the shape of each array by key in file order, the GRL set-up
    and the training config.
    """
    if not isinstance(header, dict):
        raise ParameterError("checkpoint must be a JSON object")
    version = header.get("format_version")
    # exact JSON types, here and below: true and 3.0 are not 3, a bool is
    # not a number, nor a numeric string
    if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
        raise ParameterError(f"unsupported checkpoint format_version {version!r}")
    try:
        listed = header["arrays"]
        stored = dict(listed)
        for key, shape in stored.items():
            if any(type(n) is not int for n in shape):
                raise ParameterError(f"checkpoint array {key!r} shape must list integers")
        m_domains, d, domains = header["M"], header["d"], header["domains"]
        gene_list, train_config = header["gene_list"], header["train_config"]
        coefficient = header["grl"]["coefficient"]
        for key, value, types, what in (
                ("M", m_domains, (int,), "an integer"), ("d", d, (int,), "an integer"),
                ("grl.coefficient", coefficient, (int, float), "a number"),
                ("train_config", train_config, (dict,), "an object")):
            if type(value) not in types:
                raise ParameterError(f"checkpoint field {key!r} must be {what}")
        if not (_distinct_names(domains) and len(domains) == m_domains):
            raise ParameterError(
                f"checkpoint field 'domains' must list {m_domains} distinct names"
            )
        if not _distinct_names(gene_list):
            raise ParameterError(
                "checkpoint field 'gene_list' must list distinct gene names"
            )
        shapes = _stored_shapes(_model_widths(
            len(gene_list), m_domains, math.prod(stored["b1"]), d,
            math.prod(stored["disc_b1"]),
        ))
        if [key for key, _ in listed] != list(shapes):
            raise ParameterError(
                f"checkpoint header must list the arrays {list(shapes)} in order"
            )
        for key, shape in shapes.items():
            if list(stored[key]) != list(shape):
                raise ParameterError(f"checkpoint array {key!r} has shape "
                                     f"{list(stored[key])}, expected {list(shape)}")
        want = 8 * sum(math.prod(shape) for shape in shapes.values())
        if body_bytes != want:
            raise ParameterError(
                f"checkpoint body holds {body_bytes} bytes, its header lists {want}"
            )
        return shapes, GrlConfig(float(coefficient)), dict(train_config)
    except KeyError as e:
        raise ParameterError(f"checkpoint is missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise ParameterError(f"malformed checkpoint: {e}") from None


def checkpoint_from_dict(header: dict, body_bytes: int) -> Checkpoint:
    """Check a checkpoint's header against the ``body_bytes`` that follow
    it and build the model it describes.

    The arrays are left as a new model holds them, for ``load_checkpoint``
    to read from the body.
    """
    shapes, grl, train_config = _checked_fields(header, body_bytes)
    params = ModelParams(
        header["gene_list"], header["M"], hidden=shapes["b1"][0], d=header["d"],
        disc_hidden=shapes["disc_b1"][0],
    )
    n_genes = len(params.gene_list)
    return Checkpoint(
        params=params,
        stats=NormStats(list(params.gene_list), np.zeros(n_genes), np.zeros(n_genes)),
        grl=grl,
        train_config=train_config,
        domains=list(header["domains"]),
    )


def checkpoint_to_json(ckpt: Checkpoint) -> str:
    """The header line of ``ckpt``'s file, without its newline: the
    widths, gene list, training set-up and the key and shape of each
    array that follows it."""
    p = ckpt.params
    return json.dumps({
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "d": p.d,
        "M": p.m_domains,
        "gene_list": p.gene_list,
        "grl": {"coefficient": ckpt.grl.coefficient},
        "train_config": ckpt.train_config,
        "domains": list(ckpt.domains),
        "arrays": [[key, list(a.shape)] for key, a in _stored_arrays(ckpt).items()],
    }, sort_keys=True, separators=(",", ":"))


def save_checkpoint(path, ckpt: Checkpoint):
    """Write format 3: ``checkpoint_to_json(ckpt)`` and a newline, then the
    little-endian float64 bytes of each array the header lists, in order.

    The file is written to ``<path>.tmp`` and replaces ``path`` only once
    it is whole: a value that cannot be encoded leaves an existing
    checkpoint as it was.
    """
    header = checkpoint_to_json(ckpt)
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header.encode("ascii") + b"\n")
            for a in _stored_arrays(ckpt).values():
                fh.write(np.ascontiguousarray(a, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@naming_path
def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file; its ParameterError messages start with
    the path.

    The first line is the JSON header; the rest of the file must hold
    exactly the bytes of the arrays it lists.  Both are checked before the
    model is built, and the bytes are read straight into the model.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except json.JSONDecodeError as e:
            raise ParameterError(f"checkpoint is not valid JSON: {e}") from None
        except UnicodeDecodeError as e:
            raise ParameterError(
                "checkpoint is not UTF-8 text: cannot decode byte "
                f"0x{e.object[e.start]:02x}"
            ) from None
        ckpt = checkpoint_from_dict(header, os.fstat(fh.fileno()).st_size - fh.tell())
        for a in _stored_arrays(ckpt).values():
            if fh.readinto(a) != a.nbytes:
                raise ParameterError("checkpoint body ended while it was read")
            if sys.byteorder == "big":
                a.byteswap(inplace=True)
    return ckpt


# ---------------------------------------------------------------------------
# Gradient verification on a reduced model
# ---------------------------------------------------------------------------

def gradient_suite() -> float:
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
    rng = RngState(0)
    base = init_params(12, 3, rng, hidden=10, d=8, disc_hidden=6)
    x = rng.normal((6, 12))
    y = np.array([1, 1, 1, 0, 0, 0])
    dom = np.array([0, 1, 2, 0, 1, 2])

    # Analytic pass: one forward/backward with the reversal in place.
    work = base.copy()
    batch_objective(x, y, dom, work, GrlConfig(coeff), lambda1, lambda2)
    analytic = work.grads.copy()

    vec0 = base.values.copy()
    n_enc = sum(p.value.size for p in base.encoder_trainables())

    def losses_at(vec):
        m = base.copy()
        m.values[...] = vec
        return batch_objective(x, y, dom, m, None, lambda1, lambda2)

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
