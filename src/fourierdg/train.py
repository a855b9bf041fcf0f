"""Mini-batch adversarial training loop and checkpoint-based scoring.

One Adam optimizer updates every parameter; the min-max between encoder
and domain discriminator is carried entirely by the gradient reversal
record on the discriminator tape.  All randomness (init, shuffling,
dropout) flows from the seed through a counter-based RngState, so a fixed
seed reproduces checkpoints and logs byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import fourier
from .data import GeneMatrix, SampleMeta, align_genes, select_hvg, write_table, zscore_fit_apply
from .errors import ParameterError, TrainingDivergedError, check_field_types
from .losses import LossBreakdown, total_loss
from .model import Checkpoint, GrlConfig, ModelParams, batch_objective, encode, init_params
from .tensor_core import RngState, affine, sigmoid, zeros_mapped

SCORE_EPS = 1e-12


@dataclass
class TrainConfig:
    lambda1: float = 1.0
    lambda2: float = 1.0
    lr: float = 8e-5
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0
    grl_coefficient: float = 1.0
    dropout_p: float = 0.1
    enc_hidden: int = 1024
    enc_out: int = 740
    disc_hidden: int = 256

    def validate(self):
        check_field_types(self)
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise ParameterError(f"lr must be > 0, got {self.lr}")
        if self.batch_size < 2:
            raise ParameterError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ParameterError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        for name in ("lambda1", "lambda2", "grl_coefficient"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ParameterError(f"{name} must be finite and >= 0, got {v}")
        if self.enc_out % 2 != 0 or not 2 <= self.enc_out <= fourier.MAX_DIM:
            raise ParameterError(
                f"enc_out must be even and in [2, {fourier.MAX_DIM}], got {self.enc_out}"
            )
        if self.enc_hidden < 1 or self.disc_hidden < 1:
            raise ParameterError("hidden widths must be >= 1")


@dataclass
class EpochLog:
    epoch: int
    losses: LossBreakdown
    train_auc: float


ADAM_BLOCK = 65_536  # elements per update block; its six streams stay in cache
ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam (b1=ADAM_B1, b2=ADAM_B2, eps=ADAM_EPS); one step per batch.

    ``values`` and ``grads`` are two flat buffers of equal length and one
    float dtype, a model's parameter arena (``ModelParams.values`` /
    ``grads``); ``m`` and ``v`` are two more of that dtype, and every
    operation runs in it.  ``step`` mutates them in place, one block of
    ADAM_BLOCK elements at a time, through two scratch rows, so a small
    model costs one pass of 14 ufunc calls.  Each element goes through the
    same IEEE operations, in the same order, as

        m = b1*m + (1-b1)*g
        v = b2*v + ((1-b2)*g)*g
        p = p - (lr*(m/(1-b1**t))) / (sqrt(v/(1-b2**t)) + eps)

    so results are bitwise identical to that expression; folding constants
    such as lr/(1-b1**t) would change the last bits.
    """

    def __init__(self, values: np.ndarray, grads: np.ndarray, lr: float):
        if values.ndim != 1 or grads.shape != values.shape:
            raise ParameterError(
                f"Adam needs two 1-D buffers of equal length, got shapes "
                f"{values.shape} and {grads.shape}"
            )
        if grads.dtype != values.dtype:
            raise ParameterError(
                f"Adam needs values and grads of one dtype, got {values.dtype} "
                f"and {grads.dtype}"
            )
        self.values, self.grads = values, grads
        self.lr = float(lr)  # a numpy scalar would run float32 steps in float64
        self.t = 0
        self.m = zeros_mapped(values.size, values.dtype)
        self.v = zeros_mapped(values.size, values.dtype)
        self._scratch = np.empty((2, min(ADAM_BLOCK, values.size)), values.dtype)

    def step(self):
        self.t += 1
        b1, b2, lr, eps = ADAM_B1, ADAM_B2, self.lr, ADAM_EPS
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        pf, gf, mf, vf = self.values, self.grads, self.m, self.v
        for lo in range(0, pf.size, ADAM_BLOCK):
            pb = pf[lo: lo + ADAM_BLOCK]
            mb = mf[lo: lo + ADAM_BLOCK]
            vb = vf[lo: lo + ADAM_BLOCK]
            gb = gf[lo: lo + ADAM_BLOCK]
            a = self._scratch[0, : pb.size]
            b = self._scratch[1, : pb.size]
            np.multiply(mb, b1, out=mb)
            np.multiply(gb, 1.0 - b1, out=a)
            np.add(mb, a, out=mb)
            np.multiply(vb, b2, out=vb)
            np.multiply(gb, 1.0 - b2, out=a)
            np.multiply(a, gb, out=a)
            np.add(vb, a, out=vb)
            np.divide(mb, bc1, out=a)
            np.multiply(a, lr, out=a)
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            np.add(b, eps, out=b)
            np.divide(a, b, out=a)
            np.subtract(pb, a, out=pb)


def make_batches(n: int, batch_size: int, rng: RngState) -> list[np.ndarray]:
    """Seeded permutation chunked into batches; a trailing chunk smaller
    than 2 is merged into the previous batch."""
    if n < 1:
        raise ParameterError("need at least one sample")
    perm = rng.permutation(n)
    batches = [perm[i: i + batch_size] for i in range(0, n, batch_size)]
    if len(batches) > 1 and batches[-1].size < 2:
        tail = batches.pop()
        batches[-1] = np.concatenate([batches[-1], tail])
    return batches


def _score(values: np.ndarray, params: ModelParams) -> np.ndarray:
    """Eval-mode sensitivity probabilities, clamped to the open interval.

    The logit is cast to float64 first: in float32, 1 - SCORE_EPS rounds
    to 1.0."""
    h = encode(values, params, "eval")
    z = fourier.project(h, params.basis)
    logit = affine(z, params.clf_w, params.clf_b).astype(np.float64, copy=False)
    return np.clip(sigmoid(logit).ravel(), SCORE_EPS, 1.0 - SCORE_EPS)


def fit(
    gm: GeneMatrix,
    metas: Sequence[SampleMeta],
    cfg: TrainConfig,
) -> tuple[ModelParams, list[EpochLog]]:
    """Train on a standardized matrix; metas must be row-aligned with gm.

    Training runs in float32: the matrix is cast once, and the model,
    its gradients and Adam's moments are float32.  Returns the trained
    parameters as a float64 model holding exactly the trained values, with
    a gradient arena of untouched zeros, and one EpochLog per epoch (loss
    means over batches plus train AUROC).  ``cfg.lambda1 == 0`` trains
    without the clustering loss: the paper's ablation.
    """
    from .evaluate import auroc  # local import; evaluate builds on fit

    cfg.validate()
    n = len(gm.sample_ids)
    if len(metas) != n or any(
        m.sample_id != sid for m, sid in zip(metas, gm.sample_ids)
    ):
        raise ParameterError("metas must be aligned with gm.sample_ids")
    if any(m.response is None for m in metas):
        raise ParameterError("every training sample needs a response label")
    responses = np.array([m.response for m in metas], dtype=np.int64)
    if len(set(responses.tolist())) < 2:
        raise ParameterError("training data must contain both response classes")
    domain_names = sorted({m.domain for m in metas})
    if len(domain_names) < 2:
        raise ParameterError(
            "training data must span at least 2 domains (adversary undefined)"
        )
    dom_index = {d: i for i, d in enumerate(domain_names)}
    domains = np.array([dom_index[m.domain] for m in metas], dtype=np.int64)

    rng = RngState(cfg.seed)
    params = init_params(
        gm.gene_names, len(domain_names), rng,
        hidden=cfg.enc_hidden, d=cfg.enc_out, disc_hidden=cfg.disc_hidden,
        dtype=np.float32,
    )
    largest = max(gm.values.max(), -gm.values.min())
    if largest > np.finfo(np.float32).max:
        raise ParameterError(
            f"fit expects standardized input, but the largest |value| is "
            f"{largest:.6g}, beyond float32's range"
        )
    x_all = gm.values.astype(np.float32)
    optim = Adam(params.values, params.grads, cfg.lr)
    grl = GrlConfig(cfg.grl_coefficient)

    logs: list[EpochLog] = []
    # A diverging run overflows before the loss check below names the batch;
    # that typed error is the report, so numpy's warnings are silenced.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            batches = make_batches(n, cfg.batch_size, rng)
            sums = np.zeros(3)
            for batch_index, idx in enumerate(batches):
                terms = batch_objective(
                    x_all[idx], responses[idx], domains[idx], params, grl,
                    cfg.lambda1, cfg.lambda2, rng, cfg.dropout_p,
                )
                for name, value in zip(("l_asy", "l_adv", "l_cls"), terms):
                    if not math.isfinite(value):
                        raise TrainingDivergedError(
                            f"training diverged at epoch {epoch}, batch index "
                            f"{batch_index}: {name} = {value}"
                        )
                optim.step()
                sums += terms
            means = sums / len(batches)
            breakdown = total_loss(means[0], means[1], means[2], cfg.lambda1, cfg.lambda2)
            scores = _score(x_all, params)
            if not np.isfinite(scores).all():
                raise TrainingDivergedError(
                    f"training diverged at epoch {epoch}: non-finite training scores"
                )
            logs.append(EpochLog(epoch, breakdown, auroc(scores, responses)))
    # Adam's moments go before the float64 arena is written, so the cast
    # does not raise the peak; float32 to float64 is exact
    del optim
    return params.astype(np.float64), logs


def train_checkpoint(
    gm: GeneMatrix,
    metas: Sequence[SampleMeta],
    cfg: TrainConfig,
    hvg: Optional[int] = None,
) -> tuple[Checkpoint, list[EpochLog], GeneMatrix]:
    """Fit preprocessing and the model on raw, row-aligned training data.

    Keeps the ``hvg`` most variable genes (all when ``None``), standardizes
    them with statistics fit here, trains, and returns the checkpoint that
    :func:`predict` scores new samples with, the epoch logs, and the
    standardized rows the model was fit on.
    """
    if hvg is not None:
        gm = select_hvg(gm, hvg)
    gm, stats = zscore_fit_apply(gm)
    params, logs = fit(gm, metas, cfg)
    ckpt = Checkpoint(
        params=params,
        stats=stats,
        grl=GrlConfig(cfg.grl_coefficient),
        train_config=asdict(cfg),
        domains=sorted({m.domain for m in metas}),
    )
    return ckpt, logs, gm


def predict(gm: GeneMatrix, ckpt: Checkpoint) -> np.ndarray:
    """Score new samples: align genes, apply stored standardization, run
    the eval-mode forward pass, return P(sensitive) per sample."""
    # the aligned copy is dropped once standardized, before scoring
    standardized, _ = zscore_fit_apply(align_genes(gm, ckpt.params.gene_list), ckpt.stats)
    return _score(standardized.values, ckpt.params)


def write_log_csv(path, logs: Sequence[EpochLog]):
    write_table(
        path,
        ["epoch", "l_asy", "l_adv", "l_cls", "total", "train_auc"],
        ([log.epoch, log.losses.l_asy, log.losses.l_adv, log.losses.l_cls,
          log.losses.total, log.train_auc] for log in logs),
    )
