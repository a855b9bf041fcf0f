"""Metrics and experiment harnesses.

AUROC and the ROC sweep both come from one integer count per tie group:
the cumulative negatives and positives at or above each distinct score.
The area under those vertices is the Mann-Whitney statistic with ties
counted half.  The leave-one-domain-out harness refits preprocessing
inside every fold, so held-out samples can never touch normalization
statistics or training.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .data import GeneMatrix, SampleMeta, lodo_split, match_metadata, subset_samples, write_table
from .errors import ParameterError
from .model import Checkpoint
from .train import EpochLog, TrainConfig, predict, train_checkpoint

# A domain is held out only with this many test samples of each class.
MIN_TEST_PER_CLASS = 3


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class RocResult:
    auroc: float
    points: list[tuple[float, float]]


def _check_binary(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ParameterError("scores and labels must have equal length")
    if not np.isfinite(scores).all():
        raise ParameterError("scores must be finite")
    pos = labels == 1
    bad = ~pos & (labels != 0)
    if bad.any():
        raise ParameterError(f"labels must be 0 or 1, got {labels[bad].tolist()[0]!r}")
    if not (pos.any() and not pos.all()):
        raise ParameterError("AUROC needs both classes present")
    return scores, pos


def _roc_counts(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative (negative, positive) counts at or above each distinct
    score, descending, from (0, 0): the ROC's vertices in integers."""
    scores, pos = _check_binary(scores, labels)
    order = np.argsort(-scores, kind="mergesort")
    ordered = scores[order]
    ends = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], True))
    tp = np.concatenate(([0], np.cumsum(pos[order])[ends]))
    return np.concatenate(([0], ends + 1)) - tp, tp


def _area(fp: np.ndarray, tp: np.ndarray) -> float:
    """Trapezoid area under the count vertices: twice it is an exact
    integer, divided once, so the result is correctly rounded."""
    twice = int(np.dot(np.diff(fp), tp[1:] + tp[:-1]))
    return twice / (2 * int(tp[-1]) * int(fp[-1]))


def auroc(scores, labels) -> float:
    """P(score of a random positive > score of a random negative), ties
    counted half."""
    return _area(*_roc_counts(scores, labels))


def roc_points(scores, labels) -> RocResult:
    """Threshold sweep over distinct scores, descending.

    Consecutive collinear points are merged (exactly, on the integer
    tie-group counts), so e.g. a perfectly separating score list yields
    the three corners (0,0), (0,1), (1,1).  The area is :func:`auroc`'s.
    """
    fp, tp = _roc_counts(scores, labels)
    merged: list[tuple[int, int]] = []
    for pt in zip(fp.tolist(), tp.tolist()):
        while len(merged) >= 2:
            (x0, y0), (x1, y1) = merged[-2], merged[-1]
            if (x1 - x0) * (pt[1] - y1) == (y1 - y0) * (pt[0] - x1):
                merged.pop()
            else:
                break
        merged.append(pt)
    n_neg, n_pos = merged[-1]
    points = [(f / n_neg, t / n_pos) for f, t in merged]
    return RocResult(auroc=_area(fp, tp), points=points)


# ---------------------------------------------------------------------------
# Leave-one-domain-out harness
# ---------------------------------------------------------------------------

@dataclass
class FoldResult:
    """One held-out domain: its rows' scores and labels, and their ROC."""

    domain: str
    scores: np.ndarray
    labels: np.ndarray
    roc: RocResult


@dataclass
class LodoReport:
    entries: list[FoldResult]
    mean_auroc: float


def _labeled(gm: GeneMatrix, metas: Sequence[SampleMeta]) -> list[SampleMeta]:
    """``metas`` aligned to ``gm``; refused, before any fold trains, unless
    every row has a response."""
    metas = match_metadata(gm, metas)
    if any(m.response is None for m in metas):
        raise ParameterError("all responses must be set before LODO; binarize ic50 first")
    return metas


def run_fold(
    gm: GeneMatrix,
    metas: Sequence[SampleMeta],
    held_out_domain: str,
    cfg: TrainConfig,
    hvg: Optional[int] = None,
) -> tuple[FoldResult, Checkpoint, list[EpochLog]]:
    """Train with one domain held out and score that domain; returns the
    fold with the checkpoint and logs it was scored with.

    Gene selection and standardization are fit on the training rows only;
    the held-out rows are then pushed through :func:`predict` against the
    fold checkpoint, exactly as an external dataset would be.
    """
    metas = _labeled(gm, metas)
    train_idx, test_idx = lodo_split(metas, held_out_domain)
    ckpt, logs, _ = train_checkpoint(
        subset_samples(gm, train_idx), [metas[i] for i in train_idx], cfg, hvg
    )
    scores = predict(subset_samples(gm, test_idx), ckpt)
    labels = np.array([metas[i].response for i in test_idx], dtype=np.int64)
    return FoldResult(held_out_domain, scores, labels, roc_points(scores, labels)), ckpt, logs


def eligible_domains(metas: Sequence[SampleMeta]) -> list[str]:
    """Domains with at least MIN_TEST_PER_CLASS samples of each response
    class; the rest stay in training but are never held out."""
    counts = Counter((m.domain, m.response) for m in metas)
    return [d for d in sorted({m.domain for m in metas})
            if min(counts[d, 0], counts[d, 1]) >= MIN_TEST_PER_CLASS]


def lodo_run(
    gm: GeneMatrix,
    metas: Sequence[SampleMeta],
    cfg: TrainConfig,
    *,
    hvg: Optional[int] = None,
) -> LodoReport:
    """Hold out each eligible domain in turn; report each fold's held-out
    scores, labels and ROC."""
    metas = _labeled(gm, metas)
    if len({m.domain for m in metas}) < 2:
        raise ParameterError("LODO needs at least 2 domains")
    targets = eligible_domains(metas)
    if not targets:
        raise ParameterError(
            f"no domain has MIN_TEST_PER_CLASS = {MIN_TEST_PER_CLASS} or more "
            "samples of each class"
        )
    # each fold's checkpoint is dropped as soon as the fold is scored, so one
    # fold model is alive at a time
    entries = [run_fold(gm, metas, domain, cfg, hvg)[0] for domain in targets]
    mean_auroc = float(np.mean([e.roc.auroc for e in entries]))
    return LodoReport(entries=entries, mean_auroc=mean_auroc)


# ---------------------------------------------------------------------------
# FAAC ablation
# ---------------------------------------------------------------------------

@dataclass
class AblationRow:
    seed: int
    faac_on: bool
    domain: str
    auroc: float


@dataclass
class AblationResult:
    rows: list[AblationRow]
    mean_on: float
    mean_off: float
    delta: float
    per_domain_delta: dict[str, float]


def ablate_faac(
    gm: GeneMatrix,
    metas: Sequence[SampleMeta],
    cfg: TrainConfig,
    seeds: Sequence[int],
    *,
    hvg: Optional[int] = None,
) -> AblationResult:
    """Run the LODO harness with the clustering constraint on and off
    (``lambda1 = 0``) for each seed and compare mean held-out AUROC."""
    if len(seeds) < 2:
        raise ParameterError("ablation needs at least 2 seeds")
    if len(set(seeds)) != len(seeds):
        raise ParameterError(f"ablation seeds must be distinct, got {list(seeds)}")
    if cfg.lambda1 == 0:
        raise ParameterError("ablation needs lambda1 > 0; at 0 both arms train the same model")
    rows: list[AblationRow] = []
    for seed in seeds:
        for faac_on in (True, False):
            run_cfg = replace(cfg, seed=seed, lambda1=cfg.lambda1 if faac_on else 0.0)
            report = lodo_run(gm, metas, run_cfg, hvg=hvg)
            rows.extend(
                AblationRow(seed, faac_on, e.domain, e.roc.auroc)
                for e in report.entries
            )

    def mean(faac_on, domain=None):
        return float(np.mean([r.auroc for r in rows if r.faac_on == faac_on
                              and domain in (None, r.domain)]))

    mean_on, mean_off = mean(True), mean(False)
    per_domain = {d: mean(True, d) - mean(False, d) for d in sorted({r.domain for r in rows})}
    return AblationResult(rows, mean_on, mean_off, mean_on - mean_off, per_domain)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_roc_csv(path, roc: RocResult):
    write_table(path, ["fpr", "tpr"], roc.points)


def _class_counts(labels: np.ndarray) -> list[int]:
    """n_test, n_pos and n_neg of 0/1 labels."""
    n_pos = int(np.count_nonzero(labels == 1))
    return [labels.size, n_pos, labels.size - n_pos]


def write_report_csv(path, report: LodoReport):
    rows = [[e.domain, *_class_counts(e.labels), e.roc.auroc] for e in report.entries]
    every = np.concatenate([e.labels for e in report.entries])
    rows.append(["ALL", *_class_counts(every), report.mean_auroc])
    write_table(path, ["domain", "n_test", "n_pos", "n_neg", "auroc"], rows)


def write_ablation_csv(path, result: AblationResult):
    rows = ([r.seed, int(r.faac_on), r.domain, r.auroc] for r in result.rows)
    write_table(path, ["seed", "faac", "domain", "auroc"], rows)

