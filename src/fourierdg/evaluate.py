"""Metrics and experiment harnesses.

AUROC uses the Mann-Whitney rank statistic with midranks for ties; the
ROC sweep is built from integer tie-group counts and reports that same
statistic as its area.  The leave-one-domain-out harness
refits preprocessing inside every fold, so held-out samples can never
touch normalization statistics or training.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .data import GeneMatrix, SampleMeta, lodo_split, match_metadata, subset_samples, write_table
from .errors import ConfigurationError, MetricError, ParameterError, ReportError
from .model import Checkpoint
from .train import EpochLog, TrainConfig, predict, train_checkpoint


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
        raise MetricError("scores and labels must have equal length")
    if not np.isfinite(scores).all():
        raise MetricError("scores must be finite")
    if not ((labels == 1).any() and (labels != 1).any()):
        raise MetricError("AUROC needs both classes present")
    return scores, (labels == 1)


def _group_ends(xs: np.ndarray) -> np.ndarray:
    """Index of the last element of each run of equal values in sorted
    ``xs``; NaN equals nothing, so each NaN is a run of its own."""
    last = np.ones(xs.size, dtype=bool)
    np.not_equal(xs[1:], xs[:-1], out=last[:-1])
    return np.flatnonzero(last)


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, ties receiving the mean of their positions."""
    order = np.argsort(x, kind="mergesort")
    ends = _group_ends(x[order])
    counts = np.diff(ends, prepend=-1)
    starts = ends - counts + 1
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, counts)
    return ranks


def auroc(scores, labels) -> float:
    """P(score of a random positive > score of a random negative), ties
    counted half."""
    scores, pos = _check_binary(scores, labels)
    ranks = _midranks(scores)
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    return float(
        (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    )


def roc_points(scores, labels) -> RocResult:
    """Threshold sweep over distinct scores, descending.

    Consecutive collinear points are merged (exactly, on the integer
    tie-group counts), so e.g. a perfectly separating score list yields
    the three corners (0,0), (0,1), (1,1).  The area is :func:`auroc`.
    """
    scores, pos = _check_binary(scores, labels)
    order = np.argsort(-scores, kind="mergesort")
    ends = _group_ends(scores[order])
    tp = np.cumsum(pos[order])[ends]
    counts = [(0, 0), *zip((ends + 1 - tp).tolist(), tp.tolist())]
    merged = [counts[0]]
    for pt in counts[1:]:
        while len(merged) >= 2:
            (x0, y0), (x1, y1) = merged[-2], merged[-1]
            if (x1 - x0) * (pt[1] - y1) == (y1 - y0) * (pt[0] - x1):
                merged.pop()
            else:
                break
        merged.append(pt)
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    points = [(f / n_neg, t / n_pos) for f, t in merged]
    return RocResult(auroc=auroc(scores, labels), points=points)


def top2_components(features) -> tuple[np.ndarray, np.ndarray]:
    """Leading two principal directions of the sample covariance.

    Eigenvectors of the two largest eigenvalues (``np.linalg.eigh``); signs
    are fixed so the largest-magnitude loading is positive.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 3 or x.shape[1] < 2:
        raise ParameterError("need at least 3 samples and 2 features")
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / x.shape[0]
    _, vecs = np.linalg.eigh(cov)  # eigenvalues ascending
    v1, v2 = vecs[:, -1], vecs[:, -2]
    return tuple(-v if v[np.argmax(np.abs(v))] < 0 else v for v in (v1, v2))


def embed_2d(features) -> np.ndarray:
    """Mean-centered projection onto the top-2 principal components."""
    x = np.asarray(features, dtype=np.float64)
    v1, v2 = top2_components(x)
    xc = x - x.mean(axis=0)
    return np.column_stack([xc @ v1, xc @ v2])


def feature_ic50_r2(features, ic50) -> float:
    """In-sample R^2 of a ridge-stabilized linear fit (intercept included,
    ridge 1e-8 applied unconditionally)."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(ic50, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[0] != y.size:
        raise ParameterError("features rows must match ic50 length")
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise MetricError("ic50 has zero variance; R^2 undefined")
    design = np.column_stack([np.ones(y.size), x])
    gram = design.T @ design + 1e-8 * np.eye(design.shape[1])
    beta = np.linalg.solve(gram, design.T @ y)
    resid = y - design @ beta
    return 1.0 - float((resid @ resid)) / ss_tot


# ---------------------------------------------------------------------------
# Leave-one-domain-out harness
# ---------------------------------------------------------------------------

@dataclass
class DomainResult:
    domain: str
    n_test: int
    n_pos: int
    n_neg: int
    roc: RocResult


@dataclass
class LodoReport:
    entries: list[DomainResult]
    mean_auroc: float


@dataclass
class FoldResult:
    domain: str
    checkpoint: Checkpoint
    logs: list[EpochLog]
    scores: np.ndarray
    labels: np.ndarray
    roc: RocResult


def run_fold(
    gm: GeneMatrix,
    metas: Sequence[SampleMeta],
    held_out_domain: str,
    cfg: TrainConfig,
    hvg: Optional[int] = None,
) -> FoldResult:
    """Train with one domain held out and score that domain.

    Gene selection and standardization are fit on the training rows only;
    the held-out rows are then pushed through :func:`predict` against the
    fold checkpoint, exactly as an external dataset would be.
    """
    metas = match_metadata(gm, metas)
    train_idx, test_idx = lodo_split(metas, held_out_domain)
    ckpt, logs = train_checkpoint(
        subset_samples(gm, train_idx), [metas[i] for i in train_idx], cfg, hvg
    )
    scores = predict(subset_samples(gm, test_idx), ckpt)
    labels = np.array([metas[i].response for i in test_idx], dtype=np.int64)
    return FoldResult(
        domain=held_out_domain,
        checkpoint=ckpt,
        logs=logs,
        scores=scores,
        labels=labels,
        roc=roc_points(scores, labels),
    )


def eligible_domains(
    metas: Sequence[SampleMeta], min_test_per_class: int
) -> list[str]:
    """Domains with at least min_test_per_class samples of each response
    class; the rest stay in training but are never held out."""
    domains = sorted({m.domain for m in metas})
    out = []
    for d in domains:
        n_pos = sum(1 for m in metas if m.domain == d and m.response == 1)
        n_neg = sum(1 for m in metas if m.domain == d and m.response == 0)
        if n_pos >= min_test_per_class and n_neg >= min_test_per_class:
            out.append(d)
    return out


def lodo_run(
    gm: GeneMatrix,
    metas: Sequence[SampleMeta],
    cfg: TrainConfig,
    min_test_per_class: int = 3,
    hvg: Optional[int] = None,
) -> LodoReport:
    """Hold out each eligible domain in turn; report per-domain ROC."""
    if min_test_per_class < 1:
        raise ParameterError(f"min_test_per_class must be >= 1, got {min_test_per_class}")
    metas = match_metadata(gm, metas)
    if any(m.response is None for m in metas):
        raise ConfigurationError(
            "all responses must be set before LODO; binarize ic50 first"
        )
    if len({m.domain for m in metas}) < 2:
        raise ConfigurationError("LODO needs at least 2 domains")
    targets = eligible_domains(metas, min_test_per_class)
    if not targets:
        raise ReportError(
            f"no domain has {min_test_per_class}+ samples of each class"
        )
    folds = [run_fold(gm, metas, domain, cfg, hvg) for domain in targets]
    entries = [
        DomainResult(
            domain=f.domain,
            n_test=int(f.labels.size),
            n_pos=int((f.labels == 1).sum()),
            n_neg=int((f.labels == 0).sum()),
            roc=f.roc,
        )
        for f in folds
    ]
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
    min_test_per_class: int = 3,
    hvg: Optional[int] = None,
) -> AblationResult:
    """Run the LODO harness with the clustering constraint on and off
    (``lambda1 = 0``) for each seed and compare mean held-out AUROC."""
    if len(seeds) < 2:
        raise ParameterError("ablation needs at least 2 seeds")
    rows: list[AblationRow] = []
    for seed in seeds:
        for faac_on in (True, False):
            run_cfg = replace(cfg, seed=seed, lambda1=cfg.lambda1 if faac_on else 0.0)
            report = lodo_run(gm, metas, run_cfg, min_test_per_class, hvg)
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


def write_report_csv(path, report: LodoReport):
    entries = report.entries
    rows = [[e.domain, e.n_test, e.n_pos, e.n_neg, e.roc.auroc] for e in entries]
    rows.append(["ALL", sum(e.n_test for e in entries), sum(e.n_pos for e in entries),
                 sum(e.n_neg for e in entries), report.mean_auroc])
    write_table(path, ["domain", "n_test", "n_pos", "n_neg", "auroc"], rows)


def write_ablation_csv(path, result: AblationResult):
    rows = ([r.seed, int(r.faac_on), r.domain, r.auroc] for r in result.rows)
    write_table(path, ["seed", "faac", "domain", "auroc"], rows)


def write_embedding_csv(path, sample_ids, coords, labels):
    coords = np.asarray(coords, dtype=np.float64)
    rows = ([sid, x, y, lab] for sid, (x, y), lab in zip(sample_ids, coords, labels))
    write_table(path, ["sample_id", "x", "y", "label"], rows)
