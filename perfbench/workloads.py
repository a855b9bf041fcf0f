"""The three benchmark workloads: inputs, one timed op, and its checks.

Each workload builds every input with ``fourierdg.generate`` from the
workload seed, so the library only ever sees generated data.  ``op``
runs the timed library calls and returns their output with the seconds
of each stage; ``check`` verifies that output untimed and returns the
problems found plus a fingerprint, which must be identical for every op
of a run (same inputs and seed, so the library must give the same result).

* ``train_ref`` - one ``fit`` at the reference widths (1024/740/256, batch
  64, dropout 0.1) on a standardized 6 x 100 x 1,000 synth.  The only
  workload where large BLAS matmuls and the 2M-parameter Adam step
  dominate.  No file I/O, no checkpoint.
* ``lodo_grid`` - one ``lodo_run`` with the C5 acceptance config
  (128/64/32, lr 1e-3, 30 epochs, batch 64, seed 1) on the default
  6 x 100 x 200 synth: 6 folds of small models, where Python per-call
  overhead dominates.
* ``score_io`` - the hand-off from training to scoring at reference
  widths: save and load a checkpoint, write and read a 1,200 x 1,000
  scoring cohort as CSV, score it with ``predict``.  No backward pass and
  no Adam, so training optimisations should read "no change" here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fourierdg as fdg

# Scoring cohorts are drawn with a synth seed offset from the workload
# seed, so the model scores samples it never saw.
COHORT_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Sizes:
    genes: int
    per_domain: int
    cohort_per_domain: int
    train_epochs: int
    widths: dict
    lodo_genes: int
    lodo_per_domain: int
    lodo_epochs: int


REFERENCE = Sizes(
    genes=1000, per_domain=100, cohort_per_domain=200, train_epochs=3,
    widths={}, lodo_genes=200, lodo_per_domain=100, lodo_epochs=30,
)
# Only for the schema test: every code path, a fraction of a second per op.
TINY = Sizes(
    genes=40, per_domain=30, cohort_per_domain=20, train_epochs=2,
    widths={"enc_hidden": 32, "enc_out": 16, "disc_hidden": 8},
    lodo_genes=40, lodo_per_domain=30, lodo_epochs=15,
)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _params_digest(params) -> bytes:
    h = hashlib.sha256()
    for p in params.trainables():
        h.update(p.value.tobytes())
    for s in (params.bn1_stats, params.bn2_stats):
        h.update(s.mean.tobytes())
        h.update(s.var.tobytes())
    return h.digest()


class Workload:
    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir


class TrainRef(Workload):
    def setup(self):
        sz = self.sizes
        gm, metas = fdg.generate(fdg.SynthConfig(
            genes=sz.genes, per_domain=sz.per_domain, seed=self.seed))
        self.gm, _ = fdg.zscore_fit_apply(gm)
        self.metas = metas
        self.cfg = fdg.TrainConfig(epochs=sz.train_epochs, **sz.widths)

    def op(self):
        out, dt = _timed(fdg.fit, self.gm, self.metas, self.cfg)
        return out, {"fit": dt}

    def check(self, out):
        params, logs = out
        problems = []
        if not all(np.isfinite(p.value).all() for p in params.trainables()):
            problems.append("non-finite parameters")
        losses = [v for log in logs for v in dataclasses.astuple(log.losses)]
        if not np.isfinite(losses).all():
            problems.append("non-finite losses")
        return problems, _params_digest(params)

    def figures(self, stages) -> dict:
        n = len(self.gm.sample_ids)
        fit_s = float(np.median([st["fit"] for st in stages]))
        return {"train.samples_per_s": (n * self.cfg.epochs / fit_s, "1/s", "higher")}


class LodoGrid(Workload):
    FOLDS = 6
    AUROC_FLOOR = 0.85  # the C5 acceptance floor

    def setup(self):
        sz = self.sizes
        self.gm, self.metas = fdg.generate(fdg.SynthConfig(
            genes=sz.lodo_genes, per_domain=sz.lodo_per_domain, seed=self.seed))
        self.cfg = fdg.TrainConfig(
            lr=1e-3, batch_size=64, epochs=sz.lodo_epochs, seed=1,
            enc_hidden=128, enc_out=64, disc_hidden=32,
        )

    def op(self):
        # hvg as the CLI passes it: its default 3000, clamped to the gene count
        hvg = min(3000, len(self.gm.gene_names))
        report, dt = _timed(fdg.lodo_run, self.gm, self.metas, self.cfg, hvg=hvg)
        return report, {"lodo_run": dt}

    def check(self, report):
        problems = []
        if len(report.entries) != self.FOLDS:
            problems.append(f"{len(report.entries)} report entries, want {self.FOLDS}")
        if not report.mean_auroc >= self.AUROC_FLOOR:
            problems.append(f"mean_auroc {report.mean_auroc} below {self.AUROC_FLOOR}")
        self.mean_auroc = report.mean_auroc
        aurocs = np.array([e.roc.auroc for e in report.entries])
        return problems, aurocs.tobytes()

    def figures(self, stages) -> dict:
        sweep_s = float(np.median([st["lodo_run"] for st in stages]))
        return {
            "lodo.fits_per_s": (self.FOLDS / sweep_s, "1/s", "higher"),
            "lodo.mean_auroc": (self.mean_auroc, "auroc", "higher"),
        }


class ScoreIo(Workload):
    def setup(self):
        sz = self.sizes
        self.ckpt_path = self.workdir / "model.json"
        self.resave_path = self.workdir / "model_resaved.json"
        self.csv_path = self.workdir / "cohort.csv"
        gm, metas = fdg.generate(fdg.SynthConfig(
            genes=sz.genes, per_domain=sz.per_domain, seed=self.seed))
        gm_std, stats = fdg.zscore_fit_apply(gm)
        cfg = fdg.TrainConfig(epochs=1, **sz.widths)
        params, _ = fdg.fit(gm_std, metas, cfg)
        self.ckpt = fdg.Checkpoint(
            params=params, stats=stats, grl=fdg.GrlConfig(cfg.grl_coefficient),
            train_config=dataclasses.asdict(cfg),
            domains=sorted({m.domain for m in metas}),
        )
        self.cohort, _ = fdg.generate(fdg.SynthConfig(
            genes=sz.genes, per_domain=sz.cohort_per_domain,
            seed=self.seed + COHORT_SEED_OFFSET))
        self.scores = fdg.predict(self.cohort, self.ckpt)

    def op(self):
        stages = {}
        _, stages["save"] = _timed(fdg.save_checkpoint, self.ckpt_path, self.ckpt)
        loaded, stages["load"] = _timed(fdg.load_checkpoint, self.ckpt_path)
        _, stages["write"] = _timed(fdg.write_expression, self.csv_path, self.cohort)
        read, stages["read"] = _timed(fdg.load_expression, self.csv_path)
        scores, stages["predict"] = _timed(fdg.predict, read, loaded)
        return (loaded, read, scores), stages

    def check(self, out):
        loaded, read, scores = out
        problems = []
        fdg.save_checkpoint(self.resave_path, loaded)
        if self.resave_path.read_bytes() != self.ckpt_path.read_bytes():
            problems.append("save -> load -> save changed the checkpoint bytes")
        if (read.sample_ids != self.cohort.sample_ids
                or read.gene_names != self.cohort.gene_names
                or not np.array_equal(read.values, self.cohort.values)):
            problems.append("CSV read back differs from the values written")
        if not np.array_equal(scores, self.scores):
            problems.append("reloaded scores differ from in-memory scores")
        if not ((scores > 0) & (scores < 1)).all():
            problems.append("scores outside (0, 1)")
        self.ckpt_bytes = os.path.getsize(self.ckpt_path)
        self.csv_bytes = os.path.getsize(self.csv_path)
        return problems, scores.tobytes()

    def figures(self, stages) -> dict:
        def med(name):
            return float(np.median([st[name] for st in stages]))

        csv_mb = self.csv_bytes / 1e6
        return {
            "ckpt.save_s": (med("save"), "s", "lower"),
            "ckpt.load_s": (med("load"), "s", "lower"),
            "ckpt.mb": (self.ckpt_bytes / 1e6, "MB", "lower"),
            "export.mb_per_s": (csv_mb / med("write"), "MB/s", "higher"),
            "ingest.mb_per_s": (csv_mb / med("read"), "MB/s", "higher"),
            "predict.samples_per_s": (
                len(self.cohort.sample_ids) / med("predict"), "1/s", "higher"),
        }


WORKLOADS = {"train_ref": TrainRef, "lodo_grid": LodoGrid, "score_io": ScoreIo}
