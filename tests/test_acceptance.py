"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
criterion 5 trains 60 small models and dominates the runtime (about one
minute on a laptop, well inside its ten-minute budget).
"""

import json
import time

import numpy as np

from fourierdg.cli import run as cli_run
from fourierdg.data import GeneMatrix, SampleMeta, binarize_ic50, select_hvg
from fourierdg.evaluate import ablate_faac, auroc, roc_points, run_fold
from fourierdg.fourier import build_basis, project, reconstruct
from fourierdg.losses import (
    asymmetric_loss,
    classification_loss,
    domain_adversarial_loss,
    total_loss,
)
from fourierdg.model import gradient_suite, load_checkpoint, save_checkpoint
from fourierdg.synth import SynthConfig, generate
from fourierdg.train import TrainConfig

# Frozen fixture for the synthetic leave-one-domain-out criterion.  The
# thresholds below were calibrated by running this exact configuration:
# mean AUROC with the clustering constraint on was 0.962, without it
# 0.956, and the gap was positive for every seed and every domain.  Since
# fit trains in float32 and the classifier loss reads the logit, the run
# reads 0.9619 and 0.9553 (delta +0.0066), still positive for every seed
# and every domain; the verdict line prints both counts.
LODO_SEEDS = [1, 2, 3, 4, 5]
LODO_CFG = TrainConfig(
    lr=1e-3, batch_size=64, epochs=30, seed=1,
    enc_hidden=128, enc_out=64, disc_hidden=32,
)


def verdict(name: str, ok: bool, detail: str):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


class TestCriterion1Gradients:
    def test_end_to_end_gradient_suite(self):
        start = time.time()
        err = gradient_suite()
        elapsed = time.time() - start
        verdict(
            "C1 gradient-suite",
            err <= 1e-4 and elapsed < 10.0,
            f"max_rel_err={err:.3e} tol=1e-4, runtime={elapsed:.2f}s budget=10s",
        )


class TestCriterion2FourierAlgebra:
    DIMS = (2, 4, 8, 64, 740)

    def test_fourier_algebra(self):
        rng = np.random.default_rng(20)
        worst_orth = worst_parseval = worst_round = worst_unit = 0.0
        min_raw_fails = 100
        for d in self.DIMS:
            basis = build_basis(d)
            b = basis.matrix
            gram = b @ b.T
            worst_orth = max(
                worst_orth,
                float(np.abs(gram - np.diag(np.diag(gram))).max() / (1e-9 * d)),
            )
            h = rng.standard_normal((8, d))
            z = project(h, basis)
            energy_h = (h ** 2).sum(axis=1)
            rel = np.abs((z ** 2 / basis.norms_sq).sum(axis=1) - energy_h) / energy_h
            worst_parseval = max(worst_parseval, float(rel.max()))
            worst_round = max(
                worst_round, float(np.abs(reconstruct(z, basis) - h).max())
            )
            unit = b / np.linalg.norm(b, axis=1, keepdims=True)
            raw_fails = 0
            for _ in range(100):
                h1, h2 = rng.standard_normal(d), rng.standard_normal(d)
                ch = h1 @ h2 / (np.linalg.norm(h1) * np.linalg.norm(h2))
                zu1, zu2 = unit @ h1, unit @ h2
                cu = zu1 @ zu2 / (np.linalg.norm(zu1) * np.linalg.norm(zu2))
                worst_unit = max(worst_unit, abs(float(cu - ch)))
                zr1, zr2 = b @ h1, b @ h2
                cr = zr1 @ zr2 / (np.linalg.norm(zr1) * np.linalg.norm(zr2))
                if abs(float(cr - ch)) > 1e-9:
                    raw_fails += 1
            if d == 2:
                # both d=2 rows share norm sqrt(2): the raw transform is a
                # scaled isometry, so the inequality clause cannot apply
                ok_d2 = raw_fails == 0
                verdict(
                    "C2 fourier-algebra d=2-isometry",
                    ok_d2,
                    "raw cosines agree at d=2 (rows share a norm); "
                    "non-isometry clause applies to d>=4",
                )
            else:
                min_raw_fails = min(min_raw_fails, raw_fails)
        ok = (
            worst_orth <= 1.0
            and worst_parseval <= 1e-9
            and worst_round <= 1e-9
            and worst_unit <= 1e-9
            and min_raw_fails >= 99
        )
        verdict(
            "C2 fourier-algebra",
            ok,
            f"orthogonality(frac of 1e-9*d)={worst_orth:.2e}, "
            f"parseval={worst_parseval:.2e}, roundtrip={worst_round:.2e}, "
            f"unit-cosine={worst_unit:.2e}, raw fails>={min_raw_fails}/100",
        )


class TestCriterion3LossIdentities:
    def test_loss_identities(self):
        e1 = asymmetric_loss(
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [1, 1, 0]
        )[0]
        e2 = asymmetric_loss(
            np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), [1, 1, 0]
        )[0]
        e3 = asymmetric_loss(
            np.array([[1.0, 0.0], [np.sqrt(0.5), np.sqrt(0.5)]]), [1, 0]
        )[0]
        asy_ok = (
            abs(e1 - (-1.0)) <= 1e-9
            and abs(e2) <= 1e-9
            and abs(e3 - np.sqrt(0.5)) <= 1e-9
        )
        adv_ok = True
        for m in (2, 3, 4, 7):
            loss, _ = domain_adversarial_loss(np.zeros((5, m)), [0, 1, 0, 1, 0])
            adv_ok = adv_ok and abs(loss - np.log(m)) <= 1e-12
        bce, _ = classification_loss([0.0, 0.0, 0.0], [1, 0, 1])
        bce_ok = abs(bce - np.log(2)) <= 1e-12
        lin_ok = True
        for l1 in (0.0, 0.3, 1.0, 2.5):
            for l2 in (0.0, 1.0, 4.0):
                breakdown = total_loss(-0.7, 0.9, 0.4, l1, l2)
                lin_ok = lin_ok and breakdown.total == 0.9 + l1 * -0.7 + l2 * 0.4
        verdict(
            "C3 loss-identities",
            asy_ok and adv_ok and bce_ok and lin_ok,
            f"asy=({e1:.10f},{e2:.1e},{e3:.10f}), lnM exact={adv_ok}, "
            f"bce-ln2 exact={bce_ok}, total linear exact={lin_ok}",
        )


class TestCriterion4AurocOracle:
    def test_rank_vs_brute_force(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 31))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.integers(0, 6, n) / 5.0
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            brute = (wins + 0.5 * ties) / (pos.size * neg.size)
            worst = max(worst, abs(auroc(scores, labels) - brute))
        rng2 = np.random.default_rng(5)
        worst_trap = 0.0
        for _ in range(200):
            labels = rng2.integers(0, 2, 40)
            labels[0], labels[1] = 0, 1
            scores = rng2.integers(0, 9, 40) / 8.0
            worst_trap = max(
                worst_trap, abs(roc_points(scores, labels).auroc - auroc(scores, labels))
            )
        verdict(
            "C4 auroc-oracle",
            worst <= 1e-12 and worst_trap <= 1e-9,
            f"rank-vs-brute max diff={worst:.2e} (tol 1e-12), "
            f"trapezoid-vs-rank max diff={worst_trap:.2e} (tol 1e-9)",
        )


class TestCriterion5SyntheticLodo:
    def test_faac_direction_on_synthetic_benchmark(self):
        start = time.time()
        gm, metas = generate(SynthConfig())
        result = ablate_faac(gm, metas, LODO_CFG, seeds=LODO_SEEDS)
        elapsed = time.time() - start
        expected_rows = len(LODO_SEEDS) * 2 * 6  # all 6 default domains eligible
        seed_deltas = [
            np.mean([r.auroc for r in result.rows if r.seed == seed and r.faac_on])
            - np.mean([r.auroc for r in result.rows if r.seed == seed and not r.faac_on])
            for seed in LODO_SEEDS
        ]
        positive_domains = sum(v > 0 for v in result.per_domain_delta.values())
        ok = (
            result.mean_on >= 0.85
            and result.delta > 0.0
            and len(result.rows) == expected_rows
            and elapsed < 600.0
        )
        verdict(
            "C5 synthetic-lodo",
            ok,
            f"mean_on={result.mean_on:.4f} (>=0.85), mean_off={result.mean_off:.4f}, "
            f"delta={result.delta:+.4f} (>0 over {len(LODO_SEEDS)} seeds), "
            f"seed deltas=[{', '.join(f'{v:+.4f}' for v in seed_deltas)}], "
            f"domains with positive seed-mean delta="
            f"{positive_domains}/{len(result.per_domain_delta)}, "
            f"rows={len(result.rows)}/{expected_rows}, "
            f"runtime={elapsed:.0f}s budget=600s",
        )


class TestCriterion6Determinism:
    def test_byte_identical_runs(self, tmp_path):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(
            json.dumps({"domains": 3, "genes": 40, "per_domain": 30, "seed": 5})
        )
        expr, meta = tmp_path / "e.csv", tmp_path / "m.csv"
        assert cli_run(["synth", "--config", str(cfg_path),
                        "--out-expr", str(expr), "--out-meta", str(meta)]) == 0
        outputs = []
        for tag in ("a", "b"):
            ck = tmp_path / f"ck_{tag}.json"
            log = tmp_path / f"log_{tag}.csv"
            rc = cli_run([
                "train", "--expr", str(expr), "--meta", str(meta),
                "--epochs", "4", "--batch", "16", "--lr", "1e-3", "--seed", "11",
                "--enc-hidden", "32", "--enc-out", "16", "--disc-hidden", "8",
                "--out-checkpoint", str(ck), "--out-log", str(log),
            ])
            assert rc == 0
            outputs.append((ck.read_bytes(), log.read_bytes()))
        same_bytes = outputs[0] == outputs[1]
        ck_first = tmp_path / "ck_a.json"
        resaved = tmp_path / "ck_resaved.json"
        save_checkpoint(resaved, load_checkpoint(ck_first))
        round_trip = resaved.read_bytes() == ck_first.read_bytes()
        verdict(
            "C6 determinism",
            same_bytes and round_trip,
            f"checkpoint+log bytes identical={same_bytes}, "
            f"save-load-save bitwise={round_trip}",
        )


class TestCriterion7LeakageGuard:
    def test_held_out_values_cannot_leak(self, tmp_path):
        gm, metas = generate(SynthConfig(domains=3, genes=40, per_domain=30, seed=9))
        cfg = TrainConfig(
            lr=1e-3, batch_size=16, epochs=4, seed=3,
            enc_hidden=32, enc_out=16, disc_hidden=8,
        )
        _, ckpt, _ = run_fold(gm, metas, "D1", cfg, hvg=30)
        corrupted = gm.values.copy()
        held_out_rows = [i for i, m in enumerate(metas) if m.domain == "D1"]
        corrupted[held_out_rows, :] = 1e6 * np.sin(np.arange(corrupted.shape[1]))
        gm_corrupted = GeneMatrix(gm.sample_ids, gm.gene_names, corrupted)
        _, ckpt_cor, _ = run_fold(gm_corrupted, metas, "D1", cfg, hvg=30)
        stats_same = np.array_equal(ckpt.stats.mean, ckpt_cor.stats.mean) and np.array_equal(
            ckpt.stats.std, ckpt_cor.stats.std)
        # the saved files hold every trained array's bytes after the header
        saved = []
        for tag, trained in (("clean", ckpt), ("corrupted", ckpt_cor)):
            save_checkpoint(tmp_path / tag, trained)
            saved.append((tmp_path / tag).read_bytes())
        params_same = saved[0] == saved[1]
        verdict(
            "C7 leakage-guard",
            stats_same and params_same,
            f"norm stats invariant={stats_same}, trained params invariant={params_same}",
        )


class TestCriterion8PreprocessingFixtures:
    def test_binarize_fixture(self):
        metas = [SampleMeta(f"s{i}", "d", ic50=v)
                 for i, v in enumerate([1.0, 2.0, 3.0, 6.0])]
        labels = [m.response for m in binarize_ic50(metas)]
        verdict(
            "C8 binarize-fixture", labels == [1, 1, 0, 0],
            f"ic50 [1,2,3,6] -> {labels}",
        )

    def test_hvg_fixture(self):
        gm = GeneMatrix(
            ["s1", "s2", "s3", "s4"], ["g1", "g2", "g3"],
            np.array([[2.0, 0.0, 0.0], [2.0, 2.0, 2.0],
                      [2.0, 4.0, 0.0], [2.0, 6.0, 2.0]]),
        )
        kept = select_hvg(gm, 2).gene_names
        verdict(
            "C8 hvg-fixture", kept == ["g2", "g3"],
            f"variances (0,5,1), k=2 -> {kept}",
        )

    def test_cli_defaults_resolved(self, tmp_path, capsys):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(
            json.dumps({"domains": 3, "genes": 30, "per_domain": 20, "seed": 2})
        )
        expr, meta = tmp_path / "e.csv", tmp_path / "m.csv"
        assert cli_run(["synth", "--config", str(cfg_path),
                        "--out-expr", str(expr), "--out-meta", str(meta)]) == 0
        capsys.readouterr()
        rc = cli_run([
            "train", "--expr", str(expr), "--meta", str(meta),
            "--epochs", "1", "--batch", "16",
            "--enc-hidden", "16", "--enc-out", "8", "--disc-hidden", "4",
            "--out-checkpoint", str(tmp_path / "c.json"),
            "--out-log", str(tmp_path / "l.csv"),
        ])
        out = capsys.readouterr().out
        config_line = next(
            ln for ln in out.splitlines() if ln.startswith("config: command=train")
        )
        ok = (
            rc == 0
            and "lr=8e-05" in config_line
            and "dropout=0.1" in config_line
            and "hvg=3000" in config_line
        )
        verdict(
            "C8 cli-defaults", ok,
            "resolved-config line carries lr=8e-05 dropout=0.1 hvg=3000",
        )
