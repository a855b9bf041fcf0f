"""Metrics against brute-force oracles, plus the LODO/ablation harnesses."""

import gc
import hashlib
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fourierdg.errors import ParameterError
from fourierdg.evaluate import (
    MIN_TEST_PER_CLASS,
    ablate_faac,
    auroc,
    eligible_domains,
    lodo_run,
    roc_points,
    run_fold,
    write_ablation_csv,
    write_report_csv,
    write_roc_csv,
)
from fourierdg.synth import SynthConfig, generate
from fourierdg.train import TrainConfig

TINY = dict(
    lr=1e-3, batch_size=16, epochs=4, seed=3,
    enc_hidden=32, enc_out=16, disc_hidden=8,
)


def brute_force_auroc(scores, labels):
    """Pairwise counting oracle: wins + half-ties over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def loop_midranks(x):
    """Tie-group walk: 1-based ranks, ties receiving the mean of their
    positions; the midrank statistic that auroc matches bitwise."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i: j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def loop_roc_points(scores, labels):
    """Tie-group walk with an exact collinear merge: the reference the
    vectorised ROC sweep matches bitwise."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    order = np.argsort(-scores, kind="mergesort")
    s_sorted, p_sorted = scores[order], pos[order]
    counts, tp, fp, i, n = [(0, 0)], 0, 0, 0, scores.size
    while i < n:
        j = i
        while j + 1 < n and s_sorted[j + 1] == s_sorted[i]:
            j += 1
        tp += int(p_sorted[i: j + 1].sum())
        fp += (j - i + 1) - int(p_sorted[i: j + 1].sum())
        counts.append((fp, tp))
        i = j + 1
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
    return [(f / (n - n_pos), t / n_pos) for f, t in merged]


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_interleaved(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        labels = [0, 1, 1, 0]
        assert auroc(scores, labels) == brute_force_auroc(scores, labels) == 0.5

    def test_all_ties(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ParameterError, match="AUROC needs both classes present"):
            auroc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("labels,first_bad", [
        ([2, 1, -1], "2"), ([0, 1, 0.5], "0.5"), ([0, 1, None], "None"),
    ])
    @pytest.mark.parametrize("metric", [auroc, roc_points])
    def test_labels_outside_0_1_rejected(self, metric, labels, first_bad):
        # every label other than 1 once counted as a negative: [2, 1, -1] read 1.0
        with pytest.raises(ParameterError, match=rf"^labels must be 0 or 1, got {first_bad}$"):
            metric([0.1, 0.9, 0.5], labels)

    @pytest.mark.parametrize("labels", [[False, True, False, True], [0.0, 1.0, 0.0, 1.0]])
    def test_bool_and_float_labels_accepted(self, labels):
        assert auroc([0.1, 0.9, 0.2, 0.8], labels) == 1.0
        assert roc_points([0.1, 0.9, 0.2, 0.8], labels).auroc == 1.0

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 31))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # coarse grid of score values forces plenty of ties
            scores = rng.integers(0, 6, n) / 5.0
            assert abs(auroc(scores, labels) - brute_force_auroc(scores, labels)) <= 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.random(40)
        labels = rng.integers(0, 2, 40)
        labels[0], labels[1] = 0, 1
        base = auroc(scores, labels)
        assert auroc(np.exp(5 * scores), labels) == pytest.approx(base, abs=1e-12)
        assert auroc(scores ** 3 + 7, labels) == pytest.approx(base, abs=1e-12)

    def test_complement_identity(self):
        rng = np.random.default_rng(2)
        scores = rng.integers(0, 4, 25) / 3.0
        labels = rng.integers(0, 2, 25)
        labels[0], labels[1] = 0, 1
        assert auroc(scores, labels) + auroc(scores, 1 - labels) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_bitwise_equal_to_midrank_statistic(self):
        def midrank_statistic(s, y):
            n_pos = int((y == 1).sum())
            n_neg = s.size - n_pos
            return (loop_midranks(s)[y == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)

        rng = np.random.default_rng(6)
        cases = [(np.array([0.0, -0.0, 0.0, -0.0, 1.0]), np.array([1, 0, 0, 1, 1]))]
        for _ in range(300):
            n = int(rng.integers(2, 400))
            labels = rng.integers(0, 2, n)
            labels[rng.choice(n, 2, replace=False)] = [0, 1]
            cases.append((rng.integers(0, int(rng.integers(1, 40)), n) / 7.0, labels))
        for s, y in cases:
            want = np.float64(midrank_statistic(s, y))
            assert np.float64(auroc(s, y)).tobytes() == want.tobytes(), (s, y)


class TestRocPoints:
    def test_perfect_three_corners(self):
        roc = roc_points([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert roc.points == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        assert roc.auroc == 1.0

    def test_anti_predictor(self):
        roc = roc_points([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1])
        assert roc.auroc == 0.0
        assert roc.points[0] == (0.0, 0.0)
        assert roc.points[-1] == (1.0, 1.0)

    def test_trapezoid_equals_rank_statistic(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = 50
            labels = rng.integers(0, 2, n)
            labels[0], labels[1] = 0, 1
            scores = rng.integers(0, 12, n) / 11.0
            roc = roc_points(scores, labels)
            assert roc.auroc == auroc(scores, labels)

    def test_bitwise_equal_to_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, n)
            labels[rng.choice(n, 2, replace=False)] = [0, 1]
            scores = rng.integers(0, 8, n) / 7.0
            got = np.array(roc_points(scores, labels).points)
            assert got.tobytes() == np.array(loop_roc_points(scores, labels)).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("metric", [auroc, roc_points])
    def test_non_finite_scores_rejected(self, metric, bad):
        # a NaN once ranked lowest in auroc and highest in roc_points
        with pytest.raises(ParameterError, match="scores must be finite"):
            metric([bad, 0.2, 0.8, 0.1], [0, 1, 1, 0])

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(4)
        scores = rng.random(30)
        labels = rng.integers(0, 2, 30)
        labels[0], labels[1] = 0, 1
        roc = roc_points(scores, labels)
        assert roc.points[0] == (0.0, 0.0)
        assert roc.points[-1] == (1.0, 1.0)
        fpr = [p[0] for p in roc.points]
        tpr = [p[1] for p in roc.points]
        assert all(a <= b for a, b in zip(fpr, fpr[1:]))
        assert all(a <= b for a, b in zip(tpr, tpr[1:]))


@pytest.fixture(scope="module")
def tiny_benchmark():
    gm, metas = generate(SynthConfig(domains=3, genes=40, per_domain=30, seed=9))
    return gm, metas


class TestLodoRun:
    def test_every_domain_reported(self, tiny_benchmark):
        gm, metas = tiny_benchmark
        report = lodo_run(gm, metas, TrainConfig(**TINY))
        assert [e.domain for e in report.entries] == ["D0", "D1", "D2"]
        assert report.mean_auroc == pytest.approx(
            np.mean([e.roc.auroc for e in report.entries])
        )
        for e in report.entries:
            assert e.scores.shape == e.labels.shape == (30,)
            assert Counter(e.labels.tolist()) == {0: 15, 1: 15}
            assert e.roc == roc_points(e.scores, e.labels)

    def test_min_test_filter(self, tiny_benchmark, monkeypatch):
        # every domain keeps one positive fewer than MIN_TEST_PER_CLASS
        gm, metas = tiny_benchmark
        positives = Counter()
        short = []
        for m in metas:
            positives[m.domain] += m.response
            keep = m.response == 1 and positives[m.domain] < MIN_TEST_PER_CLASS
            short.append(replace(m, response=int(keep)))
        assert Counter(m.domain for m in short if m.response == 1) == {
            "D0": 2, "D1": 2, "D2": 2,
        }
        assert eligible_domains(short) == []

        def fail(*_):
            raise AssertionError("fit called")

        monkeypatch.setattr("fourierdg.train.fit", fail)
        with pytest.raises(ParameterError, match="MIN_TEST_PER_CLASS = 3"):
            lodo_run(gm, short, TrainConfig(**TINY))

    def test_small_domain_dropped_but_others_kept(self):
        from fourierdg.data import SampleMeta

        metas = []
        for domain, n_per_class in (("A", 4), ("B", 2), ("C", 4)):
            for i in range(n_per_class):
                metas.append(SampleMeta(f"{domain}p{i}", domain, response=1))
                metas.append(SampleMeta(f"{domain}n{i}", domain, response=0))
        assert eligible_domains(metas) == ["A", "C"]

    def test_matches_run_fold_per_domain(self, tiny_benchmark):
        gm, metas = tiny_benchmark
        cfg = TrainConfig(**TINY)
        report = lodo_run(gm, metas, cfg, hvg=20)
        for entry in report.entries:
            fold, _, _ = run_fold(gm, metas, entry.domain, cfg, hvg=20)
            assert entry.scores.tobytes() == fold.scores.tobytes()
            assert entry.labels.tobytes() == fold.labels.tobytes()
            assert entry.roc == fold.roc

    def test_holds_one_fold_model_at_a_time(self, tiny_benchmark, monkeypatch):
        gm, metas = tiny_benchmark
        cfg = TrainConfig(**TINY)
        unwrapped = lodo_run(gm, metas, cfg)
        earlier = []

        def tracked_run_fold(*args, **kwargs):
            gc.collect()
            assert all(ref() is None for ref in earlier), "an earlier fold model is alive"
            result = run_fold(*args, **kwargs)
            earlier.append(weakref.ref(result[1].params))
            return result

        monkeypatch.setattr("fourierdg.evaluate.run_fold", tracked_run_fold)
        report = lodo_run(gm, metas, cfg)
        gc.collect()
        assert len(earlier) == 3 and all(ref() is None for ref in earlier)
        assert [e.roc.points for e in report.entries] == [
            e.roc.points for e in unwrapped.entries
        ]

    @pytest.mark.parametrize("harness", [
        lambda gm, metas, cfg: run_fold(gm, metas, "D0", cfg), lodo_run,
    ], ids=["run_fold", "lodo_run"])
    def test_unlabeled_row_refused_before_training(self, tiny_benchmark, monkeypatch,
                                                   harness):
        # a held-out row without a response, which fit never sees
        gm, metas = tiny_benchmark
        metas = [replace(metas[0], response=None), *metas[1:]]
        assert metas[0].domain == "D0"

        def fail(*_):
            raise AssertionError("train_checkpoint called")

        monkeypatch.setattr("fourierdg.evaluate.train_checkpoint", fail)
        with pytest.raises(ParameterError, match=r"^all responses must be set before "
                                                 r"LODO; binarize ic50 first$"):
            harness(gm, metas, TrainConfig(**TINY))

    def test_hvg_restricts_checkpoint_genes(self, tiny_benchmark):
        gm, metas = tiny_benchmark
        _, ckpt, _ = run_fold(gm, metas, "D0", TrainConfig(**TINY), hvg=10)
        assert len(ckpt.params.gene_list) == 10


class TestAblateFaac:
    def test_structure_and_determinism(self, tiny_benchmark):
        gm, metas = tiny_benchmark
        cfg = TrainConfig(**{**TINY, "epochs": 2})
        result = ablate_faac(gm, metas, cfg, seeds=[1, 2])
        assert len(result.rows) == 2 * 2 * 3  # seeds x toggle x domains
        assert result.delta == pytest.approx(result.mean_on - result.mean_off)
        assert set(result.per_domain_delta) == {"D0", "D1", "D2"}
        again = ablate_faac(gm, metas, cfg, seeds=[1, 2])
        assert [(r.seed, r.faac_on, r.domain, r.auroc) for r in result.rows] == [
            (r.seed, r.faac_on, r.domain, r.auroc) for r in again.rows
        ]

    def test_arms_are_lodo_runs_with_and_without_lambda1(self, tiny_benchmark):
        gm, metas = tiny_benchmark
        cfg = TrainConfig(**{**TINY, "epochs": 2})
        result = ablate_faac(gm, metas, cfg, seeds=[1, 2])
        for seed in (1, 2):
            for faac_on, run_cfg in (
                (True, replace(cfg, seed=seed)),
                (False, replace(cfg, seed=seed, lambda1=0.0)),
            ):
                report = lodo_run(gm, metas, run_cfg)
                rows = [(r.domain, r.auroc) for r in result.rows
                        if r.seed == seed and r.faac_on == faac_on]
                assert rows == [(e.domain, e.roc.auroc) for e in report.entries]

    def test_needs_two_seeds(self, tiny_benchmark):
        gm, metas = tiny_benchmark
        with pytest.raises(ParameterError):
            ablate_faac(gm, metas, TrainConfig(**TINY), seeds=[1])

    def test_refuses_a_repeated_seed(self, tiny_benchmark, monkeypatch):
        # a repeat would train byte-identical runs and count them twice
        gm, metas = tiny_benchmark

        def fail(*_):
            raise AssertionError("lodo_run called")

        monkeypatch.setattr("fourierdg.evaluate.lodo_run", fail)
        with pytest.raises(ParameterError,
                           match=r"^ablation seeds must be distinct, got \[1, 1\]$"):
            ablate_faac(gm, metas, TrainConfig(**TINY), seeds=[1, 1])

    def test_refuses_zero_lambda1(self, tiny_benchmark, monkeypatch):
        # both arms would train with lambda1 = 0 and report a delta of 0.0
        gm, metas = tiny_benchmark

        def fail(*_, **__):
            raise AssertionError("lodo_run called")

        monkeypatch.setattr("fourierdg.evaluate.lodo_run", fail)
        with pytest.raises(ParameterError, match=r"^ablation needs lambda1 > 0"):
            ablate_faac(gm, metas, TrainConfig(**{**TINY, "lambda1": 0.0}), seeds=[1, 2])


class TestCsvWriters:
    def test_roc_csv(self, tmp_path):
        roc = roc_points([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        path = tmp_path / "roc.csv"
        write_roc_csv(path, roc)
        lines = path.read_text().splitlines()
        assert lines[0] == "fpr,tpr"
        assert len(lines) == 1 + len(roc.points)

    def test_report_csv(self, tiny_benchmark, tmp_path):
        gm, metas = tiny_benchmark
        report = lodo_run(gm, metas, TrainConfig(**{**TINY, "epochs": 2}))
        path = tmp_path / "report.csv"
        write_report_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "domain,n_test,n_pos,n_neg,auroc"
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("ALL,90,")
        assert float(lines[-1].split(",")[-1]) == pytest.approx(report.mean_auroc)

    def test_ablation_csv(self, tiny_benchmark, tmp_path):
        gm, metas = tiny_benchmark
        cfg = TrainConfig(**{**TINY, "epochs": 2})
        result = ablate_faac(gm, metas, cfg, seeds=[1, 2])
        path = tmp_path / "ablation.csv"
        write_ablation_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "seed,faac,domain,auroc"
        assert len(lines) == 1 + len(result.rows)


# sha256 of every file the harness writes for tiny_benchmark at TINY's
# config: the LODO report, each fold's ROC and the seeds 1, 2 ablation
PINNED_HARNESS = {
    "ablation.csv": "97fd95c763ee01facfb1840b3e6744350081afa46563607ab191b73e5e2a6772",
    "report.csv": "16c5e9b2d253fdcdbc87b9bd13f01d8850c26e3199ec57f1ebee22f2e6f9ee4d",
    "roc_D0.csv": "8b2360cf6348684c9b984b888b7d2bc84efe1152ae2e872168e05ec048d1c83b",
    "roc_D1.csv": "67ce7a7757b638dfd4cf1a628af572f00e86b3b1d749597d60eba2df4643f17c",
    "roc_D2.csv": "f041fe2a76acd7676dc43abdc24c2832d7f8abfc8b3bd2fb30e99cdc8cdef6b4",
}


def test_harness_outputs_pinned(tiny_benchmark, tmp_path):
    gm, metas = tiny_benchmark
    cfg = TrainConfig(**TINY)
    report = lodo_run(gm, metas, cfg)
    write_report_csv(tmp_path / "report.csv", report)
    for e in report.entries:
        write_roc_csv(tmp_path / f"roc_{e.domain}.csv", e.roc)
    write_ablation_csv(tmp_path / "ablation.csv", ablate_faac(gm, metas, cfg, seeds=[1, 2]))
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert got == PINNED_HARNESS, f"{cfg}: {got}"
