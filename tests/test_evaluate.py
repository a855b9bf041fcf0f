"""Metrics against brute-force oracles, plus the LODO/ablation harnesses."""

from dataclasses import replace

import numpy as np
import pytest

from fourierdg.errors import MetricError, ParameterError, ReportError
from fourierdg.evaluate import (
    _midranks,
    ablate_faac,
    auroc,
    eligible_domains,
    embed_2d,
    feature_ic50_r2,
    lodo_run,
    roc_points,
    run_fold,
    top2_components,
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
    """Tie-group walk: the reference the vectorised midranks match bitwise."""
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


class TestMidranks:
    @pytest.mark.parametrize("x", [
        [3.0, 1.0, 2.0],
        [0.5, 0.2, 0.5, 0.5, 0.1, 0.2],
        [0.7, 0.7, 0.7, 0.7],
        [4.2],
        [],
        [np.nan, 1.0, np.nan, 1.0, 0.0],
        [0.0, -0.0, 0.0, np.inf, -np.inf, np.inf],
    ], ids=["distinct", "ties", "all-ties", "single", "empty", "nan", "zeros-infs"])
    def test_bitwise_equal_to_loop(self, x):
        x = np.array(x, dtype=np.float64)
        assert _midranks(x).tobytes() == loop_midranks(x).tobytes()

    def test_random_ties_and_nan(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n = int(rng.integers(1, 50))
            x = rng.integers(0, 8, n) / 7.0
            x[rng.random(n) < 0.1] = np.nan
            assert _midranks(x).tobytes() == loop_midranks(x).tobytes()


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
        with pytest.raises(MetricError):
            auroc([0.1, 0.2], [1, 1])

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
        with pytest.raises(MetricError, match="finite"):
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


class TestEmbed2d:
    def test_rank_one_data(self):
        rng = np.random.default_rng(5)
        direction = rng.standard_normal(5)
        coords = embed_2d(np.outer(rng.standard_normal(40), direction))
        assert coords.shape == (40, 2)
        assert coords[:, 1].var() <= 1e-9

    def test_component_ordering(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((100, 6)) * np.array([5.0, 2.0, 1, 1, 1, 1])
        coords = embed_2d(x)
        assert coords[:, 0].var() >= coords[:, 1].var()

    def test_component_orthogonality(self):
        rng = np.random.default_rng(7)
        v1, v2 = top2_components(rng.standard_normal((50, 8)))
        assert abs(float(v1 @ v2)) <= 1e-8

    @pytest.mark.parametrize("x", [
        # second and third variances nearly equal: slow for power iteration
        np.random.default_rng(0).standard_normal((200, 6)) * [5, 3, 2.99, 1, 1, 1],
        np.random.default_rng(0).standard_normal((42, 35)),
    ], ids=["close-gap", "square-ish"])
    def test_components_are_exact_eigenvectors(self, x):
        xc = x - x.mean(axis=0)
        cov = xc.T @ xc / x.shape[0]
        top = np.linalg.eigvalsh(cov)[::-1][:2]
        tol = 1e-12 * top[0]
        v1, v2 = top2_components(x)
        for v, lam in zip((v1, v2), top):
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
            rayleigh = v @ cov @ v
            assert np.linalg.norm(cov @ v - rayleigh * v) <= tol
            assert abs(rayleigh - lam) <= tol
            assert v[np.argmax(np.abs(v))] > 0
        assert abs(v1 @ v2) <= 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((30, 4))
        assert np.array_equal(embed_2d(x), embed_2d(x))

    def test_too_few_samples(self):
        with pytest.raises(ParameterError):
            embed_2d(np.zeros((2, 3)))

    def test_one_feature_rejected(self):
        with pytest.raises(ParameterError, match="2 features"):
            top2_components(np.arange(5.0)[:, None])


class TestFeatureIc50R2:
    def test_exact_linear_fit(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((50, 3))
        y = 2.5 * x[:, 1] - 1.0
        assert feature_ic50_r2(x, y) >= 1.0 - 1e-9

    def test_independent_features_near_zero(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((500, 5))
        y = rng.standard_normal(500)
        assert feature_ic50_r2(x, y) < 0.2

    def test_duplicated_columns_regularized(self):
        rng = np.random.default_rng(11)
        col = rng.standard_normal(30)
        x = np.column_stack([col, col, col])
        y = col * 2.0 + 0.1 * rng.standard_normal(30)
        r2 = feature_ic50_r2(x, y)
        assert 0.8 < r2 <= 1.0

    def test_zero_variance_target(self):
        with pytest.raises(MetricError):
            feature_ic50_r2(np.random.default_rng(12).standard_normal((10, 2)),
                            np.ones(10))


@pytest.fixture(scope="module")
def tiny_benchmark():
    gm, metas = generate(SynthConfig(domains=3, genes=40, per_domain=30, seed=9))
    return gm, metas


class TestLodoRun:
    def test_every_domain_reported(self, tiny_benchmark):
        gm, metas = tiny_benchmark
        report = lodo_run(gm, metas, TrainConfig(**TINY), min_test_per_class=3)
        assert [e.domain for e in report.entries] == ["D0", "D1", "D2"]
        assert report.mean_auroc == pytest.approx(
            np.mean([e.roc.auroc for e in report.entries])
        )
        for e in report.entries:
            assert e.n_test == 30 and e.n_pos == 15 and e.n_neg == 15

    def test_min_test_filter(self, tiny_benchmark):
        gm, metas = tiny_benchmark
        assert eligible_domains(metas, 16) == []
        with pytest.raises(ReportError):
            lodo_run(gm, metas, TrainConfig(**TINY), min_test_per_class=16)

    def test_small_domain_dropped_but_others_kept(self):
        from fourierdg.data import SampleMeta

        metas = []
        for domain, n_per_class in (("A", 4), ("B", 2), ("C", 4)):
            for i in range(n_per_class):
                metas.append(SampleMeta(f"{domain}p{i}", domain, response=1))
                metas.append(SampleMeta(f"{domain}n{i}", domain, response=0))
        assert eligible_domains(metas, 3) == ["A", "C"]

    def test_matches_run_fold_per_domain(self, tiny_benchmark):
        gm, metas = tiny_benchmark
        cfg = TrainConfig(**TINY)
        report = lodo_run(gm, metas, cfg, min_test_per_class=3, hvg=20)
        for entry in report.entries:
            fold = run_fold(gm, metas, entry.domain, cfg, hvg=20)
            assert entry.roc.points == fold.roc.points
            assert entry.roc.auroc == fold.roc.auroc
            assert entry.n_test == fold.labels.size

    @pytest.mark.parametrize("bad", [0, -3])
    def test_min_test_per_class_below_one_rejected_before_fit(
        self, tiny_benchmark, monkeypatch, bad
    ):
        def fail(*_):
            raise AssertionError("fit called")

        monkeypatch.setattr("fourierdg.train.fit", fail)
        gm, metas = tiny_benchmark
        cfg = TrainConfig(**TINY)
        with pytest.raises(ParameterError, match="min_test_per_class"):
            lodo_run(gm, metas, cfg, min_test_per_class=bad)
        with pytest.raises(ParameterError, match="min_test_per_class"):
            ablate_faac(gm, metas, cfg, seeds=[1, 2], min_test_per_class=bad)

    def test_hvg_restricts_checkpoint_genes(self, tiny_benchmark):
        gm, metas = tiny_benchmark
        fold = run_fold(gm, metas, "D0", TrainConfig(**TINY), hvg=10)
        assert len(fold.checkpoint.params.gene_list) == 10


class TestAblateFaac:
    def test_structure_and_determinism(self, tiny_benchmark):
        gm, metas = tiny_benchmark
        cfg = TrainConfig(**{**TINY, "epochs": 2})
        result = ablate_faac(gm, metas, cfg, seeds=[1, 2], min_test_per_class=3)
        assert len(result.rows) == 2 * 2 * 3  # seeds x toggle x domains
        assert result.delta == pytest.approx(result.mean_on - result.mean_off)
        assert set(result.per_domain_delta) == {"D0", "D1", "D2"}
        again = ablate_faac(gm, metas, cfg, seeds=[1, 2], min_test_per_class=3)
        assert [(r.seed, r.faac_on, r.domain, r.auroc) for r in result.rows] == [
            (r.seed, r.faac_on, r.domain, r.auroc) for r in again.rows
        ]

    def test_arms_are_lodo_runs_with_and_without_lambda1(self, tiny_benchmark):
        gm, metas = tiny_benchmark
        cfg = TrainConfig(**{**TINY, "epochs": 2})
        result = ablate_faac(gm, metas, cfg, seeds=[1, 2], min_test_per_class=3)
        for seed in (1, 2):
            for faac_on, run_cfg in (
                (True, replace(cfg, seed=seed)),
                (False, replace(cfg, seed=seed, lambda1=0.0)),
            ):
                report = lodo_run(gm, metas, run_cfg, min_test_per_class=3)
                rows = [(r.domain, r.auroc) for r in result.rows
                        if r.seed == seed and r.faac_on == faac_on]
                assert rows == [(e.domain, e.roc.auroc) for e in report.entries]

    def test_needs_two_seeds(self, tiny_benchmark):
        gm, metas = tiny_benchmark
        with pytest.raises(ParameterError):
            ablate_faac(gm, metas, TrainConfig(**TINY), seeds=[1])


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
        report = lodo_run(gm, metas, TrainConfig(**{**TINY, "epochs": 2}),
                          min_test_per_class=3)
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
        result = ablate_faac(gm, metas, cfg, seeds=[1, 2], min_test_per_class=3)
        path = tmp_path / "ablation.csv"
        write_ablation_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == "seed,faac,domain,auroc"
        assert len(lines) == 1 + len(result.rows)
