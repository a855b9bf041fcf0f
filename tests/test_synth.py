"""Behavior of the synthetic multi-domain generator."""

import numpy as np
import pytest

from fourierdg.data import lodo_split
from fourierdg.errors import ParameterError
from fourierdg.evaluate import auroc
from fourierdg.synth import SynthConfig, generate


def small_cfg(**overrides):
    base = dict(domains=3, genes=50, per_domain=20, seed=4)
    base.update(overrides)
    return SynthConfig(**base)


class TestGenerate:
    def test_seed_determinism(self):
        gm1, metas1 = generate(small_cfg())
        gm2, metas2 = generate(small_cfg())
        assert np.array_equal(gm1.values, gm2.values)
        assert metas1 == metas2

    def test_different_seed_differs(self):
        gm1, _ = generate(small_cfg())
        gm2, _ = generate(small_cfg(seed=5))
        assert not np.array_equal(gm1.values, gm2.values)

    def test_shapes_and_labels(self):
        cfg = small_cfg()
        gm, metas = generate(cfg)
        assert gm.values.shape == (60, 50)
        assert len(metas) == 60
        assert {m.domain for m in metas} == {"D0", "D1", "D2"}
        assert all(m.response in (0, 1) for m in metas)
        assert all(m.ic50 is not None for m in metas)

    def test_label_balance_exact(self):
        for rho, n in ((0.5, 100), (0.3, 21), (0.7, 13)):
            cfg = small_cfg(per_domain=n, sensitive_fraction=rho)
            _, metas = generate(cfg)
            expected = int(round(rho * n))
            for d in ("D0", "D1", "D2"):
                count = sum(1 for m in metas if m.domain == d and m.response == 1)
                assert count == expected

    def test_noiseless_limit(self):
        cfg = small_cfg(
            genes=200, per_domain=40, noise=0.0, domain_shift_strength=0.0
        )
        gm, metas = generate(cfg)
        values = gm.values
        sens = [i for i, m in enumerate(metas) if m.response == 1]
        res = [i for i, m in enumerate(metas) if m.response == 0]
        # all sensitive rows identical
        assert np.all(values[sens] == values[sens[0]])
        # resistant rows take exactly `mechanisms` distinct values
        distinct = {tuple(values[i]) for i in res}
        assert len(distinct) == cfg.mechanisms
        # distinct mechanisms are near-orthogonal at genes=200
        rows = [np.asarray(r) for r in distinct]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                c = rows[i] @ rows[j] / (
                    np.linalg.norm(rows[i]) * np.linalg.norm(rows[j])
                )
                assert abs(c) < 0.5

    def test_domain_shifts_distinct(self):
        cfg = small_cfg(noise=0.0, signature_strength=0.0, mechanism_strength=0.0)
        gm, metas = generate(cfg)
        by_domain = {}
        for i, m in enumerate(metas):
            by_domain.setdefault(m.domain, []).append(i)
        centers = {d: gm.values[idx].mean(axis=0) for d, idx in by_domain.items()}
        names = sorted(centers)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                assert not np.allclose(centers[names[i]], centers[names[j]])

    def test_ic50_correlates_with_label(self):
        _, metas = generate(small_cfg(per_domain=100))
        sens = [m.ic50 for m in metas if m.response == 1]
        res = [m.ic50 for m in metas if m.response == 0]
        assert np.mean(sens) < np.mean(res)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(domains=1),
            dict(mechanisms=1),
            dict(sensitive_fraction=0.0),
            dict(sensitive_fraction=1.0),
            dict(noise=-1.0),
        ],
    )
    def test_invalid_config(self, overrides):
        with pytest.raises(ParameterError):
            generate(small_cfg(**overrides))

    @pytest.mark.parametrize("overrides,message", [
        (dict(genes=2.5), "genes must be int, got 2.5"),
        (dict(seed=True), "seed must be int, got True"),
        (dict(domains="3"), "domains must be int, got '3'"),
        (dict(noise="1.0"), "noise must be float, got '1.0'"),
        (dict(noise=None), "noise must be float, got None"),
    ])
    def test_wrong_type_rejected(self, overrides, message):
        with pytest.raises(ParameterError) as err:
            generate(SynthConfig(**overrides))
        assert str(err.value) == message

    def test_int_accepted_for_float(self):
        gm, _ = generate(small_cfg(noise=1, signature_strength=3))
        assert gm.values.tobytes() == generate(small_cfg())[0].values.tobytes()


class TestLinearProbeOracle:
    def test_default_config_is_linearly_solvable(self):
        """A ridge linear probe fit on 5 domains separates the 6th.

        Oracle computed with plain normal equations; the frozen expectation
        (AUROC > 0.8, observed 0.973 on this seed) shows the benchmark is
        solvable without the deep model.
        """
        gm, metas = generate(SynthConfig())
        train, test = lodo_split(metas, "D5")
        x_train = gm.values[train]
        y_train = np.array([metas[i].response for i in train], dtype=np.float64)
        design = np.column_stack([np.ones(len(train)), x_train])
        beta = np.linalg.solve(
            design.T @ design + 1e-3 * np.eye(design.shape[1]),
            design.T @ y_train,
        )
        x_test = np.column_stack([np.ones(len(test)), gm.values[test]])
        scores = x_test @ beta
        labels = np.array([metas[i].response for i in test])
        assert auroc(scores, labels) > 0.8
