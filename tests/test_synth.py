"""Behavior of the synthetic multi-domain generator."""

import dataclasses
import hashlib

import numpy as np
import pytest

from fourierdg.data import SampleMeta, lodo_split
from fourierdg.errors import ParameterError
from fourierdg.evaluate import auroc
from fourierdg.synth import SynthConfig, generate
from fourierdg.tensor_core import RngState


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


# sha256 of gm.values.tobytes() and of each row's
# (sample_id, domain, repr(ic50), response), pinning every generated bit
PINNED = [
    (dict(),
     "2033505865e99d222384e3d2c2f4c5c5bdec632c2d2a08ef84e58429624d64e4",
     "fa298fccf5aae2238e5c4d34d0056674c135030c6d52d8330a1fde041500fcbc"),
    # train_ref's cohort
    (dict(genes=1000, per_domain=100, seed=0),
     "3330476bd38e0c856ba7695ef38119f480f50ef3ba03f5ea1530d3e3d82cc04d",
     "fa298fccf5aae2238e5c4d34d0056674c135030c6d52d8330a1fde041500fcbc"),
    # score_io's scoring cohort
    (dict(genes=1000, per_domain=200, seed=1000003),
     "3dab73af228a2f2d8e10969f4f8ed66d0df87cee924948349cddf60086d03fd5",
     "272e6d5497f795b12b7c2cce32b7cdb2beac5220506c1f1982e70de1a964e299"),
    # no sensitive row, then no resistant row, in each domain
    (dict(sensitive_fraction=0.004),
     "2433091d33770ae03ba4d9cf534657ced76ebbbe0833da8ff225d51bc644eeb7",
     "2d12543e068860d06eb103a45cb67f3104315f14db9d97a4ec28bc6b6227e874"),
    (dict(sensitive_fraction=0.996),
     "c93726ff4cc4b56f6d9cc4d2c5531dc0f1aeb771609512958e7688594842be8e",
     "c8311ec4ecc2ba2de52ab4d26251bc08b1346e38c04bb548ac46e1dfd529c766"),
    (dict(noise=0, signature_strength=2, mechanism_strength=3, domain_shift_strength=1),
     "67adc89e16d8c2787da095129cef5c833d62e93ede8df4e53cc7a44d07e5fa6a",
     "fa298fccf5aae2238e5c4d34d0056674c135030c6d52d8330a1fde041500fcbc"),
]


@pytest.mark.parametrize("overrides,values_sha,metas_sha", PINNED)
def test_generated_bits_pinned(overrides, values_sha, metas_sha):
    cfg = SynthConfig(**overrides)
    gm, metas = generate(cfg)
    assert gm.sample_ids == [m.sample_id for m in metas]
    rows = hashlib.sha256()
    for m in metas:
        rows.update(repr((m.sample_id, m.domain, repr(m.ic50), m.response)).encode())
    got = (hashlib.sha256(gm.values.tobytes()).hexdigest(), rows.hexdigest())
    assert got == (values_sha, metas_sha), (
        f"{cfg}: values {got[0]} (pinned {values_sha}), "
        f"metadata {got[1]} (pinned {metas_sha})"
    )


def loop_generate(cfg):
    """The generator as one Python loop per row, the reference for the
    whole-array ``generate``: the same draws in the same order and the
    same float operations per element."""
    rng = RngState(cfg.seed)
    unit = [rng.normal((cfg.genes,)) for _ in range(1 + cfg.mechanisms + cfg.domains)]
    signature, *directions = [v / np.linalg.norm(v) for v in unit]
    mechanisms, shifts = directions[:cfg.mechanisms], directions[cfg.mechanisms:]
    n_sens = int(round(cfg.sensitive_fraction * cfg.per_domain))
    rows, metas = [], []
    for m in range(cfg.domains):
        noise = rng.normal((cfg.per_domain, cfg.genes))
        mech_idx = rng.integers(0, cfg.mechanisms, (cfg.per_domain - n_sens,))
        ic50_noise = rng.normal((cfg.per_domain,))
        base = cfg.domain_shift_strength * shifts[m]
        for i in range(cfg.per_domain):
            sensitive = i < n_sens
            core = (cfg.signature_strength * signature if sensitive else
                    cfg.mechanism_strength * mechanisms[mech_idx[i - n_sens]])
            rows.append(base + core + cfg.noise * noise[i])
            ic50 = (-1.0 if sensitive else 1.0) + 0.5 * ic50_noise[i]
            metas.append(SampleMeta(f"D{m}_s{i:03d}", f"D{m}", float(ic50), int(sensitive)))
    return np.vstack(rows), metas


@pytest.mark.parametrize("overrides", [
    dict(domains=2, genes=1, per_domain=1, sensitive_fraction=0.9),
    dict(domains=4, genes=7, per_domain=13, mechanisms=9, seed=11),
    dict(genes=30, per_domain=9, sensitive_fraction=0.3, noise=0.25,
         signature_strength=0.5, domain_shift_strength=0.0, seed=2**64 + 3),
], ids=["one-row", "many-mechanisms", "odd-strengths"])
def test_generate_matches_the_row_loop(overrides):
    cfg = SynthConfig(**overrides)
    gm, metas = generate(cfg)
    values, loop_metas = loop_generate(cfg)
    assert gm.values.tobytes() == values.tobytes()
    assert [repr(dataclasses.astuple(m)) for m in metas] == [
        repr(dataclasses.astuple(m)) for m in loop_metas]


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
