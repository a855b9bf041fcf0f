"""Training loop behavior: batching, optimization, determinism, logging."""

import warnings
from dataclasses import asdict

import numpy as np
import pytest

from fourierdg import FourierDGError, TrainingDivergedError
from fourierdg.data import select_hvg, zscore_fit_apply
from fourierdg.errors import ConfigurationError, ParameterError
from fourierdg.evaluate import auroc
from fourierdg.model import checkpoint_to_json, init_params
from fourierdg.synth import SynthConfig, generate
from fourierdg.tensor_core import RngState
from fourierdg.train import (
    ADAM_BLOCK,
    Adam,
    TrainConfig,
    fit,
    make_batches,
    predict,
    train_checkpoint,
    write_log_csv,
)

TINY = dict(
    lr=1e-3, batch_size=16, epochs=4, seed=3,
    enc_hidden=32, enc_out=16, disc_hidden=8,
)


def tiny_raw():
    return generate(SynthConfig(domains=3, genes=40, per_domain=30, seed=9))


def tiny_data():
    gm, metas = tiny_raw()
    gm, _ = zscore_fit_apply(gm)
    return gm, metas


class TestMakeBatches:
    def test_chunk_sizes(self):
        sizes = [len(b) for b in make_batches(10, 4, RngState(0))]
        assert sizes == [4, 4, 2]

    def test_short_tail_merged(self):
        sizes = [len(b) for b in make_batches(5, 4, RngState(0))]
        assert sizes == [5]

    def test_seed_determinism(self):
        a = make_batches(20, 6, RngState(1))
        b = make_batches(20, 6, RngState(1))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_covers_every_index(self):
        batches = make_batches(23, 5, RngState(2))
        flat = sorted(np.concatenate(batches).tolist())
        assert flat == list(range(23))


def textbook_adam(value, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Out-of-place Adam: the reference the in-place step matches bitwise."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    return value - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestAdam:
    def test_bitwise_equal_to_textbook_update(self):
        # > two blocks with a ragged tail, a 37x29 weight, a 1-element bias
        sizes = [2 * ADAM_BLOCK + 123, 37 * 29, 1]
        bounds = np.cumsum([0, *sizes])
        slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        rng = np.random.default_rng(0)
        values, grads = rng.standard_normal(bounds[-1]), np.zeros(bounds[-1])
        ref = [(values[s].copy(), np.zeros(n), np.zeros(n)) for s, n in zip(slices, sizes)]
        optim = Adam(values, grads, lr=1e-3)
        for t in range(1, 6):
            for i, s in enumerate(slices):
                grads[s] = rng.standard_normal(sizes[i]) * 10.0 ** (i - t)
                ref[i] = textbook_adam(*ref[i], grads[s], t, 1e-3)
            optim.step()
            for i, s in enumerate(slices):
                value, m, v = ref[i]
                assert np.array_equal(values[s], value)
                assert np.array_equal(optim.m[s], m)
                assert np.array_equal(optim.v[s], v)

    def test_empty_parameter_list(self):
        optim = Adam(np.zeros(0), np.zeros(0), lr=0.1)
        optim.step()
        assert optim.m.size == 0 and optim.t == 1

    @pytest.mark.parametrize("values,grads", [
        (np.zeros(5), np.zeros(4)),
        (np.zeros((2, 3)), np.zeros((2, 3))),
        (np.zeros(6), np.zeros((2, 3))),
    ], ids=["length-mismatch", "two-d", "grads-two-d"])
    def test_rejects_unequal_or_non_flat_buffers(self, values, grads):
        with pytest.raises(ParameterError, match="1-D buffers of equal length"):
            Adam(values, grads, lr=0.1)

    def test_zero_gradient_no_move(self):
        values, grads = np.array([1.0, -2.0]), np.zeros(2)
        optim = Adam(values, grads, lr=0.1)
        for _ in range(3):
            optim.step()
        assert np.array_equal(values, [1.0, -2.0])

    def test_descends_quadratic(self):
        values, grads = np.array([5.0]), np.zeros(1)
        optim = Adam(values, grads, lr=0.1)
        for _ in range(200):
            grads[:] = 2.0 * values
            optim.step()
        assert abs(values[0]) < 0.5


class TestTrainConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(lr=0.0), dict(batch_size=1), dict(epochs=0),
            dict(dropout_p=1.0), dict(lambda1=-0.5), dict(grl_coefficient=-1.0),
            dict(enc_out=7),
        ],
    )
    def test_validation(self, overrides):
        cfg = TrainConfig(**{**TINY, **overrides})
        with pytest.raises(ParameterError):
            cfg.validate()

    def test_reference_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 8e-5
        assert cfg.dropout_p == 0.1
        assert cfg.batch_size == 64
        assert cfg.epochs == 100
        assert cfg.enc_hidden == 1024 and cfg.enc_out == 740


class TestFit:
    def test_determinism_bitwise(self):
        raw, metas = tiny_raw()
        cfg = TrainConfig(**TINY)
        runs = []
        for _ in range(2):
            ckpt, logs = train_checkpoint(raw, metas, cfg)
            runs.append(
                (checkpoint_to_json(ckpt),
                 [(l.losses.total, l.train_auc) for l in logs])
            )
        assert runs[0] == runs[1]

    def test_no_faac_never_calls_asymmetric_loss(self, monkeypatch):
        def fail(*_):
            raise AssertionError("asymmetric_loss called with lambda1 = 0")

        monkeypatch.setattr("fourierdg.model.asymmetric_loss", fail)
        gm, metas = tiny_data()
        _, logs = fit(gm, metas, TrainConfig(**{**TINY, "lambda1": 0.0}))
        assert all(log.losses.l_asy == 0.0 for log in logs)

    def test_faac_toggle_changes_training(self):
        gm, metas = tiny_data()
        params_on, _ = fit(gm, metas, TrainConfig(**TINY))
        params_off, _ = fit(gm, metas, TrainConfig(**{**TINY, "lambda1": 0.0}))
        assert not np.array_equal(params_on.w1.value, params_off.w1.value)

    def test_all_weights_zero_only_adversary_learns(self):
        gm, metas = tiny_data()
        cfg = TrainConfig(
            **{**TINY, "lambda1": 0.0, "lambda2": 0.0, "grl_coefficient": 0.0}
        )
        params, logs = fit(gm, metas, cfg)
        # replicate fit's init draw to recover the starting classifier head
        from fourierdg.model import init_params

        init = init_params(
            gm.gene_names, 3, RngState(cfg.seed),
            hidden=cfg.enc_hidden, d=cfg.enc_out, disc_hidden=cfg.disc_hidden,
        )
        # classifier head receives zero gradient: Adam leaves it at init
        assert np.array_equal(params.clf_w.value, init.clf_w.value)
        assert np.array_equal(params.clf_b.value, init.clf_b.value)
        # total collapses to the adversarial term
        for log in logs:
            assert log.losses.total == log.losses.l_adv
        # batch-norm running stats still moved
        assert not np.array_equal(params.bn1_stats.mean, np.zeros_like(params.bn1_stats.mean))

    def test_divergence_raises_typed_error(self):
        gm, metas = tiny_data()
        cfg = TrainConfig(**{**TINY, "lr": 1e300})
        with np.errstate(all="ignore"), pytest.raises(
            TrainingDivergedError,
            match=r"epoch 1, batch index [1-9]\d*: l_(asy|adv|cls) = (nan|-?inf)",
        ) as info:
            fit(gm, metas, cfg)
        assert isinstance(info.value, FourierDGError)

    def test_divergence_raises_before_any_warning(self):
        gm, metas = tiny_data()
        cfg = TrainConfig(**{**TINY, "lr": 1e300})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError):
                fit(gm, metas, cfg)

    def test_divergence_in_last_step_raises(self):
        # one batch per epoch: the step that overflows is the epoch's last,
        # so no later loss can report it; the epoch's scores do
        gm, metas = tiny_data()
        cfg = TrainConfig(**{**TINY, "lr": 1e300, "batch_size": 90, "epochs": 1})
        with pytest.raises(
            TrainingDivergedError, match=r"epoch 1: non-finite training scores"
        ):
            fit(gm, metas, cfg)

    def test_single_domain_rejected(self):
        gm, metas = tiny_data()
        solo = [m for m in metas if m.domain == "D0"]
        from fourierdg.data import subset_samples

        idx = [i for i, m in enumerate(metas) if m.domain == "D0"]
        with pytest.raises(ConfigurationError):
            fit(subset_samples(gm, idx), solo, TrainConfig(**TINY))

    def test_misaligned_metas_rejected(self):
        gm, metas = tiny_data()
        with pytest.raises(ConfigurationError):
            fit(gm, list(reversed(metas)), TrainConfig(**TINY))


class TestTrainCheckpoint:
    def test_is_hvg_zscore_fit(self):
        raw, metas = tiny_raw()
        cfg = TrainConfig(**TINY)
        ckpt, logs = train_checkpoint(raw, metas, cfg, hvg=10)
        std, stats = zscore_fit_apply(select_hvg(raw, 10))
        params, ref_logs = fit(std, metas, cfg)
        assert ckpt.params.gene_list == std.gene_names
        assert np.array_equal(ckpt.params.values, params.values)
        assert np.array_equal(ckpt.stats.mean, stats.mean)
        assert np.array_equal(ckpt.stats.std, stats.std)
        assert [l.losses for l in logs] == [l.losses for l in ref_logs]
        assert ckpt.train_config == asdict(cfg)
        assert ckpt.grl.coefficient == cfg.grl_coefficient
        assert ckpt.domains == ["D0", "D1", "D2"]


class TestConvergenceOnDefaultBenchmark:
    """Run-to-convergence oracle on the default synthetic benchmark.

    The frozen fixture (seed 2, reduced widths, lr 1e-3, 50 epochs) was
    calibrated by running it and recording the outcome: train AUROC hits
    1.0 and the smoothed classification loss decreases monotonically.
    """

    @pytest.fixture(scope="class")
    @staticmethod
    def converged():
        raw, metas = generate(SynthConfig())
        cfg = TrainConfig(
            lr=1e-3, batch_size=64, epochs=50, seed=2,
            enc_hidden=128, enc_out=64, disc_hidden=32,
        )
        ckpt, logs = train_checkpoint(raw, metas, cfg)
        return raw, metas, ckpt, logs

    def test_final_train_auroc(self, converged):
        _, _, _, logs = converged
        assert logs[-1].train_auc > 0.95

    def test_l_cls_trend_non_increasing(self, converged):
        # trend assertion, not strict monotonicity: tiny upticks near the
        # converged floor are tolerated (observed max +0.0023)
        _, _, _, logs = converged
        l_cls = np.array([log.losses.l_cls for log in logs])
        smoothed = np.convolve(l_cls, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(smoothed) <= 0.01)
        assert smoothed[-1] < 0.5 * smoothed[0]

    def test_predict_on_training_samples(self, converged):
        raw, metas, ckpt, _ = converged
        scores = predict(raw, ckpt)
        labels = np.array([m.response for m in metas])
        assert auroc(scores, labels) > 0.95

    def test_predict_range_and_determinism(self, converged):
        raw, _, ckpt, _ = converged
        a = predict(raw, ckpt)
        b = predict(raw, ckpt)
        assert np.array_equal(a, b)
        assert np.all((a > 0) & (a < 1))

    def test_predict_unalignable_genes(self, converged):
        _, _, ckpt, _ = converged
        from fourierdg.data import GeneMatrix
        from fourierdg.errors import AlignmentError

        wrong = GeneMatrix(["x"], ["not_a_gene"], np.zeros((1, 1)))
        with pytest.raises(AlignmentError):
            predict(wrong, ckpt)


class TestLogCsv:
    def test_columns_and_blank_validation(self, tmp_path):
        gm, metas = tiny_data()
        _, logs = fit(gm, metas, TrainConfig(**TINY))
        path = tmp_path / "log.csv"
        write_log_csv(path, logs)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,l_asy,l_adv,l_cls,total,train_auc"
        assert len(lines) == 1 + len(logs)
        first = lines[1].split(",")
        assert len(first) == 6
        assert first[0] == "1"
        # total column reproduces the breakdown identity
        l_asy, l_adv, l_cls, total = map(float, first[1:5])
        assert total == l_adv + 1.0 * l_asy + 1.0 * l_cls
