"""Training loop behavior: batching, optimization, determinism, logging."""

import hashlib
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from fourierdg import FourierDGError, TrainingDivergedError, fourier
from fourierdg.data import align_genes, select_hvg, zscore_fit_apply
from fourierdg.errors import ParameterError
from fourierdg.evaluate import auroc
from fourierdg.model import GrlConfig, batch_objective, encode, init_params, save_checkpoint
from fourierdg.synth import SynthConfig, generate
from fourierdg.tensor_core import RngState
from fourierdg.train import (
    ADAM_BLOCK,
    SCORE_EPS,
    Adam,
    TrainConfig,
    _score,
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


SRC = Path(__file__).resolve().parent.parent / "src"

# C5's trainer config on 1,000 genes, whose first layer's (64, 1000) @
# (1000, 128) product differs between OpenBLAS at 1 and at 2 threads
BLAS_THREADS_CHILD = """
import sys
from fourierdg.model import save_checkpoint
from fourierdg.synth import SynthConfig, generate
from fourierdg.train import TrainConfig, train_checkpoint
gm, metas = generate(SynthConfig(genes=1000, per_domain=200))
cfg = TrainConfig(lr=1e-3, epochs=5, seed=1, enc_hidden=128, enc_out=64, disc_hidden=32)
save_checkpoint(sys.argv[1], train_checkpoint(gm, metas, cfg)[0])
"""


def _uses_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "").lower()


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_bitwise_equal_to_textbook_update(self, dtype):
        # > two blocks with a ragged tail, a 37x29 weight, a 1-element bias
        sizes = [2 * ADAM_BLOCK + 123, 37 * 29, 1]
        bounds = np.cumsum([0, *sizes])
        slices = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        rng = np.random.default_rng(0)
        values = rng.standard_normal(bounds[-1]).astype(dtype)
        grads = np.zeros(bounds[-1], dtype)
        ref = [(values[s].copy(), np.zeros(n, dtype), np.zeros(n, dtype))
               for s, n in zip(slices, sizes)]
        optim = Adam(values, grads, lr=np.float64(1e-3))  # a numpy scalar, as a config may hold
        assert optim.m.dtype == optim.v.dtype == dtype
        for t in range(1, 6):
            for i, s in enumerate(slices):
                grads[s] = rng.standard_normal(sizes[i]) * 10.0 ** (i - t)
                ref[i] = textbook_adam(*ref[i], grads[s], t, 1e-3)
            optim.step()
            for i, s in enumerate(slices):
                value, m, v = ref[i]
                assert value.dtype == dtype
                assert np.array_equal(values[s], value)
                assert np.array_equal(optim.m[s], m)
                assert np.array_equal(optim.v[s], v)

    def test_rejects_buffers_of_two_dtypes(self):
        with pytest.raises(ParameterError, match="one dtype, got float32 and float64"):
            Adam(np.zeros(3, np.float32), np.zeros(3), lr=0.1)

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
            dict(enc_out=7), dict(enc_out=fourier.MAX_DIM + 2),
        ],
    )
    def test_validation(self, overrides):
        cfg = TrainConfig(**{**TINY, **overrides})
        with pytest.raises(ParameterError):
            cfg.validate()

    def test_enc_out_may_reach_the_basis_cap(self):
        TrainConfig(**{**TINY, "enc_out": fourier.MAX_DIM}).validate()

    @pytest.mark.parametrize("overrides,message", [
        (dict(epochs="3"), "epochs must be int, got '3'"),
        (dict(batch_size=16.5), "batch_size must be int, got 16.5"),
        (dict(enc_hidden=False), "enc_hidden must be int, got False"),
        (dict(lr="1e-3"), "lr must be float, got '1e-3'"),
    ])
    def test_wrong_type_rejected(self, overrides, message):
        with pytest.raises(ParameterError) as err:
            TrainConfig(**{**TINY, **overrides}).validate()
        assert str(err.value) == message

    def test_fit_rejects_float_batch_size(self):
        gm, metas = tiny_data()
        with pytest.raises(ParameterError, match="batch_size must be int"):
            fit(gm, metas, TrainConfig(**{**TINY, "batch_size": 16.5}))

    def test_reference_defaults(self):
        cfg = TrainConfig()
        assert cfg.lr == 8e-5
        assert cfg.dropout_p == 0.1
        assert cfg.batch_size == 64
        assert cfg.epochs == 100
        assert cfg.enc_hidden == 1024 and cfg.enc_out == 740


class TestFit:
    def test_determinism_bitwise(self, tmp_path):
        raw, metas = tiny_raw()
        cfg = TrainConfig(**TINY)
        runs = []
        for run in range(2):
            ckpt, logs, _ = train_checkpoint(raw, metas, cfg)
            path = tmp_path / f"ck{run}"
            save_checkpoint(path, ckpt)
            runs.append(
                (path.read_bytes(),
                 [(l.losses.total, l.train_auc) for l in logs])
            )
        assert runs[0] == runs[1]

    @pytest.mark.skipif(not _uses_openblas() or _cpus() < 2,
                        reason="needs numpy on OpenBLAS and 2 CPUs")
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known failure: OpenBLAS's threaded matrix products round some shapes, "
        "such as (64, 1000) @ (1000, 128), differently at 1 and 2 threads"))
    def test_same_bytes_at_one_and_two_blas_threads(self, tmp_path):
        # the thread count is set in the children only
        pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                                   else [])
        saved = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(pythonpath)}
            path = tmp_path / f"ck{threads}"
            done = subprocess.run([sys.executable, "-c", BLAS_THREADS_CHILD, str(path)],
                                  env=env, capture_output=True, text=True, timeout=300)
            if done.returncode != 0:
                pytest.fail(done.stderr[-2000:])
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]

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
            dtype=np.float32,
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

    def test_trained_model_holds_no_gradient(self, monkeypatch):
        stepped = []

        class RecordingAdam(Adam):
            def __init__(self, values, grads, lr):
                super().__init__(values, grads, lr)
                stepped.append(grads)

        monkeypatch.setattr("fourierdg.train.Adam", RecordingAdam)
        gm, metas = tiny_data()
        cfg = TrainConfig(**TINY)
        params, _ = fit(gm, metas, cfg)
        assert len(stepped) == 1 and stepped[0].any()
        assert not params.grads.any()
        assert not np.shares_memory(params.grads, stepped[0])
        offset = 0
        for t in params.trainables():
            assert t.grad.base is params.grads and t.grad.shape == t.value.shape
            assert np.shares_memory(t.grad, params.grads[offset: offset + t.grad.size])
            offset += t.grad.size
        assert offset == params.grads.size
        # the returned model can be trained further through its new arena
        idx = np.arange(cfg.batch_size)
        responses = np.array([m.response for m in metas])[idx]
        domains = np.array([int(m.domain[1:]) for m in metas])[idx]
        batch_objective(
            gm.values[idx], responses, domains, params, GrlConfig(1.0), 1.0, 1.0
        )
        assert params.w1.grad.any() and params.clf_b.grad.any()
        before = params.values.copy()
        Adam(params.values, params.grads, cfg.lr).step()
        assert not np.array_equal(params.values, before)

    def test_returns_float64_holding_float32_values(self):
        gm, metas = tiny_data()
        params, _ = fit(gm, metas, TrainConfig(**TINY))
        assert params.dtype == np.float64
        for a in (params.values, params.bn1_stats.mean, params.bn2_stats.var):
            assert a.dtype == np.float64
            assert np.array_equal(a.astype(np.float32).astype(np.float64), a)

    def test_value_beyond_float32_is_parameter_error(self):
        gm, metas = tiny_data()
        gm.values[3, 5] = -4e38
        with pytest.raises(ParameterError, match=(
                r"fit expects standardized input, but the largest \|value\| is "
                r"4e\+38, beyond float32's range")):
            fit(gm, metas, TrainConfig(**TINY))

    def test_single_domain_rejected(self):
        gm, metas = tiny_data()
        solo = [m for m in metas if m.domain == "D0"]
        from fourierdg.data import subset_samples

        idx = [i for i, m in enumerate(metas) if m.domain == "D0"]
        with pytest.raises(ParameterError, match="training data must span at least 2 domains"):
            fit(subset_samples(gm, idx), solo, TrainConfig(**TINY))

    def test_misaligned_metas_rejected(self):
        gm, metas = tiny_data()
        with pytest.raises(ParameterError, match="metas must be aligned with gm.sample_ids"):
            fit(gm, list(reversed(metas)), TrainConfig(**TINY))


class TestTrainCheckpoint:
    def test_is_hvg_zscore_fit(self):
        raw, metas = tiny_raw()
        cfg = TrainConfig(**TINY)
        ckpt, logs, _ = train_checkpoint(raw, metas, cfg, hvg=10)
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

    @pytest.mark.parametrize("hvg", [10, None], ids=["hvg-10", "all-genes"])
    def test_returns_the_rows_it_standardized(self, hvg):
        raw, metas = tiny_raw()
        ckpt, _, rows = train_checkpoint(raw, metas, TrainConfig(**TINY), hvg=hvg)
        expected, _ = zscore_fit_apply(align_genes(raw, ckpt.params.gene_list), ckpt.stats)
        assert rows.gene_names == ckpt.params.gene_list
        assert rows.sample_ids == raw.sample_ids
        assert rows.values.tobytes() == expected.values.tobytes()


def test_float32_scores_stay_inside_the_open_interval():
    # a logit near 60 saturates the sigmoid; 1 - SCORE_EPS is 1.0 in float32
    gm, _ = tiny_data()
    params = init_params(gm.gene_names, 3, RngState(0), hidden=8, d=4, disc_hidden=4,
                         dtype=np.float32)
    params.clf_b.value[...] = 60.0
    scores = _score(gm.values.astype(np.float32), params)
    assert scores.dtype == np.float64
    assert ((scores > 0.0) & (scores < 1.0)).all()
    assert scores.max() == 1.0 - SCORE_EPS


@pytest.mark.parametrize("genes, hidden, d, per_domain, encode_sha, predict_sha", [
    (30, 20, 12, 10,
     "dd324ecaf5347c1525ef9c79f3046975473dca34fed6a3e71cb000504e46abe1",
     "b4b67fb22bcc68ddc9d4d2cd4ee152a797cf1865c692dd181fecef9aa0ffbd60"),
    (16, 16, 16, 7,
     "34f92cfb348c24b4aa4b9378e0ced4beddfc4da61c95b249e11547451189ab4d",
     "b5806a33f1f03f59af8e0894cd5351a8cb2ba234957f0e54a4d7380750b335e1"),
], ids=["genes-ne-hidden", "21-cohort-rows"])
def test_eval_bits_pinned(genes, hidden, d, per_domain, encode_sha, predict_sha):
    """The eval-mode encoder output and the ``predict`` scores of a trained
    model, bit for bit."""
    gm, metas = generate(SynthConfig(domains=3, genes=genes, per_domain=10, seed=4))
    cfg = TrainConfig(lr=1e-3, batch_size=8, epochs=2, seed=5,
                      enc_hidden=hidden, enc_out=d, disc_hidden=8)
    ckpt, _, _ = train_checkpoint(gm, metas, cfg)
    cohort, _ = generate(SynthConfig(domains=3, genes=genes, per_domain=per_domain, seed=6))
    cohort = align_genes(cohort, cohort.gene_names[::-1])
    standardized, _ = zscore_fit_apply(align_genes(cohort, ckpt.params.gene_list), ckpt.stats)
    h = encode(standardized.values, ckpt.params, "eval")
    assert h.shape == (3 * per_domain, d)
    got = (hashlib.sha256(h.tobytes()).hexdigest(),
           hashlib.sha256(predict(cohort, ckpt).tobytes()).hexdigest())
    assert got == (encode_sha, predict_sha), (
        f"{cfg}: encode {got[0]} (pinned {encode_sha}), "
        f"predict {got[1]} (pinned {predict_sha})"
    )


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
        ckpt, logs, _ = train_checkpoint(raw, metas, cfg)
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

        wrong = GeneMatrix(["x"], ["not_a_gene"], np.zeros((1, 1)))
        with pytest.raises(ParameterError, match="genes missing from matrix"):
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
