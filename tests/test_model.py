"""Network assembly, gradient reversal, checkpoints, and the
reduced-model gradient audit."""

import base64
import json
import time
from pathlib import Path

import numpy as np
import pytest

from fourierdg import fourier
from fourierdg.data import NormStats
from fourierdg.errors import DimensionError, ParameterError, TapeError
from fourierdg.losses import asymmetric_loss, classification_loss, domain_adversarial_loss
from fourierdg.model import (
    Checkpoint,
    ForwardTapes,
    GrlConfig,
    batch_objective,
    checkpoint_to_json,
    encode,
    forward_full,
    gradient_suite,
    grl_backward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from fourierdg.tensor_core import RngState, grad_check
from fourierdg.train import Adam, TrainConfig

FIXTURES = Path(__file__).parent / "fixtures"


def small_params(seed=0, genes=12, m=3):
    return init_params(genes, m, RngState(seed), hidden=10, d=8, disc_hidden=6)


class TestInitParams:
    def test_seed_determinism(self):
        a = small_params(7)
        b = small_params(7)
        for pa, pb in zip(a.trainables(), b.trainables()):
            assert np.array_equal(pa.value, pb.value)

    def test_different_seeds_differ(self):
        a, b = small_params(1), small_params(2)
        assert not np.array_equal(a.w1.value, b.w1.value)

    def test_full_scale_shapes(self):
        cfg = TrainConfig()
        params = init_params(
            3000, 4, RngState(0),
            hidden=cfg.enc_hidden, d=cfg.enc_out, disc_hidden=cfg.disc_hidden,
        )
        assert params.w1.value.shape == (3000, 1024)
        assert params.w2.value.shape == (1024, 740)
        assert params.clf_w.value.shape == (740, 1)
        assert params.disc_w1.value.shape == (740, 256)
        assert params.disc_w2.value.shape == (256, 4)
        assert params.d == 740

    def test_bias_and_bn_defaults(self):
        params = small_params()
        assert np.array_equal(params.b1.value, np.zeros(10))
        assert np.array_equal(params.bn1_gamma.value, np.ones(10))
        assert np.array_equal(params.bn1_stats.mean, np.zeros(10))
        assert np.array_equal(params.bn1_stats.var, np.ones(10))

    def test_invalid_args(self):
        with pytest.raises(ParameterError):
            init_params(0, 3, RngState(0), hidden=4, d=2, disc_hidden=2)
        with pytest.raises(ParameterError):
            init_params(5, 1, RngState(0), hidden=4, d=2, disc_hidden=2)
        with pytest.raises(ParameterError):
            init_params(5, 3, RngState(0), hidden=4, d=7, disc_hidden=2)


class TestParameterArena:
    def test_trainables_are_views_into_the_arena(self):
        params = small_params(5)
        offset = 0
        for i, t in enumerate(params.trainables()):
            n = t.value.size
            assert t.value.base is params.values and t.grad.base is params.grads
            t.value.reshape(-1)[-1] = i + 0.5
            t.grad.reshape(-1)[0] = -i - 0.5
            assert params.values[offset + n - 1] == i + 0.5
            assert params.grads[offset] == -i - 0.5
            offset += n
        assert offset == params.values.size == params.grads.size

    def test_copy_shares_no_storage(self):
        params = small_params(5)
        params.grads[:] = np.arange(params.grads.size)
        clone = params.copy()
        assert clone.values.tobytes() == params.values.tobytes()
        assert clone.grads.tobytes() == params.grads.tobytes()
        assert not np.shares_memory(clone.values, params.values)
        assert not np.shares_memory(clone.grads, params.grads)
        for slot in ("bn1_stats", "bn2_stats"):
            a, b = getattr(params, slot), getattr(clone, slot)
            assert a is not b and not np.shares_memory(a.mean, b.mean)
        clone.w1.value[0, 0] += 1.0
        clone.w1.grad[0, 0] += 1.0
        assert clone.w1.value[0, 0] != params.w1.value[0, 0]
        assert clone.w1.grad[0, 0] != params.w1.grad[0, 0]

    def test_vector_round_trip(self):
        params = small_params(5)
        vec = np.random.default_rng(0).standard_normal(params.values.size)
        params.values[...] = vec
        assert params.values.tobytes() == vec.tobytes()
        offset = params.w1.value.size
        assert np.array_equal(params.b1.value, vec[offset: offset + params.b1.value.size])
        assert params.w1.value[0, 0] == vec[0]
        assert params.trainables()[-1].value.reshape(-1)[-1] == vec[-1]


class TestEncode:
    def test_output_shape(self):
        params = small_params()
        h = encode(np.zeros((5, 12)), params, "eval")
        assert h.shape == (5, 8)

    def test_eval_determinism(self):
        params = small_params()
        x = np.random.default_rng(0).standard_normal((4, 12))
        assert np.array_equal(encode(x, params, "eval"), encode(x, params, "eval"))

    def test_finite_on_bounded_inputs(self):
        params = small_params()
        rng = RngState(3)
        for _ in range(100):
            x = rng.uniform(-10.0, 10.0, (6, 12))
            h = encode(x, params, "train", rng)
            assert np.isfinite(h).all()

    def test_gene_count_in_error(self):
        params = small_params()
        with pytest.raises(DimensionError, match="12"):
            encode(np.zeros((3, 5)), params, "eval")

    def test_eval_is_pure(self):
        params = small_params()
        before_mean = params.bn1_stats.mean.copy()
        before_var = params.bn2_stats.var.copy()
        encode(np.random.default_rng(1).standard_normal((4, 12)), params, "eval")
        assert np.array_equal(params.bn1_stats.mean, before_mean)
        assert np.array_equal(params.bn2_stats.var, before_var)


class TestForwardFull:
    def test_probability_range(self):
        params = small_params()
        x = np.random.default_rng(2).standard_normal((6, 12))
        _, p, _ = forward_full(x, params, GrlConfig(1.0), "eval")
        assert np.all((p > 0) & (p < 1))

    def test_z_matches_composition(self):
        params = small_params()
        x = np.random.default_rng(3).standard_normal((6, 12))
        z, _, _ = forward_full(x, params, GrlConfig(1.0), "eval")
        direct = fourier.project(encode(x, params, "eval"), params.basis)
        assert np.array_equal(z, direct)

    def test_zero_coefficient_kills_adversarial_gradient(self):
        params = small_params()
        x = np.random.default_rng(4).standard_normal((6, 12))
        dom = np.array([0, 1, 2, 0, 1, 2])
        tapes = ForwardTapes()
        _, _, logits = forward_full(
            x, params, GrlConfig(0.0), "train", dropout_p=0.0, tapes=tapes
        )
        _, dlogits = domain_adversarial_loss(logits, dom)
        for t in params.trainables():
            t.zero_grad()
        dz = tapes.discriminator.backward(dlogits)
        assert np.array_equal(dz, np.zeros_like(dz))


class TestGrlBackward:
    def test_negation(self):
        assert np.array_equal(
            grl_backward(np.array([[2.0, -3.0]]), 1.0), [[-2.0, 3.0]]
        )

    def test_zero_coefficient(self):
        out = grl_backward(np.array([[2.0, -3.0]]), 0.0)
        assert np.array_equal(out, [[0.0, 0.0]])

    def test_half_coefficient(self):
        assert np.array_equal(grl_backward(np.array([[4.0]]), 0.5), [[-2.0]])

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ParameterError):
            grl_backward(np.array([[1.0]]), -0.5)
        with pytest.raises(ParameterError):
            GrlConfig(-1.0)


def _adv_encoder_grads(params, x, dom, grl):
    work = params.copy()
    tapes = ForwardTapes()
    _, _, logits = forward_full(x, work, grl, "train", dropout_p=0.0, tapes=tapes)
    _, dlogits = domain_adversarial_loss(logits, dom)
    for t in work.trainables():
        t.zero_grad()
    dz = tapes.discriminator.backward(dlogits)
    tapes.encoder.backward(dz)
    return np.concatenate([t.grad.ravel() for t in work.encoder_trainables()])


class TestGrlSignProperty:
    def test_reversal_scales_and_flips(self):
        params = small_params(5)
        rng = RngState(5)
        x = rng.normal((6, 12))
        dom = np.array([0, 1, 2, 0, 1, 2])
        baseline = _adv_encoder_grads(params, x, dom, None)
        for c in (1.0, 0.5):
            reversed_grads = _adv_encoder_grads(params, x, dom, GrlConfig(c))
            assert np.array_equal(reversed_grads, -c * baseline)


class TestGradientSuite:
    def test_reduced_model_matches_fd(self):
        start = time.time()
        err = gradient_suite(seed=0)
        elapsed = time.time() - start
        assert err < 1e-4
        assert elapsed < 10.0


def objective_terms(params, x, y, dom):
    """(l_asy, l_adv, l_cls) of a train-mode forward without dropout."""
    z, p, logits = forward_full(x, params, None, "train", dropout_p=0.0)
    return (asymmetric_loss(z, y)[0], domain_adversarial_loss(logits, dom)[0],
            classification_loss(p, y)[0])


class TestBatchObjective:
    Y = np.array([1, 1, 1, 0, 0, 0])
    DOM = np.array([0, 1, 2, 0, 1, 2])

    @pytest.mark.parametrize("lambda1,lambda2", [(0.7, 1.3), (0.0, 1.0), (1.0, 0.0)])
    def test_backward_is_gradient_of_weighted_sum(self, lambda1, lambda2):
        base = small_params(6)
        x = RngState(6).normal((6, 12))
        work = base.copy()
        work.grads[...] = 7.0  # backward must zero what a previous batch left
        terms, backward = batch_objective(x, self.Y, self.DOM, work, None, lambda1, lambda2)
        l_asy, l_adv, l_cls = objective_terms(base, x, self.Y, self.DOM)
        assert terms == (l_asy if lambda1 else 0.0, l_adv, l_cls)
        backward()

        def f(vec):
            m = base.copy()
            m.values[...] = vec
            l_asy, l_adv, l_cls = objective_terms(m, x, self.Y, self.DOM)
            return l_adv + lambda1 * l_asy + lambda2 * l_cls, work.grads

        assert grad_check(f, base.values.copy()) < 1e-4

    def test_zero_lambda1_never_calls_asymmetric_loss(self, monkeypatch):
        def fail(*_):
            raise AssertionError("asymmetric_loss called with lambda1 = 0")

        monkeypatch.setattr("fourierdg.model.asymmetric_loss", fail)
        params = small_params(7)
        x = RngState(7).normal((6, 12))
        terms, backward = batch_objective(x, self.Y, self.DOM, params, GrlConfig(1.0), 0.0, 1.0)
        backward()
        assert terms[0] == 0.0 and np.isfinite(params.grads).all()

    def test_backward_runs_once(self):
        params = small_params(7)
        x = RngState(7).normal((6, 12))
        _, backward = batch_objective(x, self.Y, self.DOM, params, GrlConfig(1.0), 1.0, 1.0)
        backward()
        grads = params.grads.copy()
        with pytest.raises(TapeError):
            backward()
        assert np.array_equal(params.grads, grads)


class TestCheckpoint:
    def _make(self):
        params = small_params(9, genes=5)
        stats = NormStats(
            gene_names=params.gene_list,
            mean=np.arange(5, dtype=np.float64) / 7.0,
            std=np.linspace(0.5, 2.0, 5),
        )
        cfg_echo = {"lr": 8e-5, "epochs": 3, "seed": 9}
        return Checkpoint(params, stats, GrlConfig(0.8), cfg_echo, ["A", "B", "C"])

    def test_round_trip_bitwise(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "ck.json"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert checkpoint_to_json(loaded) == checkpoint_to_json(ckpt)
        path2 = tmp_path / "ck2.json"
        save_checkpoint(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_loaded_arrays_exact(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "ck.json"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        for a, b in zip(ckpt.params.trainables(), loaded.params.trainables()):
            assert np.array_equal(a.value, b.value)
        assert np.array_equal(ckpt.params.bn1_stats.mean, loaded.params.bn1_stats.mean)
        assert np.array_equal(ckpt.stats.std, loaded.stats.std)
        assert loaded.domains == ["A", "B", "C"]
        assert loaded.grl.coefficient == 0.8
        assert loaded.train_config["lr"] == 8e-5

    def test_version_gate(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "ck.json"
        save_checkpoint(path, ckpt)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError):
            load_checkpoint(path)


def checkpoint_arrays(ckpt):
    """Every stored float array of a checkpoint, as raw bytes."""
    p = ckpt.params
    arrays = [t.value for t in p.trainables()]
    arrays += [p.bn1_stats.mean, p.bn1_stats.var, p.bn2_stats.mean, p.bn2_stats.var]
    arrays += [ckpt.stats.mean, ckpt.stats.std]
    return [(a.shape, a.tobytes()) for a in arrays]


def truncate_b64(entry):
    entry["b64"] = entry["b64"][:-12]


def cut_padding(entry):
    entry["b64"] = entry["b64"][:-1]


def wrong_shape(entry):
    entry["shape"] = [entry["shape"][0] + 1, *entry["shape"][1:]]


def negative_shape(entry):
    entry["shape"] = [-n for n in entry["shape"]]


def drop_shape(entry):
    del entry["shape"]


def non_base64(entry):
    # without validate=True, b64decode would skip the "*" and load the array
    entry["b64"] = entry["b64"][:8] + "*" + entry["b64"][8:]


def test_copies_share_the_basis():
    params = small_params(4)
    assert params.copy().basis is params.basis


class TestCheckpointFormat:
    _make = TestCheckpoint._make

    def _saved_doc(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, self._make())
        return path, json.loads(path.read_text())

    def test_v1_fixture_loads_bitwise(self, tmp_path):
        """tests/fixtures/checkpoint_v1.json is the format-1 file written
        for ``TestCheckpoint._make()`` before format 2 existed."""
        ckpt = self._make()
        loaded = load_checkpoint(FIXTURES / "checkpoint_v1.json")
        assert checkpoint_arrays(loaded) == checkpoint_arrays(ckpt)
        assert loaded.params.gene_list == ckpt.params.gene_list
        assert loaded.domains == ckpt.domains
        assert loaded.train_config == ckpt.train_config
        resaved, fresh = tmp_path / "resaved.json", tmp_path / "fresh.json"
        save_checkpoint(resaved, loaded)
        save_checkpoint(fresh, ckpt)
        assert json.loads(resaved.read_text())["format_version"] == 2
        assert resaved.read_bytes() == fresh.read_bytes()

    def test_arrays_stored_as_base64(self, tmp_path):
        _, doc = self._saved_doc(tmp_path)
        assert doc["format_version"] == 2
        w1 = doc["params"]["w1"]
        assert sorted(w1) == ["b64", "shape"] and w1["shape"] == [5, 10]
        assert doc["norm_std"]["shape"] == [5]

    def test_special_values_exact(self, tmp_path):
        ckpt = self._make()
        ckpt.params.b1.value[:4] = [-0.0, 5e-324, np.finfo(float).max, np.pi]
        path = tmp_path / "ck.json"
        save_checkpoint(path, ckpt)
        assert checkpoint_arrays(load_checkpoint(path)) == checkpoint_arrays(ckpt)

    @pytest.mark.parametrize("corrupt", [
        truncate_b64, cut_padding, wrong_shape, negative_shape, drop_shape, non_base64,
    ])
    def test_malformed_array_is_parameter_error(self, tmp_path, corrupt):
        path, doc = self._saved_doc(tmp_path)
        corrupt(doc["params"]["w1"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,shape", [("disc_b2", (4,)), ("w1", (5, 12))])
    def test_array_of_wrong_shape_is_parameter_error(self, tmp_path, key, shape):
        path, doc = self._saved_doc(tmp_path)
        doc["params"][key] = {
            "shape": list(shape),
            "b64": base64.b64encode(np.zeros(shape).tobytes()).decode("ascii"),
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match=key):
            load_checkpoint(path)

    def test_missing_field_is_parameter_error(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        del doc["params"]["bn2_var"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match="bn2_var"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("M", "x"),
        ("d", None),
        ("grl", [1]),
        ("grl", {"coefficient": "abc"}),
        ("params", [1]),
        ("train_config", [1, 2, 3]),
        ("gene_list", 5),
        ("M", 3.7),
        ("d", 8.9),
        ("domains", ["only"]),
        ("domains", [1, 2, None]),
        ("domains", ["A", "A", "B"]),
        ("domains", "ABC"),
    ], ids=["M-str", "d-null", "grl-list", "grl-str", "params-list", "config-list",
            "genes-int", "M-float", "d-float", "domains-short",
            "domains-not-str", "domains-repeated", "domains-str"])
    def test_malformed_field_is_parameter_error(self, tmp_path, key, value):
        path, doc = self._saved_doc(tmp_path)
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["norm_mean", "norm_std"])
    def test_norm_stats_of_wrong_length_is_parameter_error(self, tmp_path, key):
        path, doc = self._saved_doc(tmp_path)
        doc[key] = {
            "shape": [2],
            "b64": base64.b64encode(np.ones(2).tobytes()).decode("ascii"),
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ["[1, 2]", '{"format_version": 2', ""])
    def test_not_a_checkpoint_object_is_parameter_error(self, tmp_path, text):
        path = tmp_path / "ck.json"
        path.write_text(text)
        with pytest.raises(ParameterError):
            load_checkpoint(path)

    def test_loaded_arrays_writable_for_adam(self, tmp_path):
        path, _ = self._saved_doc(tmp_path)
        loaded, fresh = load_checkpoint(path), self._make()
        stats = [loaded.params.bn1_stats, loaded.params.bn2_stats]
        for a in [t.value for t in loaded.params.trainables()] + [
            s.mean for s in stats
        ] + [s.var for s in stats]:
            assert a.flags.writeable and a.flags.c_contiguous
        for params in (loaded.params, fresh.params):
            before = params.w1.value.copy()
            for i, t in enumerate(params.trainables()):
                t.grad[...] = np.cos(np.arange(t.value.size) + i).reshape(t.value.shape)
            Adam(params.values, params.grads, 1e-3).step()
            # the step on the arena moved the Params' views
            assert (params.w1.value != before).all()
        assert checkpoint_arrays(loaded) == checkpoint_arrays(fresh)
