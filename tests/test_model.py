"""Network assembly, gradient reversal, checkpoints, and the
reduced-model gradient audit."""

import json
import math
import re
import time
import weakref

import numpy as np
import pytest

from fourierdg import fourier, model
from fourierdg.data import NormStats
from fourierdg.errors import ParameterError
from fourierdg.losses import asymmetric_loss, classification_loss, domain_adversarial_loss
from fourierdg.model import (
    Checkpoint,
    ForwardTapes,
    GrlConfig,
    ModelParams,
    batch_objective,
    checkpoint_to_json,
    encode,
    forward_full,
    gradient_suite,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from fourierdg.tensor_core import RngState, affine, grad_check
from fourierdg.train import Adam, TrainConfig

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
        with pytest.raises(ParameterError, match="12"):
            encode(np.zeros((3, 5)), params, "eval")

    def test_eval_is_pure(self):
        params = small_params()
        before_mean = params.bn1_stats.mean.copy()
        before_var = params.bn2_stats.var.copy()
        x = np.random.default_rng(1).standard_normal((4, 12))
        x_before = x.copy()
        encode(x, params, "eval")
        assert np.array_equal(params.bn1_stats.mean, before_mean)
        assert np.array_equal(params.bn2_stats.var, before_var)
        assert x.tobytes() == x_before.tobytes()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError, match="'test'"):
            encode(np.zeros((3, 12)), small_params(), "test")


class TestForwardFull:
    def test_logit_is_the_classifier_affine(self):
        params = small_params()
        x = np.random.default_rng(2).standard_normal((6, 12))
        z, logit, _ = forward_full(x, params, GrlConfig(1.0), ForwardTapes())
        assert np.array_equal(logit, affine(z, params.clf_w, params.clf_b))

    def test_z_matches_composition(self):
        params = small_params()
        x = np.random.default_rng(3).standard_normal((6, 12))
        z, _, _ = forward_full(x, params, GrlConfig(1.0), ForwardTapes())
        direct = fourier.project(encode(x, params, "train"), params.basis)
        assert np.array_equal(z, direct)

    def test_zero_coefficient_kills_adversarial_gradient(self):
        params = small_params()
        x = np.random.default_rng(4).standard_normal((6, 12))
        dom = np.array([0, 1, 2, 0, 1, 2])
        tapes = ForwardTapes()
        _, _, logits = forward_full(x, params, GrlConfig(0.0), tapes)
        _, dlogits = domain_adversarial_loss(logits, dom)
        for t in params.trainables():
            t.zero_grad()
        dz = tapes.discriminator.backward(dlogits)
        assert np.array_equal(dz, np.zeros_like(dz))


class TestGrlConfig:
    def test_negative_coefficient_rejected(self):
        for coefficient in (-1.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                GrlConfig(coefficient)


def _adv_encoder_grads(params, x, dom, grl):
    work = params.copy()
    tapes = ForwardTapes()
    _, _, logits = forward_full(x, work, grl, tapes)
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
        err = gradient_suite()
        elapsed = time.time() - start
        assert err < 1e-4
        assert elapsed < 10.0


class TestFloat32Model:
    """The float32 model ``fit`` trains, against the float64 model of the
    gradient audit: ``gradient_suite``'s reduced model, batch and weights."""

    Y = np.array([1, 1, 1, 0, 0, 0])
    DOM = np.array([0, 1, 2, 0, 1, 2])

    @staticmethod
    def twins():
        """Equal float32 and float64 models and a batch, all representable
        in float32."""
        rng = RngState(0)
        p64 = init_params(12, 3, rng, hidden=10, d=8, disc_hidden=6)
        p64.values[...] = p64.values.astype(np.float32)
        x = rng.normal((6, 12)).astype(np.float32)
        return p64.astype(np.float32), p64, x

    def test_gradients_agree_with_float64(self):
        p32, p64, x = self.twins()
        assert p32.grads.dtype == np.float32 and p64.grads.dtype == np.float64
        for params in (p32, p64):
            batch_objective(x, self.Y, self.DOM, params, GrlConfig(0.9), 0.7, 1.3)
        g32, g64 = p32.grads.astype(np.float64), p64.grads
        assert g64.any()
        rel = np.abs(g32 - g64) / np.maximum(1.0, np.maximum(np.abs(g32), np.abs(g64)))
        assert rel.max() <= 1e-4, rel.max()

    def test_forward_and_backward_stay_float32(self, monkeypatch):
        # a float64 value anywhere would silently run the matmuls in float64
        seen = []
        tape_backward = model.GradTape.backward

        def spy(tape, upstream):
            out = tape_backward(tape, upstream)
            seen.append((upstream.dtype, None if out is None else out.dtype))
            return out

        monkeypatch.setattr(model.GradTape, "backward", spy)
        p32, _, x = self.twins()
        z, logit, logits = forward_full(x, p32, GrlConfig(0.9), ForwardTapes(), RngState(1), 0.5)
        assert z.dtype == logit.dtype == logits.dtype == np.float32
        # numpy scalars, which a TrainConfig accepts, must not promote either
        grl, lambda1, lambda2 = GrlConfig(np.float64(0.9)), np.float64(0.7), np.float64(1.3)
        batch_objective(x, self.Y, self.DOM, p32, grl, lambda1, lambda2, RngState(1), 0.5)
        # classifier, discriminator, then encoder, whose first affine
        # returns no input gradient
        f32 = np.dtype(np.float32)
        assert seen == [(f32, f32), (f32, f32), (f32, None)]

    # a confidently wrong row keeps its whole gradient at the logit,
    # (sigmoid(l) - y) / b, although sigmoid(20) is 1.0 in float32
    def test_saturated_logit_gradient(self):
        logit = np.array([[20.0], [-90.0]], dtype=np.float32)
        _, grad = classification_loss(logit, [0, 1])
        assert grad.dtype == np.float64
        assert grad == pytest.approx([0.5, -0.5], rel=1e-8)

    def test_saturated_bias_gradient(self):
        p32, _, x = self.twins()
        p32.clf_w.value[...] = 0.0
        p32.clf_b.value[...] = 20.0
        lambda2 = 1.3
        batch_objective(x, self.Y, self.DOM, p32, GrlConfig(0.9), 0.7, lambda2)
        n_resistant = int((self.Y == 0).sum())
        assert p32.clf_b.grad.dtype == np.float32
        assert p32.clf_b.grad[0] == pytest.approx(lambda2 * n_resistant / self.Y.size, rel=1e-6)


def objective_terms(params, x, y, dom):
    """(l_asy, l_adv, l_cls) of a train-mode forward without dropout."""
    z, logit, logits = forward_full(x, params, None, ForwardTapes())
    return (asymmetric_loss(z, y)[0], domain_adversarial_loss(logits, dom)[0],
            classification_loss(logit, y)[0])


class TestBatchObjective:
    Y = np.array([1, 1, 1, 0, 0, 0])
    DOM = np.array([0, 1, 2, 0, 1, 2])

    # no reversal layer, and one of coefficient 0, under each weighting
    @pytest.mark.parametrize("lambda1,lambda2,grl", [
        pytest.param(lambda1, lambda2, grl, id=f"{lambda1}-{lambda2}{suffix}")
        for grl, suffix in ((None, ""), (GrlConfig(0.0), "-grl0"))
        for lambda1, lambda2 in ((0.7, 1.3), (0.0, 1.0), (1.0, 0.0))
    ])
    def test_backward_is_gradient_of_weighted_sum(self, lambda1, lambda2, grl):
        base = small_params(6)
        x = RngState(6).normal((6, 12))
        work = base.copy()
        # zero_grad writes nothing, so each gradient left from a previous
        # batch must be overwritten by this step's backward
        work.grads[...] = 7.0
        terms = batch_objective(x, self.Y, self.DOM, work, grl, lambda1, lambda2)
        l_asy, l_adv, l_cls = objective_terms(base, x, self.Y, self.DOM)
        assert terms == (l_asy if lambda1 else 0.0, l_adv, l_cls)

        def weighted_check(adv_weight, lo, hi):
            """grad_check of the arena slice [lo, hi) against the weighted sum."""
            def f(v):
                m = base.copy()
                m.values[lo:hi] = v
                l_asy, l_adv, l_cls = objective_terms(m, x, self.Y, self.DOM)
                return adv_weight * l_adv + lambda1 * l_asy + lambda2 * l_cls, work.grads[lo:hi]

            return grad_check(f, base.values[lo:hi].copy())

        # the encoder takes l_adv through the reversal layer, if there is one
        n_enc = sum(p.value.size for p in base.encoder_trainables())
        adv_weight = 1.0 if grl is None else -grl.coefficient
        assert weighted_check(adv_weight, 0, n_enc) < 1e-4
        assert weighted_check(1.0, n_enc, base.values.size) < 1e-4

    def test_zero_lambda1_never_calls_asymmetric_loss(self, monkeypatch):
        def fail(*_):
            raise AssertionError("asymmetric_loss called with lambda1 = 0")

        monkeypatch.setattr("fourierdg.model.asymmetric_loss", fail)
        params = small_params(7)
        x = RngState(7).normal((6, 12))
        terms = batch_objective(x, self.Y, self.DOM, params, GrlConfig(1.0), 0.0, 1.0)
        assert terms[0] == 0.0 and np.isfinite(params.grads).all()

    def test_tapes_freed_on_return(self, monkeypatch):
        made = []

        def tracked():
            tapes = ForwardTapes()
            made.append(weakref.ref(tapes))
            return tapes

        monkeypatch.setattr("fourierdg.model.ForwardTapes", tracked)
        params = small_params(7)
        x = RngState(7).normal((6, 12))
        result = batch_objective(x, self.Y, self.DOM, params, GrlConfig(1.0), 1.0, 1.0)
        assert len(made) == 1 and made[0]() is None
        assert len(result) == 3 and all(type(v) is float for v in result)


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

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, self._make())
        before = path.read_bytes()
        bad = self._make()
        bad.train_config["lr"] = np.float32(8e-5)  # not JSON-serializable
        with pytest.raises(TypeError):
            save_checkpoint(path, bad)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]

    def test_version_gate(self, tmp_path):
        """An unknown format_version heading a format-3 file is refused, and
        so are the one-line JSON documents of the retired formats 1 and 2."""
        path = tmp_path / "ck.json"
        save_checkpoint(path, self._make())
        header, body = split_checkpoint(path)
        header["format_version"] = 99
        write_checkpoint(path, header, body)
        with pytest.raises(ParameterError, match=named(path, "unsupported .* 99")):
            load_checkpoint(path)
        for version in (1, 2):
            path.write_text(json.dumps({"format_version": version}))
            with pytest.raises(ParameterError, match=named(
                    path, f"unsupported checkpoint format_version {version}$")):
                load_checkpoint(path)


def checkpoint_arrays(ckpt):
    """Every stored float array of a checkpoint, as raw bytes."""
    p = ckpt.params
    arrays = [t.value for t in p.trainables()]
    arrays += [p.bn1_stats.mean, p.bn1_stats.var, p.bn2_stats.mean, p.bn2_stats.var]
    arrays += [ckpt.stats.mean, ckpt.stats.std]
    return [(a.shape, a.tobytes()) for a in arrays]


def split_checkpoint(path):
    """A format-3 file's parsed header line and its body bytes."""
    line, body = path.read_bytes().split(b"\n", 1)
    return json.loads(line), body


def write_checkpoint(path, header, body):
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def named(path, pattern=""):
    """A ``match`` pattern for an error message that starts with ``path``."""
    return f"^{re.escape(str(path))}: {pattern}"


def test_copies_share_the_basis():
    params = small_params(4)
    assert params.copy().basis is params.basis


MALFORMED_FIELDS = [
    ("M", "x", "checkpoint field 'M' must be an integer"),
    ("d", None, "checkpoint field 'd' must be an integer"),
    ("grl", [1], "malformed checkpoint: list indices must be integers or slices, not str"),
    ("grl", {"coefficient": "abc"}, "checkpoint field 'grl.coefficient' must be a number"),
    ("arrays", [1], "malformed checkpoint: cannot convert dictionary update sequence "
                    "element #0 to a sequence"),
    ("train_config", [1, 2, 3], "checkpoint field 'train_config' must be an object"),
    ("gene_list", 5, "checkpoint field 'gene_list' must list distinct gene names"),
    ("M", 3.7, "checkpoint field 'M' must be an integer"),
    ("d", 8.9, "checkpoint field 'd' must be an integer"),
    ("domains", ["only"], "checkpoint field 'domains' must list 3 distinct names"),
    ("domains", [1, 2, None], "checkpoint field 'domains' must list 3 distinct names"),
    ("domains", ["A", "A", "B"], "checkpoint field 'domains' must list 3 distinct names"),
    ("domains", "ABC", "checkpoint field 'domains' must list 3 distinct names"),
    ("gene_list", "abcde", "checkpoint field 'gene_list' must list distinct gene names"),
    ("gene_list", [1, 2, 3, 4, 5],
     "checkpoint field 'gene_list' must list distinct gene names"),
    ("gene_list", ["a", "a", "b", "c", "d"],
     "checkpoint field 'gene_list' must list distinct gene names"),
    ("d", -2, "every width must be >= 1"),
    ("grl", {"coefficient": True}, "checkpoint field 'grl.coefficient' must be a number"),
    ("grl", {"coefficient": "1.5"}, "checkpoint field 'grl.coefficient' must be a number"),
    ("train_config", [["lr", 1]], "checkpoint field 'train_config' must be an object"),
    ("grl", {}, "checkpoint is missing field 'coefficient'"),
    ("arrays", [["w1"]], "malformed checkpoint: dictionary update sequence element #0 "
                         "has length 1; 2 is required"),
    # 3.0 and true equal 3 but would not save back to the same bytes
    ("format_version", 3.0, "unsupported checkpoint format_version 3.0"),
    ("format_version", True, "unsupported checkpoint format_version True"),
]
MALFORMED_FIELD_IDS = [
    "M-str", "d-null", "grl-list", "grl-str", "arrays-list", "config-list",
    "genes-int", "M-float", "d-float", "domains-short", "domains-not-str",
    "domains-repeated", "domains-str", "genes-str", "genes-not-str", "genes-repeated",
    "d-negative", "grl-bool", "grl-numeric-str", "config-pairs", "grl-empty",
    "arrays-no-shape", "version-float", "version-bool",
]


class TestCheckpointFormat:
    _make = TestCheckpoint._make

    def _saved(self, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(path, self._make())
        return (path, *split_checkpoint(path))

    def test_layout_is_header_line_then_raw_arrays(self, tmp_path):
        ckpt = self._make()
        path, header, body = self._saved(tmp_path)
        keys = [slot for slot, _, _ in ModelParams.TRAINABLES] + [
            "bn1_mean", "bn1_var", "bn2_mean", "bn2_var", "norm_mean", "norm_std",
        ]
        stored = checkpoint_arrays(ckpt)
        assert header == {
            "format_version": 3, "d": 8, "M": 3, "gene_list": ckpt.params.gene_list,
            "grl": {"coefficient": 0.8}, "train_config": ckpt.train_config,
            "domains": ["A", "B", "C"],
            "arrays": [[key, list(shape)] for key, (shape, _) in zip(keys, stored)],
        }
        assert body == b"".join(raw for _, raw in stored)
        # the header is one sorted, compact line: what checkpoint_to_json returns
        assert path.read_bytes().startswith(checkpoint_to_json(ckpt).encode() + b"\n")

    def test_special_values_exact(self, tmp_path):
        ckpt = self._make()
        ckpt.params.b1.value[:4] = [-0.0, 5e-324, np.finfo(float).max, np.pi]
        path = tmp_path / "ck.json"
        save_checkpoint(path, ckpt)
        assert checkpoint_arrays(load_checkpoint(path)) == checkpoint_arrays(ckpt)

    @pytest.mark.parametrize("key,value,message", MALFORMED_FIELDS, ids=MALFORMED_FIELD_IDS)
    def test_malformed_header_field_is_parameter_error(self, tmp_path, key, value, message):
        path, header, body = self._saved(tmp_path)
        header[key] = value
        write_checkpoint(path, header, body)
        with pytest.raises(ParameterError, match=named(path, re.escape(message))):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ["[1, 2]", '{"format_version": 2', ""])
    def test_not_a_checkpoint_object_is_parameter_error(self, tmp_path, text):
        path = tmp_path / "ck.json"
        path.write_text(text)
        with pytest.raises(ParameterError):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut, pattern", [
        (lambda body: body[:-8], "checkpoint body holds 2504 bytes, its header lists 2512"),
        (lambda body: body + b"\0", "checkpoint body holds 2513 bytes, its header lists 2512"),
        (lambda body: b"", "checkpoint body holds 0 bytes"),
    ], ids=["truncated", "trailing-byte", "no-body"])
    def test_body_of_wrong_length_is_parameter_error(self, tmp_path, cut, pattern):
        path, header, body = self._saved(tmp_path)
        assert len(body) == 2512
        write_checkpoint(path, header, cut(body))
        with pytest.raises(ParameterError, match=named(path, pattern)):
            load_checkpoint(path)

    @pytest.mark.parametrize("index, shape, pattern", [
        (0, [5, 12], r"checkpoint array 'w1' has shape \[5, 12\], expected \[5, 10\]"),
        (13, [4], r"checkpoint array 'disc_b2' has shape \[4\], expected \[3\]"),
        (18, [2], r"checkpoint array 'norm_mean' has shape \[2\], expected \[5\]"),
        (19, [2], r"checkpoint array 'norm_std' has shape \[2\], expected \[5\]"),
        (1, [-10], "every width must be >= 1"),
        (11, [0], "every width must be >= 1"),
        (1, [10.0], "checkpoint array 'b1' shape must list integers"),
        (9, [True], "checkpoint array 'clf_b' shape must list integers"),
    ], ids=["w1-genes", "disc_b2-domains", "norm_mean-genes", "norm_std-genes",
            "hidden-negative", "disc_hidden-zero", "b1-float", "clf_b-bool"])
    def test_header_shape_against_widths_is_parameter_error(
            self, tmp_path, index, shape, pattern):
        path, header, body = self._saved(tmp_path)
        header["arrays"][index][1] = shape
        write_checkpoint(path, header, body)
        with pytest.raises(ParameterError, match=named(path, pattern)):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda arrays: arrays[:-1],
        lambda arrays: arrays[1:] + arrays[:1],
        lambda arrays: arrays + arrays[-1:],
        lambda arrays: [entry for entry in arrays if entry[0] != "bn2_var"],
    ], ids=["one-missing", "out-of-order", "repeated", "bn2_var-missing"])
    def test_header_listing_other_arrays_is_parameter_error(self, tmp_path, edit):
        path, header, body = self._saved(tmp_path)
        header["arrays"] = edit(header["arrays"])
        write_checkpoint(path, header, body)
        with pytest.raises(ParameterError, match=named(path, "checkpoint header must list")):
            load_checkpoint(path)

    @staticmethod
    def _refuse_model_allocation(monkeypatch):
        """Fail at once, not after minutes, if a load starts to build a model."""
        def refuse(*args):
            raise AssertionError(f"model allocated for {args}")
        monkeypatch.setattr(fourier, "build_basis", refuse)
        monkeypatch.setattr(model, "zeros_mapped", refuse)

    @pytest.mark.parametrize("edit, pattern", [
        (lambda header: header.update(d=200000), "d must be even and at most 4096, got 200000$"),
        (lambda header: header["arrays"][1].__setitem__(1, [10**9]),
         r"checkpoint array 'w1' has shape \[5, 10\], expected \[5, 1000000000\]"),
    ], ids=["d", "b1"])
    def test_header_widths_are_checked_before_allocating(
            self, tmp_path, monkeypatch, edit, pattern):
        path, header, body = self._saved(tmp_path)
        edit(header)
        write_checkpoint(path, header, body)
        self._refuse_model_allocation(monkeypatch)
        with pytest.raises(ParameterError, match=named(path, pattern)):
            load_checkpoint(path)

    def test_d_above_the_cap_is_refused_before_allocating(self, tmp_path, monkeypatch):
        # every listed shape (d is the only width of 8) and the body's length
        # agree with the new d, so only the cap stops a d x d basis
        path, header, _ = self._saved(tmp_path)
        d = fourier.MAX_DIM + 2
        header["d"] = d
        header["arrays"] = [[key, [d if n == 8 else n for n in shape]]
                            for key, shape in header["arrays"]]
        floats = sum(math.prod(shape) for _, shape in header["arrays"])
        write_checkpoint(path, header, bytes(8 * floats))
        self._refuse_model_allocation(monkeypatch)
        with pytest.raises(ParameterError, match=named(
                path, f"d must be even and at most {fourier.MAX_DIM}, got {d}$")):
            load_checkpoint(path)

    def test_body_length_is_checked_before_allocating(self, tmp_path, monkeypatch):
        path, header, body = self._saved(tmp_path)
        write_checkpoint(path, header, body[:-8])
        self._refuse_model_allocation(monkeypatch)
        with pytest.raises(ParameterError, match=named(path, "checkpoint body holds 2504")):
            load_checkpoint(path)

    def test_header_not_json_is_parameter_error(self, tmp_path):
        path, _, body = self._saved(tmp_path)
        path.write_bytes(b'{"format_version": 3,\n' + body)
        with pytest.raises(ParameterError, match=named(path, "checkpoint is not")):
            load_checkpoint(path)

    def test_header_not_utf8_is_parameter_error(self, tmp_path):
        path, header, body = self._saved(tmp_path)
        line = json.dumps(header).replace('"g0"', '"caf\xe9"', 1).encode("latin-1")
        path.write_bytes(line + b"\n" + body)
        with pytest.raises(ParameterError, match=named(
                path, "checkpoint is not UTF-8 text: cannot decode byte 0xe9$")):
            load_checkpoint(path)

    def test_loaded_arrays_writable_for_adam(self, tmp_path):
        path, _, _ = self._saved(tmp_path)
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
