"""Forward/backward correctness of the dense-matrix primitives."""

import weakref

import numpy as np
import pytest

from fourierdg.errors import (
    ParameterError,
)
from fourierdg.tensor_core import (
    BN_EPS,
    GradTape,
    Param,
    RngState,
    RunningStats,
    affine,
    batchnorm,
    dropout,
    eval_norm_relu,
    grad_check,
    relu,
    sigmoid,
)


class TestAffine:
    def test_identity_weights(self):
        x = np.array([[2.0, 3.0]])
        y = affine(x, Param(np.eye(2)), Param(np.zeros(2)))
        assert np.array_equal(y, x)

    def test_scalar_oracle(self):
        # [1,1] @ [[1,2],[3,4]] = [1+3, 2+4]
        x = np.array([[1.0, 1.0]])
        w = Param(np.array([[1.0, 2.0], [3.0, 4.0]]))
        y = affine(x, w, Param(np.zeros(2)))
        assert np.array_equal(y, [[4.0, 6.0]])

    def test_backward_scalar_oracle(self):
        x = np.array([[1.0, 1.0]])
        w = Param(np.eye(2))
        b = Param(np.zeros(2))
        tape = GradTape()
        affine(x, w, b, tape)
        dx = tape.backward(np.array([[1.0, 1.0]]))
        assert np.array_equal(dx, [[1.0, 1.0]])
        assert np.array_equal(w.grad, [[1.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(b.grad, [1.0, 1.0])

    def test_no_input_grad_same_param_grads(self):
        rng = np.random.default_rng(3)
        x, dy = rng.standard_normal((6, 5)), rng.standard_normal((6, 4))
        w_value, b_value = rng.standard_normal((5, 4)), rng.standard_normal(4)
        grads = []
        for input_grad in (True, False):
            w, b, tape = Param(w_value), Param(b_value), GradTape()
            y = affine(x, w, b, tape, input_grad=input_grad)
            dx = tape.backward(dy)
            grads.append((y.tobytes(), w.grad.tobytes(), b.grad.tobytes()))
            assert (dx is None) == (not input_grad)
        assert grads[0] == grads[1]

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError,
                           match="affine shape mismatch: x has 3 columns, W has 2 rows"):
            affine(np.ones((2, 3)), Param(np.ones((2, 2))), Param(np.zeros(2)))
        with pytest.raises(ParameterError, match=r"bias must have shape \(2,\), got \(3,\)"):
            affine(np.ones((2, 2)), Param(np.ones((2, 2))), Param(np.zeros(3)))


class TestRelu:
    def test_sign_split(self):
        assert np.array_equal(relu(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])

    def test_boundary(self):
        assert np.array_equal(relu(np.array([[0.0, 0.0]])), [[0.0, 0.0]])

    def test_backward_subgradient(self):
        tape = GradTape()
        relu(np.array([[-1.0, 2.0]]), tape)
        dx = tape.backward(np.array([[5.0, 5.0]]))
        assert np.array_equal(dx, [[0.0, 5.0]])

    def test_abs_identity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, (20, 7))
        assert np.array_equal(relu(x) + relu(-x), np.abs(x))


def two_branch_sigmoid(x):
    """Reference: 1 / (1 + exp(-x)) where x >= 0 and e^x / (1 + e^x)
    elsewhere, each computed on its own gathered entries."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_two_branch_formula(self, dtype):
        special = [0.0, -0.0, 1e3, -1e3, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324]
        x = np.concatenate([
            np.random.default_rng(0).standard_normal(2000) * 30, special,
        ]).astype(dtype).reshape(-1, 2)
        y = sigmoid(x)
        assert y.dtype == dtype
        assert y.tobytes() == two_branch_sigmoid(x).tobytes()


class TestBatchNorm:
    def test_two_sample_column(self):
        # mean 2, population variance 1, so outputs are +-1/sqrt(1+eps)
        gamma, beta = Param(np.ones(1)), Param(np.zeros(1))
        y = batchnorm(np.array([[1.0], [3.0]]), gamma, beta, RunningStats(1))
        delta = 1.0 - abs(y[0, 0])
        assert y[0, 0] < 0 < y[1, 0]
        assert 0 < delta < 1e-5
        assert abs(y[1, 0] + y[0, 0]) < 1e-15

    def test_eval_identity_stats(self):
        gamma, beta = Param(np.ones(2)), Param(np.zeros(2))
        x = np.array([[0.4, -1.2], [0.9, 0.1]])
        y = eval_norm_relu(x.copy(), gamma, beta, RunningStats(2))
        assert np.allclose(y, np.maximum(x, 0.0), atol=1e-5)

    def test_constant_column(self):
        gamma, beta = Param(np.ones(1)), Param(np.zeros(1))
        y = batchnorm(np.array([[5.0], [5.0]]), gamma, beta, RunningStats(1))
        assert np.array_equal(y, [[0.0], [0.0]])

    def test_small_batch_rejected(self):
        with pytest.raises(ParameterError, match="batchnorm needs batch >= 2, got 1"):
            batchnorm(np.ones((1, 2)), Param(np.ones(2)), Param(np.zeros(2)),
                      RunningStats(2))

    def test_running_stats_update(self):
        state = RunningStats(1)
        x = np.array([[1.0], [3.0]])
        batchnorm(x, Param(np.ones(1)), Param(np.zeros(1)), state)
        # momentum 0.1 toward batch mean 2, population var 1
        assert np.allclose(state.mean, [0.2])
        assert np.allclose(state.var, [0.9 * 1.0 + 0.1 * 1.0])


def var_formula_batchnorm(x, gamma, beta, mean, var, momentum=0.1, eps=1e-5):
    """Train-mode batch-norm through x.var: the single-pass statistics
    must match it bitwise."""
    mu = x.mean(axis=0)
    batch_var = x.var(axis=0)
    inv = 1.0 / np.sqrt(batch_var + eps)
    xhat = (x - mu) * inv
    y = gamma * xhat + beta
    return (y, (1.0 - momentum) * mean + momentum * mu,
            (1.0 - momentum) * var + momentum * batch_var)


class TestBatchNormBitwise:
    def test_train_mode_equals_var_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            b, m = int(rng.integers(2, 70)), int(rng.integers(1, 40))
            scale = 10.0 ** rng.integers(-6, 7)
            x = rng.standard_normal((b, m)) * scale + rng.standard_normal(m) * scale
            gamma, beta = rng.uniform(0.5, 1.5, m), rng.standard_normal(m)
            state = RunningStats(m)
            state.mean, state.var = rng.standard_normal(m), rng.uniform(0.5, 2.0, m)
            expected = var_formula_batchnorm(x, gamma, beta, state.mean, state.var)
            y = batchnorm(x, Param(gamma), Param(beta), state)
            assert y.tobytes() == expected[0].tobytes()
            assert state.mean.tobytes() == expected[1].tobytes()
            assert state.var.tobytes() == expected[2].tobytes()

    def test_eval_mode_equals_formula(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((9, 5)) * 3.0 + 1.0
        gamma, beta = rng.uniform(0.5, 1.5, 5), rng.standard_normal(5)
        state = RunningStats(5)
        state.mean, state.var = rng.standard_normal(5), rng.uniform(0.5, 2.0, 5)
        xhat = (x - state.mean) * (1.0 / np.sqrt(state.var + 1e-5))
        expected = relu(gamma * xhat + beta)
        y = eval_norm_relu(x, Param(gamma), Param(beta), state)
        assert y is x
        assert y.tobytes() == expected.tobytes()

    def test_eval_norm_relu_shape_mismatch(self):
        with pytest.raises(ParameterError, match="gamma/beta must match the column count"):
            eval_norm_relu(np.ones((2, 3)), Param(np.ones(2)), Param(np.zeros(2)),
                           RunningStats(2))


class TestDropout:
    def test_p_zero_noop(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        y = dropout(x, 0.0, RngState(0))
        assert np.array_equal(y, x)

    def test_bad_probability(self):
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ParameterError):
                dropout(np.ones((2, 2)), p, RngState(0))

    def test_keep_rate_monte_carlo(self):
        # 10^5 entries at p=0.5: empirical keep rate within [0.495, 0.505]
        rng = RngState(42)
        y = dropout(np.ones((500, 200)), 0.5, rng)
        keep = np.count_nonzero(y) / y.size
        assert 0.495 <= keep <= 0.505

    def test_expectation_preserved(self):
        # inverted scaling keeps the per-entry mean within 1% over 1e5 draws
        rng = RngState(7)
        row = np.array([[0.3, -1.2, 2.0, 0.7, -0.4, 1.5]])
        masked = dropout(np.tile(row, (100000, 1)), 0.1, rng)
        rel = np.abs(masked.mean(axis=0) - row.ravel()) / np.abs(row.ravel())
        assert rel.max() < 0.01

    def test_seed_determinism(self):
        x = np.ones((10, 10))
        a = dropout(x, 0.3, RngState(5))
        b = dropout(x, 0.3, RngState(5))
        assert np.array_equal(a, b)
        c = dropout(x, 0.3, RngState(6))
        assert not np.array_equal(a, c)

    def test_backward_masks_like_forward(self):
        tape = GradTape()
        x = np.ones((4, 4))
        y = dropout(x, 0.5, RngState(1), tape)
        dx = tape.backward(np.ones_like(x))
        assert np.array_equal(dx, y)


class TestGradTape:
    def test_single_use(self):
        tape = GradTape()
        relu(np.ones((1, 2)), tape)
        tape.backward(np.ones((1, 2)))
        with pytest.raises(ParameterError, match="tape already consumed; one backward per forward"):
            tape.backward(np.ones((1, 2)))

    def test_backward_releases_recorded_activations(self):
        # affine's record holds its input until the tape's one replay
        x = np.ones((3, 2))
        alive = weakref.ref(x)
        tape = GradTape()
        affine(x, Param(np.ones((2, 2))), Param(np.zeros(2)), tape)
        del x
        assert alive() is not None
        tape.backward(np.ones((3, 2)))
        assert alive() is None

    def test_reverse_order_composition(self):
        # y = relu(x @ W); backward must apply relu mask before W^T
        x = np.array([[1.0, -1.0]])
        w = Param(np.array([[1.0, 0.0], [0.0, -1.0]]))
        tape = GradTape()
        relu(affine(x, w, Param(np.zeros(2)), tape), tape)
        dx = tape.backward(np.array([[1.0, 1.0]]))
        # forward pre-activation [1, 1]; both pass relu, dX = dY @ W.T
        assert np.array_equal(dx, [[1.0, -1.0]])


class TestZeroGrad:
    """``zero_grad`` writes nothing: the next backward overwrites ``grad``,
    and a later one adds to it."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_overwrites_then_adds(self, dtype):
        rng = np.random.default_rng(8)
        x, dy = (rng.standard_normal((6, 5)).astype(dtype),
                 rng.standard_normal((6, 4)).astype(dtype))
        w, b = (Param(rng.standard_normal(shape).astype(dtype)) for shape in ((5, 4), (4,)))
        gamma, beta = Param(np.ones(5, dtype)), Param(np.zeros(5, dtype))
        params = (w, b, gamma, beta)
        for p in params:
            p.grad[...] = 7.0  # what a previous batch left
            p.zero_grad()
            assert (p.grad == 7.0).all()  # no pass over the array

        def backward():
            tape = GradTape()
            affine(batchnorm(x, gamma, beta, RunningStats(5, dtype), tape), w, b, tape)
            tape.backward(dy)

        backward()
        # batchnorm's normalized input and upstream gradient, by the same
        # operations as its forward and backward
        xc = x - x.mean(axis=0)
        xhat = xc * (1.0 / np.sqrt((xc * xc).mean(axis=0) + BN_EPS))
        dh = dy @ w.value.T
        first = (xhat.T @ dy, dy.sum(axis=0), (dh * xhat).sum(axis=0), dh.sum(axis=0))
        for p, want in zip(params, first):
            assert p.grad.dtype == dtype and p.grad.tobytes() == want.tobytes()

        backward()  # no zero_grad in between: accumulates
        for p, want in zip(params, first):
            assert p.grad.tobytes() == (want + want).tobytes()


class TestRngState:
    def test_same_sequence_same_stream(self):
        a, b = RngState(123), RngState(123)
        assert np.array_equal(a.normal((3, 3)), b.normal((3, 3)))
        assert np.array_equal(a.permutation(10), b.permutation(10))

    def test_counter_advances(self):
        rng = RngState(123)
        first = rng.random((4,))
        second = rng.random((4,))
        assert not np.array_equal(first, second)
        assert rng.counter == 2


class TestGradCheck:
    def test_quadratic(self):
        err = grad_check(lambda v: (float(v[0] ** 2), np.array([2.0 * v[0]])),
                         np.array([3.0]))
        assert err < 1e-8

    def test_constant(self):
        err = grad_check(lambda v: (1.0, np.zeros_like(v)), np.array([0.3, -2.0]))
        assert err == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError, match=r"f\(x0\) is not finite"):
            grad_check(lambda v: (float("nan"), np.zeros_like(v)), np.array([1.0]))


class TestPrimitiveGradients:
    """Analytic backward vs central differences on random [-1, 1] inputs."""

    TOL = 1e-4

    def _check(self, forward, x0):
        def f(vec):
            x = vec.reshape(x0.shape)
            tape = GradTape()
            y = forward(x, tape)
            value = float(y.sum())
            grad = tape.backward(np.ones_like(y))
            return value, grad.ravel()

        return grad_check(f, x0.ravel())

    def test_affine_inputs(self):
        rng = np.random.default_rng(1)
        w = Param(rng.uniform(-1, 1, (4, 3)))
        b = Param(rng.uniform(-1, 1, 3))
        x0 = rng.uniform(-1, 1, (5, 4))
        assert self._check(lambda x, t: affine(x, w, b, t), x0) < self.TOL

    def test_affine_params(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (5, 4))
        w0 = rng.uniform(-1, 1, (4, 3))

        def f(vec):
            w = Param(vec.reshape(4, 3))
            tape = GradTape()
            y = affine(x, w, Param(np.zeros(3)), tape)
            tape.backward(np.ones_like(y))
            return float(y.sum()), w.grad.ravel()

        assert grad_check(f, w0.ravel()) < self.TOL

    def test_relu(self):
        rng = np.random.default_rng(3)
        # keep values away from the kink, where FD is ill-defined
        x0 = rng.uniform(-1, 1, (6, 4))
        x0[np.abs(x0) < 1e-3] = 0.5
        assert self._check(lambda x, t: relu(x, t), x0) < self.TOL

    def test_sigmoid(self):
        rng = np.random.default_rng(4)
        x0 = rng.uniform(-1, 1, (6, 4))
        assert self._check(lambda x, t: sigmoid(x, t), x0) < self.TOL

    def test_batchnorm(self):
        rng = np.random.default_rng(5)
        gamma = Param(rng.uniform(0.5, 1.5, 4))
        beta = Param(rng.uniform(-1, 1, 4))
        x0 = rng.uniform(-1, 1, (8, 4))

        def forward(x, tape):
            return batchnorm(x, gamma, beta, RunningStats(4), tape)

        assert self._check(forward, x0) < self.TOL
