"""Forward/backward correctness of the dense-matrix primitives."""

import weakref

import numpy as np
import pytest

from fourierdg.errors import (
    BatchSizeError,
    DimensionError,
    EvaluationError,
    ParameterError,
    TapeError,
)
from fourierdg.tensor_core import (
    GradTape,
    Param,
    RngState,
    RunningStats,
    affine,
    batchnorm,
    dropout,
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
        with pytest.raises(DimensionError):
            affine(np.ones((2, 3)), Param(np.ones((2, 2))), Param(np.zeros(2)))
        with pytest.raises(DimensionError):
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


class TestBatchNorm:
    def test_two_sample_column(self):
        # mean 2, population variance 1, so outputs are +-1/sqrt(1+eps)
        gamma, beta = Param(np.ones(1)), Param(np.zeros(1))
        y = batchnorm(np.array([[1.0], [3.0]]), gamma, beta, RunningStats(1), "train")
        delta = 1.0 - abs(y[0, 0])
        assert y[0, 0] < 0 < y[1, 0]
        assert 0 < delta < 1e-5
        assert abs(y[1, 0] + y[0, 0]) < 1e-15

    def test_eval_identity_stats(self):
        gamma, beta = Param(np.ones(2)), Param(np.zeros(2))
        x = np.array([[0.4, -1.2], [0.9, 0.1]])
        y = batchnorm(x, gamma, beta, RunningStats(2), "eval")
        assert np.allclose(y, x, atol=1e-5)

    def test_constant_column(self):
        gamma, beta = Param(np.ones(1)), Param(np.zeros(1))
        y = batchnorm(np.array([[5.0], [5.0]]), gamma, beta, RunningStats(1), "train")
        assert np.array_equal(y, [[0.0], [0.0]])

    def test_small_batch_rejected(self):
        with pytest.raises(BatchSizeError):
            batchnorm(np.ones((1, 2)), Param(np.ones(2)), Param(np.zeros(2)),
                      RunningStats(2), "train")

    def test_running_stats_update(self):
        state = RunningStats(1)
        x = np.array([[1.0], [3.0]])
        batchnorm(x, Param(np.ones(1)), Param(np.zeros(1)), state, "train")
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
            y = batchnorm(x, Param(gamma), Param(beta), state, "train")
            assert y.tobytes() == expected[0].tobytes()
            assert state.mean.tobytes() == expected[1].tobytes()
            assert state.var.tobytes() == expected[2].tobytes()


class TestDropout:
    def test_p_zero_noop(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        y = dropout(x, 0.0, RngState(0), "train")
        assert np.array_equal(y, x)

    def test_eval_identity(self):
        x = np.array([[1.0, -2.0]])
        assert np.array_equal(dropout(x, 0.1, None, "eval"), x)

    def test_bad_probability(self):
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ParameterError):
                dropout(np.ones((2, 2)), p, RngState(0), "train")

    def test_keep_rate_monte_carlo(self):
        # 10^5 entries at p=0.5: empirical keep rate within [0.495, 0.505]
        rng = RngState(42)
        y = dropout(np.ones((500, 200)), 0.5, rng, "train")
        keep = np.count_nonzero(y) / y.size
        assert 0.495 <= keep <= 0.505

    def test_expectation_preserved(self):
        # inverted scaling keeps the per-entry mean within 1% over 1e5 draws
        rng = RngState(7)
        row = np.array([[0.3, -1.2, 2.0, 0.7, -0.4, 1.5]])
        masked = dropout(np.tile(row, (100000, 1)), 0.1, rng, "train")
        rel = np.abs(masked.mean(axis=0) - row.ravel()) / np.abs(row.ravel())
        assert rel.max() < 0.01

    def test_seed_determinism(self):
        x = np.ones((10, 10))
        a = dropout(x, 0.3, RngState(5), "train")
        b = dropout(x, 0.3, RngState(5), "train")
        assert np.array_equal(a, b)
        c = dropout(x, 0.3, RngState(6), "train")
        assert not np.array_equal(a, c)

    def test_backward_masks_like_forward(self):
        tape = GradTape()
        x = np.ones((4, 4))
        y = dropout(x, 0.5, RngState(1), "train", tape)
        dx = tape.backward(np.ones_like(x))
        assert np.array_equal(dx, y)


class TestGradTape:
    def test_single_use(self):
        tape = GradTape()
        relu(np.ones((1, 2)), tape)
        tape.backward(np.ones((1, 2)))
        with pytest.raises(TapeError):
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
                         np.array([3.0]), h=1e-5)
        assert err < 1e-8

    def test_constant(self):
        err = grad_check(lambda v: (1.0, np.zeros_like(v)), np.array([0.3, -2.0]))
        assert err == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(EvaluationError):
            grad_check(lambda v: (float("nan"), np.zeros_like(v)), np.array([1.0]))

    def test_bad_step(self):
        with pytest.raises(ParameterError):
            grad_check(lambda v: (0.0, np.zeros_like(v)), np.array([1.0]), h=0.0)


class TestPrimitiveGradients:
    """Analytic backward vs central differences on random [-1, 1] inputs."""

    H = 1e-5
    TOL = 1e-4

    def _check(self, forward, x0):
        def f(vec):
            x = vec.reshape(x0.shape)
            tape = GradTape()
            y = forward(x, tape)
            value = float(y.sum())
            grad = tape.backward(np.ones_like(y))
            return value, grad.ravel()

        return grad_check(f, x0.ravel(), h=self.H)

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

        assert grad_check(f, w0.ravel(), h=self.H) < self.TOL

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
            return batchnorm(x, gamma, beta, RunningStats(4), "train", tape)

        assert self._check(forward, x0) < self.TOL
