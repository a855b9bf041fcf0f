"""Dense-matrix primitives with hand-written analytic backward passes.

Matrices are 2-D C-contiguous float64 numpy arrays throughout.  Every
primitive optionally records itself on a :class:`GradTape`; replaying the
tape propagates an upstream gradient back through the chain in exact
reverse order of the forward calls, accumulating parameter gradients into
:class:`Param` objects along the way.
"""

from __future__ import annotations

import math
import mmap
from typing import Callable, Optional

import numpy as np

from .errors import (
    BatchSizeError,
    DimensionError,
    EvaluationError,
    ParameterError,
    TapeError,
)

Array = np.ndarray

BN_MOMENTUM = 0.1  # weight of the batch statistics in the running ones
BN_EPS = 1e-5


class Param:
    """A trainable array with an accumulated gradient.

    ``value`` is C-contiguous float64.  ``grad`` defaults to zeros; a model
    passes views into its flat storage for both (see ``ModelParams``).
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, grad: Optional[Array] = None):
        self.value = np.asarray(value, dtype=np.float64, order="C")
        self.grad = np.zeros_like(self.value) if grad is None else grad

    def zero_grad(self):
        self.grad[...] = 0.0


def zeros_mapped(n: int) -> Array:
    """``n`` float64 zeros in an anonymous memory map of their own.

    For long-lived multi-MB buffers (parameter arenas, Adam moments).
    Freeing one as a malloc block would raise glibc's dynamic mmap
    threshold to its size, after which medium arrays stay on the heap and
    fragment it; a map of its own is returned to the system whole.
    """
    if n == 0:
        return np.zeros(0)
    return np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.float64)


def flat_views(flat: Array, shapes) -> list[Array]:
    """Consecutive reshaped views of a 1-D buffer, one per shape."""
    views, offset = [], 0
    for shape in shapes:
        end = offset + math.prod(shape)
        views.append(flat[offset:end].reshape(shape))
        offset = end
    return views


class GradTape:
    """Ordered record of primitive applications.

    ``backward`` visits the records in exact reverse order of the forward
    calls and may be invoked once per tape; it then drops the records, and
    with them the activations they hold.
    """

    def __init__(self):
        self._records: Optional[list[Callable[[Array], Array]]] = []

    def record(self, backward_fn: Callable[[Array], Array]):
        self._records.append(backward_fn)

    def backward(self, upstream: Array) -> Array:
        """Propagate ``upstream`` back through the chain; returns dInput."""
        records, self._records = self._records, None
        if records is None:
            raise TapeError("tape already consumed; one backward per forward")
        g = upstream
        for fn in reversed(records):
            g = fn(g)
        return g


class RngState:
    """Counter-based seeded randomness.

    Each draw derives a fresh generator from (seed, counter) and advances
    the counter, so identical seeds plus identical call sequences yield
    identical streams regardless of how much each draw consumes.
    """

    __slots__ = ("seed", "counter")

    def __init__(self, seed: int):
        self.seed = int(seed) % 2**64
        self.counter = 0

    def _next(self) -> np.random.Generator:
        g = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.counter,))
        )
        self.counter += 1
        return g

    def random(self, shape) -> Array:
        return self._next().random(shape)

    def uniform(self, low: float, high: float, shape) -> Array:
        return self._next().uniform(low, high, shape)

    def normal(self, shape) -> Array:
        return self._next().standard_normal(shape)

    def permutation(self, n: int) -> Array:
        return self._next().permutation(n)

    def integers(self, low: int, high: int, shape) -> Array:
        return self._next().integers(low, high, shape)


class RunningStats:
    """Batch-norm running mean/variance."""

    __slots__ = ("mean", "var")

    def __init__(self, dim: int):
        self.mean = np.zeros(dim, dtype=np.float64)
        self.var = np.ones(dim, dtype=np.float64)

    def copy(self) -> "RunningStats":
        out = RunningStats(self.mean.shape[0])
        out.mean = self.mean.copy()
        out.var = self.var.copy()
        return out


def _check_mode(mode: str):
    if mode not in ("train", "eval"):
        raise ParameterError(f"mode must be 'train' or 'eval', got {mode!r}")


def affine(
    x: Array,
    w: Param,
    b: Param,
    tape: Optional[GradTape] = None,
    input_grad: bool = True,
) -> Array:
    """y = x @ W + bias, bias broadcast over rows.

    Backward: dX = dY @ W.T, dW += x.T @ dY, dbias += column sums of dY.
    With ``input_grad=False`` (x is data, not an activation) backward skips
    dX and returns None.
    """
    if x.ndim != 2 or w.value.ndim != 2:
        raise DimensionError("affine expects 2-D inputs")
    if x.shape[1] != w.value.shape[0]:
        raise DimensionError(
            f"affine shape mismatch: x has {x.shape[1]} columns, W has "
            f"{w.value.shape[0]} rows"
        )
    if b.value.shape != (w.value.shape[1],):
        raise DimensionError(
            f"bias must have shape ({w.value.shape[1]},), got {b.value.shape}"
        )
    y = x @ w.value + b.value
    if tape is not None:
        def backward(dy):
            w.grad += x.T @ dy
            b.grad += dy.sum(axis=0)
            return dy @ w.value.T if input_grad else None
        tape.record(backward)
    return y


def relu(x: Array, tape: Optional[GradTape] = None) -> Array:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0."""
    y = np.maximum(x, 0.0)
    if tape is not None:
        mask = x > 0.0
        tape.record(lambda dy: dy * mask)
    return y


def sigmoid(x: Array, tape: Optional[GradTape] = None) -> Array:
    """Numerically stable logistic function."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    if tape is not None:
        tape.record(lambda dy: dy * y * (1.0 - y))
    return y


def batchnorm(
    x: Array,
    gamma: Param,
    beta: Param,
    state: RunningStats,
    mode: str,
    tape: Optional[GradTape] = None,
) -> Array:
    """Per-column batch normalization.

    Train mode normalizes by the batch mean and population variance and
    updates the running statistics; eval mode normalizes by the running
    statistics.  Backward implements the standard batch-norm gradient.
    """
    _check_mode(mode)
    m = x.shape[1]
    if gamma.value.shape != (m,) or beta.value.shape != (m,):
        raise DimensionError("gamma/beta must match the column count")
    if mode == "train":
        b = x.shape[0]
        if b < 2:
            raise BatchSizeError(f"batchnorm train mode needs batch >= 2, got {b}")
        # population variance in one centring pass; the same operations as
        # x.var(axis=0), so bitwise equal to it
        mu = x.mean(axis=0)
        xc = x - mu
        var = (xc * xc).mean(axis=0)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = xc * inv
        state.mean = (1.0 - BN_MOMENTUM) * state.mean + BN_MOMENTUM * mu
        state.var = (1.0 - BN_MOMENTUM) * state.var + BN_MOMENTUM * var
        y = gamma.value * xhat + beta.value
        if tape is not None:
            def backward(dy):
                gamma.grad += (dy * xhat).sum(axis=0)
                beta.grad += dy.sum(axis=0)
                dxhat = dy * gamma.value
                return (inv / b) * (
                    b * dxhat
                    - dxhat.sum(axis=0)
                    - xhat * (dxhat * xhat).sum(axis=0)
                )
            tape.record(backward)
    else:
        inv = 1.0 / np.sqrt(state.var + BN_EPS)
        xhat = (x - state.mean) * inv
        y = gamma.value * xhat + beta.value
        if tape is not None:
            def backward(dy):
                gamma.grad += (dy * xhat).sum(axis=0)
                beta.grad += dy.sum(axis=0)
                return dy * gamma.value * inv
            tape.record(backward)
    return y


def dropout(
    x: Array,
    p: float,
    rng: Optional[RngState],
    mode: str,
    tape: Optional[GradTape] = None,
) -> Array:
    """Inverted dropout: zero entries with probability p, scale by 1/(1-p)."""
    _check_mode(mode)
    if not (0.0 <= p < 1.0):
        raise ParameterError(f"dropout probability must be in [0, 1), got {p}")
    if mode == "eval" or p == 0.0:
        if tape is not None:
            tape.record(lambda dy: dy)
        return x
    if rng is None:
        raise ParameterError("dropout in train mode requires an RngState")
    scale = 1.0 / (1.0 - p)
    mask = (rng.random(x.shape) >= p) * scale
    y = x * mask
    if tape is not None:
        tape.record(lambda dy: dy * mask)
    return y


def grad_check(f, x0, h: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    ``f`` maps a 1-D parameter vector to ``(value, gradient)``.  Returns the
    max over coordinates of ``|analytic - fd| / max(1, |analytic|, |fd|)``
    where ``fd = (f(x + h e) - f(x - h e)) / (2 h)``.
    """
    if h <= 0:
        raise ParameterError(f"step h must be positive, got {h}")
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    value, grad = f(x0)
    grad = np.asarray(grad, dtype=np.float64).ravel()
    if not np.isfinite(value):
        raise EvaluationError("f(x0) is not finite")
    if grad.shape != x0.shape:
        raise DimensionError("analytic gradient must match x0 in length")
    worst = 0.0
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step[i] = h
        fp, _ = f(x0 + step)
        fm, _ = f(x0 - step)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise EvaluationError(f"f is not finite near coordinate {i}")
        fd = (fp - fm) / (2.0 * h)
        a = grad[i]
        err = abs(a - fd) / max(1.0, abs(a), abs(fd))
        worst = max(worst, float(err))
    return worst
