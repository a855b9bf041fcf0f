"""Dense-matrix primitives with hand-written analytic backward passes.

Matrices are 2-D C-contiguous numpy arrays of one float dtype: float32
while ``fit`` trains, float64 everywhere else; every primitive keeps its
input's dtype.  Every primitive optionally records itself on a
:class:`GradTape`; replaying the tape propagates an upstream gradient back
through the chain in exact reverse order of the forward calls,
accumulating parameter gradients into :class:`Param` objects along the
way.
"""

from __future__ import annotations

import math
import mmap
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError

Array = np.ndarray

BN_MOMENTUM = 0.1  # weight of the batch statistics in the running ones
BN_EPS = 1e-5
FD_STEP = 1e-5  # central-difference step of grad_check


class Param:
    """A trainable array with an accumulated gradient.

    ``value`` is C-contiguous float32 or float64; any other input is
    converted to float64.  ``grad`` defaults to zeros; a model passes views
    into its flat storage for both (see ``ModelParams``).  Backward passes
    write ``grad`` only through :meth:`add_grad`.
    """

    __slots__ = ("value", "grad", "_overwrite")

    def __init__(self, value, grad: Optional[Array] = None):
        value = np.asarray(value, order="C")
        if value.dtype != np.float32:
            value = np.asarray(value, dtype=np.float64, order="C")
        self.value = value
        self.grad = np.zeros_like(self.value) if grad is None else grad
        self._overwrite = False

    def zero_grad(self):
        """Start a new gradient without writing ``grad``: the next
        :meth:`add_grad` overwrites it, and later ones add to it.  Until a
        contribution writes it, ``grad`` holds no defined value."""
        self._overwrite = True

    def add_grad(self, op, *args, **kwargs):
        """Add ``op(*args, **kwargs)`` to ``grad``.  Right after
        :meth:`zero_grad`, ``op`` writes into ``grad`` itself (``out=``), so
        no gradient-sized temporary is made."""
        if self._overwrite:
            op(*args, out=self.grad, **kwargs)
            self._overwrite = False
        else:
            self.grad += op(*args, **kwargs)


def zeros_mapped(n: int, dtype=np.float64) -> Array:
    """``n`` zeros of ``dtype`` in an anonymous memory map of their own.

    For long-lived multi-MB buffers (parameter arenas, Adam moments).
    Freeing one as a malloc block would raise glibc's dynamic mmap
    threshold to its size, after which medium arrays stay on the heap and
    fragment it; a map of its own is returned to the system whole.
    """
    dtype = np.dtype(dtype)
    if n == 0:
        return np.zeros(0, dtype)
    return np.frombuffer(mmap.mmap(-1, dtype.itemsize * n), dtype=dtype)


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
    with them the activations they hold.  Each parameter gradient a record
    produces goes through ``Param.add_grad``: it overwrites ``grad`` if
    ``zero_grad()`` came last, and adds to it otherwise.  After
    ``zero_grad()``, ``grad`` holds no defined value until a contribution
    writes it, so a step must reach every parameter it zeroed.
    """

    def __init__(self):
        self._records: Optional[list[Callable[[Array], Array]]] = []

    def record(self, backward_fn: Callable[[Array], Array]):
        self._records.append(backward_fn)

    def backward(self, upstream: Array) -> Array:
        """Propagate ``upstream`` back through the chain; returns dInput."""
        records, self._records = self._records, None
        if records is None:
            raise ParameterError("tape already consumed; one backward per forward")
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

    def __init__(self, dim: int, dtype=np.float64):
        self.mean = np.zeros(dim, dtype=dtype)
        self.var = np.ones(dim, dtype=dtype)

    def astype(self, dtype) -> "RunningStats":
        """A copy with both statistics cast to ``dtype``."""
        out = RunningStats(0)
        out.mean = self.mean.astype(dtype)
        out.var = self.var.astype(dtype)
        return out


def affine(
    x: Array,
    w: Param,
    b: Param,
    tape: Optional[GradTape] = None,
    input_grad: bool = True,
) -> Array:
    """y = x @ W + bias, bias broadcast over rows.

    Backward: dX = dY @ W.T, dW += x.T @ dY, dbias += column sums of dY
    (each ``+=`` through ``Param.add_grad``).
    With ``input_grad=False`` (x is data, not an activation) backward skips
    dX and returns None.
    """
    if x.ndim != 2 or w.value.ndim != 2:
        raise ParameterError("affine expects 2-D inputs")
    if x.shape[1] != w.value.shape[0]:
        raise ParameterError(
            f"affine shape mismatch: x has {x.shape[1]} columns, W has "
            f"{w.value.shape[0]} rows"
        )
    if b.value.shape != (w.value.shape[1],):
        raise ParameterError(
            f"bias must have shape ({w.value.shape[1]},), got {b.value.shape}"
        )
    y = x @ w.value
    y += b.value
    if tape is not None:
        def backward(dy):
            w.add_grad(np.matmul, x.T, dy)
            b.add_grad(np.sum, dy, axis=0)
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
    # exp(-|x|) never overflows; min(x, -x) keeps a NaN's sign bit
    e = np.exp(np.minimum(x, -x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    if tape is not None:
        tape.record(lambda dy: dy * y * (1.0 - y))
    return y


def batchnorm(
    x: Array, gamma: Param, beta: Param, state: RunningStats, tape: Optional[GradTape] = None
) -> Array:
    """Per-column batch normalization of a training batch by its mean and
    population variance; updates the running statistics that
    :func:`eval_norm_relu` normalizes by.  Backward implements the standard
    batch-norm gradient."""
    m = x.shape[1]
    if gamma.value.shape != (m,) or beta.value.shape != (m,):
        raise ParameterError("gamma/beta must match the column count")
    b = x.shape[0]
    if b < 2:
        raise ParameterError(f"batchnorm needs batch >= 2, got {b}")
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
            gamma.add_grad(np.sum, dy * xhat, axis=0)
            beta.add_grad(np.sum, dy, axis=0)
            dxhat = dy * gamma.value
            return (inv / b) * (
                b * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0)
            )
        tape.record(backward)
    return y


def eval_norm_relu(h: Array, gamma: Param, beta: Param, state: RunningStats) -> Array:
    """Inference batch-norm by the running statistics, then ReLU, in ``h``'s
    own buffer; returns ``h`` and records no backward.  The same IEEE
    operations, in order, as normalizing into a new array, then :func:`relu`."""
    if gamma.value.shape != (h.shape[1],) or beta.value.shape != (h.shape[1],):
        raise ParameterError("gamma/beta must match the column count")
    h -= state.mean
    h *= 1.0 / np.sqrt(state.var + BN_EPS)
    h *= gamma.value
    h += beta.value
    return np.maximum(h, 0.0, out=h)


def dropout(
    x: Array, p: float, rng: Optional[RngState], tape: Optional[GradTape] = None
) -> Array:
    """Inverted dropout of a training batch: zero entries with probability
    p, scale by 1/(1-p).  The mask has ``x``'s dtype; one float64 uniform
    draw decides it at either dtype.  The eval forward does not call it."""
    if not (0.0 <= p < 1.0):
        raise ParameterError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        if tape is not None:
            tape.record(lambda dy: dy)
        return x
    if rng is None:
        raise ParameterError("dropout with p > 0 requires an RngState")
    scale = 1.0 / (1.0 - p)
    mask = np.multiply(rng.random(x.shape) >= p, scale, dtype=x.dtype)
    y = x * mask
    if tape is not None:
        tape.record(lambda dy: dy * mask)
    return y


def grad_check(f, x0) -> float:
    """Compare analytic gradients against central finite differences.

    ``f`` maps a 1-D parameter vector to ``(value, gradient)``.  Returns the
    max over coordinates of ``|analytic - fd| / max(1, |analytic|, |fd|)``
    where ``fd = (f(x + h e) - f(x - h e)) / (2 h)`` and ``h = FD_STEP``.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    value, grad = f(x0)
    grad = np.asarray(grad, dtype=np.float64).ravel()
    if not np.isfinite(value):
        raise ParameterError("f(x0) is not finite")
    if grad.shape != x0.shape:
        raise ParameterError("analytic gradient must match x0 in length")
    worst = 0.0
    for i in range(x0.size):
        step = np.zeros_like(x0)
        step[i] = FD_STEP
        fp, _ = f(x0 + step)
        fm, _ = f(x0 - step)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ParameterError(f"f is not finite near coordinate {i}")
        fd = (fp - fm) / (2.0 * FD_STEP)
        a = grad[i]
        err = abs(a - fd) / max(1.0, abs(a), abs(fd))
        worst = max(worst, float(err))
    return worst
