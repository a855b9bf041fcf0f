"""Fixed orthogonal real-Fourier basis and frequency-space projection.

The basis packs, for an even dimension d, one constant (DC) row, cos/sin
row pairs for k = 1 .. d/2 - 1 sampled at d uniform grid points, and one
alternating-sign (Nyquist) row.  Rows are pairwise orthogonal and left
unnormalized: the DC and Nyquist rows have squared norm d, every other
row d/2.  Because of the unequal norms the projection is deliberately not
an isometry; angles between projected vectors differ from angles in the
feature space.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from .errors import ParameterError
from .tensor_core import Array, GradTape

MAX_DIM = 4096  # largest model dimension d: a 134 MB basis


class FourierBasis:
    """Immutable d x d real-Fourier basis; row r is basis vector b_r."""

    __slots__ = ("dim", "matrix", "norms_sq")

    def __init__(self, dim: int, matrix: Array, norms_sq: Array):
        self.dim = dim
        self.matrix = matrix
        self.norms_sq = norms_sq
        self.matrix.flags.writeable = False
        self.norms_sq.flags.writeable = False


def build_basis(d: int, dtype=np.float64) -> FourierBasis:
    """Construct the basis for an even dimension d in [2, MAX_DIM].

    Angles are reduced modulo the period in exact integer arithmetic
    before calling cos/sin, so orthogonality holds to ~machine precision
    even at large d.  The basis is immutable, so it is shared by every
    model of that width and dtype; the two most recently used are cached,
    one width at both dtypes, so a sweep over widths does not keep every
    width it built.  A float32 basis is the float64 one, rounded.  Rows are
    written into the matrix itself, so the build holds no more than the
    matrices it keeps.
    """
    return _cached_basis(d, np.dtype(dtype))


@functools.lru_cache(maxsize=2)
def _cached_basis(d: int, dtype: np.dtype) -> FourierBasis:
    if d < 2 or d % 2 != 0 or d > MAX_DIM:
        raise ParameterError(f"basis dimension must be even and in [2, {MAX_DIM}], got {d}")
    if dtype != np.float64:
        basis = _cached_basis(d, np.dtype(np.float64))
        return FourierBasis(d, basis.matrix.astype(dtype), basis.norms_sq.astype(dtype))
    j = np.arange(d, dtype=np.int64)
    matrix = np.empty((d, d))
    matrix[0] = 1.0
    for k in range(1, d // 2):
        ang = 2.0 * np.pi * ((k * j) % d) / d
        np.cos(ang, out=matrix[2 * k - 1])
        np.sin(ang, out=matrix[2 * k])
    matrix[-1, 0::2] = 1.0
    matrix[-1, 1::2] = -1.0
    # quarter-period samples are exactly 0 or +-1; snap away the fp residue
    # (no legitimate grid value comes this close for any feasible d), 64
    # rows at a time so that no mask is matrix-sized
    for block in (matrix[i:i + 64] for i in range(0, d, 64)):
        for target in (0.0, 1.0, -1.0):
            block[np.abs(block - target) < 1e-12] = target
    norms_sq = np.full(d, d / 2.0)
    norms_sq[0] = float(d)
    norms_sq[-1] = float(d)
    return FourierBasis(d, matrix, norms_sq)


def project(h: Array, basis: FourierBasis, tape: Optional[GradTape] = None) -> Array:
    """Frequency coefficients z[i][r] = <h_i, b_r>, i.e. z = h @ B.T."""
    if h.ndim != 2 or h.shape[1] != basis.dim:
        raise ParameterError(
            f"project expects {basis.dim} feature columns, got shape {h.shape}"
        )
    z = h @ basis.matrix.T
    if tape is not None:
        tape.record(lambda dz: dz @ basis.matrix)
    return z


def reconstruct(z: Array, basis: FourierBasis) -> Array:
    """Invert :func:`project`: h_i = sum_r z[i][r] / ||b_r||^2 * b_r."""
    if z.ndim != 2 or z.shape[1] != basis.dim:
        raise ParameterError(
            f"reconstruct expects {basis.dim} coefficient columns, got shape {z.shape}"
        )
    return (z / basis.norms_sq) @ basis.matrix
