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

from .errors import DimensionError, ParameterError
from .tensor_core import Array, GradTape


class FourierBasis:
    """Immutable d x d real-Fourier basis; row r is basis vector b_r."""

    __slots__ = ("dim", "matrix", "norms_sq")

    def __init__(self, dim: int, matrix: Array, norms_sq: Array):
        self.dim = dim
        self.matrix = matrix
        self.norms_sq = norms_sq
        self.matrix.flags.writeable = False
        self.norms_sq.flags.writeable = False


@functools.lru_cache(maxsize=8)
def build_basis(d: int) -> FourierBasis:
    """Construct the basis for an even dimension d >= 2.

    Angles are reduced modulo the period in exact integer arithmetic
    before calling cos/sin, so orthogonality holds to ~machine precision
    even at large d.  The basis is immutable, so one instance per
    dimension is cached and shared by every model of that width.
    """
    if d < 2 or d % 2 != 0:
        raise ParameterError(f"basis dimension must be even and >= 2, got {d}")
    j = np.arange(d, dtype=np.int64)
    rows = [np.ones(d, dtype=np.float64)]
    for k in range(1, d // 2):
        ang = 2.0 * np.pi * ((k * j) % d) / d
        rows.append(np.cos(ang))
        rows.append(np.sin(ang))
    rows.append(np.where(j % 2 == 0, 1.0, -1.0))
    matrix = np.ascontiguousarray(np.vstack(rows))
    # quarter-period samples are exactly 0 or +-1; snap away the fp residue
    # (no legitimate grid value comes this close for any feasible d)
    for target in (0.0, 1.0, -1.0):
        matrix[np.abs(matrix - target) < 1e-12] = target
    norms_sq = np.full(d, d / 2.0)
    norms_sq[0] = float(d)
    norms_sq[-1] = float(d)
    return FourierBasis(d, matrix, norms_sq)


def project(h: Array, basis: FourierBasis, tape: Optional[GradTape] = None) -> Array:
    """Frequency coefficients z[i][r] = <h_i, b_r>, i.e. z = h @ B.T."""
    if h.ndim != 2 or h.shape[1] != basis.dim:
        raise DimensionError(
            f"project expects {basis.dim} feature columns, got shape {h.shape}"
        )
    z = h @ basis.matrix.T
    if tape is not None:
        tape.record(lambda dz: dz @ basis.matrix)
    return z


def reconstruct(z: Array, basis: FourierBasis) -> Array:
    """Invert :func:`project`: h_i = sum_r z[i][r] / ||b_r||^2 * b_r."""
    if z.ndim != 2 or z.shape[1] != basis.dim:
        raise DimensionError(
            f"reconstruct expects {basis.dim} coefficient columns, got shape {z.shape}"
        )
    return (z / basis.norms_sq) @ basis.matrix
