"""Algebraic properties of the real-Fourier basis and projection."""

import numpy as np
import pytest

from fourierdg.errors import DimensionError, ParameterError
from fourierdg.fourier import build_basis, project, reconstruct
from fourierdg.tensor_core import GradTape, grad_check

DIMS = (2, 4, 8, 64, 740)


class TestBuildBasis:
    def test_d4_rows(self):
        basis = build_basis(4)
        expected = np.array(
            [[1, 1, 1, 1], [1, 0, -1, 0], [0, 1, 0, -1], [1, -1, 1, -1]],
            dtype=np.float64,
        )
        assert np.array_equal(basis.matrix, expected)

    def test_cached_per_dimension_and_read_only(self):
        basis = build_basis(6)
        assert build_basis(6) is basis
        assert build_basis(8) is not basis
        assert not basis.matrix.flags.writeable
        assert not basis.norms_sq.flags.writeable

    def test_d2_rows(self):
        basis = build_basis(2)
        assert np.array_equal(basis.matrix, [[1.0, 1.0], [1.0, -1.0]])

    def test_d4_orthogonality_exact(self):
        b = build_basis(4).matrix
        gram = b @ b.T
        assert np.array_equal(gram - np.diag(np.diag(gram)), np.zeros((4, 4)))

    @pytest.mark.parametrize("d", [0, 1, 3, 7])
    def test_bad_dimension(self, d):
        with pytest.raises(ParameterError):
            build_basis(d)

    @pytest.mark.parametrize("d", DIMS)
    def test_orthogonality(self, d):
        b = build_basis(d).matrix
        gram = b @ b.T
        off = np.abs(gram - np.diag(np.diag(gram))).max()
        assert off <= 1e-9 * d

    @pytest.mark.parametrize("d", DIMS)
    def test_norms(self, d):
        basis = build_basis(d)
        assert basis.norms_sq[0] == d
        assert basis.norms_sq[-1] == d
        assert np.all(basis.norms_sq[1:-1] == d / 2)
        actual = (basis.matrix ** 2).sum(axis=1)
        assert np.allclose(actual, basis.norms_sq, rtol=1e-12)

    def test_full_rank(self):
        assert np.linalg.matrix_rank(build_basis(8).matrix) == 8

    def test_immutable(self):
        basis = build_basis(4)
        with pytest.raises(ValueError):
            basis.matrix[0, 0] = 2.0


class TestProject:
    def test_dc_signal(self):
        basis = build_basis(4)
        z = project(np.array([[1.0, 1.0, 1.0, 1.0]]), basis)
        assert np.array_equal(z, [[4.0, 0.0, 0.0, 0.0]])

    def test_first_cosine(self):
        basis = build_basis(4)
        z = project(np.array([[1.0, 0.0, -1.0, 0.0]]), basis)
        assert np.array_equal(z, [[0.0, 2.0, 0.0, 0.0]])

    def test_linearity_exact(self):
        basis = build_basis(8)
        h = np.random.default_rng(0).standard_normal((3, 8))
        assert np.array_equal(project(2.0 * h, basis), 2.0 * project(h, basis))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            project(np.ones((2, 6)), build_basis(4))

    def test_gradient(self):
        basis = build_basis(6)
        rng = np.random.default_rng(1)
        weight = rng.standard_normal((2, 6))

        def f(vec):
            h = vec.reshape(2, 6)
            tape = GradTape()
            z = project(h, basis, tape)
            value = float((z * weight).sum())
            grad = tape.backward(weight)
            return value, grad.ravel()

        assert grad_check(f, rng.uniform(-1, 1, 12), h=1e-5) < 1e-4


class TestReconstruct:
    def test_dc_inverse(self):
        basis = build_basis(4)
        h = reconstruct(np.array([[4.0, 0.0, 0.0, 0.0]]), basis)
        assert np.allclose(h, [[1.0, 1.0, 1.0, 1.0]], atol=1e-12)

    def test_round_trip_d8(self):
        basis = build_basis(8)
        h = np.random.default_rng(2).standard_normal((5, 8))
        assert np.abs(reconstruct(project(h, basis), basis) - h).max() <= 1e-9

    def test_zero(self):
        basis = build_basis(4)
        assert np.array_equal(reconstruct(np.zeros((2, 4)), basis), np.zeros((2, 4)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            reconstruct(np.ones((1, 3)), build_basis(4))

    @pytest.mark.parametrize("d", DIMS)
    def test_round_trip_all_dims(self, d):
        basis = build_basis(d)
        h = np.random.default_rng(d).standard_normal((4, d))
        assert np.abs(reconstruct(project(h, basis), basis) - h).max() <= 1e-9


class TestParseval:
    @pytest.mark.parametrize("d", DIMS)
    def test_weighted_energy(self, d):
        basis = build_basis(d)
        h = np.random.default_rng(d + 1).standard_normal((6, d))
        z = project(h, basis)
        energy_h = (h ** 2).sum(axis=1)
        energy_z = (z ** 2 / basis.norms_sq).sum(axis=1)
        assert np.abs(energy_z - energy_h).max() / energy_h.max() <= 1e-9


def _cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestNonIsometry:
    """Raw rows distort angles; unit-normalized rows preserve them."""

    @pytest.mark.parametrize("d", (4, 8, 64, 740))
    def test_both_directions(self, d):
        basis = build_basis(d)
        raw = basis.matrix
        unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        rng = np.random.default_rng(d + 11)
        raw_fails = 0
        for _ in range(100):
            h1 = rng.standard_normal(d)
            h2 = rng.standard_normal(d)
            ch = _cosine(h1, h2)
            assert abs(_cosine(unit @ h1, unit @ h2) - ch) <= 1e-9
            if abs(_cosine(raw @ h1, raw @ h2) - ch) > 1e-9:
                raw_fails += 1
        assert raw_fails >= 99

    def test_d2_is_scaled_isometry(self):
        # both d=2 rows have norm sqrt(2), so raw cosines agree too
        basis = build_basis(2)
        rng = np.random.default_rng(13)
        for _ in range(20):
            h1, h2 = rng.standard_normal(2), rng.standard_normal(2)
            ch = _cosine(h1, h2)
            assert abs(_cosine(basis.matrix @ h1, basis.matrix @ h2) - ch) <= 1e-9
