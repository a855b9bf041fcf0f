"""Algebraic properties of the real-Fourier basis and projection."""

import hashlib
import re

import numpy as np
import pytest

from fourierdg.errors import ParameterError
from fourierdg.fourier import MAX_DIM, build_basis, project, reconstruct
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

    @pytest.mark.parametrize("d", [0, 1, 3, 7, MAX_DIM + 2])
    def test_bad_dimension(self, d):
        message = f"basis dimension must be even and in [2, 4096], got {d}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
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


# sha256 of matrix.tobytes() and of norms_sq.tobytes(); any change to how
# the basis is built must keep every bit
PINNED_BASIS = [
    (2, np.float64,
     "9bbf32a4b18132e5d9aa858dc1fc01beb4ca23a4544cbed48ad82930ea45c978",
     "f266388db081c55439a481be47a06e8dd6cc35de2b587c43429cfeed43c2770e"),
    (4, np.float64,
     "e635cc93fa8f52a08410b71499aef145c2e11b63350d3bac660b973e8aeed95e",
     "cc92557b889392fbcaa5312a4a90ad87d4b074179eabc6018d83f95f714136f2"),
    (6, np.float64,
     "f39bac35b2b5b4b54def2c3de6bafee666ad86ffb0ce0cbd50ec596d31cfd5b6",
     "3ecdb4fe065e359a901f6f62301d0a3d25d6197919fb12ba3fb801bae3c9ab61"),
    (64, np.float64,
     "27c9534d101e4674f788fd6d668676aaa47933ce9a575efeb6172aa2c53cc584",
     "42998abf839b572e4973c7d0c97847142ac39a82a70b55a673e40cfd47b46d67"),
    (740, np.float64,
     "b04ea78b4973ea667e841e64a4d642c2f76cbf4884533161aee5fcdc16fe141e",
     "7663850a6c1c7654529b2c469ae8b651928ba10f9633fd99d32604199fe90bec"),
    (1024, np.float64,
     "9656b08767852cbcae77befe101caffa4366e6e3e62bb44e141ef5d6de61553f",
     "bce066019b4ee6738dabbfa50fe7b38038e75b6320be01c9fbebcd39876a0c41"),
    (2, np.float32,
     "f7f63c90857fde0a9fd1f776e3de6a57fb1509d4690a26ccd0dbbaec83517a87",
     "ad02908e7dc8436bd2b7894ec3c745e38daae971187ca817c60e44c5af471827"),
    (4, np.float32,
     "86baf7a8dddde541207153a0d0989f75b3a2c4e4359d0349715469e62c6f31e1",
     "e98fc73769f6a96827ee7dc788b1d442cb11e4887927bba7fb90f940945c20c2"),
    (6, np.float32,
     "77f693896d004d2f2f668ce2c88862db2e16c032ffb8a8993db34b6d6c7ca788",
     "8981443cac079104991718b14feee829bb1f6b746a998ead616cd567cc8ef171"),
    (64, np.float32,
     "b41637c130021f410de60bfaef87637841dd285f23121cb13b545e2feb6a8a26",
     "aca7736a8ce65abb5d847163e6e26a89473f48261f37217988e395ac4f945eb1"),
    (740, np.float32,
     "a0db2d6fb81d700311d0ced920f28e72261372a7216bfd3dcb5e45dda8c9f65b",
     "a085fadf333882c49f63128f6489bd6a81ac99b2c4b5b0dc65845cf56bc4cb20"),
    (1024, np.float32,
     "0ae5df3dfc10257cc5196d3836416f970c9949a024837f155e7e0bd01e6afaec",
     "a1942214b5826ca3347df993c95804a2f1a312114cafb4f90db0d4a8da51ddec"),
]


@pytest.mark.parametrize("d,dtype,matrix_sha,norms_sha", PINNED_BASIS)
def test_basis_bits_pinned(d, dtype, matrix_sha, norms_sha):
    basis = build_basis(d, dtype)
    got = (hashlib.sha256(basis.matrix.tobytes()).hexdigest(),
           hashlib.sha256(basis.norms_sq.tobytes()).hexdigest())
    assert got == (matrix_sha, norms_sha), (
        f"d={d} {np.dtype(dtype).name}: matrix {got[0]} (pinned {matrix_sha}), "
        f"norms_sq {got[1]} (pinned {norms_sha})"
    )


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
        with pytest.raises(ParameterError,
                           match=r"project expects 4 feature columns, got shape \(2, 6\)"):
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

        assert grad_check(f, rng.uniform(-1, 1, 12)) < 1e-4


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
        with pytest.raises(ParameterError,
                           match=r"reconstruct expects 4 coefficient columns, got shape \(1, 3\)"):
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
