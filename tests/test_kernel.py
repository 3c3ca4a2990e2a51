import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from detdyn import (
    CharPoly,
    DimensionMismatch,
    NonSquare,
    Tolerance,
    adjugate,
    charpoly,
    det,
    eigenvalues,
    full_rank_factorization,
    inverse,
    rank,
)
from detdyn.errors import RootFindDivergence, Singular
from detdyn.kernel import EPS

from conftest import cofactor_adjugate, cofactor_det, count_calls, random_orthogonal

TOL9 = Tolerance(rel=1e-9)

# rank 4, yet every partial-pivoting LU pivot clears the n eps max|a| cutoff
RANK4 = np.array([[-1, -6, -4, -10, 2], [-10, 0, -5, -1, 10], [12, 0, 6, 1, -6],
                  [3, 6, 11, 6, 2], [3, -2, 3, -5, 4]], dtype=float)

small_entries = st.floats(min_value=-3.0, max_value=3.0,
                          allow_nan=False, allow_infinity=False, width=64)


def square_matrices(max_n=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: hnp.arrays(np.float64, (n, n), elements=small_entries)
    )


class TestDet:
    def test_identity(self):
        assert det(np.eye(3)) == 1.0

    def test_singular_diag_is_exact_zero(self):
        assert det(np.diag([-1.0, -2.0, 0.0])) == 0.0

    def test_matches_cofactor_oracle(self, rng):
        for _ in range(25):
            a = rng.uniform(-1.0, 1.0, size=(5, 5))
            d = det(a)
            ref = cofactor_det(a)
            assert abs(d - ref) <= 1e-12 * max(abs(ref), 1e-2)

    def test_nonsquare_rejected(self):
        with pytest.raises(NonSquare):
            det(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            det(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rank_deficient_integer_is_exact_zero(self):
        assert det(RANK4) == 0.0


class TestInverse:
    def test_scaled_identity(self):
        assert np.allclose(inverse(2.0 * np.eye(2)), 0.5 * np.eye(2), atol=1e-14)

    def test_diagonal(self):
        assert np.allclose(inverse(np.diag([-1.0, -2.0])),
                           np.diag([-1.0, -0.5]), atol=1e-14)

    def test_residual_random(self, rng):
        for _ in range(20):
            a = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
            res = a @ inverse(a) - np.eye(6)
            assert np.max(np.abs(res)) <= 1e-10

    def test_singular_raises(self):
        with pytest.raises(Singular):
            inverse(np.diag([1.0, 0.0]))

    def test_rank_deficient_integer_raises(self):
        with pytest.raises(Singular):
            inverse(RANK4)


class TestAdjugate:
    def test_identity(self):
        for n in (1, 2, 4):
            assert np.array_equal(adjugate(np.eye(n)), np.eye(n))

    def test_singular_diagonal(self):
        assert np.allclose(adjugate(np.diag([-1.0, -2.0, 0.0])),
                           np.diag([0.0, 0.0, 2.0]), atol=1e-14)

    def test_one_by_one_convention(self):
        assert np.array_equal(adjugate(np.array([[7.0]])), np.array([[1.0]]))

    def test_matches_cofactor_oracle(self, rng):
        for k in range(20):
            if k % 3 == 0:
                u = rng.standard_normal((5, 1))
                v = rng.standard_normal((5, 1))
                a = u @ v.T  # rank one, adjugate of a singular matrix
            else:
                a = rng.uniform(-1.0, 1.0, size=(5, 5))
            got = adjugate(a)
            ref = cofactor_adjugate(a)
            scale = max(1e-2, float(np.max(np.abs(ref))))
            assert np.max(np.abs(got - ref)) <= 1e-10 * scale

    def test_n64_rank_deficient_exact(self, rng):
        # A = Q diag(d) Q^T with d_k = 0 has adj(A) = (prod_{j != k} d_j) q_k q_k^T
        for _ in range(2):
            n = 64
            q = signed_hadamard(rng, n)
            d = rng.integers(1, 17, size=n) * rng.choice([-1.0, 1.0], size=n) / 8.0
            k = int(rng.integers(n))
            d[k] = 0.0
            a = exact_similarity(q, np.diag(d))
            prod = math.prod(Fraction(x) for j, x in enumerate(d) if j != k)
            ref = float(prod) * np.outer(q[:, k], q[:, k])
            err = np.max(np.abs(adjugate(a) - ref)) / np.max(np.abs(ref))
            assert err <= 1e-12

    @given(square_matrices(max_n=5))
    def test_fundamental_identity(self, a):
        # M adj(M) = adj(M) M = det(M) I, singular M included
        adj = adjugate(a)
        d = cofactor_det(a) if a.shape[0] <= 5 else det(a)
        scale = max(1.0, float(np.max(np.abs(a))) ** a.shape[0])
        assert np.max(np.abs(a @ adj - d * np.eye(a.shape[0]))) <= 1e-9 * scale
        assert np.max(np.abs(adj @ a - d * np.eye(a.shape[0]))) <= 1e-9 * scale


class TestCharPoly:
    def test_diag_example(self):
        cp = charpoly(np.diag([-1.0, -2.0, 0.0]))
        assert cp.degree == 3
        assert np.allclose(cp.coeffs, [1.0, 3.0, 2.0, 0.0], atol=1e-14)

    def test_zero_matrix(self):
        assert charpoly(np.zeros((2, 2))).coeffs == (1.0, 0.0, 0.0)

    def test_monic_and_trace(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 11))
            a = rng.standard_normal((n, n))
            cp = charpoly(a)
            assert cp.coeffs[0] == 1.0
            assert abs(cp.coeffs[1] + np.trace(a)) <= 1e-9 * max(1.0, abs(np.trace(a)))

    def test_det_from_trailing_coefficient(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            a = rng.standard_normal((n, n))
            cp = charpoly(a)
            d = det(a)
            assert abs((-1.0) ** n * cp.coeffs[-1] - d) <= 1e-9 * max(1.0, abs(d))

    def test_callable_evaluation(self):
        cp = charpoly(np.diag([1.0, 2.0]))
        assert abs(cp(3.0) - 2.0) < 1e-12  # (3-1)(3-2)


class TestEigenvalues:
    def test_diagonal(self):
        spec = eigenvalues(np.diag([-1.0, -2.0, 0.0]))
        assert spec.source == "symmetric-syevd"
        got = sorted(z.real for z in spec.eigenvalues)
        assert np.allclose(got, [-2.0, -1.0, 0.0], atol=1e-12)

    def test_symmetric_recovery(self, rng):
        q = random_orthogonal(rng, 3)
        a = q @ np.diag([3.0, 1.0, 0.5]) @ q.T
        got = sorted(z.real for z in eigenvalues(a).eigenvalues)
        assert np.allclose(got, [0.5, 1.0, 3.0], atol=1e-8)

    def test_rotation_generator(self):
        spec = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert spec.source == "general-geev"
        assert set(spec.eigenvalues) == {1j, -1j}

    def test_conjugate_pairs(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n))
            eigs = list(eigenvalues(a).eigenvalues)
            for z in eigs:
                if z.imag != 0.0:
                    assert z.conjugate() in eigs

    def test_product_matches_det(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 11))
            a = rng.standard_normal((n, n))
            prod = np.prod(np.array(eigenvalues(a).eigenvalues))
            d = det(a)
            assert abs(prod.real - d) <= 1e-7 * max(1.0, abs(d))
            assert abs(prod.imag) <= 1e-7 * max(1.0, abs(d))

    def test_no_size_cap(self, rng):
        for n in (17, 64):
            spec = eigenvalues(np.eye(n))
            assert spec.eigenvalues == (1.0,) * n
            a = rng.standard_normal((n, n))
            assert len(eigenvalues(a).eigenvalues) == n

    def test_symmetric_n64_exact_spectrum(self, rng):
        q = signed_hadamard(rng, 64)
        d = rng.integers(-64, 65, size=64) / 8.0
        a = exact_similarity(q, np.diag(d))
        spec = eigenvalues(a)
        assert spec.source == "symmetric-syevd"
        assert all(z.imag == 0.0 for z in spec.eigenvalues)
        got = np.array([z.real for z in spec.eigenvalues])
        assert np.max(np.abs(got - np.sort(d)[::-1])) <= 64 * EPS * np.max(np.abs(d))

    def test_general_n64_exact_spectrum(self, rng):
        # block upper triangular T: rotation blocks [[x, y], [-y, x]] give
        # x +- iy, triangular blocks their diagonal; all 64 are distinct
        n = 64
        q = signed_hadamard(rng, n)
        block = np.arange(n) // 2
        t = np.zeros((n, n))
        above = block[:, None] < block[None, :]
        t[above] = rng.integers(-2, 3, size=int(above.sum())) / 16.0
        diag = rng.permutation(np.arange(-32, 32)) / 4.0
        ref = []
        for k in range(n // 2):
            x = diag[k]
            if k % 2 == 0:
                y = (k // 2 % 4 + 1) / 4.0
                t[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[x, y], [-y, x]]
                ref += [complex(x, y), complex(x, -y)]
            else:
                t[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[x, 0.5], [0.0, diag[32 + k]]]
                ref += [complex(x), complex(diag[32 + k])]
        spec = eigenvalues(exact_similarity(q, t))
        assert spec.source == "general-geev"
        ref.sort(key=lambda z: (-z.real, -z.imag))
        err = max(abs(z - w) for z, w in zip(spec.eigenvalues, ref))
        assert err <= 1e-12 * max(abs(z) for z in ref)
        for z in spec.eigenvalues:
            if z.imag != 0.0:
                assert z.conjugate() in spec.eigenvalues

    def test_no_charpoly(self, rng, monkeypatch):
        calls = count_calls(monkeypatch, "charpoly")
        eigenvalues(rng.standard_normal((6, 6)))
        eigenvalues(np.eye(6))
        assert calls == []

    def test_lapack_failure_is_root_find_divergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(RootFindDivergence):
            eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))


def signed_hadamard(rng, n: int) -> np.ndarray:
    """Sylvester Hadamard matrix with randomly signed and permuted rows,
    over sqrt(n): orthogonal, and exactly representable for n = 4^k."""
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    signs = rng.choice([-1.0, 1.0], size=n)
    return signs[:, None] * h[rng.permutation(n)] / np.sqrt(n)


def exact_similarity(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Q T Q^T in floating point, confirmed with 30-digit mpmath to equal
    the exact product with Q Q^T = I exactly, so its spectrum is T's."""
    a = q @ t @ q.T
    n = q.shape[0]
    with mpmath.workdps(30):
        qm = mpmath.matrix(q.tolist())
        exact = qm * mpmath.matrix(t.tolist()) * qm.T
        gram = qm * qm.T
        for i in range(n):
            for j in range(n):
                assert exact[i, j] == a[i, j]
                assert gram[i, j] == (1 if i == j else 0)
    return a


class TestRank:
    def test_zero(self):
        assert rank(np.zeros((3, 3))) == 0

    def test_rank_one(self, rng):
        u = rng.standard_normal(4)
        assert rank(np.outer(u, u)) == 1

    def test_controllability_matrix(self):
        a = np.array([[0.72, 0.55], [-0.18, 0.78]])
        b = np.array([1.0, 0.15])
        cols = [b]
        for _ in range(3):
            cols.append(a @ cols[-1])
        assert rank(np.column_stack(cols)) == 2

    @given(square_matrices(max_n=5), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, a, pyrng):
        n = a.shape[0]
        rows = list(range(n))
        cols = list(range(n))
        pyrng.shuffle(rows)
        pyrng.shuffle(cols)
        assert rank(a) == rank(a[np.ix_(rows, cols)])


class TestFullRankFactorization:
    def test_rank_one(self, rng):
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        m = np.outer(u, v)
        c, f = full_rank_factorization(m)
        assert c.shape == (4, 1) and f.shape == (1, 4)
        assert np.max(np.abs(c @ f - m)) <= 1e-12

    def test_nonsingular(self, rng):
        m = rng.standard_normal((5, 5)) + 3.0 * np.eye(5)
        c, f = full_rank_factorization(m)
        assert c.shape == (5, 5)
        assert np.max(np.abs(c @ f - m)) <= 1e-10

    def test_constructed_rank_three(self, rng):
        x = rng.standard_normal((7, 3))
        y = rng.standard_normal((3, 7))
        m = x @ y
        c, f = full_rank_factorization(m, TOL9)
        assert c.shape[1] == 3
        assert np.max(np.abs(c @ f - m)) <= 1e-10 * max(1.0, np.max(np.abs(m)))

    def test_zero_matrix_empty_factors(self):
        c, f = full_rank_factorization(np.zeros((3, 3)))
        assert c.shape == (3, 0) and f.shape == (0, 3)
        assert np.array_equal(c @ f, np.zeros((3, 3)))

    def test_mixed_rank_reconstruction(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 8))
            r = int(rng.integers(0, n + 1))
            if r == 0:
                m = np.zeros((n, n))
            else:
                m = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
            c, f = full_rank_factorization(m, TOL9)
            scale = max(1.0, float(np.max(np.abs(m))))
            assert np.max(np.abs(c @ f - m)) <= 1e-9 * scale
            assert c.shape[1] == rank(m, TOL9)


class TestTolerance:
    def test_defaults(self):
        t = Tolerance()
        assert t.rel == 2.0 ** -52
        assert t.abs == 1e-300

    def test_validation(self):
        with pytest.raises(ValueError):
            Tolerance(rel=0.0)
        with pytest.raises(ValueError):
            Tolerance(abs=-1.0)

    def test_cutoff_scales_with_matrix(self):
        t = Tolerance(rel=1e-9)
        assert t.cutoff(np.eye(4)) == 1e-9 * 4
        assert t.cutoff(np.zeros((4, 4))) == t.abs


class TestValidation:
    def test_dimension_mismatch_on_empty(self):
        with pytest.raises(DimensionMismatch):
            det(np.ones((0, 0)))

    def test_charpoly_nonsquare(self):
        with pytest.raises(NonSquare):
            charpoly(np.ones((3, 2)))
