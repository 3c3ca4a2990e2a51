import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import detdyn
from detdyn import (
    CharPoly,
    DimensionMismatch,
    NonSquare,
    Tolerance,
    UpdateSequence,
    adjugate,
    charpoly,
    det,
    det_product,
    det_rank_one,
    det_sequence,
    eigenvalues,
    full_rank_factorization,
    inverse,
    rank,
    solve,
)
from detdyn.errors import IntermediateSingular, RootFindDivergence, Singular
from detdyn.kernel import EPS, _det, _inverse, _singular_values

from conftest import (
    cofactor_adjugate,
    cofactor_det,
    count_calls,
    count_linalg,
    random_orthogonal,
)

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

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_not_two_dimensional_rejected(self, shape):
        with pytest.raises(DimensionMismatch):
            det(np.ones(shape))

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


def near_cutoff(rng, n, family, complex_, scale, tol, k):
    """An n x n matrix at ``scale`` whose smallest singular value sits
    near tol.cutoff * 10**k: Q diag(s) Q^H with s_n set exactly, or an
    upper triangular T with T_nn = 0 moved off singular by the first-order
    sigma_min(T + t e_n e_n^T) = |t| / |v|, v the null vector of T."""
    def draw(*shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if complex_ else g

    if family == "normal":
        q = np.linalg.qr(draw(n, n))[0]
        s = np.logspace(0.0, -2.0, n)
        s[-1] = 0.0
        s[-1] = tol.cutoff(scale * (q * s) @ q.conj().T) * 10.0 ** k / scale
        return scale * (q * s) @ q.conj().T
    t = np.diag(rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n))
    t = t + np.triu(draw(n, n), 1) / (2.0 * np.sqrt(n))
    t[-1, -1] = 0.0
    v = np.append(np.linalg.solve(t[:-1, :-1], -t[:-1, -1]), 1.0)
    t[-1, -1] = tol.cutoff(scale * t) * 10.0 ** k / scale * np.linalg.norm(v)
    return scale * t


def assert_beyond_range(got, slogdet, x):
    """``got`` is det(A) A^{-1} as it rounds without float's range limits:
    det(A) = sign exp(log|det|) = sign m 2^k, with k = floor(log|det| /
    log 2) and the mantissa m from mpmath, and each real and imaginary
    part of 2^k (sign m A^{-1}) within 1e-12 of the larger part, +-inf or
    0.0 where it leaves float range; exactly 0.0 where A^{-1} has a zero.
    A part below 1e-12 of the larger is the rounding of a complex phase,
    and any value does."""
    assert np.all(got[x == 0] == 0)
    sign, logdet = slogdet
    k = math.floor(logdet / math.log(2.0))
    with mpmath.workdps(30):
        y = sign * float(mpmath.exp(mpmath.mpf(float(logdet)) - k * mpmath.ln2)) * x
    big = np.maximum(np.abs(y.real), np.abs(y.imag))
    with np.errstate(over="ignore", invalid="ignore"):
        tol = np.ldexp(1e-12 * big, k) + 5e-324
        for part, exact in ((got.real, y.real), (got.imag, y.imag)):
            want = np.ldexp(exact, k)
            assert np.all((part == want) | (np.abs(exact) <= 1e-12 * big)
                          | (np.isfinite(want) & (np.abs(part - want) <= tol)))


class TestSolve:
    @pytest.mark.parametrize("complex_", [False, True])
    def test_is_numpys_solve(self, complex_, rng):
        for n in (1, 2, 16, 64):
            a = np.eye(n) + rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))
            b = rng.standard_normal((n, 3))
            if complex_:
                a = a + 1j * rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))
                b = b + 1j * rng.standard_normal((n, 3))
            assert np.array_equal(solve(a, b[:, 0]), np.linalg.solve(a, b[:, 0]))
            assert np.array_equal(solve(a, b), np.linalg.solve(a, b))

    def test_singular_raises(self):
        with pytest.raises(Singular):
            solve(RANK4, np.ones(5))
        with pytest.raises(Singular):
            solve(np.diag([1.0, 1e-17]), np.ones(2))


class TestCertifiedInverse:
    """A nonsingular decision read off the inverse's residual is the
    singular-value decision, and the values are LAPACK's either way."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("family", ["normal", "triangular"])
    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_decisions_match_the_singular_values(self, n, family, complex_):
        rng = np.random.default_rng(n)
        seq = UpdateSequence.from_pairs([(rng.standard_normal(n), rng.standard_normal(n))])
        for tol in (Tolerance(), TOL9):
            for k in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 6.0):
                for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
                    a = near_cutoff(rng, n, family, complex_, scale, tol, k)
                    singular = not _singular_values(a)[-1] > tol.cutoff(a)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        try:
                            x = inverse(a, tol)
                        except Singular:
                            assert singular
                        else:
                            assert not singular
                            assert np.array_equal(x, np.linalg.inv(a))
                        assert (rank(a, tol) == n) is not singular
                    self.assert_determinants_match(a, seq, tol, singular)

    def assert_determinants_match(self, a, seq, tol, singular):
        n = a.shape[0]
        if np.iscomplexobj(a):
            if tol == Tolerance():
                base = det_sequence(a, seq).values[0]
                assert np.array_equal(base, det(a))
        elif singular:
            with pytest.raises(IntermediateSingular):
                det_product(a, seq, tol)
            assert det(a, tol) == 0.0
        else:
            assert det_product(a, seq, tol).base_det == det(a, tol)
        if n > 1 and _singular_values(a)[-1] > Tolerance().cutoff(a):
            got, x = adjugate(a), np.linalg.inv(a)
            with np.errstate(over="ignore", invalid="ignore"):
                d = np.linalg.det(a)
                want = d * x
            # numpy's own product, bit for bit, where it stays in float
            # range; at n = 64 and scales 1e6 and 1e-6 det(A) or entries of
            # det(A) A^{-1} leave it, and the product is taken in mpmath
            kept = np.isfinite(want) & (d != 0)
            assert np.array_equal(got[kept], want[kept])
            assert_beyond_range(got[~kept], np.linalg.slogdet(a), x[~kept])

    @pytest.mark.parametrize("complex_", [False, True])
    def test_well_conditioned_takes_no_svd(self, complex_, rng, monkeypatch):
        svds = count_linalg(monkeypatch, ("detdyn.kernel",), ("linalg.svd",))
        for n in (1, 2, 16, 64):
            a = np.eye(n) + rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))
            if complex_:
                a = a + 1j * rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))
            assert np.array_equal(inverse(a), np.linalg.inv(a))
            if n > 1:
                want = np.linalg.det(a) * np.linalg.inv(a)
                assert np.array_equal(adjugate(a), want)
        assert svds == []

    @pytest.mark.parametrize("ratio, singular", [(1e-12, False), (1e-18, True)])
    def test_overflowing_inverse_is_silent(self, ratio, singular):
        # at scale 1e-300 the inverse of a nearly singular matrix leaves
        # float range; the residual is then NaN and the SVD decides
        rng = np.random.default_rng(5)
        n = 64
        q = random_orthogonal(rng, n)
        s = np.ones(n)
        s[-1] = ratio
        a = 1e-300 * (q * s) @ q.T
        tol = Tolerance(abs=0.0)
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(np.linalg.inv(a)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if singular:
                with pytest.raises(Singular):
                    inverse(a, tol)
            else:
                assert np.array_equal(inverse(a, tol), np.linalg.inv(a), equal_nan=True)


class TestRefusal:
    """A refused inverse hands back what its decision formed, so a caller
    that goes on from the singular matrix factorizes nothing twice."""

    @pytest.mark.parametrize("complex_", [False, True])
    def test_refusal_carries_the_lu_inverse_and_the_singular_values(self, complex_, rng):
        n = 16
        left = rng.standard_normal((n, n - 1))
        if complex_:
            left = left + 1j * rng.standard_normal((n, n - 1))
        a = left @ rng.standard_normal((n - 1, n))
        with pytest.raises(Singular) as exc:
            inverse(a)
        assert np.array_equal(exc.value.inverse, np.linalg.inv(a))
        assert np.array_equal(exc.value.singular_values, _singular_values(a))

    def test_refused_lu_carries_no_inverse(self):
        # LAPACK's LU meets an exact zero pivot
        with pytest.raises(Singular) as exc:
            inverse(np.diag([1.0, 1.0, 1.0, 0.0]))
        assert exc.value.inverse is None
        assert exc.value.singular_values.tolist() == [1.0, 1.0, 1.0, 0.0]

    def test_uncertified_inverse_refused_without_svd(self, monkeypatch):
        # diag(1, 1e-15) is nonsingular at the default tolerance, but its
        # residual bound does not clear the cutoff's margin: with svd
        # False it is refused as it stands
        a = np.diag([1.0, 1e-15])
        svds = count_linalg(monkeypatch, ("detdyn.kernel",), ("linalg.svd",))
        with pytest.raises(Singular) as exc:
            _inverse(a, Tolerance(), svd=False)
        assert svds == []
        assert np.array_equal(exc.value.inverse, np.linalg.inv(a))
        assert exc.value.singular_values is None
        assert np.array_equal(_inverse(a, Tolerance()), np.linalg.inv(a))
        assert len(svds) == 1


class TestOutOfRange:
    """A determinant beyond float range is +-inf (0.0 below it), and no
    RuntimeWarning escapes: at n = 64 a scale of 1e6 puts |det| near
    1e384 and a scale of 1e-6 near 1e-384."""

    @pytest.mark.parametrize("complex_", [False, True])
    def test_reader_is_numpys_det(self, complex_, rng):
        # one slogdet gives det = sign exp(log|det|), the way numpy forms
        # np.linalg.det, bit for bit and without its overflow warning
        for n in (1, 2, 7, 64, 100):
            for scale in (1e-12, 1e-6, 1.0, 1e6, 1e12):
                a = scale * rng.standard_normal((n, n))
                if complex_:
                    a = a + 1j * scale * rng.standard_normal((n, n))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    d, sign, logdet = _det(a)
                with np.errstate(over="ignore"):
                    assert np.array_equal(d, np.linalg.det(a))
                assert (sign, logdet) == tuple(np.linalg.slogdet(a))

    def test_det_overflows_and_underflows_silently(self):
        n = 64
        flip = np.diag([-1.0] + [1.0] * (n - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert det(1e6 * np.eye(n)) == math.inf
            assert det(1e6 * flip) == -math.inf
            assert det(1e-6 * np.eye(n)) == 0.0
            assert not np.isfinite(det(1e6 * np.exp(0.3j) * np.eye(n)))

    @pytest.mark.parametrize("complex_", [False, True])
    def test_stream_base_overflows_silently(self, complex_, rng):
        n = 64
        a = np.eye(n) + rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))
        if complex_:
            a = a + 1j * rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))
        a = 1e6 * a
        seq = UpdateSequence.from_pairs([(rng.standard_normal(n), rng.standard_normal(n))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = det(a)
            if complex_:
                base = det_sequence(a, seq).values[0]
            else:
                base = det_product(a, seq).base_det
        assert not np.isfinite(d)
        assert np.array_equal(base, d)

    def test_zero_parts_stay_zero(self, rng):
        # inf meets no exact zero: the product of a sign and an infinite
        # magnitude is formed part by part, and each zero stays zero
        n = 64
        singular = rng.standard_normal((n, n))
        singular[:, -1] = singular[:, 0]
        u = rng.standard_normal(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = det((1e7 + 0j) * np.eye(n))
            adj = adjugate(1e6 * np.eye(n))
            assert not np.isnan(adjugate(1e6 * singular)).any()
            assert det_rank_one(1e6 * np.eye(n), (u, u)) == math.inf
        assert d == complex(math.inf, 0.0)
        assert np.all(np.diag(adj) == math.inf)
        assert np.all(adj[~np.eye(n, dtype=bool)] == 0.0)

    def test_adjugate_overflows_silently(self, rng):
        n = 64
        a = 1e6 * (np.eye(n) + rng.standard_normal((n, n)) / (2.0 * np.sqrt(n)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            adj = adjugate(a)
        # a dense inverse: inf meets no exact zero
        assert np.all(np.isinf(adj))
        with np.errstate(over="ignore"):
            assert np.array_equal(adj, np.linalg.det(a) * np.linalg.inv(a))


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

    def test_one_product_per_step(self, rng):
        # the recursion as written forms A N_k twice per step:
        # N_k = A N_{k-1} + c_{k-1} I, then c_k = -tr(A N_k) / k
        for k in range(120):
            n = int(rng.integers(1, 40))
            if k % 2:
                a = rng.standard_normal((n, n))
            else:
                a = rng.integers(-3, 4, (n, n)).astype(float)
            coeffs, nk = [1.0], np.zeros((n, n))
            for j in range(1, n + 1):
                nk = a @ nk + coeffs[-1] * np.eye(n)
                coeffs.append(float(-np.trace(a @ nk) / j))
            assert charpoly(a).coeffs == tuple(coeffs)


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

    def test_nonsingular_factors_as_m_times_identity(self, rng):
        m = rng.standard_normal((5, 5)) + 3.0 * np.eye(5)
        c, f = full_rank_factorization(m)
        assert np.array_equal(c, m) and np.array_equal(f, np.eye(5))

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

    @pytest.mark.parametrize("kwargs", [
        {"rel": math.inf}, {"rel": math.nan}, {"abs": math.inf}, {"abs": math.nan}])
    def test_non_finite_rejected(self, kwargs):
        # an infinite or NaN threshold made det(I) read 0.0
        with pytest.raises(ValueError, match="finite"):
            Tolerance(**kwargs)

    def test_cutoff_scales_with_matrix(self):
        t = Tolerance(rel=1e-9)
        assert t.cutoff(np.eye(4)) == 1e-9 * 4
        assert t.cutoff(np.zeros((4, 4))) == t.abs


# Entries that take real matrices only. Before they refused complex input,
# most read its real part (eigenvalues the Hermitian part) and returned a
# wrong answer.
REAL_ONLY = [
    ("charpoly", (np.diag([1j, 2.0]),)),
    ("eigenvalues", (np.diag([1j, 2.0]),)),
    ("pdet", (np.diag([1j, 2.0, 0.0]),)),
    ("pdet_lemma", (np.diag([1j, 2.0, 0.0]), np.zeros((3, 0)), np.zeros((3, 0)))),
    ("group_inverse", (np.diag([1j, 2.0, 0.0]),)),
    ("regularized_limit", (np.diag([1j, 2.0, 0.0]), np.zeros(3), np.zeros(3))),
    ("covariance_trace", (np.diag([2.0 + 1j, 3.0]), [np.ones(2)])),
    ("info_filter_trace", (np.diag([2.0 + 1j, 3.0]), [np.ones(2)])),
    ("reach_ellipse", (np.diag([2.0 + 1j, 3.0]),)),
    ("stability_preserved", (np.diag([-1.0 + 1j, -2.0]), np.ones(2), np.ones(2))),
]


@pytest.mark.parametrize("name, args", REAL_ONLY, ids=[name for name, _ in REAL_ONLY])
def test_complex_input_refused(name, args):
    with pytest.raises(ValueError, match="is complex; it must be real"):
        getattr(detdyn, name)(*args)


class TestValidation:
    def test_dimension_mismatch_on_empty(self):
        with pytest.raises(DimensionMismatch):
            det(np.ones((0, 0)))

    def test_charpoly_nonsquare(self):
        with pytest.raises(NonSquare):
            charpoly(np.ones((3, 2)))
