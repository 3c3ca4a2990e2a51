import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from detdyn import (
    AllCoefficientsBelowTolerance,
    CompatibilityViolated,
    DimensionMismatch,
    IndexGreaterThanOne,
    NotConverged,
    ScheduleTooShort,
    Tolerance,
    compatibility_check,
    default_eps_schedule,
    group_inverse,
    pdet,
    pdet_lemma,
    regularized_limit,
    spectral_projector,
)
from detdyn.drazin import _require_settled

from conftest import (
    count_calls,
    exact_index1,
    exact_lemma_instance,
    mp_det,
    np_pdet,
    random_index1,
    random_orthogonal,
    random_unimodular_int,
    scaled_index1,
)

TOL9 = Tolerance(rel=1e-9)

A_SING = np.diag([-1.0, -2.0, 0.0])


def rel_residual(x, y):
    scale = 1.0 + max(float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    return float(np.max(np.abs(x - y))) / scale


class TestGroupInverse:
    def test_worked_singular_example(self):
        gi = group_inverse(A_SING, TOL9)
        assert np.max(np.abs(gi.h_drazin - np.diag([-1.0, -0.5, 0.0]))) <= 1e-12
        assert np.max(np.abs(gi.projector - np.diag([0.0, 0.0, 1.0]))) <= 1e-12
        assert gi.rank_q == 2
        assert gi.nullity_nu == 1

    def test_nonsingular_is_plain_inverse(self, rng):
        h = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        gi = group_inverse(h, TOL9)
        assert gi.nullity_nu == 0
        assert np.max(np.abs(gi.h_drazin @ h - np.eye(4))) <= 1e-10
        assert np.max(np.abs(gi.projector)) <= 1e-10

    def test_nonsingular_projector_is_exactly_zero(self, rng):
        # I - H H^{-1} is rounding noise, not the zero projector
        for n in (2, 5, 16):
            h = rng.standard_normal((n, n))
            assert np.array_equal(group_inverse(h).projector, np.zeros((n, n)))

    def test_nonsingular_takes_one_svd(self, rng, monkeypatch):
        # the rank test's singular values alone: no full SVD whose factors
        # go unused and no second test inside the inverse
        h = rng.standard_normal((16, 16)) + 6.0 * np.eye(16)
        want = np.linalg.inv(h)
        svds = []
        orig = np.linalg.svd

        def counted(*args, **kwargs):
            svds.append(kwargs.get("compute_uv", True))
            return orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        gi = group_inverse(h)
        assert svds == [False]
        assert np.array_equal(gi.h_drazin, want)
        assert gi.rank_q == 16 and gi.nullity_nu == 0
        # F C = H there, so the lemma's pdet(H) is LAPACK's det(H)
        zero = np.zeros(16)
        assert pdet_lemma(h, zero, zero) == np.linalg.det(h)

    def test_zero_matrix(self):
        gi = group_inverse(np.zeros((3, 3)))
        assert np.array_equal(gi.h_drazin, np.zeros((3, 3)))
        assert np.array_equal(gi.projector, np.eye(3))
        assert gi.rank_q == 0 and gi.nullity_nu == 3

    def test_nilpotent_raises(self):
        with pytest.raises(IndexGreaterThanOne):
            group_inverse(np.array([[0.0, 1.0], [0.0, 0.0]]), TOL9)

    def test_random_nilpotent_raises(self):
        # F C is 1x1 here; judged on its own scale, the rounding residue
        # of S J2 S^-1 would pass as a nonzero eigenvalue
        rng = np.random.default_rng(1)
        j2 = np.array([[0.0, 1.0], [0.0, 0.0]])
        for _ in range(150):
            s = rng.standard_normal((2, 2))
            with pytest.raises(IndexGreaterThanOne):
                group_inverse(s @ j2 @ np.linalg.inv(s), TOL9)

    def test_axioms_on_random_constructions(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            q = int(rng.integers(1, n))
            h, _, _, _ = random_index1(rng, n, q)
            gi = group_inverse(h, TOL9)
            hd = gi.h_drazin
            assert gi.rank_q == q
            assert rel_residual(h @ hd, hd @ h) <= 1e-9
            assert rel_residual(hd @ h @ hd, hd) <= 1e-9
            assert rel_residual(h @ h @ hd, h) <= 1e-9
            p0 = gi.projector
            assert rel_residual(p0 @ p0, p0) <= 1e-9

    def test_similarity_invariance(self, rng):
        h, _, _, _ = random_index1(rng, 5, 3)
        s = random_orthogonal(rng, 5) + 0.1 * rng.standard_normal((5, 5))
        s_inv = np.linalg.inv(s)
        cond = np.linalg.cond(s)
        left = group_inverse(s @ h @ s_inv, TOL9).h_drazin
        right = s @ group_inverse(h, TOL9).h_drazin @ s_inv
        assert rel_residual(left, right) <= 1e-9 * cond * cond


class TestSpectralProjector:
    def test_worked_example(self):
        assert np.max(np.abs(spectral_projector(A_SING, TOL9)
                             - np.diag([0.0, 0.0, 1.0]))) <= 1e-12

    def test_nonsingular_gives_zero(self, rng):
        h = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        assert np.max(np.abs(spectral_projector(h, TOL9))) <= 1e-10

    def test_projector_axioms(self, rng):
        for _ in range(20):
            h, _, _, _ = random_index1(rng, 5, int(rng.integers(1, 5)))
            p0 = spectral_projector(h, TOL9)
            scale = 1.0 + float(np.max(np.abs(p0)))
            assert np.max(np.abs(p0 @ p0 - p0)) <= 1e-9 * scale
            assert np.max(np.abs(h @ p0)) <= 1e-9 * (1.0 + np.max(np.abs(h)))


class TestPdet:
    def test_worked_example(self):
        res = pdet(A_SING, TOL9)
        assert res.value == 2.0
        assert res.nullity == 1
        assert res.method == "eigenproduct"

    def test_identity(self):
        res = pdet(np.eye(4))
        assert res.value == 1.0 and res.nullity == 0

    def test_symmetric_recovery(self, rng):
        q = random_orthogonal(rng, 4)
        w = q @ np.diag([3.0, 0.5, 0.0, 0.0]) @ q.T
        res = pdet(w, TOL9)
        assert abs(res.value - 1.5) <= 1e-9
        assert res.nullity == 2

    def test_zero_matrix_undefined(self):
        with pytest.raises(AllCoefficientsBelowTolerance):
            pdet(np.zeros((2, 2)), TOL9)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown pdet method"):
            pdet(np.eye(2), method="lu")

    def test_nilpotent_undefined(self):
        with pytest.raises(AllCoefficientsBelowTolerance):
            pdet(np.array([[0.0, 1.0], [0.0, 0.0]]), TOL9)

    def test_charpoly_vs_eigenproduct(self, rng):
        for _ in range(60):
            q = int(rng.integers(1, 5))
            nu = int(rng.integers(1, 4))
            n = q + nu
            h, _, _, _ = exact_index1(rng, n, q)
            a = pdet(h, TOL9, method="charpoly")
            b = pdet(h, TOL9, method="eigenproduct")
            assert a.nullity == b.nullity == nu
            assert abs(a.value - b.value) <= 1e-7 * max(1.0, abs(a.value))

    @pytest.mark.parametrize("nu, c", [(4, 455.0), (1, 67.6)])
    def test_eigenproduct_n16_large_scale(self, nu, c):
        # scales at which root finding on the characteristic polynomial
        # diverges for n = 16
        for seed in range(1, 6):
            h, j = scaled_index1(np.random.default_rng(seed), 16, nu, c)
            with mpmath.workdps(30):
                ref = mpmath.det(mpmath.matrix(j.tolist())) * mpmath.mpf(c) ** (16 - nu)
            res = pdet(h, TOL9, method="eigenproduct")
            assert res.nullity == nu
            assert abs(res.value - ref) <= 1e-12 * abs(ref)

    def test_pdet_is_the_lemmas_core_det(self):
        # pdet(H) and the lemma with r = 0 read det(F C) of one chain core
        rng = np.random.default_rng(3)
        for k in range(40):
            n = (4, 8, 12, 16)[k % 4]
            h, _ = scaled_index1(rng, n, 1 + k % 3, 10.0 ** rng.uniform(-3.0, 3.0))
            empty = np.zeros((n, 0))
            assert pdet_lemma(h, empty, empty, TOL9) == pdet(h, TOL9).value

    def test_beyond_float_range(self):
        # det(F C) = 1e420 reads +inf, where the product of the core's
        # eigenvalues turned to NaN; the eps sweep settles in log form
        h = np.diag([1e7] * 60 + [0.0] * 4)
        u = np.zeros((64, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pdet(h).value == math.inf
            assert pdet_lemma(h, u, u) == math.inf
            res = regularized_limit(h, u, u)
        assert res.estimate == math.inf and res.per_eps[-1][1] == math.inf

    @pytest.mark.parametrize("n", [8, 12, 16])
    @pytest.mark.parametrize("c", [1e-3, 1e-2, 0.5])
    def test_small_scale_nullity(self, n, c):
        # below scale 1 the monic c_0 = 1 dominated the raw coefficients'
        # cutoff while c_{n-nu} shrank like c^(n-nu), so the charpoly
        # route overcounted the nullity
        for nu in (1, 2, 3):
            h, j = scaled_index1(np.random.default_rng(nu), n, nu, c)
            with mpmath.workdps(30):
                ref = mpmath.det(mpmath.matrix(j.tolist())) * mpmath.mpf(c) ** (n - nu)
            for method in ("charpoly", "eigenproduct"):
                res = pdet(h, TOL9, method=method)
                assert res.nullity == nu
                assert abs(res.value - ref) <= 1e-9 * abs(ref)


def symmetric_probe(seed: int, n: int):
    """Q diag(d, 0, 0) Q^T with |d| in [0.5, 2] and random signs, plus
    pdet = prod(d) at 50 digits."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 2.0, n - 2) * rng.choice([-1.0, 1.0], n - 2)
    q = random_orthogonal(rng, n)
    with mpmath.workdps(50):
        ref = mpmath.fprod([mpmath.mpf(x) for x in d])
    return q @ np.diag(np.concatenate([d, [0.0, 0.0]])) @ q.T, ref


def nilpotent_block(seed: int, k: int):
    """H = S diag(J, N_k) S^{-1}, N_k the k x k nilpotent Jordan block,
    S = I + G / (2 sqrt n), J = G' / sqrt(q) + 2 I with q in 2..8; returns
    (H, det J) with det J at 50 digits."""
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 9))
    n = q + k
    j = rng.standard_normal((q, q)) / np.sqrt(q) + 2.0 * np.eye(q)
    block = np.zeros((n, n))
    block[:q, :q] = j
    block[q:, q:] = np.diag(np.ones(k - 1), 1)
    s = np.eye(n) + rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))
    with mpmath.workdps(50):
        ref = mpmath.det(mpmath.matrix(j.tolist()))
    return s @ block @ np.linalg.inv(s), ref


class TestCoreChain:
    """One rank rule, Cline's core-nilpotent chain, decides the rank of
    group_inverse, the nullity of both pdet routes and pdet_lemma."""

    @pytest.mark.parametrize("n", [16, 24, 32, 64])
    def test_symmetric_probe_at_default_tolerance(self, n):
        # trailing Faddeev-LeVerrier coefficients decided the nullity here
        # and got it wrong on most draws from n = 24 up
        for seed in range(10):
            h, ref = symmetric_probe(seed, n)
            default = pdet(h)
            assert default.method == "eigenproduct" and default.nullity == 2
            assert abs(default.value - ref) <= 1e-12 * abs(ref)
            assert pdet(h, method="charpoly").nullity == 2
            assert group_inverse(h).nullity_nu == 2
            lemma = pdet_lemma(h, np.zeros(n), np.zeros(n))
            assert abs(lemma - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("k", [2, 3])
    def test_nilpotent_block_of_index_k(self, k):
        # S diag(J, N_k) S^-1: the chain takes k levels, the nullity is the
        # algebraic one, k, and pdet is det(J)
        for seed in range(20):
            h, ref = nilpotent_block(seed, k)
            n = h.shape[0]
            for method in ("eigenproduct", "charpoly"):
                res = pdet(h, TOL9, method=method)
                assert res.nullity == k
                assert abs(res.value - ref) <= 1e-12 * abs(ref)
            with pytest.raises(IndexGreaterThanOne):
                group_inverse(h, TOL9)
            with pytest.raises(IndexGreaterThanOne):
                pdet_lemma(h, np.zeros(n), np.zeros(n), TOL9)

    @pytest.mark.parametrize("k", [3, 4])
    def test_nilpotent_block_at_default_tolerance(self, k):
        # each product F_i C_i adds its own rounding: judged at H's cutoff
        # alone, a residue of N_k passed as a nonzero eigenvalue on seed 34
        # (k = 3) and seeds 42, 116 and 126 (k = 4)
        for seed in range(200):
            h, ref = nilpotent_block(seed, k)
            res = pdet(h)
            assert res.nullity == k
            assert abs(res.value - ref) <= 1e-12 * abs(ref)
            with pytest.raises(IndexGreaterThanOne):
                group_inverse(h)

    def test_small_eigenvalue_above_cutoff(self):
        # the eigenproduct route used to drop 1e-6 below sqrt(rel) rho(H)
        # and report nullity 2, pdet 1.0
        h = np.diag([1.0, 1e-6, 0.0])
        for method in ("eigenproduct", "charpoly"):
            res = pdet(h, TOL9, method=method)
            assert res.nullity == 1
            assert abs(res.value - 1e-6) <= 1e-10 * 1e-6
        assert group_inverse(h, TOL9).nullity_nu == 1
        assert abs(pdet_lemma(h, np.zeros(3), np.zeros(3), TOL9) - 1e-6) <= 1e-15 * 1e-6

    def test_default_pdet_takes_no_charpoly(self, monkeypatch):
        charpolys = count_calls(monkeypatch, "charpoly")
        factorizations = count_calls(monkeypatch, "full_rank_factorization")
        assert pdet(A_SING, TOL9).value == 2.0
        assert charpolys == []
        assert len(factorizations) == 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_one_values_only_svd_per_singular_level(self, k, monkeypatch):
        # a core that kernel.inverse refuses is factored at the rank its
        # refusal's singular values give, not tested by a second SVD: k
        # values-only SVDs (levels 0..k-1) and k full ones (their factors)
        svds = []
        orig = np.linalg.svd

        def counted(*args, **kwargs):
            svds.append(kwargs.get("compute_uv", True))
            return orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for seed in range(5):
            h, _ = nilpotent_block(seed, k)
            svds.clear()
            assert pdet(h, TOL9).nullity == k
            assert svds.count(False) == k and svds.count(True) == k

    def test_closed_form_beyond_float_range(self):
        # pdet(H) = 1e420 is inf and det(I + V^T H^D U) is 0: the product
        # inf * 0 read NaN, and so did the eps sweep's gap to it
        n = 64
        h = np.diag([1e7] * 60 + [0.0] * 4)
        u = np.zeros(n)
        u[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pdet_lemma(h, u, -1e7 * u) == 0.0
            with pytest.raises(NotConverged) as exc:
                regularized_limit(h, u, -1e7 * u)
        gap = float(str(exc.value).split()[3].rstrip(","))
        assert 0.0 < gap <= 2.0


class TestCompatibility:
    def test_informative_subspace_passes(self):
        u = np.array([[1.0], [0.0], [0.0]])
        v = np.array([[0.25], [0.7], [0.0]])
        rep = compatibility_check(A_SING, u, v, TOL9)
        assert rep.passed
        assert rep.norm_p0u == 0.0 and rep.norm_vtp0 == 0.0

    def test_nullspace_column_fails(self):
        u = np.array([[0.0], [0.0], [1.0]])
        rep = compatibility_check(A_SING, u, u, TOL9)
        assert not rep.passed
        assert rep.norm_p0u == 1.0

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_gaussian_similarity_at_default_tolerance(self, n):
        # P0 = I - H H^D carries the rounding of H H^D: measured against
        # n eps max|U| alone, most of these compatible factors were refused
        rng = np.random.default_rng(n)
        q = n - 2
        for _ in range(25):
            d = rng.uniform(0.5, 2.0, q) * rng.choice([-1.0, 1.0], q)
            s = rng.standard_normal((n, n))
            s_inv = np.linalg.inv(s)
            h = s @ np.diag(np.concatenate([d, [0.0, 0.0]])) @ s_inv
            a, b = rng.standard_normal((q, 2)), rng.standard_normal((q, 2))
            u, v = s[:, :q] @ a, s_inv.T[:, :q] @ b
            assert compatibility_check(h, u, v).passed
            ref = mp_det(np.diag(d) + a @ b.T)
            assert abs(pdet_lemma(h, u, v) - ref) <= 1e-8 * abs(ref)
            # a null-space component of 1e-3 relative is still refused
            null = s[:, q:] @ rng.standard_normal((2, 2))
            moved = u + 1e-3 * np.max(np.abs(u)) * null / np.max(np.abs(null))
            assert not compatibility_check(h, moved, v).passed
            null = s_inv.T[:, q:] @ rng.standard_normal((2, 2))
            moved = v + 1e-3 * np.max(np.abs(v)) * null / np.max(np.abs(null))
            assert not compatibility_check(h, u, moved).passed

    def test_nonsingular_always_passes(self, rng):
        h = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        rep = compatibility_check(h, rng.standard_normal((3, 2)),
                                  rng.standard_normal((3, 2)), TOL9)
        assert rep.passed


@pytest.mark.parametrize("route", [pdet_lemma, regularized_limit, compatibility_check])
@pytest.mark.parametrize("u, v", [
    (np.array([[1j], [0.0]]), np.array([[1.0], [0.0]])),
    (np.array([[1.0], [0.0]]), np.array([1j, 0.0])),
])
def test_complex_factors_rejected(route, u, v):
    # pdet_lemma(I, [[1j], [0]], [[1], [0]]) used to return 1.0, dropping the
    # imaginary part of det(I + U V^T) = 1 + 1j with only a ComplexWarning
    with pytest.raises(ValueError, match="complex"):
        route(np.eye(2), u, v)


class TestPdetLemma:
    def test_worked_example_with_sign_flip(self):
        u = np.array([1.0, 0.0, 0.0])
        gi = group_inverse(A_SING, TOL9)
        for p in (0.0, 0.25, 0.5, 2.0):
            v = np.array([p, 0.7, 0.0])
            assert abs(float(v @ gi.h_drazin @ u) - (-p)) <= 1e-12
            assert abs(pdet_lemma(A_SING, u, v, TOL9) - 2.0 * (1.0 - p)) <= 1e-12

    def test_zero_base_and_factors_undefined(self):
        with pytest.raises(AllCoefficientsBelowTolerance):
            pdet_lemma(np.zeros((3, 3)), np.zeros((3, 1)), np.zeros((3, 1)))

    def test_empty_factors_return_pdet(self):
        val = pdet_lemma(A_SING, np.zeros((3, 0)), np.zeros((3, 0)), TOL9)
        assert val == 2.0

    def test_incompatible_rejected_with_report(self):
        u = np.array([0.0, 0.0, 1.0])
        with pytest.raises(CompatibilityViolated) as exc:
            pdet_lemma(A_SING, u, u, TOL9)
        assert exc.value.report.norm_p0u == 1.0

    def test_index_propagates(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(IndexGreaterThanOne):
            pdet_lemma(n, np.zeros(2), np.zeros(2), TOL9)

    @pytest.mark.parametrize("route", [pdet_lemma, regularized_limit])
    def test_column_count_mismatch(self, route):
        u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        v = np.array([[0.25], [0.7], [0.0]])
        with pytest.raises(DimensionMismatch):
            route(A_SING, u, v, tol=TOL9)

    @pytest.mark.parametrize("route", [pdet_lemma, regularized_limit])
    def test_one_factorization_no_charpoly(self, route, monkeypatch):
        charpolys = count_calls(monkeypatch, "charpoly")
        factorizations = count_calls(monkeypatch, "full_rank_factorization")
        route(A_SING, np.array([1.0, 0.0, 0.0]), np.array([0.25, 0.7, 0.0]), tol=TOL9)
        assert charpolys == []
        assert len(factorizations) == 1

    def test_nonsingular_h_at_default_tolerance(self, rng):
        # every U and V is compatible with a nonsingular H; a rounding-noise
        # P0 refused about a quarter of these draws
        for _ in range(100):
            n, k = int(rng.integers(2, 17)), int(rng.integers(1, 3))
            c = 10.0 ** rng.uniform(-3.0, 3.0)
            h = c * rng.standard_normal((n, n))
            u, v = rng.standard_normal((n, k)), c * rng.standard_normal((n, k))
            ref = mp_det(h + u @ v.T)
            assert abs(pdet_lemma(h, u, v) - ref) <= 1e-10 * abs(ref)

    def test_matches_independent_pdet(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 8))
            q = int(rng.integers(2, min(4, n - 1) + 1))
            r = int(rng.integers(1, 4))
            h, u, v, _ = exact_lemma_instance(rng, n, q, r)
            got = pdet_lemma(h, u, v, TOL9)
            ref = np_pdet(h + u @ v.T)
            assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))


class TestRegularizedLimit:
    def test_worked_example(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.25, 0.7, 0.0])
        res = regularized_limit(A_SING, u, v, tol=TOL9)
        assert res.converged
        assert abs(res.estimate - 1.5) <= 1e-6 * 1.5
        assert len(res.per_eps) == 8

    def test_zero_update_converges_to_pdet(self):
        res = regularized_limit(A_SING, np.zeros((3, 1)), np.zeros((3, 1)), tol=TOL9)
        assert abs(res.estimate - 2.0) <= 1e-6 * 2.0

    def test_agrees_with_lemma(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 7))
            q = int(rng.integers(2, min(4, n - 1) + 1))
            r = int(rng.integers(1, 4))
            h, u, v, _ = exact_lemma_instance(rng, n, q, r)
            target = pdet_lemma(h, u, v, TOL9)
            res = regularized_limit(h, u, v, tol=TOL9)
            assert abs(res.estimate - target) <= 1e-6 * max(1.0, abs(target))

    def test_error_eventually_shrinks(self, rng):
        h, u, v, _ = exact_lemma_instance(rng, 5, 3, 2)
        target = pdet_lemma(h, u, v, TOL9)
        res = regularized_limit(h, u, v, tol=TOL9)
        errs = [abs(val - target) for _, val in res.per_eps[-4:]]
        assert all(b <= a * 1.01 for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("c", [1e-2, 1e-4])
    @pytest.mark.parametrize("lam", [1.0, 1e-1, 1e-2, 1e-3])
    def test_small_scale_converges(self, c, lam):
        # an absolute schedule ending at eps = 1e-8 left a first-order error
        # eps / (c lam) far above the 1e-6 gate at these scales
        u = math.sqrt(c) * np.array([1.0, 0.0, 0.0])
        v = math.sqrt(c) * np.array([0.25, 0.7, 0.0])
        res = regularized_limit(c * np.diag([lam, 1.0, 0.0]), u, v, tol=TOL9)
        target = c * c * lam * (1.0 + 0.25 / lam)
        assert abs(res.estimate - target) <= 1e-12 * target
        assert abs(res.per_eps[-1][1] - target) <= 1e-6 * target

    def test_schedule_too_short(self):
        u = np.zeros((3, 1))
        with pytest.raises(ScheduleTooShort):
            regularized_limit(A_SING, u, u, schedule=[1e-1, 1e-2], tol=TOL9)

    @pytest.mark.parametrize("schedule", [[math.inf, 1e-3, 1e-4], [0.1, math.nan, 1e-4],
                                          [0.1, 1e-3, math.nan]])
    def test_non_finite_schedule_refused(self, schedule):
        u = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            regularized_limit(A_SING, u, np.array([0.25, 0.7, 0.0]), schedule, TOL9)

    def test_not_converged_carries_table(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.25, 0.7, 0.0])
        with pytest.raises(NotConverged) as exc:
            regularized_limit(A_SING, u, v, schedule=[0.4, 0.2, 0.1], tol=TOL9)
        assert len(exc.value.per_eps) == 3

    def test_compatibility_enforced(self):
        u = np.array([0.0, 0.0, 1.0])
        with pytest.raises(CompatibilityViolated):
            regularized_limit(A_SING, u, u, tol=TOL9)

    def test_eps_power_underflow_converges(self):
        # nu = 15 on a scaled schedule down to eps = 1e-22: eps ** 15
        # underflows to 0.0 before the sweep ends, which the log-form sweep
        # never forms
        h = np.diag([1.0, 1e-14] + [0.0] * 15)
        u = np.zeros((17, 1))
        res = regularized_limit(h, u, u)
        assert res.per_eps[-1][0] ** 15 == 0.0
        assert abs(res.estimate - 1e-14) <= 1e-12 * 1e-14
        assert abs(res.per_eps[-1][1] - 1e-14) <= 1e-6 * 1e-14

    @pytest.mark.parametrize("n", [48, 64])
    def test_large_nullity_converges(self, n):
        # nu = n - 2 >= 41: eps ** nu underflowed at the smallest scaled eps
        h = np.diag([1.0, -2.0] + [0.0] * (n - 2))
        u, v = np.zeros(n), np.zeros(n)
        u[0], v[:2] = 1.0, [0.25, 0.7]
        res = regularized_limit(h, u, v)
        assert abs(res.estimate + 2.5) <= 1e-15
        assert abs(res.per_eps[-1][1] + 2.5) <= 1e-6 * 2.5

    @pytest.mark.parametrize("schedule", [None, [1e-1 / 2 ** k for k in range(20)]])
    def test_one_eigensolve_and_one_small_det(self, schedule, monkeypatch):
        # the sweep is one batched LU over the schedule; kernel.det forms
        # only the r x r det(I + V^T H^D U)
        eigs = count_calls(monkeypatch, "eigenvalues")
        dets = count_calls(monkeypatch, "det")
        regularized_limit(A_SING, np.array([1.0, 0.0, 0.0]), np.array([0.25, 0.7, 0.0]),
                          schedule, TOL9)
        assert len(eigs) == 1
        assert [a[0].shape for a in dets] == [(1, 1)]

    def test_settle_gate_fails_on_nan(self):
        # the gate reads (value, sign, log|value|) triples
        one = (1.0, 1.0, 0.0)
        with pytest.raises(NotConverged):
            _require_settled(one, (one, (math.nan, math.nan, math.nan)), ())
        with pytest.raises(NotConverged):
            _require_settled(one, ((math.inf, 1.0, math.inf),), ())

    def test_default_schedule_shape(self):
        sched = default_eps_schedule()
        assert len(sched) == 8
        assert sched[0] == 1e-1
        assert abs(sched[-1] - 1e-8) <= 1e-22

    @pytest.mark.parametrize("kwargs", [{"eps_min": 0.0}, {"eps_min": -1e-3},
                                        {"eps_min": -math.inf}, {"ratio": 1.0},
                                        {"eps_max": math.inf}])
    def test_default_schedule_that_never_ends_is_refused(self, kwargs):
        with pytest.raises(ValueError, match="eps_min > 0"):
            default_eps_schedule(**kwargs)


def lemma_case(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    q = int(rng.integers(2, min(4, n - 1) + 1))
    h, u, v, _ = exact_lemma_instance(rng, n, q, int(rng.integers(1, 4)))
    return rng, h, u, v, q


seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
scales = st.floats(min_value=-4.0, max_value=4.0).map(lambda x: 10.0 ** x)


class TestScaleAndSimilarity:
    @settings(max_examples=40)
    @given(seeds, scales)
    def test_pdet_scales_by_c_to_the_q(self, seed, c):
        _, h, _, _, q = lemma_case(seed)
        for method in ("charpoly", "eigenproduct"):
            base = pdet(h, TOL9, method=method)
            scaled = pdet(c * h, TOL9, method=method)
            assert scaled.nullity == base.nullity == h.shape[0] - q
            assert abs(scaled.value - c ** q * base.value) <= 1e-9 * abs(c ** q * base.value)

    @settings(max_examples=40)
    @given(seeds, scales)
    def test_lemma_routes_scale_by_c_to_the_q(self, seed, c):
        _, h, u, v, q = lemma_case(seed)
        base = pdet_lemma(h, u, v, TOL9)
        want = c ** q * base
        root = math.sqrt(c)
        assert abs(pdet_lemma(c * h, root * u, root * v, TOL9) - want) <= 1e-9 * abs(want)
        res = regularized_limit(c * h, root * u, root * v, tol=TOL9)
        assert abs(res.estimate - want) <= 1e-9 * abs(want)

    @settings(max_examples=40)
    @given(seeds, scales)
    def test_similarity_invariance(self, seed, c):
        # H -> S H S^-1 with U -> S U and V -> S^-T V leaves pdet(H),
        # its nullity and pdet(H + U V^T) unchanged, at any scale of H
        rng, h, u, v, q = lemma_case(seed)
        h, root = c * h, math.sqrt(c)
        u, v = root * u, root * v
        n = h.shape[0]
        s = random_orthogonal(rng, n) + 0.1 * rng.standard_normal((n, n))
        s_inv = np.linalg.inv(s)
        hs, us, vs = s @ h @ s_inv, s @ u, s_inv.T @ v
        for method in ("charpoly", "eigenproduct"):
            base = pdet(h, TOL9, method=method)
            moved = pdet(hs, TOL9, method=method)
            assert moved.nullity == base.nullity == n - q
            assert abs(moved.value - base.value) <= 1e-8 * abs(base.value)
        want = pdet_lemma(h, u, v, TOL9)
        assert abs(pdet_lemma(hs, us, vs, TOL9) - want) <= 1e-8 * abs(want)
        res = regularized_limit(hs, us, vs, tol=TOL9)
        assert abs(res.estimate - want) <= 1e-8 * abs(want)

    def test_ill_conditioned_similarity_not_converged(self):
        # a similarity with cond(S) of 73 on top of the instance's own: the
        # closed form stays invariant, but the smallest-eps value carries a
        # rounding error of about nu u cond(S) |H + U V^T| / eps, so the
        # sweep errors fall with eps and then grow again past the 1e-6 gate
        rng, h, u, v, _ = lemma_case(4266521501)
        c = 27.213667020821156
        h, u, v = c * h, math.sqrt(c) * u, math.sqrt(c) * v
        n = h.shape[0]
        s = np.eye(n) + rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))
        s_inv = np.linalg.inv(s)
        hs, us, vs = s @ h @ s_inv, s @ u, s_inv.T @ v
        want = pdet_lemma(h, u, v, TOL9)
        assert abs(pdet_lemma(hs, us, vs, TOL9) - want) <= 1e-12 * abs(want)
        with pytest.raises(NotConverged) as exc:
            regularized_limit(hs, us, vs, tol=TOL9)
        errs = [abs(val - want) / abs(want) for _, val in exc.value.per_eps]
        assert errs[-1] > 1e-6
        assert errs[-1] > 10.0 * min(errs)
