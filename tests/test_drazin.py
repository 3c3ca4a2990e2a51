import math

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

from conftest import (
    count_calls,
    exact_index1,
    exact_lemma_instance,
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
        assert res.method == "charpoly"

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

    def test_nonsingular_always_passes(self, rng):
        h = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        rep = compatibility_check(h, rng.standard_normal((3, 2)),
                                  rng.standard_normal((3, 2)), TOL9)
        assert rep.passed


class TestPdetLemma:
    def test_worked_example_with_sign_flip(self):
        u = np.array([1.0, 0.0, 0.0])
        gi = group_inverse(A_SING, TOL9)
        for p in (0.0, 0.25, 0.5, 2.0):
            v = np.array([p, 0.7, 0.0])
            assert abs(float(v @ gi.h_drazin @ u) - (-p)) <= 1e-12
            assert abs(pdet_lemma(A_SING, u, v, TOL9) - 2.0 * (1.0 - p)) <= 1e-12

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

    def test_default_schedule_shape(self):
        sched = default_eps_schedule()
        assert len(sched) == 8
        assert sched[0] == 1e-1
        assert abs(sched[-1] - 1e-8) <= 1e-22


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
