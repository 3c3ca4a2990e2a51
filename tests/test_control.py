import math

import numpy as np
import pytest

from detdyn import (
    DimensionMismatch,
    NotPSD,
    NotPositiveDefinite,
    Tolerance,
    build_gramian,
    covariance_trace,
    det,
    eigenvalues,
    gramian_pdet_growth,
    growth_from_directions,
    info_filter_trace,
    inverse,
    perturbed_gramian_experiment,
    rank,
    reach_ellipse,
)

from conftest import count_calls, random_spd

TOL9 = Tolerance(rel=1e-9)


def stream_instance(rng, n: int, r: int, scale: float):
    p = random_spd(rng, n)
    return p, [scale * rng.standard_normal(n) for _ in range(r)]


A_DEMO = np.array([[0.72, 0.55], [-0.18, 0.78]])
B_DEMO = np.array([[1.0], [0.15]])


class TestCovarianceTrace:
    def test_single_unit_update(self):
        tr = covariance_trace(np.eye(2), [np.array([1.0, 0.0])])
        assert abs(tr.increments[0] - math.log(2.0)) <= 1e-14
        assert tr.lower_bound == 0.5
        assert tr.upper_bound == 1.0

    def test_repeated_direction_diminishes(self):
        k = 5
        tr = covariance_trace(np.eye(3), [np.array([1.0, 0.0, 0.0])] * k)
        for i, inc in enumerate(tr.increments, start=1):
            assert abs(inc - math.log1p(1.0 / i)) <= 1e-12
        assert all(b < a for a, b in zip(tr.increments, tr.increments[1:]))

    def test_identity_and_bounds_random(self, rng):
        for _ in range(30):
            n = 5
            p = random_spd(rng, n)
            us = [rng.standard_normal(n) for _ in range(10)]
            tr = covariance_trace(p, us, TOL9)
            final = p + sum(np.outer(u, u) for u in us)
            direct = math.log(det(final))
            assert abs(tr.logdets[-1] - direct) <= 1e-8
            delta = tr.logdets[-1] - tr.logdets[0]
            assert tr.lower_bound <= delta + 1e-10
            assert delta <= tr.upper_bound + 1e-10

    def test_no_solve_in_the_loop(self, rng, monkeypatch):
        solves = count_calls(monkeypatch, "solve")
        p, us = stream_instance(rng, 6, 20, 1.0)
        assert len(covariance_trace(p, us).increments) == 20
        assert solves == []

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            covariance_trace(np.diag([1.0, -1.0]), [])
        with pytest.raises(NotPositiveDefinite):
            covariance_trace(np.array([[1.0, 2.0], [0.0, 1.0]]), [])


class TestInfoFilterTrace:
    def test_single_measurement_halves_det(self):
        tr = info_filter_trace(np.eye(2), [np.array([1.0, 0.0])])
        assert tr.dets == (1.0, 0.5)
        assert tr.factors == (0.5,)

    def test_zero_measurement_keeps_det(self):
        tr = info_filter_trace(np.eye(2), [np.zeros(2)])
        assert tr.factors == (1.0,)
        assert tr.dets[-1] == tr.dets[0]
        assert tr.beta == 0.0
        assert tr.geometric_bound is None

    @pytest.mark.parametrize("r", [0, 1, 7, 30])
    def test_one_inverse_whatever_r(self, rng, monkeypatch, r):
        inverses = count_calls(monkeypatch, "inverse")
        p, vs = stream_instance(rng, 5, r, 1.0)
        assert len(info_filter_trace(p, vs).factors) == r
        assert len(inverses) == 1

    def test_monotone_and_bounded_random(self, rng):
        for _ in range(25):
            n = 4
            p = random_spd(rng, n)
            vs = [rng.standard_normal(n) for _ in range(8)]
            tr = info_filter_trace(p, vs, TOL9)
            assert all(b < a for a, b in zip(tr.dets, tr.dets[1:]))
            assert tr.beta is not None and tr.beta > 0.0
            assert tr.dets[-1] <= tr.geometric_bound * (1.0 + 1e-12)
            info = inverse(p) + sum(np.outer(v, v) for v in vs)
            direct = det(inverse(info))
            assert abs(tr.dets[-1] - direct) <= 1e-8 * max(1.0, direct)


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_long_stream_logdet_drift(rng, n, scale):
    """r = 1000: the carried factors stay at the log det of the final
    matrix, taken afresh by numpy. The covariance increments are summed
    exactly: rounding the running sum of log dets near 500 alone costs
    about 1e-12 here."""
    p, us = stream_instance(rng, n, 1000, scale)
    outer = sum(np.outer(u, u) for u in us)
    cov = covariance_trace(p, us)
    sign, ref = np.linalg.slogdet(p + outer)
    assert sign == 1.0
    assert abs(math.fsum((cov.logdets[0],) + cov.increments) - ref) <= 1e-12
    info = info_filter_trace(p, us)
    sign, ref_info = np.linalg.slogdet(np.linalg.inv(p) + outer)
    assert sign == 1.0
    assert abs(math.log(info.dets[-1]) + ref_info) <= 1e-12


def test_large_update_no_spurious_refusal():
    # P_1 = diag(1 + 1e20, 1, 1) is SPD; a pivot test relative to its
    # largest entry used to refuse it as singular
    e1, e2 = np.eye(3)[:2]
    us = [1e10 * e1, e2]
    cov = covariance_trace(np.eye(3), us)
    assert cov.logdets[0] == 0.0
    assert cov.logdets[1:] == pytest.approx(
        (math.log1p(1e20), math.log1p(1e20) + math.log(2.0)), rel=1e-14)
    info = info_filter_trace(np.eye(3), us)
    assert info.dets[0] == 1.0
    assert info.dets[1:] == pytest.approx((1e-20, 5e-21), rel=1e-14)


class TestBuildGramian:
    def test_demo_directions(self):
        g = build_gramian(A_DEMO, B_DEMO, 4)
        assert len(g.directions) == 4
        assert np.array_equal(g.directions[0], np.array([1.0, 0.15]))
        assert np.max(np.abs(g.directions[1] - np.array([0.8025, -0.063]))) <= 1e-15
        for ell in range(4):
            expect = np.linalg.matrix_power(A_DEMO, ell) @ B_DEMO[:, 0]
            assert np.max(np.abs(g.directions[ell] - expect)) <= 1e-12

    def test_gramian_is_symmetric_psd(self):
        g = build_gramian(A_DEMO, B_DEMO, 4)
        assert np.array_equal(g.w, g.w.T)
        eigs = [z.real for z in eigenvalues(g.w).eigenvalues]
        assert min(eigs) >= -1e-12

    def test_rank_one_degenerate(self):
        # A = 0 kills every propagated direction, only B survives
        g = build_gramian(np.zeros((2, 2)), np.array([[1.0], [0.0]]), 3)
        assert np.array_equal(g.w, np.diag([1.0, 0.0]))
        assert rank(g.w) == 1

    def test_multi_input_ordering(self, rng):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 2))
        g = build_gramian(a, b, 2)
        # time index outer, input column inner
        assert np.allclose(g.directions[0], b[:, 0])
        assert np.allclose(g.directions[1], b[:, 1])
        assert np.allclose(g.directions[2], a @ b[:, 0])
        assert np.allclose(g.directions[3], a @ b[:, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_gramian(np.eye(2), np.ones((3, 1)), 2)
        with pytest.raises(DimensionMismatch):
            build_gramian(np.eye(2), np.ones((2, 1)), 0)


class TestGramianGrowth:
    def test_demo_system(self):
        g = build_gramian(A_DEMO, B_DEMO, 4)
        growth = gramian_pdet_growth(g, tol=TOL9)
        assert growth.rank_r == 2
        assert all(r <= 1e-10 for r in growth.identity_residuals)
        direct = det(g.w)
        assert abs(growth.normalized_det_values[-1] - direct) <= 1e-6 * direct
        assert abs(growth.factor_product_values[-1] - direct) <= 1e-6 * direct
        assert growth.log_pdet is not None
        assert abs(growth.pdet_estimate - direct) <= 1e-6 * direct

    def test_rank_deficient_single_direction(self):
        g = build_gramian(np.zeros((2, 2)), np.array([[1.0], [0.0]]), 3)
        growth = gramian_pdet_growth(g, tol=TOL9)
        assert growth.rank_r == 1
        assert abs(growth.pdet_estimate - 1.0) <= 1e-6
        assert all(r <= 1e-10 for r in growth.identity_residuals)

    def test_matches_eigenproduct(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 5))
            a = 0.5 * rng.standard_normal((n, n))
            b = rng.standard_normal((n, int(rng.integers(1, 3))))
            g = build_gramian(a, b, int(rng.integers(2, 5)))
            eigs = sorted(z.real for z in eigenvalues(g.w, TOL9).eigenvalues)
            nonzero = [x for x in eigs if x > 1e-6]
            if not nonzero or min(nonzero) < 5e-2:
                continue  # keep the eps tail well separated from the spectrum
            growth = gramian_pdet_growth(g, tol=TOL9)
            ref = float(np.prod(nonzero))
            assert growth.rank_r == len(nonzero)
            assert abs(growth.pdet_estimate - ref) <= 1e-6 * ref
            assert all(r <= 1e-10 for r in growth.identity_residuals)

    def test_reordering_keeps_totals(self, rng):
        g = build_gramian(A_DEMO, B_DEMO, 4)
        base = gramian_pdet_growth(g, tol=TOL9)
        perm = [2, 0, 3, 1]
        permuted = [g.directions[i] for i in perm]
        other = growth_from_directions(permuted, 2, tol=TOL9)
        w_perm = sum(np.outer(u, u) for u in permuted)
        assert np.max(np.abs(w_perm - g.w)) <= 1e-10 * np.max(np.abs(g.w))
        assert other.rank_r == base.rank_r
        assert abs(other.pdet_estimate - base.pdet_estimate) <= 1e-10 * base.pdet_estimate
        assert not np.allclose(other.factors_per_eps[-1], base.factors_per_eps[-1])


class TestReachEllipse:
    def test_scaled_identity_circle(self):
        e = reach_ellipse(0.25 * np.eye(2))
        assert abs(e.semi_axis_a - 0.5) <= 1e-15
        assert abs(e.semi_axis_b - 0.5) <= 1e-15
        assert abs(e.area - math.pi * 0.25) <= 1e-14

    def test_axis_aligned(self):
        e = reach_ellipse(np.diag([4.0, 1.0]))
        assert e.semi_axis_a == 2.0
        assert e.semi_axis_b == 1.0
        assert e.rotation_rad == 0.0

    def test_degenerate_segment(self):
        e = reach_ellipse(np.outer([3.0, 0.0], [3.0, 0.0]))
        assert e.semi_axis_a == 3.0
        assert e.semi_axis_b == 0.0
        assert e.area == 0.0

    def test_rotated_recovery(self, rng):
        theta = 0.7
        c, s = math.cos(theta), math.sin(theta)
        q = np.array([[c, -s], [s, c]])
        e = reach_ellipse(q @ np.diag([4.0, 1.0]) @ q.T)
        assert abs(e.rotation_rad - theta) <= 1e-12
        assert abs(e.semi_axis_a - 2.0) <= 1e-12

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            reach_ellipse(np.diag([1.0, -1.0]))
        with pytest.raises(NotPSD):
            reach_ellipse(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            reach_ellipse(np.eye(3))

    def test_area_monotone_along_partial_sums(self):
        g = build_gramian(A_DEMO, B_DEMO, 4)
        eps = 0.05
        acc = eps * np.eye(2)
        areas = [reach_ellipse(acc).area]
        for u in g.directions:
            acc = acc + np.outer(u, u)
            areas.append(reach_ellipse(acc).area)
        assert all(b > a for a, b in zip(areas, areas[1:]))


class TestPerturbedExperiment:
    def test_zero_noise_is_exact(self):
        g = build_gramian(A_DEMO, B_DEMO, 4)
        rep = perturbed_gramian_experiment(g, 0.0, trials=3, seed=7, tol=TOL9)
        assert rep.mean_pdet == rep.nominal_pdet
        for tr in rep.per_trial:
            assert tr.pdet == rep.nominal_pdet
            assert tr.rank == rep.nominal_rank

    def test_noise_fills_rank(self):
        g = build_gramian(np.zeros((2, 2)), np.array([[1.0], [0.0]]), 3)
        rep = perturbed_gramian_experiment(g, 0.2, trials=20, seed=3, tol=TOL9)
        assert rep.nominal_rank == 1
        assert all(tr.rank == 2 for tr in rep.per_trial)
        assert rep.mean_rank == 2.0

    def test_reproducible(self):
        g = build_gramian(A_DEMO, B_DEMO, 4)
        a = perturbed_gramian_experiment(g, 0.1, trials=10, seed=42, tol=TOL9)
        b = perturbed_gramian_experiment(g, 0.1, trials=10, seed=42, tol=TOL9)
        assert a == b
        c = perturbed_gramian_experiment(g, 0.1, trials=10, seed=43, tol=TOL9)
        assert c.mean_pdet != a.mean_pdet

    def test_rejects_bad_arguments(self):
        g = build_gramian(A_DEMO, B_DEMO, 2)
        with pytest.raises(ValueError):
            perturbed_gramian_experiment(g, -0.1, trials=2, seed=0)
        with pytest.raises(ValueError):
            perturbed_gramian_experiment(g, 0.1, trials=0, seed=0)
