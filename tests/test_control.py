import math

import mpmath
import numpy as np
import pytest

from detdyn import (
    DimensionMismatch,
    NotConverged,
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
    def test_no_inverse_whatever_r(self, rng, monkeypatch, r):
        inverses = count_calls(monkeypatch, "inverse")
        dets = count_calls(monkeypatch, "det")
        p, vs = stream_instance(rng, 5, r, 1.0)
        assert len(info_filter_trace(p, vs).factors) == r
        assert inverses == [] and dets == []

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


def test_long_stream_running_logdet():
    """r = 1000, n = 32, update scale 100: the reported final log det, not
    a recomputed sum of the increments, matches numpy's slogdet."""
    for seed in range(20):
        p, us = stream_instance(np.random.default_rng(seed), 32, 1000, 100.0)
        cov = covariance_trace(p, us)
        sign, ref = np.linalg.slogdet(p + sum(np.outer(u, u) for u in us))
        assert sign == 1.0
        assert abs(cov.logdets[-1] - ref) <= 1e-12


def test_graded_base_no_refusal():
    # LU pivot 1 sits below the n eps max|P| cutoff; the factor gives
    # log det P = 2 (log 1e10 + log 1)
    p = np.diag([1e20, 1.0])
    cov = covariance_trace(p, [np.ones(2)])
    assert cov.logdets[0] == pytest.approx(46.051701859880914, rel=1e-15)
    assert cov.logdets[1] == pytest.approx(math.log(2e20 + 1.0), rel=1e-15)
    info = info_filter_trace(p, [np.ones(2)])
    assert info.dets[0] == 1e20
    # P_1^{-1} = diag(1e-20, 1) + 1 1^T has det 1 + 2e-20
    assert info.dets[1] == pytest.approx(1.0 / (1.0 + 2e-20), rel=1e-15)


def test_graded_spd_batch(rng):
    """P = D A D with A SPD and D a power-of-two grading from 1 down to
    2^-29, so P's eigenvalues reach below 1e-16 of its largest. Cholesky
    is exact under the scaling, so both traces must accept P and read its
    log det to working accuracy; the reference is 30-digit mpmath."""
    for _ in range(40):
        n = int(rng.integers(2, 9))
        d = 2.0 ** -np.sort(rng.integers(0, 30, size=n))
        d[0], d[-1] = 1.0, 2.0 ** -29
        p = d[:, None] * random_spd(rng, n) * d[None, :]
        assert np.min(np.diag(p)) / np.max(np.diag(p)) <= 1e-16
        with mpmath.workdps(30):
            ref = mpmath.log(mpmath.det(mpmath.matrix(p.tolist())))
        vs = [rng.standard_normal(n) for _ in range(3)]
        cov = covariance_trace(p, vs)
        assert abs(cov.logdets[0] - float(ref)) <= 1e-12 * max(1.0, abs(float(ref)))
        info = info_filter_trace(p, vs)
        assert abs(info.dets[0] / float(mpmath.exp(ref)) - 1.0) <= 1e-12
        direct = -np.linalg.slogdet(np.linalg.inv(p) + sum(np.outer(v, v) for v in vs))[1]
        assert math.log(info.dets[-1]) == pytest.approx(direct, rel=1e-9)


def test_ill_conditioned_spd_probes_accepted():
    """Q diag(lam) Q^T with eigenvalues log-uniform down to 1e-17 of the
    largest: every probe that LAPACK's Cholesky accepts, both traces
    accept too, with a finite log det and a positive det."""
    rng = np.random.default_rng(3)
    accepted = 0
    for _ in range(3000):
        n = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = 10.0 ** rng.uniform(-17.0, 0.0, size=n)
        lam[0] = 1.0
        p = (q * lam) @ q.T
        p = 0.5 * (p + p.T)
        try:
            np.linalg.cholesky(p)
        except np.linalg.LinAlgError:
            continue
        accepted += 1
        v = [np.ones(n)]
        assert math.isfinite(covariance_trace(p, v).logdets[0])
        assert info_filter_trace(p, v).dets[0] > 0.0
    assert accepted > 2800


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


def test_growth_takes_no_solve_or_det(rng, monkeypatch):
    solves = count_calls(monkeypatch, "solve")
    dets = count_calls(monkeypatch, "det")
    a = 0.5 * rng.standard_normal((4, 4))
    g = build_gramian(a, rng.standard_normal((4, 1)), 6)
    grown = gramian_pdet_growth(g, tol=TOL9)
    assert grown.rank_r == 4
    assert solves == [] and dets == []


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


def stable_system(seed: int, n: int):
    """Generic stable discrete-time (A, b): spectral radius in [0.3, 0.9]."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a *= rng.uniform(0.3, 0.9) / np.max(np.abs(np.linalg.eigvals(a)))
    return a, rng.standard_normal((n, 1))


def mp_gramian_spectrum(g, tol_rel: float):
    """(descending eigenvalues of W, rank at the package's cutoff, product
    of the retained eigenvalues) at 30 digits."""
    n = g.w.shape[0]
    with mpmath.workdps(30):
        w = mpmath.zeros(n, n)
        for u in g.directions:
            x = mpmath.matrix(u.tolist())
            w += x * x.T
        ev = sorted(mpmath.eigsy(w, eigvals_only=True), reverse=True)
        cut = tol_rel * n * max(abs(w[i, j]) for i in range(n) for j in range(n))
        r = sum(1 for e in ev if e > cut)
        return ev, r, float(mpmath.fprod(ev[:r]))


# rank 5 with cond(W) of 2e9 and 3.9e9: the eigenvalue that the rank cutoff
# drops still dwarfs the smallest eps, so the sweep cannot settle
DROPPED_DWARFS_EPS = {(6, 7), (6, 9)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_generic_stable_growth(n):
    # an absolute schedule ending at eps = 1e-8 refused most of these once
    # the smallest retained eigenvalue fell below about 1e-2
    for seed in range(20):
        g = build_gramian(*stable_system(seed, n), n)
        ev, r, ref = mp_gramian_spectrum(g, 1e-9)
        if (n, seed) in DROPPED_DWARFS_EPS:
            assert r == 5
            with pytest.raises(NotConverged) as exc:
                gramian_pdet_growth(g, tol=TOL9)
            assert ev[r] > 1e3 * exc.value.per_eps[-1][0]
            continue
        growth = gramian_pdet_growth(g, tol=TOL9)
        assert growth.rank_r == r
        assert abs(growth.pdet_estimate - ref) <= 1e-10 * ref


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
