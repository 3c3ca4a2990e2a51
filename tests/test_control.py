import math
import warnings

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

from detdyn import control

from conftest import count_calls, count_linalg, random_spd

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
    def test_long_stream_logdets_do_not_underflow(self):
        # det P_k underflows to 0.0 by step 200 here, while log det P_1000
        # = -1324.02
        vs = 1e3 * np.random.default_rng(0).standard_normal((1000, 64))
        tr = info_filter_trace(np.eye(64), list(vs))
        assert tr.dets[200] == tr.dets[-1] == 0.0
        sign, ref = np.linalg.slogdet(np.eye(64) + vs.T @ vs)
        assert sign == 1.0
        assert abs(tr.logdets[-1] + ref) <= 1e-10
        assert len(tr.logdets) == 1001 and tr.logdets[0] == 0.0

    def test_single_measurement_halves_det(self):
        tr = info_filter_trace(np.eye(2), [np.array([1.0, 0.0])])
        assert tr.dets == (1.0, 0.5)
        assert tr.factors == (0.5,)

    def test_det_in_range_when_the_pivot_product_overflows_part_way(self):
        # det P = 1e200 * 1e200 * 1e-200: the product of the pivots passes
        # 1e400 on the way and read inf, with numpy's overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = info_filter_trace(np.diag([1e200, 1e200, 1e-200]), [(0.0, 0.0, 1e90)])
        assert abs(tr.quad_forms[0] - 1e-20) <= 1e-12 * 1e-20
        assert tr.dets == pytest.approx((1e200, 1e200), rel=1e-12)

    def test_det_back_in_range_after_det_p_overflows(self):
        # det P = 1e400 reads inf, but one measurement with q = 1e100 brings
        # det P_1 = 1e300 back into float range; the running product of the
        # factors stayed inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = info_filter_trace(np.diag([1e200, 1e200]), [(1e-50, 0.0)])
        assert tr.dets[0] == math.inf
        assert abs(tr.dets[1] - 1e300) <= 1e-12 * 1e300

    def test_geometric_bound_in_range_when_the_power_underflows(self):
        # P = 1e10 I_30 and 30 orthogonal measurements with q_i = 1e20:
        # (1 + beta)^-30 = 1e-600 reads 0.0, while the bound 1e300 * 1e-600
        # is 1e-300, and here equals det P_30
        tr = info_filter_trace(1e10 * np.eye(30), list(1e5 * np.eye(30)))
        assert abs(tr.beta - 1e20) <= 1e-12 * 1e20
        assert abs(tr.dets[-1] - 1e-300) <= 1e-12 * 1e-300
        assert abs(tr.geometric_bound - tr.dets[-1]) <= 1e-12 * tr.dets[-1]

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

    @pytest.mark.parametrize("r", [3, 30])
    def test_triangular_inverse_only_for_a_refactor(self, rng, monkeypatch, r):
        # the first block's W = J L^T V is one product, with no solve: the
        # inverse of L that carries the information matrix is formed once,
        # and only when a later block refactors it
        calls = count_linalg(monkeypatch, ("detdyn.control",), ("linalg.inv", "linalg.solve"))
        n = 8
        p, vs = stream_instance(rng, n, r, 1.0)
        tr = info_filter_trace(p, vs)
        if r <= n:
            assert calls == []
        else:
            assert calls.count(("detdyn.control", "inv")) == 1
        sign, log = np.linalg.slogdet(np.linalg.inv(p) + sum(np.outer(v, v) for v in vs))
        assert sign == 1.0 and abs(tr.logdets[-1] + log) <= 1e-12 * abs(log) + 1e-12

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


def adversarial_stream(seed: int, n: int = 16, r: int = 24):
    """P = Q diag(logspace(0, -8, n)) Q^T and r updates drawn from a pool of
    4 unit Gaussian directions, each at scale 1e-3 or 1e2, half of them
    with 1e-6 noise: repeats make the capacitance pivots cancel."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    p = (q * np.logspace(0.0, -8.0, n)) @ q.T
    p = 0.5 * (p + p.T)
    pool = rng.standard_normal((4, n))
    pool /= np.linalg.norm(pool, axis=1)[:, None]
    us = []
    for _ in range(r):
        u = pool[rng.integers(4)]
        if rng.integers(2):
            u = u + 1e-6 * rng.standard_normal(n)
        us.append((1e-3, 1e2)[rng.integers(2)] * u)
    return p, us


def mp_quad_forms(p, us, info: bool = False) -> list:
    """50-digit x_j = u_j^T P_{j-1}^{-1} u_j of P_j = P_{j-1} + u_j u_j^T,
    or with info=True x_j = u_j^T P_{j-1} u_j of P_j^{-1} = P_{j-1}^{-1} +
    u_j u_j^T, by Sherman-Morrison on the 50-digit (inverse) matrix."""
    with mpmath.workdps(50):
        m = mpmath.matrix(p.tolist())
        if not info:
            m = mpmath.inverse(m)
        out = []
        for u in us:
            mu = mpmath.matrix(u.tolist())
            y = m * mu
            x = (mu.T * y)[0]
            out.append(x)
            m = m - (y * y.T) / (1 + x)
    return out


def worst_increment_error(quad_forms, ref) -> float:
    """Largest relative error of log1p(x_j) against the 50-digit x_j."""
    with mpmath.workdps(50):
        return max(float(abs((math.log1p(x) - mpmath.log1p(e)) / mpmath.log1p(e)))
                   for x, e in zip(quad_forms, ref))


def test_adversarial_stream_increments():
    """Cancelled capacitance pivots: increments within 10x of the
    step-by-step Cholesky update's worst error (4e-10) on this family;
    blocks of n steps without the cancellation guard reach 1e-4."""
    worst = 0.0
    for seed in range(12):
        p, us = adversarial_stream(seed)
        cov = covariance_trace(p, us)
        assert min(cov.quad_forms) >= 0.0
        worst = max(worst, worst_increment_error(cov.quad_forms, mp_quad_forms(p, us)))
    assert worst <= 4e-9


def test_adversarial_info_filter():
    p, us = adversarial_stream(8)
    info = info_filter_trace(p, us)
    assert min(info.quad_forms) >= 0.0
    ref = mp_quad_forms(p, us, info=True)
    assert worst_increment_error(info.quad_forms, ref) <= 1e-13


@pytest.mark.parametrize("blocks", [1, 3])
def test_benign_stream_qr_per_block(rng, monkeypatch, blocks):
    # one Cholesky of the capacitance per block of n updates (from the
    # kernel), one refactoring QR between blocks and none of [I; W],
    # however long the stream; the one Cholesky from control is P's own
    calls = count_lapack(monkeypatch)
    n = 8
    p, us = stream_instance(rng, n, blocks * n, 0.1)
    covariance_trace(p, us)
    assert capacitance_choleskys(calls) == blocks
    assert tally(calls) == {"qr": blocks - 1, "svd": 0, "eigh": 0, "cholesky": 1 + blocks}


def test_repeated_direction_trips_guard(monkeypatch):
    """One direction 64 times at 1e2 on cond(P) = 1e8: x_k = x_1/(1 +
    (k-1) x_1), so every later pivot cancels against the first."""
    calls = count_lapack(monkeypatch)
    n, k = 16, 64
    p, _ = adversarial_stream(5, n)
    u = 1e2 * np.random.default_rng(5).standard_normal(n)
    with mpmath.workdps(50):
        mu = mpmath.matrix(u.tolist())
        x1 = (mu.T * mpmath.lu_solve(mpmath.matrix(p.tolist()), mu))[0]
        want = [float(mpmath.log1p(x1 / (1 + (j - 1) * x1))) for j in range(1, k + 1)]
    cov = covariance_trace(p, [u] * k)
    # k/n untripped blocks would take k/n capacitance Choleskys; each block
    # takes one, and one refactoring QR leads to the next
    blocks = capacitance_choleskys(calls)
    assert blocks > k // n
    assert tally(calls)["qr"] == blocks - 1
    assert np.max(np.abs(np.array(cov.increments) / want - 1.0)) <= 1e-10


@pytest.mark.parametrize("trace", [covariance_trace, info_filter_trace])
def test_zero_update_mid_stream(rng, trace):
    p, us = stream_instance(rng, 6, 9, 1.0)
    us[4] = np.zeros(6)
    tr = trace(p, us)
    assert tr.quad_forms[4] == 0.0
    assert min(tr.quad_forms) >= 0.0
    if trace is covariance_trace:
        assert tr.increments[4] == 0.0
        assert tr.logdets[5] == tr.logdets[4]
    else:
        assert tr.factors[4] == 1.0
        assert tr.dets[5] == tr.dets[4]


def test_empty_and_single_update_streams():
    p = np.diag([2.0, 3.0])
    cov = covariance_trace(p, [])
    assert cov.logdets == (pytest.approx(math.log(6.0), rel=1e-15),)
    assert cov.increments == cov.quad_forms == ()
    info = info_filter_trace(p, [])
    assert info.dets == (6.0,) and info.factors == ()
    assert info.beta is None and info.geometric_bound is None
    u = np.array([1.0, 1.0])
    cov = covariance_trace(p, [u])
    assert cov.quad_forms[0] == pytest.approx(1.0 / 2.0 + 1.0 / 3.0, rel=1e-15)
    info = info_filter_trace(p, [u])
    assert info.quad_forms[0] == pytest.approx(5.0, rel=1e-15)
    assert info.dets[1] == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("trace", [covariance_trace, info_filter_trace])
def test_complex_update_rejected(trace):
    # the imaginary part used to be dropped with only a ComplexWarning
    for u in (np.array([1j, 0.0]), [1j, 0.0]):
        with pytest.raises(ValueError, match="complex"):
            trace(np.eye(2), [u])


@pytest.mark.parametrize("trace", [covariance_trace, info_filter_trace])
def test_stream_input_forms(rng, monkeypatch, trace):
    # a plain (r, n) stack is validated in one pass; lists of (n, 1)
    # columns take the per-vector path, with the same result
    p, us = stream_instance(rng, 5, 7, 1.0)
    calls = count_calls(monkeypatch, "as_vector")
    want = trace(p, us).quad_forms
    assert calls == []
    assert trace(p, np.array(us)).quad_forms == want
    assert trace(p, [u.tolist() for u in us]).quad_forms == want
    assert trace(p, [u[:, None] for u in us]).quad_forms == want
    assert len(calls) == len(us)


@pytest.mark.parametrize("trace", [covariance_trace, info_filter_trace])
def test_stream_input_errors(trace):
    name = "u_i" if trace is covariance_trace else "v_i"
    good = np.ones(3)
    for vectors, err, msg in (
            ([good, np.ones(2)], DimensionMismatch, f"{name} has length 2, expected 3"),
            ([good, np.ones(4)], DimensionMismatch, f"{name} has length 4, expected 3"),
            (np.ones((2, 4)), DimensionMismatch, f"{name} has length 4, expected 3"),
            ([good, [1.0, np.inf, 0.0]], ValueError, f"{name} has non-finite entries"),
            ([good, good * 1j], ValueError, f"{name} is complex; it must be real"),
            ([good, np.ones((3, 2))], DimensionMismatch, f"{name} must be 1-d, got ndim=2")):
        with pytest.raises(err) as exc:
            trace(np.eye(3), vectors)
        assert str(exc.value) == msg


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

    def test_gramian_is_the_outer_product_sum(self, rng):
        # X^T X sums in BLAS order: each entry is within 2 L eps of the
        # sequential sum, relative to the sum of the terms' magnitudes
        g = build_gramian(rng.standard_normal((5, 5)) / 3.0, rng.standard_normal((5, 2)), 6)
        terms = np.array([np.outer(u, u) for u in g.directions])
        loop = np.zeros((5, 5))
        for t in terms:
            loop += t
        bound = 2 * len(terms) * np.finfo(float).eps * np.abs(terms).sum(axis=0)
        assert np.all(np.abs(g.w - loop) <= bound)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_gramian(np.eye(2), np.ones((3, 1)), 2)
        with pytest.raises(DimensionMismatch):
            build_gramian(np.eye(2), np.ones((2, 1)), 0)

    @pytest.mark.parametrize("a, b", [
        (np.eye(2), np.array([[1j], [0.0]])),
        (1j * np.eye(2), np.array([[1.0], [0.0]])),
    ])
    def test_complex_input_rejected(self, a, b):
        # a complex B used to be cast to float with only a ComplexWarning,
        # which left W all zeros
        with pytest.raises(ValueError, match="complex"):
            build_gramian(a, b, 2)


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


def mp_gramian_spectrum(directions, tol_rel: float):
    """(descending eigenvalues of W, rank at the package's cutoff, product
    of the retained eigenvalues) at 30 digits."""
    n = len(directions[0])
    with mpmath.workdps(30):
        w = mpmath.zeros(n, n)
        for u in directions:
            x = mpmath.matrix(u.tolist())
            w += x * x.T
        ev = sorted(mpmath.eigsy(w, eigvals_only=True), reverse=True)
        cut = tol_rel * n * max(abs(w[i, j]) for i in range(n) for j in range(n))
        r = sum(1 for e in ev if e > cut)
        return ev, r, float(mpmath.fprod(ev[:r]))


def mp_step_factors(directions, schedule) -> np.ndarray:
    """factors[e][l] = 1 + u_l^T (eps_e I + W_{l-1})^{-1} u_l at 30 digits."""
    n = len(directions[0])
    out = np.empty((len(schedule), len(directions)))
    with mpmath.workdps(30):
        for e, eps in enumerate(schedule):
            acc = mpmath.mpf(eps) * mpmath.eye(n)
            for l, u in enumerate(directions):
                x = mpmath.matrix(u.tolist())
                out[e, l] = float(1 + (x.T * mpmath.lu_solve(acc, x))[0])
                acc += x * x.T
    return out


def growth_case(name: str):
    """Ordered directions for the 30-digit growth checks."""
    if name == "single":
        return list(build_gramian(*stable_system(3, 5), 5).directions)
    if name == "multi":  # L = 8 > n = 3: three blocks of k = 3 steps
        a, _ = stable_system(4, 3)
        b = np.random.default_rng(4).standard_normal((3, 2))
        return list(build_gramian(a, b, 4).directions)
    if name == "repeated":  # u_(i,0) = u_(i,1) exactly, L = 8 > n = 4
        a, b = stable_system(5, 4)
        return list(build_gramian(a, np.hstack([b, b]), 4).directions)
    # nilpotent shift: A^3 b = A^4 b = 0
    shift = np.diag([1.0, 1.0], k=1)
    return list(build_gramian(shift, np.array([1.0, -2.0, 0.5]), 5).directions)


@pytest.mark.parametrize("name", ["single", "multi", "repeated", "zero"])
def test_growth_against_mpmath(name):
    dirs = growth_case(name)
    n = len(dirs[0])
    growth = growth_from_directions(dirs, n, tol=TOL9)
    _, r, ref = mp_gramian_spectrum(dirs, 1e-9)
    assert growth.rank_r == r
    assert abs(growth.pdet_estimate - ref) <= 1e-12 * ref
    want = mp_step_factors(dirs, growth.eps_schedule)
    got = np.array(growth.factors_per_eps)
    assert np.max(np.abs(got - want) / want) <= 1e-11


@pytest.mark.parametrize("n", [32, 48, 64])
def test_growth_of_gaussian_directions_at_size(n):
    # n directions in R^n: eps^n and the product of the factors under- and
    # overflowed while the sweep formed them as powers
    dirs = list(np.random.default_rng(n).standard_normal((n, n)))
    growth = growth_from_directions(dirs, n)
    with mpmath.workdps(30):
        ref = float(mpmath.det(mpmath.matrix(np.array(dirs).tolist())) ** 2)
    assert growth.rank_r == n
    assert abs(growth.pdet_estimate - ref) <= 1e-12 * ref
    assert max(growth.identity_residuals) <= 1e-10


@pytest.mark.parametrize("scale", [1e-6, 1e3, 1e6])
def test_growth_beyond_float_range(scale):
    # 64 directions in R^64 at these scales put pdet(W) near 1e-683, 1e469
    # and 1e853: the product reads 0.0 or inf, so the sweep is settled on
    # logs, and log_pdet is their sum
    dirs = scale * np.random.default_rng(64).standard_normal((64, 64))
    growth = growth_from_directions(list(dirs), 64)
    with mpmath.workdps(30):
        ref = float(2 * mpmath.log(abs(mpmath.det(mpmath.matrix(dirs.tolist())))))
    assert growth.rank_r == 64
    assert growth.pdet_estimate == (0.0 if scale < 1.0 else math.inf)
    assert abs(growth.log_pdet - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("schedule", [[math.inf, 1e-3, 1e-4], [0.1, math.nan, 1e-4]])
def test_non_finite_schedule_refused(schedule):
    # NaN once passed the schedule check and came back as NaN sweep values
    g = build_gramian(A_DEMO, B_DEMO, 4)
    with pytest.raises(ValueError, match="finite"):
        gramian_pdet_growth(g, schedule, TOL9)
    with pytest.raises(ValueError, match="finite"):
        perturbed_gramian_experiment(g, 0.1, 2, 0, schedule, TOL9)


def test_growth_of_one_unit_direction_in_r64():
    # eps^(n-k) with n - k = 63 underflowed to zero at every eps
    e = np.zeros(64)
    e[0] = 1.0
    growth = growth_from_directions([e], 64)
    assert growth.rank_r == 1
    assert growth.pdet_estimate == 1.0
    assert max(growth.identity_residuals) <= 1e-10


def count_lapack(monkeypatch) -> list:
    """Calls of np.linalg.qr, svd, eigh and cholesky made from
    detdyn.control or detdyn.kernel, whose ``_spd_pivots`` factors the
    capacitance blocks."""
    return count_linalg(monkeypatch, ("detdyn.control", "detdyn.kernel"),
                        ("linalg.qr", "linalg.svd", "linalg.eigh", "linalg.cholesky"))


def tally(calls) -> dict:
    """Calls per function name."""
    return {name: sum(c == name for _, c in calls)
            for name in ("qr", "svd", "eigh", "cholesky")}


def capacitance_choleskys(calls) -> int:
    """The Choleskys of capacitance blocks: those made from the kernel."""
    return calls.count(("detdyn.kernel", "cholesky"))


@pytest.mark.parametrize("horizon", [1, 4, 12])
def test_growth_factorizations_per_block(monkeypatch, horizon):
    # no eigensolver and no second rank rule: one QR of the directions,
    # one SVD for the spectrum of W, then one batched SVD per block of
    # n steps and one QR between blocks
    ranks = count_calls(monkeypatch, "rank")
    calls = count_lapack(monkeypatch)
    a, b = stable_system(6, 4)
    g = build_gramian(a, b, horizon)
    gramian_pdet_growth(g, tol=TOL9)
    blocks = -(-horizon // 4)
    assert ranks == []
    assert tally(calls) == {"qr": blocks, "svd": 1 + blocks, "eigh": 0, "cholesky": 0}


# rank 5 with cond(W) of 2e9 and 3.9e9: the eigenvalue that the rank cutoff
# drops still dwarfs the smallest eps, so the sweep cannot settle
DROPPED_DWARFS_EPS = {(6, 7), (6, 9)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_generic_stable_growth(n):
    # an absolute schedule ending at eps = 1e-8 refused most of these once
    # the smallest retained eigenvalue fell below about 1e-2
    for seed in range(20):
        g = build_gramian(*stable_system(seed, n), n)
        ev, r, ref = mp_gramian_spectrum(g.directions, 1e-9)
        if (n, seed) in DROPPED_DWARFS_EPS:
            assert r == 5
            with pytest.raises(NotConverged) as exc:
                gramian_pdet_growth(g, tol=TOL9)
            assert ev[r] > 1e3 * exc.value.per_eps[-1][0]
            continue
        growth = gramian_pdet_growth(g, tol=TOL9)
        assert growth.rank_r == r
        assert abs(growth.pdet_estimate - ref) <= 1e-10 * ref


def test_overflowing_factor_product_converges():
    # n = 32, horizon 32: eps^r times the product of the factors overflowed
    # to inf * 0 = NaN in factor_product_values while both are formed as
    # powers; in log form the sweep settles on the closed form
    rng = np.random.default_rng(0)
    a = 0.9 * rng.standard_normal((32, 32)) / np.sqrt(32)
    g = build_gramian(a, rng.standard_normal((32, 2)), 32)
    growth = gramian_pdet_growth(g)
    _, r, ref = mp_gramian_spectrum(g.directions, 2.0 ** -52)
    assert growth.rank_r == r == 32
    assert abs(growth.pdet_estimate - ref) <= 1e-10 * ref
    assert max(growth.identity_residuals) <= 1e-10


def test_pdet_in_range_when_the_product_overflows_part_way():
    # 100 orthogonal directions, 50 with sigma^2 = 1e7 and 50 with 1e-6:
    # pdet(W) = 1e50, but the descending product passes 1e350 on the way,
    # and pdet_estimate and normalized_det_values[-1] read inf
    q = np.linalg.qr(np.random.default_rng(100).standard_normal((100, 100)))[0]
    b = q * np.sqrt([1e7] * 50 + [1e-6] * 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        growth = growth_from_directions(list(b.T), 100)
        rep = perturbed_gramian_experiment(build_gramian(np.zeros((100, 100)), b, 1),
                                           0.0, 2, 0)
    assert growth.rank_r == 100
    assert growth.log_pdet == pytest.approx(50 * math.log(10.0), rel=1e-10)
    assert growth.pdet_estimate == pytest.approx(math.exp(growth.log_pdet), rel=1e-14)
    # at eps_min = 1e-8 sigma^2_min both sweeps are (1 + 1e-8)^50 pdet
    for value in (growth.normalized_det_values[-1], growth.factor_product_values[-1]):
        assert value == pytest.approx(1.0000005e50, rel=1e-8)
    assert rep.nominal_pdet == growth.pdet_estimate
    assert [t.pdet for t in rep.per_trial] == [growth.pdet_estimate] * 2


def test_residuals_beyond_float_range_are_read_from_logs():
    # 64 Gaussian directions in R^64 at scale 1e3: both sweeps leave float
    # range at the small eps, where |norm - fac| / norm read inf / inf
    b = 1e3 * np.random.default_rng(0).standard_normal((64, 64))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        growth = growth_from_directions(list(b.T), 64)
    assert growth.normalized_det_values[-1] == growth.factor_product_values[-1] == math.inf
    assert max(growth.identity_residuals) <= 1e-10


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

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_rejects_non_finite_noise(self, noise):
        g = build_gramian(A_DEMO, B_DEMO, 2)
        with pytest.raises(ValueError, match="noise_scale must be finite"):
            perturbed_gramian_experiment(g, noise, trials=2, seed=0)


def displaced_directions(g, noise_scale: float, seed: int, t: int) -> list:
    """Trial t's directions, drawn as perturbed_gramian_experiment draws them."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
    n = len(g.directions[0])
    z = rng.standard_normal((len(g.directions), n))
    frac = rng.random(len(g.directions)) ** (1.0 / n)
    norms = [math.sqrt(float(u @ u)) for u in g.directions]
    family = max(norms)
    return [u + noise_scale * (nrm if nrm > 0.0 else family) * f / math.sqrt(float(w @ w)) * w
            for u, nrm, f, w in zip(g.directions, norms, frac, z)]


# (n, inputs, horizon, noise): L = inputs * horizon runs past n in most, so
# the square roots of the Gram blocks are carried across several QR blocks
TRIAL_CASES = [(2, 1, 1, 0.1), (2, 2, 3, 0.05), (3, 1, 8, 0.2), (4, 2, 5, 0.1),
               (5, 1, 6, 1e-9), (5, 2, 2, 0.1), (6, 1, 8, 0.1), (6, 2, 8, 0.02)]


@pytest.mark.parametrize("n, inputs, horizon, noise", TRIAL_CASES)
def test_trials_equal_single_growths(n, inputs, horizon, noise):
    # the stacked pass gives every trial what one growth of its own
    # displaced directions gives on the nominal schedule; the last input
    # column is zero, so every zero direction moves in the family ball,
    # and a tiny noise leaves those ranks near the cutoff
    a, b = stable_system(100 + n, n)
    b = np.hstack([b, np.zeros((n, inputs - 1))])
    g = build_gramian(a, b, horizon)
    seed = 17 + n
    rep = perturbed_gramian_experiment(g, noise, trials=5, seed=seed, tol=TOL9)
    nominal = growth_from_directions(g.directions, n, tol=TOL9, raise_on_diverge=False)
    assert rep.eps_reference == nominal.eps_schedule[-1]
    for t, tr in enumerate(rep.per_trial):
        one = growth_from_directions(displaced_directions(g, noise, seed, t), n,
                                     nominal.eps_schedule, TOL9, raise_on_diverge=False)
        assert tr.rank == one.rank_r
        assert abs(tr.pdet - one.pdet_estimate) <= 1e-14 * abs(one.pdet_estimate)
        want = np.array(one.factors_per_eps[-1])
        assert np.max(np.abs(np.array(tr.factors) - want) / want) <= 1e-14


def test_trials_keep_their_own_cutoff():
    # sigma_2^2 = 2e-9 sits at the nominal cutoff 1e-9 * n * max|W|; the
    # noise moves both sides of that test, so the trials split in rank, and
    # each must be judged on its own W
    g = build_gramian(np.zeros((2, 2)), np.diag([1.0, math.sqrt(2e-9)]), 1)
    rep = perturbed_gramian_experiment(g, 0.5, trials=40, seed=2, tol=TOL9)
    schedule = growth_from_directions(g.directions, 2, tol=TOL9,
                                      raise_on_diverge=False).eps_schedule
    ones = [growth_from_directions(displaced_directions(g, 0.5, 2, t), 2, schedule,
                                   TOL9, raise_on_diverge=False) for t in range(40)]
    assert [tr.rank for tr in rep.per_trial] == [one.rank_r for one in ones]
    assert {one.rank_r for one in ones} == {1, 2}
    for tr, one in zip(rep.per_trial, ones):
        assert abs(tr.pdet - one.pdet_estimate) <= 1e-14 * one.pdet_estimate


def test_experiment_factorizations_do_not_grow_with_trials(monkeypatch):
    calls = count_lapack(monkeypatch)
    a, b = stable_system(7, 4)
    g = build_gramian(a, np.hstack([b, b[::-1]]), 5)  # L = 10: blocks of 4, 4, 2
    perturbed_gramian_experiment(g, 0.1, trials=1, seed=1, tol=TOL9)
    one = tally(calls)
    calls.clear()
    perturbed_gramian_experiment(g, 0.1, trials=16, seed=1, tol=TOL9)
    # one stacked pass, the nominal as its set 0, with one QR of the
    # directions and one between consecutive blocks, one SVD of the
    # directions and one per block
    assert tally(calls) == one == {"qr": 3, "svd": 4, "eigh": 0, "cholesky": 0}


def test_experiment_chunks_match_one_pass(monkeypatch):
    # n = 6, horizon 40: each set holds L k (k + 8) = 3360 floats, so the
    # nominal and 200 trials cross the stack budget; per pass, 7 blocks of
    # 6 steps take 7 QRs and 8 SVDs
    a, b = stable_system(8, 6)
    g = build_gramian(a, b, 40)
    trials = 200
    chunk = control._STACK_FLOATS // (40 * 6 * (6 + 8))
    chunks = -(-(trials + 1) // chunk)
    assert chunks > 1
    calls = count_lapack(monkeypatch)
    chunked = perturbed_gramian_experiment(g, 0.1, trials=trials, seed=5, tol=TOL9)
    assert tally(calls) == {"qr": chunks * 7, "svd": chunks * 8, "eigh": 0, "cholesky": 0}
    monkeypatch.setattr(control, "_STACK_FLOATS", 1 << 40)
    calls.clear()
    whole = perturbed_gramian_experiment(g, 0.1, trials=trials, seed=5, tol=TOL9)
    assert tally(calls) == {"qr": 7, "svd": 8, "eigh": 0, "cholesky": 0}
    assert chunked == whole
