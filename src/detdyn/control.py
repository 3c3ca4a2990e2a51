"""Estimation and control applications of the determinant identities:
covariance log-det accumulation with sandwich bounds, information-form
filter contraction, controllability-Gramian pseudodeterminant growth, 2-d
reachable ellipsoids, and a seeded perturbed-direction experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .drazin import _eps_schedule, _require_settled
from .errors import DimensionMismatch, NotConverged, NotPositiveDefinite, NotPSD
from .kernel import DEFAULT_TOL, EPS, Tolerance


@dataclass(frozen=True)
class CovarianceTrace:
    """log det(P_k) evolution under P_k = P_{k-1} + u_k u_k^T.

    increments are log(1 + x_i) with x_i = u_i^T P_{i-1}^{-1} u_i;
    lower_bound = sum x_i/(1+x_i) and upper_bound = sum x_i bracket the
    total log-det change.
    """

    logdets: tuple
    increments: tuple
    quad_forms: tuple
    lower_bound: float
    upper_bound: float


@dataclass(frozen=True)
class InfoFilterTrace:
    """det(P_k) contraction when the inverse covariance accumulates
    measurement outer products v_i v_i^T.

    beta is the realized minimum of v_i^T P_{i-1} v_i; when positive,
    det(P_k) <= det(P) (1+beta)^{-k} (the geometric bound).
    """

    dets: tuple
    factors: tuple
    quad_forms: tuple
    beta: float | None
    geometric_bound: float | None


@dataclass(frozen=True)
class GramianBuild:
    """Finite-horizon controllability Gramian W = sum u_l u_l^T with the
    propagated input directions u_(i,j) = A^i b_j, time index outer."""

    a: np.ndarray
    b: np.ndarray
    horizon: int
    directions: tuple
    w: np.ndarray


@dataclass(frozen=True)
class GramianGrowth:
    """Regularized growth diagnostics.

    pdet_estimate is the closed form: the product of the r largest
    eigenvalues of the Gram block of W on the span of the directions. For
    each eps the per-step factors 1 + u_l^T Wtil_{l-1}(eps)^{-1} u_l are
    recorded together with the relative residual of the product identity
    det(Wtil(eps)) = eps^n prod(factors); normalized_det_values hold the
    limit eps^{-(n-r)} det(eps I + W) and factor_product_values the
    equivalent eps^r prod(factors), the sweep that confirms the estimate.
    """

    eps_schedule: tuple
    factors_per_eps: tuple
    identity_residuals: tuple
    normalized_det_values: tuple
    factor_product_values: tuple
    rank_r: int
    pdet_estimate: float
    log_pdet: float | None


@dataclass(frozen=True)
class Ellipse2D:
    """Unit-energy reachable set of a 2x2 PSD matrix: semi-axes are the
    square roots of the eigenvalues, rotation follows the leading
    eigenvector, area = pi a b. Rank-deficient W degenerates to a
    segment (b = 0)."""

    semi_axis_a: float
    semi_axis_b: float
    rotation_rad: float
    area: float


def _assert_spd(p: np.ndarray, tol: Tolerance, name: str = "P") -> np.ndarray:
    """Cholesky factor of the symmetric part of P; NotPositiveDefinite
    unless P is symmetric at tolerance and positive definite."""
    if float(np.max(np.abs(p - p.T))) > tol.cutoff(p):
        raise NotPositiveDefinite(f"{name} is not symmetric at tolerance")
    try:
        return np.linalg.cholesky(0.5 * (p + p.T))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"{name} is not positive definite") from None


def _pivots(p: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Pivots d_i of P = low low^T, whose product is det P.

    low_ii = sqrt(d_i), but squaring low_ii doubles the rounding of the
    square root, so d_i is recomputed as P_ii - sum_{k<i} low_ik^2; a
    pivot that cancellation leaves nonpositive falls back to low_ii^2.
    """
    off = np.tril(low, -1)
    piv = np.diag(p) - np.sum(off * off, axis=1)
    return np.where(piv > 0.0, piv, np.diag(low) ** 2)


# Diagonal block size of the blocked forward substitution: LAPACK solves
# on b x b blocks keep the triangular solve at O(n^2 + n b^2).
_TRI_BLOCK = 32


def _forward_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x = low^{-1} b for lower-triangular low."""
    x = np.array(b, dtype=float)
    n = x.shape[0]
    for s in range(0, n, _TRI_BLOCK):
        e = min(s + _TRI_BLOCK, n)
        x[s:e] = np.linalg.solve(low[s:e, s:e], x[s:e] - low[s:e, :s] @ x[:s])
    return x


def _cholesky_update(low: np.ndarray, u: np.ndarray) -> float:
    """Overwrite low with the Cholesky factor of low low^T + u u^T and
    return log(1 + u^T (low low^T)^{-1} u) for the factor on entry.

    With p = low^{-1} u and s_k = 1 + p_1^2 + ... + p_k^2, the factor of
    I + p p^T has diagonal sqrt(s_k / s_{k-1}) and entries
    p_i p_k / sqrt(s_{k-1} s_k) below it, and low is multiplied by it
    (Gill, Golub, Murray & Saunders 1974, method C1), in O(n^2). The log
    comes back as the sum of log1p(t_k^2) with t_k^2 = p_k^2 / s_{k-1},
    so small quadratic forms keep their relative accuracy.
    """
    p = _forward_solve(low, u)
    p2 = p * p
    s = np.concatenate(([1.0], 1.0 + np.cumsum(p2)))
    # tail[:, k] = sum_{i > k} low[:, i] p_i; entries above the diagonal stay 0
    lp = low * p
    tail = np.zeros_like(low)
    tail[:, :-1] = np.cumsum(lp[:, :0:-1], axis=1)[:, ::-1]
    low[...] = low * np.sqrt(s[1:] / s[:-1]) + tail * (p / np.sqrt(s[1:] * s[:-1]))
    return float(np.sum(np.log1p(p2 / s[:-1])))


def covariance_trace(p, updates, tol: Tolerance = DEFAULT_TOL) -> CovarianceTrace:
    """Exact additive accounting of log det under rank-one covariance
    growth, with the x/(1+x) <= log(1+x) <= x sandwich bounds.

    The Cholesky factor of P_{i-1} is carried through an O(n^2) rank-one
    update each step; the update is backward stable, so the per-step
    residual does not grow with the number of updates. log det P is read
    off the factor, and the log dets are a compensated (Neumaier) running
    sum of the increments, so rounding does not build up over long streams.
    """
    base = kernel.as_matrix(p, square=True, name="P")
    low = _assert_spd(base, tol)
    n = base.shape[0]
    us = [kernel.as_vector(u, dim=n, name="u_i") for u in updates]
    total = math.fsum(np.log(_pivots(base, low)))
    comp = 0.0
    logdets = [total]
    increments = []
    quad_forms = []
    for u in us:
        inc = _cholesky_update(low, u)
        quad_forms.append(math.expm1(inc))
        increments.append(inc)
        t = total + inc
        if abs(total) >= abs(inc):
            comp += (total - t) + inc
        else:
            comp += (inc - t) + total
        total = t
        logdets.append(total + comp)
    lower = sum(x / (1.0 + x) for x in quad_forms)
    upper = sum(quad_forms)
    return CovarianceTrace(
        logdets=tuple(logdets),
        increments=tuple(increments),
        quad_forms=tuple(quad_forms),
        lower_bound=lower,
        upper_bound=upper,
    )


def info_filter_trace(p, measurements, tol: Tolerance = DEFAULT_TOL) -> InfoFilterTrace:
    """det(P_k) when P_k^{-1} = P^{-1} + sum v_i v_i^T.

    Each factor 1/(1 + v_i^T P_{i-1} v_i) is < 1 for nonzero v_i, so the
    determinant sequence contracts monotonically. The Cholesky factor of
    the information matrix P^{-1} is carried through an O(n^2) rank-one
    update each step, which also yields v_i^T P_{i-1} v_i.

    With P = L L^T and J the reversal, J L^{-T} J is the lower Cholesky
    factor of J P^{-1} J, so the information matrix is carried in reversed
    coordinates, where each v_i enters as J v_i; only the triangular L is
    inverted, never P.
    """
    base = kernel.as_matrix(p, square=True, name="P")
    low = _assert_spd(base, tol)
    n = base.shape[0]
    vs = [kernel.as_vector(v, dim=n, name="v_i")[::-1] for v in measurements]
    d0 = float(np.prod(_pivots(base, low)))
    low = np.tril(_forward_solve(low, np.eye(n)).T[::-1, ::-1])
    dets = [d0]
    factors = []
    quad_forms = []
    for v in vs:
        q = math.expm1(_cholesky_update(low, v))
        quad_forms.append(q)
        f = 1.0 / (1.0 + q)
        factors.append(f)
        dets.append(dets[-1] * f)
    beta = min(quad_forms) if quad_forms else None
    bound = None
    if beta is not None and beta > 0.0:
        bound = d0 * (1.0 + beta) ** (-len(vs))
    return InfoFilterTrace(
        dets=tuple(dets),
        factors=tuple(factors),
        quad_forms=tuple(quad_forms),
        beta=beta,
        geometric_bound=bound,
    )


def build_gramian(a, b, horizon: int) -> GramianBuild:
    """Directions u_(i,j) = A^i b_j for i = 0..N-1 (outer) and input
    columns j (inner); W is their outer-product sum."""
    aa = kernel.as_matrix(a, square=True, name="A")
    bb = np.asarray(b, dtype=float)
    if bb.ndim == 1:
        bb = bb.reshape(-1, 1)
    bb = kernel.as_matrix(bb, name="B")
    n = aa.shape[0]
    if bb.shape[0] != n:
        raise DimensionMismatch(f"B has {bb.shape[0]} rows, A is {n}x{n}")
    if int(horizon) < 1:
        raise DimensionMismatch(f"horizon must be >= 1, got {horizon}")
    horizon = int(horizon)
    directions = []
    power = np.eye(n)
    for _ in range(horizon):
        for j in range(bb.shape[1]):
            directions.append(power @ bb[:, j])
        power = aa @ power
    w = np.zeros((n, n))
    for u in directions:
        w += np.outer(u, u)
    return GramianBuild(a=aa, b=bb, horizon=horizon,
                        directions=tuple(directions), w=w)


# ---------------------------------------------------------------------------
# Regularized growth through an incrementally built orthonormal basis.
#
# Wtil_{l-1}(eps) = eps I + Q M Q^T with Q an orthonormal basis of
# span(u_1..u_{l-1}) and M = Q^T W_{l-1} Q, so
#   u^T Wtil^{-1} u = a^T (eps I_k + M)^{-1} a + |b|^2 / eps
# with a = Q^T u and b the orthogonal residual, and
#   det(Wtil(eps)) = eps^{n-k} det(eps I_k + M).
# One symmetric eigendecomposition M = V diag(lambda) V^T per step serves
# the whole schedule: a^T (eps I + M)^{-1} a = sum_j (v_j^T a)^2 / (lambda_j
# + eps) and det(eps I + M) = prod_j (lambda_j + eps). M is a Gram block,
# so eigenvalues that rounding pushes below zero are taken as zero. Small
# k x k blocks keep every quantity accurate at eps near 1e-8, where a solve
# on the eps-conditioned n x n matrix would lose most of its relative
# precision.

def _basis_walk(directions, n: int):
    """Per step: coordinates (a, beta) of u_l on the basis so far, plus
    the small Gram block M before the step. Returns (records, M_final)."""
    q = np.zeros((n, 0))
    m = np.zeros((0, 0))
    records = []
    for u in directions:
        a = q.T @ u
        b = u - q @ a
        a2 = q.T @ b
        b = b - q @ a2
        a = a + a2
        beta = math.sqrt(float(b @ b))
        records.append((a.copy(), beta, m.copy()))
        unorm = math.sqrt(float(u @ u))
        k = q.shape[1]
        if beta > 32.0 * EPS * unorm and k < n:
            q = np.hstack([q, (b / beta).reshape(-1, 1)])
            grown = np.zeros((k + 1, k + 1))
            grown[:k, :k] = m + np.outer(a, a)
            grown[:k, k] = beta * a
            grown[k, :k] = beta * a
            grown[k, k] = beta * beta
            m = grown
        else:
            m = m + np.outer(a, a)
    return records, m


def _quad_forms(records, eps: np.ndarray) -> np.ndarray:
    """quad[l, e] = u_l^T Wtil_{l-1}(eps_e)^{-1} u_l for every step l."""
    quad = np.empty((len(records), eps.size))
    for step, (a, beta, m) in enumerate(records):
        quad[step] = beta * beta / eps
        if a.size:
            lam, vecs = np.linalg.eigh(m)
            weights = (vecs.T @ a) ** 2
            quad[step] += weights @ (1.0 / (np.maximum(lam, 0.0)[:, None] + eps))
    return quad


def growth_from_directions(directions, n: int, schedule=None,
                           tol: Tolerance = DEFAULT_TOL,
                           raise_on_diverge: bool = True) -> GramianGrowth:
    """Regularized pseudodeterminant growth for an arbitrary ordered
    direction list (the Gramian is their outer-product sum).

    The default schedule is default_eps_schedule() scaled by the smallest
    retained eigenvalue; an explicit schedule is taken as absolute eps
    values. With ``raise_on_diverge``, NotConverged is raised unless both
    sweep routes lie within 1e-6 relative of pdet_estimate at the smallest
    eps. A basis walk that kept fewer than r directions always raises it.
    """
    dirs = [kernel.as_vector(u, dim=n, name="direction") for u in directions]
    w = np.zeros((n, n))
    for u in dirs:
        w += np.outer(u, u)
    r = kernel.rank(w, tol)
    records, m_final = _basis_walk(dirs, n)
    lam_final = np.maximum(np.linalg.eigvalsh(m_final), 0.0)
    k = lam_final.size
    if k < r:
        raise NotConverged(f"the basis walk kept {k} directions, rank is {r}", ())
    retained = lam_final[k - r:]
    schedule = _eps_schedule(
        schedule, max(float(retained[0]), tol.cutoff(w)) if r else 1.0)
    eps = np.array(schedule)
    factors = 1.0 + _quad_forms(records, eps)
    prod = np.prod(factors, axis=0)
    lhs = eps ** (n - k) * np.prod(lam_final[:, None] + eps, axis=0)
    residuals = np.abs(lhs - eps ** n * prod) / np.maximum(np.abs(lhs), 1e-300)
    norm_det = tuple((lhs / eps ** (n - r)).tolist())
    fac_prod = tuple((eps ** r * prod).tolist())
    pdet_est = float(np.prod(retained))
    if raise_on_diverge:
        _require_settled(pdet_est, (norm_det[-1], fac_prod[-1]),
                         tuple(zip(schedule, norm_det)))
    return GramianGrowth(
        eps_schedule=schedule,
        factors_per_eps=tuple(map(tuple, factors.T.tolist())),
        identity_residuals=tuple(residuals.tolist()),
        normalized_det_values=norm_det,
        factor_product_values=fac_prod,
        rank_r=r,
        pdet_estimate=pdet_est,
        log_pdet=math.log(pdet_est) if pdet_est > 0.0 else None,
    )


def gramian_pdet_growth(g: GramianBuild, schedule=None,
                        tol: Tolerance = DEFAULT_TOL) -> GramianGrowth:
    """Regularized growth of the built Gramian; see growth_from_directions."""
    return growth_from_directions(g.directions, g.w.shape[0], schedule, tol)


def reach_ellipse(w, tol: Tolerance = DEFAULT_TOL) -> Ellipse2D:
    """Unit-energy reachable ellipse of a 2x2 symmetric PSD matrix."""
    a = kernel.as_matrix(w, name="W")
    if a.shape != (2, 2):
        raise DimensionMismatch(f"W must be 2x2, got {a.shape}")
    if float(np.max(np.abs(a - a.T))) > tol.cutoff(a):
        raise NotPSD("W is not symmetric at tolerance")
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    cut = tol.cutoff(a)
    if vals[0] < -cut:
        raise NotPSD(f"W has eigenvalue {vals[0]:.3e} below -tolerance")
    lo = max(vals[0], 0.0)
    hi = max(vals[1], 0.0)
    axis_a = math.sqrt(hi)
    axis_b = math.sqrt(lo)
    lead = vecs[:, 1]
    # ellipses are 180-degree symmetric; normalize the angle to [0, pi)
    rot = math.atan2(float(lead[1]), float(lead[0])) % math.pi
    return Ellipse2D(
        semi_axis_a=axis_a,
        semi_axis_b=axis_b,
        rotation_rad=rot,
        area=math.pi * axis_a * axis_b,
    )


@dataclass(frozen=True)
class PerturbationTrial:
    rank: int
    pdet: float
    factors: tuple  # at the smallest scheduled eps


@dataclass(frozen=True)
class PerturbationReport:
    """Nominal vs perturbed-direction growth, seeded and reproducible."""

    noise_scale: float
    trials: int
    seed: int
    eps_reference: float
    nominal_rank: int
    nominal_pdet: float
    nominal_factors: tuple
    per_trial: tuple
    mean_rank: float
    mean_pdet: float
    mean_factors: tuple


def _ball_sample(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    if radius == 0.0:
        rng.standard_normal(n)
        rng.random()
        return np.zeros(n)
    g = rng.standard_normal(n)
    nrm = math.sqrt(float(g @ g))
    while nrm == 0.0:
        g = rng.standard_normal(n)
        nrm = math.sqrt(float(g @ g))
    frac = rng.random() ** (1.0 / n)
    return (radius * frac / nrm) * g


def perturbed_gramian_experiment(g: GramianBuild, noise_scale: float,
                                 trials: int, seed: int, schedule=None,
                                 tol: Tolerance = DEFAULT_TOL) -> PerturbationReport:
    """Re-run the Gramian growth with each direction u_l displaced by a
    uniform ball sample of radius noise_scale * |u_l|, per trial. An
    exactly zero direction is displaced within the family-scale ball
    instead (a purely relative radius would pin it at zero and degenerate
    nominal directions could never explore new span).

    Trial t draws from a child seed (seed, t), so runs are reproducible
    and trials are independent. noise_scale = 0 reproduces the nominal
    directions exactly. The schedule is resolved once by the nominal run
    and every trial uses it, so eps_reference names one eps.
    """
    if noise_scale < 0.0:
        raise ValueError("noise_scale must be >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = g.w.shape[0]
    nominal = growth_from_directions(g.directions, n, schedule, tol,
                                     raise_on_diverge=False)
    schedule = nominal.eps_schedule
    norms = [math.sqrt(float(u @ u)) for u in g.directions]
    family_scale = max(norms, default=0.0)
    per_trial = []
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed),
                                                           spawn_key=(t,)))
        dirs = []
        for u, nrm in zip(g.directions, norms):
            radius = noise_scale * (nrm if nrm > 0.0 else family_scale)
            dirs.append(u + _ball_sample(rng, n, radius))
        grown = growth_from_directions(dirs, n, schedule, tol,
                                       raise_on_diverge=False)
        per_trial.append(PerturbationTrial(
            rank=grown.rank_r,
            pdet=grown.pdet_estimate,
            factors=grown.factors_per_eps[-1],
        ))
    mean_rank = sum(tr.rank for tr in per_trial) / trials
    mean_pdet = sum(tr.pdet for tr in per_trial) / trials
    nsteps = len(g.directions)
    mean_factors = tuple(
        sum(tr.factors[k] for tr in per_trial) / trials for k in range(nsteps)
    )
    return PerturbationReport(
        noise_scale=float(noise_scale),
        trials=int(trials),
        seed=int(seed),
        eps_reference=schedule[-1],
        nominal_rank=nominal.rank_r,
        nominal_pdet=nominal.pdet_estimate,
        nominal_factors=nominal.factors_per_eps[-1],
        per_trial=tuple(per_trial),
        mean_rank=mean_rank,
        mean_pdet=mean_pdet,
        mean_factors=mean_factors,
    )
