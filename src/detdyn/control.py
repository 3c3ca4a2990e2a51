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
from .errors import DimensionMismatch, NotPositiveDefinite, NotPSD
from .kernel import DEFAULT_TOL, Tolerance


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
    det(P_k) <= det(P) (1+beta)^{-k} (the geometric bound). ``logdets``
    holds log det(P_k) = log det(P) - sum log1p(q_i) at any length;
    ``dets`` is det(P) times the running product of the factors, formed
    from its log wherever that product leaves float range, so it reads
    0.0 or inf only where det(P_k) itself does.
    """

    dets: tuple
    factors: tuple
    quad_forms: tuple
    beta: float | None
    geometric_bound: float | None
    logdets: tuple


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
    eigenvalues of W, the squared singular values of the directions, r
    counting those above the tolerance cutoff of W; log_pdet sums their
    logs. For each eps the per-step factors 1 + u_l^T Wtil_{l-1}(eps)^{-1}
    u_l are recorded together with the relative residual of the product
    identity det(Wtil(eps)) = eps^n prod(factors), divided by eps^(n-r):
    the sweep normalized_det_values holds eps^{-(n-r)} det(eps I + W) as
    prod_{i<r} (sigma_i^2 + eps) prod_{i>=r} (1 + sigma_i^2 / eps), and
    factor_product_values holds exp(sum log(factors) + r log eps).
    Beyond float range the values read +inf; log_pdet, the convergence
    test and identity_residuals = |expm1(log fac - log norm)| use logs.
    """

    eps_schedule: tuple
    factors_per_eps: tuple
    identity_residuals: tuple
    normalized_det_values: tuple
    factor_product_values: tuple
    rank_r: int
    pdet_estimate: float
    log_pdet: float


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
    if not kernel._is_symmetric(p, tol):
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


# A cancelled capacitance pivot ends a block: x_j below this share of |w_j|^2
# has lost more than a digit to the subtraction that forms it.
_CANCEL = 0.1


def _spd_stream(low, cols: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """Quadratic forms x_j = u_j^T P_{j-1}^{-1} u_j of the stream
    P_j = P_{j-1} + u_j u_j^T, P_0 = low low^T, for the columns u_j of cols.
    A caller that has the first block's W = low^{-1} U passes it as ``w``
    and may pass for ``low`` a function that forms the factor, called
    only if a block is refactored.

    The factors det P_j / det P_{j-1} = 1 + x_j of a block of b <= n steps
    are the pivots of its capacitance matrix C = I + G, G = W^T W and
    W = low^{-1} U (the multiplicative form of the matrix determinant
    lemma). One Cholesky C = L L^T gives x_j = |w_j|^2 - sum_{i<j} L_ji^2
    (``kernel._spd_pivots``), which keeps its relative accuracy when
    small. Where G is so large that C formed in floating point is no
    longer positive definite and LAPACK refuses it, one Householder QR of
    [I; W], which never forms C, gives C = R^T R and R_ij in place of
    L_ji. A block ends
    before the first later step whose x_j cancels to below _CANCEL |w_j|^2
    (a negative x_j included); low is then refactored from one QR of the
    stacked [low^T; U^T] of the accepted steps, the backward-stable form
    of the step-by-step Cholesky update.
    """
    n, r = cols.shape
    x = np.empty(r)
    s = 0
    while s < r:
        u = cols[:, s:s + n]
        b = u.shape[1]
        if s or w is None:
            w = np.linalg.solve(low, u)
        g = w.T @ w
        w2 = g.diagonal()
        try:
            xb = kernel._spd_pivots(g)[0]
        except np.linalg.LinAlgError:
            c = np.linalg.qr(np.vstack((np.eye(b), w)), mode="r")
            xb = w2 - np.sum(np.triu(c, 1) ** 2, axis=0)
        cut = np.flatnonzero(xb[1:] < _CANCEL * w2[1:])
        e = 1 + cut[0] if cut.size else b
        x[s:s + e] = xb[:e]
        s += e
        if s < r:
            if callable(low):
                low = low()
            f = np.linalg.qr(np.vstack((low.T, u[:, :e].T)), mode="r")
            low = (f * np.where(np.diag(f) < 0.0, -1.0, 1.0)[:, None]).T
    return x


def _running_sum(start: float, increments) -> list:
    """start and its running sums with ``increments``, compensated
    (Neumaier), so rounding does not build up over long streams."""
    total, comp = start, 0.0
    out = [start]
    for inc in increments:
        t = total + inc
        if abs(total) >= abs(inc):
            comp += (total - t) + inc
        else:
            comp += (inc - t) + total
        total = t
        out.append(total + comp)
    return out


def _columns(vectors, n: int, name: str) -> np.ndarray:
    """The validated vectors as the columns of an n x r matrix. A plain
    real (r, n) stack is checked in one pass; anything else goes vector by
    vector through ``kernel.as_vector``, which raises the exact error."""
    vectors = list(vectors)
    try:
        a = np.asarray(vectors)
    except ValueError:  # ragged
        a = np.empty(0)
    if a.ndim == 2 and a.shape[1] == n and a.dtype.kind in "biuf" and np.isfinite(a).all():
        return a.astype(float).T
    cols = [kernel.as_vector(v, dim=n, name=name) for v in vectors]
    return np.array(cols, dtype=float).reshape(len(cols), n).T


def covariance_trace(p, updates, tol: Tolerance = DEFAULT_TOL) -> CovarianceTrace:
    """Exact additive accounting of log det under rank-one covariance
    growth, with the x/(1+x) <= log(1+x) <= x sandwich bounds.

    The quadratic forms come from _spd_stream, blocks of n updates at a
    time, each one triangular solve and one Cholesky of its capacitance
    matrix, with the Cholesky factor of P refactored backward-stably between
    blocks, so the per-step residual does not grow with the number of
    updates. log det P is read off the factor, and the log dets are a
    compensated running sum (``_running_sum``) of the increments
    log1p(x_i).
    """
    base = kernel.as_matrix(kernel.as_real(p, "P"), square=True, name="P")
    low = _assert_spd(base, tol)
    n = base.shape[0]
    quad_forms = _spd_stream(low, _columns(updates, n, "u_i")).tolist()
    increments = [math.log1p(x) for x in quad_forms]
    logdets = _running_sum(math.fsum(np.log(_pivots(base, low))), increments)
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
    determinant sequence contracts monotonically, and log det(P_k) is the
    compensated running sum of -log1p(q_i). The quadratic forms
    v_i^T P_{i-1} v_i come from _spd_stream on the information matrix
    P^{-1}, one Cholesky of the capacitance matrix per block of n
    measurements, and its Cholesky factor is refactored between blocks.

    With P = L L^T and J the reversal, J L^{-T} J is the lower Cholesky
    factor of J P^{-1} J, so the information matrix is carried in reversed
    coordinates, where each v_i enters as J v_i. The first block's
    W = (J L^{-T} J)^{-1} J V is J L^T V, one product; J L^{-T} J, the
    inverse of the triangular L (never of P), is formed only when a block
    is refactored.
    """
    base = kernel.as_matrix(kernel.as_real(p, "P"), square=True, name="P")
    low = _assert_spd(base, tol)
    n = base.shape[0]
    vs = _columns(measurements, n, "v_i")
    pivots = _pivots(base, low)
    log0 = math.fsum(np.log(pivots))
    quad_forms = _spd_stream(lambda: np.tril(np.linalg.inv(low).T[::-1, ::-1]), vs[::-1],
                             (low.T @ vs[:, :n])[::-1]).tolist()
    factors = [1.0 / (1.0 + q) for q in quad_forms]
    logdets = _running_sum(log0, [-math.log1p(q) for q in quad_forms])
    with np.errstate(over="ignore"):
        dets = np.cumprod([np.prod(pivots), *factors])
    dets = kernel._in_range(dets, 1.0, np.array(logdets)).tolist()
    beta = min(quad_forms) if quad_forms else None
    bound = None
    if beta is not None and beta > 0.0:
        k = len(factors)
        bound = float(kernel._in_range(dets[0] * (1.0 + beta) ** -k, 1.0,
                                       log0 - k * math.log1p(beta)))
    return InfoFilterTrace(
        dets=tuple(dets),
        factors=tuple(factors),
        quad_forms=tuple(quad_forms),
        beta=beta,
        geometric_bound=bound,
        logdets=tuple(logdets),
    )


def build_gramian(a, b, horizon: int) -> GramianBuild:
    """Directions u_(i,j) = A^i b_j for i = 0..N-1 (outer) and input
    columns j (inner); W = X^T X, the sum of their outer products, for X
    the directions as rows. A and B must be real (complex input raises
    ValueError)."""
    aa = kernel.as_matrix(kernel.as_real(a, "A"), square=True, name="A")
    bb = kernel.as_real(b, "B")
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
    x = np.reshape(directions, (-1, n))
    return GramianBuild(a=aa, b=bb, horizon=horizon,
                        directions=tuple(directions), w=x.T @ x)


# ---------------------------------------------------------------------------
# Regularized growth from one Householder QR of the directions.
#
# With X = [u_1 .. u_L] = Q R, Q orthonormal n x k and k = min(n, L), every
# u_l = Q r_l and W_{l-1} = Q G_l Q^T with G_l = sum_{j<l} r_j r_j^T, so
#   u_l^T (eps I + W_{l-1})^{-1} u_l = sum_i (v_i^T r_l)^2 / (lambda_i + eps)
#   det(eps I + W) = eps^{n-k} prod_i (sigma_i(X)^2 + eps)
# for G_l = V diag(lambda) V^T: one decomposition per step serves the whole
# schedule, and the weight on the null space of G_l is the squared distance
# of u_l from the span so far, with no cutoff. Small k x k blocks keep every
# quantity accurate at eps near 1e-8, where a solve on the eps-conditioned
# n x n matrix would lose most of its relative precision.
#
# Every array carries a leading batch axis, so a stack of direction sets of
# one shape (the perturbed trials) makes each factorization one batched
# LAPACK call for all of them: one QR and one SVD of the directions, one
# SVD per block of k steps and one QR between blocks. Each set keeps its
# own cutoff, rank and estimate; a single growth is the batch of one.

# A stacked pass of the perturbed experiment takes as many trials as keep
# its step eigenvectors and eps-weights, L k (k + len(schedule)) floats a
# trial, within this budget (2 MiB): many trials or a long horizon go
# through in chunks, so memory does not grow with the trial count.
_STACK_FLOATS = 1 << 18


def _gram_spectra(cols: np.ndarray):
    """(lambda, V) of every G_l for the rows r_l of each ``cols[b]``, from
    the singular values of a square root [T | r_s .. r_{l-1}], T T^T = G_s.

    An eigensolver on G_l itself would put the eigenvalue of order
    (eps |u|)^2 that an exactly repeated direction leaves anywhere within
    eps |G_l|, far above the smallest eps of a scaled schedule. The steps
    go in blocks of k, one batched SVD each, and one QR carries T to the
    next block, so no square root is wider than 2k at any L.
    """
    batch, steps, k = cols.shape
    size = max(k, 1)
    root = np.zeros((batch, k, 0))
    lam, vecs = [np.zeros((batch, 0, k))], [np.zeros((batch, 0, k, k))]
    for s in range(0, steps, size):
        if s:
            carry = np.concatenate([root.swapaxes(1, 2), cols[:, s - size:s]], axis=1)
            root = np.linalg.qr(carry, mode="r").swapaxes(1, 2)
        block = cols[:, s:s + size]
        m = block.shape[1]
        masked = block.swapaxes(1, 2)[:, None] * np.tri(m, k=-1)[:, None, :]
        stack = np.concatenate(
            [np.broadcast_to(root[:, None], (batch, m) + root.shape[1:]), masked], axis=3)
        u, sv, _ = np.linalg.svd(stack, full_matrices=False)
        lam.append(sv * sv)
        vecs.append(u)
    return np.concatenate(lam, axis=1), np.concatenate(vecs, axis=1)


def _grow(dirs: np.ndarray, schedule, tol: Tolerance):
    """Growth of every direction set ``dirs[b]`` (batch x L x n) on one
    schedule: (schedule, sigma(X)^2, ranks, pdet estimates, factors
    batch x L x eps). A default schedule is scaled by the first set."""
    x = dirs.swapaxes(1, 2)
    cols = np.linalg.qr(x, mode="r").swapaxes(1, 2)
    s2 = np.linalg.svd(x, compute_uv=False) ** 2
    scale = np.max(np.einsum("bli,bli->bi", dirs, dirs), axis=1)  # max|W| = max W_ii, W PSD
    cut = np.maximum(tol.abs, tol.rel * x.shape[1] * scale)
    ranks = np.count_nonzero(s2 > cut[:, None], axis=1)
    r = int(ranks[0])
    schedule = _eps_schedule(schedule, max(float(s2[0, r - 1]), float(cut[0])) if r else 1.0)
    lam, vecs = _gram_spectra(cols)
    weights = np.einsum("blji,blj->bli", vecs, cols) ** 2
    inv = 1.0 / (lam[..., None] + np.array(schedule))
    factors = 1.0 + np.einsum("bli,blie->ble", weights, inv)
    kept = np.where(np.arange(s2.shape[1]) < ranks[:, None], s2, 1.0)
    with np.errstate(over="ignore"):
        pdets = kernel._in_range(np.prod(kept, axis=1), 1.0, np.sum(np.log(kept), axis=1))
    return schedule, s2, ranks, pdets, factors


def growth_from_directions(directions, n: int, schedule=None,
                           tol: Tolerance = DEFAULT_TOL,
                           raise_on_diverge: bool = True) -> GramianGrowth:
    """Regularized pseudodeterminant growth for an arbitrary ordered
    direction list (the Gramian is their outer-product sum).

    The spectrum of W is the squared singular values of the directions;
    r counts those above ``tol.cutoff(W)``. The default schedule is
    default_eps_schedule() scaled by the smallest retained eigenvalue; an
    explicit schedule is taken as absolute eps values. With
    ``raise_on_diverge``, NotConverged is raised unless both sweep routes
    match pdet_estimate to 1e-6 in log form at the smallest eps.
    """
    dirs = _columns(directions, n, "direction").T[None]
    schedule, s2, ranks, pdets, factors = _grow(dirs, schedule, tol)
    s2, factors, r, pdet_est = s2[0], factors[0], int(ranks[0]), float(pdets[0])
    eps = np.array(schedule)
    log_pdet = float(np.sum(np.log(s2[:r])))
    log_norm = (np.sum(np.log(s2[:r, None] + eps), axis=0)
                + np.sum(np.log1p(s2[r:, None] / eps), axis=0))
    log_fac = np.sum(np.log(factors), axis=0) + r * np.log(eps)
    with np.errstate(over="ignore"):
        norm_det = np.prod(s2[:r, None] + eps, axis=0) * np.prod(1.0 + s2[r:, None] / eps, axis=0)
        norm_det = kernel._in_range(norm_det, 1.0, log_norm)
        fac_prod = np.exp(log_fac)
    residuals = np.abs(np.expm1(log_fac - log_norm))
    if raise_on_diverge:
        finals = ((norm_det[-1], 1.0, log_norm[-1]), (fac_prod[-1], 1.0, log_fac[-1]))
        _require_settled((pdet_est, 1.0, log_pdet), finals, tuple(zip(schedule, norm_det.tolist())))
    return GramianGrowth(
        eps_schedule=schedule,
        factors_per_eps=tuple(map(tuple, factors.T.tolist())),
        identity_residuals=tuple(residuals.tolist()),
        normalized_det_values=tuple(norm_det.tolist()),
        factor_product_values=tuple(fac_prod.tolist()),
        rank_r=r,
        pdet_estimate=pdet_est,
        log_pdet=log_pdet,
    )


def gramian_pdet_growth(g: GramianBuild, schedule=None,
                        tol: Tolerance = DEFAULT_TOL) -> GramianGrowth:
    """Regularized growth of the built Gramian; see growth_from_directions."""
    return growth_from_directions(g.directions, g.w.shape[0], schedule, tol)


def reach_ellipse(w, tol: Tolerance = DEFAULT_TOL) -> Ellipse2D:
    """Unit-energy reachable ellipse of a 2x2 symmetric PSD matrix."""
    a = kernel.as_matrix(kernel.as_real(w, "W"), name="W")
    if a.shape != (2, 2):
        raise DimensionMismatch(f"W must be 2x2, got {a.shape}")
    if not kernel._is_symmetric(a, tol):
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


def perturbed_gramian_experiment(g: GramianBuild, noise_scale: float,
                                 trials: int, seed: int, schedule=None,
                                 tol: Tolerance = DEFAULT_TOL) -> PerturbationReport:
    """Re-run the Gramian growth with each direction u_l displaced by a
    uniform ball sample of radius noise_scale * |u_l|, per trial. An
    exactly zero direction is displaced within the family-scale ball
    instead (a purely relative radius would pin it at zero and degenerate
    nominal directions could never explore new span).

    Trial t draws its L Gaussian directions and L radius fractions at
    once from a child seed (seed, t), so runs are reproducible and trials
    are independent. noise_scale = 0 reproduces the nominal
    directions exactly. The nominal directions are set 0 of the stack and
    the trials follow, all grown in one pass, every factorization one
    batched LAPACK call for all of them, each set keeping its own cutoff,
    rank and estimate; a default schedule is scaled by the nominal set, so
    eps_reference names one eps. When the stack would pass _STACK_FLOATS
    floats, consecutive chunks go through in turn on the first chunk's
    schedule, with the same report.
    """
    if noise_scale < 0.0:
        raise ValueError("noise_scale must be >= 0")
    if not math.isfinite(noise_scale):
        raise ValueError(f"noise_scale must be finite, got {noise_scale}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = g.w.shape[0]
    nsteps = len(g.directions)
    nominal_dirs = np.reshape(g.directions, (nsteps, n))
    norms = np.linalg.norm(nominal_dirs, axis=1)
    radii = noise_scale * np.where(norms > 0.0, norms, np.max(norms, initial=0.0))
    width = min(n, nsteps)
    steps = _eps_schedule(schedule, 1.0)
    schedule = None if schedule is None else steps
    per_set = nsteps * width * (width + len(steps))
    chunk = max(1, _STACK_FLOATS // per_set)
    grown = []
    for first in range(0, trials + 1, chunk):
        dirs = np.repeat(nominal_dirs[None], min(chunk, trials + 1 - first), axis=0)
        for s in range(max(first, 1), first + len(dirs)):  # set s is trial s - 1
            rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed),
                                                               spawn_key=(s - 1,)))
            z = rng.standard_normal((nsteps, n))
            frac = rng.random(nsteps) ** (1.0 / n)
            dirs[s - first] += (radii * frac / np.linalg.norm(z, axis=1))[:, None] * z
        schedule, _, ranks, pdets, factors = _grow(dirs, schedule, tol)
        grown += zip(ranks.tolist(), pdets.tolist(), factors[:, :, -1].tolist())
    (nominal_rank, nominal_pdet, nominal_factors), *rest = grown
    ranks, pdets, lasts = zip(*rest)
    return PerturbationReport(
        noise_scale=float(noise_scale),
        trials=int(trials),
        seed=int(seed),
        eps_reference=schedule[-1],
        nominal_rank=nominal_rank,
        nominal_pdet=nominal_pdet,
        nominal_factors=tuple(nominal_factors),
        per_trial=tuple(PerturbationTrial(rank, pdet, tuple(last)) for rank, pdet, last in rest),
        mean_rank=sum(ranks) / trials,
        mean_pdet=sum(pdets) / trials,
        mean_factors=tuple(sum(column) / trials for column in zip(*lasts)),
    )
