"""Group (Drazin) inverse, spectral projector, pseudodeterminant, the
singular rank-r determinant identity, and its regularized epsilon-limit.

One rule decides rank, index and nullity: Cline's core-nilpotent chain
H = C_1 F_1, F_i C_i = C_{i+1} F_{i+1}, each level a full-rank
factorization at H's cutoff, ends at a nonsingular core F_k C_k. k is the
index, n - size(core) the nullity, and the core's eigenvalues are the
nonzero eigenvalues of H: pdet(H) = det(F_k C_k), for ``pdet`` and the
lemma alike. Only index-1 matrices (semisimple zero eigenvalue) have a
group inverse, H^D = C (F C)^{-2} F; nilpotent structure raises
``IndexGreaterThanOne``. H, U and V are real (complex: ValueError).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import (
    AllCoefficientsBelowTolerance,
    CompatibilityViolated,
    DimensionMismatch,
    IndexGreaterThanOne,
    NotConverged,
    ScheduleTooShort,
    Singular,
)
from .kernel import DEFAULT_TOL, Tolerance


@dataclass(frozen=True)
class GroupInverseResult:
    """H^D with the spectral projector P0 = I - H H^D, the rank q of the
    nonsingular part and the nullity nu = n - q."""

    h_drazin: np.ndarray
    projector: np.ndarray
    rank_q: int
    nullity_nu: int


@dataclass(frozen=True)
class PdetResult:
    """Product of the nonzero eigenvalues plus the detected nullity."""

    value: float
    nullity: int
    method: str  # "charpoly" or "eigenproduct"


@dataclass(frozen=True)
class CompatibilityReport:
    """Norms of P0 U and V^T P0 measured against the scales of U and V."""

    norm_p0u: float
    norm_vtp0: float
    passed: bool


def group_inverse(h, tol: Tolerance = DEFAULT_TOL) -> GroupInverseResult:
    """Group inverse via H = C F, H^D = C (F C)^{-2} F.

    A nonsingular H returns H^D = H^{-1} with P0 = 0 exactly; the zero
    matrix returns H^D = 0 with P0 = I. F C singular at H's cutoff means
    the zero eigenvalue is not semisimple and raises IndexGreaterThanOne.
    """
    a = kernel.as_matrix(kernel.as_real(h, "H"), square=True, name="H")
    return _group_inverse(a, tol)[0]


def _core_chain(a: np.ndarray, tol: Tolerance):
    """Cline's core-nilpotent chain of a validated H: H = C_1 F_1, then
    F_i C_i = C_{i+1} F_{i+1}, until the core F_k C_k is nonsingular.

    Returns the levels ((C_1, F_1), ..., (C_k, F_k)), the core and its
    inverse, which H^D is built from: k is the index of H, n - size(core)
    its algebraic nullity, and the core's spectrum is the nonzero spectrum
    of H. A nonsingular H is its own core (k = 0), tested by the one rank
    test of its factorization; a later core is tested by
    ``kernel.inverse``, whose nonsingular decision may be certified from
    the residual of the inverse it forms. A core it refuses is factored
    at the rank given by the singular values its Singular carries
    (``kernel._factors``), so a level reads one values-only SVD, and a
    singular level one full SVD besides. Every level is judged on H's
    cutoff: a core's own would pass a rounding residue of the nilpotent
    part as a nonzero eigenvalue. Level i, the core after i products
    F C, adds i n eps max|H| to it, the rounding those products add.
    """
    cut, step = tol.cutoff(a), a.shape[0] * kernel.EPS * float(np.max(np.abs(a)))
    levels, core = [], a
    c, f = kernel.full_rank_factorization(a, Tolerance(rel=tol.rel, abs=cut))
    while c.shape[1] < core.shape[0]:
        levels.append((c, f))
        core = f @ c
        if not core.size:
            break
        floor = Tolerance(rel=tol.rel, abs=cut + len(levels) * step)
        try:
            return levels, core, kernel.inverse(core, floor)
        except Singular as refused:
            c, f = kernel._factors(core, refused.singular_values, floor)
    return levels, core, np.linalg.inv(core)


def _group_inverse(a: np.ndarray, tol: Tolerance):
    """group_inverse of a validated H, plus the core F C of its chain,
    whose determinant is pdet(H). A nonsingular H is its own core, and
    the rank test's singular values are the only SVD before LAPACK's LU
    inverse."""
    levels, core, g = _core_chain(a, tol)
    if len(levels) > 1:
        raise IndexGreaterThanOne(
            "F C singular at tolerance: zero eigenvalue is not semisimple"
        )
    n, q = a.shape[0], core.shape[0]
    hd, p0 = g, np.zeros((n, n))
    if levels:
        (c, f), = levels
        hd = c @ g @ g @ f
        p0 = np.eye(n) - a @ hd
    return GroupInverseResult(h_drazin=hd, projector=p0, rank_q=q,
                              nullity_nu=n - q), core


def spectral_projector(h, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """P0 = I - H H^D, the projector onto the generalized nullspace."""
    return group_inverse(h, tol).projector


_UNDEFINED = "no nonzero eigenvalue detected, pseudodeterminant undefined"


def pdet(h, tol: Tolerance = DEFAULT_TOL, method: str = "eigenproduct") -> PdetResult:
    """Pseudodeterminant: product of all nonzero eigenvalues.

    The nullity nu is n minus the size of the core F_k C_k of H's
    core-nilpotent chain, decided by the same rank rule at H's cutoff as
    group_inverse, so it does not depend on the scale of H. The default
    route reads the product of the core's eigenvalues, the nonzero ones
    of H, as det(F_k C_k) (``kernel._det``), as the lemma does.
    method="charpoly" reads the Faddeev-LeVerrier coefficient c_{n-nu}
    of H/s, s = max|H|, as (-1)^{n-nu} s^{n-nu} c_{n-nu}: exact on small
    integer input, but even at the right nu its median relative error on
    orthogonal Q diag(d, 0, 0) Q^T, |d| in [0.5, 2], is about 5e-11 at
    n = 32, 1e-6 at n = 48 and 0.2 at n = 64.
    """
    if method not in ("charpoly", "eigenproduct"):
        raise ValueError(f"unknown pdet method {method!r}")
    a = kernel.as_matrix(kernel.as_real(h, "H"), square=True, name="H")
    core = _core_chain(a, tol)[1]
    q = core.shape[0]
    if q == 0:
        raise AllCoefficientsBelowTolerance(_UNDEFINED)
    if method == "eigenproduct":
        value = kernel._det(core)[0]
    else:
        s = float(np.max(np.abs(a)))
        value = (-1) ** q * float(kernel.charpoly(a / s).coeffs[q] * np.float64(s) ** q)
    return PdetResult(value=value, nullity=a.shape[0] - q, method=method)


def _as_factor(m, n: int, name: str) -> np.ndarray:
    """n x r factor; a bare vector is treated as a single column, r = 0
    is allowed (empty update); complex input raises ValueError."""
    a = kernel.as_real(m, name)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    a = kernel.as_matrix(a, name=name, min_cols=0)
    if a.shape[0] != n:
        raise DimensionMismatch(f"{name} has {a.shape[0]} rows, expected {n}")
    return a


def _compatibility(a: np.ndarray, gi: GroupInverseResult, u: np.ndarray,
                   v: np.ndarray, tol: Tolerance) -> CompatibilityReport:
    """P0 U and V^T P0 against the cutoffs of U and V, scaled by the
    rounding level n max|H| max|H^D| (at least 1) that P0 = I - H H^D
    carries from forming H^D."""
    p0 = gi.projector
    level = max(1.0, a.shape[0] * float(np.max(np.abs(a)))
                * float(np.max(np.abs(gi.h_drazin))))
    norm_p0u = float(np.max(np.abs(p0 @ u))) if u.size else 0.0
    norm_vtp0 = float(np.max(np.abs(v.T @ p0))) if v.size else 0.0
    ok = norm_p0u <= level * tol.cutoff(u) and norm_vtp0 <= level * tol.cutoff(v)
    return CompatibilityReport(norm_p0u=norm_p0u, norm_vtp0=norm_vtp0, passed=ok)


def compatibility_check(h, u, v, tol: Tolerance = DEFAULT_TOL) -> CompatibilityReport:
    """Check P0 U = 0 and V^T P0 = 0 at tolerance (the hypotheses under
    which the singular determinant identity applies)."""
    a = kernel.as_matrix(kernel.as_real(h, "H"), square=True, name="H")
    n = a.shape[0]
    uu = _as_factor(u, n, "U")
    vv = _as_factor(v, n, "V")
    return _compatibility(a, group_inverse(a, tol), uu, vv, tol)


def _lemma(h, u, v, tol: Tolerance):
    """The validated prologue of both lemma routes: (H, H + U V^T, nu,
    (value, sign, log|value|) of the closed form pdet(H) det(I_r + V^T H^D U)),
    with pdet(H) = det(F C) of the group inverse's own core, as in ``pdet``;
    a product that leaves float range is formed from sign and log
    (``kernel._in_range``)."""
    a = kernel.as_matrix(kernel.as_real(h, "H"), square=True, name="H")
    n = a.shape[0]
    uu = _as_factor(u, n, "U")
    vv = _as_factor(v, n, "V")
    if uu.shape[1] != vv.shape[1]:
        raise DimensionMismatch(
            f"U has {uu.shape[1]} columns, V has {vv.shape[1]}"
        )
    gi, core = _group_inverse(a, tol)
    report = _compatibility(a, gi, uu, vv, tol)
    if not report.passed:
        raise CompatibilityViolated(report)
    if gi.rank_q == 0:
        raise AllCoefficientsBelowTolerance(_UNDEFINED)
    value, sign, log = kernel._det(core)
    r = uu.shape[1]
    if r:
        dk = kernel.det(np.eye(r) + vv.T @ gi.h_drazin @ uu, tol)
        value, sign = value * dk, sign * float(np.sign(dk))
        log += np.log(abs(dk)) if dk else -np.inf
        value = float(kernel._in_range(value, sign, log))
    return a, a + uu @ vv.T, gi.nullity_nu, (value, sign, log)


def pdet_lemma(h, u, v, tol: Tolerance = DEFAULT_TOL) -> float:
    """pdet(H + U V^T) = pdet(H) det(I_r + V^T H^D U) for index-1 H with
    U, V compatible with the nullspace (P0 U = 0, V^T P0 = 0)."""
    return _lemma(h, u, v, tol)[3][0]


@dataclass(frozen=True)
class RegularizedLimitResult:
    """estimate is the closed form pdet(H) det(I_r + V^T H^D U); per_eps
    is the eps sweep that confirms it, converged always True (a sweep
    that does not settle raises NotConverged)."""

    estimate: float
    per_eps: tuple  # (eps, eps^{-nu} det(H + eps I + U V^T)) pairs
    converged: bool


def default_eps_schedule(eps_max: float = 1e-1, eps_min: float = 1e-8,
                         ratio: float = 0.1) -> tuple:
    """Geometric schedule, eps_max down to eps_min."""
    if eps_min <= 0.0 or ratio >= 1.0 or eps_max == np.inf:
        raise ValueError("an eps schedule ends only for eps_min > 0, ratio < 1 "
                         f"and a finite eps_max, got {eps_min}, {ratio}, {eps_max}")
    out = []
    e = eps_max
    while e >= eps_min * (1.0 - 1e-12):
        out.append(e)
        e *= ratio
    return tuple(out)


# ---------------------------------------------------------------------------
# The eps-limit engine shared with control's Gramian growth: one schedule
# rule and one convergence rule against a closed form.

_CONV_REL = 1e-6


def _eps_schedule(schedule, smallest: float) -> tuple:
    """A caller's schedule, validated and taken as absolute, or the
    default schedule scaled by ``smallest``, the smallest retained
    eigenvalue magnitude: the first-order error of the sweep is about
    eps / smallest, so the scaled schedule ends near 1e-8 relative at
    any matrix scale."""
    if schedule is None:
        return tuple(smallest * e for e in default_eps_schedule())
    schedule = tuple(float(e) for e in schedule)
    if len(schedule) < 3:
        raise ScheduleTooShort(f"need at least 3 epsilons, got {len(schedule)}")
    if not (np.isfinite(schedule[0]) and schedule[-1] > 0.0
            and all(x > y for x, y in zip(schedule, schedule[1:]))):
        raise ValueError("schedule must be finite, positive and strictly decreasing")
    return schedule


def _require_settled(closed, finals, per_eps) -> None:
    """NotConverged, carrying the sweep, unless every smallest-eps value in
    ``finals`` has the sign of ``closed`` and its log|.| within _CONV_REL;
    all are (value, sign, log|value|), so the test holds beyond float
    range. A zero closed form is met only by zeros, and a NaN fails. The
    reported gap, |s e^(l - m) - s' e^(l' - m)| with m the larger log, is
    relative to the larger magnitude and so finite (2 at most) too."""
    value, sign, log = closed
    _, signs, logs = np.array(finals, dtype=float).T
    if np.all(signs == sign) and (sign == 0.0 or np.max(np.abs(logs - log)) <= _CONV_REL):
        return
    top = np.maximum(logs, log)
    with np.errstate(invalid="ignore"):  # a NaN or +inf log reads as a NaN gap
        gap = float(np.max(np.abs(signs * np.exp(logs - top) - sign * np.exp(log - top))))
    raise NotConverged(f"smallest-eps value is {gap:.3e} from the closed form {value:.6e}, "
                       "relative to the larger", per_eps)


def regularized_limit(h, u, v, schedule=None,
                      tol: Tolerance = DEFAULT_TOL) -> RegularizedLimitResult:
    """The closed form pdet(H) det(I_r + V^T H^D U), confirmed by
    eps^{-nu} det(H + eps I + U V^T) along a decreasing schedule.

    The default schedule is default_eps_schedule() scaled by the smallest
    of the n - nu largest eigenvalue magnitudes of H + U V^T (never below
    H's cutoff); an explicit one is taken as absolute. The sweep is one
    batched LU over the schedule, read as sign exp(log|det| - nu log eps),
    so no power of eps can under- or overflow. NotConverged, with the
    sweep, is raised unless the smallest-eps value lies within 1e-6
    relative of the closed form, in log form. ``tol`` governs rank and
    compatibility.
    """
    a, m, nu, closed = _lemma(h, u, v, tol)
    mags = np.sort(np.abs(kernel.eigenvalues(m).eigenvalues))
    eps = np.array(_eps_schedule(schedule, max(float(mags[nu]), tol.cutoff(a))))
    sign, logdet = np.linalg.slogdet(m + eps[:, None, None] * np.eye(a.shape[0]))
    logs = logdet - nu * np.log(eps)
    per_eps = tuple(zip(eps.tolist(), kernel._from_log(sign, logs).tolist()))
    _require_settled(closed, ((per_eps[-1][1], sign[-1], logs[-1]),), per_eps)
    return RegularizedLimitResult(estimate=closed[0], per_eps=per_eps, converged=True)
