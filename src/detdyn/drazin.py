"""Group (Drazin) inverse, spectral projector, pseudodeterminant, the
singular rank-r determinant identity, and its regularized epsilon-limit.

Only index-1 matrices (semisimple zero eigenvalue) are handled; nilpotent
structure raises ``IndexGreaterThanOne``. The group inverse is computed
from a full-rank factorization H = C F as H^D = C (F C)^{-2} F, which is
numerically direct and detects the index from the singularity of F C.
"""

from __future__ import annotations

import math
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
    return _group_inverse(kernel.as_matrix(h, square=True, name="H"), tol)[0]


def _group_inverse(a: np.ndarray, tol: Tolerance):
    """group_inverse of a validated H, plus F C: for index 1 its spectrum
    is the nonzero spectrum of H, so det(F C) = pdet(H). A nonsingular H
    factors as H I, so F C = H, and the rank test's singular values are
    the only SVD before LAPACK's LU inverse."""
    n = a.shape[0]
    c, f = kernel.full_rank_factorization(a, tol)
    fc = f @ c
    r = fc.shape[0]
    if r == 0:
        return GroupInverseResult(
            h_drazin=np.zeros((n, n)), projector=np.eye(n), rank_q=0, nullity_nu=n
        ), fc
    if r == n:
        hd = np.linalg.inv(a)
        return GroupInverseResult(
            h_drazin=hd, projector=np.zeros((n, n)), rank_q=n, nullity_nu=0
        ), fc
    # F C carries the nonzero eigenvalues of H, so its singularity is
    # judged on H's scale: its own cutoff would pass a 1x1 rounding residue
    try:
        g = kernel.inverse(fc, Tolerance(rel=tol.rel, abs=tol.cutoff(a)))
    except Singular:
        raise IndexGreaterThanOne(
            "F C singular at tolerance: zero eigenvalue is not semisimple"
        ) from None
    hd = c @ g @ g @ f
    return GroupInverseResult(
        h_drazin=hd,
        projector=np.eye(n) - a @ hd,
        rank_q=r,
        nullity_nu=n - r,
    ), fc


def spectral_projector(h, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """P0 = I - H H^D, the projector onto the generalized nullspace."""
    return group_inverse(h, tol).projector


_UNDEFINED = "no nonzero eigenvalue detected, pseudodeterminant undefined"


def pdet(h, tol: Tolerance = DEFAULT_TOL, method: str = "charpoly") -> PdetResult:
    """Pseudodeterminant: product of all nonzero eigenvalues.

    The primary route reads it off the characteristic polynomial of H/s,
    s = max|H|, so the nullity decision does not depend on the scale of H:
    with nu trailing coefficients below tolerance and c_{n-nu} above it,
    the value is (-1)^{n-nu} s^{n-nu} c_{n-nu}. The cross-check route
    multiplies the eigenvalues whose magnitude clears sqrt(tol.rel) times
    the spectral radius (multiple zero roots of a perturbed polynomial
    drift like noise^(1/nu), hence the square root).
    """
    a = kernel.as_matrix(h, square=True, name="H")
    n = a.shape[0]
    if method == "charpoly":
        s = float(np.max(np.abs(a))) or 1.0
        coeffs = np.asarray(kernel.charpoly(a / s).coeffs)
        cut = tol.cutoff(coeffs)
        nu = 0
        while nu < n and abs(coeffs[n - nu]) <= cut:
            nu += 1
        if nu >= n:
            raise AllCoefficientsBelowTolerance(_UNDEFINED)
        value = float(coeffs[n - nu] * np.float64(s) ** (n - nu))
        if (n - nu) % 2 == 1:
            value = -value
        return PdetResult(value=value, nullity=nu, method="charpoly")
    if method == "eigenproduct":
        eigs = kernel.eigenvalues(a, tol).eigenvalues
        cut = math.sqrt(tol.rel) * max(abs(z) for z in eigs)
        kept = [z for z in eigs if abs(z) > cut]
        if not kept:
            raise AllCoefficientsBelowTolerance(_UNDEFINED)
        return PdetResult(value=float(math.prod(kept).real), nullity=n - len(kept),
                          method="eigenproduct")
    raise ValueError(f"unknown pdet method {method!r}")


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


def _compatibility(gi: GroupInverseResult, u: np.ndarray, v: np.ndarray,
                   tol: Tolerance) -> CompatibilityReport:
    p0 = gi.projector
    norm_p0u = float(np.max(np.abs(p0 @ u))) if u.size else 0.0
    norm_vtp0 = float(np.max(np.abs(v.T @ p0))) if v.size else 0.0
    ok = norm_p0u <= tol.cutoff(u) and norm_vtp0 <= tol.cutoff(v)
    return CompatibilityReport(norm_p0u=norm_p0u, norm_vtp0=norm_vtp0, passed=ok)


def compatibility_check(h, u, v, tol: Tolerance = DEFAULT_TOL) -> CompatibilityReport:
    """Check P0 U = 0 and V^T P0 = 0 at tolerance (the hypotheses under
    which the singular determinant identity applies)."""
    a = kernel.as_matrix(h, square=True, name="H")
    n = a.shape[0]
    uu = _as_factor(u, n, "U")
    vv = _as_factor(v, n, "V")
    gi = group_inverse(a, tol)
    return _compatibility(gi, uu, vv, tol)


def _lemma(h, u, v, tol: Tolerance):
    """The validated prologue of both lemma routes: (H, H + U V^T, nu,
    the closed form pdet(H) det(I_r + V^T H^D U)), with pdet(H) = det(F C)
    from the group inverse's own factorization."""
    a = kernel.as_matrix(h, square=True, name="H")
    n = a.shape[0]
    uu = _as_factor(u, n, "U")
    vv = _as_factor(v, n, "V")
    if uu.shape[1] != vv.shape[1]:
        raise DimensionMismatch(
            f"U has {uu.shape[1]} columns, V has {vv.shape[1]}"
        )
    gi, fc = _group_inverse(a, tol)
    report = _compatibility(gi, uu, vv, tol)
    if not report.passed:
        raise CompatibilityViolated(report)
    if gi.rank_q == 0:
        raise AllCoefficientsBelowTolerance(_UNDEFINED)
    value = float(np.linalg.det(fc))
    r = uu.shape[1]
    if r:
        value *= kernel.det(np.eye(r) + vv.T @ gi.h_drazin @ uu, tol)
    return a, a + uu @ vv.T, gi.nullity_nu, value


def pdet_lemma(h, u, v, tol: Tolerance = DEFAULT_TOL) -> float:
    """pdet(H + U V^T) = pdet(H) det(I_r + V^T H^D U) for index-1 H with
    U, V compatible with the nullspace (P0 U = 0, V^T P0 = 0)."""
    return _lemma(h, u, v, tol)[3]


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
    if any(e <= 0 for e in schedule) or any(
        y >= x for x, y in zip(schedule, schedule[1:])
    ):
        raise ValueError("schedule must be strictly decreasing and positive")
    return schedule


def _require_settled(closed: float, finals, per_eps) -> None:
    """NotConverged, carrying the sweep, unless every smallest-eps value
    in ``finals`` lies within _CONV_REL of the closed form; a NaN or inf
    among them fails, since numpy's max propagates it."""
    gap = float(np.max(np.abs(np.subtract(finals, closed))))
    if not gap <= _CONV_REL * max(abs(closed), 1e-300):
        raise NotConverged(
            f"smallest-eps value is {gap:.3e} from the closed form {closed:.6e}",
            per_eps,
        )


def regularized_limit(h, u, v, schedule=None,
                      tol: Tolerance = DEFAULT_TOL) -> RegularizedLimitResult:
    """The closed form pdet(H) det(I_r + V^T H^D U), confirmed by
    eps^{-nu} det(H + eps I + U V^T) along a decreasing schedule.

    The default schedule is default_eps_schedule() scaled by the smallest
    of the n - nu largest eigenvalue magnitudes of H + U V^T (never below
    H's cutoff); an explicit one is taken as absolute. NotConverged is
    raised unless the smallest-eps value lies within 1e-6 relative of the
    closed form, or as soon as eps ** nu underflows to zero, with the sweep
    up to there. The determinants use machine tolerance regardless of
    ``tol``, which governs rank and compatibility decisions only (a loose
    cutoff would zero the eps-sized singular values being measured).
    """
    a, m, nu, estimate = _lemma(h, u, v, tol)
    mags = np.sort(np.abs(kernel.eigenvalues(m).eigenvalues))
    schedule = _eps_schedule(schedule, max(float(mags[nu]), tol.cutoff(a)))
    eye = np.eye(a.shape[0])
    per_eps = ()
    for eps in schedule:
        if eps ** nu == 0.0:
            raise NotConverged(f"eps ** {nu} underflows at eps = {eps:.3e}", per_eps)
        per_eps += ((eps, kernel.det(m + eps * eye) / eps ** nu),)
    _require_settled(estimate, (per_eps[-1][1],), per_eps)
    return RegularizedLimitResult(estimate=estimate, per_eps=per_eps,
                                  converged=True)
