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
    NullityMismatch,
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

    A nonsingular H returns its plain inverse (nu = 0); the zero matrix
    returns H^D = 0 with P0 = I. F C singular at H's cutoff means the zero
    eigenvalue is not semisimple and raises IndexGreaterThanOne.
    """
    a = kernel.as_matrix(h, square=True, name="H")
    n = a.shape[0]
    c, f = kernel.full_rank_factorization(a, tol)
    r = c.shape[1]
    if r == 0:
        return GroupInverseResult(
            h_drazin=np.zeros((n, n)), projector=np.eye(n), rank_q=0, nullity_nu=n
        )
    if r == n:
        hd = kernel.inverse(a, tol)
        return GroupInverseResult(
            h_drazin=hd, projector=np.eye(n) - a @ hd, rank_q=n, nullity_nu=0
        )
    # F C carries the nonzero eigenvalues of H, so its singularity is
    # judged on H's scale: its own cutoff would pass a 1x1 rounding residue
    try:
        g = kernel.inverse(f @ c, Tolerance(rel=tol.rel, abs=tol.cutoff(a)))
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
    )


def spectral_projector(h, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """P0 = I - H H^D, the projector onto the generalized nullspace."""
    return group_inverse(h, tol).projector


def pdet(h, tol: Tolerance = DEFAULT_TOL, method: str = "charpoly") -> PdetResult:
    """Pseudodeterminant: product of all nonzero eigenvalues.

    The primary route reads it off the characteristic polynomial: with nu
    trailing coefficients below tolerance and c_{n-nu} above it, the value
    is (-1)^{n-nu} c_{n-nu}. The cross-check route multiplies the
    eigenvalues whose magnitude clears sqrt(tol.rel) times the spectral
    scale (multiple zero roots of a perturbed polynomial drift like
    noise^(1/nu), hence the square root).
    """
    a = kernel.as_matrix(h, square=True, name="H")
    n = a.shape[0]
    if method == "charpoly":
        coeffs = np.asarray(kernel.charpoly(a).coeffs)
        cut = tol.cutoff(coeffs)
        nu = 0
        while nu < n and abs(coeffs[n - nu]) <= cut:
            nu += 1
        if nu >= n:
            raise AllCoefficientsBelowTolerance(
                "no nonzero eigenvalue detected, pseudodeterminant undefined"
            )
        value = float(coeffs[n - nu])
        if (n - nu) % 2 == 1:
            value = -value
        return PdetResult(value=value, nullity=nu, method="charpoly")
    if method == "eigenproduct":
        eigs = kernel.eigenvalues(a, tol).eigenvalues
        scale = max(abs(z) for z in eigs)
        cut = math.sqrt(tol.rel) * max(1.0, scale)
        kept = [z for z in eigs if abs(z) > cut]
        if not kept:
            raise AllCoefficientsBelowTolerance(
                "no nonzero eigenvalue detected, pseudodeterminant undefined"
            )
        prod = complex(1.0)
        for z in kept:
            prod *= z
        return PdetResult(value=float(prod.real), nullity=n - len(kept),
                          method="eigenproduct")
    raise ValueError(f"unknown pdet method {method!r}")


def _as_factor(m, n: int, name: str) -> np.ndarray:
    """n x r factor; a bare vector is treated as a single column, r = 0
    is allowed (empty update)."""
    a = np.asarray(m, dtype=float)
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


def pdet_lemma(h, u, v, tol: Tolerance = DEFAULT_TOL) -> float:
    """pdet(H + U V^T) = pdet(H) det(I_r + V^T H^D U) for index-1 H with
    U, V compatible with the nullspace (P0 U = 0, V^T P0 = 0)."""
    a = kernel.as_matrix(h, square=True, name="H")
    n = a.shape[0]
    uu = _as_factor(u, n, "U")
    vv = _as_factor(v, n, "V")
    if uu.shape[1] != vv.shape[1]:
        raise DimensionMismatch(
            f"U has {uu.shape[1]} columns, V has {vv.shape[1]}"
        )
    gi = group_inverse(a, tol)
    report = _compatibility(gi, uu, vv, tol)
    if not report.passed:
        raise CompatibilityViolated(report)
    base = pdet(a, tol)
    if base.nullity != gi.nullity_nu:
        raise NullityMismatch(
            f"coefficient nullity {base.nullity} != rank nullity {gi.nullity_nu}"
        )
    r = uu.shape[1]
    if r == 0:
        return base.value
    core = np.eye(r) + vv.T @ gi.h_drazin @ uu
    return base.value * kernel.det(core, tol)


@dataclass(frozen=True)
class RegularizedLimitResult:
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


def regularized_limit(h, u, v, schedule=None,
                      tol: Tolerance = DEFAULT_TOL) -> RegularizedLimitResult:
    """Evaluate eps^{-nu} det(H + eps I + U V^T) along a decreasing
    schedule; the limit equals pdet(H) det(I_r + V^T H^D U).

    Converged means the last two values agree to 1e-6 relative. The
    determinant evaluations use machine tolerance regardless of ``tol``
    (the caller tolerance governs rank and compatibility decisions only;
    a loose cutoff would zero the eps-sized singular values being measured).
    """
    a = kernel.as_matrix(h, square=True, name="H")
    n = a.shape[0]
    uu = _as_factor(u, n, "U")
    vv = _as_factor(v, n, "V")
    if schedule is None:
        schedule = default_eps_schedule()
    schedule = [float(e) for e in schedule]
    if len(schedule) < 3:
        raise ScheduleTooShort(f"need at least 3 epsilons, got {len(schedule)}")
    if any(e <= 0 for e in schedule) or any(
        b >= a_ for a_, b in zip(schedule, schedule[1:])
    ):
        raise ValueError("schedule must be strictly decreasing and positive")
    gi = group_inverse(a, tol)
    report = _compatibility(gi, uu, vv, tol)
    if not report.passed:
        raise CompatibilityViolated(report)
    nu = gi.nullity_nu
    base = pdet(a, tol)
    if base.nullity != nu:
        raise NullityMismatch(
            f"coefficient nullity {base.nullity} != rank nullity {nu}"
        )
    uvt = uu @ vv.T if uu.size else np.zeros((n, n))
    eye = np.eye(n)
    per_eps = []
    for eps in schedule:
        val = kernel.det(a + eps * eye + uvt) / eps ** nu
        per_eps.append((eps, val))
    last, prev = per_eps[-1][1], per_eps[-2][1]
    converged = abs(last - prev) <= 1e-6 * max(abs(last), 1e-300)
    if not converged:
        raise NotConverged(
            f"last two regularized values differ by {abs(last - prev):.3e}",
            per_eps,
        )
    return RegularizedLimitResult(estimate=last, per_eps=tuple(per_eps),
                                  converged=True)
