"""Characteristic polynomials under finite-rank perturbations, the secular
eigenvalue-shift function, and a contour-based stability certificate.

Complex arithmetic is promoted locally: the resolvent determinants, solves
and adjugates at complex lambda go through the same kernel operations as
real input. The public matrix type stays real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import (
    BaseNotHurwitz,
    ContourTooCoarse,
    EigenvalueOnContour,
    ResolventSingular,
    Singular,
)
from .kernel import DEFAULT_TOL, Tolerance
from .updates import UpdateSequence, _check_base

_SAMPLE_CAP = 2 ** 20


@dataclass(frozen=True)
class SecularEvaluation:
    """Value of 1 - v^T (lambda I - A - Delta)^{-1} u at one lambda.

    A root of this function in lambda is an eigenvalue created or moved
    by the update u v^T on top of A + Delta. ``resolvent_cond_flag``
    warns that the resolvent solve was close to singular.
    """

    lam: complex
    value: complex
    resolvent_cond_flag: bool


@dataclass(frozen=True)
class StabilityCertificate:
    """Winding-number certificate for a rank-one perturbation of a
    Hurwitz matrix.

    ``winding`` counts the closed-right-half-plane eigenvalues of
    A + u v^T by the argument principle along the D-contour;
    ``rhp_eigs_oracle`` is the same count straight from the eigensolver.
    """

    base_hurwitz: bool
    winding: int
    contour_radius: float
    samples: int
    rhp_eigs_oracle: int

    @property
    def stable(self) -> bool:
        return self.winding == 0


def charpoly_perturbed_eval(a, seq: UpdateSequence, lam) -> complex:
    """det(lambda I - A - U V^T) by the additive adjugate form:
    det(lambda I - A) - sum_i v_i^T adj(lambda I - A - Delta_{i-1}) u_i."""
    base = _check_base(a, seq)
    n = base.shape[0]
    z = complex(lam)
    eye = np.eye(n, dtype=complex)
    m = z * eye - base
    acc = complex(kernel.det(m))
    delta = np.zeros((n, n), dtype=complex)
    for up in seq.updates:
        adj = kernel.adjugate(z * eye - base - delta)
        acc -= complex(up.v @ adj @ up.u)
        delta = delta + np.outer(up.u, up.v)
    return acc


def secular_value(a, delta_prev: UpdateSequence, u, v, lam,
                  tol: Tolerance = DEFAULT_TOL) -> SecularEvaluation:
    """Evaluate 1 - v^T (lambda I - A - Delta_prev)^{-1} u.

    Raises ResolventSingular when lambda is, numerically, an eigenvalue
    of A + Delta_prev.
    """
    base = _check_base(a, delta_prev)
    n = base.shape[0]
    uu = kernel.as_vector(u, dim=n, name="u")
    vv = kernel.as_vector(v, dim=n, name="v")
    z = complex(lam)
    m = z * np.eye(n, dtype=complex) - base - delta_prev.total()
    try:
        x = kernel.solve(m, uu, tol)
    except Singular:
        raise ResolventSingular(
            f"lambda = {z} is an eigenvalue of the prefix matrix at tolerance"
        ) from None
    scale = float(np.max(np.abs(m)))
    sigma_min = float(kernel._singular_values(m)[-1])
    flag = sigma_min < math.sqrt(tol.rel) * max(1.0, scale)
    return SecularEvaluation(lam=z, value=complex(1.0 - vv @ x),
                             resolvent_cond_flag=flag)


def _d_contour(radius: float, samples: int) -> np.ndarray:
    """Closed positively-oriented boundary of the right-half disc:
    imaginary segment iR -> -iR, then the right semicircle -iR -> R -> iR."""
    n_seg = samples // 2
    n_arc = samples - n_seg
    t = radius - np.arange(n_seg) * (2.0 * radius / n_seg)
    seg = 1j * t
    phi = -0.5 * np.pi + np.arange(n_arc) * (np.pi / n_arc)
    arc = radius * np.exp(1j * phi)
    return np.concatenate([seg, arc])


def stability_preserved(a, u, v, samples: int = 4096,
                        tol: Tolerance = DEFAULT_TOL) -> StabilityCertificate:
    """Decide whether A + u v^T stays Hurwitz, by winding the secular
    function f(lambda) = 1 - v^T (lambda I - A)^{-1} u around zero along
    the D-contour.

    f equals det(lambda I - A - u v^T) / det(lambda I - A), has no poles
    with Re >= 0 (A is Hurwitz), so its winding number counts the
    closed-right-half-plane eigenvalues of the perturbed matrix. It is
    evaluated through that polynomial ratio, which is algebraically
    identical and vectorizes over the whole contour. The sample count
    doubles adaptively while any phase step exceeds pi/2.
    """
    base = kernel.as_matrix(a, square=True, name="A")
    n = base.shape[0]
    uu = kernel.as_vector(u, dim=n, name="u")
    vv = kernel.as_vector(v, dim=n, name="v")
    spec = kernel.eigenvalues(base, tol)
    if any(z.real >= 0.0 for z in spec.eigenvalues):
        raise BaseNotHurwitz("A has an eigenvalue with Re >= 0")
    fro = math.sqrt(float(np.sum(base * base)))
    gain = math.sqrt(float(uu @ uu)) * math.sqrt(float(vv @ vv))
    radius = 2.0 * (fro + gain) + 1.0
    p_base = kernel.charpoly(base).coeffs
    p_pert = kernel.charpoly(base + np.outer(uu, vv)).coeffs
    ns = int(samples)
    if ns < 8:
        ns = 8
    f_floor = max(tol.abs, tol.rel)
    while True:
        pts = _d_contour(radius, ns)
        fvals = kernel._polyval(p_pert, pts) / kernel._polyval(p_base, pts)
        if float(np.min(np.abs(fvals))) <= f_floor:
            raise EigenvalueOnContour(
                "|f| vanished on the contour; an eigenvalue sits on the "
                "stability boundary"
            )
        ratios = np.roll(fvals, -1) / fvals
        steps = np.angle(ratios)
        if float(np.max(np.abs(steps))) <= 0.5 * np.pi:
            winding = int(round(float(np.sum(steps)) / (2.0 * np.pi)))
            break
        if ns >= _SAMPLE_CAP:
            raise ContourTooCoarse(
                f"phase steps above pi/2 at the {_SAMPLE_CAP}-sample cap"
            )
        ns *= 2
    pert_spec = kernel.eigenvalues(base + np.outer(uu, vv), tol)
    rhp = sum(1 for z in pert_spec.eigenvalues if z.real >= 0.0)
    return StabilityCertificate(
        base_hurwitz=True,
        winding=winding,
        contour_radius=radius,
        samples=ns,
        rhp_eigs_oracle=rhp,
    )
