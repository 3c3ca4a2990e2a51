"""Characteristic polynomials under finite-rank perturbations, the secular
eigenvalue-shift function, and a contour-based stability certificate.

Complex arithmetic is promoted locally: resolvent determinants and solves
at complex lambda go through the kernel, the perturbed characteristic
polynomial through ``det_sequence``'s walk. Update vectors stay real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel, updates
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
    warns that the resolvent solve was close to singular: its smallest
    singular value is below sqrt(tol.rel) times its largest entry, a test
    that does not depend on the scale of A.
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
    det(lambda I - A) - sum_i v_i^T adj(lambda I - A - Delta_{i-1}) u_i,
    which is ``det_sequence`` on lambda I - A with the updates (-u_i, v_i).
    A may be complex; the update vectors are real."""
    base = _check_base(a, seq)
    m = complex(lam) * np.eye(base.shape[0], dtype=complex) - base
    flipped = UpdateSequence(seq.base_dim, tuple((-up.u, up.v) for up in seq.updates))
    return complex(updates.det_sequence(m, flipped).final)


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
        sigma_min = kernel._nonsingular(m, tol)
    except Singular:
        raise ResolventSingular(
            f"lambda = {z} is an eigenvalue of the prefix matrix at tolerance"
        ) from None
    x = np.linalg.solve(m, uu)
    flag = sigma_min < math.sqrt(tol.rel) * float(np.max(np.abs(m)))
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
    identical and vectorizes over the whole contour. Both polynomials are
    those of the matrices divided by s = |A|_F + |u| |v|, which bounds
    every eigenvalue of A + u v^T and leaves f unchanged, so the contour
    has radius 3 in those units (``contour_radius`` 3 s) and the
    coefficients stay within float range at any scale of A. The sample
    count doubles adaptively while any phase step exceeds pi/2.
    """
    base = kernel.as_matrix(kernel.as_real(a, "A"), square=True, name="A")
    n = base.shape[0]
    uu = kernel.as_vector(u, dim=n, name="u")
    vv = kernel.as_vector(v, dim=n, name="v")
    spec = kernel.eigenvalues(base, tol)
    if any(z.real >= 0.0 for z in spec.eigenvalues):
        raise BaseNotHurwitz("A has an eigenvalue with Re >= 0")
    # hypot scales its arguments, so no square leaves float range
    scale = math.hypot(*base.ravel()) + math.hypot(*uu) * math.hypot(*vv)
    pert = base + np.outer(uu, vv)
    p_base = kernel.charpoly(base / scale).coeffs
    p_pert = kernel.charpoly(pert / scale).coeffs
    ns = int(samples)
    if ns < 8:
        ns = 8
    f_floor = max(tol.abs, tol.rel)
    while True:
        pts = _d_contour(3.0, ns)
        fvals = np.polyval(p_pert, pts) / np.polyval(p_base, pts)
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
    pert_spec = kernel.eigenvalues(pert, tol)
    rhp = sum(1 for z in pert_spec.eigenvalues if z.real >= 0.0)
    return StabilityCertificate(
        base_hurwitz=True,
        winding=winding,
        contour_radius=3.0 * scale,
        samples=ns,
        rhp_eigs_oracle=rhp,
    )
