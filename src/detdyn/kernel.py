"""Dense real linear-algebra kernel used by every other module.

Everything is written against plain numpy arrays: LU with partial
pivoting for determinants, solves and inverses; Gaussian elimination with
full pivoting for rank decisions and full-rank factorizations; the
Faddeev-LeVerrier recursion for adjugates and characteristic polynomials
(inversion-free, so it stays valid for singular inputs). Spectra come from
numpy's LAPACK routines: ``eigvalsh`` for symmetric input and ``eigvals``
for the rest, at any size.

The internal ``_*_any`` helpers are dtype-generic and accept complex
arrays; the public operations take real matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonSquare,
    RootFindDivergence,
    Singular,
)

EPS = 2.0 ** -52


@dataclass(frozen=True)
class Tolerance:
    """Thresholds for pivot, rank and nullity decisions.

    ``rel`` is a dimensionless multiplier: the effective cutoff for a
    matrix M is ``max(abs, rel * n * max|M_ij|)`` with n the larger
    dimension. The defaults reproduce the classic n*eps*scale pivot test
    with a denormal-proof absolute floor.
    """

    rel: float = EPS
    abs: float = 1e-300

    def __post_init__(self):
        if not self.rel > 0:
            raise ValueError("Tolerance.rel must be positive")
        if self.abs < 0:
            raise ValueError("Tolerance.abs must be nonnegative")

    def cutoff(self, m) -> float:
        a = np.asarray(m)
        if a.size == 0:
            return self.abs
        scale = float(np.max(np.abs(a)))
        n = max(a.shape) if a.ndim > 0 else 1
        return max(self.abs, self.rel * n * scale)


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class CharPoly:
    """Monic coefficients c_0..c_n of det(lambda*I - M)."""

    degree: int
    coeffs: tuple

    def __call__(self, lam):
        return _polyval(self.coeffs, lam)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset (complex, with multiplicity) plus the route tag."""

    eigenvalues: tuple
    source: str  # "general-geev" or "symmetric-syevd"


def as_matrix(m, *, square: bool = False, name: str = "matrix",
              min_cols: int = 1) -> np.ndarray:
    """Validate and convert to a float 2-d array with finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < min_cols:
        raise DimensionMismatch(f"{name} has empty shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    if square and a.shape[0] != a.shape[1]:
        raise NonSquare(f"{name} must be square, got {a.shape[0]}x{a.shape[1]}")
    return a


def as_vector(v, *, dim: int | None = None, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.ndim == 2 and 1 in a.shape:
        a = a.reshape(-1)
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    if dim is not None and a.shape[0] != dim:
        raise DimensionMismatch(f"{name} has length {a.shape[0]}, expected {dim}")
    return a


# ---------------------------------------------------------------------------
# LU with partial pivoting (dtype-generic)

def _lu(a: np.ndarray):
    """Return (lu, perm, sign, min_pivot) with rows permuted in place.

    ``lu`` stores multipliers below the diagonal and U on and above it;
    ``perm[k]`` is the original row now sitting at position k.
    """
    lu = np.array(a, copy=True)
    n = lu.shape[0]
    perm = np.arange(n)
    sign = 1.0
    min_pivot = math.inf
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            sign = -sign
        pivot = lu[k, k]
        apiv = abs(pivot)
        if apiv < min_pivot:
            min_pivot = apiv
        if apiv != 0.0:
            mult = lu[k + 1:, k] / pivot
            lu[k + 1:, k] = mult
            lu[k + 1:, k + 1:] -= np.outer(mult, lu[k, k + 1:])
    return lu, perm, sign, min_pivot


def _lu_solve(lu: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = lu.shape[0]
    x = np.array(b[perm], dtype=np.result_type(lu.dtype, b.dtype), copy=True)
    for k in range(1, n):
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    return x


def _det_any(a: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    cutoff = tol.cutoff(a)
    lu, _, sign, min_pivot = _lu(a)
    if min_pivot < cutoff:
        return 0.0 if not np.iscomplexobj(a) else complex(0.0)
    prod = sign
    for k in range(lu.shape[0]):
        prod = prod * lu[k, k]
    return prod


def _solve_any(a: np.ndarray, b: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    lu, perm, _, min_pivot = _lu(a)
    if min_pivot < tol.cutoff(a):
        raise Singular(f"pivot {min_pivot:.3e} below cutoff {tol.cutoff(a):.3e}")
    return _lu_solve(lu, perm, b)


def det(m, tol: Tolerance = DEFAULT_TOL) -> float:
    """Determinant by LU with partial pivoting.

    Reports exactly 0.0 whenever a pivot falls below tolerance, so sign
    noise never leaks out of a numerically singular matrix.
    """
    a = as_matrix(m, square=True)
    return float(_det_any(a, tol))


def solve(m, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Solve M x = b (b a vector or matrix of columns)."""
    a = as_matrix(m, square=True)
    rhs = np.asarray(b, dtype=float)
    return _solve_any(a, rhs, tol)


def inverse(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    a = as_matrix(m, square=True)
    return _solve_any(a, np.eye(a.shape[0]), tol)


# ---------------------------------------------------------------------------
# Faddeev-LeVerrier: characteristic polynomial and adjugate without inversion

def _faddeev_leverrier(a: np.ndarray):
    """Return (coeffs c_0..c_n of det(lambda*I - A), adj(A)).

    The recursion N_k = A N_{k-1} + c_{k-1} I, c_k = -tr(A N_k)/k never
    divides by a pivot, so it is defined for singular A. For n = 1 the
    adjugate is the 1x1 identity.
    """
    n = a.shape[0]
    coeffs = np.empty(n + 1, dtype=a.dtype)
    coeffs[0] = 1.0
    nk = np.zeros_like(a)
    eye = np.eye(n, dtype=a.dtype)
    for k in range(1, n + 1):
        nk = a @ nk + coeffs[k - 1] * eye
        coeffs[k] = -np.trace(a @ nk) / k
    adj = nk if (n - 1) % 2 == 0 else -nk
    return coeffs, adj


def charpoly(m) -> CharPoly:
    """Monic characteristic polynomial det(lambda*I - M)."""
    a = as_matrix(m, square=True)
    coeffs, _ = _faddeev_leverrier(a)
    return CharPoly(degree=a.shape[0], coeffs=tuple(float(c) for c in coeffs))


def adjugate(m) -> np.ndarray:
    """Adjugate via Faddeev-LeVerrier; satisfies M adj(M) = det(M) I
    for every square M, singular ones included."""
    a = as_matrix(m, square=True)
    _, adj = _faddeev_leverrier(a)
    return adj


def _adjugate_any(a: np.ndarray) -> np.ndarray:
    _, adj = _faddeev_leverrier(a)
    return adj


def _polyval(coeffs, z):
    acc = coeffs[0] * np.ones_like(z) if np.ndim(z) else coeffs[0]
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


# ---------------------------------------------------------------------------
# Eigenvalues through LAPACK

def _is_symmetric(a: np.ndarray, tol: Tolerance) -> bool:
    if a.shape[0] != a.shape[1]:
        return False
    return float(np.max(np.abs(a - a.T))) <= tol.cutoff(a)


def eigenvalues(m, tol: Tolerance = DEFAULT_TOL) -> Spectrum:
    """Full spectrum with multiplicity.

    Matrices symmetric at tolerance go to LAPACK ``syevd`` (through
    ``np.linalg.eigvalsh`` on the symmetric part); everything else goes to
    ``geev`` (``np.linalg.eigvals``), whose complex eigenvalues of a real
    matrix come in exact conjugate pairs. Sorted by descending real part,
    then descending imaginary part.
    """
    a = as_matrix(m, square=True)
    try:
        if _is_symmetric(a, tol):
            vals = np.linalg.eigvalsh(0.5 * (a + a.T))
            source = "symmetric-syevd"
        else:
            vals = np.linalg.eigvals(a)
            source = "general-geev"
    except np.linalg.LinAlgError as exc:
        raise RootFindDivergence(f"LAPACK eigensolver failed: {exc}") from exc
    eigs = sorted((complex(z) for z in vals), key=lambda z: (-z.real, -z.imag))
    return Spectrum(eigenvalues=tuple(eigs), source=source)


# ---------------------------------------------------------------------------
# Rank and full-rank factorization via complete pivoting

def _full_pivot_lu(a: np.ndarray, cutoff: float):
    """P A Q = L U with complete pivoting.

    Returns (L n x r unit-lower-trapezoidal, U r x m upper-trapezoidal,
    rperm, cperm, r) where rperm[k]/cperm[k] give the original row/column
    now at position k. Pivots are compared against ``cutoff`` computed
    from the original matrix scale.
    """
    work = np.array(a, dtype=float, copy=True)
    nr, nc = work.shape
    rperm = np.arange(nr)
    cperm = np.arange(nc)
    r = 0
    for k in range(min(nr, nc)):
        sub = np.abs(work[k:, k:])
        flat = int(np.argmax(sub))
        pi, pj = divmod(flat, sub.shape[1])
        if sub[pi, pj] <= cutoff:
            break
        pi += k
        pj += k
        if pi != k:
            work[[k, pi]] = work[[pi, k]]
            rperm[[k, pi]] = rperm[[pi, k]]
        if pj != k:
            work[:, [k, pj]] = work[:, [pj, k]]
            cperm[[k, pj]] = cperm[[pj, k]]
        r += 1
        pivot = work[k, k]
        mult = work[k + 1:, k] / pivot
        work[k + 1:, k] = mult
        work[k + 1:, k + 1:] -= np.outer(mult, work[k, k + 1:])
    lower = np.tril(work[:, :r], -1)[:, :r] + np.eye(nr, r)
    upper = np.triu(work[:r, :])
    return lower, upper, rperm, cperm, r


def rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of complete-pivoting pivots above tol relative to the
    matrix scale. Accepts rectangular input."""
    a = as_matrix(m)
    if float(np.max(np.abs(a))) == 0.0:
        return 0
    _, _, _, _, r = _full_pivot_lu(a, tol.cutoff(a))
    return r


def full_rank_factorization(m, tol: Tolerance = DEFAULT_TOL):
    """M = C F with C (n x r) of full column rank and F (r x n) of full
    row rank, r = rank(M). r = 0 yields empty factors."""
    a = as_matrix(m, square=True)
    n = a.shape[0]
    if float(np.max(np.abs(a))) == 0.0:
        return np.zeros((n, 0)), np.zeros((0, n))
    lower, upper, rperm, cperm, r = _full_pivot_lu(a, tol.cutoff(a))
    c = np.zeros((n, r))
    c[rperm, :] = lower
    f = np.zeros((r, n))
    f[:, cperm] = upper
    return c, f
