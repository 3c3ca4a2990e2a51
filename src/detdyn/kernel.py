"""Dense linear-algebra kernel used by every other module, on numpy's LAPACK.

One quantity decides every singular-at-tolerance and rank question: the
singular values from ``np.linalg.svd(..., compute_uv=False)``, read
against ``Tolerance.cutoff``. When the smallest is not above the cutoff,
``det`` returns exactly 0.0 and ``solve`` and ``inverse`` raise
``Singular``; otherwise their values come from LAPACK's LU (``det``,
``solve``, ``inv``). ``rank`` and ``full_rank_factorization`` count the
same values above the cutoff. The adjugate is det(A) A^{-1} for A
invertible at tolerance and the SVD form of G. W. Stewart ("On the
adjugate matrix", LAA 283, 1998) otherwise, so it stays valid for
singular input at any size. Faddeev-LeVerrier is kept only in
``charpoly``, where its exactness on integer input is the point. Spectra
come from ``eigvalsh`` for symmetric input and ``eigvals`` for the rest.

``as_matrix`` keeps complex input complex, so ``det``, ``solve``,
``inverse`` and ``adjugate`` also serve the resolvent evaluations at
complex lambda; the other operations take real matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonSquare, RootFindDivergence, Singular

EPS = 2.0 ** -52


@dataclass(frozen=True)
class Tolerance:
    """Thresholds for singularity, rank and nullity decisions.

    ``rel`` is a dimensionless multiplier: the effective cutoff for a
    matrix M is ``max(abs, rel * n * max|M_ij|)`` with n the larger
    dimension. The defaults reproduce the classic n*eps*scale test with
    a denormal-proof absolute floor.
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
    """Validate and convert to a 2-d float array (complex input stays
    complex) with finite entries."""
    a = np.asarray(m)
    a = a.astype(complex if np.iscomplexobj(a) else float, copy=False)
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
# Determinant, solve, inverse and adjugate

def _singular_values(a: np.ndarray) -> np.ndarray:
    """Descending singular values, behind every singular-at-tolerance and
    rank decision."""
    return np.linalg.svd(a, compute_uv=False)


def _nonsingular(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    """``a`` itself, or Singular when its smallest singular value is not
    above the cutoff."""
    s, cut = float(_singular_values(a)[-1]), tol.cutoff(a)
    if not s > cut:
        raise Singular(f"smallest singular value {s:.3e} below cutoff {cut:.3e}")
    return a


def det(m, tol: Tolerance = DEFAULT_TOL) -> float:
    """Determinant from LAPACK's LU.

    Reports exactly 0.0 whenever the matrix is singular at tolerance, so
    sign noise never leaks out of a numerically singular matrix.
    """
    a = as_matrix(m, square=True)
    try:
        return np.linalg.det(_nonsingular(a, tol)).item()
    except Singular:
        return a.dtype.type(0).item()


def solve(m, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Solve M x = b (b a vector or matrix of columns)."""
    a = _nonsingular(as_matrix(m, square=True), tol)
    return np.linalg.solve(a, np.asarray(b))


def inverse(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    return np.linalg.inv(_nonsingular(as_matrix(m, square=True), tol))


def adjugate(m) -> np.ndarray:
    """Adjugate; satisfies M adj(M) = adj(M) M = det(M) I for every square
    M, singular ones included.

    M invertible at the default tolerance gives det(M) M^{-1}. Otherwise,
    with M = U S V^H, adj(M) = det(U) det(V^H) V adj(S) U^H where adj(S)
    is diagonal with entries prod_{j != k} s_j. The 1x1 adjugate is [[1]].
    """
    a = as_matrix(m, square=True)
    if a.shape[0] == 1:
        return np.ones_like(a)
    try:
        inv = np.linalg.inv(_nonsingular(a, DEFAULT_TOL))
        return np.linalg.det(a) * inv
    except Singular:
        pass
    u, s, vh = np.linalg.svd(a)
    one = np.ones(1)
    before = np.concatenate((one, np.cumprod(s[:-1])))
    after = np.concatenate((np.cumprod(s[:0:-1])[::-1], one))
    v_adj_s = vh.conj().T * (before * after)
    return np.linalg.det(u) * np.linalg.det(vh) * v_adj_s @ u.conj().T


# ---------------------------------------------------------------------------
# Characteristic polynomial (Faddeev-LeVerrier)

def charpoly(m) -> CharPoly:
    """Monic characteristic polynomial det(lambda*I - M).

    The Faddeev-LeVerrier recursion N_k = A N_{k-1} + c_{k-1} I,
    c_k = -tr(A N_k)/k never divides by a pivot and is exact on small
    integer input; it degrades with n beyond about 16.
    """
    a = as_matrix(m, square=True)
    n = a.shape[0]
    coeffs = [1.0]
    nk = np.zeros_like(a)
    eye = np.eye(n)
    for k in range(1, n + 1):
        nk = a @ nk + coeffs[-1] * eye
        coeffs.append(float(-np.trace(a @ nk) / k))
    return CharPoly(degree=n, coeffs=tuple(coeffs))


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
# Rank and full-rank factorization from the singular values

def _rank(a: np.ndarray, tol: Tolerance) -> int:
    return int(np.count_nonzero(_singular_values(a) > tol.cutoff(a)))


def rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above the cutoff. Accepts rectangular
    input."""
    return _rank(as_matrix(m), tol)


def full_rank_factorization(m, tol: Tolerance = DEFAULT_TOL):
    """M = C F with C = U_r S_r (n x r, full column rank) and F = V_r^T
    (r x n, orthonormal rows), r = rank(M). r = 0 yields empty factors.

    r counts the singular values that ``inverse`` tests, not the full
    SVD's (which can differ in the last bits): r = n means invertible."""
    a = as_matrix(m, square=True)
    r = _rank(a, tol)
    u, s, vh = np.linalg.svd(a)
    return u[:, :r] * s[:r], vh[:r]
