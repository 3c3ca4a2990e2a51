"""Dense linear-algebra kernel used by every other module, on numpy's LAPACK.

One quantity decides every singular-at-tolerance and rank question: the
singular values from ``np.linalg.svd(..., compute_uv=False)``, read
against ``Tolerance.cutoff``. When the smallest is not above the cutoff,
``det`` returns exactly 0.0 and ``solve`` and ``inverse`` raise
``Singular``; otherwise their values come from LAPACK's LU (``solve``,
``inv``, and the ``slogdet`` of ``_det``, the one determinant reader).
``rank`` and ``full_rank_factorization`` count the same values above the
cutoff. A path that forms the inverse anyway (``inverse``, the det(A)
A^{-1} branch of ``adjugate``, the base of an update stream) first reads
the decision off the inverse's residual: a bound on sigma_min that
clears the cutoff with room for the SVD's own error proves what the SVD
would decide, and only an inconclusive bound runs the SVD. The decision,
and so ``det``'s exact 0.0, is the same either way, and a refusal hands
back the inverse and the singular values it formed (``Singular``): the
update walk borders a singular matrix from them, and the core-nilpotent
chain factors a refused core at the rank they give through ``_factors``,
the one reader of C and F, which ``full_rank_factorization`` also calls
on its own values. The adjugate is det(A) A^{-1} for A invertible at
tolerance and the SVD form of G. W. Stewart ("On the adjugate matrix",
LAA 283, 1998) otherwise, so it stays valid for singular input at any
size. Faddeev-LeVerrier is kept only in ``charpoly``, where its
exactness on integer input is the point. Spectra come from ``eigvalsh``
for symmetric input and ``eigvals`` for the rest. The pivots of a
symmetric positive definite capacitance matrix I + G, which the update
walk and the covariance streams read their factors from, come from one
Cholesky (``_spd_pivots``).

``as_matrix`` keeps complex input complex, so ``det``, ``solve``,
``inverse``, ``adjugate``, ``rank`` and ``full_rank_factorization`` also
serve the resolvents at complex lambda. ``as_real`` (behind ``as_vector``,
``charpoly``, ``eigenvalues`` and every real-only entry of the other
modules) refuses complex input with ValueError.
"""

from __future__ import annotations

import math
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
    a denormal-proof absolute floor. Both must be finite: an infinite or
    NaN threshold would call every matrix singular.
    """

    rel: float = EPS
    abs: float = 1e-300

    def __post_init__(self):
        if not 0 < self.rel < np.inf:
            raise ValueError("Tolerance.rel must be positive and finite")
        if not 0 <= self.abs < np.inf:
            raise ValueError("Tolerance.abs must be nonnegative and finite")

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
        return np.polyval(self.coeffs, lam)


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


def as_real(v, name: str) -> np.ndarray:
    """``v`` as a float array; complex input raises ValueError rather than
    losing its imaginary part."""
    a = np.asarray(v)
    if np.iscomplexobj(a):
        raise ValueError(f"{name} is complex; it must be real")
    return a.astype(float, copy=False)


def as_vector(v, *, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and convert to a 1-d float array with finite entries;
    complex input raises ValueError (``as_real``)."""
    a = as_real(v, name)
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


def _nonsingular(a: np.ndarray, tol: Tolerance, inverse=None) -> float:
    """The smallest singular value of ``a``, or Singular when it is not
    above the cutoff, carrying the singular values and ``inverse``."""
    values, cut = _singular_values(a), tol.cutoff(a)
    s = float(values[-1])
    if not s > cut:
        raise Singular(f"smallest singular value {s:.3e} below cutoff {cut:.3e}",
                       inverse=inverse, singular_values=values)
    return s


def _certified(a: np.ndarray, x: np.ndarray, tol: Tolerance) -> bool:
    """True when the residual of X, a computed inverse of ``a``, proves
    that the smallest singular value clears the cutoff by more than the
    SVD's own error, so ``_nonsingular`` would pass ``a``.

    With R = A X - I, sigma_min(A) >= (1 - |R|_2) / |X|_2 (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 14),
    with Frobenius norms in place of 2-norms. The computed R is off by at
    most gamma_{n+1} (|A| |X| + I) entrywise (ch. 3), so its rounding is
    charged as gamma_{n+1} (|A|_F |X|_F + sqrt(n)); a complex product
    errs by up to sqrt(2) gamma_2 (sec. 3.6), which makes that
    sqrt(2) gamma_{n+2}. The bound must exceed 2 cutoff + 8 n u |A|_F: the
    cutoff's second share and the last term leave room for the SVD's
    backward error and for the rounding of the bound itself. A NaN or
    inf anywhere fails the comparison, and since |A|_F |X|_F >= |A X|_F,
    a norm whose squares underflow comes with one whose squares overflow.
    """
    n, u = a.shape[0], EPS / 2
    k, c = (n + 2, math.sqrt(2.0)) if np.iscomplexobj(a) else (n + 1, 1.0)
    gamma = c * k * u / (1.0 - k * u)
    r = a @ x
    r.flat[::n + 1] -= 1.0
    na, nx = np.linalg.norm(a), np.linalg.norm(x)
    rho = np.linalg.norm(r) + gamma * (na * nx + math.sqrt(n))
    return bool((1.0 - rho) / nx > 2.0 * tol.cutoff(a) + 8.0 * n * u * na)


def _inverse(a: np.ndarray, tol: Tolerance, svd: bool = True) -> np.ndarray:
    """LAPACK's inverse of a validated square ``a``, or Singular when its
    smallest singular value is not above the cutoff: ``_certified`` on
    the inverse decides where it can, ``_nonsingular`` where it cannot,
    and the inverse already formed is returned either way. A refusal
    hands back that inverse (None where LAPACK refused the LU) and the
    singular values, so a caller that goes on from a singular matrix
    factorizes nothing twice. With ``svd`` False an inverse its residual
    does not certify is refused as it stands, with no SVD."""
    with np.errstate(all="ignore"):
        try:
            x = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            x = None
        else:
            if _certified(a, x, tol):
                return x
    if not svd:
        raise Singular("the inverse's residual does not certify it", inverse=x)
    _nonsingular(a, tol, x)
    # an LU that refused a matrix the SVD passes refuses it again here
    return np.linalg.inv(a) if x is None else x


def _from_log(x, log):
    """x exp(log), the one rule by which a value that may leave float range
    becomes a float: each real or imaginary part p is sign(p) exp(log +
    log|p|), +-inf beyond the range and 0.0 below it, silently, and an
    exact zero stays zero. A scalar x is a sign, of modulus 1 or 0; while
    exp(log) is finite it gives x exp(log) with the C library's exp, bit
    for bit how numpy forms ``np.linalg.det``."""
    if np.ndim(x) == 0:
        try:
            return x * math.exp(log)
        except OverflowError:
            pass

    def part(p):
        with np.errstate(over="ignore", divide="ignore"):  # log 0 = -inf
            return np.sign(p) * np.exp(log + np.log(np.abs(p)))

    if not np.iscomplexobj(x):
        return part(x)
    value = np.empty(np.shape(x), complex)
    value.real, value.imag = part(np.real(x)), part(np.imag(x))
    return value


def _in_range(value, sign, log):
    """``value``, a product formed in floating point factor by factor,
    checked against its sign and log: kept where it is finite and nonzero,
    or zero with a zero ``sign``, so every in-range bit stays; elsewhere
    (inf, NaN, or a zero where the sign is not) the product left float
    range, part-way or for good, and is formed again as
    ``_from_log(sign, log)``. ``sign`` is what ``_from_log`` takes. A
    scalar value gives a scalar; an array is patched in place."""
    out = ~np.isfinite(value) | ((value == 0) & (sign != 0))
    if not out.any():
        return value
    if np.ndim(out) == 0:
        return _from_log(sign, log)
    value[out] = _from_log(np.broadcast_to(sign, out.shape)[out],
                           np.broadcast_to(log, out.shape)[out])
    return value


def _det(a: np.ndarray):
    """(det, sign, log|det|) of a validated square ``a`` from one LU, with
    det = ``_from_log``(sign, log|det|)."""
    sign, logdet = np.linalg.slogdet(a)
    return _from_log(sign, logdet).item(), sign.item(), float(logdet)


def _spd_pivots(g: np.ndarray):
    """(s, terms) for a real symmetric ``g`` with C = I + G positive
    definite, from one Cholesky factorization C = L L^T: 1 + s_j is C's
    j-th pivot L_jj^2, the j-th pivot of its unpivoted LU, read as
    s_j = G_jj - terms_j with terms_j = sum_{i<j} L_ji^2, so a small s_j
    keeps its digits where L_jj^2 - 1 would not. Only the lower triangle
    of G is read; its backward error on C is that of the LU to first
    order (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., ch. 10). LinAlgError where LAPACK refuses C as not positive
    definite."""
    low = np.linalg.cholesky(g + np.eye(g.shape[0]))
    np.fill_diagonal(low, 0.0)
    terms = np.einsum("ij,ij->i", low, low)
    return g.diagonal() - terms, terms


def det(m, tol: Tolerance = DEFAULT_TOL) -> float:
    """Determinant from LAPACK's LU.

    Reports exactly 0.0 whenever the matrix is singular at tolerance, so
    sign noise never leaks out of a numerically singular matrix. A
    determinant beyond float range is +-inf, silently.
    """
    a = as_matrix(m, square=True)
    try:
        _nonsingular(a, tol)
    except Singular:
        return a.dtype.type(0).item()
    return _det(a)[0]


def solve(m, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Solve M x = b (b a vector or matrix of columns)."""
    a = as_matrix(m, square=True)
    _nonsingular(a, tol)
    return np.linalg.solve(a, np.asarray(b))


def inverse(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """LAPACK's inverse, or Singular when the smallest singular value is
    not above the cutoff. The decision may be certified from the
    inverse's own residual instead of an SVD (``_certified``); it is the
    same decision."""
    return _inverse(as_matrix(m, square=True), tol)


def adjugate(m) -> np.ndarray:
    """Adjugate; satisfies M adj(M) = adj(M) M = det(M) I for every square
    M, singular ones included.

    M invertible at the default tolerance gives det(M) M^{-1}, with the
    decision certified from that inverse's residual where it can be
    (``_inverse``), and an entry the product leaves out of float range
    formed again from its sign and log (``_in_range``). Otherwise, with
    M = U S V^H, adj(M) = det(U) det(V^H) V adj(S) U^H where adj(S) is
    diagonal with entries prod_{j != k} s_j, from prefix and suffix sums
    of log s_j under one common scale: no division, so zeros in s are
    fine, and every entry comes from its sign and log (``_from_log``).
    The 1x1 adjugate is [[1]].
    """
    a = as_matrix(m, square=True)
    if a.shape[0] == 1:
        return np.ones_like(a)
    try:
        x = _inverse(a, DEFAULT_TOL)
    except Singular:
        u, s, vh = np.linalg.svd(a)
        logs = np.log(s, out=np.full(s.shape, -np.inf), where=s > 0.0)
        logs = (np.concatenate(([0.0], np.cumsum(logs[:-1])))
                + np.concatenate((np.cumsum(logs[:0:-1])[::-1], [0.0])))
        log = logs[-1] if logs[-1] > -np.inf else 0.0  # the largest, or all are zero
        x = np.linalg.det(u) * np.linalg.det(vh) * (vh.conj().T * np.exp(logs - log)) @ u.conj().T
        return _from_log(x, log)
    d, sign, log = _det(a)
    with np.errstate(over="ignore", invalid="ignore"):
        adj = d * x
    return _in_range(adj, sign * x, log)


# ---------------------------------------------------------------------------
# Characteristic polynomial (Faddeev-LeVerrier)

def charpoly(m) -> CharPoly:
    """Monic characteristic polynomial det(lambda*I - M) of a real M.

    The Faddeev-LeVerrier recursion N_k = A N_{k-1} + c_{k-1} I,
    c_k = -tr(A N_k)/k never divides by a pivot and is exact on small
    integer input; it degrades with n beyond about 16.
    """
    a = as_matrix(as_real(m, "matrix"), square=True)
    n = a.shape[0]
    coeffs = [1.0]
    ank = np.zeros_like(a)
    eye = np.eye(n)
    for k in range(1, n + 1):
        ank = a @ (ank + coeffs[-1] * eye)
        coeffs.append(float(-np.trace(ank) / k))
    return CharPoly(degree=n, coeffs=tuple(coeffs))


# ---------------------------------------------------------------------------
# Eigenvalues through LAPACK

def _is_symmetric(a: np.ndarray, tol: Tolerance) -> bool:
    return float(np.max(np.abs(a - a.T))) <= tol.cutoff(a)


def eigenvalues(m, tol: Tolerance = DEFAULT_TOL) -> Spectrum:
    """Full spectrum with multiplicity of a real matrix.

    Matrices symmetric at tolerance go to LAPACK ``syevd`` (through
    ``np.linalg.eigvalsh`` on the symmetric part); everything else goes to
    ``geev`` (``np.linalg.eigvals``), whose complex eigenvalues of a real
    matrix come in exact conjugate pairs. Sorted by descending real part,
    then descending imaginary part.
    """
    a = as_matrix(as_real(m, "matrix"), square=True)
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

def rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above the cutoff. Accepts rectangular
    input."""
    a = as_matrix(m)
    return int(np.count_nonzero(_singular_values(a) > tol.cutoff(a)))


def full_rank_factorization(m, tol: Tolerance = DEFAULT_TOL):
    """M = C F with C = U_r S_r (n x r, full column rank) and F = V_r^T
    (r x n, orthonormal rows), r = rank(M). r = 0 yields empty factors;
    r = n yields C = M (a copy) and F = I, with no SVD beyond the rank
    test.

    r counts the singular values that ``inverse`` tests, not the full
    SVD's (which can differ in the last bits): r = n means invertible.
    The factors are read by ``_factors``, which also serves a matrix that
    ``inverse`` refused, from the singular values its Singular carries."""
    a = as_matrix(m, square=True)
    return _factors(a, _singular_values(a), tol)


def _factors(a: np.ndarray, s: np.ndarray, tol: Tolerance):
    """C and F of a validated square ``a`` at the rank r that its
    values-only singular values ``s`` give at ``tol``'s cutoff: a copy of
    ``a`` and I for r = n, else the leading r columns of U S and rows of
    V^T from one full SVD, whose own values do not decide r."""
    r = int(np.count_nonzero(s > tol.cutoff(a)))
    if r == a.shape[0]:
        return a.copy(), np.eye(r)
    u, s, vh = np.linalg.svd(a)
    return u[:, :r] * s[:r], vh[:r]
