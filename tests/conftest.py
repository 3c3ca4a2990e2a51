"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the package's own code paths: cofactor
expansion for determinants and adjugates, 30-digit mpmath determinants,
numpy's eigensolver for spectra. Instance generators are deterministic
given their rng.
"""

from __future__ import annotations

import sys

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "detdyn", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("detdyn")


# ---------------------------------------------------------------------------
# Independent oracles

def cofactor_det(a: np.ndarray) -> float:
    """Laplace expansion along the first row; n <= 6 only."""
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
    return total


def cofactor_adjugate(a: np.ndarray) -> np.ndarray:
    """Explicit cofactor matrix, transposed."""
    n = a.shape[0]
    if n == 1:
        return np.array([[1.0]])
    cof = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            cof[i, j] = (-1.0) ** (i + j) * cofactor_det(minor)
    return cof.T


def mp_det(a: np.ndarray):
    """det(a) at 30 digits with mpmath; complex input gives a complex
    result, real input a float."""
    with mpmath.workdps(30):
        d = mpmath.det(mpmath.matrix(a.tolist()))
    return complex(d) if np.iscomplexobj(a) else float(d)


def np_eigvals(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvals(a)


def np_pdet(a: np.ndarray, cut: float = 1e-6) -> float:
    """Product of eigenvalues with magnitude above cut (numpy oracle)."""
    eigs = np.linalg.eigvals(a)
    kept = eigs[np.abs(eigs) > cut]
    return float(np.prod(kept).real) if kept.size else 1.0


def rhp_count(a: np.ndarray) -> int:
    return int(np.sum(np.linalg.eigvals(a).real >= 0.0))


def count_calls(monkeypatch, name: str) -> list:
    """Record the arguments of every call to ``detdyn.kernel.<name>`` made
    through the module attribute, for the rest of the test."""
    from detdyn import kernel

    calls = []
    orig = getattr(kernel, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(kernel, name, counted)
    return calls


def count_linalg(monkeypatch, modules, names) -> list:
    """(module, name) of every call to the numpy functions ``names`` made
    directly from one of the package ``modules``, in order, for the rest
    of the test. A name is a path under numpy ("linalg.svd", "outer") and
    is recorded by its last part."""
    calls = []
    for path in names:
        *parents, name = path.split(".")
        owner = np
        for part in parents:
            owner = getattr(owner, part)
        orig = getattr(owner, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            if caller in modules:
                calls.append((caller, _name))
            return _orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


# ---------------------------------------------------------------------------
# Instance generators

def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_index1(rng: np.random.Generator, n: int, q: int,
                  cond_max: float = 100.0):
    """Float construction S blkdiag(J, 0) S^{-1} with ind = 1.

    cond(S) <= cond_max; J has eigenvalue magnitudes in [0.5, 2.5].
    Returns (H, S, S_inv, J).
    """
    smax = np.sqrt(cond_max)
    sing = np.exp(rng.uniform(np.log(1.0 / smax), np.log(smax), size=n))
    s = random_orthogonal(rng, n) @ np.diag(sing) @ random_orthogonal(rng, n)
    s_inv = np.linalg.inv(s)
    mags = rng.uniform(0.5, 2.5, size=q)
    signs = rng.choice([-1.0, 1.0], size=q)
    j = random_orthogonal(rng, q) @ np.diag(mags * signs) @ random_orthogonal(rng, q).T
    block = np.zeros((n, n))
    block[:q, :q] = j
    return s @ block @ s_inv, s, s_inv, j


def random_unimodular_int(rng: np.random.Generator, n: int,
                          cond_max: float = 100.0, entry: int = 1,
                          density: float = 0.4) -> tuple:
    """Integer S with det +-1 and an exactly representable inverse.

    Sparse triangular factors keep the rejection rate low at tight
    cond_max values for n up to 7 or so.
    """
    while True:
        low = np.eye(n)
        upp = np.eye(n)
        for i in range(n):
            for j in range(i):
                if rng.random() < density:
                    low[i, j] = rng.integers(-entry, entry + 1)
            for j in range(i + 1, n):
                if rng.random() < density:
                    upp[i, j] = rng.integers(-entry, entry + 1)
        s = low @ upp
        if np.linalg.cond(s) > cond_max:
            continue
        s_inv = np.rint(np.linalg.inv(s))
        if np.array_equal(s @ s_inv, np.eye(n)):
            return s, s_inv


def exact_index1(rng: np.random.Generator, n: int, q: int,
                 cond_max: float = 20.0, scale_max: float = 10.0):
    """Exactly representable index-1 instance: integer unimodular S and an
    integer triangular J with distinct diagonal entries from {+-2, +-3}
    (q <= 4), so the zero eigenvalue of H is exact in floats and the
    trailing characteristic coefficients come out exactly zero.

    cond(S) and max|H| stay small: determinant evaluations of H + eps*I
    at eps = 1e-8 carry a noise floor of roughly n*cond*eps_mach*|H|/eps,
    and the regularized-limit tests need that a few times below 1e-6.

    Returns (H, S, S_inv, J).
    """
    assert q <= 4, "only four distinct diagonal magnitudes available"
    from detdyn import charpoly

    while True:
        s, s_inv = random_unimodular_int(rng, n, cond_max=cond_max)
        diag = rng.permutation(np.array([-3.0, -2.0, 2.0, 3.0]))[:q]
        j = np.diag(diag)
        for i in range(q):
            for k in range(i + 1, q):
                j[i, k] = float(rng.integers(-1, 2))
        block = np.zeros((n, n))
        block[:q, :q] = j
        h = (s @ block) @ s_inv
        if float(np.max(np.abs(h))) > scale_max:
            continue
        coeffs = charpoly(h).coeffs
        if all(c == 0.0 for c in coeffs[q + 1:]):
            return h, s, s_inv, j


def exact_compatible_uv(rng: np.random.Generator, s: np.ndarray,
                        s_inv: np.ndarray, q: int, r: int):
    """U = S [U1; 0], V = S^{-T} [V1; 0], dyadic entries: the nullspace
    compatibility conditions hold exactly."""
    n = s.shape[0]
    u1 = rng.integers(-2, 3, size=(q, r)) / 8.0
    v1 = rng.integers(-2, 3, size=(q, r)) / 8.0
    u = s @ np.vstack([u1, np.zeros((n - q, r))])
    v = s_inv.T @ np.vstack([v1, np.zeros((n - q, r))])
    return u, v


def exact_lemma_instance(rng: np.random.Generator, n: int, q: int, r: int):
    """Exact index-1 instance plus compatible factors, filtered so the
    perturbed core stays comfortably nonsingular."""
    while True:
        h, s, s_inv, j = exact_index1(rng, n, q)
        u, v = exact_compatible_uv(rng, s, s_inv, q, r)
        u1 = (s_inv @ u)[:q]
        v1 = (s.T @ v)[:q]
        core_eigs = np.linalg.eigvals(j + u1 @ v1.T)
        if np.min(np.abs(core_eigs)) < 1.0:
            continue
        gain = np.eye(r) + v1.T @ np.linalg.inv(j) @ u1
        if abs(np.linalg.det(gain)) < 0.2:
            continue
        return h, u, v, j


def random_hurwitz(rng: np.random.Generator, n: int,
                   margin: float = 0.3) -> np.ndarray:
    m = rng.standard_normal((n, n))
    alpha = float(np.max(np.linalg.eigvals(m).real))
    return m - (alpha + margin) * np.eye(n)


def _near_identity(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.eye(n) + rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))


def scaled_index1(rng: np.random.Generator, n: int, nu: int, c: float):
    """H = c S blkdiag(J, 0) S^{-1} with S = I + G / (2 sqrt n) and
    J = G' / sqrt(n - nu) + 2 I, the benchmark's index-1 construction.
    Returns (H, J); pdet(H) = c^(n - nu) det(J)."""
    q = n - nu
    j = rng.standard_normal((q, q)) / np.sqrt(q) + 2.0 * np.eye(q)
    core = np.zeros((n, n))
    core[:q, :q] = j
    s = _near_identity(rng, n)
    return c * (s @ core @ np.linalg.inv(s)), j


def scaled_unstable(rng: np.random.Generator, n: int, c: float) -> np.ndarray:
    """A = c S T S^{-1}, T block upper triangular with 2x2 diagonal blocks
    whose eigenvalues have real parts in [-2, -0.2], except one block in
    [0.2, 2]: the benchmark's non-Hurwitz construction (n even)."""
    block = np.arange(n) // 2
    above = block[:, None] < block[None, :]
    t = np.zeros((n, n))
    t[above] = 0.5 * rng.standard_normal(int(above.sum())) / np.sqrt(n)
    bad = int(rng.integers(n // 2))
    for k in range(n // 2):
        sig = rng.uniform(0.2, 2.0) * (1.0 if k == bad else -1.0)
        om = rng.uniform(0.1, 2.0)
        t[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[sig, om], [-om, sig]]
    s = _near_identity(rng, n)
    return c * (s @ t @ np.linalg.inv(s))


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return g @ g.T + 0.5 * np.eye(n)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
