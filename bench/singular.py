"""The ``singular`` workload: desk-scale calls to the singular-extension and
spectral identities (n in {4, 8, 12, 16}, cycled, inputs scaled by c drawn
log-uniformly from [1e-3, 1e3], ``Tolerance(rel=1e-9)``).

Inputs are built from known structure: index-1 H = c S blkdiag(J, 0) S^-1,
Hurwitz A = c S T S^-1 with T block upper triangular, rank-one updates
confined to one diagonal block of T. References are computed from that
structure with 30-digit mpmath, never through the package. An op is one
round of 44 calls: the 11 kinds in a fixed order, four times, at every size,
so every op does the same mix of work. Every fourth occurrence of a kind
that can violate a hypothesis does (index-2 H, incompatible U, non-Hurwitz
A), which makes 4 calls in a round expected ``HypothesisViolation``s.
"""

from __future__ import annotations

import importlib
import math

import mpmath
import numpy as np

from common import Call, Outcome, digits_of, expect_error, op_rng, payload_of, raised, rel_digits, via

SIZES = (4, 8, 12, 16)
KINDS = ("group_inverse", "pdet_charpoly", "pdet_eigenproduct", "pdet_lemma",
         "regularized_limit", "stability_preserved", "secular_value",
         "charpoly_perturbed_eval", "contribution_analysis",
         "gramian_pdet_growth", "perturbed_gramian_experiment")
VIOLATING = {"group_inverse": 0, "pdet_lemma": 1, "regularized_limit": 2,
             "stability_preserved": 3}
ROUND = 4 * len(KINDS)
TOL_REL = 1e-9
DPS = 30


def _tol():
    return importlib.import_module("detdyn.kernel").Tolerance(rel=TOL_REL)


def to_mp(a) -> mpmath.matrix:
    return mpmath.matrix(np.asarray(a, dtype=float).tolist())


def _scale(rng) -> float:
    return float(10.0 ** rng.uniform(-3.0, 3.0))


def _similarity(rng, n: int) -> np.ndarray:
    return np.eye(n) + rng.standard_normal((n, n)) / (2.0 * math.sqrt(n))


def max_rel_digits(value, ref: mpmath.matrix) -> float:
    """Max-entry error relative to the max-entry size of the reference."""
    v = to_mp(value)
    cells = [(i, j) for i in range(ref.rows) for j in range(ref.cols)]
    err = max(abs(v[i, j] - ref[i, j]) for i, j in cells)
    size = max(abs(ref[i, j]) for i, j in cells)
    return digits_of(float(err / size))


# --- index-1 constructions -------------------------------------------------

def index1(rng, n: int, c: float, index2: bool = False):
    """H = c S blkdiag(J, Z) S^-1 with Z = 0 (index 1) or a nilpotent
    Jordan block in Z (index 2). Returns H, S, J, nu."""
    nu = int(rng.integers(1, max(2, n // 4) + 1))
    if index2:
        nu = max(nu, 2)
    q = n - nu
    j = rng.standard_normal((q, q)) / math.sqrt(q) + 2.0 * np.eye(q)
    core = np.zeros((n, n))
    core[:q, :q] = j
    if index2:
        core[q, q + 1] = 1.0
    s = _similarity(rng, n)
    h = c * (s @ core @ np.linalg.inv(s))
    return h, s, j, nu


def drazin_ref(s, j, c) -> mpmath.matrix:
    """H^D = S blkdiag((cJ)^-1, 0) S^-1 from the construction."""
    q = j.shape[0]
    n = s.shape[0]
    with mpmath.workdps(DPS):
        sm = to_mp(s)
        jinv = (to_mp(j) * c) ** -1
        core = mpmath.zeros(n, n)
        for a in range(q):
            for b in range(q):
                core[a, b] = jinv[a, b]
        return sm * core * sm ** -1


def pdet_ref(j, c):
    """pdet(c S blkdiag(J, 0) S^-1) = c^q det(J)."""
    with mpmath.workdps(DPS):
        return mpmath.det(to_mp(j)) * mpmath.mpf(c) ** j.shape[0]


def lemma_inputs(rng, n, c, incompatible):
    h, s, j, nu = index1(rng, n, c)
    q = n - nu
    u1 = math.sqrt(c) * rng.standard_normal((q, 2)) / math.sqrt(q)
    v1 = math.sqrt(c) * rng.standard_normal((q, 2)) / math.sqrt(q)
    upad = np.zeros((n, 2))
    upad[:q] = u1
    if incompatible:
        upad[q:] = math.sqrt(c) * rng.standard_normal((nu, 2))
    vpad = np.zeros((n, 2))
    vpad[:q] = v1
    u = s @ upad
    v = np.linalg.inv(s).T @ vpad

    def ref():
        with mpmath.workdps(DPS):
            return mpmath.det(to_mp(j) * c + to_mp(u1) * to_mp(v1).T)

    return h, u, v, ref


# --- Hurwitz constructions -------------------------------------------------

def _block_eigs(blk):
    tr = blk[0, 0] + blk[1, 1]
    det = blk[0, 0] * blk[1, 1] - blk[0, 1] * blk[1, 0]
    disc = complex(tr * tr - 4.0 * det)
    r = disc ** 0.5
    return (tr + r) / 2.0, (tr - r) / 2.0


def hurwitz(rng, n: int, c: float, unstable_base: bool = False):
    """A = c S T S^-1, T block upper triangular with 2x2 blocks whose
    eigenvalues have real parts in [-2, -0.2] (one block in [0.2, 2] when
    ``unstable_base``). Returns A, S, T."""
    t = np.zeros((n, n))
    bi = np.arange(n) // 2
    mask = bi[:, None] < bi[None, :]
    t[mask] = 0.5 * rng.standard_normal(int(mask.sum())) / math.sqrt(n)
    bad = int(rng.integers(n // 2)) if unstable_base else -1
    for k in range(n // 2):
        sig = rng.uniform(0.2, 2.0) * (1.0 if k == bad else -1.0)
        if rng.random() < 0.5:
            om = rng.uniform(0.1, 2.0)
            blk = np.array([[sig, om], [-om, sig]])
        else:
            blk = np.diag([sig, sig * rng.uniform(0.3, 1.0)])
        t[2 * k:2 * k + 2, 2 * k:2 * k + 2] = blk
    s = _similarity(rng, n)
    return c * (s @ t @ np.linalg.inv(s)), s, t


def stability_inputs(rng, n, c, unstable_base):
    """Rank-one update confined to block k of T: the perturbed spectrum is
    known from that block, and kept at least 0.1 away from Re = 0."""
    a, s, t = hurwitz(rng, n, c, unstable_base)
    k = int(rng.integers(n // 2))
    lo, hi = 2 * k, 2 * k + 2
    while True:
        x = np.zeros(n)
        w = np.zeros(n)
        x[:lo] = rng.standard_normal(lo) / math.sqrt(n)
        w[hi:] = rng.standard_normal(n - hi) / math.sqrt(n)
        x[lo:hi] = rng.standard_normal(2)
        w[lo:hi] = rng.standard_normal(2)
        eigs = _block_eigs(t[lo:hi, lo:hi] + np.outer(x[lo:hi], w[lo:hi]))
        if all(abs(z.real) >= 0.1 for z in eigs):
            break
    winding = sum(1 for z in eigs if z.real > 0)
    u = math.sqrt(c) * (s @ x)
    v = math.sqrt(c) * (np.linalg.inv(s).T @ w)
    return a, u, v, winding


def stable_system(rng, n: int, c: float):
    """Generic stable discrete-time (A, b): spectral radius in [0.3, 0.9]."""
    a = rng.standard_normal((n, n))
    rho = max(abs(np.linalg.eigvals(a)))
    a = a * (rng.uniform(0.3, 0.9) / rho)
    b = c * rng.standard_normal((n, 1))
    return a, b


def gramian_refs(a, b, horizon, tol_rel):
    """(eigenvalues of W descending, rank at the package's cutoff,
    pdet of the retained part) from 30-digit mpmath."""
    n = a.shape[0]
    with mpmath.workdps(DPS):
        am = to_mp(a)
        x = to_mp(b)
        w = mpmath.zeros(n, n)
        for _ in range(horizon):
            w += x * x.T
            x = am * x
        ev = sorted((mpmath.mpf(e) for e in mpmath.eigsy(w, eigvals_only=True)), reverse=True)
        cut = tol_rel * n * max(abs(w[i, j]) for i in range(n) for j in range(n))
        rank = sum(1 for e in ev if e > cut)
        pd = mpmath.fprod(ev[:rank]) if rank else mpmath.mpf(0)
    return ev, rank, pd


# --- calls ----------------------------------------------------------------

def size_for(kind: str, occurrence: int) -> int:
    """Sizes cycle with the kind's occurrence count, so every round sees the
    same size mix; the rotation shifts every four occurrences so that
    violating calls (a fixed occurrence mod 4) meet every size too."""
    if kind == "contribution_analysis":
        return (4, 8)[occurrence % 2]
    if kind in ("gramian_pdet_growth", "perturbed_gramian_experiment"):
        return 2 + occurrence % 5
    return SIZES[(occurrence + occurrence // 4) % len(SIZES)]


def make_call(kind: str, rng, violate: bool, n: int) -> Call:
    c = _scale(rng)
    tol = _tol()

    if kind == "group_inverse":
        h, s, j, nu = index1(rng, n, c, index2=violate)
        run = via("drazin", "group_inverse")
        if violate:
            return Call(kind, lambda: run(h, tol), expect_error("IndexGreaterThanOne"),
                        payload_of(kind, h))

        def check(res, exc):
            if exc is not None:
                return raised(exc)
            if (res.rank_q, res.nullity_nu) != (n - nu, nu):
                return Outcome(unsolved=True)
            return Outcome(digits=[max_rel_digits(res.h_drazin, drazin_ref(s, j, c))])

        return Call(kind, lambda: run(h, tol), check, payload_of(kind, h))

    if kind in ("pdet_charpoly", "pdet_eigenproduct"):
        h, s, j, nu = index1(rng, n, c)
        method = kind.split("_")[1]
        run = via("drazin", "pdet")

        def check(res, exc):
            if exc is not None:
                return raised(exc)
            if res.nullity != nu:
                return Outcome(unsolved=True)
            return Outcome(digits=[rel_digits(res.value, complex(pdet_ref(j, c)))])

        return Call(kind, lambda: run(h, tol, method), check, payload_of(kind, h))

    if kind in ("pdet_lemma", "regularized_limit"):
        h, u, v, ref = lemma_inputs(rng, n, c, incompatible=violate)
        run = via("drazin", kind)
        call = (lambda: run(h, u, v, tol)) if kind == "pdet_lemma" else (lambda: run(h, u, v, None, tol))
        if violate:
            return Call(kind, call, expect_error("CompatibilityViolated"),
                        payload_of(kind, h, u, v), updates=2, layer="drazin")

        def check(res, exc):
            if exc is not None:
                return raised(exc)
            value = res if kind == "pdet_lemma" else res.estimate
            return Outcome(digits=[rel_digits(value, complex(ref()))])

        return Call(kind, call, check, payload_of(kind, h, u, v), updates=2, layer="drazin")

    if kind == "stability_preserved":
        a, u, v, winding = stability_inputs(rng, n, c, unstable_base=violate)
        run = via("spectral", "stability_preserved")
        call = lambda: run(a, u, v, tol=tol)  # noqa: E731
        if violate:
            return Call(kind, call, expect_error("BaseNotHurwitz"), payload_of(kind, a, u, v),
                        updates=1, layer="spectral")

        def check(res, exc):
            if exc is not None:
                return raised(exc)
            return Outcome(unsolved=res.winding != winding,
                           samples=res.samples)

        return Call(kind, call, check, payload_of(kind, a, u, v), updates=1, layer="spectral")

    if kind == "secular_value":
        a, _, _ = hurwitz(rng, n, c)
        u = math.sqrt(c) * rng.standard_normal(n)
        v = math.sqrt(c) * rng.standard_normal(n)
        lam = c * complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        empty = importlib.import_module("detdyn.updates").UpdateSequence(base_dim=n)
        run = via("spectral", "secular_value")

        def check(res, exc):
            if exc is not None:
                return raised(exc)
            with mpmath.workdps(DPS):
                m = mpmath.mpc(lam) * mpmath.eye(n) - to_mp(a)
                x = mpmath.lu_solve(m, to_mp(u.reshape(-1, 1)))
                ref = 1 - sum(mpmath.mpf(v[i]) * x[i] for i in range(n))
            return Outcome(digits=[rel_digits(res.value, complex(ref))])

        return Call(kind, lambda: run(a, empty, u, v, lam, tol), check,
                    payload_of(kind, a, u, v, lam), updates=1, layer="spectral")

    if kind == "charpoly_perturbed_eval":
        a, _, _ = hurwitz(rng, n, c)
        pairs = [(math.sqrt(c) * rng.standard_normal(n), math.sqrt(c) * rng.standard_normal(n))
                 for _ in range(2)]
        seq = importlib.import_module("detdyn.updates").UpdateSequence.from_pairs(pairs)
        lam = c * complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        run = via("spectral", "charpoly_perturbed_eval")

        def check(res, exc):
            if exc is not None:
                return raised(exc)
            with mpmath.workdps(DPS):
                m = mpmath.mpc(lam) * mpmath.eye(n) - to_mp(a)
                for pu, pv in pairs:
                    m -= to_mp(pu.reshape(-1, 1)) * to_mp(pv.reshape(1, -1))
                ref = mpmath.det(m)
            return Outcome(digits=[rel_digits(res, complex(ref))])

        return Call(kind, lambda: run(a, seq, lam), check, payload_of(kind, a, pairs, lam),
                    updates=2, layer="spectral")

    if kind == "contribution_analysis":
        pool = [math.sqrt(c) * rng.standard_normal(n) / math.sqrt(n) for _ in range(max(2, n // 2))]
        dirs = [pool[int(i)] for i in rng.integers(len(pool), size=2 * n)]
        seq = importlib.import_module("detdyn.updates").UpdateSequence.symmetric(dirs)
        run = via("updates", "contribution_analysis")

        def check(res, exc):
            if exc is not None:
                return raised(exc)
            if len(res) != len(dirs):
                return Outcome(unsolved=True)
            worst = []
            with mpmath.workdps(DPS):
                acc = mpmath.eye(n)
                for d, step in zip(dirs, res):
                    dm = to_mp(d.reshape(-1, 1))
                    qf = (dm.T * mpmath.lu_solve(acc, dm))[0, 0]
                    worst.append(rel_digits(step.log_increment, complex(mpmath.log1p(qf))))
                    acc += dm * dm.T
            return Outcome(digits=[min(worst)])

        return Call(kind, lambda: run(seq, tol), check, payload_of(kind, dirs),
                    updates=len(dirs), layer="updates")

    a, b = stable_system(rng, n, c)
    g = importlib.import_module("detdyn.control").build_gramian(a, b, n)

    def gram_check(rank, pdet_value):
        _, ref_rank, ref_pd = gramian_refs(a, b, n, TOL_REL)
        if rank != ref_rank:
            return Outcome(unsolved=True)
        return Outcome(digits=[rel_digits(pdet_value, complex(ref_pd))])

    if kind == "gramian_pdet_growth":
        run = via("control", "gramian_pdet_growth")

        def check(res, exc):
            if exc is not None:
                return raised(exc)
            return gram_check(res.rank_r, res.pdet_estimate)

        return Call(kind, lambda: run(g, None, tol), check, payload_of(kind, a, b),
                    updates=n, layer="control")

    trial_seed = int(rng.integers(2 ** 31))
    noise = float(rng.uniform(0.01, 0.2))
    run = via("control", "perturbed_gramian_experiment")

    def check(res, exc):
        if exc is not None:
            return raised(exc)
        return gram_check(res.nominal_rank, res.nominal_pdet)

    return Call(kind, lambda: run(g, noise, 16, trial_seed, None, tol), check,
                payload_of(kind, a, b, noise, trial_seed), updates=17 * n, layer="control")


def make_op(seed: int, index: int, warmup: bool = False) -> list:
    """Op ``index``: one round of 44 calls, calls 44 * index .. 44 * index + 43
    of the stream in which call j has kind j mod 11, occurrence j // 11 and
    its own generator keyed by j. A round thus holds every kind four times,
    at every size of SIZES, and each violating kind violates once."""
    calls = []
    for p in range(ROUND):
        j = index * ROUND + p
        kind = KINDS[j % len(KINDS)]
        occurrence = j // len(KINDS)
        violate = kind in VIOLATING and occurrence % 4 == VIOLATING[kind]
        calls.append(make_call(kind, op_rng(seed, "singular", j, warmup), violate,
                               size_for(kind, occurrence)))
    return calls
