"""The ``stream`` workload: long rank-one update streams at n = 64, r = 64.

References come from an exact construction rather than from the package.
Every matrix is M = Q T Q^T with Q orthogonal and T block upper
triangular, every update is u v^T = Q (a w^T) Q^T with a w^T confined to
the block upper triangle, and every entry is a dyadic rational with few
enough bits that the float64 inputs hold the construction exactly. So
det(H + Delta_k) is the product of the diagonal blocks' determinants,
computed exactly with ``fractions.Fraction``.

Q is a product of two randomly signed and permuted Sylvester-Hadamard
matrices divided by n: orthogonal, with entries k/64, dense.
"""

from __future__ import annotations

import importlib
import math
import operator
from fractions import Fraction
from itertools import accumulate

import numpy as np

from common import Call, Outcome, digits_of, op_rng, payload_of, raised, via

N = 64
R = 64
KINDS = ("covariance_trace", "info_filter_trace", "logdet_sequence",
         "det_product", "det_sequence")
GEN_BLOCK = 2   # general H: 2x2 blocks give real and complex eigenvalue pairs
SPD_BLOCK = 4   # SPD P: symmetric updates stay inside one 4x4 block


def quant(x, bits: int):
    """Round to a multiple of 2^-bits (keeps products exact in float64)."""
    scale = 2.0 ** bits
    return np.round(np.asarray(x, dtype=float) * scale) / scale


def _sylvester(n: int) -> np.ndarray:
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def exact_orthogonal(rng, n: int) -> np.ndarray:
    """Q with Q Q^T = I exactly in float64 (n a power of two)."""
    h = _sylvester(n)

    def mixed():
        s1 = rng.choice([-1.0, 1.0], n)
        s2 = rng.choice([-1.0, 1.0], n)
        return s1[:, None] * h[:, rng.permutation(n)] * s2[None, :]

    return (mixed() @ mixed()) / n


def frac_det(m) -> Fraction:
    """Exact determinant of a small float matrix by Fraction elimination."""
    return _frac_det_rows([[Fraction(float(x)) for x in row] for row in np.asarray(m)])


def frac_log(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def _blocks(n: int, b: int):
    return [(j, j + b) for j in range(0, n, b)]


def _upper_mask(n: int, b: int) -> np.ndarray:
    bi = np.arange(n) // b
    return bi[:, None] < bi[None, :]


# --- general H (det_product, det_sequence) ---------------------------------

def _good_block(rng) -> np.ndarray:
    while True:
        blk = quant(0.8 * rng.standard_normal((2, 2)), 6)
        if abs(float(frac_det(blk))) >= 0.25:
            return blk


def _general_stream(rng, singular: bool):
    """Base T (optionally with one rank-1 diagonal block, so H has rank
    n-1) and R updates; returns (T_0, [(a, w)], exact dets D_0..D_R)."""
    n, b = N, GEN_BLOCK
    blocks = _blocks(n, b)
    t = np.where(_upper_mask(n, b), quant(rng.standard_normal((n, n)) / math.sqrt(n), 8), 0.0)
    j0 = int(rng.integers(len(blocks))) if singular else -1
    for j, (s, e) in enumerate(blocks):
        if j == j0:
            x = quant(rng.standard_normal(2), 6)
            while not np.all(x):
                x = quant(rng.standard_normal(2), 6)
            lam = float(quant(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0), 3))
            t[s:e, s:e] = np.array([x, lam * x])
        else:
            t[s:e, s:e] = _good_block(rng)
    t0 = t.copy()
    bdet = [frac_det(t[s:e, s:e]) for s, e in blocks]
    dets = [math.prod(bdet)]
    k_fix = int(rng.integers(R // 4, 3 * R // 4)) if singular else -1
    ups = []
    for k in range(R):
        if k == k_fix:
            j = j0
        else:
            j = int(rng.integers(len(blocks)))
            while k < k_fix and j == j0:
                j = int(rng.integers(len(blocks)))
        s, e = blocks[j]
        while True:
            a = np.zeros(n)
            w = np.zeros(n)
            a[:s] = quant(rng.standard_normal(s) / math.sqrt(n), 8)
            a[s:e] = quant(0.7 * rng.standard_normal(b), 6)
            w[e:] = quant(rng.standard_normal(n - e) / math.sqrt(n), 8)
            w[s:e] = quant(0.7 * rng.standard_normal(b), 6)
            new = frac_det(t[s:e, s:e] + np.outer(a[s:e], w[s:e]))
            if abs(float(new)) >= 0.1:
                break
        t += np.outer(a, w)
        bdet[j] = new
        ups.append((a, w))
        dets.append(math.prod(bdet))
    return t0, ups, dets, t


# --- SPD P (covariance_trace, info_filter_trace, logdet_sequence) ------------

def _spd_base(rng) -> np.ndarray:
    t = np.zeros((N, N))
    for s, e in _blocks(N, SPD_BLOCK):
        g = quant(rng.standard_normal((SPD_BLOCK, SPD_BLOCK)), 4)
        t[s:e, s:e] = g @ g.T / 8.0 + 0.5 * np.eye(SPD_BLOCK)
    return t


def _block_vectors(rng):
    """R vectors, each supported on one randomly chosen SPD block."""
    blocks = _blocks(N, SPD_BLOCK)
    out = []
    for _ in range(R):
        j = int(rng.integers(len(blocks)))
        s, e = blocks[j]
        a = np.zeros(N)
        a[s:e] = quant(rng.standard_normal(SPD_BLOCK) / math.sqrt(SPD_BLOCK), 6)
        out.append((j, a))
    return out


def _symmetric_stream(rng):
    """P_k = P_{k-1} + u u^T; returns (T_0, [(j, a)], exact log det P_k)."""
    t = _spd_base(rng)
    blocks = _blocks(N, SPD_BLOCK)
    bdet = [frac_det(t[s:e, s:e]) for s, e in blocks]
    logs = [sum(frac_log(d) for d in bdet)]
    t0 = t.copy()
    vecs = _block_vectors(rng)
    for j, a in vecs:
        s, e = blocks[j]
        t[s:e, s:e] += np.outer(a[s:e], a[s:e])
        bdet[j] = frac_det(t[s:e, s:e])
        logs.append(sum(frac_log(d) for d in bdet))
    return t0, vecs, logs


def _info_stream(rng):
    """P_k^{-1} = P^{-1} + sum v v^T; det(P_k) = prod_j det(S_j) / det(I + S_j C_j)
    with C_j the accumulated c c^T of block j."""
    t = _spd_base(rng)
    blocks = _blocks(N, SPD_BLOCK)
    sdet = [frac_det(t[s:e, s:e]) for s, e in blocks]
    acc = [np.zeros((SPD_BLOCK, SPD_BLOCK)) for _ in blocks]
    core = [Fraction(1) for _ in blocks]
    dets = [math.prod(sdet)]
    vecs = _block_vectors(rng)
    for j, c in vecs:
        s, e = blocks[j]
        acc[j] = acc[j] + np.outer(c[s:e], c[s:e])
        core[j] = _frac_det_i_plus(t[s:e, s:e], acc[j])
        dets.append(math.prod(sdet) / math.prod(core))
    return t, vecs, dets


def _frac_det_i_plus(s, c) -> Fraction:
    """Exact det(I + S C) for small dyadic S, C."""
    fs = [[Fraction(float(x)) for x in row] for row in s]
    fc = [[Fraction(float(x)) for x in row] for row in c]
    b = len(fs)
    prod = [[(1 if i == j else 0) + sum(fs[i][k] * fc[k][j] for k in range(b))
             for j in range(b)] for i in range(b)]
    return _frac_det_rows(prod)


def _frac_det_rows(rows) -> Fraction:
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return det


# --- checks ---------------------------------------------------------------

def _log_digits(values, ref_logs) -> float:
    """Absolute error of a log-det is the relative error of the det."""
    return min(digits_of(abs(float(v) - r)) for v, r in zip(values, ref_logs))


def _det_digits(values, ref_dets, mats=None) -> float:
    """Relative error per step; a step whose exact det is 0 is measured
    against the Hadamard bound of that step's matrix instead."""
    out = []
    for k, (v, ref) in enumerate(zip(values, ref_dets)):
        if ref != 0:
            out.append(digits_of(abs(float(v) - float(ref)) / abs(float(ref))))
        else:
            scale = float(np.prod(np.linalg.norm(mats[k], axis=0)))
            out.append(digits_of(abs(float(v)) / scale))
    return min(out)


def _checker(values, refs, digits):
    """Check of one stream call: the trace must have one value per step,
    and ``digits(values)`` gives its accuracy."""

    def check(res, exc):
        if exc is not None:
            return raised(exc)
        vals = values(res)
        if len(vals) != len(refs):
            return Outcome(unsolved=True)
        return Outcome(digits=digits(vals))

    return check


def make_call(kind: str, rng, singular_start: bool = False, mp_check: bool = False) -> Call:
    q = exact_orthogonal(rng, N)
    upd = importlib.import_module("detdyn.updates").UpdateSequence
    if kind in ("covariance_trace", "logdet_sequence"):
        t0, vecs, ref_logs = _symmetric_stream(rng)
        p = q @ t0 @ q.T
        us = [q @ a for _, a in vecs]
        if kind == "covariance_trace":
            run_fn, args, layer = via("control", kind), (p, us), "control"

            def values(res):
                return res.logdets
        else:
            run_fn, args, layer = via("updates", kind), (p, upd.symmetric(us)), "updates"

            def values(res):
                return list(accumulate(res.log_increments, initial=res.base_logdet))

        check = _checker(values, ref_logs, lambda vals: [_log_digits(vals, ref_logs)])
        return Call(kind, lambda: run_fn(*args), check, payload_of(kind, p, us),
                    updates=R, layer=layer)

    if kind == "info_filter_trace":
        t0, vecs, ref_dets = _info_stream(rng)
        p = q @ t0 @ q.T
        vs = [q @ c for _, c in vecs]
        run_fn = via("control", kind)
        check = _checker(lambda res: res.dets, ref_dets,
                         lambda vals: [_det_digits(vals, ref_dets)])
        return Call(kind, lambda: run_fn(p, vs), check, payload_of(kind, p, vs),
                    updates=R, layer="control")

    t0, ups, ref_dets, t_final = _general_stream(rng, singular_start)
    h = q @ t0 @ q.T
    pairs = [(q @ a, q @ w) for a, w in ups]
    seq = upd.from_pairs(pairs)
    run_fn = via("updates", kind)
    if kind == "det_product":
        def values(res):
            return list(accumulate(res.factors, operator.mul, initial=res.base_det))
    else:
        def values(res):
            return res.values

    mats = None
    if singular_start:
        mats = list(accumulate((np.outer(u, v) for u, v in pairs), initial=h))

    def digits(vals):
        out = [_det_digits(vals, ref_dets, mats)]
        if mp_check:
            out.append(mp_final_check(q @ t_final @ q.T, ref_dets[-1], vals[-1]))
        return out

    return Call(kind, lambda: run_fn(h, seq), _checker(values, ref_dets, digits),
                payload_of(kind, h, pairs), updates=R, layer="updates")


def make_op(seed: int, index: int, warmup: bool = False) -> list:
    """One stream op: a round of the five kinds on fresh inputs. Every
    fourth det_sequence call starts from a rank-(n-1) H. The first op of a
    run also checks its det_sequence final against a direct mpmath
    determinant."""
    rng = op_rng(seed, "stream", index, warmup)
    children = rng.spawn(len(KINDS))
    return [make_call(kind, child, singular_start=(kind == "det_sequence" and index % 4 == 0),
                      mp_check=(kind == "det_sequence" and index == 0 and not warmup))
            for kind, child in zip(KINDS, children)]


def mp_final_check(final_matrix, exact: Fraction, value) -> float:
    """Digits of a final determinant against a direct 30-digit mpmath
    determinant of the final matrix. Also confirms the exact construction:
    raises if the two references disagree."""
    import mpmath

    with mpmath.workdps(30):
        direct = mpmath.det(mpmath.matrix(final_matrix.tolist()))
        ref = mpmath.mpf(exact.numerator) / exact.denominator
        if abs(direct - ref) > mpmath.mpf(10) ** -20 * max(abs(ref), 1):
            raise RuntimeError("stream construction disagrees with the mpmath determinant")
        return digits_of(float(abs((mpmath.mpf(value) - direct) / direct)))
