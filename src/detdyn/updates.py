"""Determinant and log-determinant evolution under rank-one updates.

The additive route (``det_rank_one``, ``det_sequence``) uses the adjugate
identity det(H + u v^T) = det(H) + v^T adj(H) u, which holds with no
invertibility assumption, so singular bases and singular intermediates
are fine. The multiplicative route (``det_product``, ``logdet_sequence``)
uses det(H + u v^T) = det(H) (1 + v^T H^{-1} u) and therefore requires
nonsingular intermediates; violations are reported, never patched over.

All three walk one engine. Its frame is (B^{-1}, det B) for the
bordered B = [[M, U_d], [V_d^H, 0]], where U_d and V_d span the d
directions in which the running matrix M is too near singular to trust
(d = 0, B = M, while M is safely invertible). The factors
det B_j / det B_{j-1} of up to n steps are the pivots of one capacitance
matrix (the matrix determinant lemma): two GEMMs a block, and between
blocks one ``kernel.inverse`` of M. Where that inverse, or the one that
tests H, refuses an M of rank n - 1, the border of width 1 is read off
the LU inverse it formed, one step of inverse iteration, and B is
inverted by LU. One SVD gives the frame where LAPACK refused the LU,
where d >= 2, after a bordered block, or once M is too near singular
along an update; det H, its sign and log come from the kernel's one LU
reader. The unpivoted LU is taken by halving: the pivots are those of
the leading half and then those of its Schur complement, one batched
solve and one batched GEMM per level, about log2(b / 4) levels for a
block of b steps. A block with no border on a real H equal to its
transpose, where this and every earlier update has u = v, has a
symmetric capacitance matrix, and where that is positive definite
(every factor positive) one Cholesky gives the same pivots
(``kernel._spd_pivots``); the halving runs only where LAPACK refuses
it. With d > 0 the border rides along, and Jacobi's identity det M =
det B det T, where T is the trailing d x d block of B^{-1}, reads v^T
adj(M) u = det B det J off the same elimination for any border that
makes B nonsingular, with no division by det M; with d = 0 that is
det M v^T M^{-1} u.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .errors import (
    DimensionMismatch,
    IntermediateSingular,
    NonPositiveDeterminant,
    NonSymmetricUpdate,
    Singular,
)
from .kernel import DEFAULT_TOL, Tolerance


def _frozen_vec(v: np.ndarray) -> np.ndarray:
    out = np.array(v, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RankOneUpdate:
    """One update u v^T, acting along u with sensitivity v."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = kernel.as_vector(self.u, name="u")
        v = kernel.as_vector(self.v, dim=u.shape[0], name="v")
        object.__setattr__(self, "u", _frozen_vec(u))
        object.__setattr__(self, "v", _frozen_vec(v))

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def symmetric(self) -> bool:
        return bool(np.array_equal(self.u, self.v))


@dataclass(frozen=True)
class UpdateSequence:
    """Ordered rank-one updates sharing one base dimension."""

    base_dim: int
    updates: tuple = ()

    def __post_init__(self):
        ups = tuple(
            u if isinstance(u, RankOneUpdate) else RankOneUpdate(*u)
            for u in self.updates
        )
        for i, up in enumerate(ups):
            if up.dim != self.base_dim:
                raise DimensionMismatch(
                    f"update {i} has dimension {up.dim}, base is {self.base_dim}"
                )
        object.__setattr__(self, "updates", ups)

    def __len__(self) -> int:
        return len(self.updates)

    @classmethod
    def from_pairs(cls, pairs) -> "UpdateSequence":
        pairs = [(kernel.as_vector(u), kernel.as_vector(v)) for u, v in pairs]
        if not pairs:
            raise DimensionMismatch("cannot infer base dimension from an empty list")
        return cls(base_dim=pairs[0][0].shape[0],
                   updates=tuple(RankOneUpdate(u, v) for u, v in pairs))

    @classmethod
    def symmetric(cls, vectors) -> "UpdateSequence":
        return cls.from_pairs([(u, u) for u in vectors])

    def total(self) -> np.ndarray:
        """Delta_r = sum of all u_i v_i^T = U^T V, the u_i and v_i as rows."""
        us = np.reshape([up.u for up in self.updates], (-1, self.base_dim))
        vs = np.reshape([up.v for up in self.updates], (-1, self.base_dim))
        return us.T @ vs


@dataclass(frozen=True)
class DetTrace:
    """D_0..D_r with the per-step adjugate increments; D_k is the running
    sum of the increments, exactly as computed."""

    values: tuple
    increments: tuple

    @property
    def final(self) -> float:
        return self.values[-1]


@dataclass(frozen=True)
class LogDetTrace:
    """Multiplicative trace: factors 1 + v^T M^{-1} u per step.

    ``log_increments`` entries are None where the factor is not positive
    (the log decomposition only exists for positive determinants);
    ``logdet_sequence`` guarantees every entry is present.
    """

    base_det: float
    base_logdet: float | None
    factors: tuple
    log_increments: tuple = field(default=())

    @property
    def final_det(self) -> float:
        return math.prod(self.factors, start=self.base_det)

    @property
    def final_logdet(self) -> float:
        if self.base_logdet is None or any(x is None for x in self.log_increments):
            raise ValueError("log decomposition undefined for this trace")
        return self.base_logdet + sum(self.log_increments)


def _check_base(h, seq: UpdateSequence) -> np.ndarray:
    a = kernel.as_matrix(h, square=True, name="H")
    if seq.base_dim != a.shape[0]:
        raise DimensionMismatch(
            f"sequence dimension {seq.base_dim} does not match H ({a.shape[0]})"
        )
    return a


def _as_update(up, n: int) -> RankOneUpdate:
    if not isinstance(up, RankOneUpdate):
        up = RankOneUpdate(*up)
    if up.dim != n:
        raise DimensionMismatch(f"update dimension {up.dim} does not match H ({n})")
    return up


def det_rank_one(h, update) -> float:
    """det(H + u v^T) = det(H) + v^T adj(H) u, valid for singular H."""
    a = kernel.as_matrix(h, square=True, name="H")
    up = _as_update(update, a.shape[0])
    return kernel.det(a) + (up.v @ kernel.adjugate(a) @ up.u).item()


def _base(a: np.ndarray, tol: Tolerance):
    """(det H, its sign, log|det H|, start) with det H from ``kernel._det``
    and the start frame (H^{-1}, det H); when H is singular at tolerance,
    as ``kernel.det`` decides it (``kernel._inverse``), (0.0, 0.0, None,
    the Singular it raised), which carries the LU inverse and singular
    values ``_refresh`` borders H from."""
    try:
        minv = kernel._inverse(a, tol)
    except Singular as refused:
        return 0.0, 0.0, None, refused
    det, sign, logdet = kernel._det(a)
    return det, sign, logdet, (minv, det)


def _refresh(m: np.ndarray, tol: Tolerance, refused: Singular | None = None):
    """The walk's frame (B^{-1}, det B) for a singular or nearly singular
    M. Where ``kernel._inverse`` has just refused M, ``refused`` is the
    Singular it raised, and a rank n - 1 M is bordered from the LU
    inverse it carries (``_lu_frame``), with no SVD beyond the values
    that refused it. Every other M, and one that frame does not serve,
    takes its frame from one full SVD (``_svd_frame``)."""
    frame = None if refused is None else _lu_frame(m, tol, refused)
    return _svd_frame(m, tol) if frame is None else frame


def _lu_frame(m: np.ndarray, tol: Tolerance, refused: Singular):
    """The frame bordered by one step of inverse iteration, or None.

    When the singular values that refused M leave a border of width 1
    (``_border_width``), the LU inverse X = M^{-1} is dominated by
    v u^H / sigma_n, u and v the smallest singular pair: every column of
    X is one inverse-iteration step towards v, every row one towards u^H
    (Peters and Wilkinson, SIAM Rev. 21, 1979). The largest column and
    row, normalised, give V_1 and U_1, which make B = [[M, U_1],
    [V_1^H, 0]] nonsingular (Govaerts, *Numerical Methods for
    Bifurcations of Dynamical Equilibria*, SIAM 2000). B^{-1} and det B
    come from LAPACK's LU: ``kernel._inverse`` with no SVD, certified by
    its residual, and ``kernel._det``. None, for the SVD frame, where
    LAPACK refused the LU, where d >= 2, where X is not finite or where
    B^{-1} does not certify.
    """
    x = refused.inverse
    if x is None or _border_width(refused.singular_values, m, tol) != 1:
        return None
    n = m.shape[0]
    with np.errstate(all="ignore"):
        big = np.max(np.abs(x))
        if not 0.0 < big < np.inf:
            return None
        y = x / big  # no norm below overflows
        col = y[:, np.argmax(np.linalg.norm(y, axis=0))]
        row = y[np.argmax(np.linalg.norm(y, axis=1))]
        b = np.zeros((n + 1, n + 1), dtype=m.dtype)
        b[:n, :n] = m
        b[:n, n] = row.conj() / np.linalg.norm(row)
        b[n, :n] = col.conj() / np.linalg.norm(col)
    try:
        binv = kernel._inverse(b, tol, svd=False)
    except Singular:
        return None
    return binv, kernel._det(b)[0]


def _border_width(s: np.ndarray, m: np.ndarray, tol: Tolerance) -> int:
    """d, the number of the singular values s of M that are not above
    cutoff / sqrt(tol.rel), the level at which an inverse still carries
    about half the digits: the width of the border M's frame needs."""
    return s.size - int(np.count_nonzero(s > tol.cutoff(m) / math.sqrt(tol.rel)))


def _svd_frame(m: np.ndarray, tol: Tolerance):
    """The walk's frame (B^{-1}, det B) for M = U S V^H, real or complex,
    from one full SVD. The k = n - d singular values that count
    (``_border_width``) give M^{-1}'s part, and the d that do not border
    M, B = [[M, U_d], [V_d^H, 0]], so
    - B^{-1} = [[V_k S_k^{-1} U_k^H, V_d], [U_d^H, -S_d]],
    - det B = det(U) det(V^H) prod_{i<=k} s_i (-1)^d,
    both in closed form, with det B formed from its sign and log where the
    product of the s_i leaves float range part-way (``kernel._in_range``).
    The border is not scaled: a factor c on it would
    multiply det B by c^{2d} and det J (``_pivots``) by c^{-2d}, which
    leave float range at large d where their product does not. d = 0 is
    the plain frame (M^{-1}, det M).
    """
    u, s, vh = np.linalg.svd(m)
    uh, v = u.conj().T, vh.conj().T
    n, d = s.size, _border_width(s, m, tol)
    k = n - d
    binv = np.zeros((n + d, n + d), dtype=m.dtype)
    binv[:n, :n] = (v[:, :k] / s[:k]) @ uh[:k]
    binv[:n, n:] = v[:, k:]
    binv[n:, :n] = uh[k:]
    binv[n:, n:] = np.diag(-s[k:])
    sign = (-1) ** d * np.linalg.det(u) * np.linalg.det(vh)
    with np.errstate(over="ignore"):
        det_b = sign * np.prod(s[:k])
    return binv, kernel._in_range(det_b, sign, np.sum(np.log(s[:k]))).item()


# contribution_analysis takes its prefixes I + Delta_{i-1} in chunks of at
# most this many floats (2 MiB), so memory does not grow with the stream.
_STACK_FLOATS = 1 << 18

# A cancelled capacitance pivot ends a block: a factor 1 + s_j below this
# share of the terms that form it has lost more than three digits to their
# cancellation.
_CANCEL = 1e-3

# Blocks are halved down to leaves of at most this many steps; a block of
# up to twice as many is one leaf.
_LEAF = 4


def _pivots(k: np.ndarray, levels: int, d: int):
    """(s, terms, dets) for one block's capacitance matrix K, after
    ``levels`` halvings. K = [[G, Q_b], [R_b, T]] carries the frame's
    border in its last d rows and columns (K = G when d = 0): 1 + s_j is
    the j-th pivot of the unpivoted LU of C = I + G, terms_j sums the
    magnitudes of what was subtracted from G_jj to form s_j, and dets_j
    is det J_j for J_j = [[s_j, q_j^T], [r_j, T_j]], step j's pivot, row
    and column and the border block of what eliminating steps 0..j-1
    leaves of K (J_j = s_j when d = 0).

    The pivots of C = [[A, C_12], [C_21, D]] are those of A followed by
    those of the Schur complement D - C_21 A^{-1} C_12, and the two halves
    are independent once A^{-1} is applied. So each level takes every
    block of the level at once: one batched solve against I + G_A and one
    batched GEMM. The leading child is A with the border unchanged, the
    trailing one the Schur complement, in G-form, of D with the border.
    Leaves take the unpivoted elimination, batched, which runs on G and
    adds the 1 only to the pivot it divides by, so a small s_j keeps its
    digits. The steps are padded with trailing zero rows and columns to a
    leaf size times 2^levels: a zero row is an identity pivot, dropped
    with the padding.
    """
    b = k.shape[0] - d
    leaf = -(-b >> levels)
    p = leaf << levels
    w = np.zeros((1, p + d, p + d), dtype=k.dtype)
    w[0, :b, :b] = k[:b, :b]
    if d:
        w[0, :b, p:], w[0, p:, :b], w[0, p:, p:] = k[:b, b:], k[b:, :b], k[b:, b:]
    terms = np.zeros(p)
    with np.errstate(all="ignore"):
        for i in range(levels):
            m, h = 1 << i, p >> (i + 1)
            x = np.linalg.solve(w[:, :h, :h] + np.eye(h), w[:, :h, h:])
            y = w[:, h:, :h] @ x
            # diag(y)_j = sum over the leading half of L_ji U_ij for each
            # j of the trailing half
            terms.reshape(m, 2, h)[:, 1] += np.abs(np.diagonal(y, 0, 1, 2)[:, :h])
            # the children side by side: the leading half with the border's
            # rows and columns, then the trailing half's Schur complement
            nxt = np.empty((m, 2, h + d, h + d), dtype=w.dtype)
            lead = nxt[:, 0]
            lead[:, :h, :h] = w[:, :h, :h]
            if d:
                lead[:, :h, h:], lead[:, h:, :h] = w[:, :h, 2 * h:], w[:, 2 * h:, :h]
                lead[:, h:, h:] = w[:, 2 * h:, 2 * h:]
            np.subtract(w[:, h:, h:], y, out=nxt[:, 1])
            w = nxt.reshape(2 * m, h + d, h + d)
        jm = np.empty((w.shape[0], leaf, 1 + d, 1 + d), dtype=w.dtype) if d else None
        # the last step needs no elimination, only its J_j with a border
        for j in range(leaf if d else leaf - 1):
            if d:
                jm[:, j, 0, 0], jm[:, j, 0, 1:] = w[:, j, j], w[:, j, leaf:]
                jm[:, j, 1:, 0], jm[:, j, 1:, 1:] = w[:, leaf:, j], w[:, leaf:, leaf:]
            w[:, j + 1:, j] /= 1.0 + w[:, j, j, None]
            w[:, j + 1:, j + 1:] -= w[:, j + 1:, j, None] * w[:, j, None, j + 1:]
        # a leaf's sum_{i<j} |L_ji U_ij| is entry (j, j-1) of the running
        # row sums of |g * g^T|
        g = w[:, :leaf, :leaf]
        terms.reshape(-1, leaf)[:, 1:] += np.diagonal(
            np.cumsum(np.abs(g * g.transpose(0, 2, 1)), axis=2), -1, 1, 2)
        s = np.diagonal(g, 0, 1, 2).reshape(-1)[:b]
        dets = np.linalg.det(jm.reshape(p, 1 + d, 1 + d)[:b]) if d else s
    return s, terms[:b], dets


def _halved(k: np.ndarray, d: int):
    """``_pivots`` at ceil(log2(b / _LEAF)) levels for a block of b > 2
    _LEAF steps and none for a smaller one; an exactly singular leading
    half makes the batched solve refuse the whole stack, and the block is
    then one leaf."""
    b = k.shape[0] - d
    levels = 0 if b <= 2 * _LEAF else (-(-b // _LEAF) - 1).bit_length()
    try:
        return _pivots(k, levels, d)
    except np.linalg.LinAlgError:
        return _pivots(k, 0, d)


def _capacitance(k: np.ndarray, tol: Tolerance, cut: float, fresh: bool,
                 d: int = 0, spd: bool = False):
    """(s, dets, then) for one block of updates from its capacitance
    matrix K = [[V_b^T P U_b, V_b^T Q], [R U_b, T]] on a frame with
    B^{-1} = [[P, Q], [R, T]] and a border of width d (K = G =
    V_b^T M^{-1} U_b when d = 0): the s_j the walk accepts, det J_j for
    every step (s_j when d = 0) and what renews the frame after them.

    The factors 1 + s_j = det B_j / det B_{j-1} of the block are the
    pivots of the unpivoted LU of C = I + G (the matrix determinant
    lemma), so s_j = v_j^T P_{j-1} u_j is G_jj - sum_{i<j} L_ji U_ij. By
    Jacobi's identity det M_j = det B_j det T_j, so v_j^T adj(M_{j-1}) u_j
    = det M_j - det M_{j-1} is det B_{j-1} det J_j (``_pivots``), linear in
    J_j's first row. With ``spd`` (d = 0, and u = v for this block's and
    every earlier step on a real H equal to its transpose, so M and G are
    symmetric up to rounding) one Cholesky of C reads them, s_j = G_jj -
    sum_{i<j} L_ji^2 with that sum as the terms (``kernel._spd_pivots``);
    where LAPACK refuses C as not positive definite, and for every other
    block, ``_halved`` reads them by halving C. The halving never forms a
    single product L_ji U_ij with i outside j's leaf, only the sum over
    each leading half that step j trails, diag(C_21 A^{-1} C_12)_j, so the
    terms that form s_j are summed by level: 1 + |G_jj| + one |partial sum| per level + the leaf's
    sum_{i<j} |L_ji U_ij|, by the triangle inequality at most the
    elementwise 1 + |G_jj| + sum_{i<j} |L_ji U_ij|. The block ends
    - before the first step with |s_j| cut > 1, never the first step of a
      ``fresh`` frame (then "refresh": a new SVD frame);
    - before the first later step whose factor |1 + s_j| is below _CANCEL
      times its cancellation terms (then "invert", as after a full block);
    - after the first step outside the walk's guard
      tol.rel <= |1 + s| <= 1 / sqrt(tol.rel) (then "check").
    "invert" and "check" differ only in where they cut the block; either
    renews the frame through ``kernel.inverse``.
    The pivots past the end are dropped; past a failed guard they may
    divide by zero, so ``_pivots`` runs under np.errstate.
    """
    if spd:
        try:
            s, terms = kernel._spd_pivots(k)
            dets = s
        except np.linalg.LinAlgError:
            s, terms, dets = _halved(k, d)
    else:
        s, terms, dets = _halved(k, d)
    s, dets = s.tolist(), dets.tolist()
    hi = 1.0 / math.sqrt(tol.rel)
    gd = np.abs(k.diagonal()[:len(s)]).tolist()
    for j, (sj, gj, tj) in enumerate(zip(s, gd, terms.tolist())):
        f = abs(1.0 + sj)
        if abs(sj) * cut > 1.0 and (j or not fresh):
            return s[:j], dets, "refresh"
        if j and f < _CANCEL * (1.0 + gj + tj):
            return s[:j], dets, "invert"
        if not tol.rel <= f <= hi:
            return s[:j + 1], dets, "check"
    return s, dets, "invert"


def _inverse_walk(a: np.ndarray, seq: UpdateSequence, tol: Tolerance,
                  frame, adjugate: bool = False):
    """Walk M_k = H + Delta_k from the start frame ``frame`` = (H^{-1},
    det H) (when H is singular at tolerance, the Singular that refused
    it, ``_base``), yielding (s_k, t_k) for k = 1..r.

    The frame is B^{-1} and det B for B = [[M, U_d], [V_d^H, 0]], d >= 0
    (``_refresh``). The steps go in blocks of up to n: X = B^{-1}[:, :n]
    U_b^T and K = [[V_b X[:n], V_b Q], [X[n:], T]] by GEMMs, the block's
    pivots from K (``_capacitance``), and a new frame between blocks, so
    no step costs O(n^2) in Python. Each step yields s_k, with 1 + s_k =
    det B_k / det B_{k-1}, and t_k = v_k^T adj(M_{k-1}) u_k = det B_{k-1}
    det J_k, which divides by no det M (on a plain frame, d = 0, det J_k
    = s_k and det B = det M); det B goes on as det B + det B s_k.

    A block that ends on a plain frame, full or cut by a factor outside
    the guard tol.rel <= |1 + s| <= 1 / sqrt(tol.rel) or by one that
    cancelled to below 1e-3 of its terms (that step is read again off the
    new frame), renews M^{-1} through ``kernel.inverse`` and keeps det B.
    Without ``adjugate`` a singular M_{k-1} raises Singular in place of
    step k.

    With ``adjugate`` a singular M takes a bordered frame instead
    (``_refresh``). At the start, and at a block end whose
    ``kernel.inverse`` refused M, a rank n - 1 M is bordered from the LU
    inverse that refusal carries; any other rank, or an M the LU refused,
    takes the frame from one SVD. So does |s_k| > 1 / sqrt(tol.rel) before
    t_k is formed (it says M_{k-1} is nearly singular along u_k and v_k,
    where det B s_k would multiply det B's rounding by |s_k|). A bordered
    block always ends in a new SVD frame, plain again once sigma_min(M)
    clears the floor.
    """
    n, r = a.shape[0], len(seq)
    cut = math.sqrt(tol.rel) if adjugate else 0.0
    us = np.array([up.u for up in seq.updates]).reshape(r, n)
    vs = np.array([up.v for up in seq.updates]).reshape(r, n)
    current = a
    symmetric = not np.iscomplexobj(a) and np.array_equal(a, a.T)
    fresh = isinstance(frame, Singular)
    if fresh and r:
        if not adjugate:
            raise Singular("H is singular at tolerance")
        frame = _refresh(a, tol, frame)
    k = 0
    while k < r:
        inv, det_b = frame
        d = inv.shape[0] - n
        ub, vb = us[k:k + n], vs[k:k + n]
        x = inv[:, :n] @ ub.T
        if d:
            b = len(ub)
            g = np.empty((b + d, b + d), dtype=x.dtype)
            g[:b, :b], g[:b, b:] = vb @ x[:n], vb @ inv[:n, n:]
            g[b:, :b], g[b:, b:] = x[n:], inv[n:, n:]
        else:
            g = vb @ x
        spd = symmetric and not d and np.array_equal(ub, vb)
        s, dets, then = _capacitance(g, tol, cut, fresh, d, spd)
        for sk, jk in zip(s, dets):
            # + 0.0: an exact zero term reads 0.0 whatever det B's sign
            yield sk, det_b * jk + 0.0
            det_b = det_b + det_b * sk
        e = len(s)
        k += e
        if k == r:
            return
        current = current + ub[:e].T @ vb[:e]
        symmetric = symmetric and np.array_equal(ub[:e], vb[:e])
        fresh = False
        refused = None
        if not d and then != "refresh":
            try:
                frame = (kernel.inverse(current, tol), det_b)
                continue
            except Singular as exc:
                if not adjugate:
                    raise
                refused = exc
        frame, fresh = _refresh(current, tol, refused), True


def det_sequence(h, seq: UpdateSequence) -> DetTrace:
    """Run the additive recursion D_k = D_{k-1} + v_k^T adj(H + Delta_{k-1}) u_k.

    Each increment is det B_{k-1} det J_k on the walk's frame, read off a
    block's capacitance matrix: D_{k-1} v_k^T (H + Delta_{k-1})^{-1} u_k
    while H + Delta_{k-1} is safely invertible (no border). Where it is
    singular or nearly singular, of any rank, the frame borders it by its
    d small singular pairs, blocks of up to n steps per SVD, and returns
    to no border once the matrix is invertible again. Works for singular H
    and singular intermediates, and for complex H (the updates stay real),
    whose values come out complex.
    """
    a = _check_base(h, seq)
    d, _, _, frame = _base(a, DEFAULT_TOL)
    increments = tuple(t for _, t in _inverse_walk(a, seq, DEFAULT_TOL, frame,
                                                   adjugate=True))
    return DetTrace(values=tuple(itertools.accumulate(increments, initial=d)),
                    increments=increments)


def _multiplicative_walk(h, seq: UpdateSequence, tol: Tolerance,
                         require_positive: bool) -> LogDetTrace:
    """The LogDetTrace of det_product / logdet_sequence: factors 1 + s_k
    along the walk's capacitance blocks on det H, its sign and log from
    ``_base``. A singular intermediate raises IntermediateSingular, and
    complex H (no positivity or log form) a ValueError. Positivity is read
    off the signs of the base and the factors, so a determinant that
    leaves float range (reading 0.0 or inf) is told from a nonpositive
    one."""
    a = _check_base(h, seq)
    if np.iscomplexobj(a):
        raise ValueError("the multiplicative forms take real H; use det_sequence")
    d, sign, logdet, frame = _base(a, tol)
    if require_positive and not sign > 0.0:
        raise NonPositiveDeterminant(0, d)
    factors = []
    try:
        for s, _ in _inverse_walk(a, seq, tol, frame):
            factors.append(1.0 + s)
            if require_positive and not factors[-1] > 0.0:
                raise NonPositiveDeterminant(len(factors), math.prod(factors, start=d))
    except Singular:
        raise IntermediateSingular(len(factors)) from None
    return LogDetTrace(
        base_det=d,
        base_logdet=logdet if sign > 0.0 else None,
        factors=tuple(factors),
        log_increments=tuple(math.log(f) if f > 0.0 else None for f in factors),
    )


def det_product(h, seq: UpdateSequence, tol: Tolerance = DEFAULT_TOL) -> LogDetTrace:
    """Multiplicative form det(H + Delta_r) = det(H) prod(1 + v_i^T M_{i-1}^{-1} u_i).

    Requires H and every intermediate H + Delta_k with k < r to be
    nonsingular at tolerance; raises IntermediateSingular(k) otherwise
    (use det_sequence in that case).
    """
    return _multiplicative_walk(h, seq, tol, require_positive=False)


def logdet_sequence(h, seq: UpdateSequence, tol: Tolerance = DEFAULT_TOL) -> LogDetTrace:
    """Additive log form; every det(H + Delta_k) must be positive, read off
    the signs of det H and of the factors, else NonPositiveDeterminant(k).
    The log form holds where the determinants themselves under- or
    overflow."""
    return _multiplicative_walk(h, seq, tol, require_positive=True)


@dataclass(frozen=True)
class ContributionStep:
    """Per-step breakdown of a symmetric update against the identity base.

    ``weights[j]`` is alpha_j^2 / lambda_j in the eigenbasis of
    I + Delta_{i-1}; their sum reproduces ``quadratic_form``.
    """

    quadratic_form: float
    eigenvalues: tuple
    weights: tuple
    log_increment: float


def contribution_analysis(seq: UpdateSequence,
                          tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Decompose each symmetric update's log-det increment over the
    eigenbasis of the accumulated matrix, starting from the identity.

    Repeated directions meet large eigenvalues and contribute little; new
    directions meet unit eigenvalues and contribute log(1 + |u|^2). The
    quadratic form is the sum of the step's weights in the eigenbasis of
    each prefix: I + Delta is SPD with eigenvalues >= 1, so no solve and
    no singularity test is needed, and ``tol`` goes unused. Every prefix
    is one running sum (``np.cumsum``) of the outer products, and all of
    them go to one batched ``eigh``, in chunks of at most _STACK_FLOATS
    floats.
    """
    for i, up in enumerate(seq.updates):
        if not up.symmetric:
            raise NonSymmetricUpdate(f"update {i} has u != v")
    n = seq.base_dim
    us = np.reshape([up.u for up in seq.updates], (-1, n))
    acc = np.eye(n)
    steps = []
    chunk = max(1, _STACK_FLOATS // (n * n))
    for first in range(0, len(us), chunk):
        u = us[first:first + chunk]
        outer = u[:, :, None] * u[:, None, :]
        prefix = np.cumsum(np.concatenate((acc[None], outer[:-1])), axis=0)
        acc = prefix[-1] + outer[-1]
        lam, vecs = np.linalg.eigh(prefix)
        alpha = np.matmul(vecs.transpose(0, 2, 1), u[:, :, None])[:, :, 0]
        weights = alpha * alpha / lam
        for row_lam, row_w in zip(lam.tolist(), weights):
            q = float(np.sum(row_w))
            steps.append(ContributionStep(
                quadratic_form=q,
                eigenvalues=tuple(row_lam),
                weights=tuple(row_w.tolist()),
                log_increment=math.log1p(q),
            ))
    return tuple(steps)
