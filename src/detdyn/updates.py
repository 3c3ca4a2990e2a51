"""Determinant and log-determinant evolution under rank-one updates.

The additive route (``det_rank_one``, ``det_sequence``) uses the adjugate
identity det(H + u v^T) = det(H) + v^T adj(H) u, which holds with no
invertibility assumption, so singular bases and singular intermediates
are fine. ``det_sequence`` evaluates v^T adj(M) u as det(M) v^T M^{-1} u
while the running matrix M is invertible at tolerance, and takes the
adjugate only from the first singular intermediate on. The multiplicative
route (``det_product``, ``logdet_sequence``) uses
det(H + u v^T) = det(H) (1 + v^T H^{-1} u) and therefore requires
nonsingular intermediates; violations are reported, never patched over.
All three walk the same Sherman-Morrison update of M^{-1}, O(n^2) a step.
"""

from __future__ import annotations

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
        """Delta_r = sum of all u_i v_i^T."""
        acc = np.zeros((self.base_dim, self.base_dim))
        for up in self.updates:
            acc += np.outer(up.u, up.v)
        return acc


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
        acc = self.base_det
        for f in self.factors:
            acc *= f
        return acc

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
    return kernel.det(a) + float(up.v @ kernel.adjugate(a) @ up.u)


def _inverse_walk(a: np.ndarray, seq: UpdateSequence, tol: Tolerance):
    """Walk M_k = H + Delta_k, yielding (update k, s_k, M_{k-1}) for
    k = 1..r with s_k = v_k^T M_{k-1}^{-1} u_k.

    M^{-1} is carried by Sherman-Morrison with the denominator guard
    |1 + s| >= tol.rel; below the guard a fresh inverse of M_k is
    attempted. From the first M_{k-1} that is singular at tolerance (the
    base, or a fresh inverse that fails) on, s_k is None for every
    remaining step: the walk never re-enters the inverse route.
    """
    r = len(seq)
    current = a
    minv = None
    if r > 0:
        try:
            minv = kernel.inverse(a, tol)
        except Singular:
            pass
    for i, up in enumerate(seq.updates, start=1):
        s = None
        if minv is not None:
            x = minv @ up.u
            s = float(up.v @ x)
        yield up, s, current
        current = current + np.outer(up.u, up.v)
        if minv is not None and i < r:
            f = 1.0 + s
            if abs(f) >= tol.rel:
                vt_minv = up.v @ minv
                minv = minv - np.outer(x, vt_minv) / f
            else:
                try:
                    minv = kernel.inverse(current, tol)
                except Singular:
                    minv = None


def det_sequence(h, seq: UpdateSequence) -> DetTrace:
    """Run the additive recursion D_k = D_{k-1} + v_k^T adj(H + Delta_{k-1}) u_k.

    While H + Delta_{k-1} is invertible at tolerance the increment is
    D_{k-1} v_k^T (H + Delta_{k-1})^{-1} u_k, read off the Sherman-Morrison
    walk; from the first singular intermediate on, every remaining
    increment takes the adjugate. Works for singular H and singular
    intermediates.
    """
    a = _check_base(h, seq)
    d = kernel.det(a)
    values = [d]
    increments = []
    for up, s, current in _inverse_walk(a, seq, DEFAULT_TOL):
        if s is None:
            inc = float(up.v @ kernel.adjugate(current) @ up.u)
        else:
            inc = d * s
        d = d + inc
        increments.append(inc)
        values.append(d)
    return DetTrace(values=tuple(values), increments=tuple(increments))


def _multiplicative_walk(a: np.ndarray, seq: UpdateSequence, tol: Tolerance,
                         require_positive: bool):
    """Determinants and factors 1 + s_k for det_product / logdet_sequence
    along the Sherman-Morrison walk; a singular intermediate raises
    IntermediateSingular."""
    d = kernel.det(a, tol)
    if require_positive and not d > 0.0:
        raise NonPositiveDeterminant(0, d)
    dets = [d]
    factors = []
    for i, (_, s, _) in enumerate(_inverse_walk(a, seq, tol)):
        if s is None:
            raise IntermediateSingular(i)
        f = 1.0 + s
        factors.append(f)
        d = d * f
        dets.append(d)
        if require_positive and not d > 0.0:
            raise NonPositiveDeterminant(i + 1, d)
    return dets, factors


def det_product(h, seq: UpdateSequence, tol: Tolerance = DEFAULT_TOL) -> LogDetTrace:
    """Multiplicative form det(H + Delta_r) = det(H) prod(1 + v_i^T M_{i-1}^{-1} u_i).

    Requires H and every intermediate H + Delta_k with k < r to be
    nonsingular at tolerance; raises IntermediateSingular(k) otherwise
    (use det_sequence in that case).
    """
    a = _check_base(h, seq)
    dets, factors = _multiplicative_walk(a, seq, tol, require_positive=False)
    base = dets[0]
    logs = tuple(math.log(f) if f > 0.0 else None for f in factors)
    return LogDetTrace(
        base_det=base,
        base_logdet=math.log(base) if base > 0.0 else None,
        factors=tuple(factors),
        log_increments=logs,
    )


def logdet_sequence(h, seq: UpdateSequence, tol: Tolerance = DEFAULT_TOL) -> LogDetTrace:
    """Additive log form; every det(H + Delta_k) must be positive as
    computed, else NonPositiveDeterminant(k)."""
    a = _check_base(h, seq)
    dets, factors = _multiplicative_walk(a, seq, tol, require_positive=True)
    return LogDetTrace(
        base_det=dets[0],
        base_logdet=math.log(dets[0]),
        factors=tuple(factors),
        log_increments=tuple(math.log(f) for f in factors),
    )


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
    directions meet unit eigenvalues and contribute log(1 + |u|^2).
    """
    for i, up in enumerate(seq.updates):
        if not up.symmetric:
            raise NonSymmetricUpdate(f"update {i} has u != v")
    n = seq.base_dim
    acc = np.eye(n)
    steps = []
    for up in seq.updates:
        q = float(up.u @ kernel.solve(acc, up.u, tol))
        lam, vecs = np.linalg.eigh(acc)
        alpha = vecs.T @ up.u
        weights = alpha * alpha / lam
        steps.append(ContributionStep(
            quadratic_form=q,
            eigenvalues=tuple(float(x) for x in lam),
            weights=tuple(float(x) for x in weights),
            log_increment=math.log1p(q),
        ))
        acc = acc + np.outer(up.u, up.u)
    return tuple(steps)
