"""Known defects, one strict xfail each.

Every test asserts the right answer on a draw where the package gets it
wrong today, and pins today's failure with ``raises``; a fix shows as an
unexpected pass, which fails the suite until the marker goes. The
ROADMAP item named in each reason carries the defect.
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest

from detdyn import (
    DEFAULT_TOL,
    IndexGreaterThanOne,
    NotConverged,
    build_gramian,
    det_rank_one,
    det_sequence,
    gramian_pdet_growth,
    pdet,
    pdet_lemma,
    stability_preserved,
)
from test_updates import deficient_stream


def shifted_gaussian(rng, n):
    """G - (max Re lambda(G) + 1) I for a Gaussian G: Hurwitz, with its
    rightmost eigenvalue at Re = -1."""
    g = rng.standard_normal((n, n))
    return g - (np.max(np.linalg.eigvals(g).real) + 1.0) * np.eye(n)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: the winding reads Faddeev-LeVerrier "
                          "coefficients, wrong past n = 32")
@pytest.mark.parametrize("n,seed", [(48, 2), (48, 8), (48, 9), (64, 1), (64, 4), (64, 10)])
def test_winding_counts_the_perturbed_rhp_eigenvalues(n, seed):
    rng = np.random.default_rng(seed)
    a = shifted_gaussian(rng, n)
    u, v = 0.5 * rng.standard_normal(n), 0.5 * rng.standard_normal(n)
    cert = stability_preserved(a, u, v)
    assert cert.winding == cert.rhp_eigs_oracle


@pytest.mark.xfail(strict=True, raises=NotConverged,
                   reason="ROADMAP item 3: the eps schedule ignores the dropped "
                          "eigenvalues of W")
def test_krylov_growth_with_dropped_eigenvalues():
    rng = np.random.default_rng(0)
    n = 12
    a = shifted_gaussian(rng, n) / 10.0
    g = build_gramian(a, rng.standard_normal((n, 1)), n)
    cut = DEFAULT_TOL.cutoff(g.w)
    with mpmath.workdps(30):
        x = mpmath.matrix([[mpmath.mpf(float(t)) for t in u] for u in g.directions])
        eigs = mpmath.eigsy(x.T * x, eigvals_only=True)
        ref = float(mpmath.fprod(e for e in eigs if e > cut))
    growth = gramian_pdet_growth(g)
    assert abs(growth.pdet_estimate - ref) <= 1e-9 * abs(ref)


@pytest.mark.xfail(strict=True, raises=IndexGreaterThanOne,
                   reason="ROADMAP item 4: the lemma refuses index >= 2, though "
                          "compatible U and V leave the nilpotent block alone")
def test_lemma_on_an_index_two_base():
    # H = S blkdiag(C, J_2) S^{-1}; S^{-1} U = [X; 0] and V^T S = [Y^T 0], so
    # H + U V^T = S blkdiag(C + X Y^T, J_2) S^{-1}, whose pdet is det(C + X Y^T)
    rng = np.random.default_rng(0)
    n = 10
    c = rng.standard_normal((8, 8)) + 3.0 * np.eye(8)
    s = rng.standard_normal((n, n))
    x, y = rng.standard_normal((8, 2)), rng.standard_normal((8, 2))
    block = np.zeros((n, n))
    block[:8, :8] = c
    block[8, 9] = 1.0
    s_inv = np.linalg.inv(s)
    h = s @ block @ s_inv
    assert pdet(h).nullity == 2
    with mpmath.workdps(30):
        ref = float(mpmath.det(mpmath.matrix(c.tolist())
                               + mpmath.matrix(x.tolist()) * mpmath.matrix(y.tolist()).T))
    value = pdet_lemma(h, s[:, :8] @ x, s_inv.T[:, :8] @ y)
    assert abs(value - ref) <= 1e-8 * abs(ref)


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="ROADMAP item 2: the charpoly route rescales a "
                          "Faddeev-LeVerrier coefficient by s^q, which overflows")
def test_charpoly_pdet_beyond_the_power_range():
    # s^q = 1e7^45 overflows, and the coefficient c_45 of H/s is already
    # wrong (its true value is subnormal), so rescaling the power alone
    # would not mend it; the default route is within 2e-15 of 1e7 0.5^44
    h = np.diag([1e7] + [0.5] * 44 + [0.0])
    ref = 1e7 * 0.5 ** 44
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = pdet(h, method="charpoly").value
    assert abs(value - ref) <= 1e-12 * ref


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="ROADMAP item 6: v^T adj(H) u sums +inf and -inf "
                          "entries of adj(1e6 I_64) to NaN")
def test_rank_one_update_beyond_float_range():
    rng = np.random.default_rng(1)
    u, v = rng.standard_normal(64), rng.standard_normal(64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = det_rank_one(1e6 * np.eye(64), (u, v))
    assert not math.isnan(value)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: the walk's values beyond float range "
                          "read NaN")
@pytest.mark.parametrize("imag", [0.0, 1.0])
def test_out_of_range_sequence_has_no_nan(imag):
    # the stream of test_updates.py::test_out_of_range_frame_is_silent
    h, seq = deficient_stream(np.random.default_rng(64), 64, 1, 64, 32, 1e6, imag)
    tr = det_sequence(h, seq)
    assert not np.any(np.isnan(tr.values))
