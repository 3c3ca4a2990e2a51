"""Scale relations that the mathematics fixes, drawn by hypothesis.

The inputs are scaled by c = 2^j, which is exact in floating point, so a
gap between the two sides is the package's. Each test is derandomized,
with a fixed number of examples and no example database, so every run
draws the same inputs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from detdyn import group_inverse, pdet

RELATIONS = settings(derandomize=True, max_examples=100, database=None)


def core_nilpotent(seed: int, q: int, k: int) -> np.ndarray:
    """H = S blkdiag(C, J_k) S^{-1} of index k and nullity k: C = G / sqrt(q)
    + 2 I (q x q), J_k the k x k nilpotent Jordan block (0 for k = 1) and
    S = I + G' / (2 sqrt n), n = q + k."""
    rng = np.random.default_rng(seed)
    n = q + k
    block = np.zeros((n, n))
    block[:q, :q] = rng.standard_normal((q, q)) / np.sqrt(q) + 2.0 * np.eye(q)
    block[q:, q:] = np.diag(np.ones(k - 1), 1)
    s = np.eye(n) + rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))
    return s @ block @ np.linalg.inv(s)


@RELATIONS
@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 13), k=st.integers(1, 3),
       t=st.integers(-900, 900))
@example(seed=0, q=1, k=1, t=458)  # max|c H| = 1.6e138, past 2^459
@example(seed=0, q=1, k=1, t=-900)
def test_chain_under_a_power_of_two(seed, q, k, t):
    # pdet(c H) = c^q pdet(H) with the same nullity, |j| q <= 900 keeping
    # c^q in float range; at index 1, (c H)^D = H^D / c. That holds bit for
    # bit while max|c H| lies in [2^-459, 2^459]; outside it LAPACK's SVD
    # (gesdd) first rescales the matrix by a ratio that is not a power of
    # two, and the relation holds to rounding
    j = int(t / q)
    c = 2.0 ** j
    h = core_nilpotent(seed, q, k)
    base, scaled = pdet(h), pdet(c * h)
    assert base.nullity == scaled.nullity == k
    ref = np.ldexp(base.value, j * q)
    assert abs(scaled.value - ref) <= 1e-12 * abs(ref)
    if k == 1:
        got, want = group_inverse(c * h).h_drazin, group_inverse(h).h_drazin / c
        if 2.0 ** -459 <= np.max(np.abs(c * h)) <= 2.0 ** 459:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
