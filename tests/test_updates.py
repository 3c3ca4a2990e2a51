import itertools
import math
import operator
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from detdyn import (
    DimensionMismatch,
    IntermediateSingular,
    NonPositiveDeterminant,
    NonSymmetricUpdate,
    Tolerance,
    UpdateSequence,
    contribution_analysis,
    det,
    det_product,
    det_rank_one,
    det_sequence,
    kernel,
    logdet_sequence,
    updates,
)

from conftest import count_calls, count_linalg, mp_det, random_orthogonal, random_spd
from test_kernel import RANK4

TOL9 = Tolerance(rel=1e-9)


def record_refreshes(monkeypatch) -> list:
    """The frame each refresh of the det_sequence walk picks, in order:
    "lu-bordered" (a border of width 1 from the LU inverse that refused a
    rank n-1 M), or from one SVD "plain", "bordered" (a border of width 1,
    rank n-1) or "bordered-d" (width d > 1, rank n-d)."""
    frames = []
    lu, svd = updates._lu_frame, updates._svd_frame

    def from_lu(m, tol, refused):
        frame = lu(m, tol, refused)
        if frame is not None:
            frames.append("lu-bordered")
        return frame

    def from_svd(m, tol):
        frame = svd(m, tol)
        d = frame[0].shape[0] - m.shape[0]
        frames.append("plain" if d == 0 else "bordered" if d == 1
                      else f"bordered-{d}")
        return frame

    monkeypatch.setattr(updates, "_lu_frame", from_lu)
    monkeypatch.setattr(updates, "_svd_frame", from_svd)
    return frames


def count_factorizations(monkeypatch) -> list:
    """(module, name) of every np.linalg.svd and np.linalg.inv call made
    from detdyn.updates or detdyn.kernel, for the rest of the test."""
    return count_linalg(monkeypatch, ("detdyn.updates", "detdyn.kernel"),
                        ("linalg.svd", "linalg.inv"))


def random_sequence(rng, n, r):
    return UpdateSequence.from_pairs(
        [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(r)]
    )


class TestDetRankOne:
    def test_identity_plus_e1(self):
        e1 = np.array([1.0, 0.0])
        assert det_rank_one(np.eye(2), (e1, e1)) == 2.0

    def test_nullspace_update_activates_zero_direction(self):
        a = np.diag([-1.0, -2.0, 0.0])
        u = np.array([0.0, 0.0, 1.0])
        for c in (-1.0, 0.5, 3.0):
            v = np.array([0.4, -2.0, c])
            assert abs(det_rank_one(a, (u, v)) - 2.0 * c) <= 1e-12

    def test_matches_direct_lu(self, rng):
        for k in range(200):
            n = int(rng.integers(1, 9))
            if k % 4 == 0 and n > 1:
                r = int(rng.integers(1, n))
                h = (rng.uniform(-1, 1, (n, r)) @ rng.uniform(-1, 1, (r, n))) / np.sqrt(r)
            else:
                h = rng.uniform(-1, 1, (n, n))
            u = rng.uniform(-1, 1, n)
            v = rng.uniform(-1, 1, n)
            direct = mp_det(h + np.outer(u, v))
            assert abs(det_rank_one(h, (u, v)) - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            det_rank_one(np.eye(2), (np.ones(3), np.ones(3)))

    def test_complex_h_keeps_imaginary_part(self):
        # v^T adj(H) u = 9.75 - 11.25j here: the imaginary part must survive
        h = np.array([[1 + 1j, 2 - 1j, 0], [0.5j, 3 - 1j, 1], [1, 0, 2 + 1j]])
        u, v = np.array([1.0, -1.0, 0.5]), np.array([0.5, 2.0, -1.0])
        ref = mp_det(h + np.outer(u, v))
        assert abs(det_rank_one(h, (u, v)) - ref) <= 1e-14 * abs(ref)


class TestDetSequence:
    def test_empty_sequence(self):
        tr = det_sequence(np.diag([2.0, 3.0]), UpdateSequence(base_dim=2))
        assert tr.values == (6.0,)
        assert tr.increments == ()

    def test_worked_singular_example(self):
        # diag(-1,-2,0), nullspace update then informative update
        a = np.diag([-1.0, -2.0, 0.0])
        c, p = 2.0, 0.5
        seq = UpdateSequence.from_pairs([
            (np.array([0.0, 0.0, 1.0]), np.array([0.3, -1.2, c])),
            (np.array([1.0, 0.0, 0.0]), np.array([p, 0.7, 0.0])),
        ])
        tr = det_sequence(a, seq)
        assert abs(tr.final - 2.0 * c * (1.0 - p)) <= 1e-12

    def test_running_sum_is_exact(self, rng):
        seq = random_sequence(rng, 4, 5)
        tr = det_sequence(rng.standard_normal((4, 4)), seq)
        acc = tr.values[0]
        for inc, val in zip(tr.increments, tr.values[1:]):
            acc = acc + inc
            assert acc == val

    def test_matches_direct_lu(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            h = rng.standard_normal((n, n))
            seq = random_sequence(rng, n, 5)
            direct = mp_det(h + seq.total())
            assert abs(det_sequence(h, seq).final - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_rank_deficient_integer_base(self):
        # rank-4 H whose LU pivots all clear the cutoff: det(H) is 0 and
        # the walk must take the adjugate, not a spurious inverse
        seq = UpdateSequence.from_pairs([
            ([2, -2, -2, -1, -2], [2, 2, 0, -2, -2]),
            ([-1, 0, 1, 0, -1], [-2, 1, 1, -2, -2]),
            ([0, -1, 2, 0, 0], [0, 1, 0, -2, 1]),
        ])
        got = det_sequence(RANK4, seq).values
        for g, ref in zip(got, (0, -9984, 53584, 42860), strict=True):
            assert abs(g - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_singular_base_and_intermediates(self):
        # base singular, first update keeps it singular, still exact
        h = np.diag([1.0, 0.0, 0.0])
        seq = UpdateSequence.from_pairs([
            (np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0])),
            (np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 4.0])),
        ])
        tr = det_sequence(h, seq)
        assert tr.values[0] == 0.0
        assert tr.values[1] == 0.0
        assert abs(tr.final - 4.0) <= 1e-12

    def test_invertible_base_takes_no_adjugate(self, rng, monkeypatch):
        adj = count_calls(monkeypatch, "adjugate")
        h = rng.standard_normal((6, 6)) + 3.0 * np.eye(6)
        tr = det_sequence(h, random_sequence(rng, 6, 12))
        assert len(tr.increments) == 12
        assert adj == []

    def test_singular_base_takes_adjugate_every_step(self, monkeypatch):
        # M_0 has rank n-3: one SVD gives a frame bordered by its three
        # null pairs, and the four steps are one block on it, through
        # M_3 = I, with no LU inverse
        adj = count_calls(monkeypatch, "adjugate")
        frames = record_refreshes(monkeypatch)
        lapack = count_factorizations(monkeypatch)
        e = np.eye(4)
        seq = UpdateSequence.symmetric([e[1], e[2], e[3], e[0]])
        tr = det_sequence(np.diag([1.0, 0.0, 0.0, 0.0]), seq)
        assert adj == []
        assert frames == ["bordered-3"]
        assert lapack.count(("detdyn.updates", "inv")) == 0
        assert tr.values == (0.0, 0.0, 0.0, 1.0, 2.0)

    def test_singular_intermediate_switches_to_adjugate(self, monkeypatch):
        # M_1 = diag(0, 1) has rank n-1: the failed guard refreshes to the
        # bordered frame, which takes the last two steps as one block; the
        # LU inverses are the base's, certified by its residual, and the
        # one kernel.inverse tries on M_1, which LAPACK refuses
        adj = count_calls(monkeypatch, "adjugate")
        frames = record_refreshes(monkeypatch)
        lapack = count_factorizations(monkeypatch)
        e1, e2 = np.eye(2)
        seq = UpdateSequence.from_pairs([(e1, -e1), (e1, e1), (e2, e2)])
        tr = det_sequence(np.eye(2), seq)
        assert adj == []
        assert frames == ["bordered"]
        assert lapack == [("detdyn.kernel", "inv"), ("detdyn.kernel", "inv"),
                          ("detdyn.kernel", "svd"), ("detdyn.updates", "svd")]
        assert tr.values == (1.0, 0.0, 1.0, 2.0)

    def test_n64_final_against_mpmath(self, rng):
        n = 64
        h = rng.standard_normal((n, n))
        pairs = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(n)]
        tr = det_sequence(h, UpdateSequence.from_pairs(pairs))
        final = h + sum(np.outer(u, v) for u, v in pairs)
        with mpmath.workdps(30):
            ref = mpmath.det(mpmath.matrix(final.tolist()))
            rel = abs((mpmath.mpf(tr.final) - ref) / ref)
        assert rel <= 1e-9

    def test_order_changes_increments_not_total(self, rng):
        n, r = 4, 4
        h = rng.standard_normal((n, n))
        pairs = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in range(r)]
        fwd = det_sequence(h, UpdateSequence.from_pairs(pairs))
        rev = det_sequence(h, UpdateSequence.from_pairs(pairs[::-1]))
        assert abs(fwd.final - rev.final) <= 1e-9 * max(1.0, abs(fwd.final))
        assert not np.allclose(fwd.increments, rev.increments[::-1]) or not np.allclose(
            fwd.increments, rev.increments
        )


def deficient_base(rng, n, defect, c=1.0, imag=0.0):
    """(Z, c (X - X Z Z^T)) with Z an n x defect orthonormal block, so the
    base has rank n - defect and Z spans its right null space. ``imag``
    adds i imag G / sqrt(n) to X: the base turns complex, Z stays real."""
    z = np.linalg.qr(rng.standard_normal((n, defect)))[0]
    x = np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    if imag:
        x = x + 1j * imag * rng.standard_normal((n, n)) / np.sqrt(n)
    return z, c * (x - x @ z @ z.T)


def deficient_stream(rng, n, defect, r, k_fix, c=1.0, imag=0.0):
    """``deficient_base`` and r updates c a w^T. Updates before k_fix keep
    w orthogonal to Z, so the rank stays; the one at k_fix adds Z's first
    column to w, which restores one rank."""
    z, h = deficient_base(rng, n, defect, c, imag)
    pairs = []
    for k in range(r):
        w = rng.standard_normal(n) / np.sqrt(n)
        if k < k_fix:
            w = w - z @ (z.T @ w)
        elif k == k_fix:
            w = w + z[:, 0]
        pairs.append((c * rng.standard_normal(n) / np.sqrt(n), w))
    return h, UpdateSequence.from_pairs(pairs)


def restoring_stream(rng, n, defect, r, c=1.0, imag=0.0):
    """``deficient_base`` and r updates that restore one rank at a time: w
    stays orthogonal to the columns of Z not yet restored, and the i-th
    restoring step, at (i + 1) r / (defect + 1), adds Z's i-th column to
    w. The last matrix is nonsingular."""
    z, h = deficient_base(rng, n, defect, c, imag)
    fix = [(i + 1) * r // (defect + 1) for i in range(defect)]
    pairs = []
    for k in range(r):
        w = rng.standard_normal(n) / np.sqrt(n)
        left = z[:, sum(f <= k for f in fix):]
        w = w - left @ (left.T @ w)
        if k in fix:
            w = w + z[:, fix.index(k)]
        pairs.append((c * rng.standard_normal(n) / np.sqrt(n), w))
    return h, UpdateSequence.from_pairs(pairs)


def cutting_stream(rng, n, r, c=1.0):
    """A rank-(n-1) ``deficient_base`` (null vector z) and r updates: the
    one at r / 4 makes M y = 0 for a further y, so the rank falls to
    n - 2; the one at r / 2 restores y's direction and the one at 3 r / 4
    restores z's, so the last matrix is nonsingular. Between them w stays
    orthogonal to the current null space."""
    z, h = deficient_base(rng, n, 1, c)
    m, null, pairs = h, z, []
    for k in range(r):
        w = rng.standard_normal(n) / np.sqrt(n)
        w = w - null @ (null.T @ w)
        u = c * rng.standard_normal(n) / np.sqrt(n)
        if k == r // 4:
            y = rng.standard_normal(n)
            y = y - z @ (z.T @ y)
            u = -m @ y / (w @ y)
            null = np.linalg.qr(np.column_stack([z, y]))[0]
        elif k == r // 2:
            w, null = w + null[:, 1], z
        elif k == 3 * r // 4:
            w, null = w + z[:, 0], z[:, :0]
        m = m + np.outer(u, w)
        pairs.append((u, w))
    return h, UpdateSequence.from_pairs(pairs)


def running_matrices(h, seq):
    mats = [h]
    for up in seq.updates:
        mats.append(mats[-1] + np.outer(up.u, up.v))
    return mats


def hadamard(m) -> float:
    return float(np.prod(np.linalg.norm(m, axis=0)))


class TestSingularWalk:
    """The bordered frame at any rank and its return to the plain route,
    against 30-digit mpmath."""

    # a uniform scale c moves det(M_k) by c^n; at n = 64 and c = 1e6 or
    # 1e-6 it leaves float range, so the scaled walks run at n = 32; the
    # frame is bordered from the LU inverse that found M_0 singular
    @pytest.mark.parametrize("n, c", [(64, 1.0), (32, 1e-6), (32, 1e6)])
    def test_rank_deficient_base_turns_nonsingular(self, n, c, monkeypatch):
        frames = record_refreshes(monkeypatch)
        k_fix = n // 2
        h, seq = deficient_stream(np.random.default_rng(64), n, 1, n, k_fix, c)
        tr = det_sequence(h, seq)
        mats = running_matrices(h, seq)
        assert frames == ["lu-bordered"]
        for k in range(k_fix + 1):
            assert abs(tr.values[k]) <= 1e-9 * hadamard(mats[k])
        for k in (k_fix + 1, n):
            ref = mp_det(mats[k])
            assert abs(tr.values[k] - ref) <= 1e-9 * abs(ref)

    # the scales of the test above, real and complex, at n = 32 and 64; at
    # n = 64 they are 1e-4 and 1e4, which keep det(M_k) in float range, and
    # only the final value, read off the same frame as M_{k_fix + 1}'s,
    # goes to mpmath
    @pytest.mark.parametrize("imag", [0.0, 1.0])
    @pytest.mark.parametrize("n, c", [(32, 1e-6), (32, 1.0), (32, 1e6),
                                      (64, 1e-4), (64, 1.0), (64, 1e4)])
    def test_rank_n_minus_1_start_takes_the_lu_border(self, n, c, imag, monkeypatch):
        frames = record_refreshes(monkeypatch)
        k_fix = n // 2
        h, seq = deficient_stream(np.random.default_rng(n + 1), n, 1, n, k_fix, c, imag)
        tr = det_sequence(h, seq)
        mats = running_matrices(h, seq)
        assert frames == ["lu-bordered"]
        assert tr.values[0] == 0.0
        for k in range(k_fix + 1):
            assert abs(tr.values[k]) <= 1e-9 * hadamard(mats[k])
        for k in (k_fix + 1, n) if n < 64 else (n,):
            ref = mp_det(mats[k])
            assert abs(tr.values[k] - ref) <= 1e-9 * abs(ref)

    def test_rank_n_minus_1_start_takes_no_full_svd(self, monkeypatch):
        # the LU inverse and the singular values that find M_0 singular,
        # then the LU inverse of the frame bordered from that inverse: the
        # full SVD that formed the frame is gone, and M_0 is factorized
        # once by each
        n = 64
        h, seq = deficient_stream(np.random.default_rng(64), n, 1, n, n // 2)
        lapack = count_factorizations(monkeypatch)
        det_sequence(h, seq)
        assert lapack == [("detdyn.kernel", "inv"), ("detdyn.kernel", "svd"),
                          ("detdyn.kernel", "inv")]

    @pytest.mark.parametrize("case", ["zero-pivot", "rank-n-2", "uncertified"])
    def test_svd_frame_where_the_lu_border_does_not_apply(self, case, monkeypatch):
        # LAPACK refuses the LU of diag(1, 1, 1, 0) at its exact zero
        # pivot; at rank n-2 the border is two wide; and a B whose residual
        # does not certify its inverse is left alone: each frame comes
        # from one SVD, as where the walk has no LU inverse
        frames = record_refreshes(monkeypatch)
        if case == "zero-pivot":
            e = np.eye(4)
            h = np.diag([1.0, 1.0, 1.0, 0.0])
            seq = UpdateSequence.symmetric([e[3], e[0], e[1], e[2]] * 2)
            expected = ["bordered", "plain"]
        else:
            n = 16
            h, seq = restoring_stream(np.random.default_rng(n), n,
                                      2 if case == "rank-n-2" else 1, n)
            expected = ["bordered-2" if case == "rank-n-2" else "bordered"]
        if case == "uncertified":
            certified = kernel._certified
            monkeypatch.setattr(kernel, "_certified", lambda a, x, tol: (
                a.shape[0] != n + 1 and certified(a, x, tol)))
        self.assert_walk_against_mpmath(h, seq)
        assert frames == expected

    def test_svd_frame_where_the_lu_inverse_is_not_finite(self, monkeypatch):
        # LAPACK's inverse of diag(1, 2, 3, 1e-320) holds inf, so no column
        # of it is an inverse-iteration step: the frame comes from one SVD,
        # and every value is exact
        frames = record_refreshes(monkeypatch)
        e = np.eye(4)
        seq = UpdateSequence.symmetric([e[3], e[0], e[1], e[2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = det_sequence(np.diag([1.0, 2.0, 3.0, 1e-320]), seq)
        assert frames == ["bordered"]
        assert tr.values == (0.0, 6.0, 12.0, 18.0, 24.0)

    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_out_of_range_frame_is_silent(self, imag):
        # at n = 64 and c = 1e6 the bordered frame's det B is about 1e378:
        # it overflows to inf without a RuntimeWarning, and so do the
        # determinants of the nonsingular tail, about 1e384
        n, k_fix = 64, 32
        h, seq = deficient_stream(np.random.default_rng(64), n, 1, n, k_fix, 1e6, imag)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = det_sequence(h, seq)
        assert tr.values[0] == 0.0
        assert not np.any(np.isfinite(tr.values[k_fix + 1:]))

    def test_frame_det_in_range_when_the_product_overflows_part_way(self):
        # det B is 1e5^64 0.2^63 ~ 1e276 up to the unit-modulus factors, but
        # the descending product of the singular values passes 1e320 on the
        # way; read off that product, the one step came out as -inf
        rng = np.random.default_rng(1)
        n = 128
        qu = np.linalg.qr(rng.standard_normal((n, n)))[0]
        qv = np.linalg.qr(rng.standard_normal((n, n)))[0]
        h = (qu * np.array([1e5] * 64 + [0.2] * 63 + [0.0])) @ qv.T
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = det_sequence(h, UpdateSequence.from_pairs([(u, v)]))
        sign, log = np.linalg.slogdet(h + np.outer(u, v))
        assert tr.values[0] == 0.0
        assert np.sign(tr.final) == sign
        assert abs(math.log(abs(tr.final)) - log) <= 1e-8

    def test_singular_start_factorizes_at_most_three_times(self, monkeypatch):
        # kernel.inverse's singular-value test on the base, one SVD refresh
        # to the bordered frame, one LU inverse on the return: a walk that
        # took an O(n^3) step per singular intermediate fails here
        n = 64
        h, seq = deficient_stream(np.random.default_rng(64), n, 1, n, n // 2)
        lapack = count_factorizations(monkeypatch)
        det_sequence(h, seq)
        assert len(lapack) <= 3

    def test_rank_n_minus_2_base_takes_stewart_step(self, monkeypatch):
        frames = record_refreshes(monkeypatch)
        n = 8
        h, seq = deficient_stream(np.random.default_rng(8), n, 2, 5, 0)
        tr = det_sequence(h, seq)
        assert frames == ["bordered-2"]
        for val, m in zip(tr.values, running_matrices(h, seq)):
            assert abs(val - mp_det(m)) <= 1e-12 * hadamard(m)

    # the example's M_0 and M_4 have sigma_min a hair above the n = 2
    # cutoff: a walk that trusts their inverses is off by 0.1 Hadamard
    @given(n=st.integers(2, 8), defect=st.integers(1, 7), r=st.integers(1, 8),
           k_fix=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
    @example(n=2, defect=1, r=6, k_fix=4, seed=0)
    def test_rank_deficient_walk_against_mpmath(self, n, defect, r, k_fix, seed):
        defect, k_fix = min(defect, n - 1), min(k_fix, r)
        h, seq = deficient_stream(np.random.default_rng(seed), n, defect, r, k_fix)
        tr = det_sequence(h, seq)
        for val, m in zip(tr.values, running_matrices(h, seq), strict=True):
            assert abs(val - mp_det(m)) <= 1e-9 * hadamard(m)

    def test_complex_two_by_two(self):
        # dropping the imaginary part of s gave 2.654 + 1.769j
        e1, e2 = np.eye(2)
        h = np.array([[1 + 1j, 2], [0.5, 3 - 1j]])
        tr = det_sequence(h, UpdateSequence.from_pairs([(e1, e2)]))
        assert abs(tr.final - (2.5 + 2j)) <= 1e-15

    # one complex walk per frame: plain (no refresh), a border of width 1
    # at rank n-1, from the LU inverse, and of width 2 at rank n-2, from
    # one SVD; each ends nonsingular
    @pytest.mark.parametrize("defect, k_fix, expected", [
        (1, 6, []), (1, 2, ["lu-bordered"]), (2, 0, ["bordered-2"])])
    def test_complex_walk_against_mpmath(self, defect, k_fix, expected, monkeypatch):
        frames = record_refreshes(monkeypatch)
        h, seq = deficient_stream(np.random.default_rng(8), 8, defect, 5, k_fix,
                                  imag=1.0)
        if not expected:
            h = h + np.eye(8)
        tr = det_sequence(h, seq)
        assert frames == expected
        mats = running_matrices(h, seq)
        assert abs(tr.final.imag) >= 1e-3 * hadamard(mats[-1])
        for val, m in zip(tr.values, mats, strict=True):
            assert abs(val - mp_det(m)) <= 1e-12 * hadamard(m)

    def assert_walk_against_mpmath(self, h, seq):
        # every step within 1e-9 Hadamard, the last matrix, nonsingular,
        # within 1e-9 relative
        tr = det_sequence(h, seq)
        mats = running_matrices(h, seq)
        for val, m in zip(tr.values, mats, strict=True):
            assert abs(val - mp_det(m)) <= 1e-9 * hadamard(m)
        ref = mp_det(mats[-1])
        assert abs(tr.final - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("n, defect, c, imag", [
        (3, 2, 1e-2, 0.0), (6, 3, 1e2, 1.0), (10, 4, 1.0, 0.0), (9, 5, 1e-2, 1.0),
        (16, 5, 1e2, 0.0), (24, 2, 1e-2, 0.0), (18, 3, 1.0, 1.0)])
    def test_restored_one_rank_at_a_time(self, n, defect, c, imag):
        rng = np.random.default_rng(n * defect)
        self.assert_walk_against_mpmath(
            *restoring_stream(rng, n, defect, n + defect, c, imag))

    @pytest.mark.parametrize("n, c", [(4, 1e-2), (8, 1.0), (13, 1e2), (24, 1.0)])
    def test_rank_cut_and_restored(self, n, c):
        self.assert_walk_against_mpmath(
            *cutting_stream(np.random.default_rng(n), n, n + 4, c))

    def test_walk_returns_to_plain_frame(self, monkeypatch):
        # M_0 has rank n-1: the frame bordered by its null pair takes the
        # first block of n = 4 steps, the first of which restores the rank;
        # the SVD at the block's end finds M_4 = diag(2, 2, 2, 1)
        # invertible and hands back the plain frame for the last four
        frames = record_refreshes(monkeypatch)
        e = np.eye(4)
        seq = UpdateSequence.symmetric([e[3], e[0], e[1], e[2]] * 2)
        tr = det_sequence(np.diag([1.0, 1.0, 1.0, 0.0]), seq)
        assert frames == ["bordered", "plain"]
        assert tr.values == (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 36.0, 54.0)

    def test_singular_start_against_mpmath(self):
        # rank n-1 or n-2 starts, r = 2 n: the plain frame the walk returns
        # to carries det B in closed form from its SVD; carrying on from
        # the running sum instead gave a worst error of 2.9e-13 (seed 28)
        # where this walk gives 3.9e-14
        worst = 0.0
        for seed in range(40):
            n = 4 + seed % 10
            h, seq = deficient_stream(np.random.default_rng(seed), n, 1 + seed % 2,
                                      2 * n, n // 2)
            tr = det_sequence(h, seq)
            ref = np.array([mp_det(m) for m in running_matrices(h, seq)])
            err = np.max(np.abs(np.array(tr.values) - ref)) / np.max(np.abs(ref))
            worst = max(worst, err)
        assert worst <= 1e-13

    @pytest.mark.parametrize("defect", [2, 3])
    def test_low_rank_start_factorizes_at_most_three_times(self, defect, monkeypatch):
        # kernel.inverse's singular-value test on the base, one SVD for
        # the frame bordered by the defect null pairs, which takes all 64
        # steps as one block; a walk that took an SVD per step below rank
        # n-1 fails here
        n = 64
        h, seq = deficient_stream(np.random.default_rng(64), n, defect, n, n // 2)
        lapack = count_factorizations(monkeypatch)
        det_sequence(h, seq)
        assert len(lapack) <= 3

    @pytest.mark.parametrize("c", [1e-7, 1e5])
    def test_large_nullity_keeps_range(self, c):
        # a rank-4 base at n = 32 borders by 28 pairs; a border scaled by
        # s_1 put s_1^56 into det B, which left float range (nan or 0.0)
        # although every det(M_k) is inside it
        rng = np.random.default_rng(32)
        n = 32
        h = c * rng.standard_normal((n, 4)) @ rng.standard_normal((4, n))
        seq = UpdateSequence.from_pairs(
            [(c * rng.standard_normal(n), rng.standard_normal(n)) for _ in range(n)])
        ref = mp_det(h + seq.total())
        assert abs(det_sequence(h, seq).final - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("h, pairs, values", [
        ([[0.0]], [([2.0], [3.0]), ([1.0], [1.0])], (0.0, 6.0, 7.0)),
        (np.zeros((4, 4)), [(e, e) for e in np.eye(4)[[0, 1, 2, 3, 0]]],
         (0.0, 0.0, 0.0, 0.0, 1.0, 2.0)),
        (np.zeros((3, 3)), [(np.zeros(3), np.zeros(3))] * 5, (0.0,) * 6)])
    def test_zero_base_exact(self, h, pairs, values):
        # M = 0 borders by all n pairs with c = 1
        assert det_sequence(h, UpdateSequence.from_pairs(pairs)).values == values


def diagonal_stream(c) -> UpdateSequence:
    """Updates c_k e_k e_k^T, k = 0..len(c)-1."""
    e = np.eye(len(c))
    return UpdateSequence.from_pairs([(e[k], c_k * e[k]) for k, c_k in enumerate(c)])


def cancelling_stream(seed: int):
    """H = Q1 diag(logspace(0, -8, 16)) Q2^T and 24 updates drawn from a
    pool of four pairs along H's two smallest singular pairs, each moved
    by 1e-3 of noise; the draws of pairs 1 and 3 add 1e-6 of fresh noise.
    The first draws lift those singular values from about 1e-8 to about
    1, so later pairs have v^T H^{-1} u near 1e7-1e8 and factors of order
    1: a capacitance pivot formed from an inverse taken before the lift
    cancels seven or eight digits."""
    rng = np.random.default_rng(seed)
    n = 16
    q1, q2 = random_orthogonal(rng, n), random_orthogonal(rng, n)
    h = q1 @ np.diag(np.logspace(0, -8, n)) @ q2.T
    pool = [(q1[:, -1 - i % 2] + 1e-3 * rng.standard_normal(n),
             q2[:, -1 - i % 2] + 1e-3 * rng.standard_normal(n)) for i in range(4)]
    pairs = []
    for _ in range(24):
        i = int(rng.integers(4))
        u, v = pool[i]
        if i % 2:
            u = u + 1e-6 * rng.standard_normal(n)
            v = v + 1e-6 * rng.standard_normal(n)
        pairs.append((u, v))
    return h, pairs


def mp_running_dets(h, pairs) -> list:
    """det(H + Delta_k), k = 0..r, at 50 digits from the exact inputs."""
    with mpmath.workdps(50):
        m = mpmath.matrix(h.tolist())
        dets = [mpmath.det(m)]
        for u, v in pairs:
            m = m + mpmath.matrix(u.tolist()) * mpmath.matrix(v.tolist()).T
            dets.append(mpmath.det(m))
    return dets


class TestCapacitanceBlocks:
    """The plain frame reads blocks of up to n steps off one capacitance
    matrix and refactors M^{-1} between them."""

    @pytest.mark.parametrize("route", [det_product, logdet_sequence, det_sequence])
    def test_benign_stream_refactors_between_blocks(self, route, rng, monkeypatch):
        # r = 3 n: the base's LU inverse, whose residual certifies it
        # without an SVD, then one kernel.inverse between consecutive
        # blocks, certified the same way, and no O(n^2) outer product per
        # step
        n = 16
        h = np.eye(n) + rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))
        seq = UpdateSequence.from_pairs(
            [(0.1 * rng.standard_normal(n), 0.1 * rng.standard_normal(n))
             for _ in range(3 * n)])
        calls = count_linalg(monkeypatch, ("detdyn.updates", "detdyn.kernel"),
                             ("linalg.svd", "linalg.inv", "outer"))
        route(h, seq)
        assert calls == [("detdyn.kernel", "inv")] * 3

    def test_guard_trip_refactors_through_kernel(self, monkeypatch):
        # the fifth of ten factors is 2 / sqrt(tol.rel), above the guard:
        # the block ends after it and kernel.inverse takes M_5, whose
        # smallest singular value clears the cutoff, so the walk goes on
        inverses = count_calls(monkeypatch, "inverse")
        c = [0.5] * 4 + [2.0 / math.sqrt(TOL9.rel)] + [0.5] * 5
        lp = det_product(np.eye(10), diagonal_stream(c), TOL9)
        assert len(inverses) == 1
        assert lp.factors == tuple(1.0 + x for x in c)

    # the unblocked walk kept the median seed's worst factor error at
    # 5.5e-10 and a capacitance matrix without the cancellation end at
    # 6.5e-9; the worst seed, 8, loses about 1e-7 to H's conditioning on
    # every route
    def test_cancelling_stream_against_mpmath(self):
        product, sequence = [], []
        for seed in range(12):
            h, pairs = cancelling_stream(seed)
            ref = mp_running_dets(h, pairs)
            seq = UpdateSequence.from_pairs(pairs)
            lp, tr = det_product(h, seq), det_sequence(h, seq)
            with mpmath.workdps(50):
                product.append(max(
                    float(abs(mpmath.mpf(f) * ref[k] / ref[k + 1] - 1))
                    for k, f in enumerate(lp.factors)))
                sequence.append(max(
                    float(abs(mpmath.mpf(d) / ref[k] - 1)) for k, d in enumerate(tr.values)))
        for errs in (product, sequence):
            assert float(np.median(errs)) <= 2e-9
            assert max(errs) <= 1e-6

    @pytest.mark.parametrize("b", [1, 2, 3, 5, 8, 13, 33, 64])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_pivots_against_mpmath(self, b, cplx):
        # G = L U - I with unit lower L and pivots of modulus 0.5-2, except
        # one of 1e9 at 2b/3 (b > 2), past the guard's 1/sqrt(eps): the
        # block ends after it, as read off the 50-digit pivots
        rng = np.random.default_rng(b)

        def draw(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if cplx else x

        d = rng.uniform(0.5, 2.0, b) * rng.choice([-1.0, 1.0], b)
        if b > 2:
            d[2 * b // 3] = 1e9
        low = np.eye(b) + np.tril(draw(b, b), -1) / np.sqrt(b)
        g = low @ (np.diag(d) + np.triu(draw(b, b), 1) / np.sqrt(b)) - np.eye(b)
        with mpmath.workdps(50):
            c = mpmath.eye(b) + mpmath.matrix(g.tolist())
            for j in range(b):
                for i in range(j + 1, b):
                    c[i, j] /= c[j, j]
                    for k in range(j + 1, b):
                        c[i, k] -= c[i, j] * c[j, k]
            piv = [complex(c[j, j]) for j in range(b)]
        tol = Tolerance()
        end = next((j + 1 for j, p in enumerate(piv) if abs(p) * math.sqrt(tol.rel) > 1.0), b)
        s, _, then = updates._capacitance(g, tol, 0.0, False)
        assert (len(s), then) == (end, "check" if b > 2 else "invert")
        for sj, p in zip(s, piv):
            assert abs(1.0 + sj - p) <= 1e-12 * abs(p)

    @pytest.mark.parametrize("b", [1, 5, 13, 64])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bordered_pivots_against_mpmath(self, b, d):
        # K = [[G, Q], [R, T]] with G = L U - I as above (pivots of modulus
        # 0.5-2) and a random border: s_j and det J_j, J_j the step's and
        # the border's rows and columns of what eliminating steps 0..j-1
        # leaves, against a 50-digit elimination
        rng = np.random.default_rng(10 * b + d)
        piv = rng.uniform(0.5, 2.0, b) * rng.choice([-1.0, 1.0], b)
        low = np.eye(b) + np.tril(rng.standard_normal((b, b)), -1) / np.sqrt(b)
        k = rng.standard_normal((b + d, b + d))
        k[:b, :b] = low @ (np.diag(piv) + np.triu(k[:b, :b], 1) / np.sqrt(b)) - np.eye(b)
        with mpmath.workdps(50):
            c = mpmath.matrix(k.tolist()) + mpmath.diag([1] * b + [0] * d)
            ref_s, ref_det = [], []
            for j in range(b):
                at = [j] + list(range(b, b + d))
                jm = mpmath.matrix([[c[p, q] for q in at] for p in at])
                jm[0, 0] -= 1
                ref_s.append(jm[0, 0])
                ref_det.append(mpmath.det(jm))
                for p in range(j + 1, b + d):
                    f = c[p, j] / c[j, j]
                    for q in range(j + 1, b + d):
                        c[p, q] -= f * c[j, q]
            ref_s = [float(x) for x in ref_s]
            ref_det = [float(x) for x in ref_det]
        s, dets, then = updates._capacitance(k, Tolerance(), 0.0, False, d)
        assert then == "invert" and len(s) == len(dets) == b
        for sj, want in zip(s, ref_s):
            assert abs(sj - want) <= 1e-12 * (1.0 + abs(want))
        for dj, want in zip(dets, ref_det):
            assert abs(dj - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("k", [0, 20])
    def test_singular_leading_block_reported(self, k):
        # update k zeroes M's k-th diagonal entry exactly and the others
        # leave coordinate k alone, so G_00 = -1 opens a block with an
        # exactly singular leading half (at k = 20 the cancelled factor
        # first ends the block before step k): it runs as one leaf, and
        # M_{k+1} is reported as before
        rng = np.random.default_rng(k)
        n = 64
        pairs = [(0.1 * rng.standard_normal(n), 0.1 * rng.standard_normal(n))
                 for _ in range(n)]
        for u, v in pairs:
            u[k] = v[k] = 0.0
        pairs[k] = (np.eye(n)[k], -np.eye(n)[k])
        with pytest.raises(IntermediateSingular) as exc:
            det_product(np.eye(n), UpdateSequence.from_pairs(pairs))
        assert exc.value.step == k + 1

    def test_block_takes_log_many_solves(self, rng, monkeypatch):
        # the b = 64 block's pivots come from one batched solve per
        # halving level, never one call per step
        n = 64
        h = np.eye(n) + rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))
        seq = UpdateSequence.from_pairs(
            [(0.1 * rng.standard_normal(n), 0.1 * rng.standard_normal(n))
             for _ in range(n)])
        calls = count_linalg(monkeypatch, ("detdyn.updates",), ("linalg.solve",))
        det_product(h, seq)
        assert 1 <= len(calls) <= math.ceil(math.log2(n))


def worst_relative(values, ref) -> float:
    """max_k |values_k / ref_k - 1| against the mpmath dets ``ref``."""
    with mpmath.workdps(40):
        return max(float(abs(mpmath.mpmathify(v) / want - 1)) for v, want in zip(values, ref))


def product_dets(lp) -> list:
    """det(H + Delta_k), k = 0..r, as the running product of the factors."""
    return list(itertools.accumulate(lp.factors, operator.mul, initial=lp.base_det))


class TestSymmetricRoute:
    """A plain-frame block of updates with u_k = v_k on a real H equal to
    its transpose has a symmetric capacitance matrix C = I + G, read by
    one Cholesky where C is positive definite; every other block is
    halved. Keyed on u_k = v_k alone, a non-symmetric or complex H would
    read its pivots off the lower triangle of a G that is not symmetric."""

    @pytest.mark.parametrize("n", [8, 16])
    def test_non_symmetric_h(self, n):
        # the halving reaches 2.6e-16 here, the Cholesky of the lower
        # triangle 1.6e-2
        rng = np.random.default_rng(n)
        h = rng.standard_normal((n, n)) / np.sqrt(n) + 2.0 * np.eye(n)
        pairs = [(u, u) for u in 0.3 * rng.standard_normal((2 * n, n))]
        ref = mp_running_dets(h, pairs)
        seq = UpdateSequence.from_pairs(pairs)
        assert worst_relative(product_dets(det_product(h, seq)), ref) <= 1e-13
        assert worst_relative(det_sequence(h, seq).values, ref) <= 1e-13

    def test_complex_symmetric_h(self):
        rng = np.random.default_rng(3)
        n = 12
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (x + x.T) / (2.0 * np.sqrt(n)) + 2.0 * np.eye(n)
        assert np.array_equal(h, h.T)
        pairs = [(u, u) for u in 0.3 * rng.standard_normal((2 * n, n))]
        ref = mp_running_dets(h, pairs)
        values = det_sequence(h, UpdateSequence.from_pairs(pairs)).values
        assert worst_relative(values, ref) <= 1e-13

    @pytest.mark.parametrize("n", [8, 16])
    def test_symmetric_block_after_general_updates(self, n):
        # H is SPD and the second block has u = v, but M = H + sum u v^T
        # of the first block is not symmetric: that block is halved too
        # (a Cholesky of the lower triangle of its G is off by 1.4e-2 and
        # 1.9e-1 relative)
        rng = np.random.default_rng(n + 1)
        h = random_spd(rng, n) / n + np.eye(n)
        h = 0.5 * (h + h.T)
        first = 0.2 * rng.standard_normal((2, n, n))
        pairs = list(zip(first[0], first[1]))
        pairs += [(u, u) for u in 0.3 * rng.standard_normal((n, n))]
        ref = mp_running_dets(h, pairs)
        seq = UpdateSequence.from_pairs(pairs)
        assert worst_relative(product_dets(det_product(h, seq)), ref) <= 1e-13
        assert worst_relative(det_sequence(h, seq).values, ref) <= 1e-13

    def test_indefinite_h_is_halved(self, monkeypatch):
        # a negative factor: C = I + G is indefinite, LAPACK refuses its
        # Cholesky, and the block's pivots come from the halving's
        # batched solves
        rng = np.random.default_rng(5)
        n = 16
        q = random_orthogonal(rng, n)
        h = (q * np.linspace(-2.0, 2.0, n + 1)[np.arange(n + 1) != n // 2]) @ q.T
        h = 0.5 * (h + h.T)
        pairs = [(u, u) for u in rng.standard_normal((n, n))]
        ref = mp_running_dets(h, pairs)
        seq = UpdateSequence.from_pairs(pairs)
        calls = count_linalg(monkeypatch, ("detdyn.updates", "detdyn.kernel"),
                             ("linalg.cholesky", "linalg.solve"))
        lp = det_product(h, seq)
        assert min(lp.factors) < 0.0
        assert calls[0] == ("detdyn.kernel", "cholesky")
        assert ("detdyn.updates", "solve") in calls
        assert worst_relative(product_dets(lp), ref) <= 1e-12
        assert worst_relative(det_sequence(h, seq).values, ref) <= 1e-12

    @pytest.mark.parametrize("route", [det_product, logdet_sequence, det_sequence])
    def test_spd_stream_takes_one_cholesky_per_block(self, route, rng, monkeypatch):
        # r = 3 n: three blocks, each one Cholesky and no halving solve
        n = 16
        h = random_spd(rng, n) / n
        h = 0.5 * (h + h.T)
        seq = UpdateSequence.symmetric(0.1 * rng.standard_normal((3 * n, n)))
        calls = count_linalg(monkeypatch, ("detdyn.updates", "detdyn.kernel"),
                             ("linalg.cholesky", "linalg.solve"))
        route(h, seq)
        assert calls == [("detdyn.kernel", "cholesky")] * 3


class TestDetProduct:
    def test_nonsingular_base_takes_no_svd(self, monkeypatch, rng):
        # the LU inverse's residual certifies H nonsingular, so no
        # singular-value test runs, and det H and H^{-1} still come from
        # LAPACK's LU as kernel.det and kernel.inverse give them
        n = 64
        h = np.eye(n) + rng.standard_normal((n, n)) / (2.0 * np.sqrt(n))
        seq = UpdateSequence.from_pairs(
            [(0.1 * rng.standard_normal(n), 0.1 * rng.standard_normal(n))
             for _ in range(4)])
        calls = count_factorizations(monkeypatch)
        lp = det_product(h, seq)
        assert calls == [("detdyn.kernel", "inv")]
        assert lp.base_det == det(h)

    def test_single_update(self):
        e1 = np.array([1.0, 0.0])
        lp = det_product(np.eye(2), UpdateSequence.from_pairs([(e1, e1)]))
        assert lp.factors == (2.0,)
        assert lp.final_det == 2.0

    def test_symmetric_product_matches_direct(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            seq = UpdateSequence.symmetric(
                [rng.standard_normal(n) for _ in range(int(rng.integers(1, 6)))]
            )
            lp = det_product(np.eye(n), seq, TOL9)
            direct = mp_det(np.eye(n) + seq.total())
            assert abs(lp.final_det - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_intermediate_singular_reported(self):
        h = np.diag([1.0, 1.0])
        seq = UpdateSequence.from_pairs([
            (np.array([1.0, 0.0]), np.array([-1.0, 0.0])),
            (np.array([0.0, 1.0]), np.array([0.0, 1.0])),
        ])
        with pytest.raises(IntermediateSingular) as exc:
            det_product(h, seq, TOL9)
        assert exc.value.step == 1
        # the same report when the guard trips inside a block: the fifth of
        # ten updates zeroes a diagonal entry, so M_5 is singular
        with pytest.raises(IntermediateSingular) as exc:
            det_product(np.eye(10), diagonal_stream([0.5] * 4 + [-1.0] + [0.5] * 5), TOL9)
        assert exc.value.step == 5

    def test_singular_final_allowed(self):
        # the last update may zero the determinant, no inverse is needed there
        h = np.diag([1.0, 1.0])
        seq = UpdateSequence.from_pairs([
            (np.array([1.0, 0.0]), np.array([-1.0, 0.0])),
        ])
        lp = det_product(h, seq, TOL9)
        assert lp.final_det == 0.0

    def test_singular_base_rejected(self):
        seq = UpdateSequence.from_pairs([(np.ones(2), np.ones(2))])
        with pytest.raises(IntermediateSingular) as exc:
            det_product(np.diag([1.0, 0.0]), seq, TOL9)
        assert exc.value.step == 0

    def test_complex_base_rejected(self):
        seq = UpdateSequence.from_pairs([(np.ones(2), np.ones(2))])
        with pytest.raises(ValueError, match="real H"):
            det_product(np.diag([1.0 + 1j, 2.0]), seq)

    def test_agrees_with_det_sequence(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 6))
            h = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            seq = random_sequence(rng, n, int(rng.integers(1, 5)))
            try:
                lp = det_product(h, seq, TOL9)
            except IntermediateSingular:
                continue
            tr = det_sequence(h, seq)
            assert abs(lp.final_det - tr.final) <= 1e-9 * max(1.0, abs(tr.final))


    def test_log_form_undefined_for_negative_factor(self):
        e1 = np.array([1.0, 0.0])
        lp = det_product(np.eye(2), UpdateSequence.from_pairs([(-3.0 * e1, e1)]))
        assert lp.factors == (-2.0,)
        with pytest.raises(ValueError, match="log decomposition"):
            lp.final_logdet


class TestLogDetSequence:
    def test_no_updates(self):
        tr = logdet_sequence(np.eye(3), UpdateSequence(base_dim=3))
        assert tr.base_logdet == 0.0
        assert tr.final_logdet == 0.0

    def test_two_orthogonal_steps(self):
        seq = UpdateSequence.symmetric([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        tr = logdet_sequence(np.eye(2), seq)
        assert np.allclose(tr.log_increments, [math.log(2.0)] * 2)
        assert abs(tr.final_logdet - 2.0 * math.log(2.0)) <= 1e-14

    def test_random_pd_matches_direct(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            g = rng.standard_normal((n, n))
            h = g @ g.T + 0.5 * np.eye(n)
            seq = UpdateSequence.symmetric(
                [rng.standard_normal(n) for _ in range(int(rng.integers(1, 6)))]
            )
            tr = logdet_sequence(h, seq, TOL9)
            direct = math.log(mp_det(h + seq.total()))
            assert abs(tr.final_logdet - direct) <= 1e-8

    def test_nonpositive_base(self):
        with pytest.raises(NonPositiveDeterminant) as exc:
            logdet_sequence(np.diag([-1.0, 1.0]), UpdateSequence(base_dim=2))
        assert exc.value.step == 0

    def test_complex_base_rejected(self):
        seq = UpdateSequence.from_pairs([(np.ones(2), np.ones(2))])
        with pytest.raises(ValueError, match="real H"):
            logdet_sequence(np.diag([2.0, 1.0 + 0j]), seq)

    def test_nonpositive_intermediate(self):
        seq = UpdateSequence.from_pairs([
            (np.array([1.0, 0.0]), np.array([-2.0, 0.0])),  # det -> -1
            (np.array([0.0, 1.0]), np.array([0.0, 1.0])),
        ])
        with pytest.raises(NonPositiveDeterminant) as exc:
            logdet_sequence(np.eye(2), seq)
        assert exc.value.step == 1
        # mid-block: the fifth of ten factors is -1 and passes the guard
        with pytest.raises(NonPositiveDeterminant) as exc:
            logdet_sequence(np.eye(10), diagonal_stream([0.5] * 4 + [-2.0] + [0.5] * 5))
        assert exc.value.step == 5

    def test_underflowing_base_keeps_log_form(self):
        # det(1e-3 I_128) underflows to 0.0, but the sign and log|det| of
        # one slogdet decide; det_product reports the same base log
        seq = UpdateSequence(base_dim=128)
        tr = logdet_sequence(1e-3 * np.eye(128), seq)
        assert tr.base_det == 0.0
        assert tr.base_logdet == pytest.approx(128 * math.log(1e-3), rel=1e-14)
        assert tr.final_logdet == tr.base_logdet
        assert det_product(1e-3 * np.eye(128), seq).base_logdet == tr.base_logdet
        with pytest.raises(NonPositiveDeterminant) as exc:
            logdet_sequence(-1e-3 * np.eye(127), UpdateSequence(base_dim=127))
        assert exc.value.step == 0

    def test_running_det_underflows_mid_stream(self):
        # det(1e-2 I_128) = 1e-256, and each of the 128 factors is about
        # 1e-2: the running determinant reads 0.0 from step 34 on, the
        # log form goes on
        n = 128
        h = 1e-2 * np.eye(n)
        seq = diagonal_stream([-0.99e-2] * n)
        tr = logdet_sequence(h, seq)
        assert tr.final_det == 0.0
        sign, want = np.linalg.slogdet(h + seq.total())
        assert sign == 1.0
        assert tr.final_logdet == pytest.approx(want, rel=1e-12)
        lp = det_product(h, seq)
        assert lp.base_logdet == tr.base_logdet and lp.factors == tr.factors

    def test_monotone_in_symmetric_setting(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            seq = UpdateSequence.symmetric(
                [rng.standard_normal(n) for _ in range(5)]
            )
            tr = logdet_sequence(np.eye(n), seq)
            assert all(x >= 0.0 for x in tr.log_increments)


class TestContributionAnalysis:
    def test_repeated_direction_diminishes(self):
        e1 = np.array([1.0, 0.0])
        steps = contribution_analysis(UpdateSequence.symmetric([e1, e1]))
        assert abs(steps[0].log_increment - math.log(2.0)) <= 1e-14
        assert abs(steps[1].log_increment - math.log(1.5)) <= 1e-14
        assert steps[1].log_increment < steps[0].log_increment

    def test_orthogonal_directions_equal(self):
        seq = UpdateSequence.symmetric([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        steps = contribution_analysis(seq)
        assert abs(steps[0].log_increment - steps[1].log_increment) <= 1e-14

    def test_weights_reproduce_quadratic_form(self, rng):
        us = [rng.standard_normal(4) for _ in range(6)]
        us = [u / np.sqrt(u @ u) for u in us]
        steps = contribution_analysis(UpdateSequence.symmetric(us))
        for s in steps:
            assert abs(sum(s.weights) - s.quadratic_form) <= 1e-10 * max(
                1.0, s.quadratic_form
            )
            assert s.log_increment >= 0.0

    def test_total_matches_logdet(self, rng):
        us = [rng.standard_normal(3) for _ in range(4)]
        seq = UpdateSequence.symmetric(us)
        steps = contribution_analysis(seq)
        total = sum(s.log_increment for s in steps)
        direct = math.log(mp_det(np.eye(3) + seq.total()))
        assert abs(total - direct) <= 1e-10

    def test_asymmetric_rejected(self):
        seq = UpdateSequence.from_pairs([(np.array([1.0, 0.0]), np.array([0.0, 1.0]))])
        with pytest.raises(NonSymmetricUpdate):
            contribution_analysis(seq)

    @pytest.mark.parametrize("n", [1, 4, 8, 16, 72])
    def test_batched_steps_are_the_loops(self, n, monkeypatch):
        # every prefix I + Delta_{i-1} from one running sum and one batched
        # eigh, bit for bit the step-by-step loop; at n = 72 the 144 steps
        # go in three chunks
        rng = np.random.default_rng(n)
        pool = rng.standard_normal((max(1, n // 2), n))
        us = [pool[rng.integers(len(pool))] if rng.random() < 0.5
              else rng.standard_normal(n) for _ in range(2 * n)]
        want, acc = [], np.eye(n)
        for u in us:
            lam, vecs = np.linalg.eigh(acc)
            alpha = vecs.T @ u
            w = alpha * alpha / lam
            q = float(np.sum(w))
            want.append(updates.ContributionStep(
                q, tuple(float(x) for x in lam), tuple(float(x) for x in w), math.log1p(q)))
            acc = acc + np.outer(u, u)
        calls = count_linalg(monkeypatch, ("detdyn.updates",), ("linalg.eigh",))
        got = contribution_analysis(UpdateSequence.symmetric(us))
        assert got == tuple(want)
        chunk = updates._STACK_FLOATS // (n * n)
        assert len(calls) == -(-len(us) // chunk)
        if n < 72:
            assert len(calls) == 1

    def test_empty_sequence(self):
        assert contribution_analysis(UpdateSequence(base_dim=3)) == ()

    def test_no_solve(self, rng, monkeypatch):
        # q is the sum of the step's own weights: I + Delta is SPD, so a
        # solve with its singularity test has nothing to add
        solves = count_calls(monkeypatch, "solve")
        pool = [rng.standard_normal(4) for _ in range(2)]
        steps = contribution_analysis(UpdateSequence.symmetric(pool * 4))
        assert solves == []
        assert len(steps) == 8


class TestSequenceValidation:
    def test_mismatched_update_dim(self):
        with pytest.raises(DimensionMismatch):
            UpdateSequence(base_dim=2, updates=((np.ones(3), np.ones(3)),))

    def test_empty_pairs_have_no_dimension(self):
        with pytest.raises(DimensionMismatch):
            UpdateSequence.from_pairs([])

    @pytest.mark.parametrize("r", [0, 1, 7])
    def test_total_is_the_outer_product_sum(self, rng, r):
        # U^T V sums in BLAS order: each entry is within 2 r eps of the
        # sequential sum, relative to the sum of the terms' magnitudes
        pairs = [(rng.standard_normal(4), rng.standard_normal(4)) for _ in range(r)]
        terms = np.array([np.outer(u, v) for u, v in pairs]).reshape(r, 4, 4)
        total = UpdateSequence(base_dim=4, updates=tuple(pairs)).total()
        loop = np.zeros((4, 4))
        for t in terms:
            loop += t
        bound = 2 * r * np.finfo(float).eps * np.abs(terms).sum(axis=0)
        assert total.shape == (4, 4) and np.all(np.abs(total - loop) <= bound)

    def test_sequence_vs_matrix_dim(self):
        seq = UpdateSequence.symmetric([np.ones(3)])
        with pytest.raises(DimensionMismatch):
            det_sequence(np.eye(2), seq)

    @pytest.mark.parametrize("u, v", [
        (np.array([1j, 0.0]), np.array([1.0, 0.0])),
        (np.array([1.0, 0.0]), [0.0, 1j]),
    ])
    def test_complex_vectors_rejected(self, u, v):
        # det_sequence(I, [([1j, 0], [1, 0])]) used to return 1.0, dropping
        # the imaginary part of det = 1 + 1j with only a ComplexWarning
        with pytest.raises(ValueError, match="complex"):
            updates.RankOneUpdate(u, v)
        with pytest.raises(ValueError, match="complex"):
            det_sequence(np.eye(2), UpdateSequence.from_pairs([(u, v)]))
