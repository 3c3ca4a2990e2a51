import math

import mpmath
import numpy as np
import pytest

from detdyn import (
    DimensionMismatch,
    IntermediateSingular,
    NonPositiveDeterminant,
    NonSymmetricUpdate,
    Tolerance,
    UpdateSequence,
    contribution_analysis,
    det_product,
    det_rank_one,
    det_sequence,
    logdet_sequence,
)

from conftest import count_calls, mp_det
from test_kernel import RANK4

TOL9 = Tolerance(rel=1e-9)


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
        # M_3 = I is invertible, yet the walk stays on the adjugate route
        adj = count_calls(monkeypatch, "adjugate")
        e = np.eye(4)
        seq = UpdateSequence.symmetric([e[1], e[2], e[3], e[0]])
        tr = det_sequence(np.diag([1.0, 0.0, 0.0, 0.0]), seq)
        assert len(adj) == 4
        assert tr.values == (0.0, 0.0, 0.0, 1.0, 2.0)

    def test_singular_intermediate_switches_to_adjugate(self, monkeypatch):
        # M_1 = diag(0, 1) is singular: steps 2 and 3 take the adjugate,
        # step 3 although M_2 = I is invertible again
        adj = count_calls(monkeypatch, "adjugate")
        e1, e2 = np.eye(2)
        seq = UpdateSequence.from_pairs([(e1, -e1), (e1, e1), (e2, e2)])
        tr = det_sequence(np.eye(2), seq)
        assert len(adj) == 2
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


class TestDetProduct:
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

    def test_nonpositive_intermediate(self):
        seq = UpdateSequence.from_pairs([
            (np.array([1.0, 0.0]), np.array([-2.0, 0.0])),  # det -> -1
            (np.array([0.0, 1.0]), np.array([0.0, 1.0])),
        ])
        with pytest.raises(NonPositiveDeterminant) as exc:
            logdet_sequence(np.eye(2), seq)
        assert exc.value.step == 1

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


class TestSequenceValidation:
    def test_mismatched_update_dim(self):
        with pytest.raises(DimensionMismatch):
            UpdateSequence(base_dim=2, updates=((np.ones(3), np.ones(3)),))

    def test_sequence_vs_matrix_dim(self):
        seq = UpdateSequence.symmetric([np.ones(3)])
        with pytest.raises(DimensionMismatch):
            det_sequence(np.eye(2), seq)
