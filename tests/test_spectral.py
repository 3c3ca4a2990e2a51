import numpy as np
import pytest

from detdyn import (
    BaseNotHurwitz,
    EigenvalueOnContour,
    ResolventSingular,
    Tolerance,
    UpdateSequence,
    charpoly_perturbed_eval,
    secular_value,
    stability_preserved,
)

from conftest import mp_det, random_hurwitz, rhp_count, scaled_unstable

TOL9 = Tolerance(rel=1e-9)

EMPTY2 = UpdateSequence(base_dim=2)


def direct_perturbed_det(a, seq, lam):
    n = a.shape[0]
    m = complex(lam) * np.eye(n, dtype=complex) - a - seq.total()
    return mp_det(m)


class TestCharpolyPerturbedEval:
    def test_empty_sequence_is_charpoly(self, rng):
        a = rng.standard_normal((4, 4))
        seq = UpdateSequence(base_dim=4)
        for lam in (0.0, 1.5 + 0.5j, -2.0 + 1.0j):
            got = charpoly_perturbed_eval(a, seq, lam)
            ref = direct_perturbed_det(a, seq, lam)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_nullspace_update_at_zero(self):
        # det(0*I - A0) = (-1)^3 det(A0) = -2c for the worked 3x3 example
        a = np.diag([-1.0, -2.0, 0.0])
        for c in (-1.0, 0.5, 3.0):
            seq = UpdateSequence.from_pairs(
                [(np.array([0.0, 0.0, 1.0]), np.array([0.3, -1.2, c]))]
            )
            got = charpoly_perturbed_eval(a, seq, 0.0)
            assert abs(got - (-2.0 * c)) <= 1e-12

    def test_matches_direct_determinant(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            a = rng.uniform(-1.0, 1.0, (n, n))
            r = int(rng.integers(1, 4))
            seq = UpdateSequence.from_pairs(
                [(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)) for _ in range(r)]
            )
            for _ in range(20):
                lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                got = charpoly_perturbed_eval(a, seq, lam)
                ref = direct_perturbed_det(a, seq, lam)
                assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))


class TestSecularValue:
    def test_root_detects_moved_eigenvalue(self):
        a = np.diag([-1.0, -2.0])
        u = np.array([1.0, 0.0])
        v = np.array([3.0, 0.0])
        ev = secular_value(a, EMPTY2, u, v, 2.0)
        assert abs(ev.value) <= 1e-14  # 1 - 3/(2+1)

    def test_plain_value(self):
        a = np.diag([-1.0, -2.0])
        ev = secular_value(a, EMPTY2, np.array([1.0, 0.0]), np.array([3.0, 0.0]), 0.0)
        assert abs(ev.value - (-2.0)) <= 1e-14

    def test_resolvent_singular(self):
        a = np.diag([-1.0, -2.0])
        with pytest.raises(ResolventSingular):
            secular_value(a, EMPTY2, np.ones(2), np.ones(2), -1.0, TOL9)

    def test_cond_flag_reads_smallest_singular_value(self):
        # lambda I - A = [[1, 1e4], [0, 1]]: both LU pivots are 1, but
        # sigma_min ~ 1e-4 sits below sqrt(eps) * max|.| ~ 1.5e-4
        u, v = np.ones(2), np.ones(2)
        skewed = np.array([[-1.0, -1e4], [0.0, -1.0]])
        assert secular_value(skewed, EMPTY2, u, v, 0.0).resolvent_cond_flag
        assert not secular_value(np.diag([-1.0, -2.0]), EMPTY2, u, v, 0.0).resolvent_cond_flag

    def test_vanishes_at_oracle_eigenvalues(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 6))
            a = random_hurwitz(rng, n)
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            base_eigs = np.linalg.eigvals(a)
            seq = UpdateSequence(base_dim=n)
            for mu in np.linalg.eigvals(a + np.outer(u, v)):
                if np.min(np.abs(base_eigs - mu)) < 1e-8:
                    continue
                ev = secular_value(a, seq, u, v, complex(mu))
                assert abs(ev.value) <= 1e-7

    def test_prefix_sequence(self, rng):
        # a root of the secular function on top of a prefix is an
        # eigenvalue of the fully updated matrix
        n = 4
        a = random_hurwitz(rng, n)
        prefix_pairs = [(rng.standard_normal(n), rng.standard_normal(n))]
        prefix = UpdateSequence.from_pairs(prefix_pairs)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        full = a + prefix.total() + np.outer(u, v)
        base_eigs = np.linalg.eigvals(a + prefix.total())
        for mu in np.linalg.eigvals(full):
            if np.min(np.abs(base_eigs - mu)) < 1e-8:
                continue
            ev = secular_value(a, prefix, u, v, complex(mu))
            assert abs(ev.value) <= 1e-7


def secant_refine(a, u, v, z0, steps=30):
    """Local secant polish of the secular function from a start point;
    steps are clamped so the iteration cannot tunnel past a pole."""
    seq = UpdateSequence(base_dim=a.shape[0])

    def f(z):
        return secular_value(a, seq, u, v, z).value

    z1 = z0 + 1e-5 * (1.0 + abs(z0))
    f0, f1 = f(z0), f(z1)
    for _ in range(steps):
        denom = f1 - f0
        if denom == 0:
            break
        step = -f1 * (z1 - z0) / denom
        cap = 0.05 * (1.0 + abs(z1))
        if abs(step) > cap:
            step *= cap / abs(step)
        z2 = z1 + step
        z0, f0, z1, f1 = z1, f1, z2, f(z2)
        if abs(z1 - z0) <= 1e-12 * (1.0 + abs(z1)):
            break
    return z1


class TestSecularRoots:
    def test_refinement_lands_on_oracle(self, rng):
        hits = 0
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a = random_hurwitz(rng, n)
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            base_eigs = np.linalg.eigvals(a)
            for mu in np.linalg.eigvals(a + np.outer(u, v)):
                if np.min(np.abs(base_eigs - mu)) < 1e-6:
                    continue
                refined = secant_refine(a, u, v, complex(mu))
                assert abs(refined - mu) <= 1e-6
                hits += 1
        assert hits > 10


class TestStabilityPreserved:
    def test_trivial_zero_update(self):
        cert = stability_preserved(-np.eye(2), np.zeros(2), np.zeros(2))
        assert cert.base_hurwitz
        assert cert.winding == 0
        assert cert.stable
        assert cert.rhp_eigs_oracle == 0

    def test_destabilizing_update(self):
        a = np.diag([-1.0, -2.0])
        cert = stability_preserved(a, np.array([1.0, 0.0]), np.array([3.0, 0.0]))
        assert cert.winding == 1
        assert not cert.stable
        assert cert.rhp_eigs_oracle == 1

    def test_base_not_hurwitz(self):
        with pytest.raises(BaseNotHurwitz):
            stability_preserved(np.diag([1.0, -1.0]), np.zeros(2), np.zeros(2))

    def test_base_not_hurwitz_n16_large_scale(self):
        # a scale at which root finding on the characteristic polynomial
        # diverges for n = 16
        for seed in range(1, 6):
            a = scaled_unstable(np.random.default_rng(seed), 16, 455.0)
            with pytest.raises(BaseNotHurwitz):
                stability_preserved(a, np.zeros(16), np.zeros(16), tol=TOL9)

    def test_eigenvalue_on_contour(self):
        # A + uv^T = diag(0, -2): f(0) = 0 exactly
        a = np.diag([-1.0, -2.0])
        with pytest.raises(EigenvalueOnContour):
            stability_preserved(a, np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_radius_dominates_spectrum(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a = random_hurwitz(rng, n)
            u = 0.5 * rng.standard_normal(n)
            v = 0.5 * rng.standard_normal(n)
            pert = a + np.outer(u, v)
            if np.min(np.abs(np.linalg.eigvals(pert).real)) < 0.05:
                continue
            cert = stability_preserved(a, u, v)
            rad = max(np.max(np.abs(np.linalg.eigvals(a))),
                      np.max(np.abs(np.linalg.eigvals(pert))))
            assert rad < cert.contour_radius

    def test_winding_matches_oracle(self, rng):
        # exhaustive run lives in the acceptance suite; spot-check here
        checked = 0
        while checked < 25:
            n = int(rng.integers(2, 7))
            a = random_hurwitz(rng, n)
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            pert = a + np.outer(u, v)
            if np.min(np.abs(np.linalg.eigvals(pert).real)) < 0.05:
                continue
            cert = stability_preserved(a, u, v)
            assert cert.winding == rhp_count(pert)
            assert cert.stable == (rhp_count(pert) == 0)
            checked += 1
