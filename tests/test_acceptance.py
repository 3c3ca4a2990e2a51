"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them) and enforcing the stated tolerance."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from detdyn import (
    CompatibilityViolated,
    IndexGreaterThanOne,
    IntermediateSingular,
    Tolerance,
    UpdateSequence,
    build_gramian,
    charpoly_perturbed_eval,
    covariance_trace,
    det,
    det_product,
    det_rank_one,
    det_sequence,
    eigenvalues,
    gramian_pdet_growth,
    group_inverse,
    growth_from_directions,
    info_filter_trace,
    inverse,
    logdet_sequence,
    pdet,
    pdet_lemma,
    regularized_limit,
    secular_value,
    stability_preserved,
)
from detdyn.cli import emit_ellipse_svg

from conftest import (
    exact_lemma_instance,
    mp_det,
    np_pdet,
    random_hurwitz,
    random_index1,
    random_spd,
    random_unimodular_int,
    rhp_count,
)
from test_spectral import secant_refine

TOL9 = Tolerance(rel=1e-9)

A_SING = np.diag([-1.0, -2.0, 0.0])
A_DEMO = np.array([[0.72, 0.55], [-0.18, 0.78]])
B_DEMO = np.array([[1.0], [0.15]])


def report(name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name}")
    assert not failures, failures[:5]


def test_criterion_1_singular_worked_example():
    bad = []
    res = pdet(A_SING, TOL9)
    if not (res.value == 2.0 and res.nullity == 1):
        bad.append(f"pdet: {res}")
    gi = group_inverse(A_SING, TOL9)
    if np.max(np.abs(gi.h_drazin - np.diag([-1.0, -0.5, 0.0]))) > 1e-12:
        bad.append("H_drazin off")
    if np.max(np.abs(gi.projector - np.diag([0.0, 0.0, 1.0]))) > 1e-12:
        bad.append("P0 off")
    u_s = np.array([1.0, 0.0, 0.0])
    for p in (0.0, 0.25, 0.5, 2.0):
        v_s = np.array([p, 0.7, 0.0])
        quad = float(v_s @ gi.h_drazin @ u_s)
        if abs(quad - (-p)) > 1e-12:
            bad.append(f"v^T H^D u at p={p}: {quad}")
        got = pdet_lemma(A_SING, u_s, v_s, TOL9)
        if abs(got - 2.0 * (1.0 - p)) > 1e-12:
            bad.append(f"pdet_lemma at p={p}: {got}")
    u_0 = np.array([0.0, 0.0, 1.0])
    for c in (-1.0, 0.5, 3.0):
        v_0 = np.array([0.3, -1.2, c])
        got = det_rank_one(A_SING, (u_0, v_0))
        if abs(got - 2.0 * c) > 1e-12:
            bad.append(f"det(A0) at c={c}: {got}")
        for p in (0.0, 0.25, 0.5, 2.0):
            seq = UpdateSequence.from_pairs(
                [(u_0, v_0), (u_s, np.array([p, 0.7, 0.0]))]
            )
            got2 = det_sequence(A_SING, seq).final
            if abs(got2 - 2.0 * c * (1.0 - p)) > 1e-12:
                bad.append(f"sequential det at c={c}, p={p}: {got2}")
    report("criterion 1: singular 3x3 worked example (abs 1e-12)", bad)


def test_criterion_2_rank_one_identity_property_suite():
    rng = np.random.default_rng(101)
    bad = []
    for k in range(1000):
        n = int(rng.integers(1, 9))
        if k % 4 == 0 and n > 1:
            r = int(rng.integers(1, n))
            h = (rng.uniform(-1, 1, (n, r)) @ rng.uniform(-1, 1, (r, n))) / np.sqrt(r)
        else:
            h = rng.uniform(-1, 1, (n, n))
        u = rng.uniform(-1, 1, n)
        v = rng.uniform(-1, 1, n)
        direct = det(h + np.outer(u, v))
        err = abs(det_rank_one(h, (u, v)) - direct)
        if err > 1e-9 * max(1.0, abs(direct)):
            bad.append(f"instance {k}: err {err:.2e}")
    report("criterion 2: rank-one determinant identity on 1000 instances "
           "(rel 1e-9)", bad)


def test_criterion_3_sequence_product_log_equivalence():
    rng = np.random.default_rng(202)
    bad = []
    n_product = n_logdet = 0
    for k in range(300):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, 7))
        if k % 5 == 0:
            rk = int(rng.integers(1, n))
            h = (rng.uniform(-1, 1, (n, rk)) @ rng.uniform(-1, 1, (rk, n))) / np.sqrt(rk)
        else:
            h = rng.uniform(-1, 1, (n, n))
        seq = UpdateSequence.from_pairs(
            [(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)) for _ in range(r)]
        )
        direct = det(h + seq.total())
        trace = det_sequence(h, seq)
        if abs(trace.final - direct) > 1e-9 * max(1.0, abs(direct)):
            bad.append(f"additive {k}")
        try:
            lp = det_product(h, seq, TOL9)
        except IntermediateSingular:
            lp = None
        if lp is not None:
            n_product += 1
            if abs(lp.final_det - direct) > 1e-9 * max(1.0, abs(direct)):
                bad.append(f"product {k}")
        if all(d > 1e-8 for d in trace.values):
            n_logdet += 1
            ld = logdet_sequence(h, seq, TOL9)
            if abs(ld.final_logdet - math.log(direct)) > 1e-8:
                bad.append(f"logdet {k}")
    if n_product < 200 or n_logdet < 30:
        bad.append(f"too few applicable instances ({n_product}, {n_logdet})")
    report("criterion 3: additive/multiplicative/log equivalence on 300 "
           "sequences", bad)


def test_criterion_4_drazin_axiom_suite():
    rng = np.random.default_rng(303)
    bad = []
    for k in range(500):
        n = int(rng.integers(2, 9))
        q = int(rng.integers(1, n))
        h, _, _, _ = random_index1(rng, n, q)
        gi = group_inverse(h, TOL9)
        hd = gi.h_drazin
        scale = 1.0 + float(np.max(np.abs(h))) * float(np.max(np.abs(hd)))
        if gi.rank_q != q:
            bad.append(f"rank at {k}: {gi.rank_q} != {q}")
        if np.max(np.abs(h @ hd - hd @ h)) > 1e-9 * scale:
            bad.append(f"commute at {k}")
        if np.max(np.abs(hd @ h @ hd - hd)) > 1e-9 * (1.0 + np.max(np.abs(hd))):
            bad.append(f"inner at {k}")
        if np.max(np.abs(h @ h @ hd - h)) > 1e-9 * (1.0 + np.max(np.abs(h))):
            bad.append(f"index axiom at {k}")
    for k in range(100):
        n = int(rng.integers(2, 7))
        s, s_inv = random_unimodular_int(rng, n)
        nil = np.zeros((n, n))
        for i in range(n - 1):
            nil[i, i + 1] = float(rng.integers(1, 3))
        h = s @ nil @ s_inv
        try:
            group_inverse(h, TOL9)
            bad.append(f"nilpotent {k} not rejected")
        except IndexGreaterThanOne:
            pass
    report("criterion 4: Drazin axioms on 500 constructions, nilpotent "
           "rejection (rel 1e-9)", bad)


def _lemma_instances(count):
    rng = np.random.default_rng(404)
    out = []
    for _ in range(count):
        q = int(rng.integers(1, 5))
        nu = int(rng.integers(1, 4))
        r = int(rng.integers(1, 4))
        out.append(exact_lemma_instance(rng, q + nu, q, r) + (rng,))
    return out


LEMMA_INSTANCES = _lemma_instances(300)


def test_criterion_5_singular_determinant_identity():
    bad = []
    rng = np.random.default_rng(505)
    for k, (h, u, v, _, _) in enumerate(LEMMA_INSTANCES):
        got = pdet_lemma(h, u, v, TOL9)
        ref = np_pdet(h + u @ v.T)
        if abs(got - ref) > 1e-8 * max(1.0, abs(ref)):
            bad.append(f"identity {k}: {got} vs {ref}")
    rejected = 0
    for k, (h, u, v, _, _) in enumerate(LEMMA_INSTANCES[:60]):
        gi = group_inverse(h, TOL9)
        null_dir = gi.projector @ rng.standard_normal(h.shape[0])
        u_bad = u.copy()
        u_bad[:, 0] += null_dir
        try:
            pdet_lemma(h, u_bad, v, TOL9)
        except CompatibilityViolated:
            rejected += 1
    if rejected != 60:
        bad.append(f"only {rejected}/60 incompatible instances rejected")
    report("criterion 5: pdet lemma matches independent pdet on 300 "
           "instances (rel 1e-8)", bad)


def test_criterion_6_regularized_limit():
    bad = []
    for k, (h, u, v, _, _) in enumerate(LEMMA_INSTANCES):
        target = pdet_lemma(h, u, v, TOL9)
        res = regularized_limit(h, u, v, tol=TOL9)
        if not res.converged:
            bad.append(f"not converged at {k}")
        elif abs(res.estimate - target) > 1e-6 * max(1.0, abs(target)):
            bad.append(f"limit {k}: {res.estimate} vs {target}")
    report("criterion 6: regularized limit reaches the lemma value "
           "(rel 1e-6 at eps 1e-8)", bad)


def test_criterion_7_spectral_suite():
    rng = np.random.default_rng(707)
    bad = []
    # characteristic polynomial decomposition
    for k in range(30):
        n = int(rng.integers(2, 6))
        a = rng.uniform(-1, 1, (n, n))
        seq = UpdateSequence.from_pairs(
            [(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
             for _ in range(int(rng.integers(1, 4)))]
        )
        shifted = a + seq.total()
        for _ in range(20):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            direct = mp_det(lam * np.eye(n, dtype=complex) - shifted)
            got = charpoly_perturbed_eval(a, seq, lam)
            if abs(got - direct) > 1e-8 * max(1.0, abs(direct)):
                bad.append(f"charpoly eval {k}")
                break
    # secular roots against the oracle eigensolver
    roots_checked = 0
    for k in range(40):
        n = int(rng.integers(2, 6))
        a = random_hurwitz(rng, n)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        base_eigs = np.linalg.eigvals(a)
        for mu in np.linalg.eigvals(a + np.outer(u, v)):
            if np.min(np.abs(base_eigs - mu)) < 1e-6:
                continue
            ev = secular_value(a, UpdateSequence(base_dim=n), u, v, complex(mu))
            if abs(ev.value) > 1e-7:
                bad.append(f"secular value {k}: {abs(ev.value):.2e}")
            refined = secant_refine(a, u, v, complex(mu))
            if abs(refined - mu) > 1e-6:
                bad.append(f"secular root {k}")
            roots_checked += 1
    if roots_checked < 100:
        bad.append("too few secular roots checked")
    # winding certificates
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 7))
        a = random_hurwitz(rng, n)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        pert = a + np.outer(u, v)
        if np.min(np.abs(np.linalg.eigvals(pert).real)) < 0.05:
            continue
        cert = stability_preserved(a, u, v)
        oracle = rhp_count(pert)
        if cert.winding != oracle:
            bad.append(f"winding {checked}: {cert.winding} vs {oracle}")
        if cert.stable != (oracle == 0):
            bad.append(f"verdict {checked}")
        checked += 1
    report("criterion 7: spectral decomposition, secular roots, and 200 "
           "winding certificates", bad)


def test_criterion_8_covariance_and_info_filter():
    rng = np.random.default_rng(808)
    bad = []
    for k in range(200):
        n = int(rng.integers(2, 6))
        p = random_spd(rng, n)
        us = [rng.standard_normal(n) for _ in range(int(rng.integers(1, 9)))]
        tr = covariance_trace(p, us, TOL9)
        delta = tr.logdets[-1] - tr.logdets[0]
        if not (tr.lower_bound <= delta + 1e-10 and delta <= tr.upper_bound + 1e-10):
            bad.append(f"sandwich {k}")
        direct = math.log(det(p + sum(np.outer(u, u) for u in us)))
        if abs(tr.logdets[-1] - direct) > 1e-8:
            bad.append(f"cov identity {k}")
    for k in range(200):
        n = int(rng.integers(2, 6))
        p = random_spd(rng, n)
        vs = [rng.standard_normal(n) for _ in range(int(rng.integers(1, 9)))]
        tr = info_filter_trace(p, vs, TOL9)
        if not all(b < a for a, b in zip(tr.dets, tr.dets[1:])):
            bad.append(f"not strictly decreasing {k}")
        if tr.beta is None or tr.beta <= 0.0:
            bad.append(f"beta {k}")
        elif tr.dets[-1] > tr.geometric_bound * (1.0 + 1e-12):
            bad.append(f"geometric bound {k}")
        info = inverse(p) + sum(np.outer(v, v) for v in vs)
        direct = det(inverse(info))
        if abs(tr.dets[-1] - direct) > 1e-8 * max(1.0, direct):
            bad.append(f"info identity {k}")
    report("criterion 8: covariance sandwich and information-filter "
           "contraction on 200 instances each", bad)


def test_criterion_9_gramian_growth_and_figure(tmp_path):
    bad = []
    g = build_gramian(A_DEMO, B_DEMO, 4)
    growth = gramian_pdet_growth(g, tol=TOL9)
    if growth.rank_r != 2:
        bad.append(f"rank {growth.rank_r}")
    if any(r > 1e-10 for r in growth.identity_residuals):
        bad.append(f"identity residual {max(growth.identity_residuals):.2e}")
    direct = det(g.w)
    eigs = [z.real for z in eigenvalues(g.w, TOL9).eigenvalues]
    eigenproduct = float(np.prod([x for x in eigs if abs(x) > 1e-9]))
    for name, val in (("norm_det", growth.normalized_det_values[-1]),
                      ("fac_prod", growth.factor_product_values[-1]),
                      ("direct", direct),
                      ("eigenproduct", eigenproduct)):
        if abs(val - growth.pdet_estimate) > 1e-6 * abs(growth.pdet_estimate):
            bad.append(f"{name} disagrees: {val} vs {growth.pdet_estimate}")
    if growth.log_pdet is None or not math.isfinite(growth.log_pdet):
        bad.append("log_pdet missing")
    svg_a = tmp_path / "plot1.svg"
    svg_b = tmp_path / "plot2.svg"
    emit_ellipse_svg(g, 0.05, svg_a)
    emit_ellipse_svg(g, 0.05, svg_b)
    if svg_a.read_bytes() != svg_b.read_bytes():
        bad.append("svg not byte-deterministic")
    root = ET.parse(svg_a).getroot()
    ellipses = root.findall(".//{http://www.w3.org/2000/svg}ellipse")
    if len(ellipses) != 5:
        bad.append(f"{len(ellipses)} ellipses")
    areas = [float(e.get("data-area")) for e in ellipses]
    if not all(b > a for a, b in zip(areas, areas[1:])):
        bad.append("areas not strictly increasing")
    report("criterion 9: regularized Gramian growth on the 2-state demo "
           "system plus SVG structure", bad)


def test_criterion_10_reindexing_invariance():
    rng = np.random.default_rng(1010)
    bad = []
    g = build_gramian(A_DEMO, B_DEMO, 4)
    base = gramian_pdet_growth(g, tol=TOL9)
    for k in range(5):
        perm = rng.permutation(len(g.directions))
        if np.array_equal(perm, np.arange(len(g.directions))):
            continue
        dirs = [g.directions[i] for i in perm]
        other = growth_from_directions(dirs, 2, tol=TOL9)
        w_perm = sum(np.outer(u, u) for u in dirs)
        if np.max(np.abs(w_perm - g.w)) > 1e-10 * np.max(np.abs(g.w)):
            bad.append(f"W changed under perm {k}")
        if other.rank_r != base.rank_r:
            bad.append(f"rank changed under perm {k}")
        if abs(other.pdet_estimate - base.pdet_estimate) > 1e-10 * base.pdet_estimate:
            bad.append(f"pdet changed under perm {k}")
        if np.allclose(other.factors_per_eps[-1], base.factors_per_eps[-1]):
            bad.append(f"factors identical under perm {k}")
    report("criterion 10: direction reindexing leaves W, rank, pdet "
           "unchanged (rel 1e-10)", bad)
