"""The ``cli`` workload: one ``python -m detdyn.cli <kind>`` subprocess per op.

Scenarios are small (n <= 6), cycle through all 14 kinds, and put the main
matrix in a CSV file every other cycle. Two scenarios in every cycle of 14
(one in seven) are built to violate a hypothesis and must exit 2 with the
matching error. Each report must be byte-identical to an in-process
``detdyn.cli.main`` run of the same scenario, and its headline values are
checked against 30-digit mpmath references computed from the scenario.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np

from common import (Call, Outcome, child_env, digits_of, is_error_of, op_rng, payload_of,
                    rel_digits)
from singular import (hurwitz, index1, lemma_inputs, max_rel_digits, drazin_ref,
                      gramian_refs, pdet_ref, stability_inputs, stable_system, DPS, to_mp)

BENCH = Path(__file__).resolve().parent
KINDS = ("det-update", "det-sequence", "logdet", "drazin", "pdet", "pdet-lemma",
         "regularized-limit", "secular", "stability", "covariance", "info-filter",
         "gramian", "ellipse-plot", "perturb-experiment")
VIOLATING = ("logdet", "drazin", "pdet-lemma", "regularized-limit", "stability")
EXPECTED_ERROR = {"logdet": "NonPositiveDeterminant", "drazin": "IndexGreaterThanOne",
                  "pdet-lemma": "CompatibilityViolated",
                  "regularized-limit": "CompatibilityViolated", "stability": "BaseNotHurwitz"}
MAIN_MATRIX = {"det-update": "H", "det-sequence": "H", "logdet": "H", "drazin": "H",
               "pdet": "H", "pdet-lemma": "H", "regularized-limit": "H", "secular": "A",
               "stability": "A", "covariance": "P", "info-filter": "P", "gramian": "A",
               "ellipse-plot": "A", "perturb-experiment": "A"}
LAYER = {"det-update": "updates", "det-sequence": "updates", "logdet": "updates",
         "pdet-lemma": "drazin", "regularized-limit": "drazin", "secular": "spectral",
         "stability": "spectral"}
TOL = {"tol_rel": 1e-9}
R = 3


def _spd(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T / n + np.eye(n)


def _lst(a):
    return np.asarray(a, dtype=float).tolist()


def _mpdet_sum(h, pairs):
    m = to_mp(h)
    for u, v in pairs:
        m += to_mp(np.reshape(u, (-1, 1))) * to_mp(np.reshape(v, (1, -1)))
    return mpmath.det(m)


def scenario(kind: str, rng, violate: bool, n: int):
    """(scenario document, references, expected error or None, rank-one terms)
    for a scenario of nominal size n (kinds with structure adjust it)."""
    inputs, params, refs = {}, {}, {}
    updates = 0
    with mpmath.workdps(DPS):
        if kind == "det-update":
            h, u, v = rng.standard_normal((n, n)), rng.standard_normal(n), rng.standard_normal(n)
            inputs = {"H": _lst(h), "u": _lst(u), "v": _lst(v)}
            refs["det"] = _mpdet_sum(h, [(u, v)])
            updates = 1
        elif kind in ("det-sequence", "logdet"):
            if kind == "logdet":
                h = _spd(rng, n)
                if violate:
                    w, q = np.linalg.eigh(h)
                    w[0] = -w[0]
                    h = q @ np.diag(w) @ q.T
                us = [rng.standard_normal(n) / math.sqrt(n) for _ in range(R)]
                vs = us
            else:
                h = rng.standard_normal((n, n))
                us = [rng.standard_normal(n) for _ in range(R)]
                vs = [rng.standard_normal(n) for _ in range(R)]
            inputs = {"H": _lst(h), "us": [_lst(x) for x in us], "vs": [_lst(x) for x in vs]}
            final = _mpdet_sum(h, list(zip(us, vs)))
            if kind == "logdet":
                if not violate:
                    refs["logdet.final"] = ("log", mpmath.log(final))
            else:
                refs["det.final"] = final
            updates = R
        elif kind in ("drazin", "pdet"):
            n = max(n, 3)
            h, s, j, nu = index1(rng, n, 1.0, index2=violate and kind == "drazin")
            inputs = {"H": _lst(h)}
            params = dict(TOL)
            if not violate:
                if kind == "drazin":
                    refs["rank_q"] = ("int", n - nu)
                    refs["nullity_nu"] = ("int", nu)
                    refs["H_drazin"] = ("matrix", drazin_ref(s, j, 1.0))
                else:
                    refs["pdet.value"] = pdet_ref(j, 1.0)
                    refs["pdet.nullity"] = ("int", nu)
        elif kind in ("pdet-lemma", "regularized-limit"):
            h, u, v, ref = lemma_inputs(rng, max(n, 3), 1.0, incompatible=violate)
            inputs = {"H": _lst(h), "U": _lst(u), "V": _lst(v)}
            params = dict(TOL)
            if not violate:
                refs["pdet_lemma.value" if kind == "pdet-lemma" else "estimate"] = ref()
            updates = 2
        elif kind in ("secular", "stability"):
            n = 2 * max(1, n // 2)
            if kind == "stability":
                a, u, v, winding = stability_inputs(rng, n, 1.0, unstable_base=violate)
                if not violate:
                    refs["winding"] = ("int", winding)
            else:
                a, _, _ = hurwitz(rng, n, 1.0)
                u, v = rng.standard_normal(n), rng.standard_normal(n)
                lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                params = {"lambda": [lam.real, lam.imag]}
                m = mpmath.mpc(lam) * mpmath.eye(n) - to_mp(a)
                x = mpmath.lu_solve(m, to_mp(u.reshape(-1, 1)))
                refs["secular.value"] = ("complex", 1 - sum(mpmath.mpf(v[i]) * x[i] for i in range(n)))
            inputs = {"A": _lst(a), "u": _lst(u), "v": _lst(v)}
            updates = 1
        elif kind in ("covariance", "info-filter"):
            p = _spd(rng, n)
            vecs = [rng.standard_normal(n) / math.sqrt(n) for _ in range(R)]
            inputs = {"P": _lst(p), ("us" if kind == "covariance" else "vs"): [_lst(x) for x in vecs]}
            if kind == "covariance":
                refs["logdet"] = ("log", mpmath.log(_mpdet_sum(p, list(zip(vecs, vecs)))))
            else:
                info = to_mp(p) ** -1
                for x in vecs:
                    info += to_mp(x.reshape(-1, 1)) * to_mp(x.reshape(1, -1))
                refs["det"] = 1 / mpmath.det(info)
            updates = R
        else:
            if kind == "ellipse-plot":
                n = 2
            a, b = stable_system(rng, n, 1.0)
            horizon = n if kind != "ellipse-plot" else 3
            inputs = {"A": _lst(a), "B": _lst(b)}
            params = {"horizon": horizon}
            updates = horizon
            if kind == "ellipse-plot":
                params["eps"] = 0.05
                w = mpmath.eye(2) * mpmath.mpf(0.05)
                x = to_mp(b)
                for _ in range(horizon):
                    w += x * x.T
                    x = to_mp(a) * x
                refs["area"] = mpmath.pi * mpmath.sqrt(mpmath.det(w))
            else:
                params.update(TOL)
                _, rank, pd = gramian_refs(a, b, horizon, TOL["tol_rel"])
                if kind == "gramian":
                    refs["rank_r"] = ("int", rank)
                    refs["pdet.estimate"] = pd
                else:
                    params.update({"noise_scale": 0.1, "trials": 4,
                                   "seed": int(rng.integers(2 ** 31))})
                    refs["nominal.rank"] = ("int", rank)
                    refs["nominal.pdet"] = pd
                    updates = 5 * horizon
    doc = {"kind": kind, "inputs": inputs, "parameters": params}
    return doc, refs, (EXPECTED_ERROR[kind] if violate else None), updates


def _values(text: str) -> dict:
    """Fields of a report: ``key: value`` lines, the named fields of
    ``step k:`` lines (the last step wins) and echoed matrices."""
    out = {}
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.startswith("matrix ") and line.endswith("):"):
            size = int(line.split("(")[1].split("x")[0])
            out[line.split()[1]] = np.array(
                [[float(x) for x in row.split(",")] for row in lines[i + 1:i + 1 + size]])
        elif line.startswith("step "):
            toks = line.split()
            for key, val in zip(toks[2:], toks[3:]):
                if key.endswith(":"):
                    out[key[:-1]] = val
        elif ": " in line:
            key, val = line.split(": ", 1)
            out[key] = val
    return out


def _digits_for(vals: dict, refs: dict):
    """(discrete mismatch?, accuracy digits) of a report against references."""
    digits = []
    mismatch = False
    for key, ref in refs.items():
        mode, ref = ref if isinstance(ref, tuple) else ("rel", ref)
        if key not in vals:
            return True, digits
        got = vals[key]
        if mode == "int":
            mismatch |= int(got) != ref
        elif mode == "matrix":
            digits.append(max_rel_digits(got, ref))
        elif mode == "log":
            digits.append(digits_of(abs(float(got) - float(ref))))
        elif mode == "complex":
            re, im = got.strip("()").split(",")
            digits.append(rel_digits(complex(float(re), float(im)), complex(ref)))
        else:
            digits.append(rel_digits(float(got), complex(ref)))
    return mismatch, digits


def _write_inputs(doc: dict, workdir: Path, use_csv: bool) -> Path:
    doc = json.loads(json.dumps(doc))
    if use_csv:
        name = MAIN_MATRIX[doc["kind"]]
        rows = doc["inputs"][name]
        (workdir / "m.csv").write_text(
            "\n".join(",".join(repr(float(x)) for x in row) for row in rows) + "\n",
            encoding="utf-8")
        doc["inputs"][name] = "m.csv"
    path = workdir / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def make_call(kind: str, rng, violate: bool, use_csv: bool, workdir: Path, n: int) -> Call:
    doc, refs, expected, updates = scenario(kind, rng, violate, n)
    workdir.mkdir(parents=True, exist_ok=True)
    path = _write_inputs(doc, workdir, use_csv)
    out = workdir / "report.txt"
    args = [kind, "--scenario", str(path), "--out", str(out)]
    svg = workdir / "ellipses.svg" if kind == "ellipse-plot" else None
    if svg is not None:
        args += ["--svg", str(svg)]
    env = child_env()

    def execute(prefix):
        # a piped stream makes run() wait on the pipe closing; with no pipe,
        # wait(timeout) polls with sleeps of up to 50 ms, which would be timed
        proc = subprocess.run(prefix + args, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        report = out.read_bytes() if out.exists() else b""
        image = svg.read_bytes() if svg is not None and svg.exists() else None
        return proc.returncode, report, image

    def check(result, exc):
        if exc is not None:
            return Outcome(unsolved=True, crashed=True, error=type(exc).__name__)
        code, report, image = result
        if (report, image) != _in_process(args, workdir):
            return Outcome(unsolved=True, breach=True, error="report-bytes")
        text = report.decode("utf-8")
        named = _named_error(text)
        # a non-zero exit is the program's own answer only when the report
        # names one of its error classes; otherwise the child crashed
        crashed = code != 0 and not is_error_of(named)
        if expected is not None:
            if code == 2 and named == expected:
                return Outcome(error=expected)
            # exit 0 absorbs the violation, exit 2 with another class
            # misreports it; exit 1 is an input error, unsolved only
            return Outcome(unsolved=True, crashed=crashed, breach=code in (0, 2),
                           error=f"exit-{code}")
        if code != 0:
            return Outcome(unsolved=True, crashed=crashed, error=f"exit-{code}")
        vals = _values(text)
        mismatch, digits = _digits_for(vals, refs)
        samples = int(vals["samples"]) if "samples" in vals else None
        return Outcome(unsolved=mismatch, digits=digits, samples=samples)

    call = Call(kind, lambda: execute([sys.executable, "-m", "detdyn.cli"]), check,
                payload_of(kind, json.dumps(doc, sort_keys=True), use_csv),
                updates=updates, layer=LAYER.get(kind, "control"))
    call.run_traced = lambda spans: execute([sys.executable, str(BENCH / "cli_child.py"), str(spans)])
    return call


def _named_error(text: str) -> str:
    """The error class a report names on its ``error:`` line, or ""."""
    for line in text.splitlines():
        if line.startswith("error: "):
            return line[len("error: "):]
    return ""


def _in_process(args, workdir: Path):
    """Run the same scenario through ``detdyn.cli.main`` in this process,
    writing the report to a separate file; returns (report, svg) as written,
    so a crash compares equal to a subprocess that crashed the same way."""
    import detdyn.cli

    alt = workdir / "inproc.txt"
    argv = list(args)
    argv[argv.index("--out") + 1] = str(alt)
    try:
        detdyn.cli.main(argv)
    except Exception:  # the subprocess exit code reports it
        pass
    svg = Path(argv[argv.index("--svg") + 1]) if "--svg" in argv else None
    return (alt.read_bytes() if alt.exists() else b"",
            svg.read_bytes() if svg is not None and svg.exists() else None)


def make_op(seed: int, index: int, workdir: Path, warmup: bool = False) -> list:
    """Op ``index``: kind index mod 14, nominal size 2 + (cycle c mod 5); in
    cycle c the kinds VIOLATING[2c mod 5] and VIOLATING[(2c+1) mod 5] are
    built to exit 2."""
    rng = op_rng(seed, "cli", index, warmup)
    kind = KINDS[index % len(KINDS)]
    cycle = index // len(KINDS)
    bad = {VIOLATING[(2 * cycle) % len(VIOLATING)], VIOLATING[(2 * cycle + 1) % len(VIOLATING)]}
    return [make_call(kind, rng, kind in bad, use_csv=cycle % 2 == 1, workdir=workdir,
                      n=2 + cycle % 5)]

