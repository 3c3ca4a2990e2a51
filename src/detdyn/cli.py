"""Command-line front end.

Subcommands mirror the scenario kinds; a scenario is a JSON document
(key/value tree, matrices as arrays of row-arrays, or string values
naming CSV files resolved relative to the scenario). Reports are plain
text, deterministic byte-for-byte for a fixed scenario and seed, with
every floating-point value printed at 17 significant digits so that an
echoed matrix reparses to the exact same bits.

Exit codes: 0 success, 1 input, parse or usage errors, 2 violated
mathematical hypotheses (singular intermediate, nonpositive determinant,
index > 1, failed compatibility, and kin).

Only ``errors`` and ``kernel`` are imported here; each handler imports
the module it calls, so a call loads what its kind needs and no more.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernel
from .errors import (
    DetDynError,
    HypothesisViolation,
    InputError,
    NotConverged,
    NotTwoDimensional,
    ParseError,
    RaggedRows,
)
from .kernel import Tolerance

KINDS = (
    "det-update", "det-sequence", "logdet", "drazin", "pdet", "pdet-lemma",
    "regularized-limit", "secular", "stability", "covariance", "info-filter",
    "gramian", "ellipse-plot", "perturb-experiment",
)

ENV_TOL = "DETDYN_TOL_REL"

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def fmt(x: float) -> str:
    """17 significant digits; loses nothing on a parse round trip."""
    return f"{float(x):.16e}"


def fmt_complex(z: complex) -> str:
    return f"({fmt(z.real)}, {fmt(z.imag)})"


# ---------------------------------------------------------------------------
# Matrix / scenario ingestion

def _parse_csv_text(text: str) -> np.ndarray:
    rows = []
    width = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if line.strip() == "":
            continue
        cells = line.split(",")
        row = []
        for colno, cell in enumerate(cells, start=1):
            s = cell.strip()
            if s == "":
                raise ParseError(lineno, colno, "empty cell")
            try:
                row.append(float(s))
            except ValueError:
                raise ParseError(lineno, colno, f"not a decimal literal: {s!r}") from None
            if not math.isfinite(row[-1]):
                raise ParseError(lineno, colno, f"non-finite value: {s!r}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise RaggedRows(lineno)
        rows.append(row)
    if not rows:
        raise ParseError(1, 1, "no rows")
    return np.array(rows, dtype=float)


def _matrix_from_json(obj) -> np.ndarray:
    if isinstance(obj, dict):
        if "matrix" in obj:
            obj = obj["matrix"]
        else:
            arrays = [v for v in obj.values() if isinstance(v, list)]
            if len(arrays) != 1:
                raise ParseError(1, 1, "document does not embed exactly one matrix")
            obj = arrays[0]
    if not isinstance(obj, list) or not obj:
        raise ParseError(1, 1, "expected a nonempty array of row-arrays")
    if not all(isinstance(r, list) for r in obj):
        raise ParseError(1, 1, "expected rows to be arrays")
    try:
        a = np.array(obj, dtype=float)
    except ValueError:
        raise RaggedRows(1) from None
    if a.ndim != 2 or not np.all(np.isfinite(a)):
        raise ParseError(1, 1, "expected a finite 2-d numeric array")
    return a


def parse_matrix_file(path) -> np.ndarray:
    """Read a matrix from a CSV file (one row per line, comma-separated
    decimal literals) or from a JSON document embedding row-arrays."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip("﻿").lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        def _reject(tok):
            raise ParseError(1, 1, f"non-finite constant {tok!r}")
        try:
            obj = json.loads(stripped, parse_constant=_reject)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.lineno, exc.colno, exc.msg) from None
        return _matrix_from_json(obj)
    return _parse_csv_text(text)


@dataclass(frozen=True)
class Scenario:
    kind: str
    inputs: dict
    parameters: dict
    base_dir: Path


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.colno, exc.msg) from None
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(1, 1, "scenario document must be an object with a 'kind'")
    kind = obj["kind"]
    if kind not in KINDS:
        raise InputError(f"unknown scenario kind {kind!r}")
    inputs = obj.get("inputs", {})
    params = obj.get("parameters", {})
    if not isinstance(inputs, dict) or not isinstance(params, dict):
        raise ParseError(1, 1, "'inputs' and 'parameters' must be objects")
    return Scenario(kind=kind, inputs=inputs, parameters=dict(params),
                    base_dir=p.parent)


def _resolve_matrix(s: Scenario, name: str) -> np.ndarray:
    if name not in s.inputs:
        raise InputError(f"scenario is missing input {name!r}")
    val = s.inputs[name]
    if isinstance(val, str):
        return parse_matrix_file(s.base_dir / val)
    return _matrix_from_json(val)


def _resolve_vector(s: Scenario, name: str) -> np.ndarray:
    if name not in s.inputs:
        raise InputError(f"scenario is missing input {name!r}")
    val = s.inputs[name]
    if isinstance(val, str):
        a = parse_matrix_file(s.base_dir / val)
        if 1 not in a.shape:
            raise InputError(f"input {name!r} is not a vector")
        return a.reshape(-1)
    arr = np.asarray(val, dtype=float)
    if arr.ndim != 1:
        raise InputError(f"input {name!r} is not a flat array")
    return arr


def _resolve_vector_list(s: Scenario, name: str) -> list:
    if name not in s.inputs:
        raise InputError(f"scenario is missing input {name!r}")
    val = s.inputs[name]
    if not isinstance(val, list):
        raise InputError(f"input {name!r} must be an array of vectors")
    return [np.asarray(v, dtype=float) for v in val]


# ---------------------------------------------------------------------------
# Report assembly

@dataclass
class Report:
    lines: list
    exit_code: int = 0

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _echo_matrix(lines: list, name: str, a: np.ndarray) -> None:
    lines.append(f"matrix {name} ({a.shape[0]}x{a.shape[1]}):")
    for row in a:
        lines.append(",".join(fmt(x) for x in row))


def _echo_vector(lines: list, name: str, v: np.ndarray) -> None:
    lines.append(f"vector {name} ({v.shape[0]}):")
    lines.append(",".join(fmt(x) for x in v))


def _seq_from(s: Scenario):
    from . import updates

    us = _resolve_vector_list(s, "us")
    vs = _resolve_vector_list(s, "vs")
    if len(us) != len(vs):
        raise InputError("'us' and 'vs' must have the same length")
    return updates.UpdateSequence.from_pairs(list(zip(us, vs)))


def _param(params: dict, key: str, convert, default=None):
    """Parameter ``key`` (``default`` when absent) through ``convert``; a
    value of the wrong type or shape raises InputError."""
    value = params.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, IndexError):
        raise InputError(f"parameter {key!r} has the wrong type or shape: "
                         f"{value!r}") from None


def _complex(x) -> complex:
    """A real number, or [re, im]."""
    re, im = x if isinstance(x, list) else (x, 0.0)
    return complex(float(re), float(im))


def _schedule_from(params: dict):
    if "eps_schedule" in params:
        return _param(params, "eps_schedule", lambda x: [float(e) for e in x])
    if "eps_min" in params:
        from .drazin import default_eps_schedule

        return list(default_eps_schedule(eps_min=_param(params, "eps_min", float)))
    return None


def _tolerance_from(params: dict) -> Tolerance:
    if params.get("tol_rel") is not None:
        return Tolerance(rel=_param(params, "tol_rel", float))
    env = os.environ.get(ENV_TOL)
    return Tolerance(rel=float(env) if env else kernel.EPS)


def run_scenario(s: Scenario) -> Report:
    """Dispatch one validated scenario and assemble its report."""
    lines = ["detdyn report", f"scenario: {s.kind}"]
    try:
        tol = _tolerance_from(s.parameters)
        lines.append(f"tolerance.rel: {fmt(tol.rel)}")
        for key in sorted(s.parameters):
            if key == "eps_schedule":
                continue
            lines.append(f"parameter.{key}: {s.parameters[key]}")
        handler = _HANDLERS[s.kind]
        handler(s, tol, lines)
    except HypothesisViolation as exc:
        lines.append(f"error: {type(exc).__name__}")
        lines.append(f"error.detail: {exc}")
        _error_payload(lines, exc)
        lines.append("status: hypothesis-violation")
        return Report(lines=lines, exit_code=2)
    except (DetDynError, ValueError, OSError) as exc:
        lines.append(f"error: {type(exc).__name__}")
        lines.append(f"error.detail: {exc}")
        lines.append("status: input-error")
        return Report(lines=lines, exit_code=1)
    lines.append("status: ok")
    return Report(lines=lines, exit_code=0)


def _error_payload(lines: list, exc: Exception) -> None:
    report = getattr(exc, "report", None)
    if report is not None:
        lines.append(f"compatibility.norm_p0u: {fmt(report.norm_p0u)}")
        lines.append(f"compatibility.norm_vtp0: {fmt(report.norm_vtp0)}")
        lines.append(f"compatibility.passed: {str(report.passed).lower()}")
    per_eps = getattr(exc, "per_eps", None)
    if per_eps:
        for eps, val in per_eps:
            lines.append(f"per_eps: {fmt(eps)} -> {fmt(val)}")
    step = getattr(exc, "step", None)
    if step is not None:
        lines.append(f"error.step: {step}")


# --- handlers --------------------------------------------------------------

def _h_det_update(s, tol, lines):
    from . import updates

    h = _resolve_matrix(s, "H")
    u = _resolve_vector(s, "u")
    v = _resolve_vector(s, "v")
    _echo_matrix(lines, "H", h)
    _echo_vector(lines, "u", u)
    _echo_vector(lines, "v", v)
    lines.append("results:")
    lines.append(f"det: {fmt(updates.det_rank_one(h, (u, v)))}")


def _h_det_sequence(s, tol, lines):
    from . import updates

    h = _resolve_matrix(s, "H")
    seq = _seq_from(s)
    _echo_matrix(lines, "H", h)
    for i, up in enumerate(seq.updates, start=1):
        _echo_vector(lines, f"u{i}", up.u)
        _echo_vector(lines, f"v{i}", up.v)
    trace = updates.det_sequence(h, seq)
    lines.append("results:")
    lines.append(f"det.initial: {fmt(trace.values[0])}")
    for k, (inc, val) in enumerate(zip(trace.increments, trace.values[1:]), start=1):
        lines.append(f"step {k}: increment: {fmt(inc)} value: {fmt(val)}")
    lines.append(f"det.final: {fmt(trace.final)}")


def _h_logdet(s, tol, lines):
    from . import updates

    h = _resolve_matrix(s, "H")
    seq = _seq_from(s)
    _echo_matrix(lines, "H", h)
    for i, up in enumerate(seq.updates, start=1):
        _echo_vector(lines, f"u{i}", up.u)
        _echo_vector(lines, f"v{i}", up.v)
    trace = updates.logdet_sequence(h, seq, tol)
    lines.append("results:")
    lines.append(f"logdet.initial: {fmt(trace.base_logdet)}")
    for k, (f, inc) in enumerate(zip(trace.factors, trace.log_increments), start=1):
        lines.append(f"step {k}: factor: {fmt(f)} log_increment: {fmt(inc)}")
    lines.append(f"logdet.final: {fmt(trace.final_logdet)}")
    lines.append(f"det.final: {fmt(trace.final_det)}")


def _h_drazin(s, tol, lines):
    from . import drazin

    h = _resolve_matrix(s, "H")
    _echo_matrix(lines, "H", h)
    gi = drazin.group_inverse(h, tol)
    lines.append("results:")
    _echo_matrix(lines, "H_drazin", gi.h_drazin)
    _echo_matrix(lines, "P0", gi.projector)
    lines.append(f"rank_q: {gi.rank_q}")
    lines.append(f"nullity_nu: {gi.nullity_nu}")


def _h_pdet(s, tol, lines):
    from . import drazin

    h = _resolve_matrix(s, "H")
    _echo_matrix(lines, "H", h)
    res = drazin.pdet(h, tol)
    lines.append("results:")
    lines.append(f"pdet.value: {fmt(res.value)}")
    lines.append(f"pdet.nullity: {res.nullity}")
    lines.append(f"pdet.method: {res.method}")


def _h_pdet_lemma(s, tol, lines):
    from . import drazin

    h = _resolve_matrix(s, "H")
    u = _resolve_matrix(s, "U")
    v = _resolve_matrix(s, "V")
    _echo_matrix(lines, "H", h)
    _echo_matrix(lines, "U", u)
    _echo_matrix(lines, "V", v)
    rep = drazin.compatibility_check(h, u, v, tol)
    lines.append("results:")
    lines.append(f"compatibility.norm_p0u: {fmt(rep.norm_p0u)}")
    lines.append(f"compatibility.norm_vtp0: {fmt(rep.norm_vtp0)}")
    lines.append(f"compatibility.passed: {str(rep.passed).lower()}")
    value = drazin.pdet_lemma(h, u, v, tol)
    lines.append(f"pdet_lemma.value: {fmt(value)}")


def _h_regularized_limit(s, tol, lines):
    from . import drazin

    h = _resolve_matrix(s, "H")
    u = _resolve_matrix(s, "U")
    v = _resolve_matrix(s, "V")
    _echo_matrix(lines, "H", h)
    _echo_matrix(lines, "U", u)
    _echo_matrix(lines, "V", v)
    schedule = _schedule_from(s.parameters)
    res = drazin.regularized_limit(h, u, v, schedule, tol)
    lines.append("results:")
    for eps, val in res.per_eps:
        lines.append(f"per_eps: {fmt(eps)} -> {fmt(val)}")
    lines.append(f"estimate: {fmt(res.estimate)}")
    lines.append(f"converged: {str(res.converged).lower()}")


def _h_secular(s, tol, lines):
    from . import spectral, updates

    a = _resolve_matrix(s, "A")
    u = _resolve_vector(s, "u")
    v = _resolve_vector(s, "v")
    z = _param(s.parameters, "lambda", _complex, 0.0)
    if "us" in s.inputs:
        prefix = _seq_from(s)
    else:
        prefix = updates.UpdateSequence(base_dim=a.shape[0])
    _echo_matrix(lines, "A", a)
    _echo_vector(lines, "u", u)
    _echo_vector(lines, "v", v)
    ev = spectral.secular_value(a, prefix, u, v, z, tol)
    lines.append("results:")
    lines.append(f"lambda: {fmt_complex(ev.lam)}")
    lines.append(f"secular.value: {fmt_complex(ev.value)}")
    lines.append(f"secular.resolvent_cond_flag: {str(ev.resolvent_cond_flag).lower()}")


def _h_stability(s, tol, lines):
    from . import spectral

    a = _resolve_matrix(s, "A")
    u = _resolve_vector(s, "u")
    v = _resolve_vector(s, "v")
    samples = _param(s.parameters, "samples", int, 4096)
    _echo_matrix(lines, "A", a)
    _echo_vector(lines, "u", u)
    _echo_vector(lines, "v", v)
    cert = spectral.stability_preserved(a, u, v, samples, tol)
    lines.append("results:")
    lines.append(f"base_hurwitz: {str(cert.base_hurwitz).lower()}")
    lines.append(f"winding: {cert.winding}")
    lines.append(f"contour_radius: {fmt(cert.contour_radius)}")
    lines.append(f"samples: {cert.samples}")
    lines.append(f"rhp_eigs_oracle: {cert.rhp_eigs_oracle}")
    lines.append(f"stable: {str(cert.stable).lower()}")


def _h_covariance(s, tol, lines):
    from . import control

    p = _resolve_matrix(s, "P")
    us = _resolve_vector_list(s, "us")
    _echo_matrix(lines, "P", p)
    trace = control.covariance_trace(p, us, tol)
    lines.append("results:")
    lines.append(f"logdet.initial: {fmt(trace.logdets[0])}")
    for k, (x, inc, ld) in enumerate(
        zip(trace.quad_forms, trace.increments, trace.logdets[1:]), start=1
    ):
        lines.append(
            f"step {k}: quad_form: {fmt(x)} increment: {fmt(inc)} logdet: {fmt(ld)}"
        )
    lines.append(f"lower_bound: {fmt(trace.lower_bound)}")
    lines.append(f"upper_bound: {fmt(trace.upper_bound)}")


def _h_info_filter(s, tol, lines):
    from . import control

    p = _resolve_matrix(s, "P")
    vs = _resolve_vector_list(s, "vs")
    _echo_matrix(lines, "P", p)
    trace = control.info_filter_trace(p, vs, tol)
    lines.append("results:")
    lines.append(f"det.initial: {fmt(trace.dets[0])}")
    for k, (f, d) in enumerate(zip(trace.factors, trace.dets[1:]), start=1):
        lines.append(f"step {k}: factor: {fmt(f)} det: {fmt(d)}")
    if trace.beta is not None:
        lines.append(f"beta: {fmt(trace.beta)}")
    if trace.geometric_bound is not None:
        lines.append(f"geometric_bound: {fmt(trace.geometric_bound)}")


def _gramian_inputs(s: Scenario):
    from . import control

    a = _resolve_matrix(s, "A")
    b = _resolve_matrix(s, "B")
    horizon = _param(s.parameters, "horizon", int, 1)
    return control.build_gramian(a, b, horizon)


def _h_gramian(s, tol, lines):
    from . import control

    g = _gramian_inputs(s)
    _echo_matrix(lines, "A", g.a)
    _echo_matrix(lines, "B", g.b)
    _echo_matrix(lines, "W", g.w)
    schedule = _schedule_from(s.parameters)
    growth = control.gramian_pdet_growth(g, schedule, tol)
    lines.append("results:")
    lines.append(f"rank_r: {growth.rank_r}")
    eps_min = growth.eps_schedule[-1]
    for k, f in enumerate(growth.factors_per_eps[-1], start=1):
        lines.append(f"factor[{k}] at eps={fmt(eps_min)}: {fmt(f)}")
    for eps, res in zip(growth.eps_schedule, growth.identity_residuals):
        lines.append(f"identity_residual at eps={fmt(eps)}: {fmt(res)}")
    lines.append(f"pdet.normalized_det: {fmt(growth.normalized_det_values[-1])}")
    lines.append(f"pdet.factor_product: {fmt(growth.factor_product_values[-1])}")
    lines.append(f"pdet.estimate: {fmt(growth.pdet_estimate)}")
    if growth.log_pdet is not None:
        lines.append(f"log_pdet: {fmt(growth.log_pdet)}")


def _h_ellipse_plot(s, tol, lines):
    g = _gramian_inputs(s)
    eps = _param(s.parameters, "eps", float, 0.05)
    if s.parameters.get("svg") is None:
        raise InputError("ellipse-plot needs an SVG output path (--svg)")
    path = _param(s.parameters, "svg", Path)
    _echo_matrix(lines, "A", g.a)
    _echo_matrix(lines, "B", g.b)
    if not path.is_absolute():
        path = s.base_dir / path
    ellipses = emit_ellipse_svg(g, eps, path)
    lines.append("results:")
    for k, e in enumerate(ellipses):
        lines.append(f"step {k}: a: {fmt(e.semi_axis_a)} b: {fmt(e.semi_axis_b)} "
                     f"area: {fmt(e.area)}")
    lines.append(f"svg: {path}")


def _h_perturb(s, tol, lines):
    from . import control

    g = _gramian_inputs(s)
    noise = _param(s.parameters, "noise_scale", float, 0.0)
    trials = _param(s.parameters, "trials", int, 10)
    seed = _param(s.parameters, "seed", int, 0)
    schedule = _schedule_from(s.parameters)
    _echo_matrix(lines, "A", g.a)
    _echo_matrix(lines, "B", g.b)
    rep = control.perturbed_gramian_experiment(g, noise, trials, seed,
                                               schedule, tol)
    lines.append("results:")
    lines.append(f"noise_scale: {fmt(rep.noise_scale)}")
    lines.append(f"trials: {rep.trials}")
    lines.append(f"seed: {rep.seed}")
    lines.append(f"nominal.rank: {rep.nominal_rank}")
    lines.append(f"nominal.pdet: {fmt(rep.nominal_pdet)}")
    for k, f in enumerate(rep.nominal_factors, start=1):
        lines.append(f"nominal.factor[{k}]: {fmt(f)}")
    for t, tr in enumerate(rep.per_trial):
        lines.append(f"trial {t}: rank: {tr.rank} pdet: {fmt(tr.pdet)}")
    lines.append(f"mean.rank: {fmt(rep.mean_rank)}")
    lines.append(f"mean.pdet: {fmt(rep.mean_pdet)}")
    for k, f in enumerate(rep.mean_factors, start=1):
        lines.append(f"mean.factor[{k}]: {fmt(f)}")


_HANDLERS = {
    "det-update": _h_det_update,
    "det-sequence": _h_det_sequence,
    "logdet": _h_logdet,
    "drazin": _h_drazin,
    "pdet": _h_pdet,
    "pdet-lemma": _h_pdet_lemma,
    "regularized-limit": _h_regularized_limit,
    "secular": _h_secular,
    "stability": _h_stability,
    "covariance": _h_covariance,
    "info-filter": _h_info_filter,
    "gramian": _h_gramian,
    "ellipse-plot": _h_ellipse_plot,
    "perturb-experiment": _h_perturb,
}


# ---------------------------------------------------------------------------
# SVG emission

def emit_ellipse_svg(g, eps: float, out_path) -> list:
    """Write the regularized reachable-ellipse evolution (one ellipse per
    partial sum, step 0 is eps*I) as a standalone SVG 1.1 document.

    ``g`` is a ``control.GramianBuild``. Output bytes are deterministic
    for fixed inputs. Returns the ellipse geometry list. Only 2-state
    systems can be drawn.
    """
    from . import control

    n = g.w.shape[0]
    if n != 2:
        raise NotTwoDimensional(f"ellipse emission needs n = 2, got n = {n}")
    eps = float(eps)
    if eps <= 0.0:
        raise InputError("eps must be positive")
    acc = eps * np.eye(2)
    shapes = [control.reach_ellipse(acc)]
    for u in g.directions:
        acc = acc + np.outer(u, u)
        shapes.append(control.reach_ellipse(acc))
    span = max(e.semi_axis_a for e in shapes) * 1.1
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="720" height="720" '
        f'viewBox="{fmt(-span)} {fmt(-span)} {fmt(2 * span)} {fmt(2 * span)}">',
        "<desc>reachable-set growth under successive rank-one updates</desc>",
        '<g transform="scale(1,-1)">',
    ]
    for k, e in enumerate(shapes):
        color = _PALETTE[k % len(_PALETTE)]
        deg = math.degrees(e.rotation_rad)
        lines.append(
            f'<ellipse cx="0" cy="0" rx="{fmt(e.semi_axis_a)}" '
            f'ry="{fmt(e.semi_axis_b)}" transform="rotate({fmt(deg)})" '
            f'fill="none" stroke="{color}" stroke-width="{fmt(span / 250.0)}" '
            f'data-step="{k}" data-area="{fmt(e.area)}"/>'
        )
    lines.append("</g>")
    lines.append(f'<g font-family="monospace" font-size="{fmt(span / 22.0)}">')
    for k, e in enumerate(shapes):
        color = _PALETTE[k % len(_PALETTE)]
        y = -span + (k + 1) * span / 18.0
        lines.append(
            f'<text x="{fmt(-span * 0.97)}" y="{fmt(y)}" fill="{color}">'
            f"step {k}: area={fmt(e.area)}</text>"
        )
    lines.append("</g>")
    lines.append("</svg>")
    Path(out_path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return shapes


# ---------------------------------------------------------------------------
# Entry point

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-error code: argparse's own 2 is the
    violated-hypothesis code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="detdyn",
        usage="%(prog)s KIND --scenario SCENARIO [options]",
        description="determinant dynamics under rank-one updates",
    )
    parser.add_argument("kind", choices=KINDS, metavar="KIND",
                        help="scenario kind: " + ", ".join(KINDS))
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--svg", help="SVG output path (ellipse-plot)")
    parser.add_argument("--eps-min", type=float,
                        help="absolute eps schedule 1e-1 down to this (default: "
                             "relative to the smallest retained eigenvalue)")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--tol-rel", type=float,
                        help=f"relative tolerance (beats scenario and {ENV_TOL})")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
    except (DetDynError, OSError, ValueError) as exc:
        sys.stderr.write(f"detdyn: {type(exc).__name__}: {exc}\n")
        return 1
    if scenario.kind != args.kind:
        sys.stderr.write(
            f"detdyn: scenario kind {scenario.kind!r} does not match "
            f"subcommand {args.kind!r}\n"
        )
        return 1
    params = dict(scenario.parameters)
    if args.tol_rel is not None:
        params["tol_rel"] = args.tol_rel
    if args.eps_min is not None:
        params.pop("eps_schedule", None)
        params["eps_min"] = args.eps_min
    if args.seed is not None:
        params["seed"] = args.seed
    if args.svg is not None:
        # flag paths anchor at the working directory, scenario-document
        # paths at the scenario file
        params["svg"] = str(Path(args.svg).absolute())
    scenario = Scenario(kind=scenario.kind, inputs=scenario.inputs,
                        parameters=params, base_dir=scenario.base_dir)
    report = run_scenario(scenario)
    text = report.render()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
