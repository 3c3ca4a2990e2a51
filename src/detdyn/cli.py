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

The handlers call the package's names (``dd.det_sequence``, ...), so the
package's name-to-module table decides which module a call loads: a
kind's module loads when its handler first calls into it, and only
``errors`` and ``kernel`` load with the CLI itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import detdyn as dd

from . import kernel
from .errors import (
    DetDynError,
    HypothesisViolation,
    InputError,
    NotTwoDimensional,
    ParseError,
    RaggedRows,
)
from .kernel import Tolerance

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


def _read_json(text: str, **options):
    """``text`` as JSON; a syntax error is a ParseError at its line and
    column in ``text``."""
    try:
        return json.loads(text, **options)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.colno, exc.msg) from None


def _reject_constant(token):
    raise ParseError(1, 1, f"non-finite constant {token!r}")


def parse_matrix_file(path) -> np.ndarray:
    """Read a matrix from a CSV file (one row per line, comma-separated
    decimal literals) or from a JSON document embedding row-arrays. A
    leading UTF-8 byte-order mark is dropped."""
    text = Path(path).read_text(encoding="utf-8-sig")
    if text.lstrip().startswith(("{", "[")):
        return _matrix_from_json(_read_json(text, parse_constant=_reject_constant))
    return _parse_csv_text(text)


@dataclass(frozen=True)
class Scenario:
    kind: str
    inputs: dict
    parameters: dict
    base_dir: Path


def load_scenario(path) -> Scenario:
    p = Path(path)
    obj = _read_json(p.read_text(encoding="utf-8-sig"))
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


def _input(s: Scenario, name: str):
    if name not in s.inputs:
        raise InputError(f"scenario is missing input {name!r}")
    return s.inputs[name]


def _floats(name: str, val) -> np.ndarray:
    try:
        return np.asarray(val, dtype=float)
    except TypeError:
        raise InputError(f"input {name!r} holds a non-numeric value") from None


def _resolve_matrix(s: Scenario, name: str) -> np.ndarray:
    val = _input(s, name)
    if isinstance(val, str):
        return parse_matrix_file(s.base_dir / val)
    return _matrix_from_json(val)


def _resolve_vector(s: Scenario, name: str) -> np.ndarray:
    val = _input(s, name)
    if isinstance(val, str):
        a = parse_matrix_file(s.base_dir / val)
        if 1 not in a.shape:
            raise InputError(f"input {name!r} is not a vector")
        return a.reshape(-1)
    arr = _floats(name, val)
    if arr.ndim != 1:
        raise InputError(f"input {name!r} is not a flat array")
    return arr


def _resolve_vector_list(s: Scenario, name: str) -> list:
    val = _input(s, name)
    if not isinstance(val, list):
        raise InputError(f"input {name!r} must be an array of vectors")
    return [_floats(name, v) for v in val]


# ---------------------------------------------------------------------------
# Report assembly

@dataclass
class Report:
    lines: list
    exit_code: int = 0

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _echo(lines: list, **arrays) -> None:
    """Echo each array in turn: a matrix row by row, a vector on one line."""
    for name, a in arrays.items():
        label = "matrix" if a.ndim == 2 else "vector"
        lines.append(f"{label} {name} ({'x'.join(map(str, a.shape))}):")
        lines.extend(",".join(fmt(x) for x in row) for row in np.atleast_2d(a))


def _compatibility(lines: list, rep) -> None:
    lines += [f"compatibility.norm_p0u: {fmt(rep.norm_p0u)}",
              f"compatibility.norm_vtp0: {fmt(rep.norm_vtp0)}",
              f"compatibility.passed: {str(rep.passed).lower()}"]


def _per_eps(lines: list, per_eps) -> None:
    lines.extend(f"per_eps: {fmt(eps)} -> {fmt(val)}" for eps, val in per_eps)


def _seq_from(s: Scenario):
    us = _resolve_vector_list(s, "us")
    vs = _resolve_vector_list(s, "vs")
    if len(us) != len(vs):
        raise InputError("'us' and 'vs' must have the same length")
    return dd.UpdateSequence.from_pairs(list(zip(us, vs)))


def _param(params: dict, key: str, convert, default=None):
    """Parameter ``key`` (``default`` when absent) through ``convert``; a
    value of the wrong type or shape raises InputError."""
    value = params.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, IndexError):
        raise InputError(f"parameter {key!r} has the wrong type or shape: "
                         f"{value!r}") from None


_COUNT_CAP = 2 ** 16  # the most trials, or horizon x columns of B, a scenario takes


def _count(params: dict, key: str, default: int, cap: float = math.inf) -> int:
    """Integer parameter ``key``; a bool, a number with a fraction part or
    a value above ``cap`` is refused before the work it sizes is allocated."""
    value = params.get(key, default)
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise InputError(f"parameter {key!r} is not an integer: {value!r}")
    value = _param(params, key, int, default)
    if value > cap:
        raise InputError(f"parameter {key!r} is {value}, above its cap {cap}")
    return value


def _complex(x) -> complex:
    """A real number, or [re, im]."""
    re, im = x if isinstance(x, list) else (x, 0.0)
    return complex(float(re), float(im))


def _schedule_from(params: dict):
    if "eps_schedule" in params:
        return _param(params, "eps_schedule", lambda x: [float(e) for e in x])
    if "eps_min" in params:
        return list(dd.default_eps_schedule(eps_min=_param(params, "eps_min", float)))
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
    except (DetDynError, ValueError, OSError) as exc:
        violated = isinstance(exc, HypothesisViolation)
        lines += [f"error: {type(exc).__name__}", f"error.detail: {exc}"]
        if violated:
            _error_payload(lines, exc)
        lines.append(f"status: {'hypothesis-violation' if violated else 'input-error'}")
        return Report(lines=lines, exit_code=2 if violated else 1)
    lines.append("status: ok")
    return Report(lines=lines, exit_code=0)


def _error_payload(lines: list, exc: Exception) -> None:
    report = getattr(exc, "report", None)
    if report is not None:
        _compatibility(lines, report)
    _per_eps(lines, getattr(exc, "per_eps", None) or ())
    step = getattr(exc, "step", None)
    if step is not None:
        lines.append(f"error.step: {step}")


# --- handlers --------------------------------------------------------------
# Each resolves its inputs and parameters, echoes the inputs, then calls;
# an error report holds the lines appended before the error.

def _rank_one_inputs(s: Scenario, name: str):
    """Matrix ``name`` and the vectors u and v."""
    return _resolve_matrix(s, name), _resolve_vector(s, "u"), _resolve_vector(s, "v")


def _stream_inputs(s: Scenario, lines: list):
    """H and the us/vs sequence, echoed."""
    h = _resolve_matrix(s, "H")
    seq = _seq_from(s)
    _echo(lines, H=h, **{f"{x}{i}": getattr(up, x)
                         for i, up in enumerate(seq.updates, start=1) for x in "uv"})
    return h, seq


def _lemma_inputs(s: Scenario, lines: list):
    """H, U and V, echoed."""
    h, u, v = (_resolve_matrix(s, name) for name in "HUV")
    _echo(lines, H=h, U=u, V=v)
    return h, u, v


def _gramian_inputs(s: Scenario):
    a = _resolve_matrix(s, "A")
    b = _resolve_matrix(s, "B")
    horizon = _count(s.parameters, "horizon", 1, _COUNT_CAP // max(1, b.shape[1]))
    return dd.build_gramian(a, b, horizon)


def _h_det_update(s, tol, lines):
    h, u, v = _rank_one_inputs(s, "H")
    _echo(lines, H=h, u=u, v=v)
    lines.append("results:")  # before the call, so an error report holds it
    lines.append(f"det: {fmt(dd.det_rank_one(h, (u, v)))}")


def _h_det_sequence(s, tol, lines):
    trace = dd.det_sequence(*_stream_inputs(s, lines))
    lines += ["results:", f"det.initial: {fmt(trace.values[0])}"]
    for k, (inc, val) in enumerate(zip(trace.increments, trace.values[1:]), start=1):
        lines.append(f"step {k}: increment: {fmt(inc)} value: {fmt(val)}")
    lines.append(f"det.final: {fmt(trace.final)}")


def _h_logdet(s, tol, lines):
    trace = dd.logdet_sequence(*_stream_inputs(s, lines), tol)
    lines += ["results:", f"logdet.initial: {fmt(trace.base_logdet)}"]
    for k, (f, inc) in enumerate(zip(trace.factors, trace.log_increments), start=1):
        lines.append(f"step {k}: factor: {fmt(f)} log_increment: {fmt(inc)}")
    lines += [f"logdet.final: {fmt(trace.final_logdet)}",
              f"det.final: {fmt(trace.final_det)}"]


def _h_drazin(s, tol, lines):
    h = _resolve_matrix(s, "H")
    _echo(lines, H=h)
    gi = dd.group_inverse(h, tol)
    lines.append("results:")
    _echo(lines, H_drazin=gi.h_drazin, P0=gi.projector)
    lines += [f"rank_q: {gi.rank_q}", f"nullity_nu: {gi.nullity_nu}"]


def _h_pdet(s, tol, lines):
    h = _resolve_matrix(s, "H")
    _echo(lines, H=h)
    res = dd.pdet(h, tol)
    lines += ["results:", f"pdet.value: {fmt(res.value)}",
              f"pdet.nullity: {res.nullity}", f"pdet.method: {res.method}"]


def _h_pdet_lemma(s, tol, lines):
    h, u, v = _lemma_inputs(s, lines)
    rep = dd.compatibility_check(h, u, v, tol)
    lines.append("results:")
    _compatibility(lines, rep)
    lines.append(f"pdet_lemma.value: {fmt(dd.pdet_lemma(h, u, v, tol))}")


def _h_regularized_limit(s, tol, lines):
    h, u, v = _lemma_inputs(s, lines)
    res = dd.regularized_limit(h, u, v, _schedule_from(s.parameters), tol)
    lines.append("results:")
    _per_eps(lines, res.per_eps)
    lines += [f"estimate: {fmt(res.estimate)}",
              f"converged: {str(res.converged).lower()}"]


def _h_secular(s, tol, lines):
    a, u, v = _rank_one_inputs(s, "A")
    z = _param(s.parameters, "lambda", _complex, 0.0)
    prefix = _seq_from(s) if "us" in s.inputs else dd.UpdateSequence(base_dim=a.shape[0])
    _echo(lines, A=a, u=u, v=v)
    ev = dd.secular_value(a, prefix, u, v, z, tol)
    lines += ["results:", f"lambda: {fmt_complex(ev.lam)}",
              f"secular.value: {fmt_complex(ev.value)}",
              f"secular.resolvent_cond_flag: {str(ev.resolvent_cond_flag).lower()}"]


def _h_stability(s, tol, lines):
    a, u, v = _rank_one_inputs(s, "A")
    samples = _count(s.parameters, "samples", 4096, dd.spectral._SAMPLE_CAP)
    _echo(lines, A=a, u=u, v=v)
    cert = dd.stability_preserved(a, u, v, samples, tol)
    lines += ["results:", f"base_hurwitz: {str(cert.base_hurwitz).lower()}",
              f"winding: {cert.winding}", f"contour_radius: {fmt(cert.contour_radius)}",
              f"samples: {cert.samples}", f"rhp_eigs_oracle: {cert.rhp_eigs_oracle}",
              f"stable: {str(cert.stable).lower()}"]


def _h_covariance(s, tol, lines):
    p = _resolve_matrix(s, "P")
    us = _resolve_vector_list(s, "us")
    _echo(lines, P=p)
    trace = dd.covariance_trace(p, us, tol)
    lines += ["results:", f"logdet.initial: {fmt(trace.logdets[0])}"]
    for k, (x, inc, ld) in enumerate(
        zip(trace.quad_forms, trace.increments, trace.logdets[1:]), start=1
    ):
        lines.append(
            f"step {k}: quad_form: {fmt(x)} increment: {fmt(inc)} logdet: {fmt(ld)}"
        )
    lines += [f"lower_bound: {fmt(trace.lower_bound)}",
              f"upper_bound: {fmt(trace.upper_bound)}"]


def _h_info_filter(s, tol, lines):
    p = _resolve_matrix(s, "P")
    vs = _resolve_vector_list(s, "vs")
    _echo(lines, P=p)
    trace = dd.info_filter_trace(p, vs, tol)
    lines += ["results:", f"det.initial: {fmt(trace.dets[0])}"]
    for k, (f, d) in enumerate(zip(trace.factors, trace.dets[1:]), start=1):
        lines.append(f"step {k}: factor: {fmt(f)} det: {fmt(d)}")
    if trace.beta is not None:
        lines.append(f"beta: {fmt(trace.beta)}")
    if trace.geometric_bound is not None:
        lines.append(f"geometric_bound: {fmt(trace.geometric_bound)}")


def _h_gramian(s, tol, lines):
    g = _gramian_inputs(s)
    _echo(lines, A=g.a, B=g.b, W=g.w)
    growth = dd.gramian_pdet_growth(g, _schedule_from(s.parameters), tol)
    lines += ["results:", f"rank_r: {growth.rank_r}"]
    eps_min = growth.eps_schedule[-1]
    for k, f in enumerate(growth.factors_per_eps[-1], start=1):
        lines.append(f"factor[{k}] at eps={fmt(eps_min)}: {fmt(f)}")
    for eps, res in zip(growth.eps_schedule, growth.identity_residuals):
        lines.append(f"identity_residual at eps={fmt(eps)}: {fmt(res)}")
    lines += [f"pdet.normalized_det: {fmt(growth.normalized_det_values[-1])}",
              f"pdet.factor_product: {fmt(growth.factor_product_values[-1])}",
              f"pdet.estimate: {fmt(growth.pdet_estimate)}",
              f"log_pdet: {fmt(growth.log_pdet)}"]


def _h_ellipse_plot(s, tol, lines):
    g = _gramian_inputs(s)
    eps = _param(s.parameters, "eps", float, 0.05)
    if s.parameters.get("svg") is None:
        raise InputError("ellipse-plot needs an SVG output path (--svg)")
    path = _param(s.parameters, "svg", Path)
    _echo(lines, A=g.a, B=g.b)
    if not path.is_absolute():
        path = s.base_dir / path
    ellipses = emit_ellipse_svg(g, eps, path)
    lines.append("results:")
    for k, e in enumerate(ellipses):
        lines.append(f"step {k}: a: {fmt(e.semi_axis_a)} b: {fmt(e.semi_axis_b)} "
                     f"area: {fmt(e.area)}")
    lines.append(f"svg: {path}")


def _h_perturb(s, tol, lines):
    g = _gramian_inputs(s)
    noise = _param(s.parameters, "noise_scale", float, 0.0)
    trials = _count(s.parameters, "trials", 10, _COUNT_CAP)
    seed = _count(s.parameters, "seed", 0)
    schedule = _schedule_from(s.parameters)
    _echo(lines, A=g.a, B=g.b)
    rep = dd.perturbed_gramian_experiment(g, noise, trials, seed, schedule, tol)
    lines += ["results:", f"noise_scale: {fmt(rep.noise_scale)}",
              f"trials: {rep.trials}", f"seed: {rep.seed}",
              f"nominal.rank: {rep.nominal_rank}", f"nominal.pdet: {fmt(rep.nominal_pdet)}"]
    for k, f in enumerate(rep.nominal_factors, start=1):
        lines.append(f"nominal.factor[{k}]: {fmt(f)}")
    for t, tr in enumerate(rep.per_trial):
        lines.append(f"trial {t}: rank: {tr.rank} pdet: {fmt(tr.pdet)}")
    lines += [f"mean.rank: {fmt(rep.mean_rank)}", f"mean.pdet: {fmt(rep.mean_pdet)}"]
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
KINDS = tuple(_HANDLERS)


# ---------------------------------------------------------------------------
# SVG emission

def emit_ellipse_svg(g, eps: float, out_path) -> list:
    """Write the regularized reachable-ellipse evolution (one ellipse per
    partial sum, step 0 is eps*I) as a standalone SVG 1.1 document.

    ``g`` is a ``control.GramianBuild``. Output bytes are deterministic
    for fixed inputs. Returns the ellipse geometry list. Only 2-state
    systems can be drawn.
    """
    n = g.w.shape[0]
    if n != 2:
        raise NotTwoDimensional(f"ellipse emission needs n = 2, got n = {n}")
    eps = float(eps)
    if eps <= 0.0:
        raise InputError("eps must be positive")
    if not math.isfinite(eps):
        raise InputError(f"eps must be finite, got {eps}")
    x = np.reshape(g.directions, (-1, 2))
    terms = np.concatenate([eps * np.eye(2)[None], x[:, :, None] * x[:, None, :]])
    shapes = [dd.reach_ellipse(acc) for acc in np.cumsum(terms, axis=0)]
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
    if args.eps_min is not None:
        params.pop("eps_schedule", None)
    if args.svg is not None:
        # flag paths anchor at the working directory, scenario-document
        # paths at the scenario file
        args.svg = str(Path(args.svg).absolute())
    for key in ("tol_rel", "eps_min", "seed", "svg"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    report = run_scenario(replace(scenario, parameters=params))
    text = report.render()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
