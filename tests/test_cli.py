import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from detdyn import ParseError, RaggedRows, build_gramian, cli, spectral
from detdyn.cli import (
    KINDS,
    Scenario,
    emit_ellipse_svg,
    fmt,
    load_scenario,
    main,
    parse_matrix_file,
    run_scenario,
)
from detdyn.errors import (
    CompatibilityViolated,
    HypothesisViolation,
    IndexGreaterThanOne,
    InputError,
    IntermediateSingular,
    NonPositiveDeterminant,
    NotTwoDimensional,
)

A_SING = [[-1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 0.0]]


def write_scenario(tmp_path, obj, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return p


class TestParseMatrixFile:
    def test_identity_csv(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,0\n0,1\n")
        assert np.array_equal(parse_matrix_file(p), np.eye(2))

    def test_worked_example_csv(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("-1,0,0\n0,-2,0\n0,0,0\n")
        assert np.array_equal(parse_matrix_file(p), np.array(A_SING))

    def test_crlf_and_cell_whitespace(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(" 1 , 2.5 \r\n 3e-1 , -4 \r\n")
        assert np.array_equal(parse_matrix_file(p),
                              np.array([[1.0, 2.5], [0.3, -4.0]]))

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(RaggedRows) as exc:
            parse_matrix_file(p)
        assert exc.value.line == 2

    def test_parse_error_position(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,zebra\n")
        with pytest.raises(ParseError) as exc:
            parse_matrix_file(p)
        assert exc.value.line == 2 and exc.value.column == 2

    @pytest.mark.parametrize("text, line, column, detail", [
        ("1,,2\n", 1, 2, "empty cell"),
        ("1,2\ninf,4\n", 2, 1, "non-finite value"),
        (" \n\n", 1, 1, "no rows"),
    ])
    def test_csv_refused(self, tmp_path, text, line, column, detail):
        p = tmp_path / "m.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match=detail) as exc:
            parse_matrix_file(p)
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_json_row_arrays(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("[[1, 2], [3, 4]]")
        assert np.array_equal(parse_matrix_file(p), np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_json_document_with_matrix_key(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"matrix": [[5]]}')
        assert np.array_equal(parse_matrix_file(p), np.array([[5.0]]))

    def test_json_document_with_one_array_under_another_key(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"name": "m", "rows": [[1, 2], [3, 4]]}')
        assert np.array_equal(parse_matrix_file(p), np.array([[1.0, 2.0], [3.0, 4.0]]))

    @pytest.mark.parametrize("text, exc, detail", [
        ('{"a": [[1]], "b": [[2]]}', ParseError, "exactly one matrix"),
        ("[]", ParseError, "nonempty array"),
        ("[1, 2]", ParseError, "rows to be arrays"),
        ("[[1, 2], [3]]", RaggedRows, None),
        ("[[1, NaN]]", ParseError, "non-finite constant 'NaN'"),
        ("[[1, 1e999]]", ParseError, "finite 2-d numeric array"),
        ("[[[1]]]", ParseError, "finite 2-d numeric array"),
    ])
    def test_json_refused(self, tmp_path, text, exc, detail):
        p = tmp_path / "m.json"
        p.write_text(text)
        with pytest.raises(exc, match=detail):
            parse_matrix_file(p)

    def test_csv_with_byte_order_mark(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        assert np.array_equal(parse_matrix_file(p), np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_json_error_position_counts_leading_blank_lines(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("\n\n[[1, 2],\n [3 4]]")
        with pytest.raises(ParseError) as exc:
            parse_matrix_file(p)
        assert (exc.value.line, exc.value.column) == (4, 5)

    def test_scenario_with_byte_order_mark(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_bytes(b"\xef\xbb\xbf" + json.dumps(
            {"kind": "pdet", "inputs": {"H": A_SING}}).encode("utf-8"))
        sc = load_scenario(p)
        assert sc.kind == "pdet" and sc.inputs == {"H": A_SING}


class TestRunScenario:
    def test_pdet_worked_example(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, {
            "kind": "pdet",
            "inputs": {"H": A_SING},
            "parameters": {"tol_rel": 1e-9},
        }))
        rep = run_scenario(sc)
        assert rep.exit_code == 0
        text = rep.render()
        assert "pdet.value: 2.0000000000000000e+00" in text
        assert "pdet.nullity: 1" in text
        assert "status: ok" in text

    def test_incompatible_lemma_exits_2_with_report(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, {
            "kind": "pdet-lemma",
            "inputs": {"H": A_SING, "U": [[0.0], [0.0], [1.0]],
                       "V": [[0.0], [0.0], [1.0]]},
            "parameters": {"tol_rel": 1e-9},
        }))
        rep = run_scenario(sc)
        assert rep.exit_code == 2
        text = rep.render()
        assert "error: CompatibilityViolated" in text
        assert "compatibility.norm_p0u: 1.0000000000000000e+00" in text
        assert "status: hypothesis-violation" in text

    def test_nonpositive_determinant_exits_2(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, {
            "kind": "logdet",
            "inputs": {"H": [[-1.0, 0.0], [0.0, 1.0]], "us": [[1.0, 0.0]],
                       "vs": [[1.0, 0.0]]},
            "parameters": {},
        }))
        rep = run_scenario(sc)
        assert rep.exit_code == 2
        assert "error: NonPositiveDeterminant" in rep.render()

    def test_index_greater_than_one_exits_2(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, {
            "kind": "drazin",
            "inputs": {"H": [[0.0, 1.0], [0.0, 0.0]]},
            "parameters": {"tol_rel": 1e-9},
        }))
        rep = run_scenario(sc)
        assert rep.exit_code == 2
        assert "error: IndexGreaterThanOne" in rep.render()

    def test_input_error_exits_1(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, {
            "kind": "pdet",
            "inputs": {"H": [[1.0, 2.0]]},  # not square
            "parameters": {},
        }))
        rep = run_scenario(sc)
        assert rep.exit_code == 1
        assert "status: input-error" in rep.render()

    def test_gramian_report_contains_factor_table(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, {
            "kind": "gramian",
            "inputs": {"A": [[0.72, 0.55], [-0.18, 0.78]], "B": [[1.0], [0.15]]},
            "parameters": {"horizon": 4, "tol_rel": 1e-9},
        }))
        rep = run_scenario(sc)
        assert rep.exit_code == 0
        text = rep.render()
        assert "factor[4]" in text
        assert "pdet.estimate:" in text
        assert "log_pdet:" in text

    def test_hypothesis_violations_all_map_to_exit_2(self):
        for exc_type in (IntermediateSingular, NonPositiveDeterminant,
                         CompatibilityViolated, IndexGreaterThanOne):
            assert issubclass(exc_type, HypothesisViolation)

    def test_matrix_input_from_csv_file(self, tmp_path):
        (tmp_path / "h.csv").write_text("-1,0,0\n0,-2,0\n0,0,0\n")
        sc = load_scenario(write_scenario(tmp_path, {
            "kind": "pdet",
            "inputs": {"H": "h.csv"},
            "parameters": {"tol_rel": 1e-9},
        }))
        rep = run_scenario(sc)
        assert rep.exit_code == 0
        assert "pdet.value: 2.0000000000000000e+00" in rep.render()

    def test_vector_input_from_csv_file(self, tmp_path):
        # a 1-row and a 1-column CSV file read as the inline vector
        (tmp_path / "row.csv").write_text("0.5,-2,3\n")
        (tmp_path / "col.csv").write_text("0.5\n-2\n3\n")
        reports = []
        for u in ([0.5, -2.0, 3.0], "row.csv", "col.csv"):
            sc = load_scenario(write_scenario(tmp_path, {
                "kind": "det-update",
                "inputs": {"H": A_SING, "u": u, "v": [1.0, 1.0, 1.0]},
            }))
            rep = run_scenario(sc)
            assert rep.exit_code == 0
            reports.append(rep.render())
        assert "vector u (3):" in reports[0]
        assert reports[1] == reports[0] and reports[2] == reports[0]


class TestEveryKind:
    SCENARIOS = {
        "det-update": {
            "inputs": {"H": A_SING, "u": [0.0, 0.0, 1.0], "v": [0.3, -1.2, 2.0]},
            "parameters": {},
            "expect": "det: 4.0000000000000000e+00",
        },
        "det-sequence": {
            "inputs": {"H": A_SING, "us": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                       "vs": [[0.3, -1.2, 2.0], [0.5, 0.7, 0.0]]},
            "parameters": {},
            "expect": "det.final: 2.0000000000000000e+00",
        },
        "logdet": {
            "inputs": {"H": [[1.0, 0.0], [0.0, 1.0]], "us": [[1.0, 0.0]],
                       "vs": [[1.0, 0.0]]},
            "parameters": {},
            "expect": "det.final: 2.0000000000000000e+00",
        },
        "drazin": {
            "inputs": {"H": A_SING},
            "parameters": {"tol_rel": 1e-9},
            "expect": "nullity_nu: 1",
        },
        "pdet": {
            "inputs": {"H": A_SING},
            "parameters": {"tol_rel": 1e-9},
            "expect": "pdet.value: 2.0000000000000000e+00",
        },
        "pdet-lemma": {
            "inputs": {"H": A_SING, "U": [[1.0], [0.0], [0.0]],
                       "V": [[0.25], [0.7], [0.0]]},
            "parameters": {"tol_rel": 1e-9},
            "expect": "pdet_lemma.value: 1.5000000000000000e+00",
        },
        "regularized-limit": {
            "inputs": {"H": A_SING, "U": [[1.0], [0.0], [0.0]],
                       "V": [[0.25], [0.7], [0.0]]},
            "parameters": {"tol_rel": 1e-9},
            "expect": "converged: true",
        },
        "secular": {
            "inputs": {"A": [[-1.0, 0.0], [0.0, -2.0]], "u": [1.0, 0.0],
                       "v": [3.0, 0.0]},
            "parameters": {"lambda": 2.0},
            "expect": "secular.value: (0.0000000000000000e+00",
        },
        "stability": {
            "inputs": {"A": [[-1.0, 0.0], [0.0, -2.0]], "u": [1.0, 0.0],
                       "v": [3.0, 0.0]},
            "parameters": {},
            "expect": "winding: 1",
        },
        "covariance": {
            "inputs": {"P": [[1.0, 0.0], [0.0, 1.0]], "us": [[1.0, 0.0]]},
            "parameters": {},
            "expect": "upper_bound: 1.0000000000000000e+00",
        },
        "info-filter": {
            "inputs": {"P": [[1.0, 0.0], [0.0, 1.0]], "vs": [[1.0, 0.0]]},
            "parameters": {},
            "expect": "step 1: factor: 5.0000000000000000e-01",
        },
        "gramian": {
            "inputs": {"A": [[0.72, 0.55], [-0.18, 0.78]], "B": [[1.0], [0.15]]},
            "parameters": {"horizon": 4, "tol_rel": 1e-9},
            "expect": "rank_r: 2",
        },
        "perturb-experiment": {
            "inputs": {"A": [[0.72, 0.55], [-0.18, 0.78]], "B": [[1.0], [0.15]]},
            "parameters": {"horizon": 4, "noise_scale": 0.0, "trials": 2,
                           "seed": 1, "tol_rel": 1e-9},
            "expect": "mean.rank: 2.0000000000000000e+00",
        },
    }

    @pytest.mark.parametrize("kind", sorted(SCENARIOS))
    def test_kind_runs_clean(self, tmp_path, kind):
        spec = self.SCENARIOS[kind]
        sc = load_scenario(write_scenario(tmp_path, {
            "kind": kind, "inputs": spec["inputs"],
            "parameters": spec["parameters"],
        }))
        rep = run_scenario(sc)
        text = rep.render()
        assert rep.exit_code == 0, text
        assert spec["expect"] in text

    # the package modules beyond errors, kernel and cli that a call loads
    LOADS = {
        **dict.fromkeys(("det-update", "det-sequence", "logdet"), {"updates"}),
        **dict.fromkeys(("drazin", "pdet", "pdet-lemma", "regularized-limit"),
                        {"drazin"}),
        # spectral runs on the update walk; control on the eps-limit engine
        **dict.fromkeys(("secular", "stability"), {"spectral", "updates"}),
        **dict.fromkeys(("covariance", "info-filter", "gramian", "ellipse-plot",
                         "perturb-experiment"), {"control", "drazin"}),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_main_loads_only_its_modules(self, tmp_path, kind):
        spec = self.SCENARIOS.get(kind, {
            "inputs": {"A": [[0.72, 0.55], [-0.18, 0.78]], "B": [[1.0], [0.15]]},
            "parameters": {"horizon": 4, "eps": 0.05, "svg": "out.svg"},
        })
        sc = write_scenario(tmp_path, {"kind": kind, "inputs": spec["inputs"],
                                       "parameters": spec["parameters"]})
        argv = [kind, "--scenario", str(sc), "--out", str(tmp_path / "report.txt")]
        code = (f"import sys\nfrom detdyn.cli import main\nprint(main({argv!r}))\n"
                "print(' '.join(m for m in sys.modules if m.startswith('detdyn')))")
        src = Path(main.__code__.co_filename).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)}).stdout.split()
        assert out[0] == "0"
        base = {"detdyn", "detdyn.errors", "detdyn.kernel", "detdyn.cli"}
        assert set(out[1:]) == base | {f"detdyn.{m}" for m in self.LOADS[kind]}

    def test_ellipse_plot_kind(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, {
            "kind": "ellipse-plot",
            "inputs": {"A": [[0.72, 0.55], [-0.18, 0.78]], "B": [[1.0], [0.15]]},
            "parameters": {"horizon": 4, "eps": 0.05, "svg": "out.svg"},
        }))
        rep = run_scenario(sc)
        assert rep.exit_code == 0
        assert (tmp_path / "out.svg").exists()


LAYOUTS = Path(__file__).with_name("report_layouts.txt")
FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d*(?:e[+-]?\d+)?|\d+e[+-]?\d+|inf|nan)(?![\w.])")


def report_layout(text: str, base_dir) -> str:
    """A report with its scenario directory masked as <dir> and every float
    literal as <f>: its line order, labels and echo blocks, not its digits."""
    return FLOAT.sub("<f>", text.replace(str(base_dir), "<dir>"))


def pinned_layouts() -> dict:
    """The layouts in LAYOUTS, by case name (its ``=== name`` line)."""
    out, name = {}, None
    for line in LAYOUTS.read_text(encoding="utf-8").splitlines():
        if line.startswith("=== "):
            name = line[4:]
            out[name] = ""
        elif name is not None:
            out[name] += line + "\n"
    return out


class TestReportLayout:
    """Every kind's report, and an exit-1 and an exit-2 report per handler
    family, keep the layout pinned in report_layouts.txt."""

    GRAMIAN = {"A": [[0.72, 0.55], [-0.18, 0.78]], "B": [[1.0], [0.15]]}
    CASES = {
        **{f"{kind}.exit-0": (kind, spec["inputs"], spec["parameters"])
           for kind, spec in TestEveryKind.SCENARIOS.items()},
        "ellipse-plot.exit-0": ("ellipse-plot", GRAMIAN,
                                {"horizon": 4, "eps": 0.05, "svg": "out.svg"}),
        # updates: u too short, after the echo; a negative determinant
        "det-update.exit-1": ("det-update", {"H": A_SING, "u": [0.0, 1.0],
                                             "v": [0.3, -1.2, 2.0]}, {}),
        "logdet.exit-2": ("logdet", {"H": [[1.0, 0.0], [0.0, 1.0]], "us": [[1.0, 0.0]],
                                     "vs": [[-2.0, 0.0]]}, {}),
        # drazin: U of the wrong height; U outside the range of H
        "pdet-lemma.exit-1": ("pdet-lemma", {"H": A_SING, "U": [[1.0], [0.0]],
                                             "V": [[0.25], [0.7], [0.0]]}, {"tol_rel": 1e-9}),
        "pdet-lemma.exit-2": ("pdet-lemma", {"H": A_SING, "U": [[0.0], [0.0], [1.0]],
                                             "V": [[0.25], [0.7], [0.0]]}, {"tol_rel": 1e-9}),
        # spectral: a one-entry lambda; an unstable base
        "secular.exit-1": ("secular", {"A": [[-1.0, 0.0], [0.0, -2.0]], "u": [1.0, 0.0],
                                       "v": [3.0, 0.0]}, {"lambda": [1]}),
        "stability.exit-2": ("stability", {"A": [[1.0, 0.0], [0.0, -2.0]], "u": [1.0, 0.0],
                                           "v": [3.0, 0.0]}, {}),
        # control: a negative noise scale; a sweep too coarse to settle
        "perturb-experiment.exit-1": ("perturb-experiment", GRAMIAN,
                                      {"horizon": 4, "trials": 2, "noise_scale": -0.1}),
        "gramian.exit-2": ("gramian", GRAMIAN, {"horizon": 4, "tol_rel": 1e-9,
                                                "eps_schedule": [1.0, 0.5, 0.25]}),
    }

    def test_every_pinned_layout_has_a_case(self):
        assert set(pinned_layouts()) == set(self.CASES)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_layout_is_pinned(self, tmp_path, name):
        kind, inputs, params = self.CASES[name]
        rep = run_scenario(load_scenario(write_scenario(tmp_path, {
            "kind": kind, "inputs": inputs, "parameters": params})))
        assert rep.exit_code == int(name[-1])
        assert report_layout(rep.render(), tmp_path) == pinned_layouts()[name]


class TestRoundTrip:
    def test_echoed_matrix_reparses_exactly(self, tmp_path, rng):
        h = rng.standard_normal((3, 3)) / 3.0
        sc = load_scenario(write_scenario(tmp_path, {
            "kind": "drazin",
            "inputs": {"H": (h + 3.0 * np.eye(3)).tolist()},
            "parameters": {},
        }))
        rep = run_scenario(sc)
        lines = rep.render().splitlines()
        start = lines.index("matrix H (3x3):") + 1
        block = "\n".join(lines[start:start + 3]) + "\n"
        p = tmp_path / "echo.csv"
        p.write_text(block)
        reparsed = parse_matrix_file(p)
        assert np.array_equal(reparsed, np.array(h + 3.0 * np.eye(3)))

    def test_fmt_is_lossless(self, rng):
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-20, 20))
            assert float(fmt(x)) == x


class TestSvg:
    def build(self):
        return build_gramian(np.array([[0.72, 0.55], [-0.18, 0.78]]),
                             np.array([[1.0], [0.15]]), 4)

    def test_structure_and_area_monotonicity(self, tmp_path):
        out = tmp_path / "e.svg"
        emit_ellipse_svg(self.build(), 0.05, out)
        root = ET.parse(out).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        ellipses = root.findall(f".//{ns}ellipse")
        assert len(ellipses) == 5
        areas = [float(e.get("data-area")) for e in ellipses]
        assert all(b > a for a, b in zip(areas, areas[1:]))
        texts = root.findall(f".//{ns}text")
        assert len(texts) == 5

    def test_byte_determinism(self, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        emit_ellipse_svg(self.build(), 0.05, a)
        emit_ellipse_svg(self.build(), 0.05, b)
        assert a.read_bytes() == b.read_bytes()

    def test_zero_system_identical_circles(self, tmp_path):
        g = build_gramian(np.zeros((2, 2)), np.zeros((2, 1)), 3)
        out = tmp_path / "z.svg"
        shapes = emit_ellipse_svg(g, 0.25, out)
        assert len(shapes) == 4
        for e in shapes:
            assert abs(e.semi_axis_a - 0.5) <= 1e-15
            assert abs(e.semi_axis_b - 0.5) <= 1e-15

    def test_three_state_rejected(self, tmp_path):
        g = build_gramian(np.zeros((3, 3)), np.ones((3, 1)), 2)
        with pytest.raises(NotTwoDimensional):
            emit_ellipse_svg(g, 0.1, tmp_path / "x.svg")

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, tmp_path, eps):
        with pytest.raises(InputError, match="eps must be finite"):
            emit_ellipse_svg(self.build(), eps, tmp_path / "x.svg")
        assert not (tmp_path / "x.svg").exists()


class TestMain:
    def test_pdet_end_to_end(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, {
            "kind": "pdet", "inputs": {"H": A_SING}, "parameters": {"tol_rel": 1e-9},
        })
        code = main(["pdet", "--scenario", str(sc)])
        assert code == 0
        assert "pdet.value: 2.0000000000000000e+00" in capsys.readouterr().out

    def test_out_file_and_determinism(self, tmp_path):
        sc = write_scenario(tmp_path, {
            "kind": "perturb-experiment",
            "inputs": {"A": [[0.72, 0.55], [-0.18, 0.78]], "B": [[1.0], [0.15]]},
            "parameters": {"horizon": 4, "noise_scale": 0.1, "trials": 5,
                           "seed": 11, "tol_rel": 1e-9},
        })
        out1 = tmp_path / "r1.txt"
        out2 = tmp_path / "r2.txt"
        assert main(["perturb-experiment", "--scenario", str(sc),
                     "--out", str(out1)]) == 0
        assert main(["perturb-experiment", "--scenario", str(sc),
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_changes_report(self, tmp_path):
        sc = write_scenario(tmp_path, {
            "kind": "perturb-experiment",
            "inputs": {"A": [[0.72, 0.55], [-0.18, 0.78]], "B": [[1.0], [0.15]]},
            "parameters": {"horizon": 4, "noise_scale": 0.1, "trials": 5,
                           "seed": 11, "tol_rel": 1e-9},
        })
        out1 = tmp_path / "r1.txt"
        out2 = tmp_path / "r2.txt"
        main(["perturb-experiment", "--scenario", str(sc), "--out", str(out1)])
        main(["perturb-experiment", "--scenario", str(sc), "--seed", "12",
              "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_kind_mismatch(self, tmp_path):
        sc = write_scenario(tmp_path, {"kind": "pdet", "inputs": {"H": A_SING},
                                       "parameters": {}})
        assert main(["drazin", "--scenario", str(sc)]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["pdet", "--scenario", str(tmp_path / "nope.json")]) == 1

    def test_exit_2_through_main(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, {
            "kind": "drazin", "inputs": {"H": [[0.0, 1.0], [0.0, 0.0]]},
            "parameters": {"tol_rel": 1e-9},
        })
        assert main(["drazin", "--scenario", str(sc)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["pdet"],
        ["pdet", "--scenario", "s.json", "--no-such-flag"],
        ["no-such-kind", "--scenario", "s.json"],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        # 2 is reserved for violated hypotheses
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage: detdyn" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["pdet", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: detdyn" in capsys.readouterr().out

    def test_ellipse_plot_via_flag(self, tmp_path, capsys):
        sc = write_scenario(tmp_path, {
            "kind": "ellipse-plot",
            "inputs": {"A": [[0.72, 0.55], [-0.18, 0.78]], "B": [[1.0], [0.15]]},
            "parameters": {"horizon": 4, "eps": 0.05},
        })
        svg = tmp_path / "fig.svg"
        assert main(["ellipse-plot", "--scenario", str(sc),
                     "--svg", str(svg)]) == 0
        assert svg.exists()
        capsys.readouterr()


class TestTolerancePrecedence:
    def scenario(self, tmp_path, with_param):
        params = {"tol_rel": 1e-7} if with_param else {}
        return write_scenario(tmp_path, {
            "kind": "pdet", "inputs": {"H": A_SING}, "parameters": params,
        })

    def test_env_used_when_unset(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DETDYN_TOL_REL", "1e-6")
        main(["pdet", "--scenario", str(self.scenario(tmp_path, False))])
        assert "tolerance.rel: 9.9999999999999995e-07" in capsys.readouterr().out

    def test_scenario_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DETDYN_TOL_REL", "1e-6")
        main(["pdet", "--scenario", str(self.scenario(tmp_path, True))])
        assert "tolerance.rel: 9.9999999999999995e-08" in capsys.readouterr().out

    def test_flag_beats_scenario(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DETDYN_TOL_REL", "1e-6")
        main(["pdet", "--scenario", str(self.scenario(tmp_path, True)),
              "--tol-rel", "1e-9"])
        assert "tolerance.rel: 1.0000000000000001e-09" in capsys.readouterr().out


class TestBadParameters:
    """A parameter of the wrong value, type or shape is an input error,
    reported with exit 1, never a traceback."""

    GRAMIAN = {"A": [[0.72, 0.55], [-0.18, 0.78]], "B": [[1.0], [0.15]]}

    def run(self, tmp_path, capsys, kind, inputs, parameters, *flags):
        sc = write_scenario(tmp_path, {"kind": kind, "inputs": inputs,
                                       "parameters": parameters})
        code = main([kind, "--scenario", str(sc), *flags])
        out = capsys.readouterr().out
        assert code == 1, out
        assert out.endswith("status: input-error\n")
        return out

    @pytest.mark.parametrize("value", ["0", "-1", "inf"])
    def test_tol_rel_flag(self, tmp_path, capsys, value):
        out = self.run(tmp_path, capsys, "pdet", {"H": A_SING}, {},
                       "--tol-rel", value)
        assert "error: ValueError" in out

    def test_tol_rel_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DETDYN_TOL_REL", "abc")
        self.run(tmp_path, capsys, "pdet", {"H": A_SING}, {})

    def test_secular_lambda_one_entry(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys, "secular",
                       {"A": [[-1.0, 0.0], [0.0, -2.0]], "u": [1.0, 0.0],
                        "v": [3.0, 0.0]}, {"lambda": [1]})
        assert "error: InputError" in out and "'lambda'" in out

    def test_perturb_seed_list(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys, "perturb-experiment", self.GRAMIAN,
                       {"horizon": 4, "trials": 2, "seed": [1]})
        assert "error: InputError" in out and "'seed'" in out

    def test_gramian_scalar_schedule(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys, "gramian", self.GRAMIAN,
                       {"horizon": 4, "eps_schedule": 5})
        assert "error: InputError" in out and "'eps_schedule'" in out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_perturb_non_finite_noise(self, tmp_path, capsys, value):
        out = self.run(tmp_path, capsys, "perturb-experiment", self.GRAMIAN,
                       {"horizon": 4, "trials": 2, "noise_scale": value})
        assert "error: ValueError" in out and "noise_scale must be finite" in out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_ellipse_non_finite_eps(self, tmp_path, capsys, value):
        out = self.run(tmp_path, capsys, "ellipse-plot", self.GRAMIAN,
                       {"horizon": 4, "eps": value, "svg": "out.svg"})
        assert "error: InputError" in out and "eps must be finite" in out

    @pytest.mark.parametrize("value", ["0", "-1e-3", "-inf"])
    def test_eps_min_not_positive(self, tmp_path, capsys, value):
        out = self.run(tmp_path, capsys, "gramian", self.GRAMIAN, {"horizon": 4},
                       f"--eps-min={value}")
        assert "error: ValueError" in out and "eps_min > 0" in out

    @pytest.mark.parametrize("doc, error, detail", [
        ([1], "ParseError", "scenario document must be an object"),
        ({"kind": "nope"}, "InputError", "unknown scenario kind 'nope'"),
        ({"kind": "pdet", "inputs": [1]}, "ParseError",
         "'inputs' and 'parameters' must be objects"),
    ])
    def test_scenario_document_refused(self, tmp_path, capsys, doc, error, detail):
        sc = write_scenario(tmp_path, doc)
        code = main(["pdet", "--scenario", str(sc)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith(f"detdyn: {error}: ") and detail in err

    STREAM = {"H": [[1.0, 0.0], [0.0, 1.0]], "us": [[1.0, 0.0]], "vs": [[0.0, 1.0]]}

    @pytest.mark.parametrize("kind, inputs, detail", [
        ("det-update", {"H": [[1.0]], "u": [1.0]}, "missing input 'v'"),
        ("det-update", {"H": [[1.0, 0.0], [0.0, 1.0]], "u": "u.csv", "v": [1.0, 0.0]},
         "input 'u' is not a vector"),
        ("det-update", {"H": [[1.0, 0.0], [0.0, 1.0]], "u": [[1.0], [0.0]],
                        "v": [1.0, 0.0]}, "input 'u' is not a flat array"),
        ("det-sequence", {**STREAM, "us": 5}, "input 'us' must be an array of vectors"),
        ("det-sequence", {**STREAM, "vs": [[0.0, 1.0]] * 2}, "must have the same length"),
    ])
    def test_inputs_refused(self, tmp_path, capsys, kind, inputs, detail):
        (tmp_path / "u.csv").write_text("1,0\n0,1\n")
        out = self.run(tmp_path, capsys, kind, inputs, {})
        assert "error: InputError" in out and detail in out

    def test_ellipse_without_svg(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys, "ellipse-plot", self.GRAMIAN, {"horizon": 4})
        assert "error: InputError" in out and "needs an SVG output path" in out

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_ellipse_eps_not_positive(self, tmp_path, capsys, value):
        out = self.run(tmp_path, capsys, "ellipse-plot", self.GRAMIAN,
                       {"horizon": 4, "eps": value, "svg": "out.svg"})
        assert "error: InputError" in out and "eps must be positive" in out
        assert not (tmp_path / "out.svg").exists()

    STABILITY = {"A": [[-1.0, 0.0], [0.0, -2.0]], "u": [1.0, 0.0], "v": [0.5, 0.0]}

    @pytest.mark.parametrize("kind,key,value", [
        ("gramian", "horizon", 2.7),  # once a horizon-2 Gramian
        ("gramian", "horizon", True),
        ("gramian", "horizon", float("inf")),  # once an OverflowError traceback
        ("perturb-experiment", "trials", True),  # once one trial
        ("perturb-experiment", "trials", 2.5),
        ("perturb-experiment", "seed", 1.5),
        ("perturb-experiment", "seed", False),
        ("stability", "samples", 9.9),  # once 9 samples
    ])
    def test_count_not_an_integer(self, tmp_path, capsys, kind, key, value):
        inputs = self.STABILITY if kind == "stability" else self.GRAMIAN
        out = self.run(tmp_path, capsys, kind, inputs, {"horizon": 2, "trials": 2, key: value})
        assert "error: InputError" in out and f"'{key}' is not an integer" in out

    @pytest.mark.parametrize("kind,key,value", [
        ("gramian", "horizon", 1e308),  # once allocated until MemoryError
        ("ellipse-plot", "horizon", cli._COUNT_CAP + 1),
        ("perturb-experiment", "trials", 1e308),  # once ran without end
        ("perturb-experiment", "trials", cli._COUNT_CAP + 1),
        ("stability", "samples", spectral._SAMPLE_CAP + 1),
    ])
    def test_count_above_cap(self, tmp_path, capsys, kind, key, value):
        inputs = self.STABILITY if kind == "stability" else self.GRAMIAN
        out = self.run(tmp_path, capsys, kind, inputs,
                       {"horizon": 2, "trials": 2, "svg": "out.svg", key: value})
        assert "error: InputError" in out and f"'{key}' is {int(value)}, above its cap" in out
        assert not (tmp_path / "out.svg").exists()

    def test_directions_above_cap(self, tmp_path, capsys):
        # the cap bounds horizon times the columns of B, the direction count
        inputs = {"A": self.GRAMIAN["A"], "B": [[1.0, 0.0], [0.15, 1.0]]}
        out = self.run(tmp_path, capsys, "gramian", inputs,
                       {"horizon": cli._COUNT_CAP // 2 + 1})
        assert f"above its cap {cli._COUNT_CAP // 2}" in out

    def test_b_without_columns(self, tmp_path, capsys):
        out = self.run(tmp_path, capsys, "gramian", {"A": self.GRAMIAN["A"], "B": [[], []]},
                       {"horizon": 2})
        assert "error: DimensionMismatch" in out

    @pytest.mark.parametrize("kind,inputs", [
        ("det-update", {"H": A_SING, "u": {"a": 1}, "v": [0.3, -1.2, 2.0]}),
        ("covariance", {"P": [[1.0, 0.0], [0.0, 1.0]], "us": [{"a": 1}]}),
    ])
    def test_vector_given_as_object(self, tmp_path, capsys, kind, inputs):
        out = self.run(tmp_path, capsys, kind, inputs, {})
        assert "error: InputError" in out and "non-numeric" in out
