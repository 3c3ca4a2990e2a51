"""What ``import detdyn`` loads, and how the package serves the names of
the modules it loads on first use."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import detdyn

SRC = Path(detdyn.__file__).resolve().parents[1]

# the package's exports by defining module; from detdyn import * gives
# these names and the six module names
EXPORTS = {
    "errors": """AllCoefficientsBelowTolerance BaseNotHurwitz
        CompatibilityViolated ContourTooCoarse DetDynError DimensionMismatch
        EigenvalueOnContour HypothesisViolation IndexGreaterThanOne InputError
        IntermediateSingular NonPositiveDeterminant NonSquare NonSymmetricUpdate
        NotConverged NotPositiveDefinite NotPSD NotTwoDimensional NullityMismatch
        ParseError RaggedRows ResolventSingular RootFindDivergence
        ScheduleTooShort Singular""",
    "kernel": """CharPoly DEFAULT_TOL Spectrum Tolerance adjugate charpoly det
        eigenvalues full_rank_factorization inverse rank solve""",
    "updates": """ContributionStep DetTrace LogDetTrace RankOneUpdate
        UpdateSequence contribution_analysis det_product det_rank_one
        det_sequence logdet_sequence""",
    "drazin": """CompatibilityReport GroupInverseResult PdetResult
        RegularizedLimitResult compatibility_check default_eps_schedule
        group_inverse pdet pdet_lemma regularized_limit spectral_projector""",
    "spectral": """SecularEvaluation StabilityCertificate
        charpoly_perturbed_eval secular_value stability_preserved""",
    "control": """CovarianceTrace Ellipse2D GramianBuild GramianGrowth
        InfoFilterTrace PerturbationReport PerturbationTrial build_gramian
        covariance_trace gramian_pdet_growth growth_from_directions
        info_filter_trace perturbed_gramian_experiment reach_ellipse""",
}
EXPORTED = [(m, n) for m, names in EXPORTS.items() for n in names.split()]


def loaded_after(code: str) -> set:
    """The detdyn modules a fresh interpreter holds after running code."""
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\n"
         "print(' '.join(m for m in sys.modules if m.startswith('detdyn')))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout
    return set(out.split())


def test_import_loads_errors_and_kernel_only():
    assert loaded_after("import detdyn") == {"detdyn", "detdyn.errors", "detdyn.kernel"}


def test_import_cli_adds_only_cli():
    assert loaded_after("import detdyn.cli") == {
        "detdyn", "detdyn.errors", "detdyn.kernel", "detdyn.cli"}


def test_star_import_gives_the_exports_and_modules():
    ns = {}
    exec("from detdyn import *", ns)
    got = {k for k in ns if not k.startswith("_")}
    assert got == {n for _, n in EXPORTED} | set(EXPORTS)
    assert set(detdyn.__all__) == got and len(detdyn.__all__) == len(got)
    assert got <= set(dir(detdyn))


def test_exports_are_the_submodule_objects():
    wrong = [(m, n) for m, n in EXPORTED
             if getattr(detdyn, n) is not getattr(import_module(f"detdyn.{m}"), n)]
    assert wrong == []


def test_modules_are_attributes():
    for module in EXPORTS:
        assert getattr(detdyn, module) is import_module(f"detdyn.{module}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        detdyn.no_such_name
    with pytest.raises(ImportError):
        exec("from detdyn import no_such_name", {})


def test_patched_name_is_seen_and_undone(monkeypatch):
    from detdyn import updates

    original = updates.det_sequence
    monkeypatch.setattr(updates, "det_sequence", lambda *a: None)
    assert detdyn.det_sequence is updates.det_sequence is not original
    monkeypatch.undo()
    assert detdyn.det_sequence is original
