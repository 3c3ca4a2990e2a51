"""detdyn: determinant and log-determinant dynamics under rank-one
updates, with adjugate-based identities that survive singular matrices,
a Drazin-inverse/pseudodeterminant extension of the matrix determinant
lemma, spectral shift and stability tests, and control/estimation
applications (covariance accounting, information filtering, Gramian
growth, reachable ellipsoids).

``import detdyn`` loads ``errors`` and ``kernel`` only. The names of
``updates``, ``drazin``, ``spectral`` and ``control`` are served by the
module ``__getattr__`` below (PEP 562), which imports their module on
first use and looks the name up there on every access, so a patched
module attribute is seen through the package and an undone patch leaves
the package's name as the original.
"""

from importlib import import_module as _import_module

from .errors import (
    AllCoefficientsBelowTolerance,
    BaseNotHurwitz,
    CompatibilityViolated,
    ContourTooCoarse,
    DetDynError,
    DimensionMismatch,
    EigenvalueOnContour,
    HypothesisViolation,
    IndexGreaterThanOne,
    InputError,
    IntermediateSingular,
    NonPositiveDeterminant,
    NonSquare,
    NonSymmetricUpdate,
    NotConverged,
    NotPositiveDefinite,
    NotPSD,
    NotTwoDimensional,
    NullityMismatch,
    ParseError,
    RaggedRows,
    ResolventSingular,
    RootFindDivergence,
    ScheduleTooShort,
    Singular,
)
from .kernel import (
    CharPoly,
    DEFAULT_TOL,
    Spectrum,
    Tolerance,
    adjugate,
    charpoly,
    det,
    eigenvalues,
    full_rank_factorization,
    inverse,
    rank,
    solve,
)

__version__ = "0.1.0"

# the names of the modules loaded on first use, by module
_MODULES = {
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
_LAZY = {name: module for module, names in _MODULES.items() for name in names.split()}

# the eager names, the errors and kernel modules bound by the imports
# above among them, then the lazy modules and their names
__all__ = [n for n in globals() if not n.startswith("_")] + list(_MODULES) + list(_LAZY)


def __getattr__(name: str):
    if name in _MODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULES) | set(_LAZY))
