"""Exception hierarchy.

Two families matter to callers (and to the CLI exit-code contract):

* ``InputError`` covers malformed or out-of-contract inputs (bad shapes,
  unparsable files, schedules that are too short, ...).
* ``HypothesisViolation`` covers inputs that are well formed but violate
  the mathematical hypothesis of the identity being evaluated (a singular
  intermediate matrix, a nonpositive determinant where a log is required,
  an index greater than one, a failed nullspace-compatibility check, ...).
  These are reported, never silently absorbed.
"""

from __future__ import annotations


class DetDynError(Exception):
    """Base class for every error raised by this package."""


class InputError(DetDynError):
    """Invalid or out-of-contract input."""


class HypothesisViolation(DetDynError):
    """The hypothesis of the evaluated identity fails on this input."""


class NonSquare(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class Singular(InputError):
    """An inverse was required of a matrix singular at tolerance.

    Raised by the kernel's inverse, it hands back what the decision
    formed: ``inverse``, LAPACK's LU inverse (None where LAPACK refused
    the LU), and ``singular_values``, descending (None where no SVD ran).
    """

    def __init__(self, message: str = "", *, inverse=None, singular_values=None):
        super().__init__(message)
        self.inverse = inverse
        self.singular_values = singular_values


class RootFindDivergence(InputError):
    """LAPACK's eigensolver failed to converge."""


class NotPositiveDefinite(InputError):
    pass


class NotPSD(InputError):
    pass


class NotTwoDimensional(InputError):
    pass


class ScheduleTooShort(InputError):
    """A regularization schedule needs at least three points."""


class NonSymmetricUpdate(InputError):
    """contribution_analysis requires u_i == v_i for every update."""


class ContourTooCoarse(InputError):
    """Phase steps stayed above pi/2 even at the sample cap."""


class NullityMismatch(InputError):
    """Coefficient-based and rank-based nullity estimates disagree. The
    lemma routes take the nullity from one rank decision and never raise it."""


class ParseError(InputError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


class RaggedRows(InputError):
    def __init__(self, line: int, message: str = "row length differs from first row"):
        self.line = line
        super().__init__(f"line {line}: {message}")


class IntermediateSingular(HypothesisViolation):
    """det(H + Delta_k) fell below tolerance for an intermediate k."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"intermediate matrix at step {step} is singular at tolerance")


class NonPositiveDeterminant(HypothesisViolation):
    """det(H + Delta_k) <= 0 where a log-determinant was requested."""

    def __init__(self, step: int, value: float):
        self.step = step
        self.value = value
        super().__init__(f"det at step {step} is {value!r}, not positive")


class IndexGreaterThanOne(HypothesisViolation):
    """The zero eigenvalue is not semisimple (nilpotent structure present)."""


class AllCoefficientsBelowTolerance(HypothesisViolation):
    """No nonzero eigenvalue detected, pseudodeterminant undefined."""


class CompatibilityViolated(HypothesisViolation):
    """P0*U or V^T*P0 is not zero at tolerance."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"nullspace compatibility failed: |P0 U| = {report.norm_p0u:.3e}, "
            f"|V^T P0| = {report.norm_vtp0:.3e}"
        )


class NotConverged(HypothesisViolation):
    """Regularized values did not settle by the end of the schedule."""

    def __init__(self, message: str, per_eps):
        self.per_eps = tuple(per_eps)
        super().__init__(message)


class ResolventSingular(HypothesisViolation):
    """lambda is numerically an eigenvalue of the prefix matrix."""


class BaseNotHurwitz(HypothesisViolation):
    """The unperturbed matrix has an eigenvalue with Re >= 0."""


class EigenvalueOnContour(HypothesisViolation):
    """|f| vanished on the contour, boundary case left undecided."""
