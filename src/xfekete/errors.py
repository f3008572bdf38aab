"""Exception taxonomy.

Two branches: ValidationError for inputs that are malformed or outside the
supported parameter space (CLI exit code 1), and NumericalError for
computations that started from valid inputs but could not be completed
reliably (CLI exit code 2).
"""


class XFeketeError(Exception):
    """Base class for all package errors."""


class ValidationError(XFeketeError):
    """Invalid input or unsupported parameter combination."""


class InvalidFamily(ValidationError):
    """Unknown polynomial family tag."""


class DegreeCollapse(ValidationError):
    """A polynomial whose leading coefficient vanishes at the requested
    parameters, so it does not have the nominal degree."""


class NumericalError(XFeketeError):
    """A numerical procedure failed to meet its reliability contract."""


class PoleEvaluation(NumericalError):
    """Weight or potential evaluation at a pole of the log-derivative."""


class NullspaceDefect(NumericalError):
    """Built coefficients leave an ODE residual above the build tolerance
    (or a NaN one): they do not solve the equation that defines the
    polynomial."""


class RepresentationOverflow(NumericalError):
    """The coefficient vector spans more orders of magnitude than binary64
    can hold under the requested normalization."""


class CountMismatch(NumericalError):
    """Root finding produced the wrong number of zeros, or zeros landed
    inside the classification margin around the orthogonality interval."""


class CoincidentNodes(NumericalError):
    """Two nodes closer than resolution allows."""


class NonConvergence(NumericalError):
    """An iteration stopped short of its tolerance: its steps stopped
    shrinking, left binary64 or ran out of rounds, or the certificate
    failed.  Carries the iteration trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class DomainEscape(NumericalError):
    """Step-size control could not keep the iterate feasible."""
