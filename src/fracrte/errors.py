"""Exception types shared across the library.

Domain violations subclass ``ValueError`` so callers that only know the
standard library still catch them; numerical failures subclass
:class:`NumericalError` (a ``RuntimeError``) and carry enough state to
diagnose where the method broke.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical method failed on valid input."""


class InvalidPhaseFunctionError(ValueError):
    """Scattering kernel coefficients produce an inadmissible kernel."""


class ConfigurationError(ValueError):
    """Inconsistent solver configuration (e.g. truncation below kernel degree)."""


class EigenSolverError(NumericalError):
    """Eigendecomposition failed; ``k`` holds the wavenumbers of the
    matrices the solver rejected."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


class DefectiveOperatorError(NumericalError):
    """Eigenvalues coalesced; the eigenvector expansion is invalid."""

    def __init__(self, message, k=None):
        super().__init__(message)
        self.k = k


class ResolventError(NumericalError):
    """A shifted operator was (numerically) singular during a resolvent solve."""


class QuadratureError(NumericalError):
    """Oscillatory quadrature gave a non-finite value or could not displace
    a defective wavenumber, or an operational-time kernel node left the
    floating-point range.  ``detail`` holds the offending points."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail or {}


class ScaleError(ValueError):
    """A random-walk time scale is too coarse for the requested rates."""


class DegenerateTransportError(ValueError):
    """Transport coefficients degenerate (anisotropy factor reaching one)."""
