"""Exception hierarchy shared across the package.

Every failure mode that a verification routine can signal deliberately (as
opposed to a plain bug) gets its own class, so callers can tell "the linear
system had no solution" apart from "the parameters are outside the admissible
domain" without string matching.
"""


class XSuperintError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(XSuperintError):
    """Model parameters outside the admissible domain (e.g. alpha == beta)."""


class NoSolutionError(XSuperintError):
    """An exact linear solve (eigenpolynomial / operator ansatz) has no solution."""


class NonUniqueSolutionError(XSuperintError):
    """An exact linear solve has a solution space of dimension > 1."""


class OutOfFamilyError(XSuperintError):
    """A ladder step was requested that leaves the state lattice."""


class VerificationError(XSuperintError):
    """Neither the candidate nor the derived form of an operator maps basis to basis."""


class DomainError(XSuperintError):
    """Classical model parameters outside their domain: a non-positive omega
    or k, or a non-positive barrier strength (raised by `ClassicalModel`)."""


class NumericalOverflowError(XSuperintError):
    """A float evaluation would overflow (grid radius too large for omega)."""


class QuadratureError(XSuperintError):
    """Quadrature failed to converge under order doubling."""


class WedgeExitError(XSuperintError):
    """A classical trajectory left the open wedge mid-integration."""


class StepSizeError(XSuperintError):
    """Bad integration step or horizon (non-positive or non-finite step,
    negative time, an empty closure window), or no convergence-probe rung
    could be certified."""


class InsufficientSpanError(XSuperintError):
    """A trajectory is too short for the requested diagnostic."""
