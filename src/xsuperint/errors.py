"""Exception hierarchy shared across the package.

Every failure mode that a verification routine can signal deliberately (as
opposed to a plain bug) gets its own class, so callers can tell "the linear
system had no solution" apart from "the parameters are outside the admissible
domain" without string matching.
"""


class XSuperintError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(XSuperintError):
    """Model parameters outside the admissible domain (e.g. alpha == beta),
    quantum or classical (a k or barrier strength of `ClassicalModel` that is
    not positive and finite)."""


class NoSolutionError(XSuperintError):
    """An exact linear solve (eigenpolynomial / operator ansatz) has no solution."""


class NonUniqueSolutionError(XSuperintError):
    """An exact linear solve has a solution space of dimension > 1."""


class OutOfFamilyError(XSuperintError):
    """A ladder step was requested that leaves the state lattice."""


class VerificationError(XSuperintError):
    """A check could not be completed: an intertwiner holdout left its
    target's line (`ladders.action_coefficient`), an intertwiner ansatz's
    nullspace is not one line (`ladders._solve_intertwiner`), a composite
    chain image is zero or keeps a pole (`spectral.ladder_numeric_check`),
    or the worker computing part of `verify` ended without its result."""


class NumericalOverflowError(XSuperintError):
    """A float evaluation would overflow (grid radius too large for omega)."""


class QuadratureError(XSuperintError):
    """Quadrature failed to converge under order doubling, or a Gauss-Jacobi
    rule failed: its nodes are not strictly increasing inside (-1, 1) or a
    weight is not finite and positive."""


class WedgeExitError(XSuperintError):
    """A classical trajectory left the open wedge mid-integration."""


class StepSizeError(XSuperintError):
    """Bad integration step or horizon (non-positive or non-finite step,
    negative time, a step count that is not finite, an empty closure
    window), or no convergence-probe rung could be certified."""
